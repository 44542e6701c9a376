"""Gaussian elimination over a :class:`~whmetric.field.Field`, on rows
that are tuples of serialized field elements."""

from functools import cache


def row_reduce(field, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = field.inv(work[r][col])
        if inv != 1:
            work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return [tuple(w) for w in work[:r]], pivots


def _reduce_against(field, row, elim):
    """Eliminate ``row`` against normalized rows keyed by pivot column."""
    row = list(row)
    for col in range(len(row)):
        if row[col] and col in elim:
            f = row[col]
            piv = elim[col]
            row = [field.sub(x, field.mul(f, y)) for x, y in zip(row, piv)]
    return tuple(row)


def _leading_index(row):
    return next((i for i, x in enumerate(row) if x), None)


def _echelon(field, rows, elim):
    """Yield (row, its normalized reduction) for each of ``rows`` outside
    the span of ``elim`` and of the rows before it, adding the reduction
    to ``elim``, normalized rows keyed by pivot column."""
    for row in rows:
        red = _reduce_against(field, row, elim)
        lead = _leading_index(red)
        if lead is None:
            continue
        inv = field.inv(red[lead])
        elim[lead] = norm = tuple([field.mul(inv, x) for x in red])
        yield row, norm


def independent_rows(field, rows):
    """Subset of the original rows spanning the same space, order preserved."""
    return [tuple(row) for row, _ in _echelon(field, rows, {})]


@cache
def identity_rows(n):
    """The n unit vectors of length n, as a tuple of tuples built once per n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel {h : r . h = 0 for every row r}."""
    return _rref_kernel(field, *row_reduce(field, rows), ncols)


def _rref_kernel(field, rref, pivots, ncols):
    """Basis of the right kernel of ``rref``, a reduced row echelon form
    with pivot columns ``pivots``: one vector per free column, read off
    without elimination."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        h = [0] * ncols
        h[f] = 1
        for i, p in enumerate(pivots):
            h[p] = field.neg(rref[i][f])
        basis.append(tuple(h))
    return basis


def _left_inverse(field, rows, cols):
    """A solver for y . rows = target, built once per matrix.

    Row-reduces ``rows`` restricted to the coordinates ``cols``, with the
    identity appended, so the appended columns record the row operations.
    Returns None when the restriction has rank below len(rows).
    Otherwise returns (info, M): ``info`` holds k of the coordinates in
    ``cols`` on which the restricted rows are invertible, and M is the
    inverse of that k x k submatrix.  Then y = target[info] . M is the
    only y that can solve the system; it does when y . rows agrees with
    ``target`` on ``cols``, which the caller checks.
    """
    k = len(rows)
    width = len(cols)
    aug = [[row[c] for c in cols] + [int(i == j) for j in range(k)] for i, row in enumerate(rows)]
    rref, pivots = row_reduce(field, aug)
    if pivots and pivots[-1] >= width:  # the identity keeps the rank at k
        return None
    return tuple(cols[p] for p in pivots), tuple(row[width:] for row in rref)
