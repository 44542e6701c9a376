"""Linear block codes, polyalphabetic codes, and nested code chains.

Vectors are tuples of serialized field elements (see :mod:`.field`), so
they hash and compare structurally.  Distances are exact reductions of a
code's split weight enumerator (:func:`split_weight_enumerator`), which
scans the code or its dual under one :class:`Limits`; a code past a limit
raises :class:`~whmetric.errors.ExhaustionError` rather than
approximating.

The decoders solve only linear systems whose matrix is fixed by the
code: a chain level's basis, or a generator restricted to the
coordinates an erasure trial keeps.  :func:`_left_inverse` row-reduces
each such matrix once into an information set and the inverse of the
matrix on it.  A chain builds one solver per level when it is
constructed, and a per-word solve is two vector-matrix products with a
re-encoding that checks the solution.  A code builds a
:class:`_KeptSet` for a kept-coordinate set on its first erasure trial
with that set and keeps it: at most sum_{s<d} C(m, s) for m symbols
and distance d.  It stores the product of the inverse and the
generator, so re-encoding a word from its information set is one
product, and the word's difference from that re-encoding is its
syndrome.  A trial that allows e >= 1 errors looks the syndrome up in
the set's table of error patterns, built on the first such trial,
instead of scanning the codewords; only a set whose patterns would
outnumber the codewords keeps the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod

from .errors import DefectError, ExhaustionError, ParameterError
from .field import Field, make_extension_field, make_prime_field

SYNDROME_TABLE_LIMIT = 1 << 20


@dataclass(frozen=True)
class Limits:
    """Caps on exhaustive enumeration, shared by every scan that refuses."""

    max_codewords: int = 1 << 20
    max_ambient: int = 1 << 22


DEFAULT_LIMITS = Limits()

FAIL = None  # decoders signal failure with None


# -- vector and matrix helpers ---------------------------------------------
# Vectors are built from lists, not generators: tuple() of a generator
# grows its result by reallocation, past CPython's per-length tuple free
# lists, while freeing the result fills them, so a long codeword scan
# would leave up to 2000 spare tuples of its vector length behind.


def vec_add(field, u, v):
    return tuple([field.add(a, b) for a, b in zip(u, v)])


def vec_sub(field, u, v):
    return tuple([field.sub(a, b) for a, b in zip(u, v)])


def vec_scale(field, c, u):
    if c == 0:
        return (0,) * len(u)
    if c == 1:
        return tuple(u)
    return tuple([field.mul(c, a) for a in u])


def vec_dot(field, u, v):
    out = 0
    for a, b in zip(u, v):
        if a and b:
            out = field.add(out, field.mul(a, b))
    return out


def hamming_weight(v):
    return sum(1 for x in v if x)


def hamming_distance(u, v):
    return sum(1 for a, b in zip(u, v) if a != b)


def _combine(field, rows, coeffs, length):
    """The combination sum(coeffs[i] * rows[i]) of vectors of ``length``."""
    out = (0,) * length
    for c, row in zip(coeffs, rows):
        if c:
            out = vec_add(field, out, vec_scale(field, c, row))
    return out


def _encode(field, rows, message, length):
    """:func:`_combine` of ``message``, each symbol validated."""
    for c in message:
        field.validate(c)
    return _combine(field, rows, message, length)


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


def independent_rows(field, rows):
    """Subset of the original rows spanning the same space, order preserved."""
    elim = {}
    keep = []
    for row in rows:
        red = _reduce_against(field, row, elim)
        lead = _leading_index(red)
        if lead is None:
            continue
        inv = field.inv(red[lead])
        elim[lead] = tuple([field.mul(inv, x) for x in red])
        keep.append(tuple(row))
    return keep


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel {h : r . h = 0 for every row r}."""
    rref, pivots = row_reduce(field, rows)
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


def _stream_combinations(field, rows, length):
    """Yield every linear combination of ``rows`` in lexicographic message order.

    Streams via an odometer over message digits with prefix partial sums,
    so each step costs one vector addition.
    """
    q = field.order
    k = len(rows)
    zero = (0,) * length
    yield zero
    if k == 0:
        return
    scaled = [[vec_scale(field, c, row) for c in range(q)] for row in rows]
    digits = [0] * k
    prefix = [zero] * (k + 1)
    while True:
        p = k - 1
        while p >= 0 and digits[p] == q - 1:
            digits[p] = 0
            p -= 1
        if p < 0:
            return
        digits[p] += 1
        prefix[p + 1] = vec_add(field, prefix[p], scaled[p][digits[p]])
        for i in range(p + 1, k):
            prefix[i + 1] = prefix[i]
        yield prefix[k]


def krawtchouk(q: int, n: int, j: int, i: int) -> int:
    """Hamming-metric Krawtchouk coefficient K_j(i) for length n over F_q."""
    if not 0 <= i <= n or not 0 <= j <= n:
        raise ParameterError(f"Krawtchouk indices must lie in [0, {n}]")
    out = 0
    for s in range(j + 1):
        out += comb(n - i, j - s) * comb(i, s) * (q - 1) ** (j - s) * (-1) ** s
    return out


def krawtchouk_tables(q, blocks):
    """Per block of length b, the (b + 1) x (b + 1) table K[j][i] = K_j(i)."""
    return [[[krawtchouk(q, b, j, i) for i in range(b + 1)] for j in range(b + 1)] for b in blocks]


def _profile_counts(words, ranges):
    """Map block profile -> number of ``words`` with it."""
    counts = {}
    for c in words:
        profile = tuple([hi - lo - c[lo:hi].count(0) for lo, hi in ranges])
        counts[profile] = counts.get(profile, 0) + 1
    return counts


def _macwilliams(q, blocks, dual_counts, dual_size, size):
    """The code's profile counts from its dual's, by the MacWilliams
    identity for split weight enumerators:

        A(j) = (1 / |C_dual|) * sum_i B(i) * prod_l K_{j_l}(i_l; b_l, q).

    The product of per-block Krawtchouk matrices is applied one block at
    a time to the dense array of counts, in lexicographic profile order,
    at (b_l + 1) multiply-adds per profile and block.  Each A(j) must be
    a non-negative integer, A(0) must be 1 and the counts must sum to
    ``size``; anything else is a defect.
    """
    profiles = list(product(*(range(b + 1) for b in blocks)))
    values = [dual_counts.get(p, 0) for p in profiles]
    stride = 1  # distance between neighbours along the current block's axis
    for table in reversed(krawtchouk_tables(q, blocks)):
        span = len(table) * stride
        out = [0] * len(values)
        for base in range(0, len(values), span):
            for first in range(base, base + stride):
                fiber = values[first : first + span : stride]
                if any(fiber):
                    for j, row in enumerate(table):
                        out[first + j * stride] = sum([k * x for k, x in zip(row, fiber)])
        values = out
        stride = span
    counts = {}
    for jprof, acc in zip(profiles, values):
        a, rest = divmod(acc, dual_size)
        if rest or a < 0:
            raise DefectError(
                f"MacWilliams transform gives {acc}/{dual_size} codewords of profile {jprof}"
            )
        if a:
            counts[jprof] = a
    if counts.get(profiles[0]) != 1 or sum(counts.values()) != size:
        raise DefectError("MacWilliams transform does not count the zero word once and every word")
    return counts


def _admit(code, limits):
    """The number q^k of ``code``'s words, if ``limits`` admit scanning them."""
    size = code.field.order**code.k
    if size > limits.max_codewords:
        raise ExhaustionError(
            f"exhaustion refused: {size} codewords exceeds the limit {limits.max_codewords}"
        )
    return size


def split_weight_enumerator(code, blocks, limits=DEFAULT_LIMITS):
    """Map block profile -> number of codewords of ``code`` with it.

    A profile counts the nonzero coordinates in each of the consecutive
    ``blocks`` (zero-width blocks allowed), which must cover the code's
    length.  Every profile a codeword attains is a key, the zero profile
    included, in lexicographic order.

    Admission compares the code's q^k words with ``limits.max_codewords``
    on every call.  The work then goes to the smaller side: the code's
    q^k words, or the dual's q^(n-k) words plus the P profiles the
    transform fills, each of which costs about what one scanned word
    does.  A space of many short blocks has so many profiles that it
    keeps the direct scan.  The dual's counts are mapped to the code's
    by :func:`_macwilliams`, in integers and checked, with q the order
    of the code's field.  The counts are kept on the code, once per
    ``blocks``, and each call returns a copy.
    """
    blocks = tuple(blocks)
    n = len(code.generator[0])
    if any(b < 0 for b in blocks) or sum(blocks) != n:
        raise ParameterError(f"blocks {blocks} do not cover the code length {n}")
    size = _admit(code, limits)
    counts = code._enumerators.get(blocks)
    if counts is None:
        counts = code._enumerators[blocks] = _split_counts(code, blocks, size)
    return dict(counts)


def _split_counts(code, blocks, size):
    """The profile counts of the ``size`` words of ``code``, scanned on
    whichever of the code and its dual is cheaper."""
    field = code.field
    q = field.order
    n = len(code.generator[0])
    ranges, start = [], 0
    for b in blocks:
        ranges.append((start, start + b))
        start += b
    r = n - code.k
    if q**r + prod(b + 1 for b in blocks) >= size:
        return dict(sorted(_profile_counts(code.codewords(), ranges).items()))
    if r == 0:  # the dual of the whole space is the zero word alone
        dual_counts = {(0,) * len(blocks): 1}
    else:
        dual = LinearCode(field, kernel_basis(field, code.generator, n))
        dual_counts = _profile_counts(dual.codewords(), ranges)
    return _macwilliams(q, blocks, dual_counts, q**r, size)


# -- linear codes -----------------------------------------------------------


class LinearCode:
    """An [n, k] linear code over a field, given by spanning generator rows.

    Construction row-reduces the input, drops dependent rows, and records
    an information set (the pivot columns of the reduced form).
    """

    def __init__(self, field: Field, rows):
        if not isinstance(field, Field):
            raise ParameterError("first argument must be a Field")
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ParameterError("generator matrix is empty")
        n = len(rows[0])
        if n < 1 or any(len(r) != n for r in rows):
            raise ParameterError("generator rows must be non-empty and equally long")
        for r in rows:
            for x in r:
                field.validate(x)
        keep = independent_rows(field, rows)
        if not keep:
            raise ParameterError("generator matrix has rank 0")
        self.field = field
        self.n = n
        self.generator = tuple(keep)
        self.k = len(keep)
        self.rref, self.pivots = row_reduce(field, keep)
        self._parity = None
        self._distance = None
        self._enumerators = {}
        self._syndrome_table = None
        self._solvers = {}  # kept coordinates -> _KeptSet, for erasure_decode
        self._offsets = tuple((i, i + 1) for i in range(n))  # one symbol per coordinate

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.k}] over {self.field!r})"

    @property
    def parity_rows(self):
        if self._parity is None:
            self._parity = tuple(kernel_basis(self.field, self.rref, self.n))
        return self._parity

    def encode(self, message):
        if len(message) != self.k:
            raise ParameterError(f"message length {len(message)} != dimension {self.k}")
        return _encode(self.field, self.generator, message, self.n)

    def syndrome(self, v):
        if len(v) != self.n:
            raise ParameterError(f"vector length {len(v)} != code length {self.n}")
        return tuple(vec_dot(self.field, v, h) for h in self.parity_rows)

    def contains(self, v):
        return not any(self.syndrome(v))

    def codewords(self):
        """All codewords, streamed in lexicographic message order."""
        return _stream_combinations(self.field, self.generator, self.n)

    def message_codeword_pairs(self):
        q = self.field.order
        for msg in product(range(q), repeat=self.k):
            yield msg, self.encode(msg)

    def min_distance(self, limits=DEFAULT_LIMITS):
        """Exact minimum Hamming distance: the smallest nonzero weight of
        the code's weight enumerator.  The code is admitted under
        ``limits`` on every call; the distance is reduced once."""
        _admit(self, limits)
        if self._distance is None:
            weights = split_weight_enumerator(self, (self.n,), limits)
            self._distance = min(w for (w,) in weights if w)
        return self._distance

    def _decoding_distance(self):
        """The distance the decoders work to: the one already reduced,
        whatever limits admitted it, or else one admitted under the
        default limits."""
        return self.min_distance() if self._distance is None else self._distance

    # -- decoding ------------------------------------------------------

    def _build_syndrome_table(self, radius):
        table = {self.syndrome((0,) * self.n): (0,) * self.n}
        nonzero = range(1, self.field.order)
        for w in range(1, radius + 1):
            for positions in combinations(range(self.n), w):
                for values in product(nonzero, repeat=w):
                    e = [0] * self.n
                    for p, val in zip(positions, values):
                        e[p] = val
                    e = tuple(e)
                    s = self.syndrome(e)
                    old = table.get(s)
                    if old is None or e < old:
                        table[s] = e
        return table

    def bmd_decode(self, r):
        """Unique codeword within (d-1)//2 of r, else FAIL (None)."""
        if len(r) != self.n:
            raise ParameterError(f"vector length {len(r)} != code length {self.n}")
        radius = (self._decoding_distance() - 1) // 2
        if self.field.order ** (self.n - self.k) <= SYNDROME_TABLE_LIMIT:
            if self._syndrome_table is None:
                self._syndrome_table = self._build_syndrome_table(radius)
            e = self._syndrome_table.get(self.syndrome(r))
            if e is None:
                return FAIL
            return vec_sub(self.field, r, e)
        best, best_d = None, radius + 1
        for c in self.codewords():
            dist = hamming_distance(c, r)
            if dist < best_d:
                best, best_d = c, dist
                if dist == 0:
                    break
        return best

    def erasure_decode(self, r, erased):
        """Errors-and-erasures decoding: unique codeword agreeing with r
        outside ``erased`` whenever 2e + s < d, else FAIL."""
        if len(r) != self.n:
            raise ParameterError(f"vector length {len(r)} != code length {self.n}")
        erased = set(erased)
        if any(not 0 <= p < self.n for p in erased):
            raise ParameterError(f"erased positions {sorted(erased)} out of range")
        return _erasures_core(self, erased, self._decoding_distance(), r)

    # -- structure -----------------------------------------------------

    def systematic_generator(self):
        """Generator with the identity on the first k columns, if one exists."""
        if self.pivots == list(range(self.k)):
            return self.rref
        raise ParameterError("the first k positions are not an information set")

    def is_subcode_of(self, other: "LinearCode"):
        if self.n != other.n or self.field != other.field:
            return False
        return all(other.contains(row) for row in self.generator)


class _KeptSet:
    """What every erasure trial keeping one coordinate set reuses.

    ``info`` is an information set inside the kept coordinates and
    ``rows`` the k rows of M . G, for G the generator and M the inverse
    of G on ``info``, so a word w re-encodes as w[info] . rows in one
    product.  On the other kept coordinates, ``rest``, w minus its
    re-encoding is w's syndrome in systematic form: it is linear in w and
    zero exactly when w agrees with a codeword on every kept coordinate.

    ``table`` maps the syndrome of each error pattern with at most
    ``radius`` nonzero kept symbols to (that number, the pattern's
    re-encoding).  It is built on the first trial that allows errors;
    until then ``radius`` is None.  A set whose patterns outnumber the
    code's words keeps the codeword scan instead, with ``table`` None.
    """

    __slots__ = ("info", "rows", "rest", "radius", "table")

    def __init__(self, info, rows, rest):
        self.info = info
        self.rows = rows
        self.rest = rest
        self.radius = None
        self.table = None

    def encode(self, field, word):
        """The codeword that agrees with ``word`` on ``info``."""
        return _combine(field, self.rows, [word[c] for c in self.info], len(word))

    def syndrome(self, field, word, image):
        """``word`` minus its re-encoding ``image``, on ``rest``."""
        return tuple([field.sub(word[c], image[c]) for c in self.rest])


def _kept_set(code, cols):
    """The :class:`_KeptSet` of ``cols``, or None when the generator
    restricted to them has rank below k."""
    solver = _left_inverse(code.field, code.generator, cols)
    if solver is None:
        return None
    info, inverse = solver
    n = len(code.generator[0])
    rows = tuple(_combine(code.field, code.generator, m, n) for m in inverse)
    in_info = set(info)
    return _KeptSet(info, rows, tuple(c for c in cols if c not in in_info))


def _pattern_count(q, widths, radius):
    """The number of words with at most ``radius`` nonzero symbols over
    symbols of the given widths: the coefficients of x^0..x^radius in
    prod_i (1 + (q^b_i - 1) x)."""
    coeffs = [1] + [0] * radius
    for b in widths:
        for w in range(radius, 0, -1):
            coeffs[w] += coeffs[w - 1] * (q**b - 1)
    return sum(coeffs)


def _build_error_table(code, entry, kept, radius):
    """Fill ``entry``'s table for the error patterns on the ``kept``
    symbols with at most ``radius`` nonzero symbols, or leave it None
    when those patterns outnumber the code's q^k words.

    ``radius`` is at most (d_K - 1) // 2 for the distance d_K of the
    code punctured to the kept symbols, so no two patterns share a
    syndrome; one that did is a defect.
    """
    field = code.field
    q = field.order
    kept = [(lo, hi) for lo, hi in kept if hi > lo]
    entry.radius = radius
    if _pattern_count(q, [hi - lo for lo, hi in kept], radius) > q**code.k:
        return
    n = len(code.generator[0])
    values = {}  # symbol width -> its nonzero values
    for lo, hi in kept:
        if hi - lo not in values:
            values[hi - lo] = [v for v in product(range(q), repeat=hi - lo) if any(v)]
    table = {}
    for w in range(radius + 1):
        for chosen in combinations(kept, w):
            for parts in product(*(values[hi - lo] for lo, hi in chosen)):
                error = [0] * n
                for (lo, hi), part in zip(chosen, parts):
                    error[lo:hi] = part
                image = entry.encode(field, error)
                syndrome = entry.syndrome(field, error, image)
                if syndrome in table:
                    raise DefectError(
                        f"two error patterns of at most {radius} symbols share a syndrome"
                    )
                table[syndrome] = (w, image)
    entry.table = table


def _nearest_by_scan(code, kept, s, distance, received):
    """The codeword nearest ``received`` on the ``kept`` symbols, found
    by scanning every codeword: FAIL unless it is the only nearest one
    and 2 * (its distance) + s < d."""
    symbols = [received[lo:hi] for lo, hi in kept]
    best, best_d, ties = None, len(kept) + 1, 0
    for c in code.codewords():
        dist = sum(1 for (lo, hi), sym in zip(kept, symbols) if c[lo:hi] != sym)
        if dist < best_d:
            best, best_d, ties = c, dist, 1
        elif dist == best_d:
            ties += 1
    if best is not None and 2 * best_d + s < distance and ties == 1:
        return best
    return FAIL


def _erasures_core(code, erased, distance, received):
    """Shared errors-and-erasures logic for linear and polyalphabetic codes.

    ``erased`` is a set of symbol indices into ``code._offsets``; s of
    them leave a budget of e = (d - 1 - s) // 2 errors on the kept
    symbols.  The kept coordinates' :class:`_KeptSet` is built on first
    use and kept in ``code._solvers``, one per kept-coordinate set.  When
    e = 0 the answer is the re-encoding of the received word, if its
    syndrome is zero.  Otherwise the syndrome's entry in the set's error
    table gives the error's re-encoding to subtract.  The table holds
    every pattern within the radius the set's nonzero-width erasures
    allow; any two codewords differ in more than twice that many kept
    symbols, so the word it finds within e is the scan's unique nearest
    one.  A set whose table would outnumber the codewords scans them.
    A kept set of rank below k matches every word to several codewords,
    so it always fails, as the scan's tie rule does.
    """
    s = len(erased)
    if s >= distance:
        return FAIL
    received = tuple(received)
    kept = [span for i, span in enumerate(code._offsets) if i not in erased]
    cols = tuple(c for lo, hi in kept for c in range(lo, hi))
    if cols not in code._solvers:
        code._solvers[cols] = _kept_set(code, cols)
    entry = code._solvers[cols]
    if entry is None:
        return FAIL
    field = code.field
    word = entry.encode(field, received)
    e = (distance - 1 - s) // 2
    if e == 0:
        if any(word[c] != received[c] for c in entry.rest):
            return FAIL
        return word
    if entry.radius is None:
        nonempty = sum(1 for i in erased if code._offsets[i][1] > code._offsets[i][0])
        _build_error_table(code, entry, kept, (distance - 1 - nonempty) // 2)
    if entry.table is None:
        return _nearest_by_scan(code, kept, s, distance, received)
    found = entry.table.get(entry.syndrome(field, received, word))
    if found is None or found[0] > e:
        return FAIL
    return vec_sub(field, word, found[1])


# -- polyalphabetic codes ---------------------------------------------------


class PolyalphabeticCode:
    """An F_q-linear code whose coordinates group into symbols of given sizes.

    Distance counts symbols whose coordinate slice is nonzero; zero-width
    symbols are legal and never count as nonzero.
    """

    def __init__(self, field: Field, sizes, rows):
        sizes = tuple(int(s) for s in sizes)
        if any(s < 0 for s in sizes):
            raise ParameterError("symbol sizes must be non-negative")
        total = sum(sizes)
        if total < 1:
            raise ParameterError("total length must be positive")
        rows = [tuple(r) for r in rows]
        if not rows or any(len(r) != total for r in rows):
            raise ParameterError(f"generator rows must all have length {total}")
        for r in rows:
            for x in r:
                field.validate(x)
        keep = independent_rows(field, rows)
        if not keep:
            raise ParameterError("generator matrix has rank 0")
        self.field = field
        self.sizes = sizes
        self.total_length = total
        self.generator = tuple(keep)
        self.k = len(keep)
        self._distance = None
        self._enumerators = {}
        self._solvers = {}  # kept coordinates -> _KeptSet, for erasure_decode
        offsets, start = [], 0
        for s in sizes:
            offsets.append((start, start + s))
            start += s
        self._offsets = tuple(offsets)

    def __repr__(self):
        return f"PolyalphabeticCode(sizes={self.sizes}, k={self.k})"

    @property
    def n_symbols(self):
        return len(self.sizes)

    def symbols(self, v):
        return tuple(tuple(v[lo:hi]) for lo, hi in self._offsets)

    def symbol(self, v, i):
        lo, hi = self._offsets[i]
        return tuple(v[lo:hi])

    def encode(self, message):
        if len(message) != self.k:
            raise ParameterError(f"message length {len(message)} != dimension {self.k}")
        return _encode(self.field, self.generator, message, self.total_length)

    def codewords(self):
        return _stream_combinations(self.field, self.generator, self.total_length)

    def min_block_distance(self, limits=DEFAULT_LIMITS):
        """Exact minimum number of nonzero symbols over nonzero codewords:
        the fewest nonzero entries of a nonzero profile of the split
        weight enumerator over the symbols.

        The whole space contains a unit vector, so its distance is 1
        without a scan.  Any other code is admitted under ``limits`` on
        every call; the distance is reduced once."""
        if self.k == self.total_length:
            return 1
        _admit(self, limits)
        if self._distance is None:
            profiles = split_weight_enumerator(self, self.sizes, limits)
            self._distance = min(sum(1 for w in p if w) for p in profiles if any(p))
        return self._distance

    def _decoding_distance(self):
        """The block distance the decoders work to: the one already
        reduced, whatever limits admitted it, or else one admitted under
        the default limits."""
        return self.min_block_distance() if self._distance is None else self._distance

    def erasure_decode(self, r, erased):
        """Errors-and-erasures decoding over symbols; 2e + s < d contract."""
        if len(r) != self.total_length:
            raise ParameterError(f"vector length {len(r)} != code length {self.total_length}")
        erased = set(erased)
        if any(not 0 <= p < self.n_symbols for p in erased):
            raise ParameterError(f"erased symbol positions {sorted(erased)} out of range")
        return _erasures_core(self, erased, self._decoding_distance(), r)


# -- nested chains ----------------------------------------------------------


class NestedChain:
    """A nested sequence of codes B_1 >= B_2 >= ... >= B_s (>= {0}) on one block.

    For each level j the chain fixes quotient representative rows: vectors
    of B_j that extend a basis of B_(j+1) to a basis of B_j.  They are
    computed deterministically (pivot order by column index) and shared by
    the quotient encoder and decoder.
    """

    def __init__(self, codes):
        codes = list(codes)
        if not codes:
            raise ParameterError("a chain needs at least one code")
        field = codes[0].field
        n = codes[0].n
        for j, c in enumerate(codes):
            if c.field != field or c.n != n:
                raise ParameterError(f"chain level {j + 1} disagrees on field or length")
        for j in range(len(codes) - 1):
            if not codes[j + 1].is_subcode_of(codes[j]):
                raise ParameterError(f"chain level {j + 2} is not a subcode of level {j + 1}")
        self.field = field
        self.n = n
        self.codes = tuple(codes)
        self.s = len(codes)
        quotient, sub_basis = [], []
        for j in range(self.s):
            sub_rows = list(codes[j + 1].rref) if j + 1 < self.s else []
            elim = {_leading_index(row): row for row in sub_rows}
            q_rows = []
            for row in codes[j].rref:
                red = _reduce_against(field, row, elim)
                lead = _leading_index(red)
                if lead is None:
                    continue
                inv = field.inv(red[lead])
                norm = tuple([field.mul(inv, x) for x in red])
                elim[lead] = norm
                q_rows.append(norm)
            quotient.append(tuple(q_rows))
            sub_basis.append(tuple(sub_rows))
        self.quotient_rows = tuple(quotient)
        self.sub_basis = tuple(sub_basis)
        self.widths = tuple(len(q) for q in quotient)
        # per level, the solver of y . (quotient rows + sub basis) = b; the
        # rows are a basis of the level's code, so each has full rank
        self._solvers = tuple(
            _left_inverse(field, top + sub, range(n)) for top, sub in zip(quotient, sub_basis)
        )

    def __repr__(self):
        dims = "/".join(str(c.k) for c in self.codes)
        return f"NestedChain(n={self.n}, dims={dims})"

    def quotient_encode(self, level, message):
        """Fixed coset representative of the level's quotient for ``message``."""
        rows = self.quotient_rows[level]
        if len(message) != len(rows):
            raise ParameterError(
                f"level {level + 1} message length {len(message)} != width {len(rows)}"
            )
        return _encode(self.field, rows, message, self.n)

    def quotient_message(self, level, b):
        """Recover the level message from any b in B_level; inverse of
        quotient_encode modulo the next subcode."""
        if len(b) != self.n:
            raise ParameterError(f"vector length {len(b)} != block length {self.n}")
        rows = self.quotient_rows[level] + self.sub_basis[level]
        info, inverse = self._solvers[level]
        y = _combine(self.field, inverse, [b[c] for c in info], len(rows))
        if _combine(self.field, rows, y, self.n) != tuple(b):
            raise ParameterError(f"vector is not in chain level {level + 1}")
        return y[: self.widths[level]]


# -- code families and matrix files ----------------------------------------

NAMED_FAMILIES = ("repetition", "parity", "full", "hamming", "reed_solomon")


def _fixed_dimension(k, dim, message):
    if k is not None and k != dim:
        raise ParameterError(message)


def named_code(family, field, n, k=None):
    """Canonical generator for a named family, as an [n, k] code.

    Every family but Reed-Solomon fixes the dimension by the length, so
    there ``k`` may be left out; when given, it must match.
    """
    family = str(family).lower()
    if family == "rs":
        family = "reed_solomon"
    if family not in NAMED_FAMILIES:
        raise ParameterError(f"unknown code family {family!r}; choose from {NAMED_FAMILIES}")
    if n < 1:
        raise ParameterError("length must be positive")
    if family == "repetition":
        _fixed_dimension(k, 1, f"repetition code has dimension 1, got k={k}")
        return LinearCode(field, [(1,) * n])
    if family == "parity":
        _fixed_dimension(k, n - 1, f"parity-check code of length {n} has dimension {n - 1}")
        minus_one = field.neg(1)
        rows = []
        for i in range(n - 1):
            row = [0] * n
            row[i] = 1
            row[n - 1] = minus_one
            rows.append(tuple(row))
        return LinearCode(field, rows)
    if family == "full":
        _fixed_dimension(k, n, f"the full space of length {n} has dimension {n}")
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 1
            rows.append(tuple(row))
        return LinearCode(field, rows)
    if family == "hamming":
        order = field.order
        r, length = 2, order + 1
        while length < n:
            r += 1
            length = (order**r - 1) // (order - 1)
        if length != n:
            raise ParameterError(f"no Hamming code of length {n} over a field of order {order}")
        _fixed_dimension(k, n - r, f"Hamming code of length {n} has dimension {n - r}")
        columns = []
        for v in range(1, order**r):
            digits = []
            x = v
            for _ in range(r):
                digits.append(x % order)
                x //= order
            if digits[next(i for i, d in enumerate(digits) if d)] == 1:
                columns.append(digits)
        check_rows = [tuple(col[i] for col in columns) for i in range(r)]
        return LinearCode(field, kernel_basis(field, check_rows, n))
    # reed_solomon
    if n > field.order:
        raise ParameterError(
            f"Reed-Solomon needs n <= field order, got n={n} over order {field.order}"
        )
    if k is None or not 1 <= k <= n:
        raise ParameterError(f"Reed-Solomon dimension must be in [1, {n}], got {k}")
    points = list(range(1, field.order)) + [0]
    points = points[:n]
    rows = [tuple(field.pow(p, j) for p in points) for j in range(k)]
    return LinearCode(field, rows)


def parse_matrix_text(text):
    """Parse the plain-text generator format.

    First line is ``q n k`` for prime fields or ``q m n k`` for extension
    fields, followed by k rows of n serialized elements.
    """
    tokens = text.split()
    if not tokens:
        raise ParameterError("matrix file is empty")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ParameterError(f"matrix file has a non-integer token: {exc}") from None

    def shape_fits(header_len):
        header = values[:header_len]
        body_len = len(values) - header_len
        if header_len == 3:
            q, n, k = header
            m = 1
        else:
            q, m, n, k = header
        return body_len == n * k and n >= 1 and k >= 1 and m >= 1 and q >= 2

    header_len = next((h for h in (3, 4) if len(values) > h and shape_fits(h)), None)
    if header_len is None:
        raise ParameterError("matrix file does not match 'q n k' or 'q m n k' plus k rows")
    if header_len == 3:
        q, n, k = values[:3]
        m = 1
    else:
        q, m, n, k = values[:4]
    field = make_prime_field(q) if m == 1 else make_extension_field(q, m)
    body = values[header_len:]
    rows = [tuple(body[i * n : (i + 1) * n]) for i in range(k)]
    code = LinearCode(field, rows)
    if code.k != k:
        raise ParameterError(f"matrix declares dimension {k} but has rank {code.k}")
    return code


def load_matrix_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ParameterError(f"cannot read matrix file: {exc}") from None
    return parse_matrix_text(text)


def format_matrix(code: LinearCode) -> str:
    field = code.field
    if field.m == 1:
        header = f"{field.q} {code.n} {code.k}"
    else:
        header = f"{field.q} {field.m} {code.n} {code.k}"
    lines = [header]
    for row in code.generator:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
