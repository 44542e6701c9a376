"""Exact linear programming on integer data.

The solver takes one form only: maximize c.x subject to Ax <= b and
x >= 0, with integer A, b and c and b >= 0.  The origin is then a basic
feasible solution (every slack basic), so there is no phase 1 and a
program is either optimal or unbounded.

A primal simplex on a dense condensed tableau (one row per basic and
one column per nonbasic variable), in exact rationals kept in lowest
terms: each row is an integer vector over its own positive denominator.
That keeps the integers at the size of the answer, where one common
denominator (Edmonds' integer pivoting) carries basis minors that share
a large power of q on the bound LPs.

The entering column is chosen by steepest edge (Forrest and Goldfarb,
Math. Programming 1992), ranked in floats that only choose among
improving columns, so every value stays exact; formed in a fixed order
of correctly rounded operations, they take the same pivots on every
IEEE-754 platform.  The leaving row is the exact minimum ratio, ties
broken lexicographically relative to the basis B_ref where the
objective last rose: the ratio test of b + B_ref (e, e^2, ...), which is
nondegenerate at B_ref.  A unique minimum is that test's choice too, so
every pivot since B_ref raised the perturbed objective and no basis
repeats before the objective rises; any improving column may enter.

:func:`solve_sweep` solves stages of one program, each keeping more of
its columns and fixing the rest at zero.  Unlocking a column keeps the
basis feasible, so each stage appends its new columns and the same
simplex continues; :func:`solve_max` is the sweep of one stage.

Each stage is first guided by floats (Applegate, Cook, Dash and
Espinoza, Oper. Res. Lett. 2007).  A float copy of the tableau is
solved by its own primal simplex, and only the set of basic variables
it ends with is kept.  Exact crossing pivots then exchange the current
basis for that one, each entering a variable of the float basis for a
basic variable outside it.  If the float basis is singular or not
feasible, the tableau is restored as it was before crossing.  The exact
simplex then continues from whichever basis it holds, under the rules
above: it takes no pivot when the float basis is optimal, and finishes
the stage exactly when it is not.  Crossing takes one exact pivot per
variable that the float basis adds, however many float pivots found it,
so the exact simplex skips the path's degenerate pivots and detours.
Floats only choose where the exact simplex starts: every stage still
ends in the exact optimality test and the certificate below, so they
can neither change an optimal value nor pass a wrong one.

A returned optimum is certified, not trusted, against its own stage's
program: the primal witness is re-substituted into every constraint,
and the dual multipliers read from the final objective row must meet
the dual constraints with the same objective value, both in integers
over the lcm of the row denominators.  Instances here are small (a few
hundred variables), so the dense tableau serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DefectError, ParameterError


def _integers(values):
    return all(isinstance(v, int) for v in values)


@dataclass
class LinearProgram:
    """maximize objective . x subject to coeffs . x <= rhs for every
    (coeffs, rhs) in rows, and x >= 0; all data integer, every rhs >= 0."""

    objective: list
    rows: list  # (coefficients, rhs)

    def __post_init__(self):
        self.objective = list(self.objective)
        nvars = len(self.objective)
        if nvars < 1:
            raise ParameterError("a linear program needs at least one variable")
        if not _integers(self.objective):
            raise ParameterError("objective coefficients must be integers")
        rows = []
        for row in self.rows:
            if len(row) != 2:
                raise ParameterError("each constraint row is (coefficients, rhs)")
            coeffs, rhs = list(row[0]), row[1]
            if len(coeffs) != nvars:
                raise ParameterError("constraint row length does not match variable count")
            if not _integers(coeffs) or not isinstance(rhs, int):
                raise ParameterError("constraint coefficients and rhs must be integers")
            if rhs < 0:
                raise ParameterError(f"right-hand sides must be non-negative, got {rhs}")
            rows.append((coeffs, rhs))
        self.rows = rows


@dataclass
class LpResult:
    status: str  # "optimal" | "unbounded"
    value: Fraction = None
    solution: list = None
    dual: list = None  # one multiplier per input row, each >= 0


def _lowest_terms(row, den):
    """Divide ``row`` in place and ``den`` by their gcd; return the new den."""
    g = gcd(den, *row)
    if g > 1:
        row[:] = [a // g for a in row]
    return den // g


def _pivot(tableau, dens, pr, pc):
    """Exchange the basic variable of row ``pr`` with the nonbasic one of
    column ``pc``, in every row (objective row included), in place.

    Row i is ``tableau[i] / dens[i]`` in lowest terms; the pivot entry p
    is nonzero, negative only on a crossing pivot.  A row with a zero g
    in the pivot column is unchanged; every other row is updated with p
    and g divided by h = ±gcd(p, g) first, h of p's sign so that every
    denominator stays positive, then reduced to lowest terms again.
    """
    prow = tableau[pr]
    p, dr = prow[pc], dens[pr]
    for i, row in enumerate(tableau):
        g = row[pc]
        if i == pr or not g:
            continue
        h = gcd(p, g)
        if p < 0:
            h = -h
        u, w = p // h, g // h
        row[:] = [u * a - w * b for a, b in zip(row, prow)]
        row[pc] = -w * dr
        dens[i] = _lowest_terms(row, dens[i] * u)
    prow[pc] = dr
    if p < 0:
        prow[:] = [-a for a in prow]
        p = -p
    dens[pr] = _lowest_terms(prow, p)


def _steepest_edge(body, dens, obj, candidates):
    """The entering column of largest c_j^2 / (1 + |B^-1 a_j|^2) among
    ``candidates`` (variable, column) pairs, ties to the lowest variable;
    the lowest variable when an entry is too large for a float.  The
    float guide calls it on its float copy, over denominators of 1.

    Floats only rank columns that all improve the objective, so the pivot
    stays exact whatever they round to, an infinite or NaN score
    included.  Each entry is one correctly rounded ``int / int``
    division, and each column's norm is summed in row order with ``+``
    and ``*`` alone, so every IEEE-754 platform takes the same pivots.
    """
    best = None
    try:
        for v, j in candidates:
            norm = 1.0
            for row, d in zip(body, dens):
                a = row[j]
                if a:
                    r = a / d
                    norm += r * r
            c = obj[j] / dens[-1]
            score = c * c / norm
            if best is None or score > best[0] or (score == best[0] and v < best[1]):
                best = score, v, j
    except OverflowError:
        return min(candidates)[1]
    return best[2]


def _simplex(tableau, dens, basic, nonbasic):
    """Continue the primal simplex from the basic feasible ``tableau``.

    ``tableau`` has one row per basic variable (``basic[i]``) and one
    column per nonbasic variable (``nonbasic[j]``), then the rhs, row i
    over the positive denominator ``dens[i]``; the last row is the
    objective row (reduced costs, then the objective value), all updated
    in place.  Steepest edge picks the entering column, or the lowest
    improving variable where a float would overflow.  The leaving row is
    the exact minimum ratio, cross-multiplied within each row so its
    denominator cancels, ties to :func:`_lex_least` relative to ``ref``,
    the basis where the objective last rose.  Returns "optimal" or
    "unbounded".
    """
    *body, obj = tableau
    ref = basic[:]
    while True:
        candidates = [(v, j) for j, v in enumerate(nonbasic) if obj[j] < 0]
        if not candidates:
            return "optimal"
        enter = _steepest_edge(body, dens, obj, candidates)
        ties, num, div = [], 0, 0
        for i, row in enumerate(body):
            a = row[enter]
            if a > 0:
                lhs, rhs = row[-1] * div, num * a
                if not ties or lhs < rhs:
                    ties, num, div = [i], row[-1], a
                elif lhs == rhs:
                    ties.append(i)
        if not ties:
            return "unbounded"
        leave = _lex_least(body, dens, basic, nonbasic, ref, ties, enter)
        _pivot(tableau, dens, leave, enter)
        basic[leave], nonbasic[enter] = nonbasic[enter], basic[leave]
        if num:
            ref = basic[:]


def _lex_least(body, dens, basic, nonbasic, ref, ties, enter):
    """The row among ``ties`` whose row of B^-1 B_ref over its entry in
    column ``enter`` is lexicographically least, B_ref the basis ``ref``.

    Row i's entry for variable r is its entry in r's column while r is
    nonbasic, ``dens[i]`` where r is basic in row i, and 0 in any other
    row.  Rows of B^-1 B_ref are independent, so no two tie throughout.
    """
    if len(ties) == 1:
        return ties[0]
    column = {v: j for j, v in enumerate(nonbasic)}
    best = ties[0]
    for i in ties[1:]:
        a, b = body[i][enter], body[best][enter]
        for r in ref:
            j = column.get(r)
            if j is None:
                x = dens[i] if basic[i] == r else 0
                y = dens[best] if basic[best] == r else 0
            else:
                x, y = body[i][j], body[best][j]
            if x * b != y * a:
                if x * b < y * a:
                    best = i
                break
        else:
            raise DefectError("two rows of B^-1 B_ref are parallel")
    return best


def _unlock(tableau, dens, basic, nonbasic, scaled, objective, columns):
    """Append the structural ``columns`` to the tableau as nonbasic columns.

    A column a of the scaled rows enters as B^-1 a.  The tableau holds
    B^-1 e_i as slack i's column while it is nonbasic, and as the unit
    vector of its row while basic.  So row r's new numerator is that
    combination of its entries, plus ``dens[r]`` times a's entry for the
    row's basic slack; the objective entry also subtracts its
    denominator times the cost.  Rows stay in lowest terms.
    """
    nvars = len(objective)
    slacks = [(j, v - nvars) for j, v in enumerate(nonbasic) if v >= nvars]
    for c in columns:
        terms = [(j, scaled[i][c]) for j, i in slacks if scaled[i][c]]
        for r, row in enumerate(tableau):
            entry = sum([row[j] * a for j, a in terms])
            if r == len(basic):
                entry -= objective[c] * dens[r]
            elif basic[r] >= nvars:
                entry += dens[r] * scaled[basic[r] - nvars][c]
            row.insert(-1, entry)
        nonbasic.append(c)


# The float guide: its tolerance, and the most pivots it takes on a stage.
_GUIDE_TOLERANCE = 1e-9
_GUIDE_PIVOTS = 1000


def _float_basis(tableau, dens, basic, nonbasic):
    """The basic variables at the optimum of a float copy of ``tableau``,
    or None when the copy is unbounded, overflows or takes more than
    ``_GUIDE_PIVOTS`` pivots.

    The copy takes one correctly rounded ``int / int`` per entry and runs
    the primal simplex, priced by :func:`_steepest_edge` over unit
    denominators, with Harris's two-pass ratio test (Harris, Math.
    Programming 1973): pass one bounds the step by the ratios with every
    rhs relaxed by the tolerance, and pass two takes the largest pivot
    entry within that bound.  An entry counts as nonzero beyond the
    tolerance.  Every float is formed with ``+``, ``-``, ``*``, ``/`` and
    comparisons alone, in a fixed order (no ``sum``, which Python 3.12
    compensates), so every IEEE-754 platform reaches the same basis.
    The result only chooses where the exact simplex starts.
    """
    try:
        table = [[a / d for a in row] for row, d in zip(tableau, dens)]
    except OverflowError:
        return None
    *body, obj = table
    ones = [1] * len(table)
    basic, nonbasic = basic[:], nonbasic[:]
    tol = _GUIDE_TOLERANCE
    for _ in range(_GUIDE_PIVOTS):
        candidates = [(v, j) for j, v in enumerate(nonbasic) if obj[j] < -tol]
        if not candidates:
            return set(basic)
        enter = _steepest_edge(body, ones, obj, candidates)
        bound = None
        for row in body:
            a = row[enter]
            if a > tol:
                ratio = (row[-1] + tol) / a
                if bound is None or ratio < bound:
                    bound = ratio
        if bound is None:
            return None
        leave, size = None, 0.0
        for i, row in enumerate(body):
            a = row[enter]
            if a > tol and a > size and row[-1] / a <= bound:
                leave, size = i, a
        _float_pivot(table, leave, enter)
        basic[leave], nonbasic[enter] = nonbasic[enter], basic[leave]
    return None


def _float_pivot(table, pr, pc):
    """:func:`_pivot` on the float copy: the same exchange, in place."""
    prow = table[pr]
    p = prow[pc]
    prow[pc] = 1.0
    prow[:] = [a / p for a in prow]
    for i, row in enumerate(table):
        g = row[pc]
        if i == pr or not g:
            continue
        row[pc] = 0.0
        row[:] = [a - g * b for a, b in zip(row, prow)]


def _cross(tableau, dens, basic, nonbasic, target):
    """Pivot exactly from the current basis to the basis ``target``, a set
    of variables; return whether it was reached.

    Each variable of ``target`` that is nonbasic enters in turn, and the
    basic variable outside ``target`` with the nonzero entry of least bit
    length in its column (ties to the first row) leaves, so the pivot
    entry may be negative.  If no such entry is nonzero (``target`` is
    singular) or the basis reached is infeasible (a negative rhs), the
    tableau and both variable lists are restored to their state on entry.
    """
    if target == set(basic):
        return True
    saved = [row[:] for row in tableau], dens[:], basic[:], nonbasic[:]
    *body, _ = tableau
    for j in range(len(nonbasic)):
        if nonbasic[j] not in target:
            continue
        sizes = [
            (abs(row[j]).bit_length(), i)
            for i, row in enumerate(body)
            if row[j] and basic[i] not in target
        ]
        if not sizes:
            break
        leave = min(sizes)[1]
        _pivot(tableau, dens, leave, j)
        basic[leave], nonbasic[j] = nonbasic[j], basic[leave]
    else:
        if all(row[-1] >= 0 for row in body):
            return True
    tableau[:], dens[:], basic[:], nonbasic[:] = saved
    return False


def solve_sweep(lp: LinearProgram, stages):
    """Yield the exact optimum of ``lp`` restricted to each stage in turn.

    A stage is a list of column indices of ``lp``: its program keeps
    those columns and fixes the others at zero.  Each stage holds every
    column of the one before, so the last optimal basis stays feasible
    and the same simplex continues on the newly unlocked columns.  Each
    input row is divided once by the gcd of its coefficients and rhs.
    A stage's result is certified against its own program; its solution
    lists one value per stage column, in stage order.
    """
    nvars, nrows = len(lp.objective), len(lp.rows)
    # Each tableau row is its input row divided by g > 0, so the input
    # row's multiplier is the tableau row's divided by g.
    gcds, scaled, tableau = [], [], []
    for coeffs, rhs in lp.rows:
        g = gcd(rhs, *coeffs) or 1
        gcds.append(g)
        scaled.append([c // g for c in coeffs])
        tableau.append([rhs // g])
    tableau.append([0])  # objective row
    scale = lcm(*gcds)
    # Variables: structurals first, then one slack per row.  The slacks
    # start basic (the origin); structurals join as columns when unlocked.
    basic = list(range(nvars, nvars + nrows))
    nonbasic = []
    dens = [1] * (nrows + 1)
    unlocked = set()
    for stage in stages:
        stage = list(stage)
        if len(set(stage)) != len(stage) or not all(0 <= c < nvars for c in stage):
            raise ParameterError("a stage lists distinct columns of the program")
        if not unlocked <= set(stage):
            raise ParameterError("each stage must keep every column of the one before")
        new = [c for c in stage if c not in unlocked]
        _unlock(tableau, dens, basic, nonbasic, scaled, lp.objective, new)
        unlocked.update(stage)
        target = _float_basis(tableau, dens, basic, nonbasic)
        if target is not None:
            _cross(tableau, dens, basic, nonbasic, target)
        if _simplex(tableau, dens, basic, nonbasic) == "unbounded":
            yield LpResult(status="unbounded")
            continue

        # Put the witness and the multipliers over one denominator D * L,
        # D the lcm of the row denominators.
        den = lcm(*dens)
        position = {c: n for n, c in enumerate(stage)}
        x = [0] * len(stage)
        for i, bv in enumerate(basic):
            if bv < nvars:
                x[position[bv]] = tableau[i][-1] * (den // dens[i]) * scale
        # a row's multiplier is the reduced cost of its slack (0 while basic)
        y = [0] * nrows
        lift = den // dens[-1]
        for j, v in enumerate(nonbasic):
            if v >= nvars:
                y[v - nvars] = tableau[-1][j] * lift * (scale // gcds[v - nvars])
        den *= scale
        _verify(lp, x, y, den, stage)
        yield LpResult(
            status="optimal",
            value=Fraction(sum(lp.objective[c] * xj for c, xj in zip(stage, x)), den),
            solution=[Fraction(xj, den) for xj in x],
            dual=[Fraction(yi, den) for yi in y],
        )


def solve_max(lp: LinearProgram) -> LpResult:
    """Exact optimum of ``lp``; status is optimal or unbounded."""
    return next(solve_sweep(lp, [range(len(lp.objective))]))


def _verify(lp, x, y, den, columns=None):
    """Certify ``x / den`` as an optimum of ``lp`` by the dual ``y / den``.

    ``x`` and ``y`` are integer numerators over the positive ``den``.
    ``columns`` (default: all) restricts ``lp`` to those columns, the
    others fixed at zero, with one ``x`` entry per column in that order,
    read from ``lp``'s rows in place.  The witness must be feasible, and
    the multipliers feasible for the dual with the same objective: weak
    duality then bounds every feasible point by the witness's value.
    """
    if columns is None:
        columns = range(len(lp.objective))
    if den <= 0:
        raise DefectError("certificate denominator must be positive")
    if len(x) != len(columns):
        raise DefectError("witness needs one value per column")
    if any(xj < 0 for xj in x):
        raise DefectError("witness violates nonnegativity")
    support = [(c, xj) for c, xj in zip(columns, x) if xj]
    for coeffs, rhs in lp.rows:
        if sum(coeffs[c] * xj for c, xj in support) > rhs * den:
            raise DefectError("witness violates a constraint after solving")
    if len(y) != len(lp.rows):
        raise DefectError("dual certificate needs one multiplier per row")
    if any(yi < 0 for yi in y):
        raise DefectError("dual multiplier has the wrong sign for its row")
    used = [(coeffs, yi) for (coeffs, _), yi in zip(lp.rows, y) if yi]
    for c in columns:
        if sum(yi * coeffs[c] for coeffs, yi in used) < lp.objective[c] * den:
            raise DefectError("dual multipliers violate a dual constraint")
    primal = sum(lp.objective[c] * xj for c, xj in zip(columns, x))
    if sum(yi * rhs for (_, rhs), yi in zip(lp.rows, y)) != primal:
        raise DefectError("dual objective differs from the primal optimum")
