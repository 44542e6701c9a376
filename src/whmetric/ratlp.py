"""Exact linear programming on integer data.

The solver takes one form only: maximize c.x subject to Ax <= b and
x >= 0, with integer A, b and c and b >= 0.  The origin is then a basic
feasible solution (every slack basic), so there is no phase 1 and a
program is either optimal or unbounded.

A primal simplex on a dense condensed tableau (one row per basic and
one column per nonbasic variable), pivoted fraction-free: the tableau
is one integer matrix over one positive common denominator (Edmonds'
integer pivoting, the simplex form of Bareiss elimination), so each
update is an exact integer division and no rational is reduced inside
the pivot loop.  Each input row is divided once, at set-up, by the gcd
of its coefficients and right-hand side, which keeps the integers
small.  Pivots follow Dantzig's rule for speed and switch to Bland's
rule whenever the objective stalls on degenerate pivots, so termination
stays guaranteed.

A returned optimum is certified, not trusted.  The primal witness is
re-substituted into every constraint, which proves the optimum is at
least the returned value.  The dual multipliers, read from the final
objective row, are checked to satisfy the dual constraints with the
same objective value, which proves it is at most that value.  Both
checks run in integers over one common denominator.

Instances here are small (a few hundred variables), which is why the
dense tableau is acceptable.
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


def _pivot(tableau, den, pr, pc):
    """Exchange the basic variable of row ``pr`` with the nonbasic one of
    column ``pc``, in every row (objective row included).

    Entries are the rational tableau times ``den``; returns the new
    common denominator, the pivot entry, which the ratio test keeps
    positive.  The division is exact because every entry is a minor of
    the scaled input (Bareiss).  Rows are mutated in place so
    outstanding references stay valid.
    """
    prow = tableau[pr]
    p = prow[pc]
    for i, row in enumerate(tableau):
        if i == pr:
            continue
        g = row[pc]
        if g:
            row[:] = [(p * a - g * b) // den for a, b in zip(row, prow)]
            row[pc] = -g
        elif p != den:
            row[:] = [p * a // den for a in row]
    prow[pc] = den
    return p


_STALL_LIMIT = 32


def _simplex(tableau, basic, nonbasic, cost):
    """Maximize integer ``cost`` over the current basic feasible tableau.

    ``tableau`` has one row per basic variable (``basic[i]``) and one
    column per nonbasic variable (``nonbasic[j]``), then the rhs, all
    over a common denominator that starts at 1; the last row is the
    objective row and is maintained in place.  Pivots use Dantzig's rule
    (most negative reduced cost) for speed, falling back to Bland's rule
    while the objective is stalled on degenerate pivots, which keeps the
    termination guarantee; ties go to the lowest variable.  Ratios are
    compared by cross-multiplying.  Returns ("optimal" or "unbounded",
    den).
    """
    den = 1
    body = tableau[:-1]
    obj = tableau[-1]
    # objective row: obj[j] = sum(cost[basic] * row[j]) - cost[nonbasic[j]] * den
    obj[:] = [-cost[v] for v in nonbasic] + [0]
    for i, bv in enumerate(basic):
        cb = cost[bv]
        if cb:
            obj[:] = [o + cb * a for o, a in zip(obj, body[i])]
    stalled = 0
    while True:
        candidates = [(v, j) for j, v in enumerate(nonbasic) if obj[j] < 0]
        if not candidates:
            return "optimal", den
        if stalled >= _STALL_LIMIT:
            enter = min(candidates)[1]
        else:
            enter = min(candidates, key=lambda vj: (obj[vj[1]], vj[0]))[1]
        leave = None
        for i, row in enumerate(body):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, div = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * div, num * a
                if lhs < rhs or (lhs == rhs and basic[i] < basic[leave]):
                    leave, num, div = i, row[-1], a
        if leave is None:
            return "unbounded", den
        den = _pivot(tableau, den, leave, enter)
        basic[leave], nonbasic[enter] = nonbasic[enter], basic[leave]
        if num == 0:
            stalled += 1
        else:
            stalled = 0


def solve_max(lp: LinearProgram) -> LpResult:
    """Exact optimum of ``lp``; status is optimal or unbounded."""
    nvars, nrows = len(lp.objective), len(lp.rows)
    # Each tableau row is its input row divided by g > 0, so the input
    # row's multiplier is the tableau row's divided by g.
    gcds, tableau = [], []
    for coeffs, rhs in lp.rows:
        g = gcd(rhs, *coeffs) or 1
        gcds.append(g)
        tableau.append([c // g for c in coeffs] + [rhs // g])
    tableau.append([0] * (nvars + 1))  # objective row
    # Variables: structurals first, then one slack per row.  The slacks
    # start basic (the origin); the structurals start as columns.
    basic = list(range(nvars, nvars + nrows))
    nonbasic = list(range(nvars))
    status, den = _simplex(tableau, basic, nonbasic, lp.objective + [0] * nrows)
    if status == "unbounded":
        return LpResult(status="unbounded")

    # Put the witness and the multipliers over one denominator den * L.
    scale = lcm(*gcds)
    x = [0] * nvars
    for i, bv in enumerate(basic):
        if bv < nvars:
            x[bv] = tableau[i][-1] * scale
    # a row's multiplier is the reduced cost of its slack (0 while basic)
    y = [0] * nrows
    for j, v in enumerate(nonbasic):
        if v >= nvars:
            y[v - nvars] = tableau[-1][j] * (scale // gcds[v - nvars])
    den *= scale

    _verify(lp, x, y, den)
    return LpResult(
        status="optimal",
        value=Fraction(sum(c * xj for c, xj in zip(lp.objective, x)), den),
        solution=[Fraction(xj, den) for xj in x],
        dual=[Fraction(yi, den) for yi in y],
    )


def _verify(lp, x, y, den):
    """Certify ``x / den`` as an optimum of ``lp`` by the dual ``y / den``.

    ``x`` and ``y`` are integer numerators over the positive ``den``.
    The witness must be feasible, and the multipliers feasible for the
    dual program with the same objective: weak duality then bounds
    every feasible point by the witness's value.
    """
    if den <= 0:
        raise DefectError("certificate denominator must be positive")
    if any(xj < 0 for xj in x):
        raise DefectError("witness violates nonnegativity")
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    for coeffs, rhs in lp.rows:
        if sum(coeffs[j] * xj for j, xj in support) > rhs * den:
            raise DefectError("witness violates a constraint after solving")
    if len(y) != len(lp.rows):
        raise DefectError("dual certificate needs one multiplier per row")
    if any(yi < 0 for yi in y):
        raise DefectError("dual multiplier has the wrong sign for its row")
    used = [(coeffs, yi) for (coeffs, _), yi in zip(lp.rows, y) if yi]
    for j, c in enumerate(lp.objective):
        if sum(yi * coeffs[j] for coeffs, yi in used) < c * den:
            raise DefectError("dual multipliers violate a dual constraint")
    primal = sum(c * xj for c, xj in zip(lp.objective, x))
    if sum(yi * rhs for (_, rhs), yi in zip(lp.rows, y)) != primal:
        raise DefectError("dual objective differs from the primal optimum")
