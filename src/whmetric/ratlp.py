"""Exact linear programming over the rationals.

A two-phase primal simplex on a dense condensed tableau (one row per
basic and one column per nonbasic variable), pivoted fraction-free: the
tableau is one integer matrix over one positive common denominator
(Edmonds' integer pivoting, the simplex form of Bareiss elimination),
so each update is an exact integer division and no rational is reduced
inside the pivot loop.  Each input row is
scaled once, at set-up, to its primitive integer form: denominators
cleared, then the gcd of its coefficients and right-hand side divided
out, which keeps the integers small.  Pivots follow Dantzig's rule for
speed and switch to Bland's rule whenever the objective stalls on
degenerate pivots, so termination stays guaranteed.

A returned optimum is certified, not trusted.  The primal witness is
re-substituted into every constraint, which proves the optimum is at
least the returned value.  The dual multipliers, read from the final
objective row, are checked to satisfy the dual constraints with the
same objective value, which proves it is at most that value.

Instances here are small (a few hundred variables), which is why the
dense tableau is acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DefectError, ParameterError

GE = ">="
LE = "<="
EQ = "=="


@dataclass
class LinearProgram:
    """maximize objective . x subject to rows, with optional nonnegativity."""

    objective: list
    rows: list  # (coefficients, relation in {">=", "==", "<="}, rhs)
    nonneg: list = None

    def __post_init__(self):
        self.objective = [Fraction(c) for c in self.objective]
        nvars = len(self.objective)
        if nvars < 1:
            raise ParameterError("a linear program needs at least one variable")
        norm_rows = []
        for coeffs, rel, rhs in self.rows:
            if rel not in (GE, EQ, LE):
                raise ParameterError(f"unknown relation {rel!r}")
            coeffs = [Fraction(c) for c in coeffs]
            if len(coeffs) != nvars:
                raise ParameterError("constraint row length does not match variable count")
            norm_rows.append((coeffs, rel, Fraction(rhs)))
        self.rows = norm_rows
        if self.nonneg is None:
            self.nonneg = [True] * nvars
        if len(self.nonneg) != nvars:
            raise ParameterError("nonneg flag list length does not match variable count")


@dataclass
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction = None
    solution: list = None
    dual: list = None  # one multiplier per input row: >= 0 on "<=", <= 0 on ">="


def _pivot(tableau, den, pr, pc):
    """Exchange the basic variable of row ``pr`` with the nonbasic one of
    column ``pc``, in every row (objective row included).

    Entries are the rational tableau times ``den``; returns the new
    common denominator, kept positive.  The division is exact because
    every entry is a minor of the scaled input (Bareiss).  Rows are
    mutated in place so outstanding references stay valid.
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
    if p < 0:  # only when phase 1 drives an artificial out of the basis
        for row in tableau:
            row[:] = [-a for a in row]
        p = -p
    return p


_STALL_LIMIT = 32


def _simplex(tableau, basic, nonbasic, cost, den, nenter):
    """Maximize integer ``cost`` over the current basic feasible tableau.

    ``tableau`` has one row per basic variable (``basic[i]``) and one
    column per nonbasic variable (``nonbasic[j]``), then the rhs, all
    over the denominator ``den``; the last row is the objective row and
    is maintained in place.  Only variables below ``nenter`` may enter
    the basis.  Pivots use Dantzig's rule (most negative reduced cost)
    for speed, falling back to Bland's rule while the objective is
    stalled on degenerate pivots, which keeps the termination
    guarantee; ties go to the lowest variable.  Ratios are compared by
    cross-multiplying.  Returns ("optimal" or "unbounded", den).
    """
    body = tableau[:-1]
    obj = tableau[-1]
    # objective row: obj[j] = sum(cost[basic] * row[j]) - cost[nonbasic[j]] * den
    obj[:] = [-cost[v] * den for v in nonbasic] + [0]
    for i, bv in enumerate(basic):
        cb = cost[bv]
        if cb:
            obj[:] = [o + cb * a for o, a in zip(obj, body[i])]
    stalled = 0
    while True:
        candidates = [(v, j) for j, v in enumerate(nonbasic) if v < nenter and obj[j] < 0]
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


def _integer_row(coeffs, rhs):
    """(m, integer coeffs, integer rhs) with m * (coeffs, rhs) primitive and m > 0."""
    scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    irhs = rhs.numerator * (scale // rhs.denominator)
    common = gcd(irhs, *ints) or 1
    return Fraction(scale, common), [c // common for c in ints], irhs // common


def solve_max(lp: LinearProgram) -> LpResult:
    """Exact optimum of ``lp``; status is optimal, unbounded, or infeasible."""
    nvars = len(lp.objective)
    # split free variables x = x+ - x-
    col_of = []
    ncols = 0
    for flag in lp.nonneg:
        if flag:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    nstruct = ncols

    def expand(coeffs):
        out = [0] * nstruct
        for j, c in enumerate(coeffs):
            if c:
                pos, neg = col_of[j]
                out[pos] = c
                if neg is not None:
                    out[neg] = -c
        return out

    # Scale each row to primitive integers with rhs >= 0; the prepared
    # row is m times the input row, so m times its dual multiplier is
    # the input row's multiplier.
    prepared = []  # (integer coeffs, relation, rhs, m)
    for coeffs, rel, rhs in lp.rows:
        m, c, b = _integer_row(coeffs, rhs)
        if b < 0 or (b == 0 and rel == GE):
            m, c, b = -m, [-x for x in c], -b
            rel = {GE: LE, LE: GE, EQ: EQ}[rel]
        prepared.append((expand(c), rel, b, m))

    # Variables: structural, then slack (LE) or surplus (GE) per row,
    # then artificial (GE, EQ).  Each row starts with its slack or
    # artificial basic; structurals and surpluses start as columns.
    nslack = sum(1 for _, rel, _, _ in prepared if rel in (GE, LE))
    nart = sum(1 for _, rel, _, _ in prepared if rel in (GE, EQ))
    nenter = nstruct + nslack  # artificials never enter in phase 2
    basic = []
    surplus_of = {}  # row -> its surplus variable
    si, ai = nstruct, nenter
    for i, (_, rel, _, _) in enumerate(prepared):
        if rel == LE:
            basic.append(si)
            si += 1
        else:
            if rel == GE:
                surplus_of[i] = si
                si += 1
            basic.append(ai)
            ai += 1
    nonbasic = list(range(nstruct)) + list(surplus_of.values())
    tableau = [
        c + [-1 if surplus_of.get(i) == v else 0 for v in nonbasic[nstruct:]] + [b]
        for i, (c, _, b, _) in enumerate(prepared)
    ]
    tableau.append([0] * (len(nonbasic) + 1))  # objective row
    den = 1
    unit_var = list(basic)  # per row: its slack or artificial variable

    if nart:
        phase1_cost = [0] * nenter + [-1] * nart
        status, den = _simplex(tableau, basic, nonbasic, phase1_cost, den, nenter + nart)
        if status != "optimal":
            raise DefectError("phase-1 objective cannot be unbounded")
        if tableau[-1][-1] != 0:  # objective row holds accumulated value
            return LpResult(status="infeasible")
        # drive remaining artificials out of the basis; one that cannot
        # leave sits at zero in a redundant row that no pivot touches
        for i in range(len(basic)):
            if basic[i] >= nenter:
                row = tableau[i]
                pc = next(
                    (j for j, v in enumerate(nonbasic) if v < nenter and row[j]), None
                )
                if pc is not None:
                    den = _pivot(tableau, den, i, pc)
                    basic[i], nonbasic[pc] = nonbasic[pc], basic[i]

    cost_scale = lcm(*(c.denominator for c in lp.objective))
    phase2_cost = [0] * (nenter + nart)
    for j, c in enumerate(lp.objective):
        ic = c.numerator * (cost_scale // c.denominator)
        pos, neg = col_of[j]
        phase2_cost[pos] += ic
        if neg is not None:
            phase2_cost[neg] -= ic
    status, den = _simplex(tableau, basic, nonbasic, phase2_cost, den, nenter)
    if status == "unbounded":
        return LpResult(status="unbounded")

    values = [0] * (nenter + nart)
    for i, bv in enumerate(basic):
        values[bv] = tableau[i][-1]
    solution = []
    for j in range(nvars):
        pos, neg = col_of[j]
        x = values[pos] - (values[neg] if neg is not None else 0)
        solution.append(Fraction(x, den))
    value = sum(c * x for c, x in zip(lp.objective, solution))
    # a row's multiplier is the reduced cost of its unit variable (0 while basic)
    obj = tableau[-1]
    column = {v: j for j, v in enumerate(nonbasic)}
    dual = [
        m * Fraction(obj[column[v]], den * cost_scale) if v in column else Fraction(0)
        for (_, _, _, m), v in zip(prepared, unit_var)
    ]

    _verify(lp, solution, value, dual)
    return LpResult(status="optimal", value=value, solution=solution, dual=dual)


def _verify(lp, solution, value, dual):
    """Certify ``value`` as the optimum of ``lp``.

    ``solution`` must be feasible with objective ``value``, and ``dual``
    must be feasible for the dual program with the same objective:
    weak duality then bounds every feasible point by ``value``.
    """
    for j, flag in enumerate(lp.nonneg):
        if flag and solution[j] < 0:
            raise DefectError("witness violates nonnegativity")
    for coeffs, rel, rhs in lp.rows:
        lhs = sum(c * x for c, x in zip(coeffs, solution) if c)
        ok = lhs >= rhs if rel == GE else (lhs <= rhs if rel == LE else lhs == rhs)
        if not ok:
            raise DefectError("witness violates a constraint after solving")
    if value != sum(c * x for c, x in zip(lp.objective, solution)):
        raise DefectError("witness objective value mismatch")  # pragma: no cover
    if len(dual) != len(lp.rows):
        raise DefectError("dual certificate needs one multiplier per row")
    for (_, rel, _), y in zip(lp.rows, dual):
        if (rel == LE and y < 0) or (rel == GE and y > 0):
            raise DefectError("dual multiplier has the wrong sign for its row")
    for j, (c, flag) in enumerate(zip(lp.objective, lp.nonneg)):
        reduced = sum(y * row[0][j] for y, row in zip(dual, lp.rows) if y)
        if reduced < c if flag else reduced != c:
            raise DefectError("dual multipliers violate a dual constraint")
    if sum(y * rhs for y, (_, _, rhs) in zip(dual, lp.rows)) != value:
        raise DefectError("dual objective differs from the primal optimum")
