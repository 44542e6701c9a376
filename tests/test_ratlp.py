import ast
import inspect
import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm

import pytest

from whmetric import ratlp
from whmetric.bounds import build_bound_table, lp_bound_detail
from whmetric.errors import DefectError, ParameterError
from whmetric.metric import WeightedSpace
from whmetric.ratlp import LinearProgram, solve_max, solve_sweep


@pytest.fixture
def pivots(monkeypatch):
    """Count ``ratlp._pivot`` calls, checking after each one that every
    tableau row is in lowest terms over a positive denominator."""
    calls = []
    pivot = ratlp._pivot

    def checked(tableau, dens, pr, pc):
        pivot(tableau, dens, pr, pc)
        calls.append((pr, pc))
        assert len(dens) == len(tableau)
        for row, den in zip(tableau, dens):
            assert den > 0
            assert gcd(den, *row) == 1

    monkeypatch.setattr(ratlp, "_pivot", checked)
    return calls


@pytest.fixture(params=("steepest-edge", "overflow"))
def entering(request, monkeypatch):
    """Solve with steepest edge, and with its overflow path, where every
    entering column, the float guide's too, is the lowest improving
    variable (only entries beyond a float reach that path, so small
    programs need a run of their own)."""
    if request.param == "overflow":

        def lowest(body, dens, obj, candidates):
            return min(candidates)[1]

        monkeypatch.setattr(ratlp, "_steepest_edge", lowest)


def _exchanged(basic, nonbasic, i, j):
    """The basis ``basic`` with row i's variable swapped for column j's."""
    target = set(basic)
    target.remove(basic[i])
    target.add(nonbasic[j])
    return target


def _feasible_not_optimal(tableau, dens, basic, nonbasic):
    # one exact primal step from the current basis: the first improving
    # column with a positive entry enters, the first minimum ratio leaves
    *body, obj = tableau
    for j in range(len(nonbasic)):
        rows = [i for i, row in enumerate(body) if row[j] > 0]
        if obj[j] < 0 and rows:
            i = min(rows, key=lambda i: Fraction(body[i][-1], body[i][j]))
            return _exchanged(basic, nonbasic, i, j)
    return None


def _infeasible(tableau, dens, basic, nonbasic):
    # a negative entry over a positive rhs: that row's rhs turns negative
    *body, _ = tableau
    for i, row in enumerate(body):
        for j in range(len(nonbasic)):
            if row[j] < 0 < row[-1]:
                return _exchanged(basic, nonbasic, i, j)
    return None


def _singular(tableau, dens, basic, nonbasic):
    # the only row that may leave has a zero entry in the entering column
    *body, _ = tableau
    for i, row in enumerate(body):
        for j in range(len(nonbasic)):
            if not row[j]:
                return _exchanged(basic, nonbasic, i, j)
    return None


@pytest.fixture(params=("float", "none", "misled"))
def guide(request, monkeypatch):
    """Start each stage's exact simplex from the float guide's basis, from
    the basis it holds (no guide), or from a wrong basis: in turn one
    that is feasible but not optimal, one that is infeasible and one
    whose crossing meets a zero entry.  A misled run must both restore
    a tableau and finish a crossed one by exact pivots."""
    if request.param == "none":
        monkeypatch.setattr(ratlp, "_float_basis", lambda *args: None)
    if request.param != "misled":
        yield
        return
    kinds = (_feasible_not_optimal, _infeasible, _singular)
    seen = {"calls": 0, "reached": False, "restored": 0, "finished": 0}

    def misled(*args):
        seen["calls"] += 1
        for n in range(len(kinds)):
            target = kinds[(seen["calls"] + n) % len(kinds)](*args)
            if target is not None:
                return target
        return None

    cross, simplex = ratlp._cross, ratlp._simplex

    def crossed(tableau, dens, basic, nonbasic, target):
        reached = cross(tableau, dens, basic, nonbasic, target)
        assert reached == (set(basic) == target)
        seen["reached"] = reached
        seen["restored"] += not reached
        return reached

    def finished(tableau, dens, basic, nonbasic):
        start = basic[:]
        status = simplex(tableau, dens, basic, nonbasic)
        seen["finished"] += seen["reached"] and basic != start
        seen["reached"] = False
        return status

    monkeypatch.setattr(ratlp, "_float_basis", misled)
    monkeypatch.setattr(ratlp, "_cross", crossed)
    monkeypatch.setattr(ratlp, "_simplex", finished)
    yield
    assert seen["restored"] and seen["finished"], seen


def test_single_variable_box():
    res = solve_max(LinearProgram(objective=[1], rows=[([1], 3)]))
    assert res.status == "optimal"
    assert res.value == 3
    assert res.solution == [3]


def test_two_variable_vertex():
    res = solve_max(LinearProgram(objective=[1, 1], rows=[([1, 2], 4), ([3, 1], 6)]))
    assert res.status == "optimal"
    assert res.value == Fraction(14, 5)
    assert res.solution == [Fraction(8, 5), Fraction(6, 5)]


def test_rejects_negative_rhs_and_non_integer_data():
    # the origin must be feasible, and the data integer
    with pytest.raises(ParameterError, match="non-negative"):
        LinearProgram(objective=[1], rows=[([1], -1)])
    with pytest.raises(ParameterError, match="integers"):
        LinearProgram(objective=[1], rows=[([Fraction(1, 2)], 1)])
    with pytest.raises(ParameterError, match="integers"):
        LinearProgram(objective=[1], rows=[([1], 1.0)])
    with pytest.raises(ParameterError, match="integers"):
        LinearProgram(objective=[0.5], rows=[([1], 1)])


def test_unbounded():
    assert solve_max(LinearProgram(objective=[1], rows=[])).status == "unbounded"


def test_degenerate_equalities_pin_variables():
    lp = LinearProgram(
        objective=[1, 1, 1],
        rows=[([0, 1, 0], 0), ([0, 0, 1], 0), ([1, 0, 0], 7)],
    )
    res = solve_max(lp)
    assert res.value == 7
    assert res.solution == [7, 0, 0]


def test_row_scaling_invariance():
    rows = [([2, 3], 12), ([-1, 1], 3)]
    scaled = [([4, 6], 24), ([-5, 5], 15)]
    a = solve_max(LinearProgram(objective=[4, 1], rows=rows))
    b = solve_max(LinearProgram(objective=[4, 1], rows=scaled))
    assert a.value == b.value == 24
    assert b.dual == [y / m for y, m in zip(a.dual, (2, 5))]


def test_rejects_malformed():
    with pytest.raises(ParameterError):
        LinearProgram(objective=[], rows=[])
    with pytest.raises(ParameterError):
        LinearProgram(objective=[1], rows=[([1, 2], 1)])
    with pytest.raises(ParameterError):
        LinearProgram(objective=[1], rows=[([1], "<=", 1)])


# -- randomized comparison against vertex enumeration ------------------------


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; returns the unique solution or None."""
    n = len(rows)
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    col = 0
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                g = aug[i][col]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def _vertex_optimum(objective, le_rows):
    """Max of objective over {x >= 0, rows <= rhs} by enumerating vertices.

    The rows must include per-variable upper bounds so the region is
    bounded; returns None when the region is empty.  Each random suite
    poses its programs once per solver mode, so optima are cached.
    """
    return _cached_vertex_optimum(tuple(objective), tuple((tuple(r), b) for r, b in le_rows))


@cache
def _cached_vertex_optimum(objective, le_rows):
    nvars = len(objective)
    hyperplanes = [(row, rhs) for row, rhs in le_rows]
    for i in range(nvars):
        unit = [0] * nvars
        unit[i] = 1
        hyperplanes.append((unit, None))  # x_i = 0
    best = None
    for chosen in combinations(range(len(hyperplanes)), nvars):
        rows = [hyperplanes[i][0] for i in chosen]
        rhs = [hyperplanes[i][1] if hyperplanes[i][1] is not None else 0 for i in chosen]
        point = _solve_square(rows, rhs)
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        feasible = all(
            sum(c * x for c, x in zip(row, point)) <= rhs_val
            for row, rhs_val in le_rows
        )
        if not feasible:
            continue
        value = sum(c * x for c, x in zip(objective, point))
        if best is None or value > best:
            best = value
    return best


def test_random_small_programs_match_vertex_enumeration(pivots, entering, guide):
    rng = random.Random(424242)
    for case in range(200):
        nvars = rng.choice((2, 3))
        nrows = rng.randint(2, 6)
        objective = [rng.randint(-9, 9) for _ in range(nvars)]
        le_rows = []
        for _ in range(nrows):
            le_rows.append(
                ([rng.randint(-9, 9) for _ in range(nvars)], rng.randint(0, 9))
            )
        for i in range(nvars):  # box rows keep the region bounded
            unit = [0] * nvars
            unit[i] = 1
            le_rows.append((unit, 9))
        res = solve_max(LinearProgram(objective=objective, rows=le_rows))
        assert res.status == "optimal", f"case {case}"
        assert res.value == _vertex_optimum(objective, le_rows), f"case {case}"
    assert pivots


def test_random_degenerate_programs_match_vertex_enumeration(pivots, entering, guide):
    # most right-hand sides 0: the origin is a vertex of many tight rows,
    # so ratio ties and zero steps are the rule, not the exception
    rng = random.Random(90210)
    for case in range(100):
        nvars = rng.choice((2, 3))
        le_rows = [
            (
                [rng.randint(-5, 5) for _ in range(nvars)],
                0 if rng.random() < 0.8 else rng.randint(1, 9),
            )
            for _ in range(rng.randint(3, 7))
        ]
        le_rows += [([rng.randint(0, 2) for _ in range(nvars)], 0) for _ in range(2)]
        for i in range(nvars):  # box rows keep the region bounded
            le_rows.append(([int(i == k) for k in range(nvars)], 6))
        objective = [rng.randint(-5, 9) for _ in range(nvars)]
        lp = LinearProgram(objective=objective, rows=le_rows)
        res = solve_max(lp)
        assert res.status == "optimal", f"case {case}"
        assert res.value == _vertex_optimum(objective, le_rows), f"case {case}"
        ratlp._verify(lp, *_certificate(res.solution, res.dual))
    assert pivots


# -- dual certificate ----------------------------------------------------------


def test_dual_multipliers_certify_the_optimum():
    lp = LinearProgram(objective=[1, 1], rows=[([1, 2], 4), ([3, 1], 6)])
    res = solve_max(lp)
    assert res.dual == [Fraction(2, 5), Fraction(1, 5)]


def _certificate(solution, dual):
    """Numerators of ``solution`` and ``dual`` over one common denominator."""
    den = lcm(*(v.denominator for v in solution + dual))
    return [int(v * den) for v in solution], [int(v * den) for v in dual], den


@pytest.mark.parametrize(
    "dual, reason",
    (
        ([Fraction(7, 5), Fraction(1, 5)], "dual objective"),
        ([Fraction(0), Fraction(7, 15)], "dual constraint"),  # same objective
        ([Fraction(-2, 5), Fraction(11, 15)], "wrong sign"),  # same objective
        ([Fraction(2, 5)], "one multiplier per row"),
    ),
)
def test_tampered_dual_is_rejected(dual, reason):
    lp = LinearProgram(objective=[1, 1], rows=[([1, 2], 4), ([3, 1], 6)])
    res = solve_max(lp)
    ratlp._verify(lp, *_certificate(res.solution, res.dual))
    with pytest.raises(DefectError, match=reason):
        ratlp._verify(lp, *_certificate(res.solution, dual))


# -- pricing: floats only rank the entering columns ---------------------------


_BEALE = LinearProgram(
    # Beale (1955) with its objective scaled by 4 and rows by 4, 2 and 1
    # to integers, the textbook example on which Dantzig's rule cycles
    objective=[3, -80, 2, -24],
    rows=[([1, -32, -4, 36], 0), ([1, -24, -1, 6], 0), ([0, 0, 1, 0], 1)],
)


def test_beale_cycling_example(entering):
    res = solve_max(_BEALE)
    assert res.value == 5
    ratlp._verify(_BEALE, *_certificate(res.solution, res.dual))


def test_beale_cycling_example_under_dantzigs_rule(monkeypatch):
    # Dantzig's rule on Beale's own fractional data: slack i's reduced
    # cost here is 1 / scale_i of the textbook one, its row scaled by 4,
    # 2 and 1.  With ratio ties to the lowest basic variable this cycles;
    # the lexicographic ratio test alone must end the stall
    scale = {4: 4, 5: 2, 6: 1}
    chosen = []

    def dantzig(body, dens, obj, candidates):
        chosen.append(candidates)
        assert len(chosen) < 50, "the simplex cycles"
        return min(candidates, key=lambda vj: (obj[vj[1]] * scale.get(vj[0], 1), vj[0]))[1]

    monkeypatch.setattr(ratlp, "_steepest_edge", dantzig)
    monkeypatch.setattr(ratlp, "_float_basis", lambda *args: None)  # start at the origin
    res = solve_max(_BEALE)
    assert res.value == 5
    assert res.solution == [1, 0, 1, 0]
    ratlp._verify(_BEALE, *_certificate(res.solution, res.dual))


_HUGE = 2**1100  # beyond any float: pricing cannot divide it into one


@pytest.mark.parametrize(
    "objective, rows, value",
    (
        ([1, 1], [([_HUGE, 1], _HUGE), ([1, _HUGE], _HUGE)], Fraction(2 * _HUGE, _HUGE + 1)),
        ([_HUGE, 1], [([1, 1], 5), ([1, 2], 7)], 5 * _HUGE),
    ),
    ids=("huge-rows", "huge-objective"),
)
def test_pricing_never_overflows(objective, rows, value):
    lp = LinearProgram(objective=objective, rows=rows)
    res = solve_max(lp)
    assert res.status == "optimal"
    assert res.value == value
    ratlp._verify(lp, *_certificate(res.solution, res.dual))


# -- sweeps: columns unlocked in stages ----------------------------------------


def _restricted(lp, stage):
    return LinearProgram(
        objective=[lp.objective[c] for c in stage],
        rows=[([coeffs[c] for c in stage], rhs) for coeffs, rhs in lp.rows],
    )


def test_sweep_stages_match_cold_solves(pivots, entering, guide):
    rng = random.Random(717171)
    for case in range(150):
        nvars = rng.randint(2, 7)
        rows = [
            ([rng.randint(-9, 9) for _ in range(nvars)], rng.randint(0, 9))
            for _ in range(rng.randint(1, 6))
        ]
        rows.append(([rng.randint(1, 3) for _ in range(nvars)], rng.randint(0, 20)))  # bounded
        lp = LinearProgram(objective=[rng.randint(-3, 9) for _ in range(nvars)], rows=rows)
        order = rng.sample(range(nvars), nvars)
        cuts = sorted(rng.sample(range(1, nvars + 1), rng.randint(1, nvars)))
        stages = [sorted(order[:cut]) for cut in cuts]
        for stage, res in zip(stages, solve_sweep(lp, stages)):
            own = _restricted(lp, stage)
            cold = solve_max(own)
            assert res.status == cold.status == "optimal", f"case {case}"
            assert res.value == cold.value, f"case {case}, stage {stage}"
            ratlp._verify(own, *_certificate(res.solution, res.dual))
            ratlp._verify(lp, *_certificate(res.solution, res.dual), stage)
    assert pivots


def test_sweep_certifies_each_stage_without_rebuilding_the_program(monkeypatch):
    lp = LinearProgram(objective=[3, 1, 2], rows=[([1, 1, 1], 6), ([2, 0, 1], 8), ([0, 1, 3], 9)])
    built = []
    post_init = LinearProgram.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(LinearProgram, "__post_init__", counted)
    stages = [[2], [0, 2], [0, 1, 2]]
    results = list(solve_sweep(lp, stages))
    assert built == []  # each stage is read from lp's own rows
    for stage, res in zip(stages, results):
        assert res.value == solve_max(_restricted(lp, stage)).value


def test_a_stage_certificate_is_checked_on_the_stage_columns():
    lp = LinearProgram(objective=[1, 1, 5], rows=[([1, 2, 1], 4), ([3, 1, 1], 6)])
    stage = [0, 1]  # column 2 stays locked at zero
    res = next(solve_sweep(lp, [stage]))
    x, y, den = _certificate(res.solution, res.dual)
    ratlp._verify(lp, x, y, den, stage)
    with pytest.raises(DefectError, match="dual constraint"):
        ratlp._verify(lp, x + [0], y, den)  # the dual does not cover column 2
    with pytest.raises(DefectError, match="one value per column"):
        ratlp._verify(lp, x + [0], y, den, stage)
    with pytest.raises(DefectError, match="violates a constraint"):
        ratlp._verify(lp, [x[0] + den, x[1]], y, den, stage)


def test_sweep_reports_each_unbounded_stage():
    lp = LinearProgram(objective=[1, 1], rows=[([1, 0], 5)])
    assert [r.status for r in solve_sweep(lp, [[0], [0, 1]])] == ["optimal", "unbounded"]


def test_sweep_cannot_lock_a_column():
    lp = LinearProgram(objective=[1, 1], rows=[([1, 1], 5)])
    with pytest.raises(ParameterError, match="keep every column"):
        list(solve_sweep(lp, [[0, 1], [1]]))
    with pytest.raises(ParameterError, match="distinct columns"):
        list(solve_sweep(lp, [[0, 0]]))


# -- the float guide: floats choose the basis, exact pivots reach it ----------


def _origin(lp):
    """The tableau of ``lp`` at the origin, every column unlocked: the
    input rows over 1, with the negated objective as the last row."""
    nvars, nrows = len(lp.objective), len(lp.rows)
    tableau = [coeffs + [rhs] for coeffs, rhs in lp.rows]
    tableau.append([-c for c in lp.objective] + [0])
    return tableau, [1] * (nrows + 1), list(range(nvars, nvars + nrows)), list(range(nvars))


def _values(tableau, dens, basic, nonbasic):
    """The tableau as rationals, keyed by basic and nonbasic variable."""
    keys = basic + ["objective"]
    return {
        key: {**{v: Fraction(a, d) for v, a in zip(nonbasic, row)}, "rhs": Fraction(row[-1], d)}
        for key, row, d in zip(keys, tableau, dens)
    }


def test_crossing_reaches_the_tableau_of_its_target_basis(pivots, monkeypatch):
    # a basis has one tableau, so crossing from the origin to the basis
    # where the simplex stops must reach the simplex's own tableau
    entries = []
    pivot = ratlp._pivot

    def signed(tableau, dens, pr, pc):
        entries.append(tableau[pr][pc])
        pivot(tableau, dens, pr, pc)

    monkeypatch.setattr(ratlp, "_pivot", signed)
    rng = random.Random(31337)
    for case in range(60):
        nvars = rng.randint(2, 5)
        rows = [([rng.randint(-6, 6) for _ in range(nvars)], rng.randint(0, 9)) for _ in range(4)]
        rows.append(([rng.randint(1, 3) for _ in range(nvars)], rng.randint(1, 20)))
        lp = LinearProgram(objective=[rng.randint(-2, 6) for _ in range(nvars)], rows=rows)
        solved = _origin(lp)
        assert ratlp._simplex(*solved) == "optimal"
        crossed = _origin(lp)
        assert ratlp._cross(*crossed, set(solved[2]))
        assert _values(*crossed) == _values(*solved), f"case {case}"
    assert any(p < 0 for p in entries), "no crossing pivot had a negative entry"


@pytest.mark.parametrize(
    "target",
    ({1, 2}, {0, 3}),  # x1 replaces slack 3 on a zero entry; x0 slack 2 on -1
    ids=("singular", "infeasible"),
)
def test_crossing_restores_the_tableau_it_cannot_reach(target):
    lp = LinearProgram(objective=[1, 1], rows=[([-1, 1], 2), ([1, 0], 3)])
    start = _origin(lp)
    before = _values(*start)
    assert not ratlp._cross(*start, target)
    assert _values(*start) == before
    assert start[2:] == ([2, 3], [0, 1])


def test_float_guide_sums_in_a_fixed_order():
    # Python 3.12 made sum() of floats compensated, and math.fsum is
    # exact: either would let interpreters reach different bases
    for fn in (ratlp._float_basis, ratlp._float_pivot, ratlp._steepest_edge):
        tree = ast.parse(inspect.getsource(fn))
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        names = {getattr(f, "id", None) or getattr(f, "attr", None) for f in calls}
        assert not names & {"sum", "fsum"}, fn.__name__


# -- the tableau in lowest terms on the bound LPs ------------------------------


def test_bound_sweep_keeps_rows_in_lowest_terms(pivots):
    build_bound_table(WeightedSpace(2, (4, 4), (1, 2)), 0, 8)
    assert len(pivots) > 10


@pytest.fixture
def path(pivots, monkeypatch):
    """Split a solve's pivots into float pivots, exact crossing pivots and
    exact finishing pivots (those of :func:`ratlp._simplex`), and count
    the crossings that restored their tableau."""
    counts = {"float": 0, "crossing": 0, "finishing": 0, "restores": 0}
    float_pivot, cross, simplex = ratlp._float_pivot, ratlp._cross, ratlp._simplex

    def counted_float_pivot(*args):
        counts["float"] += 1
        float_pivot(*args)

    def counted_cross(*args):
        before = len(pivots)
        reached = cross(*args)
        counts["crossing"] += len(pivots) - before
        counts["restores"] += not reached
        return reached

    def counted_simplex(*args):
        before = len(pivots)
        status = simplex(*args)
        counts["finishing"] += len(pivots) - before
        return status

    monkeypatch.setattr(ratlp, "_float_pivot", counted_float_pivot)
    monkeypatch.setattr(ratlp, "_cross", counted_cross)
    monkeypatch.setattr(ratlp, "_simplex", counted_simplex)
    return counts


@pytest.mark.parametrize(
    "solve, count, floats",
    (
        (lambda: build_bound_table(WeightedSpace(2, (7, 7), (1, 2)), 0, 10), 116, 231),
        (lambda: build_bound_table(WeightedSpace(7, (7, 7), (1, 2)), 0, 10), 71, 94),
        (lambda: build_bound_table(WeightedSpace(2, (7, 7, 7), (1, 2, 3)), 13, 16), 28, 39),
        (lambda: lp_bound_detail(WeightedSpace(2, (7, 7), (1, 2)), 3), 35, 52),
        (lambda: lp_bound_detail(WeightedSpace(7, (7, 7), (1, 2)), 1), 60, 88),
        # long runs of degenerate pivots on a three-block space
        (lambda: lp_bound_detail(WeightedSpace(3, (4, 4, 4), (1, 2, 3)), 1), 120, 208),
    ),
    ids=("q2", "q7", "three-blocks-q2", "cold-q2-t3", "cold-q7-t1", "stall-q3-t1"),
)
def test_bound_table_pivot_path(pivots, path, solve, count, floats):
    # The float guide and steepest edge both rank by floats; the exact
    # counts pin every float comparison, so a platform that rounded
    # differently would fail here.  Every exact pivot is a crossing one:
    # each float basis is exactly optimal, so no stage restores or finishes
    solve()
    assert len(pivots) == count
    assert path == {"float": floats, "crossing": count, "finishing": 0, "restores": 0}
