import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import F7, two_block_code
from whmetric import bounds as bounds_module
from whmetric import ratlp as ratlp_module
from whmetric.bounds import (
    build_bound_table,
    capability_range_from_distance,
    covering_bound,
    distance_required_for_capability,
    lp_bound,
    lp_bound_detail,
    packing_bound,
    singleton_bound,
    singleton_k_for_t,
)
from whmetric.code import named_code
from whmetric.enumerator import krawtchouk
from whmetric.errors import DefectError, ParameterError
from whmetric.metric import WeightedSpace
from whmetric.oracle import block_weight_enumerator
from whmetric.ratlp import LinearProgram, LpResult, solve_max


def test_krawtchouk_at_zero():
    for q, n in ((2, 7), (7, 7)):
        for j in range(n + 1):
            assert krawtchouk(q, n, j, 0) == comb(n, j) * (q - 1) ** j


def test_krawtchouk_binary_linear_coefficient():
    assert [krawtchouk(2, 7, 1, i) for i in range(8)] == [7 - 2 * i for i in range(8)]
    assert krawtchouk(2, 7, 1, 1) == 5
    assert krawtchouk(2, 7, 1, 4) == -1


def test_krawtchouk_row_sums():
    for q in (2, 7):
        for i in range(8):
            total = sum(krawtchouk(q, 7, j, i) for j in range(8))
            assert total == (q**7 if i == 0 else 0)


SP2 = WeightedSpace(2, (7, 7), (1, 2))
SP7 = WeightedSpace(7, (7, 7), (1, 2))


def test_packing_reference_points():
    assert packing_bound(SP2, 0) == 14
    assert packing_bound(SP2, 2) == 8
    assert packing_bound(SP7, 5) == 7


def test_covering_reference_points():
    assert covering_bound(SP2, 0) == 14
    assert covering_bound(SP2, 1) == 10
    assert covering_bound(SP2, 2) == 6


def test_singleton_reference_points():
    assert singleton_bound(SP2, 12) == 1
    assert singleton_bound(SP2, 10) == 2
    assert singleton_bound(SP2, 7) == 4
    assert singleton_bound(SP2, 14) == 0
    assert singleton_k_for_t(SP2, 0) == 14


def test_singleton_independent_of_field_order():
    for k in range(1, 15):
        assert singleton_bound(SP2, k) == singleton_bound(SP7, k)


def test_lp_reference_points():
    assert lp_bound(SP2, 5) == 3
    assert lp_bound(SP7, 7) == 3


def test_lp_unconstrained_radius_gives_full_space():
    k, opt = lp_bound_detail(SP2, 0)
    assert k == 14
    assert opt == Fraction(2**14)


def test_classical_hamming_reductions():
    sp = WeightedSpace(2, (7,), (1,))
    # sphere packing at t=1 gives the Hamming bound k=4
    assert packing_bound(sp, 1) == 4
    # existence bound: 2^k >= 2^7 / |ball(2)| = 128/29
    assert covering_bound(sp, 1) == 3
    # d >= 3 forces k <= 5
    assert singleton_k_for_t(sp, 1) == 5


def test_capability_distance_conversions():
    sp = WeightedSpace(2, (3, 3), (1, 2))
    assert capability_range_from_distance(sp, 5) == (2, 2)
    for t in range(5):
        d = distance_required_for_capability(t)
        lo, hi = capability_range_from_distance(sp, d)
        assert lo == t
    hamming = WeightedSpace(2, (6,), (1,))
    for d in range(1, 7):
        lo, hi = capability_range_from_distance(hamming, d)
        assert lo == hi == (d - 1) // 2
    with pytest.raises(ParameterError):
        capability_range_from_distance(sp, 0)


@pytest.mark.parametrize(
    "call",
    (
        lambda sp: packing_bound(sp, 1.5),
        lambda sp: covering_bound(sp, 1.5),
        lambda sp: singleton_k_for_t(sp, 1.5),
        lambda sp: singleton_bound(sp, 1.5),
        lambda sp: lp_bound_detail(sp, 1.5),
        lambda sp: lp_bound(sp, Fraction(3, 2)),
        lambda sp: build_bound_table(sp, 0.5, 2),
        lambda sp: build_bound_table(sp, 0, 2.5),
        lambda sp: distance_required_for_capability(1.5),
        lambda sp: capability_range_from_distance(sp, 2.5),
        lambda sp: capability_range_from_distance(sp, "3"),
    ),
)
def test_bounds_refuse_a_radius_that_is_not_an_integer(call):
    # a fractional radius once read as a ball of the next integer radius
    # in one bound and the one below in another (covering 1, packing 4)
    with pytest.raises(ParameterError, match="integer"):
        call(WeightedSpace(2, (3, 3), (1, 2)))


def test_bound_table_shape_and_orderings():
    sp = WeightedSpace(2, (3, 3), (1, 2))
    table = build_bound_table(sp, 0, sp.max_weight)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "t,packing,singleton,lp,covering"
    prev = None
    for row in table.rows:
        assert row.covering <= row.packing
        assert row.covering <= row.singleton
        assert row.covering <= row.lp
        if prev:
            for name in ("packing", "singleton", "lp", "covering"):
                assert getattr(row, name) <= getattr(prev, name)
        prev = row
    # stable output
    assert csv == build_bound_table(sp, 0, sp.max_weight).to_csv()


def test_bound_table_empty_range():
    sp = WeightedSpace(2, (3, 3), (1, 2))
    table = build_bound_table(sp, 3, 2)
    assert table.to_csv() == "t,packing,singleton,lp,covering\n"


def test_true_enumerators_satisfy_lp_constraints():
    # block-weight enumerators of actual codes must pass every Krawtchouk
    # constraint with a non-negative value
    cases = []
    rs = named_code("reed_solomon", F7, 6, 3)
    cases.append((rs, WeightedSpace(7, (3, 3), (1, 2))))
    space4, gcc4 = two_block_code()
    cases.append((gcc4.as_linear_code(), space4))
    for code, space in cases:
        enum = block_weight_enumerator(code, space)
        assert sum(enum.values()) == code.field.order**code.k
        profiles = space.ball_profiles(space.max_weight)  # every profile
        for jprof in profiles:
            total = 0
            for iprof, count in enum.items():
                coeff = 1
                for l in range(space.m):
                    coeff *= krawtchouk(space.q, space.blocks[l], jprof[l], iprof[l])
                total += coeff * count
            assert total >= 0, (jprof, total)


def _unreduced_delsarte_lp(space, t):
    """The Delsarte LP with every enumerator entry a variable, in <= form:
    -K(j, .) A <= 0 for every profile j, A_0 <= 1, and A_p <= 0 on the
    nonzero difference-ball profiles.  Apart from A_0 <= 1 it is
    homogeneous, so the optimum sits at A_0 = 1."""
    profiles = list(product(*(range(b + 1) for b in space.blocks)))
    zero = profiles[0]
    rows = []
    for jprof in profiles:
        row = []
        for iprof in profiles:
            coeff = 1
            for l in range(space.m):
                coeff *= krawtchouk(space.q, space.blocks[l], jprof[l], iprof[l])
            row.append(-coeff)
        rows.append((row, 0))
    for p in [zero] + [p for p in space.diff_ball_profiles(t) if p != zero]:
        rows.append(([int(p == other) for other in profiles], int(p == zero)))
    return LinearProgram(objective=[1] * len(profiles), rows=rows)


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("blocks, scales", (((3, 3), (1, 2)), ((2, 2, 2), (1, 1, 2))))
def test_presolved_lp_matches_unreduced_two_phase_lp(q, blocks, scales):
    space = WeightedSpace(q, blocks, scales)
    for t in range(space.max_weight + 1):
        reference = solve_max(_unreduced_delsarte_lp(space, t))
        assert reference.status == "optimal"
        assert reference.solution[0] == 1, t
        assert lp_bound_detail(space, t)[1] == reference.value, t


def test_lp_witness_is_checked_on_unreduced_rows(monkeypatch):
    # a witness that breaks a Delsarte row must not become a bound, at a
    # single radius or at a radius inside a sweep
    sweep = bounds_module.solve_sweep

    def bogus_at(stage):
        def solve(lp, stages):
            for n, result in enumerate(sweep(lp, stages)):
                if n == stage:
                    solution = [Fraction(0)] * len(result.solution)
                    solution[-1] = Fraction(10**6)
                    result = LpResult(status="optimal", value=sum(solution), solution=solution)
                yield result

        return solve

    monkeypatch.setattr(bounds_module, "solve_sweep", bogus_at(0))
    with pytest.raises(DefectError, match="Delsarte"):
        lp_bound_detail(SP2, 3)
    monkeypatch.setattr(bounds_module, "solve_sweep", bogus_at(2))  # t = 4 of 6..3
    with pytest.raises(DefectError, match="Delsarte"):
        build_bound_table(SP2, 3, 6)


@pytest.mark.parametrize("space", (SP2, SP7), ids=("q2", "q7"))
def test_radius_zero_is_certified_without_pivots(monkeypatch, space):
    def no_pivot(*args):
        raise AssertionError("the simplex pivoted at t = 0")

    monkeypatch.setattr(ratlp_module, "_pivot", no_pivot)
    assert lp_bound_detail(space, 0) == (space.n, space.q**space.n)


def test_radius_zero_witness_is_checked(monkeypatch):
    # one profile miscounted: the whole-space enumerator no longer sums to
    # the dual's value, so the certificate must refuse it
    count = WeightedSpace.profile_count

    def miscounted(self, profile):
        return count(self, profile) + (tuple(profile) == (1, 0))

    monkeypatch.setattr(WeightedSpace, "profile_count", miscounted)
    with pytest.raises(DefectError):
        lp_bound_detail(SP2, 0)


def test_bound_table_checks_the_radius_range_before_solving(monkeypatch):
    def no_lp(*args):
        raise AssertionError("the LP ran before the range was checked")

    monkeypatch.setattr(bounds_module, "solve_sweep", no_lp)
    with pytest.raises(ParameterError):
        build_bound_table(SP2, -1, 10)


def test_bound_table_past_the_largest_weight_has_no_free_entry():
    sp = WeightedSpace(2, (3, 3), (1, 2))
    table = build_bound_table(sp, sp.max_weight + 1, sp.max_weight + 3)
    assert [(r.lp, r.lp_optimum) for r in table.rows] == [(0, 1)] * 3


@st.composite
def small_spaces(draw):
    m = draw(st.integers(2, 3))
    blocks = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    scales = sorted(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    return WeightedSpace(draw(st.sampled_from((2, 3, 5))), blocks, scales)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(small_spaces())
def test_sweep_optima_equal_single_radius_optima(space):
    table = build_bound_table(space, 0, space.max_weight)
    for row in table.rows:
        assert row.lp_optimum == lp_bound_detail(space, row.t)[1], row.t


def test_three_block_table_sweeps_lazily():
    # Carrying all 511 columns of (7,7,7) through every pivot took minutes
    # per radius; unlocking them lazily keeps the sweep to seconds.
    space = WeightedSpace(2, (7, 7, 7), (1, 2, 3))
    start = time.perf_counter()
    table = build_bound_table(space, 13, 16)
    elapsed = time.perf_counter() - start
    optima = [Fraction(56, 13), Fraction(60, 17), Fraction(64, 21), Fraction(68, 25)]
    assert [r.lp_optimum for r in table.rows] == optima
    assert elapsed < 60, f"{elapsed:.1f} s"
