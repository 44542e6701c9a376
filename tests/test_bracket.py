"""The capability bracket's early stops against their unpruned references.

A profile of weighted weight w has capability between floor((w - 1) / 2)
and w - 1.  ``exact_capability``, ``GccCode``'s capability floor and
``diff_ball_profiles`` use that bracket to skip the dynamic program; the
references here run it on every profile.  The dual scan reads the
code's cached parity rows, so it makes no field arithmetic of its own.
"""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F2,
    F3,
    F7,
    hamming_concatenation,
    mixed_code_from_parity_mother,
    three_block_code,
    two_block_code,
    two_level_code,
)
from whmetric.code import (
    LinearCode,
    PolyalphabeticCode,
    identity_rows,
    kernel_basis,
    named_code,
    split_weight_enumerator,
)
from whmetric.construct import outer_code, permute_symbols
from whmetric.field import Field
from whmetric.metric import WeightedSpace
from whmetric.oracle import block_weight_enumerator, exact_capability, exact_min_weighted_distance

# Longest code and largest dimension per field order for a small scan.
MAX_LENGTH = {2: 10, 3: 7, 7: 5}
MAX_DIMENSION = {2: 8, 3: 5, 7: 3}


@st.composite
def spaces(draw, q, n):
    """A split of length n into up to three blocks, with sorted scales."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    blocks = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    scales = sorted(draw(st.lists(st.integers(1, 4), min_size=len(blocks), max_size=len(blocks))))
    return WeightedSpace(q, blocks, scales)


@st.composite
def codes_in_spaces(draw):
    field = draw(st.sampled_from((F2, F3, F7)))
    n = draw(st.integers(1, MAX_LENGTH[field.order]))
    k = draw(st.integers(1, min(n, MAX_DIMENSION[field.order])))
    entry = st.integers(0, field.order - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if not any(map(any, rows)):
        rows[0][0] = 1
    return LinearCode(field, rows), draw(spaces(field.order, n))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(codes_in_spaces())
def test_exact_values_equal_the_unpruned_minima(case):
    code, space = case
    nonzero = [p for p in block_weight_enumerator(code, space) if any(p)]
    assert exact_min_weighted_distance(code, space) == min(map(space.weighted_weight, nonzero))
    assert exact_capability(code, space) == min(map(space.profile_capability, nonzero))


@st.composite
def small_spaces(draw):
    return draw(spaces(draw(st.sampled_from((2, 3, 7))), draw(st.integers(1, 8))))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(small_spaces())
def test_diff_ball_equals_the_capability_filter(space):
    profiles = list(product(*(range(b + 1) for b in space.blocks)))
    for t in range(space.max_weight + 2):
        expected = [p for p in profiles if space.profile_capability(p) <= t - 1]
        assert space.diff_ball_profiles(t) == expected


@pytest.mark.parametrize(
    "build", [three_block_code, two_block_code, two_level_code, hamming_concatenation]
)
def test_capability_floor_equals_the_unpruned_minimum(build):
    space, gcc = build()
    unpruned = min(
        space.profile_capability(
            [gcc.inner_distances[j][l] if l in support else 0 for l in range(space.m)]
        )
        for j in range(gcc.levels)
        for support in combinations(range(space.m), gcc.outer_distances[j])
    )
    assert gcc.capability_floor == unpruned


def test_exact_capability_runs_the_dynamic_program_once(monkeypatch):
    space, gcc = three_block_code()
    code = gcc.as_linear_code()
    calls = []
    original = WeightedSpace.profile_capability

    def counted(self, profile):
        calls.append(profile)
        return original(self, profile)

    monkeypatch.setattr(WeightedSpace, "profile_capability", counted)
    assert exact_capability(code, space) == 2
    assert len(calls) == 1


def test_dual_scan_does_no_elimination(monkeypatch):
    ham = named_code("hamming", F2, 15, 11)  # the [15, 4] dual is scanned
    ops = {"mul": 0, "sub": 0}
    for name in ops:
        original = getattr(Field, name)

        def counted(self, a, b, name=name, original=original):
            ops[name] += 1
            return original(self, a, b)

        monkeypatch.setattr(Field, name, counted)
    counts = split_weight_enumerator(ham, (7, 8))
    assert sum(counts.values()) == 2**11
    assert ops == {"mul": 0, "sub": 0}


@pytest.mark.parametrize(
    "build",
    [
        lambda: mixed_code_from_parity_mother(2),
        lambda: mixed_code_from_parity_mother(3),
        lambda: permute_symbols(mixed_code_from_parity_mother(2), [2, 0, 1]),
        lambda: outer_code(F2, (1, 3)),
        lambda: outer_code(F3, (2, 2, 3), "reed_solomon", 2),
    ],
)
def test_derived_outer_codes_keep_their_rows(build):
    poly = build()
    reduced = PolyalphabeticCode(poly.field, poly.sizes, poly.generator)
    assert (poly.k, poly.generator) == (reduced.k, reduced.generator)


def _certify_codes():
    """The benchmark's three certify codes and their spaces."""
    _, hc = hamming_concatenation()
    return [
        (hc.as_linear_code(), hc.space),
        (named_code("hamming", F7, 8, 6), WeightedSpace(7, (4, 4), (1, 2))),
        (named_code("hamming", F3, 13, 10), WeightedSpace(3, (6, 7), (1, 2))),
    ]


def _sorted_walk(space, counts):
    """The profiles the bracket walk over the enumerator's nonzero
    profiles, sorted by (weighted weight, profile), runs the program on."""
    ran, best = [], None
    for w, p in sorted((space.weighted_weight(p), p) for p in counts if any(p)):
        if best is not None and (w - 1) // 2 >= best:
            break
        ran.append(p)
        cap = space.profile_capability(p)
        best = cap if best is None else min(best, cap)
    return ran


@pytest.mark.parametrize("index", range(3))
def test_capability_runs_the_program_on_the_sorted_walks_profiles(monkeypatch, index):
    code, space = _certify_codes()[index]
    expected = _sorted_walk(space, split_weight_enumerator(code, space.blocks))
    calls = []
    original = WeightedSpace.profile_capability

    def counted(self, profile):
        calls.append(profile)
        return original(self, profile)

    monkeypatch.setattr(WeightedSpace, "profile_capability", counted)
    exact_capability(code, space)
    assert calls == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda: mixed_code_from_parity_mother(2),
        lambda: mixed_code_from_parity_mother(3),
        lambda: outer_code(F3, (1, 2, 2), "reed_solomon", 2),
    ],
)
def test_systematic_polyalphabetic_dual_is_read_off(monkeypatch, build):
    poly = build()
    assert all(row[: poly.k] == unit for row, unit in zip(poly.generator, identity_rows(poly.k)))
    expected = kernel_basis(poly.field, poly.generator, poly.n)
    ops = {"mul": 0, "sub": 0}
    for name in ops:
        original = getattr(Field, name)

        def counted(self, a, b, name=name, original=original):
            ops[name] += 1
            return original(self, a, b)

        monkeypatch.setattr(Field, name, counted)
    assert list(poly.parity_rows) == expected
    assert ops == {"mul": 0, "sub": 0}


def test_permuted_polyalphabetic_dual_is_reduced_first():
    poly = permute_symbols(mixed_code_from_parity_mother(2), [2, 0, 1])
    assert tuple(row[: poly.k] for row in poly.generator) != identity_rows(poly.k)
    assert list(poly.parity_rows) == kernel_basis(poly.field, poly.generator, poly.n)

