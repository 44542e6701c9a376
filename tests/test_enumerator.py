"""The split weight enumerator against a brute-force reference.

The reference streams every codeword as a tuple and counts per-block
nonzero coordinates directly, so it shares nothing with the packed
Gray-code scan or with the Krawtchouk coefficients the enumerator uses
when it scans the dual instead.
"""

from collections import Counter
from itertools import product
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import F2, F3, F7, vec_dot
from whmetric import enumerator
from whmetric.code import (
    Limits,
    LinearCode,
    PolyalphabeticCode,
    named_code,
    split_weight_enumerator,
)
from whmetric.errors import DefectError, ExhaustionError, ParameterError
from whmetric.field import make_extension_field, make_prime_field
from whmetric.metric import WeightedSpace
from whmetric.oracle import block_weight_enumerator, exact_capability, exact_min_weighted_distance

F4 = make_extension_field(2, 2)
F5 = make_prime_field(5)
F8 = make_extension_field(2, 3)
F9 = make_extension_field(3, 2)

# Longest code per field order whose brute-force scan stays small.
MAX_LENGTH = {2: 12, 3: 8, 4: 6, 5: 5, 7: 4}
# Largest dimension per field order for the packed scan's property.
MAX_DIMENSION = {2: 10, 3: 6, 4: 5, 5: 4, 7: 3, 8: 3, 9: 3}


def brute_force_enumerator(code, blocks):
    counts = {}
    for c in code.codewords():
        profile, start = [], 0
        for b in blocks:
            profile.append(sum(1 for x in c[start : start + b] if x != 0))
            start += b
        profile = tuple(profile)
        counts[profile] = counts.get(profile, 0) + 1
    return counts


@st.composite
def codes_and_blocks(draw):
    """A full-rank [n, k] code, [I | A] with its columns permuted, and a
    split of its length into up to three blocks.  Lengths start at half
    the maximum, where high-rate codes are counted from their duals; the
    examples below cover the shortest codes."""
    field = draw(st.sampled_from((F2, F3, F5, F7, F4)))
    top = MAX_LENGTH[field.order]
    n = draw(st.integers(top // 2, top))
    k = n - draw(st.integers(0, n - 1))
    entry = st.integers(0, field.order - 1)
    rows = [
        [int(i == j) for j in range(k)] + draw(st.lists(entry, min_size=n - k, max_size=n - k))
        for i in range(k)
    ]
    order = draw(st.permutations(range(n)))
    rows = [[row[c] for c in order] for row in rows]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    blocks = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return LinearCode(field, rows), blocks


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _parity(field, n):
    return [[int(i == j) if j < n - 1 else field.neg(1) for j in range(n)] for i in range(n - 1)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(codes_and_blocks())
@example((LinearCode(F2, _identity(6)), (3, 3)))  # k = n, the dual is {0}
@example((LinearCode(F7, _identity(3)), (1, 2)))
@example((LinearCode(F2, _parity(F2, 9)), (4, 5)))  # k = n - 1
@example((LinearCode(F5, _parity(F5, 5)), (2, 3)))
@example((LinearCode(F3, [[1, 1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 2, 0, 1]]), (3, 4)))  # low rate
@example((named_code("reed_solomon", F4, 4, 3), (2, 2)))  # over GF(4)
def test_enumerator_matches_brute_force(case):
    code, blocks = case
    assert split_weight_enumerator(code, blocks) == brute_force_enumerator(code, blocks)


def test_polyalphabetic_with_a_zero_width_symbol():
    rows = [
        (1, 0, 1, 1, 0),
        (0, 1, 2, 0, 1),
        (1, 1, 0, 2, 2),
        (0, 0, 1, 1, 1),
    ]
    poly = PolyalphabeticCode(F3, (2, 0, 3), rows)
    profiles = split_weight_enumerator(poly, poly.sizes)
    assert profiles == brute_force_enumerator(poly, poly.sizes)
    assert all(p[1] == 0 for p in profiles)
    fewest = min(sum(1 for w in p if w) for p in brute_force_enumerator(poly, poly.sizes) if any(p))
    assert poly.min_block_distance() == fewest


@st.composite
def spans_and_blocks(draw):
    """Rows over a field, a split of their length into up to four blocks,
    zero-width blocks included, and the linear or polyalphabetic code
    they generate, whose symbols are those blocks."""
    field = draw(st.sampled_from((F2, F3, F5, F7, F4, F8, F9)))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, MAX_DIMENSION[field.order])))
    entry = st.integers(0, field.order - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if not any(map(any, rows)):
        rows[0][0] = 1
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    blocks = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    if draw(st.booleans()):
        return PolyalphabeticCode(field, blocks, rows), blocks
    return LinearCode(field, rows), blocks


def _double_circulant(k, first):
    """The binary [2k, k] code [I | C] for C the circulant of ``first``."""
    return LinearCode(
        F2,
        [[int(i == j) for j in range(k)] + first[-i:] + first[:-i] for i in range(k)],
    )


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(spans_and_blocks())
@example((PolyalphabeticCode(F3, (2, 0, 3), [(1, 0, 1, 1, 0), (0, 1, 2, 0, 1)]), (2, 0, 3)))
@example((LinearCode(F9, [(1, 2, 3, 4), (0, 1, 5, 8)]), (0, 4, 0)))
@example((LinearCode(F8, [(1, 7, 3, 5, 0)]), (5,)))
@example((_double_circulant(14, [1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0]), (7, 7, 7, 7)))
@example(
    (
        LinearCode(F3, [[int(i == j) for j in range(8)] + [i % 3, (i * i + 1) % 3] for i in range(8)]),
        (0, 5, 5),
    )
)
def test_packed_scan_matches_brute_force(case):
    code, blocks = case
    packed = enumerator._packed_counts(code.field, code.generator, blocks)
    assert packed == brute_force_enumerator(code, blocks)


@pytest.mark.parametrize("p, k", [(2, 14), (3, 9), (5, 6), (7, 5), (7, 1), (7, 0)])
def test_gray_steps_are_p_adic_valuations(p, k):
    # past 4096 words the low digits' run repeats between the high steps
    def valuation(t):
        return 0 if t % p else 1 + valuation(t // p)

    assert list(enumerator._gray_steps(p, k)) == [valuation(t) for t in range(1, p**k)]


def _count_scanned(monkeypatch):
    """Record the rows and the number of words of each packed scan."""
    scans = []
    original = enumerator._packed_counts

    def counting(field, rows, blocks):
        counts = original(field, rows, blocks)
        scans.append((list(rows), sum(counts.values())))
        return counts

    monkeypatch.setattr(enumerator, "_packed_counts", counting)
    return scans


def test_high_rate_code_is_counted_from_its_dual(monkeypatch):
    ham = named_code("hamming", F2, 15, 11)
    space = WeightedSpace(2, (7, 8), (1, 2))
    expected = brute_force_enumerator(ham, space.blocks)
    scans = _count_scanned(monkeypatch)
    assert block_weight_enumerator(ham, space) == expected
    [(rows, words)] = scans
    assert words == 16  # the [15, 4] dual, against 2048 codewords
    assert all(vec_dot(F2, g, h) == 0 for g in ham.generator for h in rows)


def test_low_rate_code_is_scanned_directly(monkeypatch):
    rep = named_code("repetition", F3, 6, 1)
    scans = _count_scanned(monkeypatch)
    assert split_weight_enumerator(rep, (2, 4)) == {(0, 0): 1, (2, 4): 2}
    assert scans == [(list(rep.generator), 3)]


def _tamper_dual_scan(monkeypatch, tamper):
    original = enumerator._packed_counts
    monkeypatch.setattr(enumerator, "_packed_counts", lambda *args: tamper(original(*args)))


def test_a_dual_scan_with_a_word_too_many_is_a_defect(monkeypatch):
    ham = named_code("hamming", F3, 13, 10)
    _tamper_dual_scan(monkeypatch, lambda counts: counts + Counter({(0, 0): 1}))
    with pytest.raises(DefectError):
        split_weight_enumerator(ham, (6, 7))


def test_a_dual_scan_with_a_wrong_word_is_a_defect(monkeypatch):
    # the totals still match: one nonzero word swapped for a unit vector
    ham = named_code("hamming", F3, 13, 10)
    swap = Counter({(1, 0): 1})

    def tamper(counts):
        return counts - Counter({max(counts): 1}) + swap

    _tamper_dual_scan(monkeypatch, tamper)
    with pytest.raises(DefectError, match="MacWilliams transform gives"):
        split_weight_enumerator(ham, (6, 7))


def test_admission_counts_the_code_not_the_scanned_side():
    ham = named_code("hamming", F2, 15, 11)  # 2^11 codewords, a 16-word dual
    space = WeightedSpace(2, (7, 8), (1, 2))
    small = Limits(max_codewords=1000)
    with pytest.raises(ExhaustionError):
        ham.min_distance(small)
    with pytest.raises(ExhaustionError):
        exact_min_weighted_distance(ham, space, small)
    with pytest.raises(ExhaustionError):
        exact_capability(ham, space, small)
    assert ham.min_distance(Limits(max_codewords=2048)) == 3


def test_blocks_must_cover_the_code():
    with pytest.raises(ParameterError):
        split_weight_enumerator(named_code("hamming", F2, 7, 4), (3, 3))


# Longest code per field order whose code and dual both stay small to scan.
MAX_TRANSFORM_LENGTH = {2: 10, 3: 6, 4: 5, 5: 4, 9: 3}


def _dual_counts(code, blocks):
    """The dual's profile counts, by brute force over a basis of the dual."""
    if not code.parity_rows:  # k = n: the dual is {0}
        return {(0,) * len(blocks): 1}
    return brute_force_enumerator(LinearCode(code.field, code.parity_rows), blocks)


@st.composite
def codes_for_the_transform(draw):
    """A code over F2, F3, F5, GF(4) or GF(9), of any rate, and a split of
    its length into up to four blocks, zero-width blocks included; with
    no cut it is one block."""
    field = draw(st.sampled_from((F2, F3, F5, F4, F9)))
    n = draw(st.integers(1, MAX_TRANSFORM_LENGTH[field.order]))
    k = draw(st.integers(1, n))
    entry = st.integers(0, field.order - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    if not any(map(any, rows)):
        rows[0][0] = 1
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    blocks = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return LinearCode(field, rows), blocks


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(codes_for_the_transform())
@example((LinearCode(F2, [(1, 0, 1, 1, 0, 1, 1)]), (7,)))  # one block
@example((LinearCode(F9, [(1, 2, 3), (0, 1, 5)]), (0, 3, 0)))  # zero-width blocks
@example((LinearCode(F5, [(1, 2, 3, 4)]), (0, 0, 4)))
@example((LinearCode(F4, _identity(4)), (1, 0, 3)))  # k = n, the dual is {0}
@example((LinearCode(F3, _parity(F3, 6)), (2, 2, 2)))  # k = n - 1
def test_packed_transform_matches_brute_force(case):
    code, blocks = case
    q = code.field.order
    dual = _dual_counts(code, blocks)
    counts = enumerator._macwilliams(q, blocks, dual, q ** (code.n - code.k), q**code.k)
    assert counts == brute_force_enumerator(code, blocks)
    assert list(counts) == sorted(counts)


def _reference_krawtchouk(q, b, j, i):
    """K_j(i) for length b over F_q: the coefficient of z^j in
    (1 + (q - 1) z)^(b - i) (1 - z)^i."""
    return sum(
        (-1) ** s * comb(i, s) * comb(b - i, j - s) * (q - 1) ** (j - s)
        for s in range(min(i, j) + 1)
    )


def test_transform_with_lanes_past_eight_bytes():
    # a [24, 22] code over F7, the dual of two checks: its largest count
    # times the 49 dual words passes 2^63, so each lane takes two 8-byte
    # words (a [23, 21] code's would still fit in one)
    blocks = (12, 12)
    checks = LinearCode(F7, [[1] * 24, [i % 7 for i in range(24)]])
    dual = brute_force_enumerator(checks, blocks)
    assert sum(dual.values()) == 49
    expected = {}
    for j in product(range(13), range(13)):
        acc = sum(
            count * prod(_reference_krawtchouk(7, b, jl, il) for b, jl, il in zip(blocks, j, i))
            for i, count in dual.items()
        )
        a, rest = divmod(acc, 49)
        assert rest == 0
        if a:
            expected[j] = a
    assert max(expected.values()) * 49 >= 2**63
    counts = enumerator._macwilliams(7, blocks, dual, 49, 7**22)
    assert counts == expected
    assert sum(counts.values()) == 7**22
    nonzero = max(p for p in dual if any(p))
    swapped = dict(dual)
    swapped[nonzero] -= 1
    swapped[(1, 0)] = swapped.get((1, 0), 0) + 1
    with pytest.raises(DefectError, match="MacWilliams transform gives"):
        enumerator._macwilliams(7, blocks, swapped, 49, 7**22)
