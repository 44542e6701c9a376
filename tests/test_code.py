import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F2,
    F3,
    F7,
    RAISED_LIMITS,
    hamming_31_under_raised_limits,
    hamming_weight,
    message_codeword_pairs,
)
from whmetric.code import (
    FAIL,
    SYNDROME_TABLE_LIMIT,
    Limits,
    LinearCode,
    NestedChain,
    PolyalphabeticCode,
    format_matrix,
    hamming_distance,
    named_code,
    parse_matrix_text,
    vec_add,
)
from whmetric.construct import outer_code
from whmetric.errors import ExhaustionError, ParameterError
from whmetric.field import make_extension_field

GF4 = make_extension_field(2, 2)


def brute_force_distance(code):
    return min(
        hamming_weight(c)
        for m, c in message_codeword_pairs(code)
        if any(m)
    )


def test_make_code_basics():
    rep = LinearCode(F2, [(1, 1, 1)])
    assert (rep.n, rep.k) == (3, 1)
    dup = LinearCode(F2, [(1, 1, 1), (1, 1, 1)])
    assert dup.k == 1
    with pytest.raises(ParameterError):
        LinearCode(F2, [])
    with pytest.raises(ParameterError):
        LinearCode(F2, [(0, 0, 0)])
    with pytest.raises(ParameterError, match="^first argument must be a Field$"):
        LinearCode(2, [(1, 1)])
    with pytest.raises(ParameterError, match="^first argument must be a Field$"):
        PolyalphabeticCode(2, (1, 1), [(1, 1)])


@pytest.mark.parametrize("field", [F2, make_extension_field(2, 9)])  # tables, and none
@pytest.mark.parametrize("bad", [-1, "q", 1.5, "1"])
def test_generator_symbols_outside_the_field_are_refused(field, bad):
    # the first bad entry in row order is named, past a later one of another kind
    bad = field.order if bad == "q" else bad
    rows = [(1, 0, 1), (0, 1, bad), (-7, 0, 0)]
    message = re.escape(f"{bad!r} is not an element of {field}")
    with pytest.raises(ParameterError, match=f"^{message}$"):
        LinearCode(field, rows)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        PolyalphabeticCode(field, (1, 2), rows)


def test_vandermonde_code_distance():
    rows = [tuple(F7.pow(p, j) for p in (1, 2, 3, 4, 5, 6)) for j in range(3)]
    code = LinearCode(F7, rows)
    assert (code.n, code.k) == (6, 3)
    assert code.min_distance() == brute_force_distance(code) == 4


def test_named_families():
    assert named_code("repetition", F2, 3, 1).min_distance() == 3
    assert named_code("parity", F2, 3, 2).min_distance() == 2
    assert named_code("reed_solomon", F7, 6, 3).min_distance() == 4
    ham = named_code("hamming", F2, 7, 4)
    assert (ham.n, ham.k, ham.min_distance()) == (7, 4, 3)
    full = named_code("full", F2, 4, 4)
    assert full.min_distance() == 1
    with pytest.raises(ParameterError):
        named_code("reed_solomon", F7, 8, 3)  # n > field order
    with pytest.raises(ParameterError):
        named_code("repetition", F2, 3, 2)
    with pytest.raises(ParameterError):
        named_code("custom", F2, 3, 1)
    with pytest.raises(ParameterError):
        named_code("turbo", F2, 3, 1)
    # every family but Reed-Solomon fixes its dimension by the length
    dims = {fam: named_code(fam, F3, 13).k for fam in ("repetition", "parity", "full", "hamming")}
    assert dims == {"repetition": 1, "parity": 12, "full": 13, "hamming": 10}
    with pytest.raises(ParameterError):
        named_code("reed_solomon", F7, 6)
    with pytest.raises(ParameterError):
        named_code("hamming", F2, 6)


def test_min_distance_examples():
    code = LinearCode(F2, [(1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0)])
    assert code.min_distance() == 3
    weights = sorted(
        hamming_weight(c) for m, c in message_codeword_pairs(code) if any(m)
    )
    assert weights == [3, 3, 6]


def test_min_distance_exhaustion_refusal():
    code = named_code("full", F2, 8, 8)
    with pytest.raises(ExhaustionError):
        code.min_distance(Limits(max_codewords=100))


def test_distances_readmit_their_limits_after_a_scan():
    # the enumerator is kept on the code, but each call checks its own
    # limits: a tighter one still refuses after a successful call
    ham = named_code("hamming", F2, 15, 11)  # 2^11 codewords
    poly = PolyalphabeticCode(F2, (1,) * 15, ham.generator)
    tight, loose = Limits(max_codewords=1000), Limits(max_codewords=2048)
    assert ham.min_distance() == poly.min_block_distance() == 3
    with pytest.raises(ExhaustionError):
        ham.min_distance(tight)
    with pytest.raises(ExhaustionError):
        poly.min_block_distance(tight)
    assert ham.min_distance(loose) == poly.min_block_distance(loose) == 3


def test_parity_check_consistency():
    for code in (named_code("hamming", F2, 7, 4), named_code("reed_solomon", F7, 6, 3)):
        for row in code.generator:
            assert code.syndrome(row) == (0,) * (code.n - code.k)
        assert code.contains(code.encode((1,) * code.k))


def test_bmd_examples():
    rep = named_code("repetition", F2, 3, 1)
    assert rep.bmd_decode((1, 0, 1)) == (1, 1, 1)
    assert rep.bmd_decode((1, 1, 1)) == (1, 1, 1)
    rep3 = named_code("repetition", F3, 3, 1)
    assert rep3.bmd_decode((1, 2, 0)) is FAIL
    full = named_code("full", F2, 3, 3)
    assert full.bmd_decode((1, 0, 1)) == (1, 0, 1)  # radius 0, always itself


@pytest.mark.parametrize(
    "make, tabled",
    (
        (lambda: named_code("hamming", F2, 7), True),
        (lambda: named_code("hamming", F7, 8), True),
        (lambda: named_code("repetition", F2, 22), False),  # 2^21 syndromes
        (lambda: named_code("repetition", F3, 14), False),  # 3^13 syndromes
        (hamming_31_under_raised_limits, True),
    ),
    ids=("hamming-7", "hamming-8-q7", "repetition-22", "repetition-14-q3", "hamming-31-limits"),
)
def test_bmd_decode_gives_the_same_codeword_cold_and_warm(make, tabled):
    code = make()
    q, n = code.field.order, code.n
    assert (q ** (n - code.k) <= SYNDROME_TABLE_LIMIT) == tabled
    radius = (code.min_distance(RAISED_LIMITS) - 1) // 2
    rng = random.Random(n)
    for errors in (0, 1, radius, radius + 1, n // 2):
        sent = code.encode([rng.randrange(q) for _ in range(code.k)])
        received = list(sent)
        for p in rng.sample(range(n), errors):
            received[p] = code.field.add(received[p], rng.randrange(1, q))
        received = tuple(received)
        fresh = make()
        cold = fresh.bmd_decode(received)
        assert (fresh._syndrome_table is not None) == tabled
        assert fresh.bmd_decode(received) == cold  # warm
        assert code.bmd_decode(received) == cold  # warm, after other words
        assert code.bmd_decode(list(received)) == cold  # a tuple back for a list
        if errors <= radius:
            assert cold == sent
        else:
            assert cold is FAIL or (code.contains(cold) and hamming_distance(cold, received) <= radius)


def test_default_limits_refuse_to_decode_past_them_until_a_distance_is_reduced():
    code = named_code("hamming", F2, 31)
    with pytest.raises(ExhaustionError):
        code.bmd_decode((0,) * 31)
    assert code.min_distance(RAISED_LIMITS) == 3
    assert code.bmd_decode((1,) + (0,) * 30) == (0,) * 31


def test_bmd_round_trip_within_radius():
    codes = [
        named_code("repetition", F2, 5, 1),
        named_code("hamming", F2, 7, 4),
        named_code("repetition", F3, 4, 1),
        LinearCode(F2, [(1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0)]),
    ]
    for code in codes:
        radius = (code.min_distance() - 1) // 2
        for _, c in message_codeword_pairs(code):
            for positions in _supports(code.n, radius):
                for values in product(range(1, code.field.order), repeat=len(positions)):
                    e = list(c)
                    for p, val in zip(positions, values):
                        e[p] = code.field.add(e[p], val)
                    assert code.bmd_decode(tuple(e)) == c


def _supports(n, radius):
    from itertools import combinations

    for w in range(radius + 1):
        yield from combinations(range(n), w)


def test_syndrome_table_agrees_with_brute_force_scan():
    codes = [
        LinearCode(F2, [(1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 0), (1, 0, 0, 0, 1, 1)]),
        named_code("hamming", F2, 7, 4),
        named_code("parity", F2, 4, 3),
    ]
    for code in codes:
        radius = (code.min_distance() - 1) // 2
        words = list(code.codewords())
        for r in product(range(2), repeat=code.n):
            table_result = code.bmd_decode(r)
            dists = sorted(hamming_distance(r, c) for c in words)
            if dists[0] <= radius:
                expected = min(words, key=lambda c: hamming_distance(r, c))
            else:
                expected = FAIL
            assert table_result == expected


def test_erasure_decode_examples():
    par = named_code("parity", F2, 3, 2)
    assert par.erasure_decode((1, 0, 0), {2}) == (1, 0, 1)
    rep = named_code("repetition", F2, 3, 1)
    assert rep.erasure_decode((1, 0, 0), {1}) is FAIL
    # zero erasures behaves like bounded-distance decoding
    for r in product(range(2), repeat=3):
        assert rep.erasure_decode(r, set()) == rep.bmd_decode(r)


@pytest.mark.parametrize("erased", ({7}, {-1}, {0.5}, {1, 2.0}, {"3"}), ids=repr)
def test_erasure_decode_refuses_positions_out_of_range_or_not_integers(erased):
    hamming = named_code("hamming", F2, 7, 4)
    outer = PolyalphabeticCode(F2, (1, 2, 4), [(1, 1, 1, 1, 1, 1, 1)])  # three symbols
    for code in (hamming, outer):
        with pytest.raises(ParameterError, match="erased symbol positions"):
            code.erasure_decode((1, 0, 0, 0, 0, 0, 0), erased)
    assert hamming.erasure_decode((1, 0, 0, 0, 0, 0, 0), {0}) == (0,) * 7


def test_erasure_decode_contract_exhaustive():
    from itertools import combinations

    code = named_code("hamming", F2, 7, 4)
    d = code.min_distance()
    for _, c in message_codeword_pairs(code):
        for s in range(d):
            for erased in combinations(range(7), s):
                e_budget = (d - 1 - s) // 2
                for positions in _supports(7, e_budget):
                    if any(p in erased for p in positions):
                        continue
                    r = list(c)
                    for p in positions:
                        r[p] ^= 1
                    assert code.erasure_decode(tuple(r), erased) == c


def test_chain_construction_and_quotients():
    full3 = named_code("full", F2, 3, 3)
    rep3 = named_code("repetition", F2, 3, 1)
    chain = NestedChain([full3, rep3])
    assert chain.widths == (2, 1)
    # level-0 representatives span a complement of the repetition code
    span = set()
    for a in product(range(2), repeat=2):
        span.add(chain.quotient_encode(0, a))
    assert len(span) == 4
    assert all(hamming_weight(v) != 3 or v == (1, 1, 1) for v in span) or (1, 1, 1) not in span


def test_chain_round_trip_exhaustive():
    full3 = named_code("full", F2, 3, 3)
    rep3 = named_code("repetition", F2, 3, 1)
    chain = NestedChain([full3, rep3])
    for a in product(range(2), repeat=2):
        for b2 in ((0, 0, 0), (1, 1, 1)):
            v = tuple(x ^ y for x, y in zip(chain.quotient_encode(0, a), b2))
            assert chain.quotient_message(0, v) == a
    # level 1: quotient of the repetition code by {0}
    for a in ((0,), (1,)):
        assert chain.quotient_message(1, chain.quotient_encode(1, a)) == a


def test_chain_two_levels_from_explicit_codes():
    b1 = LinearCode(F2, [(1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0)])
    b2 = LinearCode(F2, [(1, 1, 1, 1, 1, 1)])
    chain = NestedChain([b1, b2])
    assert chain.widths == (1, 1)
    rep = chain.quotient_encode(0, (1,))
    assert rep in {(1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)}
    for b in (rep, tuple(x ^ 1 for x in rep)):
        assert chain.quotient_message(0, b) == (1,)
    with pytest.raises(ParameterError):
        chain.quotient_message(0, (1, 0, 0, 0, 0, 0))


def test_chain_partitions_into_cosets():
    b1 = LinearCode(F2, [(1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0)])
    b2 = LinearCode(F2, [(1, 1, 1, 1, 1, 1)])
    chain = NestedChain([b1, b2])
    seen = set()
    for a in product(range(2), repeat=1):
        for msg2 in product(range(2), repeat=1):
            sub = b2.encode(msg2)
            v = tuple(x ^ y for x, y in zip(chain.quotient_encode(0, a), sub))
            seen.add(v)
    assert seen == set(b1.codewords())


def test_chain_nesting_violation_names_level():
    rep = named_code("repetition", F2, 3, 1)
    par = named_code("parity", F2, 3, 2)
    with pytest.raises(ParameterError, match="level 2"):
        NestedChain([rep, par])


def test_single_level_chain():
    rep = named_code("repetition", F2, 3, 1)
    chain = NestedChain([rep])
    assert chain.widths == (1,)
    assert chain.quotient_rows[0] == ((1, 1, 1),)


def test_polyalphabetic_basics():
    outer = outer_code(F2, (1, 3))
    assert outer.k == 4
    assert outer.min_block_distance() == 1
    zero_width = PolyalphabeticCode(F2, (0, 2), [(1, 0), (0, 1)])
    assert zero_width.min_block_distance() == 1
    sizes_one = PolyalphabeticCode(F2, (1, 1, 1), [(1, 1, 1), (1, 1, 0)])
    plain = LinearCode(F2, [(1, 1, 1), (1, 1, 0)])
    assert sizes_one.min_block_distance() == plain.min_distance()


def test_polyalphabetic_erasure_decode():
    outer = PolyalphabeticCode(F2, (1, 2), [(1, 1, 1)])  # distance 2
    assert outer.min_block_distance() == 2
    assert outer.erasure_decode((1, 1, 1), set()) == (1, 1, 1)
    assert outer.erasure_decode((0, 1, 1), {0}) == (1, 1, 1)
    assert outer.erasure_decode((1, 0, 0), {1}) == (1, 1, 1)
    assert outer.erasure_decode((0, 0, 1), set()) is FAIL


@st.composite
def _unit_symbol_cases(draw):
    """A field, up to 5 generator rows of length n <= 8, and up to 3
    messages, each with an error on at most 2 coordinates."""
    field = draw(st.sampled_from((F2, F3, GF4)))
    n = draw(st.integers(1, 8))
    symbol = st.integers(0, field.order - 1)
    vector = st.lists(symbol, min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(vector, min_size=1, max_size=min(n, 5)).filter(lambda r: any(map(any, r))))
    messages = draw(st.lists(st.lists(symbol, min_size=len(rows), max_size=len(rows)), max_size=3))
    error = st.dictionaries(st.integers(0, n - 1), st.integers(1, field.order - 1), max_size=2)
    errors = draw(st.lists(error, min_size=len(messages), max_size=len(messages)))
    return field, rows, messages, [tuple(e.get(i, 0) for i in range(n)) for e in errors]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(_unit_symbol_cases())
def test_a_linear_code_is_the_unit_symbol_polyalphabetic_code(case):
    field, rows, messages, errors = case
    code = LinearCode(field, rows)
    poly = PolyalphabeticCode(field, (1,) * code.n, rows)
    assert isinstance(code, PolyalphabeticCode)
    assert (code.n, code.k, code.generator) == (poly.n, poly.k, poly.generator)
    assert code.parity_rows == poly.parity_rows
    assert list(code.codewords()) == list(poly.codewords())
    assert code.min_distance() == poly.min_block_distance() == code.min_block_distance()
    # dependent rows leave k below the number of rows; a message is cut to k
    for message, error in zip(messages, errors):
        codeword = code.encode(message[: code.k])
        assert codeword == poly.encode(message[: code.k])
        word = vec_add(field, codeword, error)
        for s in range(code.n + 1):
            for erased in combinations(range(code.n), s):
                assert code.erasure_decode(word, erased) == poly.erasure_decode(word, erased)


def test_matrix_text_round_trip(tmp_path):
    code = named_code("hamming", F2, 7, 4)
    text = format_matrix(code)
    again = parse_matrix_text(text)
    assert again.generator == code.generator
    ext_code = named_code("reed_solomon", make_extension_field(2, 2), 4, 2)
    text = format_matrix(ext_code)
    assert text.splitlines()[0] == "2 2 4 2"
    again = parse_matrix_text(text)
    assert again.generator == ext_code.generator
    with pytest.raises(ParameterError):
        parse_matrix_text("2 3 5\n1 1 1")  # body size fits no header shape
    with pytest.raises(ParameterError):
        parse_matrix_text("2 3 2\n1 1 1\n1 1 1")  # declared rank 2, actual 1
