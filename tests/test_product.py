"""The decoders' packed vector-matrix product against its reference, and
the validation that keeps every symbol it sees inside the field.

Over a prime field whose lane sums k (q - 1)^2 fit in 8 bytes,
``code._Product`` packs each row into one integer with a byte lane per
coordinate; any other field calls ``code._combine``, which stays the
reference.  Vector sums and differences over a field of at most 256
elements index its add table's rows, checked here against the
per-element ``Field.add`` and ``Field.sub``.  A symbol outside the field
would spill into the next lane, or index the wrong table row, without
an error, so every public entry that reaches a product refuses one
first, on its first call and on every warm one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    F2,
    F3,
    F7,
    hamming_31_under_raised_limits,
    hamming_concatenation,
    mixed_code_from_parity_mother,
    vec_dot,
)
from whmetric import code as code_module
from whmetric.code import LinearCode, NestedChain, _combine, _Product, named_code
from whmetric.decode import gcc_decode, gmd_decode
from whmetric.errors import ParameterError
from whmetric.field import make_extension_field, make_prime_field

F257 = make_prime_field(257)  # past the table limit: raw arithmetic
F4 = make_extension_field(2, 2)
F8 = make_extension_field(2, 3)
F9 = make_extension_field(3, 2)
F512 = make_extension_field(2, 9)  # past the table limit: raw arithmetic
MERSENNE_31 = make_prime_field(2**31 - 1)  # 4 (q - 1)^2 < 2^64 < 5 (q - 1)^2

FIELDS = (F2, F3, F7, F257, F4, F8)


def lane_bytes(field, k):
    """The lane width the product should choose, or None for the fallback."""
    if field.m != 1:
        return None
    top = k * (field.q - 1) ** 2
    return next((w for w in (1, 2, 4, 8) if top < 256**w), None)


def check_product(field, rows, length, y):
    product = _Product(field, rows, length)
    assert product(y) == _combine(field, rows, y, length)
    width = lane_bytes(field, len(rows))
    if width is None:
        assert product._packed is None
    else:
        assert product._size == width * length


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    entry = st.integers(0, field.order - 1)
    k = draw(st.integers(0, 6))
    length = draw(st.integers(0, 6))
    rows = [draw(st.lists(entry, min_size=length, max_size=length)) for _ in range(k)]
    y = draw(
        st.one_of(
            st.just([0] * k),
            st.lists(entry, min_size=k, max_size=k),
            st.lists(entry, min_size=0, max_size=k),  # a prefix: the leading rows
        )
    )
    return field, rows, length, y


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(products())
def test_product_matches_the_combination(case):
    check_product(*case)


@pytest.mark.parametrize(
    "field, k",
    [
        (F2, 1),
        (F2, 255),
        (F2, 256),  # k (q - 1)^2 just above 255
        (F3, 63),
        (F3, 64),
        (F7, 7),
        (F7, 8),
        (F7, 1820),
        (F7, 1821),  # just above 65,535
        (F257, 1),  # 65,536: four-byte lanes
        (MERSENNE_31, 4),
        (MERSENNE_31, 5),  # past 2^64: the fallback
    ],
)
def test_the_largest_lane_sum_does_not_carry(field, k):
    top = field.order - 1
    length = 3
    rows = [[top] * length for _ in range(k - 1)] + [[top, 0, 1]]
    check_product(field, rows, length, [top] * k)
    check_product(field, rows, length, [0] * (k - 1) + [1])


def test_extension_fields_and_wide_primes_call_the_combination(monkeypatch):
    calls = []

    def counted(field, rows, coeffs, length):
        calls.append(field)
        return _combine(field, rows, coeffs, length)

    monkeypatch.setattr(code_module, "_combine", counted)
    for field, k in ((F4, 2), (F8, 3), (MERSENNE_31, 5)):
        rows = [[field.order - 1] * 2 for _ in range(k)]
        assert _Product(field, rows, 2)([1] * k) == _combine(field, rows, [1] * k, 2)
        assert calls.pop() is field
    for field in (F2, F7, F257):
        _Product(field, [[1, 1]], 2)([1])
    assert calls == []


# -- vector sums off the field tables -----------------------------------------


@st.composite
def vector_pairs(draw):
    field = draw(st.sampled_from((F2, F3, F7, F4, F9, F512)))
    entry = st.integers(0, field.order - 1)
    n = draw(st.integers(1, 6))
    u, v = (tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))
    return field, u, v, draw(st.lists(st.integers(0, n - 1), max_size=n))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(vector_pairs())
def test_vector_sums_match_the_field_operations(case):
    field, u, v, rest = case
    # fields up to the table limit read the tables, larger ones call add and sub
    assert (field._add_table is None) == (field is F512)
    assert code_module.vec_add(field, u, v) == tuple(field.add(a, b) for a, b in zip(u, v))
    assert code_module.vec_sub(field, u, v) == tuple(field.sub(a, b) for a, b in zip(u, v))
    kept = code_module._KeptSet((), None, rest)
    assert kept.syndrome(field, u, v) == tuple(field.sub(u[c], v[c]) for c in rest)


@st.composite
def codes_and_words(draw):
    field = draw(st.sampled_from(FIELDS))
    entry = st.integers(0, field.order - 1)
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    rows[0][draw(st.integers(0, n - 1))] = 1  # rank >= 1
    return LinearCode(field, rows), tuple(draw(st.lists(entry, min_size=n, max_size=n)))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(codes_and_words())
def test_syndrome_matches_the_dot_products(case):
    code, v = case
    assert code.syndrome(v) == tuple(vec_dot(code.field, v, h) for h in code.parity_rows)
    assert code.encode(v[: code.k]) == _combine(code.field, code.generator, v[: code.k], code.n)


@pytest.mark.parametrize("field", FIELDS)
def test_a_full_code_has_an_empty_syndrome(field):
    full = named_code("full", field, 3)
    assert full.syndrome((1, 0, 1)) == ()
    assert full.contains((0, 1, 1))


# -- symbols outside the field ---------------------------------------------------

# every one is refused by Field.validate for the fields below
BAD_SYMBOLS = (-1, 7, 1.0, "1", None)


def hamming_f2():
    return named_code("hamming", F2, 7)


def hamming_f7():
    return named_code("hamming", F7, 8)


def repetition_f2_22():
    """2^21 syndromes, past SYNDROME_TABLE_LIMIT: bmd_decode scans."""
    return named_code("repetition", F2, 22)


def with_bad_symbol(word, bad):
    return (bad,) + tuple(word[1:])


ENTRIES = {
    "syndrome": lambda code, w: code.syndrome(w),
    "contains": lambda code, w: code.contains(w),
    "bmd_decode": lambda code, w: code.bmd_decode(w),
    "erasure_decode": lambda code, w: code.erasure_decode(w, [1]),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize(
    "make", [hamming_f2, hamming_f7, repetition_f2_22, hamming_31_under_raised_limits]
)
@pytest.mark.parametrize("bad", BAD_SYMBOLS)
def test_linear_code_entries_refuse_symbols_outside_the_field(entry, make, bad):
    code = make()
    zero = (0,) * code.n
    first = ENTRIES[entry](code, zero)  # a valid call first: the products and tables exist
    with pytest.raises(ParameterError):
        ENTRIES[entry](code, with_bad_symbol(zero, bad))
    assert ENTRIES[entry](code, zero) == first  # the warm path, after the refusal


@pytest.mark.parametrize("bad", BAD_SYMBOLS)
def test_polyalphabetic_erasure_decode_refuses_symbols_outside_the_field(bad):
    outer = mixed_code_from_parity_mother(2)
    word = outer.encode((1, 0, 1))
    outer.erasure_decode(word, [0])
    with pytest.raises(ParameterError):
        outer.erasure_decode(with_bad_symbol(word, bad), [0])


@pytest.mark.parametrize("bad", BAD_SYMBOLS)
def test_gmd_decode_refuses_symbols_outside_the_field(bad):
    outer = mixed_code_from_parity_mother(2)
    symbols = list(outer.symbols(outer.encode((1, 0, 1))))
    symbols[1] = with_bad_symbol(symbols[1], bad)
    with pytest.raises(ParameterError):
        gmd_decode(outer, symbols, [1, 1, 1])


@pytest.mark.parametrize("bad", BAD_SYMBOLS)
def test_gcc_decode_refuses_symbols_outside_the_field(bad):
    _, gcc = hamming_concatenation()
    assert gcc_decode(gcc, (0,) * gcc.n).ok
    with pytest.raises(ParameterError):
        gcc_decode(gcc, with_bad_symbol((0,) * gcc.n, bad))


@pytest.mark.parametrize("bad", BAD_SYMBOLS)
def test_chain_entries_refuse_symbols_outside_the_field(bad):
    chain = NestedChain([named_code("full", F7, 3), named_code("repetition", F7, 3)])
    word = chain.quotient_encode(0, (1,) * chain.widths[0])
    assert chain.quotient_message(0, word) == (1,) * chain.widths[0]
    with pytest.raises(ParameterError):
        chain.quotient_message(0, with_bad_symbol(word, bad))
    with pytest.raises(ParameterError):
        chain.quotient_encode(0, with_bad_symbol((1,) * chain.widths[0], bad))


def test_validate_all_agrees_with_validate():
    for field in (F2, F7, F257, F4):
        for values in ([], [0, 1], [True, False], [0, field.order], [-1], [0, 1.0], ["0"]):
            try:
                for a in values:
                    field.validate(a)
                expected = None
            except ParameterError:
                expected = ParameterError
            if expected is None:
                field.validate_all(values)
            else:
                with pytest.raises(ParameterError):
                    field.validate_all(values)
