import pytest

from whmetric.errors import DefectError, ParameterError
from whmetric.field import Field, _smallest_irreducible, make_extension_field, make_prime_field


def test_prime_field_orders():
    assert make_prime_field(2).order == 2
    assert make_prime_field(7).order == 7


def test_non_prime_rejected_naming_factor():
    with pytest.raises(ParameterError, match="divisible by 2"):
        make_prime_field(4)
    with pytest.raises(ParameterError, match="divisible by 3"):
        make_prime_field(9)
    with pytest.raises(ParameterError):
        make_prime_field(1)


def test_gf4_modulus_is_unique_irreducible_quadratic():
    assert make_extension_field(2, 2).modulus == (1, 1, 1)


def test_degree_one_extension_matches_prime_field():
    ext = make_extension_field(2, 1)
    prime = make_prime_field(2)
    assert ext.order == prime.order == 2
    for a in range(2):
        for b in range(2):
            assert ext.add(a, b) == prime.add(a, b)
            assert ext.mul(a, b) == prime.mul(a, b)


def test_gf49_modulus_is_lexicographically_smallest():
    # oracle: walk monic quadratics in constant-term-first lexicographic
    # order, irreducibility decided by absence of roots
    found = None
    for c0 in range(7):
        for c1 in range(7):
            if all((x * x + c1 * x + c0) % 7 != 0 for x in range(7)):
                found = (c0, c1, 1)
                break
        if found:
            break
    field = make_extension_field(7, 2)
    assert field.modulus == found == (1, 0, 1)


@pytest.mark.parametrize(
    "field",
    [make_prime_field(2), make_extension_field(2, 2), make_prime_field(7), make_extension_field(7, 2)],
    ids=["F2", "F4", "F7", "F49"],
)
def test_field_axioms_exhaustive(field):
    elems = list(field.elements())
    for a in elems:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0
        assert field.add(a, field.neg(a)) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in elems:
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )
                assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
                assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))


def test_expand_basics():
    f4 = make_extension_field(2, 2)
    assert f4.expand(0) == (0, 0)
    assert f4.expand(1) == (1, 0)


def test_expand_contract_round_trip():
    for field in (make_extension_field(2, 2), make_extension_field(7, 2)):
        for a in field.elements():
            assert field.contract(field.expand(a)) == a


def test_expand_is_linear():
    for field in (make_extension_field(2, 2), make_extension_field(7, 2)):
        q = field.q
        for a in field.elements():
            for b in field.elements():
                left = field.expand(field.add(a, b))
                right = tuple(
                    (x + y) % q for x, y in zip(field.expand(a), field.expand(b))
                )
                assert left == right
            for c in range(q):
                left = field.expand(field.mul(c, a))
                right = tuple((c * x) % q for x in field.expand(a))
                assert left == right


def test_serialized_range_checks():
    f4 = make_extension_field(2, 2)
    with pytest.raises(ParameterError):
        f4.expand(4)
    with pytest.raises(ParameterError):
        f4.contract((2, 0))
    with pytest.raises(ParameterError):
        f4.inv(0)


def _primes_to(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


TABLED = sorted(
    {(q, m) for q in _primes_to(64) for m in range(1, 7) if q**m <= 64} | {(2, 7), (3, 4)}
)


@pytest.mark.parametrize("q, m", TABLED, ids=[f"GF({q}^{m})" for q, m in TABLED])
def test_log_built_tables_equal_raw_arithmetic(q, m):
    field = Field(q, m, _smallest_irreducible(q, m))
    elems = field.elements()
    for a in elems:
        assert field._add_table[a] == [field._add_raw(a, b) for b in elems]
        assert field._mul_table[a] == [field._mul_raw(a, b) for b in elems]
        if a:
            assert field.inv(a) == field._pow_raw(a, field.order - 2)


def test_tables_take_linearly_many_raw_multiplies(monkeypatch):
    calls = []
    raw = Field._mul_raw

    def counted(self, a, b):
        calls.append((a, b))
        return raw(self, a, b)

    monkeypatch.setattr(Field, "_mul_raw", counted)
    Field(2, 8, _smallest_irreducible(2, 8))
    assert len(calls) <= 2 * 256


def test_a_reducible_modulus_is_a_defect():
    # x^2 + 1 = (x + 1)^2 over F_2: x passes the order test, as 3 is
    # prime, but x^2 = 1, so its powers repeat
    with pytest.raises(DefectError, match="repeat"):
        Field(2, 2, (1, 0, 1))


def test_inverse_table_checks_its_argument():
    f8 = make_extension_field(2, 3)
    with pytest.raises(ParameterError):
        f8.inv(8)
    with pytest.raises(ParameterError):
        f8.inv(-1)
