"""Exact arithmetic in prime fields F_q and extension fields F_(q^m).

An element of F_(q^m) is represented by the integer in [0, q^m) whose
little-endian base-q digits are the coefficients of its residue
polynomial.  The integer therefore *is* the canonical serialized form:
two elements are equal iff their coefficient vectors are equal, and no
separate wire encoding is needed.

Extension fields reduce modulo the lexicographically smallest monic
irreducible polynomial of the requested degree (coefficients compared
constant term first).  The choice is arbitrary mathematically but fixing
it keeps serialized matrices and test vectors stable across runs.

Fields up to ``_TABLE_LIMIT`` elements precompute add, mul and inv
tables, built from discrete logarithms rather than by polynomial
arithmetic.  One primitive element g is found by raw multiplication,
and its q^m - 1 powers (O(q^m) raw multiplies in all) give
exp[i] = g^i and the inverse map log.  Then
mul[a][b] = exp[(log a + log b) mod (q^m - 1)] and
inv[a] = exp[-log a mod (q^m - 1)], one lookup per entry.  Addition is
digit-wise, XOR when q = 2.  The tables agree entry for entry with the
raw arithmetic, which stays as the reference and as the path for larger
fields.
"""

from __future__ import annotations

from itertools import product

from .errors import DefectError, ParameterError

# Precompute add/mul/inv tables up to this field order; larger fields
# fall back to per-operation polynomial arithmetic.
_TABLE_LIMIT = 256


def _check_prime(q: int) -> None:
    if not isinstance(q, int) or q < 2:
        raise ParameterError(f"field characteristic must be an integer >= 2, got {q!r}")
    d = _prime_factors(q)[0]
    if d != q:
        raise ParameterError(f"q={q} is not prime (divisible by {d})")


def _prime_factors(n):
    """The distinct prime factors of n >= 1, ascending (none for 1)."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over Z_q ------------------------------------------
# Polynomials are tuples of coefficients, index = degree, no trailing
# zeros; the zero polynomial is ().


def _poly_trim(p):
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _poly_mul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return _poly_trim(out)


def _poly_mod(a, mod, q):
    """Remainder of a modulo a monic polynomial."""
    r = list(_poly_trim(a))
    dm = len(mod) - 1
    while len(r) > dm:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, c in enumerate(mod):
                r[shift + i] = (r[shift + i] - lead * c) % q
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _is_irreducible(p, q):
    """Trial division by all monic polynomials of degree <= deg(p)/2."""
    deg = len(p) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(q), repeat=d):
            divisor = tail + (1,)
            if not _poly_mod(p, divisor, q):
                return False
    return True


def _smallest_irreducible(q, m):
    if m == 1:
        return (0, 1)  # the polynomial x; F_q[x]/(x) = F_q
    for tail in product(range(q), repeat=m):
        candidate = tail + (1,)
        if _is_irreducible(candidate, q):
            return candidate
    raise ParameterError(f"no irreducible polynomial of degree {m} over F_{q}")  # pragma: no cover


class Field:
    """F_(q^m) with elements encoded as integers in [0, q^m)."""

    def __init__(self, q: int, m: int, modulus: tuple):
        self.q = q
        self.m = m
        self.order = q**m
        self.modulus = modulus
        self._add_table = None
        self._mul_table = None
        self._inv_table = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def _pow_raw(self, a, e):
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def _primitive_powers(self):
        """exp[i] = g^i for i < q^m - 1, g the smallest primitive element,
        by raw multiplication, so building a field performs no field
        operation.  A candidate is primitive when no g^(n/p) is 1, for
        n = q^m - 1 and p a prime factor of n."""
        n = self.order - 1
        cofactors = [n // p for p in _prime_factors(n)]
        for g in range(1, self.order):
            if all(self._pow_raw(g, c) != 1 for c in cofactors):
                break
        else:
            raise DefectError(f"{self} has no primitive element")
        exp = [1]
        for _ in range(n - 1):
            exp.append(self._mul_raw(exp[-1], g))
        if len(set(exp)) != n:
            raise DefectError(f"the powers of the primitive element {g} of {self} repeat")
        return exp

    def _build_tables(self):
        q, order = self.q, self.order
        rng = range(order)
        if q == 2:
            add = [[a ^ b for b in rng] for a in rng]
        else:
            # one more base-q digit per round: the low digits come from
            # the smaller table, the new top digit adds mod q
            add = [[(a + b) % q for b in range(q)] for a in range(q)]
            size = q
            while size < order:
                grown = range(size * q)
                add = [
                    [add[a % size][b % size] + size * ((a // size + b // size) % q) for b in grown]
                    for a in grown
                ]
                size *= q
        n = order - 1
        exp = self._primitive_powers()
        log = [0] * order
        for i, x in enumerate(exp):
            log[x] = i
        exp2 = exp + exp  # exp2[i + j] = g^(i + j) for i, j < n, no reduction
        logs = log[1:]
        self._add_table = add
        self._mul_table = [[0] * order] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self._inv_table = [None] + [exp[-la % n] for la in logs]

    # -- encoding ----------------------------------------------------

    def expand(self, a: int) -> tuple:
        """Coefficient vector of a over F_q (polynomial basis, low degree first)."""
        self.validate(a)
        digits = []
        for _ in range(self.m):
            digits.append(a % self.q)
            a //= self.q
        return tuple(digits)

    def contract(self, coeffs) -> int:
        """Inverse of :meth:`expand`."""
        if len(coeffs) != self.m:
            raise ParameterError(f"expected {self.m} coefficients, got {len(coeffs)}")
        out = 0
        for c in reversed(coeffs):
            if not 0 <= c < self.q:
                raise ParameterError(f"coefficient {c} outside [0, {self.q})")
            out = out * self.q + c
        return out

    def validate(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ParameterError(f"{a!r} is not an element of {self}")

    def elements(self) -> range:
        return range(self.order)

    # -- arithmetic ---------------------------------------------------

    def _add_raw(self, a, b):
        if self.m == 1:
            return (a + b) % self.q
        da, db = self.expand(a), self.expand(b)
        return self.contract(tuple((x + y) % self.q for x, y in zip(da, db)))

    def _mul_raw(self, a, b):
        if self.m == 1:
            return (a * b) % self.q
        pa = _poly_trim(self.expand(a))
        pb = _poly_trim(self.expand(b))
        r = _poly_mod(_poly_mul(pa, pb, self.q), self.modulus, self.q)
        return self.contract(r + (0,) * (self.m - len(r)))

    def add(self, a, b):
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_raw(a, b)

    def neg(self, a):
        if self.m == 1:
            return (-a) % self.q
        return self.contract(tuple((-c) % self.q for c in self.expand(a)))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul_raw(a, b)

    def inv(self, a):
        if a == 0:
            raise ParameterError("zero has no multiplicative inverse")
        if self._inv_table is not None:
            self.validate(a)
            return self._inv_table[a]
        return self.pow(a, self.order - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        self.validate(a)
        if e < 0:
            a, e = self.inv(a), -e
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    # -- plumbing -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.q, self.m, self.modulus) == (other.q, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.q, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"Field(q={self.q})"
        return f"Field(q={self.q}, m={self.m}, order={self.order})"


def make_prime_field(q: int) -> Field:
    """The prime field F_q; q must be prime."""
    _check_prime(q)
    return Field(q, 1, (0, 1))


# One field per (q, m): fields are immutable, and building one finds its
# modulus and fills its tables.
_EXTENSION_FIELDS = {}


def make_extension_field(q: int, m: int) -> Field:
    """F_(q^m) over the deterministic modulus choice described above."""
    _check_prime(q)
    if not isinstance(m, int) or m < 1:
        raise ParameterError(f"extension degree must be a positive integer, got {m!r}")
    field = _EXTENSION_FIELDS.get((q, m))
    if field is None:
        field = _EXTENSION_FIELDS[(q, m)] = Field(q, m, _smallest_irreducible(q, m))
    return field
