"""Polyalphabetic codes, linear codes, and nested code chains.

A :class:`PolyalphabeticCode` groups its n coordinates into consecutive
symbols and counts distance in nonzero symbols.  A :class:`LinearCode`
is the one whose symbols are single coordinates; it adds what only the
Hamming metric uses: the syndrome, its table decoder and the structure
tests on reduced generators.

Vectors are tuples of serialized field elements (see :mod:`.field`), so
they hash and compare structurally.  Distances are exact reductions of a
code's split weight enumerator (:func:`split_weight_enumerator`), kept
on the code and admitted under one :class:`Limits`; :mod:`.enumerator`
counts it and :mod:`.linalg` does the elimination.

The decoders solve only linear systems whose matrix is fixed by the
code: a chain level's basis, or a generator restricted to the
coordinates an erasure trial keeps.  :func:`.linalg._left_inverse` row-reduces
each such matrix once into an information set and the inverse of the
matrix on it.  A chain builds one solver per level when it is
constructed, and a per-word solve is two vector-matrix products with a
re-encoding that checks the solution.  A code builds a
:class:`_KeptSet` for a kept-coordinate set on its first erasure trial
with that set and keeps it: at most sum_{s<d} C(m, s) for m symbols
and distance d.  It stores the product of the inverse and the
generator, so re-encoding a word from its information set is one
product, and the word's difference from that re-encoding is its
syndrome.  A trial that allows e >= 1 errors looks the syndrome up in
the set's table of error patterns, built on the first such trial,
instead of scanning the codewords; only a set whose patterns would
outnumber the codewords keeps the scan.

Every product by a fixed matrix (a chain level's inverse and basis, a
kept set's rows, a generator, the transposed parity rows behind
:meth:`LinearCode.syndrome`) is a :class:`_Product` built once with its
matrix.  Over a prime field it packs each row into one integer with a
byte lane per coordinate, wide enough that no lane carries, so y . rows
is one integer sum read back lane by lane mod q; extension fields, and
prime fields whose lane sums pass 8 bytes, take :func:`_combine`.  The
products check no symbol, so every public entry that reaches one
refuses a word with a symbol outside the field first
(:meth:`~whmetric.field.Field.validate_all`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import combinations, product
from operator import mul, ne
from struct import calcsize
from sys import byteorder

from .enumerator import _admit, _split_counts
from .errors import DefectError, ParameterError
from .field import Field, make_extension_field, make_prime_field
from .linalg import (
    _echelon,
    _leading_index,
    _left_inverse,
    _rref_kernel,
    identity_rows,
    independent_rows,
    kernel_basis,
    row_reduce,
)

SYNDROME_TABLE_LIMIT = 1 << 20


@dataclass(frozen=True)
class Limits:
    """Caps on exhaustive enumeration, shared by every scan that refuses.

    Each cap is a non-negative integer; a cap of 0 refuses every scan."""

    max_codewords: int = 1 << 20
    max_ambient: int = 1 << 22

    def __post_init__(self):
        for cap in fields(self):
            value = getattr(self, cap.name)
            if not isinstance(value, int) or value < 0:
                raise ParameterError(f"{cap.name} must be a non-negative integer, got {value!r}")


DEFAULT_LIMITS = Limits()

FAIL = None  # decoders signal failure with None


# -- vector and matrix helpers ---------------------------------------------
# Vectors are built from lists, not generators: tuple() of a generator
# grows its result by reallocation, past CPython's per-length tuple free
# lists, while freeing the result fills them, so a long codeword scan
# would leave up to 2000 spare tuples of its vector length behind.  Over
# a tabled field (order <= 256) a sum is read off the add table's rows,
# u - v as u + (-v); a larger field calls its per-element arithmetic.


def vec_add(field, u, v):
    table = field._add_table
    if table is None:
        return tuple([field.add(a, b) for a, b in zip(u, v)])
    return tuple([table[a][b] for a, b in zip(u, v)])


def vec_sub(field, u, v):
    table = field._add_table
    if table is None:
        return tuple([field.sub(a, b) for a, b in zip(u, v)])
    neg = field._neg_table
    return tuple([table[a][neg[b]] for a, b in zip(u, v)])


def vec_scale(field, c, u):
    if c == 0:
        return (0,) * len(u)
    if c == 1:
        return tuple(u)
    return tuple([field.mul(c, a) for a in u])


def hamming_distance(u, v):
    return sum(map(ne, u, v))


def _combine(field, rows, coeffs, length):
    """The combination sum(coeffs[i] * rows[i]) of vectors of ``length``."""
    out = (0,) * length
    for c, row in zip(coeffs, rows):
        if c:
            out = vec_add(field, out, vec_scale(field, c, row))
    return out


# (bytes, memoryview format) of the unsigned lanes a packed product can use
_LANES = tuple((calcsize(fmt), fmt) for fmt in "BHIQ")


@cache
def _residues(q):
    """The table byte b -> b mod q, for reducing one-byte lanes."""
    return bytes([b % q for b in range(256)])


class _Product:
    """y -> y . rows, the combination sum(y[i] * rows[i]), for fixed
    ``rows`` of vectors of ``length``; a y shorter than ``rows``
    combines the leading rows.

    Over a prime field whose lane sums k (q - 1)^2 fit in 8 bytes, each
    row is packed into one integer with a lane of 1, 2, 4 or 8 bytes per
    coordinate, the narrowest that holds the sum.  A product is then one
    integer sum of y[i] * packed[i], whose lanes never carry into each
    other, read back through the host's byte order and reduced mod q
    (one-byte lanes by one ``bytes.translate`` through a table of the 256
    residues).  Any other field calls :func:`_combine`.  No symbol is
    checked here: an entry of y outside the field would spill into the
    next lane, so the public callers validate their words once per call.
    """

    __slots__ = ("field", "rows", "length", "_packed", "_size", "_format", "_residues")

    def __init__(self, field, rows, length):
        self.field = field
        self.rows = tuple(rows)
        self.length = length
        self._packed = None
        if field.m != 1:
            return
        top = len(self.rows) * (field.q - 1) ** 2
        lane = next(((size, fmt) for size, fmt in _LANES if top < 1 << 8 * size), None)
        if lane is not None:
            size, fmt = lane
            self._packed = [
                int.from_bytes(array(fmt, row).tobytes(), byteorder) for row in self.rows
            ]
            self._size = size * length
            self._format = fmt
            if fmt == "B":
                self._residues = _residues(field.q)

    def __call__(self, y):
        packed = self._packed
        if packed is None:
            return _combine(self.field, self.rows, y, self.length)
        lanes = sum(map(mul, y, packed)).to_bytes(self._size, byteorder)
        if self._format == "B":
            return tuple(lanes.translate(self._residues))
        q = self.field.q
        return tuple([x % q for x in memoryview(lanes).cast(self._format)])


def _stream_combinations(field, rows, length):
    """Yield every linear combination of ``rows`` in lexicographic message order.

    Streams via an odometer over message digits with prefix partial sums,
    so each step costs one vector addition.
    """
    q = field.order
    k = len(rows)
    zero = (0,) * length
    yield zero
    if k == 0:
        return
    scaled = [[vec_scale(field, c, row) for c in range(q)] for row in rows]
    digits = [0] * k
    prefix = [zero] * (k + 1)
    while True:
        p = k - 1
        while p >= 0 and digits[p] == q - 1:
            digits[p] = 0
            p -= 1
        if p < 0:
            return
        digits[p] += 1
        prefix[p + 1] = vec_add(field, prefix[p], scaled[p][digits[p]])
        for i in range(p + 1, k):
            prefix[i + 1] = prefix[i]
        yield prefix[k]


def split_weight_enumerator(code, blocks, limits=DEFAULT_LIMITS):
    """Map block profile -> number of codewords of ``code`` with it.

    A profile counts the nonzero coordinates in each of the consecutive
    ``blocks`` (zero-width blocks allowed), which must cover the code's
    length.  Every profile a codeword attains is a key, the zero profile
    included, in lexicographic order.

    Admission compares the code's q^k words with ``limits.max_codewords``
    on every call.  The work then goes to the smaller side: the code's
    q^k words, or the dual's q^(n-k) words plus the P profiles the
    transform fills, each profile counted as one scanned word.  A space
    of many short blocks has so many profiles that it keeps the direct
    scan.  Either side is counted by one :func:`.enumerator._packed_counts` scan of
    its basis.  The dual's counts are mapped to the code's by
    :func:`.enumerator._macwilliams`, with q the order of the code's field: one pass
    over the dual's nonzero profiles in packed integer lanes, read back
    once and checked exactly.  The counts are kept on the code, once per
    ``blocks``, and each call returns a copy.
    """
    blocks = tuple(blocks)
    if any(b < 0 for b in blocks) or sum(blocks) != code.n:
        raise ParameterError(f"blocks {blocks} do not cover the code length {code.n}")
    size = _admit(code, limits)
    counts = code._enumerators.get(blocks)
    if counts is None:
        counts = code._enumerators[blocks] = _split_counts(code, blocks, size)
    return dict(counts)


# -- codes ------------------------------------------------------------------


def _symbol_sizes(sizes):
    sizes = tuple(int(s) for s in sizes)
    if any(s < 0 for s in sizes):
        raise ParameterError("symbol sizes must be non-negative")
    if sum(sizes) < 1:
        raise ParameterError("total length must be positive")
    return sizes


class PolyalphabeticCode:
    """An F_q-linear code of length n whose coordinates group into
    consecutive symbols of given sizes.

    Distance counts symbols whose coordinate slice is nonzero; zero-width
    symbols are legal and never count as nonzero.  Construction drops
    dependent generator rows; the generator is row-reduced only when
    ``rref`` or ``pivots`` is first read.
    """

    def __init__(self, field: Field, sizes, rows):
        if not isinstance(field, Field):
            raise ParameterError("first argument must be a Field")
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ParameterError("generator matrix is empty")
        sizes = _symbol_sizes(sizes)
        n = sum(sizes)
        if any(len(r) != n for r in rows):
            raise ParameterError(f"generator rows must all have length {n}")
        for r in rows:
            field.validate_all(r)
        keep = independent_rows(field, rows)
        if not keep:
            raise ParameterError("generator matrix has rank 0")
        self._set_basis(field, sizes, keep)

    @classmethod
    def _from_basis(cls, field, sizes, rows):
        """The code spanned by ``rows``, which the caller derived from an
        independent basis over ``field`` as rows of length sum(sizes):
        only the sizes are checked, and the rows are not reduced."""
        code = cls.__new__(cls)
        code._set_basis(field, _symbol_sizes(sizes), rows)
        return code

    def _set_basis(self, field, sizes, basis):
        self.field = field
        self.sizes = sizes
        self.n = sum(sizes)
        self.generator = tuple(basis)
        self.k = len(self.generator)
        self._distance = None
        self._source = None  # the code this one's symbols were permuted from
        self._enumerators = {}
        self._solvers = {}  # kept coordinates -> _KeptSet, for erasure_decode
        self._kept = {}  # frozenset of erased symbols -> (kept spans, kept coordinates)
        offsets, start = [], 0
        for s in sizes:
            offsets.append((start, start + s))
            start += s
        self._offsets = tuple(offsets)

    def __repr__(self):
        return f"PolyalphabeticCode(sizes={self.sizes}, k={self.k})"

    @property
    def n_symbols(self):
        return len(self.sizes)

    @cached_property
    def rref(self):
        """The generator's reduced row echelon form."""
        return row_reduce(self.field, self.generator)[0]

    @cached_property
    def pivots(self):
        """The pivot columns of ``rref``: an information set."""
        return [_leading_index(row) for row in self.rref]

    @cached_property
    def parity_rows(self):
        """A basis of the dual code over the coordinates, read off a
        reduced generator: the generator itself when it is [I | A], as every
        code :func:`~whmetric.construct.poly_from_mother` builds is, so the
        basis is [-A^T | I] with no elimination; otherwise ``rref``."""
        rows, pivots = self.generator, range(self.k)
        if any(row[: self.k] != unit for row, unit in zip(rows, identity_rows(self.k))):
            rows, pivots = self.rref, self.pivots
        return tuple(_rref_kernel(self.field, rows, pivots, self.n))

    @cached_property
    def _encoder(self):
        return _Product(self.field, self.generator, self.n)

    def symbols(self, v):
        return tuple([tuple(v[lo:hi]) for lo, hi in self._offsets])

    def encode(self, message):
        if len(message) != self.k:
            raise ParameterError(f"message length {len(message)} != dimension {self.k}")
        self.field.validate_all(message)
        return self._encoder(message)

    def _check_word(self, v):
        if len(v) != self.n:
            raise ParameterError(f"vector length {len(v)} != code length {self.n}")
        self.field.validate_all(v)

    def codewords(self):
        """All codewords, streamed in lexicographic message order."""
        return _stream_combinations(self.field, self.generator, self.n)

    def min_block_distance(self, limits=DEFAULT_LIMITS):
        """Exact minimum number of nonzero symbols over nonzero codewords:
        the fewest nonzero entries of a nonzero profile of the split
        weight enumerator over the symbols.

        The whole space contains a unit vector, so its distance is 1
        without a scan.  Any other code is admitted under ``limits`` on
        every call; the distance is reduced once.  A code whose symbols
        were permuted from another (:func:`whmetric.construct.permute_symbols`)
        has that code's q^k words and its distance, since a symbol
        permutation maps each codeword's nonzero symbols one-to-one: it is
        admitted itself, then reads the distance scanned on the other code,
        which is scanned at most once for all its permuted images."""
        if self.k == self.n:
            return 1
        _admit(self, limits)
        if self._distance is None:
            scanned = self._source or self
            if scanned._distance is None:
                profiles = split_weight_enumerator(scanned, scanned.sizes, limits)
                scanned._distance = min(len(p) - p.count(0) for p in profiles if any(p))
            self._distance = scanned._distance
        return self._distance

    def _decoding_distance(self):
        """The block distance the decoders work to: the one already
        reduced, whatever limits admitted it, or else one admitted under
        the default limits."""
        return self.min_block_distance() if self._distance is None else self._distance

    def erasure_decode(self, r, erased):
        """Errors-and-erasures decoding over symbols: the unique codeword
        agreeing with r outside the ``erased`` symbols whenever 2e + s < d,
        else FAIL."""
        self._check_word(r)
        erased = set(erased)
        if not all(isinstance(p, int) for p in erased):
            raise ParameterError(f"erased symbol positions must be integers, got {erased}")
        if erased and (min(erased) < 0 or max(erased) >= self.n_symbols):
            raise ParameterError(f"erased symbol positions {sorted(erased)} out of range")
        return _erasures_core(self, erased, self._decoding_distance(), r)


class LinearCode(PolyalphabeticCode):
    """An [n, k] linear code over a field, given by spanning generator rows:
    the :class:`PolyalphabeticCode` whose symbols are single coordinates,
    so its block distance is the Hamming distance.

    Construction drops dependent rows and row-reduces the rest at once,
    recording an information set (the pivot columns of the reduced form).
    """

    def __init__(self, field: Field, rows):
        rows = [tuple(r) for r in rows]
        super().__init__(field, (1,) * (len(rows[0]) if rows else 0), rows)
        self.rref, self.pivots = row_reduce(self.field, self.generator)

    def __repr__(self):
        return f"LinearCode([{self.n}, {self.k}] over {self.field!r})"

    # the base class's own functions, bound here too: perfbench's tracer
    # rebinds each class's attribute separately and counts each call once
    codewords = PolyalphabeticCode.codewords
    erasure_decode = PolyalphabeticCode.erasure_decode

    _syndrome_table = None  # built by the first bmd_decode call

    @cached_property
    def _checks(self):
        """v -> v . H^T for the parity rows H: the syndrome, () when n = k."""
        return _Product(self.field, zip(*self.parity_rows), self.n - self.k)

    def syndrome(self, v):
        self._check_word(v)
        return self._checks(v)

    def contains(self, v):
        return not any(self.syndrome(v))

    def min_distance(self, limits=DEFAULT_LIMITS):
        """Exact minimum Hamming distance: the smallest nonzero weight of
        the code's weight enumerator.  The code is admitted under
        ``limits`` on every call; the distance is reduced once."""
        _admit(self, limits)
        if self._distance is None:
            weights = split_weight_enumerator(self, (self.n,), limits)
            self._distance = min(w for (w,) in weights if w)
        return self._distance

    def _decoding_distance(self):
        """The distance the decoders work to: the one already reduced,
        whatever limits admitted it, or else one admitted under the
        default limits."""
        return self.min_distance() if self._distance is None else self._distance

    # -- decoding ------------------------------------------------------

    def _build_syndrome_table(self, radius):
        table = {}
        for _, e in _error_patterns(self.field.order, self._offsets, self.n, radius):
            s = self._checks(e)
            old = table.get(s)
            if old is None or e < old:
                table[s] = e
        return table

    def bmd_decode(self, r):
        """Unique codeword within (d-1)//2 of r, else FAIL (None).

        The syndrome table, built on the first call when q^(n-k) is at
        most ``SYNDROME_TABLE_LIMIT``, fixes the radius, so a later call
        goes from the symbol check straight to the lookup; a larger code
        scans its codewords."""
        self._check_word(r)
        table = self._syndrome_table
        if table is None:
            d = self._decoding_distance()
            if self.field.order ** (self.n - self.k) <= SYNDROME_TABLE_LIMIT:
                table = self._syndrome_table = self._build_syndrome_table((d - 1) // 2)
        if table is not None:
            syndrome = self._checks(r)
            if not any(syndrome):
                return tuple(r)  # a codeword, at distance 0
            e = table.get(syndrome)
            return FAIL if e is None else vec_sub(self.field, r, e)
        return _nearest_by_scan(self, self._offsets, 0, d, tuple(r))

    # -- structure -----------------------------------------------------

    def systematic_generator(self):
        """Generator with the identity on the first k columns, if one exists."""
        if self.pivots == list(range(self.k)):
            return self.rref
        raise ParameterError("the first k positions are not an information set")

    def is_subcode_of(self, other: "LinearCode"):
        if self.n != other.n or self.field != other.field:
            return False
        return all(other.contains(row) for row in self.generator)


# -- decoders' kept sets and error tables -----------------------------------


class _KeptSet:
    """What every erasure trial keeping one coordinate set reuses.

    ``info`` is an information set inside the kept coordinates and
    ``product`` the :class:`_Product` by the k rows of M . G, for G the
    generator and M the inverse of G on ``info``, so a word w re-encodes
    as w[info] . (M . G) in one product.  On the other kept coordinates,
    ``rest``, w minus its re-encoding is w's syndrome in systematic form:
    it is linear in w and zero exactly when w agrees with a codeword on
    every kept coordinate.

    ``table`` maps the syndrome of each error pattern with at most
    ``radius`` nonzero kept symbols to (that number, the pattern's
    re-encoding).  It is built on the first trial that allows errors;
    until then ``radius`` is None.  A set whose patterns outnumber the
    code's words keeps the codeword scan instead, with ``table`` None.
    """

    __slots__ = ("info", "product", "rest", "radius", "table")

    def __init__(self, info, product, rest):
        self.info = info
        self.product = product
        self.rest = rest
        self.radius = None
        self.table = None

    def encode(self, word):
        """The codeword that agrees with ``word`` on ``info``."""
        return self.product([word[c] for c in self.info])

    def syndrome(self, field, word, image):
        """``word`` minus its re-encoding ``image``, on ``rest``."""
        table = field._add_table
        if table is None:
            return tuple([field.sub(word[c], image[c]) for c in self.rest])
        neg = field._neg_table
        return tuple([table[word[c]][neg[image[c]]] for c in self.rest])


def _kept_set(code, cols):
    """The :class:`_KeptSet` of ``cols``, or None when the generator
    restricted to them has rank below k."""
    solver = _left_inverse(code.field, code.generator, cols)
    if solver is None:
        return None
    info, inverse = solver
    product = _Product(code.field, map(code._encoder, inverse), code.n)
    in_info = set(info)
    return _KeptSet(info, product, tuple(c for c in cols if c not in in_info))


def _pattern_count(q, widths, radius):
    """The number of words with at most ``radius`` nonzero symbols over
    symbols of the given widths: the coefficients of x^0..x^radius in
    prod_i (1 + (q^b_i - 1) x)."""
    coeffs = [1] + [0] * radius
    for b in widths:
        for w in range(radius, 0, -1):
            coeffs[w] += coeffs[w - 1] * (q**b - 1)
    return sum(coeffs)


def _error_patterns(q, spans, n, radius):
    """Yield (w, e) for every word e of length n over F_q that is zero
    outside the ``spans`` and nonzero on w <= ``radius`` of them: by w,
    then by the spans chosen, then by their values, each in
    lexicographic order."""
    values = {}  # span width -> its nonzero values
    for lo, hi in spans:
        if hi - lo not in values:
            values[hi - lo] = [v for v in product(range(q), repeat=hi - lo) if any(v)]
    cells = [(lo, hi, values[hi - lo]) for lo, hi in spans]
    for w in range(radius + 1):
        for chosen in combinations(cells, w):
            for parts in product(*[vals for _, _, vals in chosen]):
                error = [0] * n
                for (lo, hi, _), part in zip(chosen, parts):
                    error[lo:hi] = part
                yield w, tuple(error)


def _build_error_table(code, entry, kept, radius):
    """Fill ``entry``'s table for the error patterns on the ``kept``
    symbols with at most ``radius`` nonzero symbols, or leave it None
    when those patterns outnumber the code's q^k words.

    ``radius`` is at most (d_K - 1) // 2 for the distance d_K of the
    code punctured to the kept symbols, so no two patterns share a
    syndrome; one that did is a defect.
    """
    field = code.field
    q = field.order
    kept = [(lo, hi) for lo, hi in kept if hi > lo]
    entry.radius = radius
    if _pattern_count(q, [hi - lo for lo, hi in kept], radius) > q**code.k:
        return
    table = {}
    for w, error in _error_patterns(q, kept, code.n, radius):
        image = entry.encode(error)
        syndrome = entry.syndrome(field, error, image)
        if syndrome in table:
            raise DefectError(f"two error patterns of at most {radius} symbols share a syndrome")
        table[syndrome] = (w, image)
    entry.table = table


def _nearest_by_scan(code, kept, s, distance, received):
    """The codeword nearest ``received`` on the ``kept`` symbols, found
    by scanning every codeword: FAIL unless it is the only nearest one
    and 2 * (its distance) + s < d."""
    symbols = [received[lo:hi] for lo, hi in kept]
    best, best_d, ties = None, len(kept) + 1, 0
    for c in code.codewords():
        dist = sum(1 for (lo, hi), sym in zip(kept, symbols) if c[lo:hi] != sym)
        if dist < best_d:
            best, best_d, ties = c, dist, 1
        elif dist == best_d:
            ties += 1
    if best is not None and 2 * best_d + s < distance and ties == 1:
        return best
    return FAIL


def _erasures_core(code, erased, distance, received):
    """Errors-and-erasures decoding of ``received`` over ``code``'s symbols.

    ``erased`` is a set of symbol indices into ``code._offsets``; s of
    them leave a budget of e = (d - 1 - s) // 2 errors on the kept
    symbols.  The kept spans and coordinates are listed once per erased
    set, in ``code._kept``.  The kept coordinates' :class:`_KeptSet` is
    built on first use and kept in ``code._solvers``, one per
    kept-coordinate set.  When e = 0 the answer is the re-encoding of
    the received word, if its syndrome is zero.  Otherwise the
    syndrome's entry in the set's error table gives the error's
    re-encoding to subtract.  The table holds every pattern within the
    radius the set's nonzero-width erasures allow; any two codewords
    differ in more than twice that many kept symbols, so the word it
    finds within e is the scan's unique nearest one.  A set whose table
    would outnumber the codewords scans them.
    A kept set of rank below k matches every word to several codewords,
    so it always fails, as the scan's tie rule does.
    """
    s = len(erased)
    if s >= distance:
        return FAIL
    received = tuple(received)
    key = frozenset(erased)
    memo = code._kept.get(key)
    if memo is None:
        kept = tuple([span for i, span in enumerate(code._offsets) if i not in key])
        memo = code._kept[key] = kept, tuple([c for lo, hi in kept for c in range(lo, hi)])
    kept, cols = memo
    if cols not in code._solvers:
        code._solvers[cols] = _kept_set(code, cols)
    entry = code._solvers[cols]
    if entry is None:
        return FAIL
    field = code.field
    word = entry.encode(received)
    e = (distance - 1 - s) // 2
    if e == 0:
        rest = entry.rest
        return word if [word[c] for c in rest] == [received[c] for c in rest] else FAIL
    if entry.radius is None:
        nonempty = sum(1 for i in erased if code._offsets[i][1] > code._offsets[i][0])
        _build_error_table(code, entry, kept, (distance - 1 - nonempty) // 2)
    if entry.table is None:
        return _nearest_by_scan(code, kept, s, distance, received)
    found = entry.table.get(entry.syndrome(field, received, word))
    if found is None or found[0] > e:
        return FAIL
    return vec_sub(field, word, found[1]) if found[0] else word


# -- nested chains ----------------------------------------------------------


class NestedChain:
    """A nested sequence of codes B_1 >= B_2 >= ... >= B_s (>= {0}) on one block.

    For each level j the chain fixes quotient representative rows: vectors
    of B_j that extend a basis of B_(j+1) to a basis of B_j.  They are
    computed deterministically (pivot order by column index) and shared by
    the quotient encoder and decoder.
    """

    def __init__(self, codes):
        codes = list(codes)
        if not codes:
            raise ParameterError("a chain needs at least one code")
        field = codes[0].field
        n = codes[0].n
        for j, c in enumerate(codes):
            if c.field != field or c.n != n:
                raise ParameterError(f"chain level {j + 1} disagrees on field or length")
        for j in range(len(codes) - 1):
            if not codes[j + 1].is_subcode_of(codes[j]):
                raise ParameterError(f"chain level {j + 2} is not a subcode of level {j + 1}")
        self.field = field
        self.n = n
        self.codes = tuple(codes)
        self.s = len(codes)
        quotient, sub_basis = [], []
        for j in range(self.s):
            sub_rows = list(codes[j + 1].rref) if j + 1 < self.s else []
            elim = {_leading_index(row): row for row in sub_rows}
            quotient.append(tuple([norm for _, norm in _echelon(field, codes[j].rref, elim)]))
            sub_basis.append(tuple(sub_rows))
        self.quotient_rows = tuple(quotient)
        self.sub_basis = tuple(sub_basis)
        self.widths = tuple(len(q) for q in quotient)
        # per level, the solver of y . (quotient rows + sub basis) = b: an
        # information set, the product by the inverse on it, and the
        # product by the rows, whose leading rows are the quotient rows;
        # the rows are a basis of the level's code, so each has full rank
        solvers = []
        for top, sub in zip(quotient, sub_basis):
            info, inverse = _left_inverse(field, top + sub, range(n))
            solve = _Product(field, inverse, len(inverse))
            solvers.append((info, solve, _Product(field, top + sub, n)))
        self._solvers = tuple(solvers)

    def __repr__(self):
        dims = "/".join(str(c.k) for c in self.codes)
        return f"NestedChain(n={self.n}, dims={dims})"

    def quotient_encode(self, level, message):
        """Fixed coset representative of the level's quotient for ``message``."""
        width = self.widths[level]
        if len(message) != width:
            raise ParameterError(
                f"level {level + 1} message length {len(message)} != width {width}"
            )
        self.field.validate_all(message)
        # a message of the level's width combines the leading rows: the quotient rows
        return self._solvers[level][2](message)

    def quotient_message(self, level, b):
        """Recover the level message from any b in B_level; inverse of
        quotient_encode modulo the next subcode."""
        if len(b) != self.n:
            raise ParameterError(f"vector length {len(b)} != block length {self.n}")
        self.field.validate_all(b)
        info, solve, encode = self._solvers[level]
        y = solve([b[c] for c in info])
        if encode(y) != tuple(b):
            raise ParameterError(f"vector is not in chain level {level + 1}")
        return y[: self.widths[level]]


# -- code families and matrix files ----------------------------------------

NAMED_FAMILIES = ("repetition", "parity", "full", "hamming", "reed_solomon")


def _fixed_dimension(k, dim, message):
    if k is not None and k != dim:
        raise ParameterError(message)


def named_code(family, field, n, k=None):
    """Canonical generator for a named family, as an [n, k] code.

    Every family but Reed-Solomon fixes the dimension by the length, so
    there ``k`` may be left out; when given, it must match.
    """
    family = str(family).lower()
    if family == "rs":
        family = "reed_solomon"
    if family not in NAMED_FAMILIES:
        raise ParameterError(f"unknown code family {family!r}; choose from {NAMED_FAMILIES}")
    if n < 1:
        raise ParameterError("length must be positive")
    if family == "repetition":
        _fixed_dimension(k, 1, f"repetition code has dimension 1, got k={k}")
        return LinearCode(field, [(1,) * n])
    if family == "parity":
        _fixed_dimension(k, n - 1, f"parity-check code of length {n} has dimension {n - 1}")
        minus_one = field.neg(1)
        return LinearCode(field, [unit[:-1] + (minus_one,) for unit in identity_rows(n)[:-1]])
    if family == "full":
        _fixed_dimension(k, n, f"the full space of length {n} has dimension {n}")
        return LinearCode(field, identity_rows(n))
    if family == "hamming":
        order = field.order
        r, length = 2, order + 1
        while length < n:
            r += 1
            length = (order**r - 1) // (order - 1)
        if length != n:
            raise ParameterError(f"no Hamming code of length {n} over a field of order {order}")
        _fixed_dimension(k, n - r, f"Hamming code of length {n} has dimension {n - r}")
        columns = []
        for v in range(1, order**r):
            digits = []
            x = v
            for _ in range(r):
                digits.append(x % order)
                x //= order
            if digits[next(i for i, d in enumerate(digits) if d)] == 1:
                columns.append(digits)
        check_rows = [tuple(col[i] for col in columns) for i in range(r)]
        return LinearCode(field, kernel_basis(field, check_rows, n))
    # reed_solomon
    if n > field.order:
        raise ParameterError(
            f"Reed-Solomon needs n <= field order, got n={n} over order {field.order}"
        )
    if k is None or not 1 <= k <= n:
        raise ParameterError(f"Reed-Solomon dimension must be in [1, {n}], got {k}")
    points = list(range(1, field.order)) + [0]
    points = points[:n]
    rows = [tuple(field.pow(p, j) for p in points) for j in range(k)]
    return LinearCode(field, rows)


def parse_matrix_text(text):
    """Parse the plain-text generator format.

    First line is ``q n k`` for prime fields or ``q m n k`` for extension
    fields, followed by k rows of n serialized elements.
    """
    tokens = text.split()
    if not tokens:
        raise ParameterError("matrix file is empty")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ParameterError(f"matrix file has a non-integer token: {exc}") from None

    for header_len in (3, 4):
        if len(values) > header_len:
            q, m, n, k = values[:4] if header_len == 4 else (values[0], 1, *values[1:3])
            if len(values) - header_len == n * k and n >= 1 and k >= 1 and m >= 1 and q >= 2:
                break
    else:
        raise ParameterError("matrix file does not match 'q n k' or 'q m n k' plus k rows")
    field = make_prime_field(q) if m == 1 else make_extension_field(q, m)
    body = values[header_len:]
    rows = [tuple(body[i * n : (i + 1) * n]) for i in range(k)]
    code = LinearCode(field, rows)
    if code.k != k:
        raise ParameterError(f"matrix declares dimension {k} but has rank {code.k}")
    return code


def load_matrix_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ParameterError(f"cannot read matrix file: {exc}") from None
    return parse_matrix_text(text)


def format_matrix(code: LinearCode) -> str:
    field = code.field
    if field.m == 1:
        header = f"{field.q} {code.n} {code.k}"
    else:
        header = f"{field.q} {field.m} {code.n} {code.k}"
    lines = [header]
    for row in code.generator:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
