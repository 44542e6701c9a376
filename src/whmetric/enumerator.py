"""The split weight enumerator of a code: a packed scan of the code's
basis, or of its dual's mapped by the MacWilliams identity.  A code is
read only through ``field``, ``n``, ``k``, ``generator`` and
``parity_rows``, so nothing here imports the code classes."""

from collections import Counter
from functools import cache
from itertools import accumulate, chain, compress, groupby, islice, product
from math import comb, prod
from operator import mul, xor
from sys import byteorder

from .errors import DefectError, ExhaustionError, ParameterError


def krawtchouk(q: int, n: int, j: int, i: int) -> int:
    """Hamming-metric Krawtchouk coefficient K_j(i) for length n over F_q."""
    if not 0 <= i <= n or not 0 <= j <= n:
        raise ParameterError(f"Krawtchouk indices must lie in [0, {n}]")
    out = 0
    for s in range(j + 1):
        out += comb(n - i, j - s) * comb(i, s) * (q - 1) ** (j - s) * (-1) ** s
    return out


@cache
def _krawtchouk_table(q, b):
    return tuple(tuple(krawtchouk(q, b, j, i) for i in range(b + 1)) for j in range(b + 1))


@cache
def _krawtchouk_columns(q, b, bits):
    """Per i, the column K_j(i), j = 0 .. b, packed as sum_j K_j(i) << (j * bits)."""
    table = _krawtchouk_table(q, b)
    return tuple(sum(row[i] << j * bits for j, row in enumerate(table)) for i in range(b + 1))


def krawtchouk_tables(q, blocks):
    """Per block of length b, the (b + 1) x (b + 1) table K[j][i] = K_j(i),
    built once per (q, b)."""
    return [_krawtchouk_table(q, b) for b in blocks]


# the longest run of steps of a Gray code's low digits kept as one list,
# and the number of words whose profiles are counted as one batch
_GRAY_RUN = 1 << 12
_SCAN_BATCH = 1 << 12


def _gray_steps(p, k):
    """The digit that the modular p-ary Gray code on k digits increments,
    by one, at each step t = 1 .. p^k - 1: the p-adic valuation of t.

    The steps of the low digits, a run of p^low - 1, repeat between any
    two steps of the high digits, so the run is one list.
    """
    low = min(k, 1)
    while low < k and p ** (low + 1) <= _GRAY_RUN:
        low += 1
    run = []
    for i in range(low):
        run = (run + [i]) * (p - 1) + run
    if low == k:
        return run
    high = _gray_steps(p, k - low)
    return chain(run, chain.from_iterable(chain((j + low,), run) for j in high))


def _packed_counts(field, rows, blocks):
    """Map block profile -> number of words in the span of the
    independent ``rows``, by one packed scan in Gray-code order.

    Over F_(p^m) a word is one integer with ``width`` bits per
    coordinate: the m base-p digits of the coordinate's element
    (:meth:`~whmetric.field.Field.expand`) in lanes of ``lane`` bits, low
    digit lowest, and a flag bit above them.  The F_(p^m)-span of the rows
    is the F_p-span of beta * row for the k m pairs of a row and a beta =
    p^i, i < m (the polynomial basis), each packed once.  The scan visits
    the p^(k m) words in the order of the modular p-ary Gray code, so each
    word is the last one plus one packed row: their XOR when p = 2.  For
    odd p a lane has a guard bit above its digit; after the integer sum,
    adding 2^digit - p to every lane sets the guard of each lane whose
    digit sum reached p, and p is taken from those lanes.  Adding
    2^(m lane) - 1 to each coordinate then carries into its flag exactly
    when one of its lanes is nonzero, and a block's count is the
    ``bit_count`` of its flags.
    """
    p, m = field.q, field.m
    digit = (p - 1).bit_length()
    lane = digit if p == 2 else digit + 1
    width = m * lane + 1
    n = sum(blocks)
    scaled = [[field.mul(p**i, x) for x in row] if i else row for row in rows for i in range(m)]
    cells = {  # element -> its coordinate's bits, high bit first, flag clear
        x: "0" + "".join([format(d, f"0{lane}b") for d in reversed(field.expand(x))])
        for x in set(chain.from_iterable(scaled))
    }
    basis = [int("".join(map(cells.__getitem__, reversed(row))), 2) for row in scaled]
    ones = int(("0" + "1" * (width - 1)) * n, 2)
    flags = int(("1" + "0" * (width - 1)) * n, 2)
    masks, start = [], 0
    for b in blocks:
        masks.append(flags & ((1 << b * width) - 1) << start * width)
        start += b
    if p == 2:
        add = xor
    else:
        excess = int(("0" + format(2**digit - p, f"0{lane}b") * m) * n, 2)
        guards = int(("0" + ("1" + "0" * digit) * m) * n, 2)

        def add(word, row):
            total = word + row
            return total - (((total + excess) & guards) >> digit) * p

    words = accumulate(map(basis.__getitem__, _gray_steps(p, len(basis))), add, initial=0)
    flagged = map(ones.__add__, words)
    counts = Counter()
    while batch := list(islice(flagged, _SCAN_BATCH)):
        counts.update(zip(*[map(int.bit_count, map(mask.__and__, batch)) for mask in masks]))
    return counts


def _macwilliams(q, blocks, dual_counts, dual_size, size):
    """The code's profile counts from its dual's, by the MacWilliams
    identity for split weight enumerators:

        A(j) = (1 / |C_dual|) * sum_i B(i) * prod_l K_{j_l}(i_l; b_l, q).

    The P sums |C_dual| A(j), one per profile j in lexicographic order,
    are the lanes of one integer, built in one pass over the dual's
    nonzero profiles from the last block to the first.  A node holds the
    packed sums, over the blocks after them, of the dual profiles that
    share its leading entries: W lanes in all.  Each profile adds its
    count times the packed Krawtchouk column K_m[.][i_m] of the last
    block to the node of its leading entries, and each earlier block l
    folds a node's children T_i into sum_j (sum_i K_l[j][i] T_i) << (j W
    lane).  A lane is the fewest 64-bit words that hold
    2 (sum_i |B(i)|) q^n, twice the largest |sum|, sized from the dual's
    own counts, so the lanes are balanced signed integers that never
    spill into each other.

    The root is read back once, through the host's byte order as in
    :class:`~whmetric.code._Product`.  Every A(j) is a non-negative
    integer exactly when the root is a multiple of |C_dual| whose
    quotient's lanes, read unsigned, are below half a lane's range over
    |C_dual|; those lanes are then the A(j).  Otherwise the lanes are
    read offset by half their range, and the first that is not a
    non-negative multiple is a defect.
    A(0) must also be 1 and the counts must sum to ``size``.
    """
    tables = krawtchouk_tables(q, blocks)
    total = sum(map(abs, dual_counts.values()))
    bits = (2 * total * q ** sum(blocks)).bit_length()
    lane = 64 * max(1, -(-bits // 64))
    # the bits of one entry of block l: a node's lanes over the blocks after l
    shifts = list(accumulate((len(t) for t in tables[:0:-1]), mul, initial=lane))[::-1]
    last = len(blocks) - 1
    columns = _krawtchouk_columns(q, blocks[last], lane)

    def fold(l, group):
        """The packed transform over blocks l onwards of the (profile,
        count) pairs in ``group``, which share their first l entries."""
        if l == last:
            return sum([count * columns[p[l]] for p, count in group])
        children = [0] * len(tables[l])
        for i, sub in groupby(group, lambda item: item[0][l]):
            children[i] = fold(l + 1, sub)
        node = 0
        for row in reversed(tables[l]):
            node = (node << shifts[l]) + sum(map(mul, row, children))
        return node

    root = fold(0, iter(sorted(dual_counts.items())))
    lanes = prod(len(t) for t in tables)
    profiles = product(*(range(b + 1) for b in blocks))
    half = 1 << lane - 1
    quotient, rest = divmod(root, dual_size)
    # Every lane is a non-negative multiple of dual_size iff the root is a
    # multiple whose quotient's lanes, read unsigned, are below half / dual_size.
    values = None if rest or root < 0 else _unpack_lanes(quotient, lanes, lane)
    if values is None or max(values) * dual_size >= half:
        bias = int.from_bytes(half.to_bytes(lane // 8, "little") * lanes, "little")
        for jprof, value in zip(profiles, _unpack_lanes(root + bias, lanes, lane)):
            acc = value - half  # some lane fails, so the loop raises
            if acc % dual_size or acc < 0:
                raise DefectError(
                    f"MacWilliams transform gives {acc}/{dual_size} codewords of profile {jprof}"
                )
    if values[0] != 1 or sum(values) != size:
        raise DefectError("MacWilliams transform does not count the zero word once and every word")
    return dict(zip(compress(profiles, values), filter(None, values)))


def _unpack_lanes(value, lanes, lane):
    """The ``lanes`` unsigned lanes of ``lane`` bits (a multiple of 64),
    lowest first, of the non-negative ``value``, read through the host's
    byte order."""
    raw = value.to_bytes(lanes * lane // 8, byteorder)
    if lane == 64:
        out = memoryview(raw).cast("Q").tolist()
    else:
        size = lane // 8
        out = [int.from_bytes(raw[i : i + size], byteorder) for i in range(0, len(raw), size)]
    if byteorder == "big":
        out.reverse()
    return out


def _admit(code, limits):
    """The number q^k of ``code``'s words, if ``limits`` admit scanning them."""
    size = code.field.order**code.k
    if size > limits.max_codewords:
        raise ExhaustionError(
            f"exhaustion refused: {size} codewords exceeds the limit {limits.max_codewords}"
        )
    return size


def _split_counts(code, blocks, size):
    """The profile counts of the ``size`` words of ``code``, scanned on
    whichever of the code and its dual is cheaper.

    The dual's basis is the code's cached ``parity_rows``, read off a
    generator built as [I | A] or off the reduced form a
    :class:`~whmetric.code.LinearCode` holds, so a dual scan does no
    elimination of its own."""
    field = code.field
    q = field.order
    r = code.n - code.k
    if q**r + prod(b + 1 for b in blocks) >= size:
        return dict(sorted(_packed_counts(field, code.generator, blocks).items()))
    dual_counts = _packed_counts(field, code.parity_rows, blocks)
    return _macwilliams(q, blocks, dual_counts, q**r, size)
