"""Shared builders and independent brute-force oracles for the tests.

The oracles here recompute quantities from first principles (explicit
split enumeration, vector-pair enumeration) so the library's dynamic
programs and formulas are checked against something that does not share
their code path.
"""

from itertools import product

from whmetric.code import Limits, LinearCode, NestedChain, PolyalphabeticCode, named_code
from whmetric.construct import build_gcc, outer_code, poly_from_mother
from whmetric.field import make_extension_field, make_prime_field
from whmetric.metric import WeightedSpace

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F7 = make_prime_field(7)


def scaled_coordinates(space):
    out = []
    for (lo, hi), s in zip(space.block_ranges(), space.scales):
        out.extend([s] * (hi - lo))
    return out


def vector_weight_direct(space, v):
    return sum(s for x, s in zip(v, scaled_coordinates(space)) if x)


def capability_by_splits(space, v):
    """min over all 2^wt splits r (r_i in {0, v_i}) of max weights, minus 1."""
    support = [i for i, x in enumerate(v) if x]
    scaled = scaled_coordinates(space)
    total = sum(scaled[i] for i in support)
    best = None
    for mask in range(1 << len(support)):
        kept = sum(scaled[p] for b, p in enumerate(support) if mask >> b & 1)
        val = max(kept, total - kept)
        if best is None or val < best:
            best = val
    return best - 1


def hamming_weight(v):
    return sum(1 for x in v if x)


def vec_dot(field, u, v):
    """The dot product of u and v, one field operation per coordinate."""
    out = 0
    for a, b in zip(u, v):
        if a and b:
            out = field.add(out, field.mul(a, b))
    return out


def message_codeword_pairs(code):
    """Every (message, codeword) pair of ``code``, messages in lexicographic
    order, each codeword through the code's own encoder."""
    for msg in product(range(code.field.order), repeat=code.k):
        yield msg, code.encode(msg)


def ball_vectors(space, t):
    out = []
    for v in product(range(space.q), repeat=space.n):
        if vector_weight_direct(space, v) <= t:
            out.append(v)
    return out


def diff_profiles_by_pairs(space, t):
    """Block profiles of all differences of two radius-t vectors."""
    ball = ball_vectors(space, t)
    out = set()
    for x in ball:
        for y in ball:
            diff = tuple((a - b) % space.q for a, b in zip(x, y))
            out.add(space.block_profile(diff))
    return out


# -- reference constructions -------------------------------------------------


def mixed_code_from_parity_mother(q):
    """Symbol sizes (1, 2, 3) from a [3, 2, 2] parity mother over F_(q^2)."""
    ext = make_extension_field(q, 2)
    mother = named_code("parity", ext, 3, 2)
    return poly_from_mother(mother, (1, 2, 3))


def three_block_code():
    """[9, 3] over F_2: repetition/parity/full inner codes on blocks
    (3, 3, 3) with scales (1, 2, 3), mixed-alphabet outer of distance 2."""
    space = WeightedSpace(2, (3, 3, 3), (1, 2, 3))
    chains = [
        NestedChain([named_code("repetition", F2, 3, 1)]),
        NestedChain([named_code("parity", F2, 3, 2)]),
        NestedChain([named_code("full", F2, 3, 3)]),
    ]
    outer = mixed_code_from_parity_mother(2)
    return space, build_gcc(space, chains, [outer])


def two_block_code():
    """[6, 4] over F_2: repetition + rate-one inner codes on blocks (3, 3)
    with scales (1, 2), full outer space."""
    space = WeightedSpace(2, (3, 3), (1, 2))
    chains = [
        NestedChain([named_code("repetition", F2, 3, 1)]),
        NestedChain([named_code("full", F2, 3, 3)]),
    ]
    outer = outer_code(F2, (1, 3))
    return space, build_gcc(space, chains, [outer])


def two_level_code():
    """[9, 3] over F_2 with two levels on blocks (6, 3), scales (1, 2):
    designed weighted distance 5 and capability floor 2."""
    space = WeightedSpace(2, (6, 3), (1, 2))
    chain1 = NestedChain(
        [
            LinearCode(F2, [(1, 1, 1, 1, 1, 1), (1, 1, 1, 0, 0, 0)]),
            LinearCode(F2, [(1, 1, 1, 1, 1, 1)]),
        ]
    )
    chain2 = NestedChain(
        [
            named_code("full", F2, 3, 3),
            LinearCode(F2, [(1, 1, 1)]),
        ]
    )
    outer1 = PolyalphabeticCode(F2, (1, 2), [(1, 1, 1)])
    outer2 = outer_code(F2, (1, 1))
    return space, build_gcc(space, [chain1, chain2], [outer1, outer2])


# 2^26 codewords, past the default limits
RAISED_LIMITS = Limits(max_codewords=1 << 26)


def hamming_31_under_raised_limits():
    """The binary [31, 26] Hamming code, its distance reduced under
    ``RAISED_LIMITS`` before any decoder runs."""
    code = named_code("hamming", F2, 31)
    code.min_distance(RAISED_LIMITS)
    return code


def hamming_concatenation():
    """[21, 18] over F_2: Hamming inner code on the cheap block, rate-one
    elsewhere, full outer; capability floor 1."""
    space = WeightedSpace(2, (7, 7, 7), (1, 2, 3))
    chains = [
        NestedChain([named_code("hamming", F2, 7, 4)]),
        NestedChain([named_code("full", F2, 7, 7)]),
        NestedChain([named_code("full", F2, 7, 7)]),
    ]
    outer = outer_code(F2, (4, 7, 7))
    return space, build_gcc(space, chains, [outer])
