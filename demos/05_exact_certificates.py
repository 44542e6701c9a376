#!/usr/bin/env python3
"""Certifying code parameters by exhaustion.

Designed distances and capability floors are guaranteed lower bounds;
on desk-scale instances the oracle module can do better and certify the
exact values by enumerating every codeword, and can verify the decoder
against every error pattern inside the promised radius.
"""

from itertools import combinations, product

from whmetric import (
    LinearCode,
    NestedChain,
    PolyalphabeticCode,
    WeightedSpace,
    build_gcc,
    exact_capability,
    exact_min_weighted_distance,
    exhaustive_decoder_check,
    exhaustive_unique_correction_check,
    make_prime_field,
    named_code,
)
from whmetric.bounds import covering_bound, packing_bound, singleton_k_for_t

F2 = make_prime_field(2)

space = WeightedSpace(q=2, blocks=(3, 3), scales=(1, 2))
chains = [
    NestedChain([named_code("repetition", F2, 3, 1)]),
    NestedChain([named_code("full", F2, 3, 3)]),
]
rows = [tuple(int(i == j) for j in range(4)) for i in range(4)]
gcc = build_gcc(space, chains, [PolyalphabeticCode(F2, (1, 3), rows)])
code = gcc.as_linear_code()
print(f"code: {gcc}")

d = exact_min_weighted_distance(code, space)
t = exact_capability(code, space)
print(f"\nexact minimum weighted distance: {d} (designed: {gcc.designed_distance})")
print(f"exact capability               : {t} (floor   : {gcc.capability_floor})")
print(f"bracket check: {(d - 1) // 2} <= {t} <= {(d + space.scales[-1]) // 2 - 1}")

# capability == the largest radius whose difference set misses the code
for radius in range(t + 2):
    ok = exhaustive_unique_correction_check(code, space, radius)
    print(f"uniquely corrects radius {radius}: {ok}")

# the decoder delivers the promised radius on every codeword/error pair
report = exhaustive_decoder_check(gcc, t)
print(f"\ndecoder check at t={t}: {report.trials} trials, {report.failures} failures")
report = exhaustive_decoder_check(gcc, t + 1)
print(f"decoder check at t={t + 1}: {report.trials} trials, {report.failures} failures (expected)")

# where this code sits against the dimension bounds at its capability
print(
    f"\nbounds at t={t}: covering {covering_bound(space, t)} <= k={gcc.k} <= "
    f"packing {packing_bound(space, t)}, singleton {singleton_k_for_t(space, t)}"
)

# A low-rate code at size: the [32, 16] Reed-Muller code RM(2, 5), the
# evaluations of the monomials of degree <= 2 in five variables.  It is
# its own dual, so its split weight enumerator is scanned directly, over
# all 2^16 codewords, and d and t are read from that one scan.
points = list(product((0, 1), repeat=5))
monomials = [()] + [(i,) for i in range(5)] + list(combinations(range(5), 2))
rm = LinearCode(F2, [tuple(int(all(x[i] for i in mono)) for x in points) for mono in monomials])
halves = WeightedSpace(q=2, blocks=(16, 16), scales=(1, 2))
d = exact_min_weighted_distance(rm, halves)
t = exact_capability(rm, halves)
print(f"\nRM(2, 5) = [{rm.n}, {rm.k}] on {halves}: {2**rm.k} codewords scanned, d = {d}, t = {t}")
