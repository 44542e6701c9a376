"""Exact ground truth for codes in a weighted space.

Everything here is exact: minimum weighted distance, error-correction
capability and block-weight enumerators are reductions of one split
weight enumerator, :func:`whmetric.code.split_weight_enumerator`, which
scans the code or its dual (whichever is smaller) and is admitted on the
code's own size under a :class:`~whmetric.code.Limits`.  Ambient ball
counts and end-to-end decoder verification enumerate exhaustively,
checked against the same object's ``max_ambient``.  Enumerations that
would exceed a limit are refused outright.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from operator import mul

from .code import DEFAULT_LIMITS, split_weight_enumerator, vec_add
from .construct import GccCode
from .decode import gcc_decode
from .errors import ExhaustionError, ParameterError


def block_weight_enumerator(code, space, limits=DEFAULT_LIMITS) -> dict:
    """Map block profile -> number of codewords attaining it."""
    if code.n != space.n:
        raise ParameterError(f"code length {code.n} != space length {space.n}")
    return split_weight_enumerator(code, space.blocks, limits)


def _nonzero_profiles(code, space, limits):
    """The enumerator's keys after its first, the zero profile."""
    return list(block_weight_enumerator(code, space, limits))[1:]


def exact_min_weighted_distance(code, space, limits=DEFAULT_LIMITS) -> int:
    """Minimum weighted weight over the nonzero codewords: each profile's
    dot product with the scales, the enumerator's keys being profiles of
    ``space`` already."""
    scales = space.scales
    return min(sum(map(mul, scales, p)) for p in _nonzero_profiles(code, space, limits))


def exact_capability(code, space, limits=DEFAULT_LIMITS) -> int:
    """Exact error-correction capability: the smallest capability of a
    nonzero codeword's profile.

    A profile of weighted weight w has capability in the bracket
    floor((w - 1) / 2) <= cap <= w - 1, so the profiles are walked in
    increasing weight and the walk stops once floor((w - 1) / 2) reaches
    the least capability found
    (:meth:`~whmetric.metric.WeightedSpace._least_capability`); the
    dynamic program runs only on the profiles before the stop."""
    return space._least_capability(_nonzero_profiles(code, space, limits))


def exhaustive_unique_correction_check(code, space, t, limits=DEFAULT_LIMITS) -> bool:
    """True iff the code corrects every weighted error of weight <= t
    uniquely, i.e. no nonzero codeword lies in the radius-t difference set."""
    if t < 0:
        raise ParameterError("radius must be non-negative")
    return exact_capability(code, space, limits) >= t


def ambient_ball_count(space, t, limits=DEFAULT_LIMITS) -> int:
    """|{v : weighted weight <= t}| by direct enumeration of the whole
    ambient space; deliberately independent of the profile-sum formula."""
    total = space.q**space.n
    if total > limits.max_ambient:
        raise ExhaustionError(
            f"exhaustion refused: ambient space of {total} exceeds the limit {limits.max_ambient}"
        )
    scaled = []
    for (lo, hi), s in zip(space.block_ranges(), space.scales):
        scaled.extend([s] * (hi - lo))
    count = 0
    for v in product(range(space.q), repeat=space.n):
        weight = sum(s for x, s in zip(v, scaled) if x)
        if weight <= t:
            count += 1
    return count


def weighted_error_vectors(space, t):
    """All vectors of weighted weight <= t, zero first, otherwise grouped
    by support block."""
    yield (0,) * space.n
    ranges = space.block_ranges()

    def rec(l, budget, prefix):
        if l == space.m:
            yield tuple(prefix)
            return
        lo, hi = ranges[l]
        width = hi - lo
        scale = space.scales[l]
        top = min(width, budget // scale)
        for w in range(top + 1):
            for positions in combinations(range(width), w):
                for values in product(range(1, space.q), repeat=w):
                    block = [0] * width
                    for p, v in zip(positions, values):
                        block[p] = v
                    yield from rec(l + 1, budget - w * scale, prefix + block)

    for v in rec(0, t, []):
        if any(v):
            yield v


@dataclass
class DecoderCheckReport:
    trials: int
    failures: int
    first_failure: tuple  # (codeword, error) or None

    @property
    def ok(self):
        return self.failures == 0


def exhaustive_decoder_check(
    gcc: GccCode, t, limits=DEFAULT_LIMITS, seed=1, sample_size=100
) -> DecoderCheckReport:
    """Decode c + e for every weighted error of weight <= t around every
    codeword (a seeded sample of ``sample_size`` codewords above 2^10 of
    them); reports the decoding failures.  The errors are the radius-t
    ball, so the trials are counted from its size and refused before any
    error is listed."""
    if t < 0:
        raise ParameterError("radius must be non-negative")
    if not isinstance(sample_size, int) or sample_size < 1:
        raise ParameterError(f"sample_size must be a positive integer, got {sample_size!r}")
    space = gcc.space
    total_codewords = gcc.field.order**gcc.k
    checked = total_codewords if total_codewords <= 1 << 10 else sample_size
    planned = space.ball_size(t) * checked
    if planned > limits.max_ambient:
        raise ExhaustionError(
            f"exhaustion refused: {planned} trials exceeds the limit {limits.max_ambient}"
        )
    errors = list(weighted_error_vectors(space, t))
    if total_codewords <= 1 << 10:
        codewords = list(gcc.as_linear_code().codewords())
    else:
        rng = random.Random(seed)
        codewords = []
        for _ in range(sample_size):
            flat = tuple(rng.randrange(gcc.field.order) for _ in range(gcc.k))
            codewords.append(gcc.encode(gcc.split_message(flat)))
    trials = 0
    failures = 0
    first_failure = None
    for c in codewords:
        for e in errors:
            r = vec_add(gcc.field, c, e)
            report = gcc_decode(gcc, r)
            trials += 1
            if report.codeword != c or not report.ok:
                failures += 1
                if first_failure is None:
                    first_failure = (c, e)
    return DecoderCheckReport(trials=trials, failures=failures, first_failure=first_failure)
