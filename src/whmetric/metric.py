"""Weighted-Hamming metric over a blocked ambient space.

A :class:`WeightedSpace` partitions F_q^N into blocks of lengths
``blocks`` and scales the Hamming weight of block ``l`` by the integer
``scales[l]``; scales must arrive sorted non-decreasing.  The *block
profile* of a vector (its per-block Hamming weights) fully determines
both its weighted weight and its per-vector correction capability, so
most operations here work on profiles rather than vectors.

The capability of a vector v is the largest radius t such that v cannot
be written as a difference of two vectors of weighted weight <= t.  It
equals ``min over splits r of max(wt(r), wt(v - r)) - 1`` where the
minimizing split keeps each coordinate of v or zeroes it, which reduces
the minimum to a reachable-sum dynamic program over the profile.

The heavier side of a split weighs between ceil(w / 2) and w for a
profile of weighted weight w, so its capability lies in the bracket
floor((w - 1) / 2) <= cap <= w - 1.  The difference ball and the least
capability over many profiles use the bracket to run the dynamic
program only on the profiles it leaves undecided.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb
from operator import mul

from .errors import ParameterError


def profile_leq(a, b) -> bool:
    """Componentwise partial order on block profiles."""
    if len(a) != len(b):
        raise ParameterError("profiles live in different spaces")
    return all(x <= y for x, y in zip(a, b))


@dataclass(frozen=True)
class WeightedSpace:
    """Ambient space: field order q, block lengths, per-block scales."""

    q: int
    blocks: tuple
    scales: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(int(b) for b in self.blocks))
        object.__setattr__(self, "scales", tuple(int(s) for s in self.scales))
        if not isinstance(self.q, int) or self.q < 2:
            raise ParameterError(f"field order must be an integer >= 2, got {self.q!r}")
        if len(self.blocks) < 1 or len(self.blocks) != len(self.scales):
            raise ParameterError("blocks and scales must be non-empty and equally long")
        if any(b < 1 for b in self.blocks):
            raise ParameterError("block lengths must be positive")
        if any(s < 1 for s in self.scales):
            raise ParameterError("scales must be positive integers")
        if any(x > y for x, y in zip(self.scales, self.scales[1:])):
            raise ParameterError(f"scales must be sorted non-decreasing, got {self.scales}")

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def max_weight(self) -> int:
        return sum(b * s for b, s in zip(self.blocks, self.scales))

    def block_ranges(self):
        out, start = [], 0
        for b in self.blocks:
            out.append((start, start + b))
            start += b
        return out

    # -- profiles ------------------------------------------------------

    def validate_profile(self, profile) -> tuple:
        profile = tuple(profile)
        if len(profile) != self.m:
            raise ParameterError(f"profile has {len(profile)} blocks, space has {self.m}")
        for w, b in zip(profile, self.blocks):
            if not 0 <= w <= b:
                raise ParameterError(f"profile entry {w} outside [0, {b}]")
        return profile

    def block_profile(self, v) -> tuple:
        """Per-block Hamming weights of a length-N vector."""
        if len(v) != self.n:
            raise ParameterError(f"vector has length {len(v)}, space has length {self.n}")
        out = []
        for lo, hi in self.block_ranges():
            out.append(sum(1 for x in v[lo:hi] if x))
        return tuple(out)

    def weighted_weight(self, profile) -> int:
        profile = self.validate_profile(profile)
        return sum(s * w for s, w in zip(self.scales, profile))

    def vector_weight(self, v) -> int:
        return self.weighted_weight(self.block_profile(v))

    # -- capability ------------------------------------------------------

    def profile_capability(self, profile) -> int:
        """Largest t such that no two vectors of weight <= t differ by this profile.

        Returns -1 for the zero profile.
        """
        profile = self.validate_profile(profile)
        total = self.weighted_weight(profile)
        reachable = 1  # bit s set <=> split weight s achievable
        for w, s in zip(profile, self.scales):
            acc = reachable
            cur = reachable
            for _ in range(w):
                cur <<= s
                acc |= cur
            reachable = acc
        half = total // 2
        low = (reachable & ((1 << (half + 1)) - 1)).bit_length() - 1
        return (total - low) - 1

    def vector_capability(self, v) -> int:
        return self.profile_capability(self.block_profile(v))

    def _least_capability(self, profiles) -> int:
        """Smallest capability over ``profiles``: at least one profile of
        this space, each built by the caller (an enumerator's keys, or
        profiles of component distances).

        The profiles are walked in increasing weighted weight w, and the
        walk stops at the first whose floor((w - 1) / 2) reaches the least
        capability found so far: no profile from there on can have a
        smaller one.  Only the profiles before the stop run
        :meth:`profile_capability`, which validates them.
        """
        scales = self.scales
        best = None
        for w, profile in sorted((sum(map(mul, scales, p)), p) for p in profiles):
            if best is not None and (w - 1) // 2 >= best:
                break
            cap = self.profile_capability(profile)
            if best is None or cap < best:
                best = cap
        return best

    # -- balls -----------------------------------------------------------

    def ball_profiles(self, t: int) -> list:
        """Profiles attained by vectors of weighted weight <= t, in lex order."""
        if t < 0:
            raise ParameterError("radius must be non-negative")
        scales = self.scales
        profiles = product(*(range(b + 1) for b in self.blocks))
        return [prof for prof in profiles if sum(map(mul, scales, prof)) <= t]

    def diff_ball_profiles(self, t: int) -> list:
        """Profiles of differences of two radius-t vectors, in lex order.

        A profile belongs to the difference set iff its capability is
        at most t - 1.  By the bracket floor((w - 1) / 2) <= cap <= w - 1
        on a profile of weighted weight w, it does when w <= t and does
        not when floor((w - 1) / 2) >= t; only the profiles in between
        run the dynamic program.
        """
        if t < 0:
            raise ParameterError("radius must be non-negative")
        scales = self.scales
        out = []
        for prof in product(*(range(b + 1) for b in self.blocks)):
            w = sum(map(mul, scales, prof))
            if w <= t or ((w - 1) // 2 < t and self.profile_capability(prof) < t):
                out.append(prof)
        return out

    def profile_count(self, profile) -> int:
        """Number of vectors with the given block profile."""
        profile = self.validate_profile(profile)
        out = 1
        for b, w in zip(self.blocks, profile):
            out *= comb(b, w) * (self.q - 1) ** w
        return out

    def ball_size(self, t: int) -> int:
        return sum(self.profile_count(p) for p in self.ball_profiles(t))

    def diff_ball_size(self, t: int) -> int:
        return sum(self.profile_count(p) for p in self.diff_ball_profiles(t))
