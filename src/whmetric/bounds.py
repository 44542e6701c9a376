"""Dimension bounds for a given error-correction capability.

Four bounds on the largest dimension k of a linear code in a weighted
space that corrects every error of weighted weight up to t:

* packing: volume bound from the weighted ball,
* covering: existence bound from the ball's difference set,
* singleton: capability of the forced low-support codeword,
* lp: Delsarte-style linear program over block-weight enumerators with
  Krawtchouk coefficient constraints, presolved and solved exactly; the
  witness is re-checked against the unreduced constraints.  Every
  radius poses the same rows, so a bound table solves its radii as one
  downward sweep on one tableau, each radius unlocking the entries it
  frees.

Packing and covering round through exact integer power comparisons, and
the LP optimum is converted to a dimension by exact comparison against
powers of q; no floating-point logarithms anywhere, because several of
the interesting data points sit within a hair of a power of q.

Also here: the conversions between minimum weighted distance and
capability (the floor bracket and the sufficient 2t + 1 distance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .enumerator import krawtchouk_tables
from .errors import DefectError, ParameterError
from .metric import WeightedSpace
from .ratlp import LinearProgram, _verify, solve_sweep


def _check_radius(t):
    if not isinstance(t, int) or t < 0:
        raise ParameterError(f"capability must be a non-negative integer, got {t!r}")


def packing_bound(space: WeightedSpace, t: int) -> int:
    """Largest k with q^k * |ball(t)| <= q^N."""
    _check_radius(t)
    q, n = space.q, space.n
    size = space.ball_size(t)
    target = q**n
    k = 0
    while k < n and q ** (k + 1) * size <= target:
        k += 1
    return k


def covering_bound(space: WeightedSpace, t: int) -> int:
    """Smallest k with q^k * |diff_ball(t)| >= q^N; a code of this
    dimension and capability t exists."""
    _check_radius(t)
    q, n = space.q, space.n
    size = space.diff_ball_size(t)
    target = q**n
    k = 0
    while q**k * size < target:
        k += 1
    return k


def _singleton_profile(space: WeightedSpace, k: int):
    support = space.n - k + 1
    profile = []
    for b in space.blocks:
        w = min(b, support)
        profile.append(w)
        support -= w
    return tuple(profile)


def singleton_bound(space: WeightedSpace, k: int) -> int:
    """Capability ceiling for any k-dimensional code: every such code has
    a codeword supported on the first N - k + 1 coordinates."""
    if not isinstance(k, int) or not 1 <= k <= space.n:
        raise ParameterError(f"dimension must be an integer in [1, {space.n}], got {k!r}")
    return space.profile_capability(_singleton_profile(space, k))


def singleton_k_for_t(space: WeightedSpace, t: int) -> int:
    """Largest dimension whose singleton capability ceiling is >= t."""
    _check_radius(t)
    for k in range(space.n, 0, -1):
        if singleton_bound(space, k) >= t:
            return k
    return 0


def _free_entries(space: WeightedSpace, profiles, t: int):
    """Indices of the profiles whose enumerator entry the LP at radius t
    leaves free: every profile but zero and those in the difference ball."""
    fixed = set(space.diff_ball_profiles(t))
    fixed.add(profiles[0])  # the zero profile: A_0 = 1
    return [i for i, p in enumerate(profiles) if p not in fixed]


def _assemble_lp(space: WeightedSpace, t: int):
    """The Delsarte LP for capability t, with its fixed variables presolved.

    The unknowns are the block-weight enumerator entries A_i of a code,
    one per profile i.  A_0 = 1, and A_p = 0 for every nonzero profile p
    in the difference ball of radius t, since two codewords never
    differ by such a profile.  Substituting those out leaves the free
    entries x with K(j, 0) + sum_i K(j, i) x_i >= 0 for every profile j,
    posed as -K'x <= K(j, 0), where K(j, 0) > 0.  The j = 0 row reads
    sum x >= -1 and always holds, so it is dropped.  The code size is
    1 + sum x; the LP maximizes sum x.

    Returns (lp, kmat, free, profiles): the LP (None when no entry is
    free), the full Krawtchouk matrix kmat[j][i] in profile order, the
    profile index of each LP variable, and the profiles in that order.
    """
    profiles = list(product(*(range(b + 1) for b in space.blocks)))
    free = _free_entries(space, profiles, t)

    ktab = krawtchouk_tables(space.q, space.blocks)
    kmat = []
    for jprof in profiles:
        row = []
        for iprof in profiles:
            coeff = 1
            for l in range(space.m):
                coeff *= ktab[l][jprof[l]][iprof[l]]
            row.append(coeff)
        kmat.append(row)

    if not free:
        return None, kmat, free, profiles
    rows = [([-krow[i] for i in free], krow[0]) for krow in kmat[1:]]
    return LinearProgram(objective=[1] * len(free), rows=rows), kmat, free, profiles


def _check_enumerator(kmat, enumerator):
    """Re-substitute an LP witness into the unreduced Delsarte rows."""
    den = lcm(*(a.denominator for a in enumerator))
    ints = [a.numerator * (den // a.denominator) for a in enumerator]
    if any(a < 0 for a in ints):
        raise DefectError("LP witness has a negative enumerator entry")
    support = [(i, a) for i, a in enumerate(ints) if a]
    for krow in kmat:
        if sum(krow[i] * a for i, a in support) < 0:
            raise DefectError("LP witness violates a Delsarte constraint")


def _lp_sweep(space: WeightedSpace, radii):
    """Yield (k, optimum) of the LP bound at each of the descending ``radii``.

    Every radius poses the same rows, and a larger radius only fixes
    more entries at zero, so one tableau serves them all: the LP is
    assembled at the smallest radius and each radius is a stage of
    :func:`~whmetric.ratlp.solve_sweep` that unlocks the entries it
    frees.  A radius with no free entry has optimum 1 and no LP.  A
    radius that frees every nonzero entry (t = 0) has optimum q^N and
    no simplex either: the whole space's enumerator is the witness, and
    the all-ones dual certifies it, since sum_j K(j, i) = q^N [i = 0].
    Each witness is re-checked against the unreduced rows.
    """
    lp, kmat, free, profiles = _assemble_lp(space, radii[-1])
    column = {i: c for c, i in enumerate(free)}
    stages = [[column[i] for i in _free_entries(space, profiles, t)] for t in radii]
    whole = len(profiles) - 1
    swept = [s for s in stages if 0 < len(s) < whole]
    results = solve_sweep(lp, swept) if swept else None
    for stage in stages:
        enumerator = [Fraction(0)] * len(kmat)
        enumerator[0] = Fraction(1)
        if len(stage) == whole:
            counts = [space.profile_count(profiles[i]) for i in free]
            _verify(lp, counts, [1] * len(lp.rows), 1)
            for i, a in zip(free, counts):
                enumerator[i] = Fraction(a)
        elif stage:
            result = next(results)
            if result.status != "optimal":
                raise DefectError(
                    f"capability LP reported {result.status}; it is always feasible and bounded"
                )
            for c, x in zip(stage, result.solution):
                enumerator[free[c]] = x
        _check_enumerator(kmat, enumerator)
        opt = sum(enumerator)
        k = 0
        while k < space.n and Fraction(space.q) ** (k + 1) <= opt:
            k += 1
        yield k, opt


def lp_bound_detail(space: WeightedSpace, t: int):
    """LP dimension bound together with the exact rational LP optimum."""
    _check_radius(t)
    return next(_lp_sweep(space, [t]))


def lp_bound(space: WeightedSpace, t: int) -> int:
    return lp_bound_detail(space, t)[0]


def capability_range_from_distance(space: WeightedSpace, d: int):
    """Bracket on the capability of a code with minimum weighted distance d."""
    if not isinstance(d, int) or d < 1:
        raise ParameterError(f"distance must be a positive integer, got {d!r}")
    lam_max = space.scales[-1]
    return (d - 1) // 2, (d + lam_max) // 2 - 1


def distance_required_for_capability(t: int) -> int:
    """A minimum weighted distance of 2t + 1 guarantees capability >= t."""
    _check_radius(t)
    return 2 * t + 1


# -- bound tables ------------------------------------------------------------


@dataclass(frozen=True)
class BoundRow:
    t: int
    packing: int
    singleton: int
    lp: int
    covering: int
    lp_optimum: Fraction


@dataclass(frozen=True)
class BoundTable:
    space: WeightedSpace
    rows: tuple

    def __post_init__(self):
        prev = None
        for row in self.rows:
            if row.covering > row.packing:
                raise DefectError(f"covering exceeds packing at t={row.t}")
            if prev is not None:
                for name in ("packing", "singleton", "lp", "covering"):
                    if getattr(row, name) > getattr(prev, name):
                        raise DefectError(f"{name} bound increased from t={prev.t} to t={row.t}")
            prev = row

    def to_csv(self) -> str:
        lines = ["t,packing,singleton,lp,covering"]
        for r in self.rows:
            lines.append(f"{r.t},{r.packing},{r.singleton},{r.lp},{r.covering}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        out = [
            {
                "t": r.t,
                "packing": r.packing,
                "singleton": r.singleton,
                "lp": r.lp,
                "covering": r.covering,
                "lp_optimum": str(r.lp_optimum),
            }
            for r in self.rows
        ]
        return json.dumps(out, indent=2) + "\n"


def build_bound_table(space: WeightedSpace, t_min: int, t_max: int) -> BoundTable:
    """The four bounds at every radius t_min..t_max; the LP bounds come
    from one downward sweep, t_max first."""
    _check_radius(t_min)
    if not isinstance(t_max, int):
        raise ParameterError(f"capability must be an integer, got {t_max!r}")
    radii = range(t_max, t_min - 1, -1)
    lp = list(_lp_sweep(space, radii))[::-1] if radii else []
    rows = []
    for t, (lp_k, lp_opt) in zip(range(t_min, t_max + 1), lp):
        rows.append(
            BoundRow(
                t=t,
                packing=packing_bound(space, t),
                singleton=singleton_k_for_t(space, t),
                lp=lp_k,
                covering=covering_bound(space, t),
                lp_optimum=lp_opt,
            )
        )
    return BoundTable(space=space, rows=tuple(rows))
