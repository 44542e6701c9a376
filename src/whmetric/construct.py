"""Code constructions for the weighted-Hamming metric.

Two builders:

* :func:`poly_from_mother` derives a polyalphabetic code with prescribed
  symbol sizes from a monoalphabetic mother code over an extension field
  with a systematic encoder, by restricting message symbols to
  coefficient subspaces, puncturing the known zeros, and zero-padding
  the parity symbols.

* :func:`build_gcc` assembles a generalized concatenated code from one
  nested inner-code chain per block and one polyalphabetic outer code
  per level, and computes its designed weighted distance and a floor on
  its error-correction capability from the exact component distances,
  each scanned once under the given limits and cached on its code.

The capability floor evaluates, for each level j and each support of
d(A_j) blocks, the capability of the profile that puts the inner-code
distance in each chosen block; the support choice of concrete vectors is
immaterial because capability depends only on the profile.

A small search harness enumerates named component menus, assembles each
candidate through :func:`build_gcc`, and reports the Pareto frontiers of
(capability floor, dimension) and (designed distance, dimension).
"""

from __future__ import annotations

from itertools import combinations, product

from .code import (
    DEFAULT_LIMITS,
    LinearCode,
    NestedChain,
    PolyalphabeticCode,
    named_code,
    vec_add,
    vec_scale,
)
from .errors import DefectError, ParameterError
from .field import make_extension_field, make_prime_field


def poly_from_mother(mother: LinearCode, sizes) -> PolyalphabeticCode:
    """Polyalphabetic code with symbol sizes ``sizes`` from ``mother``.

    ``sizes`` must be sorted non-decreasing; the mother code must live
    over the extension of degree sizes[k-1] of the base field and be
    systematic on its first k positions.  The result has dimension
    sum(sizes[:k]) and block distance at least the mother's distance;
    neither code is scanned here, the exact block distance comes from
    the result's own :meth:`~PolyalphabeticCode.min_block_distance`.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != mother.n:
        raise ParameterError(f"need one symbol size per mother position ({mother.n})")
    if any(s < 1 for s in sizes):
        raise ParameterError("symbol sizes must be positive")
    if any(a > b for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"symbol sizes must be sorted non-decreasing, got {sizes}")
    ext = mother.field
    k = mother.k
    if sizes[k - 1] != ext.m:
        raise ParameterError(
            f"size m_k={sizes[k - 1]} must equal the mother field extension degree {ext.m}"
        )
    base = make_prime_field(ext.q)
    gsys = mother.systematic_generator()
    rows = []
    for i in range(k):
        for b in range(sizes[i]):
            codeword = vec_scale(ext, ext.q**b, gsys[i])
            flat = []
            for pos in range(mother.n):
                digits = ext.expand(codeword[pos])
                if pos < k:
                    if any(digits[sizes[pos] :]):
                        raise DefectError("systematic symbol leaked outside its subspace")
                    flat.extend(digits[: sizes[pos]])
                else:
                    flat.extend(digits)
                    flat.extend([0] * (sizes[pos] - ext.m))
            rows.append(tuple(flat))
    out = PolyalphabeticCode(base, sizes, rows)
    if out.k != sum(sizes[:k]):
        raise DefectError("derived polyalphabetic code has unexpected dimension")
    return out


def permute_symbols(poly: PolyalphabeticCode, order) -> PolyalphabeticCode:
    """Reorder the symbols of a polyalphabetic code; distance is invariant.

    ``order[i]`` names which old symbol lands at new position i.
    """
    order = list(order)
    if sorted(order) != list(range(poly.n_symbols)):
        raise ParameterError("order must be a permutation of the symbol positions")
    sizes = tuple(poly.sizes[o] for o in order)
    rows = []
    for row in poly.generator:
        symbols = poly.symbols(row)
        flat = []
        for o in order:
            flat.extend(symbols[o])
        rows.append(tuple(flat))
    return PolyalphabeticCode(poly.field, sizes, rows)


def outer_code(field, widths, family=None, k=None) -> PolyalphabeticCode:
    """Polyalphabetic outer code over ``field`` with symbol widths ``widths``.

    Without ``family`` it is the whole space (the identity generator).
    Otherwise it comes from the [m, k] ``family`` mother code over the
    extension field of degree (sorted widths)[k-1], through
    :func:`poly_from_mother`, with its symbols put back in the order of
    ``widths``.
    """
    if family is None:
        total = sum(widths)
        rows = [tuple(int(i == j) for j in range(total)) for i in range(total)]
        return PolyalphabeticCode(field, widths, rows)
    m = len(widths)
    if not 1 <= k <= m:
        raise ParameterError(f"mother dimension must be in [1, {m}], got {k}")
    order = sorted(range(m), key=lambda l: (widths[l], l))
    sorted_sizes = [widths[l] for l in order]
    ext = make_extension_field(field.q, sorted_sizes[k - 1])
    poly = poly_from_mother(named_code(family, ext, m, k), sorted_sizes)
    inverse = [0] * m
    for new, old in enumerate(order):
        inverse[old] = new
    return permute_symbols(poly, inverse)


class GccCode:
    """A generalized concatenated code: per-block nested inner chains plus
    per-level polyalphabetic outer codes.

    ``inner_distances[j][l]`` and ``outer_distances[j]`` are the exact
    component distances behind the designed distance and the capability
    floor, read from the components' own scans under ``limits``.  Build
    one with :func:`build_gcc`, which validates the components first.
    """

    def __init__(self, space, chains, outers, limits):
        self.space = space
        self.chains = tuple(chains)
        self.outers = tuple(outers)
        self.levels = len(self.outers)
        self.inner_distances = tuple(
            tuple(chain.codes[j].min_distance(limits) for chain in self.chains)
            for j in range(self.levels)
        )
        self.outer_distances = tuple(a.min_block_distance(limits) for a in self.outers)
        self.field = self.chains[0].field
        self.n = space.n
        self.k = sum(a.k for a in self.outers)
        self.designed_distance = self._designed_distance()
        self.capability_floor = self._capability_floor()
        self._generator = None
        self._linear = None

    def __repr__(self):
        return (
            f"GccCode(n={self.n}, k={self.k}, levels={self.levels}, "
            f"d>={self.designed_distance}, t>={self.capability_floor})"
        )

    def _designed_distance(self):
        best = None
        for j in range(self.levels):
            dj = self.outer_distances[j]
            weighted = sorted(
                s * d for s, d in zip(self.space.scales, self.inner_distances[j])
            )
            val = sum(weighted[:dj])
            if best is None or val < best:
                best = val
        return best

    def _capability_floor(self):
        best = None
        for j in range(self.levels):
            dj = self.outer_distances[j]
            for support in combinations(range(self.space.m), dj):
                profile = [0] * self.space.m
                for l in support:
                    profile[l] = self.inner_distances[j][l]
                t = self.space.profile_capability(profile)
                if best is None or t < best:
                    best = t
        return best

    def encode(self, messages):
        """Concatenate per-level outer codewords through the quotient encoders."""
        if len(messages) != self.levels:
            raise ParameterError(f"need {self.levels} level messages, got {len(messages)}")
        blocks = [(0,) * b for b in self.space.blocks]
        for j, (outer, msg) in enumerate(zip(self.outers, messages)):
            word = outer.encode(msg)
            symbols = outer.symbols(word)
            for l, chain in enumerate(self.chains):
                if chain.widths[j]:
                    blocks[l] = vec_add(
                        self.field, blocks[l], chain.quotient_encode(j, symbols[l])
                    )
        out = []
        for b in blocks:
            out.extend(b)
        return tuple(out)

    def split_message(self, flat):
        """Split a flat length-k message into per-level messages."""
        if len(flat) != self.k:
            raise ParameterError(f"message length {len(flat)} != dimension {self.k}")
        out, start = [], 0
        for a in self.outers:
            out.append(tuple(flat[start : start + a.k]))
            start += a.k
        return out

    def generator_rows(self):
        if self._generator is None:
            rows = []
            for flat in _unit_messages(self.k):
                rows.append(self.encode(self.split_message(flat)))
            self._generator = tuple(rows)
        return self._generator

    def as_linear_code(self) -> LinearCode:
        if self._linear is None:
            code = LinearCode(self.field, self.generator_rows())
            if code.k != self.k:
                raise DefectError(
                    f"concatenated encoder is not injective: rank {code.k} != {self.k}"
                )
            self._linear = code
        return self._linear


def _unit_messages(k):
    for i in range(k):
        row = [0] * k
        row[i] = 1
        yield tuple(row)


def build_gcc(space, chains, outers, limits=DEFAULT_LIMITS) -> GccCode:
    """Validate and assemble a generalized concatenated code; its component
    distances are exact scans admitted under ``limits``."""
    chains = list(chains)
    outers = list(outers)
    if len(chains) != space.m:
        raise ParameterError(f"need one chain per block ({space.m}), got {len(chains)}")
    if not outers:
        raise ParameterError("need at least one outer code")
    levels = len(outers)
    field = chains[0].field
    if field.order != space.q or field.m != 1:
        raise ParameterError(
            f"chain field order {field.order} does not match the space's q={space.q}"
        )
    for l, chain in enumerate(chains):
        if chain.field != field:
            raise ParameterError(f"chain for block {l + 1} uses a different field")
        if chain.n != space.blocks[l]:
            raise ParameterError(
                f"chain for block {l + 1} has length {chain.n}, block has {space.blocks[l]}"
            )
        if chain.s != levels:
            raise ParameterError(
                f"chain for block {l + 1} has {chain.s} levels, expected {levels}"
            )
    for j, outer in enumerate(outers):
        if outer.field != field:
            raise ParameterError(f"outer code at level {j + 1} uses a different field")
        expected = tuple(chain.widths[j] for chain in chains)
        if outer.sizes != expected:
            raise ParameterError(
                f"outer code at level {j + 1} has symbol sizes {outer.sizes}, "
                f"the chains give {expected}"
            )
    return GccCode(space, chains, outers, limits)


# -- search harness ----------------------------------------------------------


def _named_menu(field, n, families):
    out = {}
    for fam in families:
        fam = fam.strip().lower()
        if fam not in ("repetition", "parity", "full", "hamming"):
            raise ParameterError(f"unknown inner menu family {fam!r}")
        try:
            out[fam] = named_code(fam, field, n)
        except ParameterError:
            pass  # the family has no code of length n
    return out


def _chain_options(field, n, families, levels):
    menu = _named_menu(field, n, families)
    names = sorted(menu)
    if levels == 1:
        return [((name,), NestedChain([menu[name]])) for name in names]
    options = []

    def rec(prefix):
        if len(prefix) == levels:
            options.append((tuple(prefix), NestedChain([menu[p] for p in prefix])))
            return
        for name in names:
            if not prefix:
                rec([name])
            else:
                prev = menu[prefix[-1]]
                cand = menu[name]
                if cand.k < prev.k and cand.is_subcode_of(prev):
                    rec(prefix + [name])

    rec([])
    return options


def _outer_options(field, widths, menu):
    """(name, outer code) candidates for one level with the given symbol widths."""
    out = []
    m = len(widths)
    sorted_sizes = sorted(widths)
    for entry in menu:
        entry = entry.strip().lower()
        if entry == "full":
            out.append(("full", outer_code(field, widths)))
        elif entry == "rs":
            if sorted_sizes[0] < 1:
                continue
            for kk in range(1, m):  # kk = m is the full space, already offered
                if m > field.q ** sorted_sizes[kk - 1]:
                    continue  # no Reed-Solomon mother of length m
                out.append((f"rs:{kk}", outer_code(field, widths, "reed_solomon", kk)))
        else:
            raise ParameterError(f"unknown outer menu entry {entry!r}")
    return out


def search_constructions(space, inner_families, outer_menu, max_levels, limits=DEFAULT_LIMITS):
    """Enumerate menu assemblies; returns records sorted by (levels, spec).

    Each record is a dict with keys k, designed_distance, capability_floor,
    inner, outer, levels.  Every candidate is assembled by :func:`build_gcc`
    from exact component distances scanned under ``limits``, so the
    reported parameters are guaranteed, not estimates.
    """
    field = make_prime_field(space.q)
    records = []
    for levels in range(1, max_levels + 1):
        per_block = [
            _chain_options(field, n, inner_families, levels) for n in space.blocks
        ]
        if any(not opts for opts in per_block):
            continue
        for combo in product(*per_block):
            chains = [c for _, c in combo]
            names = [n for n, _ in combo]
            outer_choices = []
            ok = True
            for j in range(levels):
                widths = tuple(chain.widths[j] for chain in chains)
                if sum(widths) == 0:
                    ok = False
                    break
                outer_choices.append(_outer_options(field, widths, outer_menu))
            if not ok:
                continue
            for outer_combo in product(*outer_choices):
                gcc = build_gcc(space, chains, [p for _, p in outer_combo], limits)
                records.append(
                    {
                        "k": gcc.k,
                        "designed_distance": gcc.designed_distance,
                        "capability_floor": gcc.capability_floor,
                        "levels": levels,
                        "inner": tuple(names),
                        "outer": tuple(n for n, _ in outer_combo),
                    }
                )
    return records


def pareto_frontier(records, key):
    """Non-dominated (key, k) pairs, ascending in key with decreasing k."""
    best = {}
    for rec in records:
        x = rec[key]
        if x not in best or rec["k"] > best[x]:
            best[x] = rec["k"]
    out = []
    top = -1
    for x in sorted(best, reverse=True):
        if best[x] > top:
            top = best[x]
            out.append((x, top))
    return list(reversed(out))
