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
  each admitted under the given limits and reduced from its code's split
  weight enumerator, which is scanned once per code.

The capability floor evaluates, for each level j and each support of
d(A_j) blocks, the capability of the profile that puts the inner-code
distance in each chosen block; the support choice of concrete vectors is
immaterial because capability depends only on the profile.

Components are named in one spec grammar, :func:`parse_code_spec` for
inner codes and :func:`parse_outer_spec` for outer codes, which the
CLI's ``[gcc]`` section and the search harness share.  The harness
parses each menu entry once per block length or symbol widths, assembles
each candidate through :func:`build_gcc`, and reports the Pareto
frontiers of (capability floor, dimension) and (designed distance,
dimension).
"""

from __future__ import annotations

import os
from itertools import combinations, product

from .code import (
    DEFAULT_LIMITS,
    LinearCode,
    NestedChain,
    PolyalphabeticCode,
    load_matrix_file,
    named_code,
    vec_add,
    vec_scale,
)
from .errors import DefectError, ParameterError
from .field import make_extension_field, make_prime_field
from .linalg import identity_rows


def poly_from_mother(mother: LinearCode, sizes) -> PolyalphabeticCode:
    """Polyalphabetic code with symbol sizes ``sizes`` from ``mother``.

    ``sizes`` must be sorted non-decreasing; the mother code must live
    over the extension of degree sizes[k-1] of the base field and be
    systematic on its first k positions.  The result has dimension
    sum(sizes[:k]) and block distance at least the mother's distance;
    neither code is scanned here, the exact block distance comes from
    the result's own :meth:`~PolyalphabeticCode.min_block_distance`.
    The derived rows restrict to the identity on the sum(sizes[:k])
    information coordinates, which is checked, so they are independent
    and are not reduced again.
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
    info = len(rows)  # sum(sizes[:k]) coordinates carry the message
    if any(row[:info] != unit for row, unit in zip(rows, identity_rows(info))):
        raise DefectError("derived polyalphabetic code has unexpected dimension")
    return PolyalphabeticCode._from_basis(base, sizes, rows)


def permute_symbols(poly: PolyalphabeticCode, order) -> PolyalphabeticCode:
    """Reorder the symbols of a polyalphabetic code; distance is invariant.

    ``order[i]`` names which old symbol lands at new position i.  The
    permutation maps each codeword's set of nonzero symbols one-to-one,
    so the image keeps a reference to the code its distance is scanned
    on (``poly``, or the code ``poly`` was itself permuted from), and its
    :meth:`~PolyalphabeticCode.min_block_distance` reads that code's.
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
    image = PolyalphabeticCode._from_basis(poly.field, sizes, rows)
    image._source = poly._source or poly
    return image


# (field, family, k, sorted widths) -> the sorted-order code outer_code
# permutes: codes are immutable, and every order of the same widths shares
# its block distance.
_MOTHER_OUTERS = {}


def outer_code(field, widths, family=None, k=None) -> PolyalphabeticCode:
    """Polyalphabetic outer code over ``field`` with symbol widths ``widths``.

    Without ``family`` it is the whole space: the identity generator,
    whose rows :func:`~whmetric.linalg.identity_rows` builds once per length.
    Otherwise it comes from the [m, k] ``family`` mother code over the
    extension field of degree (sorted widths)[k-1], through
    :func:`poly_from_mother`, with its symbols put back in the order of
    ``widths`` by :func:`permute_symbols`.

    Reordering symbols never changes the block distance, so the sorted
    code is built once per (field, family, k, sorted widths) and kept for
    the life of the process; every call returns a new permuted image of
    it, whose block distance is the kept code's, scanned at most once.
    A build that fails is not kept and raises again on the next call.
    """
    if family is None:
        return PolyalphabeticCode._from_basis(field, widths, identity_rows(sum(widths)))
    m = len(widths)
    if not 1 <= k <= m:
        raise ParameterError(f"mother dimension must be in [1, {m}], got {k}")
    order = sorted(range(m), key=lambda l: (widths[l], l))
    sorted_sizes = tuple(widths[l] for l in order)
    key = (field, family, k, sorted_sizes)
    poly = _MOTHER_OUTERS.get(key)
    if poly is None:
        ext = make_extension_field(field.q, sorted_sizes[k - 1])
        poly = _MOTHER_OUTERS[key] = poly_from_mother(named_code(family, ext, m, k), sorted_sizes)
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
        """The least capability over the profiles that put level j's inner
        distances on a support of d(A_j) blocks, for every level and
        support.  A profile of weighted weight w has capability in the
        bracket floor((w - 1) / 2) <= cap <= w - 1, so the profiles are
        walked in increasing weight and the walk stops once
        floor((w - 1) / 2) reaches the least capability found
        (:meth:`~whmetric.metric.WeightedSpace._least_capability`)."""
        m = self.space.m
        profiles = []
        for j in range(self.levels):
            inner = self.inner_distances[j]
            for support in combinations(range(m), self.outer_distances[j]):
                profiles.append(tuple(inner[l] if l in support else 0 for l in range(m)))
        return self.space._least_capability(profiles)

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
            units = (tuple(int(i == j) for j in range(self.k)) for i in range(self.k))
            self._generator = tuple(self.encode(self.split_message(u)) for u in units)
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


# -- code-spec grammar -------------------------------------------------------


def _spec_int(text, spec):
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"expected an integer, got {text!r} in spec {spec!r}") from None


def _parse_rows(text):
    rows = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        tokens = chunk.split(",") if "," in chunk else chunk
        rows.append(tuple(_spec_int(tok, text) for tok in tokens))
    if not rows:
        raise ParameterError("rows: spec contains no rows")
    return rows


def parse_code_spec(field, spec, expected_n, base_dir="."):
    """One inner-code spec of length ``expected_n``: a named family
    ``<family>[:<n>[:<k>]]``, inline ``rows:``, or ``file:<path>`` relative
    to ``base_dir``."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "rows":
        code = LinearCode(field, _parse_rows(rest))
    elif head == "file":
        code = load_matrix_file(os.path.join(base_dir, rest.strip()))
        if code.field != field:
            raise ParameterError(f"matrix file {rest!r} is over a different field")
    else:
        parts = [p for p in rest.split(":") if p]
        if len(parts) > 2:
            raise ParameterError(f"family spec needs <family>[:<n>[:<k>]], got {spec!r}")
        n = _spec_int(parts[0], spec) if parts else expected_n
        k = _spec_int(parts[1], spec) if len(parts) == 2 else None
        if n != expected_n:  # refused before building, so no long code is ever built
            raise ParameterError(f"code spec {spec!r} has length {n}, expected {expected_n}")
        code = named_code(head, field, n, k)
    if code.n != expected_n:
        raise ParameterError(f"code spec {spec!r} has length {code.n}, expected {expected_n}")
    return code


def parse_outer_spec(field, spec, widths, base_dir="."):
    """One outer-code spec for a level with the given symbol widths:
    ``full``, ``mother:<family>:<n>:<k>``, or a ``rows:`` or ``file:``
    inner spec of length sum(widths), grouped into the widths."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head == "full":
        return outer_code(field, widths)
    if head == "mother":
        parts = [p for p in rest.split(":") if p]
        if len(parts) != 3:
            raise ParameterError(f"mother spec needs mother:<family>:<n>:<k>, got {spec!r}")
        family, n, k = parts[0], _spec_int(parts[1], spec), _spec_int(parts[2], spec)
        if n != len(widths):
            raise ParameterError(f"mother length {n} must equal the block count {len(widths)}")
        return outer_code(field, widths, family, k)
    if head not in ("rows", "file"):
        raise ParameterError(f"unknown outer spec {spec!r}")
    code = parse_code_spec(field, spec, sum(widths), base_dir)
    return PolyalphabeticCode(field, widths, code.generator)


# -- search harness ----------------------------------------------------------


class _Menu:
    """One ``[search]`` menu: its entries, and the first error of each entry
    that has given no code yet.  An entry with no code where it is tried is
    skipped there; :meth:`check` raises for one that gave a code nowhere."""

    def __init__(self, entries):
        self.entries = list(entries)
        if not self.entries:
            raise ParameterError("a search menu needs at least one entry")
        self._failures = {}  # entry -> its first error, or None once it gave a code

    def codes(self, pairs, parse):
        """(spec, code) for each (entry, spec) pair that ``parse`` turns into a code."""
        out = []
        for entry, spec in pairs:
            try:
                out.append((spec, parse(spec)))
            except ParameterError as exc:
                self._failures.setdefault(entry, exc)
            else:
                self._failures[entry] = None
        return out

    def check(self):
        for entry, exc in self._failures.items():
            if exc is not None:
                raise ParameterError(f"menu entry {entry!r} gives no code: {exc}")


def _chain_options(menu, levels):
    """(specs, chain) candidates: ``levels`` codes of ``menu`` ({spec: code}),
    each a proper subcode of the one before."""
    names = sorted(menu)
    options = []

    def rec(prefix):
        if len(prefix) == levels:
            options.append((tuple(prefix), NestedChain([menu[p] for p in prefix])))
            return
        prev = menu[prefix[-1]] if prefix else None
        for name in names:
            cand = menu[name]
            if prev is None or (cand.k < prev.k and cand.is_subcode_of(prev)):
                rec(prefix + [name])

    rec([])
    return options


def _outer_options(field, widths, menu, base_dir="."):
    """(spec, outer code) candidates for one level with the given symbol
    widths; ``menu`` is a :class:`_Menu` of outer specs.

    A bare family name other than ``full`` stands for
    ``mother:<family>:<m>:<k>`` for k = 1..m-1, m the symbol count.
    """
    m = len(widths)
    pairs = []
    for entry in menu.entries:
        if ":" in entry or entry.strip().lower() == "full":
            pairs.append((entry, entry))
        else:
            pairs.extend((entry, f"mother:{entry}:{m}:{k}") for k in range(1, m))
    return menu.codes(pairs, lambda spec: parse_outer_spec(field, spec, widths, base_dir))


def search_constructions(
    space, inner_menu, outer_menu, max_levels, limits=DEFAULT_LIMITS, base_dir="."
):
    """Enumerate menu assemblies; returns records sorted by (levels, spec).

    Inner entries are code specs, parsed and chained once per distinct
    block length; outer entries are outer specs (see :func:`_outer_options`),
    parsed once per symbol widths; ``file:`` paths resolve against
    ``base_dir``.  An entry with no code at a length or widths is skipped
    there, and one with a code nowhere raises its first error.  Each record
    is a dict with keys k, designed_distance, capability_floor, levels, and
    the inner and outer specs, so it can be written back as a ``[gcc]``
    section.  Candidates are assembled by :func:`build_gcc` from exact
    component distances scanned under ``limits``, so the reported
    parameters are guaranteed.
    """
    if max_levels < 1:
        raise ParameterError(f"max_levels must be at least 1, got {max_levels}")
    field = make_prime_field(space.q)
    inner, outer = _Menu(inner_menu), _Menu(outer_menu)
    pairs = [(entry, entry) for entry in inner.entries]
    inner_codes = {}  # block length -> {spec: code}
    for n in dict.fromkeys(space.blocks):
        inner_codes[n] = dict(inner.codes(pairs, lambda s: parse_code_spec(field, s, n, base_dir)))
    inner.check()
    records = []
    # Many chain combinations share a level's widths, and codes are
    # immutable, so each widths tuple gets one outer menu per call.
    outer_menus = {}
    for levels in range(1, max_levels + 1):
        per_length = {n: _chain_options(codes, levels) for n, codes in inner_codes.items()}
        per_block = [per_length[n] for n in space.blocks]
        if not all(per_block):
            break  # every longer chain extends a chain of this many levels
        for combo in product(*per_block):
            names, chains = zip(*combo)
            outer_choices = []
            for widths in zip(*(chain.widths for chain in chains)):  # one per level
                if widths not in outer_menus:
                    outer_menus[widths] = _outer_options(field, widths, outer, base_dir)
                outer_choices.append(outer_menus[widths])
            for outer_combo in product(*outer_choices):
                gcc = build_gcc(space, chains, [p for _, p in outer_combo], limits)
                records.append(
                    {
                        "k": gcc.k,
                        "designed_distance": gcc.designed_distance,
                        "capability_floor": gcc.capability_floor,
                        "levels": levels,
                        "inner": names,
                        "outer": tuple(n for n, _ in outer_combo),
                    }
                )
    outer.check()
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
