from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    F2,
    hamming_concatenation,
    mixed_code_from_parity_mother,
    three_block_code,
    two_block_code,
    two_level_code,
)
from whmetric import code as code_module
from whmetric import construct as construct_module
from whmetric.code import Limits, NestedChain, PolyalphabeticCode, named_code
from whmetric.construct import (
    _Menu,
    _outer_options,
    build_gcc,
    outer_code,
    pareto_frontier,
    parse_code_spec,
    parse_outer_spec,
    permute_symbols,
    poly_from_mother,
    search_constructions,
)
from whmetric.errors import ExhaustionError, ParameterError
from whmetric.field import make_extension_field, make_prime_field
from whmetric.metric import WeightedSpace
from whmetric.oracle import exact_capability, exact_min_weighted_distance


def test_mixed_code_from_parity_mother():
    for q in (2, 7):
        poly = mixed_code_from_parity_mother(q)
        assert poly.k == 3
        assert poly.min_block_distance() == 2


def test_poly_from_mother_equal_sizes_is_plain_expansion():
    ext = make_extension_field(2, 2)
    mother = named_code("parity", ext, 3, 2)
    poly = poly_from_mother(mother, (2, 2, 2))
    assert poly.k == 4
    assert poly.sizes == (2, 2, 2)
    assert poly.min_block_distance() >= mother.min_distance()


def test_poly_from_mother_padded_parity_symbol():
    ext = make_extension_field(2, 2)
    mother = named_code("parity", ext, 3, 2)
    poly = poly_from_mother(mother, (1, 2, 2))
    assert poly.k == 3
    assert poly.min_block_distance() == 2


def test_poly_from_mother_rejects_bad_sizes():
    ext = make_extension_field(2, 2)
    mother = named_code("parity", ext, 3, 2)
    with pytest.raises(ParameterError):
        poly_from_mother(mother, (3, 2, 1))  # unsorted
    with pytest.raises(ParameterError):
        poly_from_mother(mother, (1, 3, 3))  # m_k != extension degree
    with pytest.raises(ParameterError):
        poly_from_mother(mother, (1, 2))  # wrong length


def test_permute_symbols_preserves_distance():
    poly = mixed_code_from_parity_mother(2)
    shuffled = permute_symbols(poly, [2, 0, 1])
    assert shuffled.sizes == (3, 1, 2)
    assert shuffled.min_block_distance() == poly.min_block_distance()
    assert shuffled.k == poly.k


def test_three_block_assembly():
    space, gcc = three_block_code()
    assert (gcc.n, gcc.k) == (9, 3)
    assert gcc.designed_distance == 6
    assert exact_min_weighted_distance(gcc.as_linear_code(), space) == 6


def test_two_block_assembly():
    space, gcc = two_block_code()
    assert (gcc.n, gcc.k) == (6, 4)
    assert gcc.designed_distance == 2
    assert gcc.capability_floor == 1


def test_two_level_assembly():
    space, gcc = two_level_code()
    assert (gcc.n, gcc.k) == (9, 3)
    assert gcc.designed_distance == 5
    assert gcc.capability_floor == 2


def test_hamming_concatenation_parameters():
    space, gcc = hamming_concatenation()
    assert (gcc.n, gcc.k) == (21, 18)
    assert gcc.capability_floor == 1


def test_capability_floor_trivial_when_everything_is_rate_one():
    space = WeightedSpace(2, (3, 3), (1, 1))
    chains = [
        NestedChain([named_code("full", F2, 3, 3)]),
        NestedChain([named_code("full", F2, 3, 3)]),
    ]
    gcc = build_gcc(space, chains, [outer_code(F2, (3, 3))])
    assert gcc.capability_floor == 0


def test_encoding_injective_and_spans_claimed_dimension():
    space, gcc = two_block_code()
    seen = set()
    for flat in product(range(2), repeat=gcc.k):
        seen.add(gcc.encode(gcc.split_message(flat)))
    assert len(seen) == 2**gcc.k
    assert gcc.as_linear_code().k == gcc.k


def test_two_block_codewords_meet_designed_distance():
    space, gcc = two_block_code()
    for flat in product(range(2), repeat=gcc.k):
        word = gcc.encode(gcc.split_message(flat))
        if any(word):
            assert space.vector_weight(word) >= 2


def test_designed_values_are_sound_lower_bounds():
    for space, gcc in (three_block_code(), two_block_code(), two_level_code()):
        code = gcc.as_linear_code()
        assert gcc.designed_distance <= exact_min_weighted_distance(code, space)
        assert gcc.capability_floor <= exact_capability(code, space)


def test_zero_width_levels_are_legal():
    # consecutive equal chain codes give a zero-width outer symbol
    space = WeightedSpace(2, (3, 3), (1, 2))
    rep = named_code("repetition", F2, 3, 1)
    full = named_code("full", F2, 3, 3)
    chains = [NestedChain([rep, rep]), NestedChain([full, rep])]
    outer1 = PolyalphabeticCode(F2, (0, 2), [(1, 0), (0, 1)])
    outer2 = outer_code(F2, (1, 1))
    gcc = build_gcc(space, chains, [outer1, outer2])
    assert gcc.k == 4
    assert gcc.as_linear_code().k == 4


def test_build_gcc_validates_shapes():
    space, gcc = two_block_code()
    chains = list(gcc.chains)
    with pytest.raises(ParameterError):
        build_gcc(space, chains[:1], list(gcc.outers))
    bad_outer = outer_code(F2, (2, 3))
    with pytest.raises(ParameterError):
        build_gcc(space, chains, [bad_outer])


def test_whole_space_outer_has_distance_one_without_a_scan():
    # 2^24 codewords, far past the limit: no scan is admitted or needed
    assert outer_code(F2, (12, 12)).min_block_distance(Limits(max_codewords=16)) == 1


def test_search_frontiers():
    space = WeightedSpace(2, (7, 7, 7), (1, 2, 3))
    records = search_constructions(space, ["repetition", "parity", "hamming", "full"], ["full"], 2)
    t_front = pareto_frontier(records, "capability_floor")
    assert (1, 18) in t_front
    ts = [t for t, _ in t_front]
    ks = [k for _, k in t_front]
    assert ts == sorted(ts)
    assert ks == sorted(ks, reverse=True)
    d_front = pareto_frontier(records, "designed_distance")
    assert (1, 21) in d_front


def test_search_builds_each_outer_code_once(monkeypatch):
    # the search workload's menus: many chain combinations share a level's
    # widths, and each widths tuple gets one outer menu per search
    builds = Counter()
    build = construct_module.outer_code

    def counted(field, widths, family=None, k=None):
        builds[widths, family, k] += 1
        return build(field, widths, family, k)

    monkeypatch.setattr(construct_module, "outer_code", counted)
    space = WeightedSpace(2, (7, 7, 7), (1, 2, 3))
    search_constructions(space, ["repetition", "parity", "full", "hamming"], ["full", "rs"], 2)
    assert builds and set(builds.values()) == {1}


def test_outer_code_returns_a_new_image_and_refuses_every_try():
    a = outer_code(F2, (3, 1, 2), "rs", 2)
    b = outer_code(F2, (3, 1, 2), "rs", 2)
    assert a is not b and a._solvers is not b._solvers
    assert (a.sizes, a.generator) == (b.sizes, b.generator)
    errors = []
    for _ in range(2):  # F_2 has no [3, 1] Reed-Solomon code
        with pytest.raises(ParameterError) as exc:
            parse_outer_spec(F2, "mother:rs:3:1", (1, 1, 1))
        errors.append(str(exc.value))
    assert errors[0] == errors[1]


@st.composite
def permuted_mother_outers(draw):
    """A mother-derived outer code over F2 or F3 in a random width order,
    with its symbols permuted again by a random order."""
    q = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(2, 4))
    widths = tuple(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)))
    family = draw(st.sampled_from(("parity", "repetition", "rs")))
    k = {"parity": m - 1, "repetition": 1}.get(family) or draw(st.integers(1, m - 1))
    assume(family != "rs" or m <= q ** sorted(widths)[k - 1])
    field = make_prime_field(q)
    return field, widths, family, k, draw(st.permutations(range(m)))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(permuted_mother_outers())
def test_permuted_mother_outers_keep_the_fresh_scan_distance(case):
    field, widths, family, k, order = case
    outer = outer_code(field, widths, family, k)
    shuffled = permute_symbols(outer, order)
    for code in (shuffled, outer):
        fresh = PolyalphabeticCode(field, code.sizes, code.generator)
        assert code.min_block_distance() == fresh.min_block_distance()
    # the kept source now holds its distance; a new image is still
    # admitted under the caller's limits on every call
    tight = Limits(max_codewords=field.order**outer.k - 1)
    for code in (shuffled, outer_code(field, widths, family, k)):
        with pytest.raises(ExhaustionError):
            code.min_block_distance(tight)


def test_search_with_mother_outers_extends_the_frontier():
    space = WeightedSpace(2, (7, 7, 7), (1, 2, 3))
    plain = search_constructions(space, ["hamming", "full"], ["full"], 1)
    rich = search_constructions(space, ["hamming", "full"], ["full", "rs"], 1)
    best_plain = {r["designed_distance"]: r["k"] for r in plain}
    assert any(
        r["k"] > best_plain.get(r["designed_distance"], -1)
        for r in rich
        if r["designed_distance"] in best_plain or r["designed_distance"] > max(best_plain)
    )


WORKLOAD_INNER = ["repetition", "parity", "full", "hamming"]


def test_search_workload_menus_give_364_records():
    space = WeightedSpace(2, (7, 7, 7), (1, 2, 3))
    records = search_constructions(space, WORKLOAD_INNER, ["full", "rs"], 2)
    assert len(records) == 364
    assert Counter(r["levels"] for r in records) == {1: 145, 2: 219}
    outers = {name for r in records for name in r["outer"]}
    assert outers == {"full", "mother:rs:3:1", "mother:rs:3:2"}
    best = max(records, key=lambda r: (r["capability_floor"], r["k"]))
    assert (best["capability_floor"], best["k"]) == (8, 4)


def test_search_derives_each_mother_outer_once_per_sorted_widths(monkeypatch):
    # the search workload's menus make 249 outer_code calls over 78 sorted
    # widths; each (family, k, sorted widths) that gives a code is built and
    # scanned once, and its reorderings are permutations of that build
    counts = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(construct_module, "_MOTHER_OUTERS", {})
    counted(construct_module, "poly_from_mother")
    counted(code_module, "_split_counts")
    counted(construct_module, "_chain_options")
    space = WeightedSpace(2, (7, 7, 7), (1, 2, 3))
    records = search_constructions(space, WORKLOAD_INNER, ["full", "rs"], 2)
    assert len(records) == 364
    assert counts == {"poly_from_mother": 34, "_split_counts": 38, "_chain_options": 2}


def _former_outer_candidates(field, widths):
    """What the former hard-coded ``full, rs`` outer menu offered."""
    out = [("full", outer_code(field, widths))]
    m, sizes = len(widths), sorted(widths)
    if sizes[0] >= 1:
        out += [
            (f"mother:rs:{m}:{k}", outer_code(field, widths, "reed_solomon", k))
            for k in range(1, m)
            if m <= field.q ** sizes[k - 1]
        ]
    return out


@pytest.mark.parametrize(
    "q, widths",
    [
        (2, (0, 2, 3)),  # a zero-width symbol: no mother code
        (2, (2, 0)),
        (2, (1, 1, 1)),  # m > q^size for every k
        (2, (1, 2, 2)),  # only k = 2 has a long enough mother
        (2, (2, 2, 2, 2, 2)),
        (2, (3, 1, 2)),
        (3, (1, 1, 1, 1)),
        (7, (1, 2)),
    ],
)
def test_outer_options_give_the_former_candidates(q, widths):
    field = make_prime_field(q)
    got = _outer_options(field, widths, _Menu(["full", "rs"]))
    want = _former_outer_candidates(field, widths)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert (a.sizes, a.generator) == (b.sizes, b.generator)


def test_inner_entry_without_a_code_at_one_length_is_skipped_there():
    space = WeightedSpace(2, (7, 5), (1, 2))
    records = search_constructions(space, ["repetition", "hamming"], ["full"], 1)
    assert {r["inner"][0] for r in records} == {("hamming",), ("repetition",)}
    assert {r["inner"][1] for r in records} == {("repetition",)}


@pytest.mark.parametrize(
    "inner, outer",
    [
        (["repetition", "hamming:x"], ["full"]),
        (["repetition", "bogus"], ["full"]),
        (["repetition", "mother:rs:3:1"], ["full"]),
        (["repetition"], ["full", "bogus"]),
        (["repetition"], ["full", "mother:rs:9:1"]),
        (["repetition"], ["full", "rows:1,1,1"]),
        ([], ["full"]),
        (["repetition"], []),
    ],
)
def test_menu_entry_with_a_code_nowhere_is_an_error(inner, outer):
    space = WeightedSpace(2, (3, 3), (1, 2))
    with pytest.raises(ParameterError):
        search_constructions(space, inner, outer, 2)


@pytest.mark.parametrize("max_levels", [0, -3])
def test_search_needs_at_least_one_level(max_levels):
    space = WeightedSpace(2, (3, 3), (1, 2))
    with pytest.raises(ParameterError):
        search_constructions(space, ["repetition", "full"], ["full"], max_levels)


def test_search_stops_at_the_deepest_chain():
    # no chain is longer than the dimensions allow, so a huge cap is harmless
    space = WeightedSpace(2, (3, 3), (1, 2))
    inner = ["repetition", "parity", "full"]
    assert search_constructions(space, inner, ["full"], 10**9) == search_constructions(
        space, inner, ["full"], 3
    )


def test_rows_file_and_mother_menu_entries(tmp_path):
    (tmp_path / "Rep3.txt").write_text("2 3 1\n1 1 1\n", encoding="utf-8")
    (tmp_path / "Rep2.txt").write_text("2 2 1\n1 1\n", encoding="utf-8")
    space = WeightedSpace(2, (3, 3), (1, 2))
    records = search_constructions(
        space,
        ["file:Rep3.txt", "rows:110|011", "full"],
        ["mother:parity:2:1", "file:Rep2.txt"],
        1,
        base_dir=str(tmp_path),
    )
    by_name = {(r["inner"], r["outer"]): r for r in records}
    rep = by_name[(("file:Rep3.txt",), ("file:Rep3.txt",)), ("file:Rep2.txt",)]
    assert (rep["k"], rep["designed_distance"]) == (1, 9)
    # the file of length 2 fits only widths (1, 1); the mother fits every widths
    assert {o for (_, o) in by_name} == {("mother:parity:2:1",), ("file:Rep2.txt",)}
    assert sum(o == ("file:Rep2.txt",) for (_, o) in by_name) == 1
    assert len(records) == 10


def _rows_spec(rows):
    return "rows:" + "|".join("".join(str(x) for x in row) for row in rows)


def _nonzero_rows(draw, q, count, length):
    entry = st.integers(0, q - 1)
    rows = [draw(st.lists(entry, min_size=length, max_size=length)) for _ in range(count)]
    rows[0][draw(st.integers(0, length - 1))] = 1
    return rows


@st.composite
def small_gccs(draw):
    """A GCC over F2 or F3 on two blocks of length 3-4, built from spec
    strings: a family or rows: spec per block, a rows: spec of its own
    codewords one level down, and a full, mother: or rows: outer spec
    per level.  Combinations the grammar refuses are rejected."""
    q = draw(st.sampled_from((2, 3)))
    field = make_prime_field(q)
    blocks = (draw(st.integers(3, 4)), draw(st.integers(3, 4)))
    space = WeightedSpace(q, blocks, (1, draw(st.integers(1, 3))))
    levels = draw(st.integers(1, 2))
    chains = []
    for b in blocks:
        families = ["full", "parity", "repetition"] + ["hamming"] * ((q, b) in ((2, 3), (3, 4)))
        rows = _nonzero_rows(draw, q, draw(st.integers(1, b)), b)
        top = parse_code_spec(field, draw(st.sampled_from(families + [_rows_spec(rows)])), b)
        codes = [top]
        if levels == 2:
            messages = _nonzero_rows(draw, q, draw(st.integers(1, 2)), top.k)
            codes.append(parse_code_spec(field, _rows_spec(top.encode(m) for m in messages), b))
        chains.append(NestedChain(codes))
    outers = []
    for j in range(levels):
        widths = tuple(chain.widths[j] for chain in chains)
        rows = _nonzero_rows(draw, q, draw(st.integers(1, 2)), max(1, sum(widths)))
        specs = ["full", "mother:repetition:2:1", "mother:rs:2:1", _rows_spec(rows)]
        try:
            outers.append(parse_outer_spec(field, draw(st.sampled_from(specs)), widths))
        except ParameterError:
            assume(False)
    return space, build_gcc(space, chains, outers)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(small_gccs())
def test_the_floors_bound_the_exact_capability_and_distance(case):
    space, gcc = case
    code = gcc.as_linear_code()
    assert gcc.capability_floor <= exact_capability(code, space)
    assert gcc.designed_distance <= exact_min_weighted_distance(code, space)


def test_full_outer_codes_share_their_identity_rows_but_not_their_code():
    a = outer_code(F2, (1, 3))
    b = outer_code(F2, (3, 1))
    assert a is not b and a._solvers is not b._solvers
    assert a.generator is b.generator
    assert a.generator == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert (a.sizes, b.sizes, a.min_block_distance()) == ((1, 3), (3, 1), 1)
