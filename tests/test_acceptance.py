"""End-to-end acceptance suite.

Each test checks one release criterion at its stated tolerance (exact
integer equality throughout) and prints a single PASS/FAIL line; run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from itertools import product

from helpers import (
    F7,
    ball_vectors,
    capability_by_splits,
    diff_profiles_by_pairs,
    hamming_concatenation,
    mixed_code_from_parity_mother,
    three_block_code,
    two_block_code,
    two_level_code,
)
from whmetric.bounds import covering_bound, packing_bound, singleton_bound
from whmetric.cli import main
from whmetric.code import named_code
from whmetric.enumerator import krawtchouk
from whmetric.metric import WeightedSpace
from whmetric.oracle import (
    block_weight_enumerator,
    exact_capability,
    exact_min_weighted_distance,
    exhaustive_decoder_check,
)


def _verdict(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def _bound_table_rows(capsys, tmp_path, q, t_max):
    cfg = tmp_path / f"space_q{q}.cfg"
    cfg.write_text(f"[space]\nq = {q}\nblocks = 7,7\nlambda = 1,2\n")
    code = main(["bounds", "--config", str(cfg), "--t-min", "1", "--t-max", str(t_max)])
    out = capsys.readouterr().out
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        t, packing, singleton, lp, covering = (int(x) for x in line.split(","))
        rows[t] = {"packing": packing, "singleton": singleton, "lp": lp, "covering": covering}
    return rows


def test_criterion_1_bound_table_binary(capsys, tmp_path):
    start = time.time()
    rows = _bound_table_rows(capsys, tmp_path, 2, 10)
    elapsed = time.time() - start
    expected = {
        "packing": {1: 11, 2: 8, 3: 7, 4: 5, 5: 4, 6: 3, 7: 2, 8: 1},
        "singleton": {1: 12, 2: 10, 3: 8, 4: 7, 5: 6, 6: 5, 7: 4, 8: 3, 9: 2, 10: 1},
        "lp": {1: 11, 2: 8, 3: 7, 4: 5, 5: 3, 6: 2, 7: 1},
        "covering": {1: 10, 2: 6, 3: 4, 4: 2, 5: 2, 6: 1},
    }
    mismatches = [
        (col, t, rows[t][col], want)
        for col, points in expected.items()
        for t, want in points.items()
        if rows[t][col] != want
    ]
    _verdict(
        1,
        "binary two-block bound table",
        not mismatches and elapsed < 120,
        f"({elapsed:.1f}s)" if not mismatches else f"mismatches: {mismatches}",
    )


def test_criterion_2_bound_table_septenary(capsys, tmp_path):
    start = time.time()
    rows = _bound_table_rows(capsys, tmp_path, 7, 10)
    elapsed = time.time() - start
    expected = {
        "packing": {1: 12, 2: 10, 3: 9, 5: 7, 8: 4, 10: 3},
        "singleton": {1: 12, 2: 10, 3: 8, 4: 7, 5: 6, 6: 5, 7: 4, 8: 3, 9: 2, 10: 1},
        "lp": {1: 12, 3: 8, 5: 6, 7: 3, 9: 1},
        "covering": {1: 11, 3: 7, 5: 4, 7: 2, 8: 1},
    }
    mismatches = [
        (col, t, rows[t][col], want)
        for col, points in expected.items()
        for t, want in points.items()
        if rows[t][col] != want
    ]
    _verdict(
        2,
        "order-7 two-block bound table",
        not mismatches and elapsed < 300,
        f"({elapsed:.1f}s)" if not mismatches else f"mismatches: {mismatches}",
    )


def test_criterion_3_mixed_code_from_parity_mother():
    ok = True
    detail = []
    for q in (2, 7):
        poly = mixed_code_from_parity_mother(q)
        if poly.k != 3 or poly.min_block_distance() != 2:
            ok = False
            detail.append((q, poly.k, poly.min_block_distance()))
    _verdict(3, "mixed-alphabet code from parity mother", ok, str(detail) if detail else "")


def test_criterion_4_three_block_concatenation():
    space, gcc = three_block_code()
    exact = exact_min_weighted_distance(gcc.as_linear_code(), space)
    ok = gcc.k == 3 and gcc.designed_distance == 6 and exact >= 6
    _verdict(4, "three-block concatenation", ok, f"k={gcc.k} d_designed={gcc.designed_distance} d={exact}")


def test_criterion_5_two_block_concatenation_and_decoder():
    space, gcc = two_block_code()
    code = gcc.as_linear_code()
    d = exact_min_weighted_distance(code, space)
    t = exact_capability(code, space)
    check = exhaustive_decoder_check(gcc, 1)
    ok = (
        gcc.k == 4
        and d == 2
        and t == 1
        and gcc.capability_floor == 1
        and check.trials == 16 * 4
        and check.failures == 0
    )
    _verdict(5, "two-block concatenation and decoder", ok, f"d={d} t={t} trials={check.trials} failures={check.failures}")


def test_criterion_6_two_level_concatenation_and_decoder():
    space, gcc = two_level_code()
    code = gcc.as_linear_code()
    d = exact_min_weighted_distance(code, space)
    t = exact_capability(code, space)
    check = exhaustive_decoder_check(gcc, 2)
    ok = d == 5 and t == 2 and gcc.capability_floor == 2 and check.failures == 0
    _verdict(6, "two-level concatenation and decoder", ok, f"d={d} t={t} trials={check.trials} failures={check.failures}")


def test_criterion_7_mds_optimality():
    space = WeightedSpace(7, (3, 3), (1, 2))
    rs = named_code("reed_solomon", F7, 6, 3)
    t = exact_capability(rs, space)
    ceiling = singleton_bound(space, 3)
    _verdict(7, "MDS code meets the singleton ceiling", t == ceiling == 2, f"t={t} ceiling={ceiling}")


def test_criterion_8_hamming_concatenation_recipe():
    space, gcc = hamming_concatenation()
    ok = (gcc.n, gcc.k, gcc.capability_floor) == (21, 18, 1)
    _verdict(8, "21-coordinate recipe", ok, f"(n,k,t)=({gcc.n},{gcc.k},{gcc.capability_floor})")


def test_criterion_9_property_suite():
    start = time.time()
    failures = []

    # capability dynamic program vs explicit split enumeration
    rng = random.Random(90210)
    cases = 0
    while cases < 1000:
        q = rng.choice((2, 3, 7))
        m = rng.randint(1, 3)
        blocks = tuple(rng.randint(1, 4) for _ in range(m))
        if sum(blocks) > 12:
            continue
        scales = tuple(sorted(rng.randint(1, 4) for _ in range(m)))
        sp = WeightedSpace(q, blocks, scales)
        v = tuple(rng.randrange(q) for _ in range(sp.n))
        if sp.vector_capability(v) != capability_by_splits(sp, v):
            failures.append(("capability-dp", sp, v))
            break
        cases += 1

    # ball sizes vs direct ambient enumeration
    for sp in (WeightedSpace(2, (5, 5), (1, 2)), WeightedSpace(3, (4, 4), (1, 3))):
        for t in range(sp.max_weight + 1):
            if sp.ball_size(t) != len(ball_vectors(sp, t)):
                failures.append(("ball-size", sp, t))

    # difference-set membership vs vector-pair enumeration
    pair_spaces = [
        (WeightedSpace(2, (4, 4), (1, 2)), None),
        (WeightedSpace(3, (3, 2), (1, 3)), None),
        (WeightedSpace(7, (2, 2), (1, 2)), 3),
    ]
    for sp, cap in pair_spaces:
        top = sp.max_weight if cap is None else cap
        for t in range(1, top + 1):
            if set(sp.diff_ball_profiles(t)) != diff_profiles_by_pairs(sp, t):
                failures.append(("diff-ball", sp, t))

    # true block-weight enumerators satisfy every Krawtchouk constraint
    enum_cases = [
        (named_code("reed_solomon", F7, 6, 3), WeightedSpace(7, (3, 3), (1, 2))),
    ]
    space4, gcc4 = two_block_code()
    enum_cases.append((gcc4.as_linear_code(), space4))
    for code, sp in enum_cases:
        enum = block_weight_enumerator(code, sp)
        for jprof in product(*(range(b + 1) for b in sp.blocks)):
            total = sum(
                count
                * _coeff(sp, jprof, iprof)
                for iprof, count in enum.items()
            )
            if total < 0:
                failures.append(("macwilliams", jprof, total))

    # covering never exceeds packing anywhere on the grid
    grid = [
        WeightedSpace(2, (7, 7), (1, 2)),
        WeightedSpace(3, (4, 4), (1, 3)),
        WeightedSpace(7, (3, 3), (1, 2)),
        WeightedSpace(2, (3, 3, 3), (1, 2, 3)),
    ]
    for sp in grid:
        for t in range(sp.max_weight + 1):
            if covering_bound(sp, t) > packing_bound(sp, t):
                failures.append(("covering>packing", sp, t))

    # distance/capability bracket on every constructed code
    for sp, gcc in (two_block_code(), three_block_code(), two_level_code()):
        code = gcc.as_linear_code()
        d = exact_min_weighted_distance(code, sp)
        t = exact_capability(code, sp)
        if not (d - 1) // 2 <= t <= (d + sp.scales[-1]) // 2 - 1:
            failures.append(("bracket", sp, (d, t)))

    elapsed = time.time() - start
    _verdict(
        9,
        "cross-check property suite",
        not failures and elapsed < 600,
        f"({elapsed:.1f}s)" if not failures else f"failures: {failures[:3]}",
    )


def _coeff(space, jprof, iprof):
    out = 1
    for l in range(space.m):
        out *= krawtchouk(space.q, space.blocks[l], jprof[l], iprof[l])
    return out
