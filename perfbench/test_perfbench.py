"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import json
import os
import random

import pytest

import run
import tracer as tracing
import compare
from compare import verdict
from layer_metrics import PER_LAYER
from stats import tail
from workloads import WORKLOADS, word_stream

run.load_program()


# -- tail rule ---------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    for n in (11, 57, 1000, 1200):
        xs = random.Random(n).sample(range(10 * n), n)
        value, pct = tail(xs)
        assert sum(1 for x in xs if x > value) == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail(list(range(10))) == (9, 100.0)


# -- run length -------------------------------------------------------------


def test_a_run_ends_within_half_a_pass_of_its_seconds(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    now[0] += 7.5
    assert run.more_time(100.0, [4.0, 4.0], 10.0)  # a pass would end 1.5 s past 110, now is 2.5 s short
    now[0] += 0.6
    assert not run.more_time(100.0, [4.0, 4.0], 10.0)  # 2.1 s past against 1.9 s short


# -- self time ---------------------------------------------------------------


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    outer = tr.begin("bounds.build_bound_table")
    first = tr.begin("ratlp.solve_max")
    tr.end(first, record=True)
    second = tr.begin("metric.diff_ball_profiles")
    tr.end(second, record=True)
    tr.end(outer, record=True)
    spans = {s["name"]: s for s in tr.spans}
    assert spans["bounds.build_bound_table"]["self"] == 6.0  # 10 - (4 - 1) - (6 - 5)
    assert spans["ratlp.solve_max"]["self"] == 3.0
    assert spans["ratlp.solve_max"]["parent"] == spans["bounds.build_bound_table"]["id"]
    view = tracing.View(tr.snapshot(), tr.spans)
    assert view.layer_self("bounds") == 6.0
    assert view.total("bounds.build_bound_table") == 10.0


def test_install_rebinds_every_import_and_uninstall_restores():
    import whmetric.cli
    import whmetric.construct
    from whmetric.field import make_extension_field
    from whmetric.metric import WeightedSpace

    original = whmetric.construct.make_extension_field
    tr = tracing.Tracer()
    installed = tracing.install(tr)
    try:
        assert whmetric.cli.make_extension_field is whmetric.construct.make_extension_field
        assert whmetric.cli.make_extension_field is not original
        whmetric.construct.make_extension_field(2, 3)
        WeightedSpace(2, (3, 3), (1, 2)).profile_capability((1, 1))
        tr.on = False  # the benchmark's own input drawing is not traced
        whmetric.construct.make_extension_field(2, 4).mul(1, 1)
        tr.on = True
    finally:
        tracing.uninstall(installed)
    assert whmetric.construct.make_extension_field is original is make_extension_field
    view = tracing.View(tr.snapshot(), tr.spans)
    assert view.calls("field.make_extension_field") == 1
    assert view.field_ops == 0
    assert view.calls("metric.profile_capability") == 1


# -- comparison verdicts -----------------------------------------------------


def test_verdict_gain_needs_nine_in_ten_wins_and_a_gap_wider_than_the_parent_iqr():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(parent, [x * 0.8 for x in parent], "lower", 0.1)[0] == "gain"
    mostly = [x * 0.95 for x in parent[:8]] + [x * 1.01 for x in parent[8:]]
    assert verdict(parent, mostly, "lower", 0.1) == ("no-regression", 8)


def test_verdict_regression_and_no_regression():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert verdict(parent, [x * 1.3 for x in parent], "lower", 0.1)[0] == "regression"
    assert verdict(parent, [x * 1.05 for x in parent], "lower", 0.1)[0] == "no-regression"
    assert verdict(parent, [x * 0.7 for x in parent], "higher", 0.1)[0] == "regression"


def test_verdict_unresolved_when_spread_exceeds_bound():
    parent = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert verdict(parent, list(reversed(parent)), "lower", 0.1)[0] == "unresolved"
    assert verdict(parent, [x / 10 for x in parent], "lower", 0.1)[0] == "gain"
    # every change run beats every parent run, but by less than the parent's
    # interquartile distance: not a gain, and the spread does not hide it
    assert verdict(parent, [0.55 - x / 100 for x in parent], "lower", 0.01) == ("no-regression", 10)


def test_verdict_ties_count_for_neither_side():
    parent = [1.0] * 10
    assert verdict(parent, [1.0] * 10, "lower", 0.1) == ("no-regression", 0)


def test_verdict_no_gain_when_the_change_fails_more_operations():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    faster = [x * 0.8 for x in parent]
    assert verdict(parent, faster, "lower", 0.1, more_failures=True) == ("no-regression", 10)
    assert verdict(parent, [x * 1.3 for x in parent], "lower", 0.1, more_failures=True)[0] == "regression"


def test_verdict_table_counts_failures_and_gives_op_rows_to_decode_only(tmp_path, capsys):
    names = [m["name"] for m in compare.load_definitions()["end_to_end"]]
    path = tmp_path / "pairs.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for workload in ("decode", "search"):
            for pair in range(10):
                change_failed = int(workload == "decode" and pair == 3)
                for side, scale, failed in (("parent", 1.0, 0), ("change", 0.5, change_failed)):
                    value = scale * (1 + 0.001 * pair)
                    metrics = {n: {"value": value} for n in names}
                    result = {"failed": failed, "metrics": metrics}
                    fh.write(json.dumps({"pair": pair, "side": side, "workload": workload, "result": result}) + "\n")
    compare.main(["verdict", str(path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    labels = {(r[0], r[1]): r[-1] for r in rows if r[0] != "failed"}
    assert set(labels) == {(n, "decode") for n in names} | {
        (n, "search") for n in names if n not in compare.OP_METRICS
    }
    # the change is faster everywhere; on decode it failed more operations than the parent
    assert {label for (_, w), label in labels.items() if w == "decode"} == {"no-regression"}
    assert {label for (_, w), label in labels.items() if w == "search"} == {"gain"}
    assert any(r[0] == "failed" and r[1] == "decode" for r in rows)


# -- inputs ------------------------------------------------------------------


def test_error_weights_fall_on_their_side_of_the_floor():
    state = WORKLOADS["decode"].setup()
    for tag, gcc in state["codes"].items():
        floor = gcc.capability_floor
        stream = word_stream(random.Random(7), gcc, 200)
        assert sum(1 for _, _, beyond in stream if beyond) == 50
        for sent, error, beyond in stream:
            weight = gcc.space.vector_weight(error)
            if beyond:
                assert floor < weight <= floor + 2, tag
            else:
                assert 1 <= weight <= floor, tag


def test_same_seed_and_pass_same_inputs_and_every_pass_its_own():
    for name, key in (("decode", "words"), ("certify", "inputs")):
        workload = WORKLOADS[name]
        a, b = workload.setup(), workload.setup()
        drawn = []
        for state, index in ((a, 0), (b, 0), (a, 1)):
            workload.draw(state, 5, index)
            drawn.append(state[key])
        if name == "certify":
            drawn = [[(tag, code.generator) for tag, code, _ in inputs] for inputs in drawn]
        assert drawn[0] == drawn[1], name
        assert drawn[0] != drawn[2], name


# -- golden gate -------------------------------------------------------------


def test_golden_gate_rejects_a_perturbed_bound_table():
    bounds = WORKLOADS["bounds"]
    state = {}
    bounds.prepare(state)
    golden = state["golden"][0]
    assert bounds.check(state, 0, (0, golden)) is None
    table = json.loads(golden)
    table[3]["lp_optimum"] = table[3]["lp_optimum"] + "1"
    assert bounds.check(state, 0, (0, json.dumps(table, indent=2) + "\n")) is not None
    assert bounds.check(state, 0, (2, golden)) is not None


def test_golden_gate_rejects_a_perturbed_search_frontier():
    search = WORKLOADS["search"]
    state = {}
    search.prepare(state)
    assert search.check(state, 0, (0, state["golden"].replace('"k": 18', '"k": 19', 1))) is not None


def test_golden_gate_rejects_perturbed_certificates():
    certify = WORKLOADS["certify"]
    state = certify.setup()
    certify.prepare(state)
    for i, (d, t) in enumerate(state["golden"]):
        assert certify.check(state, i, (d, t)) is None
        assert certify.check(state, i, (d, t + 1)) is not None
        assert certify.check(state, i, (d - 1, t)) is not None


def test_decode_gate_rejects_a_wrong_or_non_codeword():
    decode = WORKLOADS["decode"]
    state = decode.setup()
    decode.prepare(state)
    decode.draw(state, 3, 0)
    for index, (tag, sent, received, beyond) in enumerate(state["words"][:40]):
        report = state["decode"](state["codes"][tag], received)
        assert decode.check(state, index, report) is None
        if beyond and not report.ok:
            continue  # an outer failure beyond the floor is allowed
        flipped = list(report.codeword)
        flipped[0] = (flipped[0] + 1) % state["codes"][tag].space.q
        report.codeword = tuple(flipped)
        # a within-floor word must come back as sent; flipping one symbol of a
        # codeword leaves the code, which a beyond-floor "ok" may not do either
        assert decode.check(state, index, report) is not None


# -- definitions -------------------------------------------------------------


def test_benchmark_json_lists_the_per_layer_metrics_the_trace_reports():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
