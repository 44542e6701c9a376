"""Per-layer metrics of a traced run, derived from the tracer's aggregates.

Times and counts are per timed pass (the pass totals divided by the
number of passes); ratios are taken over the whole timed phase; names
under ``setup.`` cover the main process's set-up instead.  A metric whose
layer a workload does not exercise reads 0.

Each entry is (name, unit, function of a :class:`Run`); the comments name
the workload and end-to-end metric each group should move, and
``README.md`` lists them one by one.
"""

from __future__ import annotations

ORACLE_SCANS = ("oracle.exact_min_weighted_distance", "oracle.exact_capability")
PROFILE_SPANS = ("metric.block_profile", "metric.vector_weight", "metric.profile_capability")
DISTANCE_SPANS = ("code.min_distance", "code.min_block_distance")
QUOTIENT_SPANS = ("code.quotient_message", "code.quotient_encode")
EXTENSION = "field.make_extension_field"


class Run:
    """What the derivations read: the pass view, the set-up view and the checker's counts."""

    def __init__(self, view, setup_view, passes, seen, outcomes, traced_wall):
        self.v = view
        self.s = setup_view
        self.passes = passes
        self.seen = seen
        self.outcomes = outcomes
        self.traced_wall = traced_wall

    def per_pass(self, x):
        return x / self.passes


def _ratio(num, den):
    return num / den if den else 0.0


def _opt_bits(run, tag):
    bits = [s.get("opt_bits", 0) for s in run.v.spans if s["name"] == "ratlp.solve_max" and s["tag"] == tag]
    return max(bits, default=0)


def _oracle_codewords(run):
    return sum(run.v.counted("codewords", context=c) for c in ORACLE_SCANS)


def _us_per_codeword(run, tag):
    seconds = run.v.total(*ORACLE_SCANS, tag=tag)
    words = sum(run.v.counted("codewords", tag=tag, context=c) for c in ORACLE_SCANS)
    return 1e6 * _ratio(seconds, words)


def _capability_hit_ratio(run):
    ctx = "oracle.exact_capability"
    scanned = run.v.counted("codewords", context=ctx) - run.v.calls(ctx)  # the zero word is skipped
    misses = run.v.calls("metric.profile_capability", context=ctx)
    return _ratio(scanned - misses, scanned)


def _candidate_ratio(run):
    ctx = "decode.gmd_decode"
    trials = run.v.calls("code.erasure_decode", context=ctx)
    return _ratio(trials - run.v.counted("erasure_fail", context=ctx), trials)


def _beyond_ratio(run, key):
    return _ratio(run.outcomes.get(key, 0), run.outcomes.get("beyond_floor_words", 0))


PER_LAYER = (
    # bounds -> wall_s
    ("ratlp.solve_s.q2", "s", lambda r: r.per_pass(r.v.total("ratlp.solve_max", tag="q2"))),
    ("ratlp.solve_s.q7", "s", lambda r: r.per_pass(r.v.total("ratlp.solve_max", tag="q7"))),
    ("ratlp.calls", "count", lambda r: r.per_pass(r.v.calls("ratlp.solve_max"))),
    ("ratlp.rows", "count", lambda r: r.per_pass(r.v.counted("lp.rows"))),
    ("ratlp.cols", "count", lambda r: r.per_pass(r.v.counted("lp.cols"))),
    ("ratlp.opt_bits.q2", "bits", lambda r: _opt_bits(r, "q2")),
    ("ratlp.opt_bits.q7", "bits", lambda r: _opt_bits(r, "q7")),
    ("bounds.self_s", "s", lambda r: r.per_pass(r.v.layer_self("bounds"))),
    ("metric.diff_ball_s", "s", lambda r: r.per_pass(r.v.total("metric.diff_ball_profiles"))),
    ("metric.capability_calls", "count", lambda r: r.per_pass(r.v.calls("metric.profile_capability"))),
    ("cli.self_s", "s", lambda r: r.per_pass(r.v.layer_self("cli"))),
    # certify -> wall_s
    ("oracle.codewords", "count", lambda r: r.per_pass(_oracle_codewords(r))),
    ("oracle.us_per_codeword.q2", "us", lambda r: _us_per_codeword(r, "q2")),
    ("oracle.us_per_codeword.q3", "us", lambda r: _us_per_codeword(r, "q3")),
    ("oracle.us_per_codeword.q7", "us", lambda r: _us_per_codeword(r, "q7")),
    ("code.stream_s", "s", lambda r: r.per_pass(r.v.total("code.stream"))),
    ("metric.profile_s", "s", lambda r: r.per_pass(r.v.self_time(*PROFILE_SPANS))),
    ("oracle.capability_cache_hit_ratio", "ratio", _capability_hit_ratio),
    ("oracle.self_s", "s", lambda r: r.per_pass(r.v.layer_self("oracle"))),
    ("field.ops", "count", lambda r: r.per_pass(r.v.field_ops)),
    # decode -> op_p50_ms, op_tail_ms, wall_s
    ("code.bmd_s", "s", lambda r: r.per_pass(r.v.total("code.bmd_decode"))),
    ("code.bmd_calls", "count", lambda r: r.per_pass(r.v.calls("code.bmd_decode"))),
    ("code.bmd_fail_ratio", "ratio", lambda r: _ratio(r.v.counted("bmd_fail"), r.v.calls("code.bmd_decode"))),
    ("decode.gmd_s", "s", lambda r: r.per_pass(r.v.total("decode.gmd_decode"))),
    ("code.erasure_s", "s", lambda r: r.per_pass(r.v.total("code.erasure_decode"))),
    ("code.erasure_calls", "count", lambda r: r.per_pass(r.v.calls("code.erasure_decode"))),
    ("decode.gmd_candidate_ratio", "ratio", _candidate_ratio),
    ("code.quotient_s", "s", lambda r: r.per_pass(r.v.total(*QUOTIENT_SPANS))),
    ("decode.self_s", "s", lambda r: r.per_pass(r.v.layer_self("decode"))),
    ("decode.outer_failure_ratio", "ratio", lambda r: _beyond_ratio(r, "outer_failures")),
    ("decode.miscorrection_ratio", "ratio", lambda r: _beyond_ratio(r, "miscorrections")),
    # decode -> setup_s
    ("setup.construct.build_s", "s", lambda r: r.s.total("construct.build_gcc")),
    ("setup.code.min_distance_s", "s", lambda r: r.s.total(*DISTANCE_SPANS)),
    ("setup.code.syndrome_table_s", "s", lambda r: r.s.total("code.build_syndrome_table")),
    # search -> wall_s
    ("field.extension_s", "s", lambda r: r.per_pass(r.v.total(EXTENSION))),
    ("field.extension_calls", "count", lambda r: r.per_pass(r.v.calls(EXTENSION))),
    ("field.extension_distinct_ratio", "ratio", lambda r: _ratio(len(r.seen), r.v.calls(EXTENSION))),
    ("construct.poly_from_mother_s", "s", lambda r: r.per_pass(r.v.total("construct.poly_from_mother"))),
    ("code.min_distance_s", "s", lambda r: r.per_pass(r.v.total(*DISTANCE_SPANS))),
    ("construct.records", "count", lambda r: r.per_pass(r.v.counted("records"))),
    ("construct.self_s", "s", lambda r: r.per_pass(r.v.layer_self("construct"))),
    # the remaining layers' self time, for the per-module breakdown
    ("ratlp.self_s", "s", lambda r: r.per_pass(r.v.layer_self("ratlp"))),
    ("metric.self_s", "s", lambda r: r.per_pass(r.v.layer_self("metric"))),
    ("field.self_s", "s", lambda r: r.per_pass(r.v.layer_self("field"))),
    ("code.self_s", "s", lambda r: r.per_pass(r.v.layer_self("code"))),
    # the traced run's own pass time; minus the untraced wall_s it is the tracing overhead
    ("trace.wall_s", "s", lambda r: r.traced_wall),
)


def layer_metrics(run):
    """``{name: (value, unit)}`` for every entry of :data:`PER_LAYER`."""
    return {name: (fn(run), unit) for name, unit, fn in PER_LAYER}
