"""Spans and counters recorded from outside the program.

The traced run rebinds public functions and methods of the ``whmetric``
modules to wrappers that open a span around each call.  A name imported
into several modules (``make_extension_field`` lives in ``field`` and is
imported by ``cli``, ``code`` and ``construct``) is rebound in every
module that holds it, so each call site is seen.  No program file
changes; :func:`uninstall` puts the originals back.

Every span is aggregated by (name, tag, context): calls, total time and
self time, where self time is the span's duration minus the time its
child spans cover.  Spans that happen once per LP, per bound table or
per code build are also kept one by one and written out at the end.
Spans that happen once per codeword or per received word are only
aggregated, which keeps memory flat.  ``Field`` arithmetic is counted,
not timed.

The *tag* names the input an operation works on (``q2`` or ``q7`` in
the bounds workload, the code in decode); the *context* is the innermost
open oracle or GMD span, so codewords and capability lookups can be
attributed to the scan that asked for them.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("cli", "bounds", "ratlp", "metric", "field", "code", "construct", "decode", "oracle")

# Counters that need code inside the program and so cannot be measured by
# rebinding from outside; they wait for an in-program trace module.
NOT_MEASURABLE_FROM_OUTSIDE = {
    "ratlp.pivots": "pivots happen inside ratlp._simplex's loop",
    "ratlp.bland_fallbacks": "the switch to Bland's rule is a local variable of ratlp._simplex",
    "code.syndrome_table_size": "deferred with the other in-program counters",
}


class Tracer:
    """In-memory spans with self time, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.tag = None
        self.pass_index = 0
        self.on = True  # off while the benchmark makes its own inputs
        self.reset()

    def reset(self):
        self.spans = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, total_s, self_s]
        self.counts = defaultdict(int)  # (counter, tag, context) -> n
        self.seen = set()
        self.field_ops = 0
        self.context = None
        self._stack = []
        self._next_id = 0

    def snapshot(self):
        """Aggregates so far, detached from later spans."""
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counts": dict(self.counts),
            "field_ops": self.field_ops,
        }

    def begin(self, name, is_context=False):
        frame = [name, self.clock(), 0.0, self._next_id, self.context, None]
        self._next_id += 1
        if is_context:
            self.context = name
        self._stack.append(frame)
        return frame

    def end(self, frame, record=False):
        stop = self.clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child, sid, outer_context, attrs = frame
        duration = stop - start
        self.context = outer_context
        agg = self.totals[(name, self.tag, outer_context)]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if stack:
            stack[-1][2] += duration
        if record:
            span = {
                "id": sid,
                "parent": stack[-1][3] if stack else None,
                "name": name,
                "start": start,
                "end": stop,
                "self": duration - child,
                "tag": self.tag,
                "pass": self.pass_index,
            }
            if attrs:
                span.update(attrs)
            self.spans.append(span)

    def count(self, counter, n=1):
        self.counts[(counter, self.tag, self.context)] += n


# -- reading the aggregates --------------------------------------------------


class View:
    """Sums over a snapshot of a tracer, filtered by name, tag and context."""

    def __init__(self, snap, spans=()):
        self.spans = spans
        self.totals = snap["totals"]
        self.counts = snap["counts"]
        self.field_ops = snap["field_ops"]

    def _sum(self, index, names=None, prefix=None, tag=None, context=None):
        out = 0
        for (name, tg, ctx), agg in self.totals.items():
            if names is not None and name not in names:
                continue
            if prefix is not None and not name.startswith(prefix):
                continue
            if tag is not None and tg != tag:
                continue
            if context is not None and ctx != context:
                continue
            out += agg[index]
        return out

    def calls(self, *names, **filters):
        return self._sum(0, names=names, **filters)

    def total(self, *names, **filters):
        """Inclusive time of the named spans; the names must not nest in one another."""
        return self._sum(1, names=names, **filters)

    def self_time(self, *names, **filters):
        return self._sum(2, names=names, **filters)

    def layer_self(self, layer):
        return self._sum(2, prefix=layer + ".")

    def counted(self, counter, tag=None, context=None):
        out = 0
        for (c, tg, ctx), n in self.counts.items():
            if c == counter and (tag is None or tg == tag) and (context is None or ctx == context):
                out += n
        return out


# -- installing wrappers -----------------------------------------------------


def _timed(tracer, name, fn, record, is_context, observe):
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        frame = tracer.begin(name, is_context)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, frame, args, result)
            return result
        finally:
            tracer.end(frame, record)

    wrapper.__wrapped__ = fn
    return wrapper


def _streamed(tracer, name, fn):
    """Wrap a generator function: time each step, count the items."""

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not tracer.on:
            return inner

        def stream():
            while True:
                frame = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(frame)
                tracer.count("codewords")
                yield item

        return stream()

    wrapper.__wrapped__ = fn
    return wrapper


def _field_op(tracer, fn):
    def wrapper(*args):
        if tracer.on:
            tracer.field_ops += 1
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


def _lp_size(tracer, frame, args, result):
    lp = args[0]
    attrs = {"rows": len(lp.rows), "cols": len(lp.objective)}
    tracer.count("lp.rows", attrs["rows"])
    tracer.count("lp.cols", attrs["cols"])
    if result.value is not None:
        value = result.value
        attrs["opt_bits"] = value.numerator.bit_length() + value.denominator.bit_length()
    frame[5] = attrs


def _radius(tracer, frame, args, result):
    frame[5] = {"q": args[0].q, "t": args[1]}


def _on_fail(counter):
    def observe(tracer, frame, args, result):
        if result is None:  # whmetric.code.FAIL
            tracer.count(counter)

    return observe


def _extension(tracer, frame, args, result):
    tracer.seen.add((tracer.pass_index, args[0], args[1]))


def _records(tracer, frame, args, result):
    tracer.count("records", len(result))


# (module, attribute path, span name, kind, observe); kinds: "span" is kept
# one by one, "hot" only aggregated, "context" aggregated and marks the
# context, "stream" times a generator per item, "op" only counts.
TARGETS = (
    ("cli", "main", "cli.main", "span", None),
    ("cli", "parse_config", "cli.parse_config", "span", None),
    ("cli", "build_gcc_from_config", "cli.build_gcc_from_config", "span", None),
    ("cli", "parse_code_spec", "cli.parse_code_spec", "hot", None),
    ("cli", "parse_outer_spec", "cli.parse_outer_spec", "span", None),
    ("bounds", "build_bound_table", "bounds.build_bound_table", "span", None),
    ("bounds", "lp_bound_detail", "bounds.lp_bound_detail", "span", _radius),
    ("bounds", "_assemble_lp", "bounds.assemble_lp", "span", None),
    ("bounds", "packing_bound", "bounds.packing_bound", "span", None),
    ("bounds", "covering_bound", "bounds.covering_bound", "span", None),
    ("bounds", "singleton_k_for_t", "bounds.singleton_k_for_t", "span", None),
    ("ratlp", "solve_max", "ratlp.solve_max", "span", _lp_size),
    ("metric", "WeightedSpace.profile_capability", "metric.profile_capability", "hot", None),
    ("metric", "WeightedSpace.block_profile", "metric.block_profile", "hot", None),
    ("metric", "WeightedSpace.vector_weight", "metric.vector_weight", "hot", None),
    ("metric", "WeightedSpace.diff_ball_profiles", "metric.diff_ball_profiles", "span", None),
    ("metric", "WeightedSpace.ball_profiles", "metric.ball_profiles", "span", None),
    ("field", "make_prime_field", "field.make_prime_field", "hot", None),
    ("field", "make_extension_field", "field.make_extension_field", "hot", _extension),
    ("field", "Field.add", None, "op", None),
    ("field", "Field.sub", None, "op", None),
    ("field", "Field.neg", None, "op", None),
    ("field", "Field.mul", None, "op", None),
    ("code", "named_code", "code.named_code", "hot", None),
    ("code", "LinearCode.codewords", "code.stream", "stream", None),
    ("code", "PolyalphabeticCode.codewords", "code.stream", "stream", None),
    ("code", "LinearCode.min_distance", "code.min_distance", "hot", None),
    ("code", "PolyalphabeticCode.min_block_distance", "code.min_block_distance", "hot", None),
    ("code", "LinearCode._build_syndrome_table", "code.build_syndrome_table", "span", None),
    ("code", "LinearCode.bmd_decode", "code.bmd_decode", "hot", _on_fail("bmd_fail")),
    ("code", "LinearCode.erasure_decode", "code.erasure_decode", "hot", _on_fail("erasure_fail")),
    (
        "code",
        "PolyalphabeticCode.erasure_decode",
        "code.erasure_decode",
        "hot",
        _on_fail("erasure_fail"),
    ),
    ("code", "NestedChain.quotient_message", "code.quotient_message", "hot", None),
    ("code", "NestedChain.quotient_encode", "code.quotient_encode", "hot", None),
    ("construct", "build_gcc", "construct.build_gcc", "span", None),
    ("construct", "poly_from_mother", "construct.poly_from_mother", "hot", None),
    ("construct", "permute_symbols", "construct.permute_symbols", "hot", None),
    ("construct", "GccCode.__init__", "construct.GccCode", "hot", None),
    ("construct", "_chain_options", "construct.chain_options", "hot", None),
    ("construct", "_outer_options", "construct.outer_options", "hot", None),
    ("construct", "search_constructions", "construct.search_constructions", "span", _records),
    ("construct", "pareto_frontier", "construct.pareto_frontier", "span", None),
    ("decode", "gcc_decode", "decode.gcc_decode", "hot", None),
    ("decode", "gmd_decode", "decode.gmd_decode", "context", None),
    ("oracle", "exact_min_weighted_distance", "oracle.exact_min_weighted_distance", "context", None),
    ("oracle", "exact_capability", "oracle.exact_capability", "context", None),
)


def _wrap(tracer, name, kind, observe, fn):
    if kind == "op":
        return _field_op(tracer, fn)
    if kind == "stream":
        return _streamed(tracer, name, fn)
    return _timed(tracer, name, fn, kind == "span", kind == "context", observe)


def install(tracer):
    """Rebind every target to a wrapper that reports to ``tracer``.

    Returns what :func:`uninstall` needs to put the originals back.
    """
    installed = []  # (owner, attribute, original) in installation order
    modules = {m: importlib.import_module(f"whmetric.{m}") for m in LAYERS}
    holders = list(modules.values()) + [importlib.import_module("whmetric")]
    for module, path, name, kind, observe in TARGETS:
        owner = modules[module]
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            installed.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, kind, observe, original))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, kind, observe, original)
        for mod in holders:
            for key, value in list(vars(mod).items()):
                if value is original:
                    installed.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return installed


def uninstall(installed):
    for owner, attr, original in reversed(installed):
        setattr(owner, attr, original)
