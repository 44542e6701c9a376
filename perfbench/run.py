"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the program is imported from its
``src`` directory.  The run is one process with one caller in a closed
loop: set-up, then passes over the workload's operation list for
``--seconds`` (at least one pass; see ``more_time``), each pass on inputs
drawn from the seed and the pass index and followed by the exactness
check of its outputs.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the stamp, goes to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
over fresh processes of the time from process start to the end of
set-up; ``wall_s`` is the mean pass time.  ``--trace 1`` installs span
wrappers (see ``tracer.py``) before set-up and reports the per-layer
metrics of ``layer_metrics.py`` instead; spans go to ``perfbench/out/``
as JSON lines.  The exit code is
0 when every output is exact, 1 when one is not, 2 when the program
cannot be found.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from layer_metrics import Run, layer_metrics
from stats import tail
from tracer import NOT_MEASURABLE_FROM_OUTSIDE, Tracer, View, install, uninstall
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


class ProgramMissing(Exception):
    pass


def load_program():
    """Import ``whmetric`` from this tree's ``src``, and from nowhere else."""
    package = os.path.join(SRC, "whmetric")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise ProgramMissing(f"no whmetric package under {SRC}")
    sys.path.insert(0, SRC)
    import whmetric

    if os.path.dirname(os.path.abspath(whmetric.__file__)) != package:
        raise ProgramMissing(f"whmetric was imported from {whmetric.__file__}, not {package}")


# -- stamp -------------------------------------------------------------------


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the program's source files, for trees that are not git checkouts."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def make_stamp(seed):
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "load1_start": os.getloadavg()[0],
        "seed": seed,
    }


def warn_load(stamp, key):
    if stamp[key] > stamp["nproc"]:
        print(
            f"warning: 1-minute load average {stamp[key]:.2f} exceeds nproc={stamp['nproc']}; "
            "timings are not trustworthy",
            file=sys.stderr,
        )


# -- measuring ---------------------------------------------------------------


def probe(*args):
    """Run ``probe.py`` with ``args`` in a fresh process; returns its last output line."""
    argv = [sys.executable, os.path.join(HERE, "probe.py"), *map(str, args)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {done.stderr.strip()}")
    return done.stdout.strip().splitlines()[-1]


def probe_setup(workload):
    """Set-up time of one fresh process, from its start to the end of set-up."""
    return float(probe("setup", workload, time.monotonic()))


def run_pass(workload, state, tracer=None):
    """Time each operation of one pass, then check the outputs.

    Returns the operation times, the outputs and the failure messages.
    """
    clock = time.perf_counter
    durations, outputs = [], []
    for tag, fn, args in workload.ops(state):
        if tracer is not None:
            tracer.tag = tag
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # one failed operation; the run reports it and goes on
            out = exc
        durations.append(clock() - t0)
        outputs.append(out)
    if tracer is not None:
        tracer.tag = None
    errors = []
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            errors.append("".join(traceback.format_exception(out)).strip())
        else:
            err = workload.check(state, i, out)
            if err:
                errors.append(err)
    return durations, outputs, errors


def timed_passes(workload, seed, seconds, state=None, tracer=None, max_passes=None):
    """Passes until ``seconds`` have elapsed, each on inputs of its own.

    With ``state`` the passes run in this process, on inputs drawn before
    each pass outside its timing (and outside the trace); without it each
    pass runs in a fresh process.  Returns per-pass operation times, the
    failure messages of every pass and the outcomes of the first pass.
    """
    times, errors, outcomes, laps = [], [], {}, []
    begin = time.perf_counter()
    while not times or (len(times) != max_passes and more_time(begin, laps, seconds)):
        index = len(times)
        lap = time.perf_counter()
        if state is None:
            result = json.loads(probe("pass", workload.name, seed, index))
            durations, errs = result["durations"], result["errors"]
        else:
            if tracer is not None:
                tracer.on = False
            workload.draw(state, seed, index)
            if tracer is not None:
                tracer.on = True
                tracer.pass_index = index
            durations, outputs, errs = run_pass(workload, state, tracer)
            if index == 0 and hasattr(workload, "outcomes"):
                outcomes = workload.outcomes(state, outputs)
        times.append(durations)
        errors.extend(errs)
        laps.append(time.perf_counter() - lap)
    return times, errors, outcomes


def more_time(begin, laps, seconds):
    """Whether another pass would end nearer the deadline than stopping now.

    A pass is taken to last as long as the median pass so far, drawing
    and checking included, so a run ends within half a pass of
    ``seconds`` instead of up to a whole pass after it.
    """
    return time.perf_counter() - begin + statistics.median(laps) / 2 < seconds


def peak_rss_mib():
    """Peak resident memory of this process or of the largest process it waited for."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024


def mean_pass(values):
    """Mean over a run's passes of a per-pass value.

    A shared host runs this process in two states about 1.5 times apart
    in speed, switching within seconds, and drifts between them over
    minutes.  A median or a low quantile over passes jumps from one
    state to the other as the share of time in each crosses its rank;
    the mean moves in proportion to that share.  For ``wall_s`` it is
    the wall time of the timed phase divided by the passes.
    """
    return statistics.fmean(values)


def end_to_end(workload, seed, seconds):
    setup = [probe_setup(workload.name) for _ in range(SETUP_PROBES)]
    state = None
    if not workload.fresh_process:
        state = workload.setup()
        workload.prepare(state)
    times, errors, outcomes = timed_passes(workload, seed, seconds, state)
    walls = [sum(durations) for durations in times]
    detail = {
        "setup_samples_s": setup,
        "pass_walls_s": walls,
        "passes": len(walls),
        "ops_per_pass": len(times[0]),
    }
    if workload.per_op_metrics:
        # A pass's median call follows the host state of that pass, so it
        # is averaged (see ``mean_pass``).  A pass's tail is set by its
        # slowest calls, which nearly every pass has whatever its state,
        # so the median over passes of the tails is the steadier figure.
        pass_p50 = [statistics.median(durations) for durations in times]
        tails = [tail(durations) for durations in times]
        pass_tail = [v for v, _ in tails]
        p50, tail_value, percentile = mean_pass(pass_p50), statistics.median(pass_tail), tails[0][1]
        detail.update(pass_op_p50_s=pass_p50, pass_op_tail_s=pass_tail)
    else:
        # One operation is one pass, and a run has too few passes for a
        # percentile with ten samples beyond it: both restate ``wall_s``.
        p50 = tail_value = mean_pass(walls)
        percentile = None
        detail.update(pass_op_s=times)
    detail.update(op_tail_percentile=percentile, outcomes=outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (mean_pass(walls), "s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return metrics, sum(map(len, times)), errors, detail


def traced(workload, seed, seconds):
    """The per-layer run: in this process, with span wrappers installed.

    A ``fresh_process`` workload gets one pass, the first a user's process
    would run.
    """
    tracer = Tracer()
    installed = install(tracer)
    try:
        state = workload.setup()
        setup_view = View(tracer.snapshot(), tracer.spans)
        setup_spans = tracer.spans
        workload.prepare(state)
        tracer.reset()
        max_passes = 1 if workload.fresh_process else None
        times, errors, outcomes = timed_passes(workload, seed, seconds, state, tracer, max_passes)
    finally:
        uninstall(installed)
    walls = [sum(durations) for durations in times]
    run = Run(
        View(tracer.snapshot(), tracer.spans),
        setup_view,
        len(walls),
        tracer.seen,
        outcomes,
        mean_pass(walls),
    )
    metrics = layer_metrics(run)
    spans = [dict(s, phase="setup") for s in setup_spans] + [dict(s, phase="pass") for s in tracer.spans]
    detail = {
        "passes": len(walls),
        "pass_walls_s": walls,
        "not_measurable_from_outside": NOT_MEASURABLE_FROM_OUTSIDE,
        "outcomes": outcomes,
    }
    return metrics, sum(map(len, times)), errors, detail, spans


def untraced_wall(workload, seed):
    """wall_s of the untraced run of this workload in ``out/``: same seed if any, else the latest."""
    same = os.path.join(OUT, f"{workload}-trace0-seed{seed}.json")
    paths = [same] if os.path.exists(same) else glob.glob(os.path.join(OUT, f"{workload}-trace0-seed*.json"))
    if not paths:
        return None
    with open(max(paths, key=os.path.getmtime), "r", encoding="utf-8") as fh:
        return json.load(fh)["metrics"]["wall_s"]["value"]


# -- entry point -------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    stamp = make_stamp(args.seed)
    warn_load(stamp, "load1_start")
    spans = None
    if args.trace:
        metrics, attempted, errors, detail, spans = traced(workload, args.seed, args.seconds)
        untraced = untraced_wall(workload.name, args.seed)
        detail["tracing_overhead_s"] = (
            metrics["trace.wall_s"][0] - untraced if untraced is not None else None
        )
    else:
        metrics, attempted, errors, detail = end_to_end(workload, args.seed, args.seconds)
    stamp["load1_end"] = os.getloadavg()[0]
    warn_load(stamp, "load1_end")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        result,
        workload=workload.name,
        trace=args.trace,
        seconds=args.seconds,
        failed_ratio=len(errors) / attempted,
        failures=errors[:20],
        stamp=stamp,
        detail=detail,
    )
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"{workload.name}-trace{args.trace}-seed{args.seed}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if spans is not None:
        with open(base + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"commit={stamp['git_commit'] or 'n/a'} src={stamp['src_sha256'][:12]} "
        f"python={stamp['python']} nproc={stamp['nproc']} "
        f"load1={stamp['load1_start']:.2f}->{stamp['load1_end']:.2f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':36s} {len(errors)}/{attempted}")
    if args.trace:
        overhead = detail["tracing_overhead_s"]
        print(
            "  tracing overhead: "
            + (f"{overhead:.4g} s per pass" if overhead is not None else "no untraced run in out/ to compare")
        )
        print("  not measurable from outside: " + ", ".join(sorted(detail["not_measurable_from_outside"])))
    for err in errors[:5]:
        print(f"  FAILED: {err}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
