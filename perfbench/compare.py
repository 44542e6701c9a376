"""Compare a parent and a change by the benchmark's gain and regression rule.

    python3 perfbench/compare.py run --parent DIR --change DIR --workload decode \\
        --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py verdict pairs.jsonl

``run`` makes alternating pairs of untraced runs, of ``run_seconds`` from
``BENCHMARK.json``, in two source trees that hold the same
``perfbench``: pair i runs the parent first when i is even and the change
first when i is odd, both sides with seed ``--seed + i``.  Each run's
result line is appended to the output file with its side, pair and
workload.  ``verdict`` prints one row per (end-to-end metric, workload),
with the bounds and directions of ``BENCHMARK.json``.  ``op_p50_ms`` and
``op_tail_ms`` get rows only on workloads with ``per_op_metrics``;
elsewhere they restate ``wall_s``.  The labels:

* ``gain``: the change wins at least 9 in 10 pairs (ties count for
  neither), the medians differ by more than the parent's interquartile
  distance, and the change failed no more operations than the parent on
  that workload;
* ``unresolved``: either side's spread (interquartile distance over
  median) exceeds the bound, unless every change run is better than
  every parent run;
* ``regression``: the change's median is worse than the parent's by more
  than the bound;
* ``no-regression``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

from stats import quartiles, spread
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 900
WIN_SHARE = 0.9


OP_METRICS = ("op_p50_ms", "op_tail_ms")


def verdict(parent, change, better, bound, more_failures=False):
    """Label for one (metric, workload) row; ``parent[i]`` and ``change[i]`` form pair i.

    ``more_failures`` says that the change failed more operations than the
    parent on the workload, which rules a gain out.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1 if better == "higher" else -1

    def gain_of(p, c):  # positive when the change is better
        return sign * (c - p)

    wins = sum(1 for p, c in zip(parent, change) if gain_of(p, c) > 0)
    p1, p_med, p3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if not more_failures and wins >= WIN_SHARE * len(parent) and gain_of(p_med, c_med) > p3 - p1:
        return "gain", wins
    if spread(parent) > bound or spread(change) > bound:
        all_better = all(gain_of(p, c) > 0 for p in parent for c in change)
        return ("no-regression" if all_better else "unresolved"), wins
    if -gain_of(p_med, c_med) > bound * abs(p_med):
        return "regression", wins
    return "no-regression", wins


def load_definitions():
    with open(BENCHMARK, "r", encoding="utf-8") as fh:
        return json.load(fh)


def one_run(tree, workload, seed, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"run failed in {tree} (exit {done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cmd_run(args):
    sides = {"parent": args.parent, "change": args.change}
    seconds = load_definitions()["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as fh:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = one_run(sides[side], args.workload, args.seed + i, seconds)
                record = {"pair": i, "side": side, "workload": args.workload, "result": result}
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                print(f"pair {i} {side} done", file=sys.stderr)
    return 0


def cmd_verdict(args):
    definitions = load_definitions()
    runs = defaultdict(dict)  # (workload, side) -> pair -> result
    with open(args.file, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["side"])][rec["pair"]] = rec["result"]
    workloads = sorted({w for w, _ in runs})
    header = f"{'metric':14s} {'workload':9s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} {'wins':>7s}  verdict"
    print(header)
    for workload in workloads:
        parent_runs, change_runs = runs[(workload, "parent")], runs[(workload, "change")]
        pairs = sorted(set(parent_runs) & set(change_runs))
        failed = {side: sum(r[i]["failed"] for i in pairs) for side, r in (("parent", parent_runs), ("change", change_runs))}
        more_failures = failed["change"] > failed["parent"]
        for metric in definitions["end_to_end"]:
            name = metric["name"]
            if name in OP_METRICS and not WORKLOADS[workload].per_op_metrics:
                continue
            parent = [parent_runs[i]["metrics"][name]["value"] for i in pairs]
            change = [change_runs[i]["metrics"][name]["value"] for i in pairs]
            label, wins = verdict(parent, change, metric["better"], metric["bound"], more_failures)
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(
                f"{name:14s} {workload:9s} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':34s} "
                f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':34s} {f'{wins}/{len(pairs)}':>7s}  {label}"
            )
        if failed["change"] or failed["parent"]:
            print(
                f"{'failed':14s} {workload:9s} operations failed: parent {failed['parent']}, "
                f"change {failed['change']}" + ("; no gain counts" if more_failures else "")
            )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run alternating parent/change pairs")
    p.add_argument("--parent", required=True, help="source tree of the parent commit")
    p.add_argument("--change", required=True, help="source tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="JSON-lines file the results are appended to")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("verdict", help="one verdict row per (end-to-end metric, workload)")
    p.add_argument("file")
    p.set_defaults(func=cmd_verdict)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
