"""Set-up, or one pass, of a workload in a fresh process.

    python3 perfbench/probe.py setup <workload> <start>
    python3 perfbench/probe.py pass <workload> <seed> <index>

``setup`` sets the workload up and prints the time since ``<start>``, the
parent's ``time.monotonic()`` just before it started this process; the
clock is system-wide, so the time covers interpreter start, imports,
config parse, code construction and the warm-up call.  ``run.py`` starts
these one after another and reports their median as ``setup_s``.

``pass`` sets up, draws the inputs of pass ``<index>`` from ``<seed>``,
times the pass and checks its outputs, and prints the operation times
and failure messages as one JSON object.  ``run.py`` runs the passes of
``fresh_process`` workloads this way, as their users run them.
"""

import json
import sys
import time


def main():
    mode, workload = sys.argv[1], sys.argv[2]
    from run import load_program, run_pass
    from workloads import WORKLOADS

    load_program()
    workload = WORKLOADS[workload]
    state = workload.setup()
    if mode == "setup":
        print(time.monotonic() - float(sys.argv[3]))
        return
    workload.prepare(state)
    workload.draw(state, int(sys.argv[3]), int(sys.argv[4]))
    durations, _, errors = run_pass(workload, state)
    print(json.dumps({"durations": durations, "errors": errors}))


if __name__ == "__main__":
    main()
