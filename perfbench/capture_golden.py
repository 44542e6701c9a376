"""Write the golden outputs the exactness gate compares against.

    python3 perfbench/capture_golden.py

Run it only at the commit whose outputs are the reference; every later
commit must reproduce these files byte for byte.  It writes both bound
tables as the CLI's JSON (every exact ``lp_optimum``), the (d, t) of
each certify code, and the search frontiers.
"""

import json
import os

from run import load_program
from workloads import BOUND_TABLES, GOLDEN, SEARCH_ARGV, WORKLOADS, bounds_argv, certify, cli_call


def write(name, text):
    with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def text_of(output):
    code, text = output
    if code != 0:
        raise SystemExit(f"the CLI exited with {code}")
    return text


def main():
    load_program()
    from whmetric import cli

    os.makedirs(GOLDEN, exist_ok=True)
    for tag in BOUND_TABLES:
        write(f"bounds_{tag}.json", text_of(cli_call(cli, bounds_argv(tag))))
    write("search.json", text_of(cli_call(cli, SEARCH_ARGV)))
    state = WORKLOADS["certify"].setup()
    oracle = state["oracle"]
    dt = {tag: list(certify(oracle, code, space)) for tag, (code, space) in state["codes"].items()}
    write("certify.json", json.dumps(dt, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
