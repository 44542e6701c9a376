"""The four workloads: bounds, certify, decode and search.

Each workload has five parts.

* ``setup()`` is the program's set-up as a user pays it: import, config
  parse, code construction (with its brute-force component distances)
  and one untimed call that fills lazy tables.  ``setup_s`` times
  exactly this, in fresh processes.
* ``prepare(state)`` loads the reference data the check compares with.
* ``draw(state, seed, index)`` makes the inputs of pass ``index`` from the
  seed.  Every pass gets inputs of its own, so a cache that outlives one
  call cannot turn later passes into replays of the first.  It runs
  before the pass is timed and is not set-up time.
* ``ops(state)`` lists one pass as ``(tag, function, args)`` operations.
* ``check(state, index, output)`` returns ``None`` for an exact output and
  a message otherwise.

The bounds and search inputs are fixed tables from the project roadmap;
the seed changes nothing there.  Their users run one table or one search
per process, so ``fresh_process`` makes each of their passes a process
of its own.  In certify the seed picks an equivalent generator (change
of basis, coordinate order inside each block), and in decode it draws
the message and error stream.  Only decode has enough operations in a
pass for ``op_p50_ms`` and ``op_tail_ms`` to say more than ``wall_s``
(``per_op_metrics``); elsewhere one operation is one pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "configs")
GOLDEN = os.path.join(HERE, "golden")

BOUND_TABLES = ("q2", "q7")
CERTIFY_CODES = ("q2", "q7", "q3")
DECODE_CODES = ("rs4", "hc", "q7")
# Words per code in one decode pass.  rs4 words take about four times as
# long as hc or q7 words; giving rs4 most of the stream puts the median
# operation inside one code's times, not on the edge between two codes'.
DECODE_WORDS = {"rs4": 360, "hc": 120, "q7": 120}


def config_path(name):
    return os.path.join(CONFIGS, name)


def read_golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return fh.read()


def cli_call(cli, argv):
    """Run one CLI command in process; returns (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_cli_output(output, golden):
    code, text = output
    if code != 0:
        return f"exit code {code}"
    if text != golden:
        return "output differs from the golden output"
    return None


def bounds_argv(tag):
    return ["bounds", "--config", config_path(f"bounds_{tag}.cfg"),
            "--t-min", "0", "--t-max", "10", "--format", "json"]


SEARCH_ARGV = ["search", "--config", config_path("search.cfg"), "--format", "json"]


def pass_rng(seed, index):
    """The random source of pass ``index`` of a run with ``seed``."""
    return random.Random(f"{seed}/{index}")


class Workload:
    name = ""
    fresh_process = False
    per_op_metrics = False

    def draw(self, state, seed, index):
        pass


class Bounds(Workload):
    """`whmetric bounds` on blocks 7,7, lambda 1,2, t = 0..10, q = 2 then q = 7."""

    name = "bounds"
    fresh_process = True

    def setup(self):
        from whmetric import cli

        return {"cli": cli}

    def prepare(self, state):
        state["golden"] = [read_golden(f"bounds_{tag}.json") for tag in BOUND_TABLES]

    def ops(self, state):
        return [(tag, cli_call, (state["cli"], bounds_argv(tag))) for tag in BOUND_TABLES]

    def check(self, state, index, output):
        return check_cli_output(output, state["golden"][index])


class Search(Workload):
    """`whmetric search` over the named menus on (7,7,7)/(1,2,3), two levels."""

    name = "search"
    fresh_process = True

    def setup(self):
        from whmetric import cli

        return {"cli": cli}

    def prepare(self, state):
        state["golden"] = read_golden("search.json")

    def ops(self, state):
        return [("q2", cli_call, (state["cli"], SEARCH_ARGV))]

    def check(self, state, index, output):
        return check_cli_output(output, state["golden"])


def certify(oracle, code, space):
    return oracle.exact_min_weighted_distance(code, space), oracle.exact_capability(code, space)


def equivalent_code(rng, code, space):
    """The same code up to a seeded change of basis and a permutation of
    the coordinates inside each block; both keep every weighted distance."""
    from whmetric.code import LinearCode

    field = code.field
    rows = [list(r) for r in code.generator]
    k = len(rows)
    for i in range(k):
        j = rng.randrange(k)
        if j != i:
            c = rng.randrange(field.order)
            rows[i] = [field.add(a, field.mul(c, b)) for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    perm = []
    for lo, hi in space.block_ranges():
        block = list(range(lo, hi))
        rng.shuffle(block)
        perm.extend(block)
    out = LinearCode(field, [tuple(r[p] for p in perm) for r in rows])
    if out.k != code.k:
        raise RuntimeError("basis change lost rank")
    return out


class Certify(Workload):
    """Exact minimum weighted distance and capability of three codes."""

    name = "certify"

    def setup(self):
        from whmetric import cli, oracle
        from whmetric.code import named_code
        from whmetric.field import make_prime_field
        from whmetric.metric import WeightedSpace

        cfg = cli.parse_config(config_path("hc.cfg"))
        hc = cli.build_gcc_from_config(cfg).as_linear_code()
        codes = {
            "q2": (hc, cfg.space),
            "q7": (named_code("hamming", make_prime_field(7), 8, 6), WeightedSpace(7, (4, 4), (1, 2))),
            "q3": (named_code("hamming", make_prime_field(3), 13, 10), WeightedSpace(3, (6, 7), (1, 2))),
        }
        return {"oracle": oracle, "codes": codes}

    def prepare(self, state):
        golden = json.loads(read_golden("certify.json"))
        state["golden"] = [tuple(golden[tag]) for tag in CERTIFY_CODES]

    def draw(self, state, seed, index):
        rng = pass_rng(seed, index)
        state["inputs"] = [
            (tag, equivalent_code(rng, *state["codes"][tag]), state["codes"][tag][1])
            for tag in CERTIFY_CODES
        ]

    def ops(self, state):
        return [(tag, certify, (state["oracle"], code, space)) for tag, code, space in state["inputs"]]

    def check(self, state, index, output):
        if tuple(output) != state["golden"][index]:
            return f"(d, t) = {tuple(output)}, golden {state['golden'][index]}"
        return None


# -- decode ------------------------------------------------------------------


def profiles_of_weight(space, weight):
    return [
        p
        for p in product(*(range(b + 1) for b in space.blocks))
        if sum(s * w for s, w in zip(space.scales, p)) == weight
    ]


def random_error(rng, space, profiles):
    """An error whose block profile is drawn from ``profiles``."""
    profile = rng.choice(profiles)
    error = [0] * space.n
    for (lo, hi), w in zip(space.block_ranges(), profile):
        for pos in rng.sample(range(lo, hi), w):
            error[pos] = rng.randrange(1, space.q)
    return tuple(error)


def word_stream(rng, gcc, count):
    """``count`` (sent, error, beyond) triples for a code over a prime field.

    Three in four errors have weighted weight 1..floor (the code's
    capability floor), the rest floor+1..floor+2.
    """
    space = gcc.space
    floor = gcc.capability_floor
    by_weight = {w: profiles_of_weight(space, w) for w in range(floor + 3)}
    flags = [i % 4 == 3 for i in range(count)]
    rng.shuffle(flags)
    out = []
    for beyond in flags:
        message = tuple(rng.randrange(space.q) for _ in range(gcc.k))
        sent = gcc.encode(gcc.split_message(message))
        weight = rng.randint(floor + 1, floor + 2) if beyond else rng.randint(min(1, floor), floor)
        out.append((sent, random_error(rng, space, by_weight[weight]), beyond))
    return out


class Decode(Workload):
    """`gcc_decode` over a seeded word stream for three codes from the CLI grammar."""

    name = "decode"
    per_op_metrics = True

    def setup(self):
        from whmetric import cli
        from whmetric.decode import gcc_decode

        codes = {}
        for tag in DECODE_CODES:
            gcc = cli.build_gcc_from_config(cli.parse_config(config_path(f"{tag}.cfg")))
            gcc_decode(gcc, (0,) * gcc.n)  # fills the syndrome tables
            codes[tag] = gcc
        return {"decode": gcc_decode, "codes": codes}

    def prepare(self, state):
        state["linear"] = {tag: gcc.as_linear_code() for tag, gcc in state["codes"].items()}

    def draw(self, state, seed, index):
        rng = pass_rng(seed, index)
        words = []
        for tag in DECODE_CODES:
            gcc = state["codes"][tag]
            q = gcc.space.q
            for sent, error, beyond in word_stream(rng, gcc, DECODE_WORDS[tag]):
                received = tuple((a + e) % q for a, e in zip(sent, error))
                words.append((tag, sent, received, beyond))
        state["words"] = words

    def ops(self, state):
        codes = state["codes"]
        return [(tag, state["decode"], (codes[tag], received)) for tag, _, received, _ in state["words"]]

    def check(self, state, index, report):
        tag, sent, _, beyond = state["words"][index]
        if not beyond:
            if not report.ok or report.codeword != sent:
                return f"{tag} word {index}: within-floor error not corrected ({report.status})"
        elif report.ok and not state["linear"][tag].contains(report.codeword):
            return f"{tag} word {index}: decoder returned a non-codeword"
        return None

    def outcomes(self, state, reports):
        """Outer failures and miscorrections among the beyond-floor words."""
        beyond = failures = wrong = 0
        for (tag, sent, _, is_beyond), report in zip(state["words"], reports):
            if not is_beyond:
                continue
            beyond += 1
            if not report.ok:
                failures += 1
            elif report.codeword != sent:
                wrong += 1
        return {"beyond_floor_words": beyond, "outer_failures": failures, "miscorrections": wrong}


WORKLOADS = {w.name: w for w in (Bounds(), Certify(), Decode(), Search())}
