"""Command-line front end.

Subcommands: bounds, construct, analyze, decode, search, enumerate.
Configuration is a sectioned key/value file (see the README for the
grammar); unknown sections or keys are rejected rather than ignored.
Component codes, in ``[gcc]`` and in the ``[search]`` menus alike, are
specs read by :func:`whmetric.construct.parse_code_spec` (inner codes)
and :func:`whmetric.construct.parse_outer_spec` (outer codes).

Exit codes: 0 success, 2 configuration or parameter error, 3 exhaustion
refusal, 4 internal defect.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass

from . import oracle
from .bounds import (
    build_bound_table,
    covering_bound,
    lp_bound,
    packing_bound,
    singleton_k_for_t,
)
from .code import Limits, NestedChain, format_matrix, load_matrix_file
from .construct import (
    build_gcc,
    pareto_frontier,
    parse_code_spec,
    parse_outer_spec,
    search_constructions,
)
from .decode import gcc_decode
from .errors import DefectError, ExhaustionError, ParameterError
# make_extension_field is unused here but stays importable from this
# module: perfbench/test_perfbench.py checks that its tracer rebinds it.
from .field import make_extension_field, make_prime_field  # noqa: F401
from .metric import WeightedSpace

_SECTIONS = {"space", "gcc", "limits", "output", "search"}
_SPACE_KEYS = {"q", "blocks", "lambda"}
_LIMIT_KEYS = {"max_codewords", "max_ambient"}
_OUTPUT_KEYS = {"format", "out"}
_SEARCH_KEYS = {"inner", "outer", "max_levels"}


@dataclass
class RunConfig:
    space: WeightedSpace
    limits: Limits
    out_format: str = "csv"
    out_path: str = None
    gcc_section: dict = None
    search_section: dict = None
    base_dir: str = "."


def _parse_int_list(text, what):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ParameterError(f"{what} must be a comma-separated integer list, got {text!r}") from None


def parse_config(path) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None, comment_prefixes=("#",))
    cp.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ParameterError(f"config syntax error: {exc}") from None

    unknown = set(cp.sections()) - _SECTIONS
    if unknown:
        raise ParameterError(f"unknown config sections: {sorted(unknown)}")
    if "space" not in cp:
        raise ParameterError("config needs a [space] section")

    space_sec = dict(cp["space"])
    bad = set(space_sec) - _SPACE_KEYS
    if bad:
        raise ParameterError(f"unknown keys in [space]: {sorted(bad)}")
    for key in _SPACE_KEYS:
        if key not in space_sec:
            raise ParameterError(f"[space] is missing the key {key!r}")
    try:
        q = int(space_sec["q"])
    except ValueError:
        raise ParameterError(f"q must be an integer, got {space_sec['q']!r}") from None
    blocks = _parse_int_list(space_sec["blocks"], "blocks")
    scales = _parse_int_list(space_sec["lambda"], "lambda")
    make_prime_field(q)  # primality check up front
    space = WeightedSpace(q, blocks, scales)

    limits = Limits()
    if "limits" in cp:
        sec = dict(cp["limits"])
        bad = set(sec) - _LIMIT_KEYS
        if bad:
            raise ParameterError(f"unknown keys in [limits]: {sorted(bad)}")
        kwargs = {}
        for key in _LIMIT_KEYS:
            if key in sec:
                try:
                    kwargs[key] = int(sec[key])
                except ValueError:
                    raise ParameterError(f"{key} must be an integer") from None
        limits = Limits(**kwargs)

    out_format, out_path = "csv", None
    if "output" in cp:
        sec = dict(cp["output"])
        bad = set(sec) - _OUTPUT_KEYS
        if bad:
            raise ParameterError(f"unknown keys in [output]: {sorted(bad)}")
        out_format = sec.get("format", "csv")
        if out_format not in ("csv", "json"):
            raise ParameterError(f"output format must be csv or json, got {out_format!r}")
        out_path = sec.get("out")

    gcc_section = None
    if "gcc" in cp:
        gcc_section = dict(cp["gcc"])
        allowed_prefixes = ("chain.", "outer.")
        for key in gcc_section:
            if key != "levels" and not key.startswith(allowed_prefixes):
                raise ParameterError(f"unknown key in [gcc]: {key!r}")

    search_section = None
    if "search" in cp:
        search_section = dict(cp["search"])
        bad = set(search_section) - _SEARCH_KEYS
        if bad:
            raise ParameterError(f"unknown keys in [search]: {sorted(bad)}")

    return RunConfig(
        space=space,
        limits=limits,
        out_format=out_format,
        out_path=out_path,
        gcc_section=gcc_section,
        search_section=search_section,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def build_gcc_from_config(cfg: RunConfig):
    sec = cfg.gcc_section
    if sec is None:
        raise ParameterError("this command needs a [gcc] section in the config")
    if "levels" not in sec:
        raise ParameterError("[gcc] is missing the key 'levels'")
    try:
        levels = int(sec["levels"])
    except ValueError:
        raise ParameterError("levels must be an integer") from None
    if levels < 1:
        raise ParameterError("levels must be at least 1")
    space = cfg.space
    field = make_prime_field(space.q)
    chains = []
    for l in range(space.m):
        key = f"chain.{l + 1}"
        if key not in sec:
            raise ParameterError(f"[gcc] is missing {key!r}")
        specs = [s for s in sec[key].split(";") if s.strip()]
        if len(specs) != levels:
            raise ParameterError(f"{key!r} must list {levels} codes separated by ';'")
        codes = [parse_code_spec(field, s, space.blocks[l], cfg.base_dir) for s in specs]
        chains.append(NestedChain(codes))
    known = {"levels"}
    known.update(f"chain.{l + 1}" for l in range(space.m))
    known.update(f"outer.{j + 1}" for j in range(levels))
    extra = set(sec) - known
    if extra:
        raise ParameterError(f"unexpected keys in [gcc]: {sorted(extra)}")
    outers = []
    for j in range(levels):
        key = f"outer.{j + 1}"
        if key not in sec:
            raise ParameterError(f"[gcc] is missing {key!r}")
        widths = tuple(chain.widths[j] for chain in chains)
        outers.append(parse_outer_spec(field, sec[key], widths, cfg.base_dir))
    return build_gcc(space, chains, outers, cfg.limits)


# -- output plumbing ---------------------------------------------------------


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output: {exc}") from None


def _emit(text, args, cfg):
    path = args.out or cfg.out_path
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _chosen_format(args, cfg):
    return args.format or cfg.out_format


# -- subcommands -------------------------------------------------------------


def cmd_bounds(args):
    cfg = parse_config(args.config)
    if args.t_max is None:
        raise ParameterError("bounds needs --t-max")
    t_min = 0 if args.t_min is None else args.t_min
    table = build_bound_table(cfg.space, t_min, args.t_max)
    if _chosen_format(args, cfg) == "json":
        _emit(table.to_json(), args, cfg)
    else:
        _emit(table.to_csv(), args, cfg)
    return 0


def cmd_construct(args):
    cfg = parse_config(args.config)
    gcc = build_gcc_from_config(cfg)
    code = gcc.as_linear_code()
    matrix_text = format_matrix(code)
    as_json = _chosen_format(args, cfg) == "json"
    if as_json:
        summary = json.dumps(
            {
                "length": gcc.n,
                "dimension": gcc.k,
                "designed_distance": gcc.designed_distance,
                "capability_floor": gcc.capability_floor,
                "generator": [list(r) for r in code.generator],
            },
            indent=2,
        ) + "\n"
    else:
        summary = (
            "n,k,d_designed,t_designed\n"
            f"{gcc.n},{gcc.k},{gcc.designed_distance},{gcc.capability_floor}\n"
        )
    path = args.out or cfg.out_path
    if path:
        _write(path, matrix_text)
        sys.stdout.write(summary)
    elif as_json:
        sys.stdout.write(summary)  # the generator is part of the payload
    else:
        sys.stdout.write(summary + "\n" + matrix_text)
    return 0


def cmd_analyze(args):
    cfg = parse_config(args.config)
    code = load_matrix_file(os.path.join(cfg.base_dir, args.code_file))
    space = cfg.space
    if code.field.order != space.q:
        raise ParameterError(
            f"code field order {code.field.order} does not match the space's q={space.q}"
        )
    d = oracle.exact_min_weighted_distance(code, space, cfg.limits)
    t = oracle.exact_capability(code, space, cfg.limits)
    report = {
        "length": code.n,
        "dimension": code.k,
        "min_weighted_distance": d,
        "capability": t,
        "bounds_at_capability": {
            "packing": packing_bound(space, t),
            "singleton": singleton_k_for_t(space, t),
            "lp": lp_bound(space, t),
            "covering": covering_bound(space, t),
        },
    }
    _emit(json.dumps(report, indent=2) + "\n", args, cfg)
    return 0


def cmd_decode(args):
    cfg = parse_config(args.config)
    gcc = build_gcc_from_config(cfg)
    try:
        with open(os.path.join(cfg.base_dir, args.word_file), "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read received word: {exc}") from None
    try:
        word = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ParameterError("received word must be whitespace-separated integers") from None
    q = cfg.space.q
    bad = next((s for s in word if not 0 <= s < q), None)
    if bad is not None:
        raise ParameterError(f"received symbol {bad} is outside the field [0, {q})")
    report = gcc_decode(gcc, word)
    _emit(report.to_json(), args, cfg)
    return 0


def cmd_search(args):
    cfg = parse_config(args.config)
    sec = cfg.search_section
    if sec is None:
        raise ParameterError("this command needs a [search] section in the config")
    if "inner" not in sec:
        raise ParameterError("[search] is missing the key 'inner'")
    inner = [s.strip() for s in sec["inner"].split(",") if s.strip()]
    outer = [s.strip() for s in sec.get("outer", "full").split(",") if s.strip()]
    try:
        max_levels = int(sec.get("max_levels", "1"))
    except ValueError:
        raise ParameterError("max_levels must be an integer") from None
    records = search_constructions(cfg.space, inner, outer, max_levels, cfg.limits, cfg.base_dir)
    t_front = pareto_frontier(records, "capability_floor")
    d_front = pareto_frontier(records, "designed_distance")
    if _chosen_format(args, cfg) == "json":
        payload = {
            "capability_frontier": [{"t": t, "k": k} for t, k in t_front],
            "distance_frontier": [{"d": d, "k": k} for d, k in d_front],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args, cfg)
    else:
        lines = ["t,k", *(f"{t},{k}" for t, k in t_front), "", "d,k"]
        lines += [f"{d},{k}" for d, k in d_front]
        _emit("\n".join(lines) + "\n", args, cfg)
    return 0


def cmd_enumerate(args):
    cfg = parse_config(args.config)
    if args.t_max is None:
        raise ParameterError("enumerate needs --t-max (the radius)")
    t = args.t_max
    if args.set == "diff":
        profiles = cfg.space.diff_ball_profiles(t)
        size = cfg.space.diff_ball_size(t)
    else:
        profiles = cfg.space.ball_profiles(t)
        size = cfg.space.ball_size(t)
    if _chosen_format(args, cfg) == "json":
        payload = {"profiles": [list(p) for p in profiles], "cardinality": size}
        _emit(json.dumps(payload, indent=2) + "\n", args, cfg)
    else:
        _emit("".join(",".join(str(w) for w in p) + "\n" for p in profiles), args, cfg)
    return 0


# -- entry point -------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="whmetric",
        description="Weighted-Hamming-metric codes: bounds, constructions, decoding.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the run configuration")
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--out", default=None, help="write output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", parents=[common], help="dimension-bound table over a radius range")
    p.add_argument("--t-min", type=int, default=None)
    p.add_argument("--t-max", type=int, default=None)
    p.set_defaults(func=cmd_bounds)
    p = sub.add_parser("construct", parents=[common], help="assemble the configured code")
    p.set_defaults(func=cmd_construct)
    p = sub.add_parser("analyze", parents=[common], help="exact parameters of a generator matrix file")
    p.add_argument("code_file", help="generator matrix file")
    p.set_defaults(func=cmd_analyze)
    p = sub.add_parser("decode", parents=[common], help="decode a received word file")
    p.add_argument("word_file", help="received word, whitespace-separated integers")
    p.set_defaults(func=cmd_decode)
    p = sub.add_parser("search", parents=[common], help="enumerate component menus, report frontiers")
    p.set_defaults(func=cmd_search)
    p = sub.add_parser("enumerate", parents=[common], help="list ball or difference-set profiles")
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--set", choices=("ball", "diff"), default="ball")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExhaustionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except DefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # any other escape is a defect, reported as exit 4
        print(f"internal defect: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
