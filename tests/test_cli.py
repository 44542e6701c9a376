import contextlib
import io
import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whmetric import cli
from whmetric.cli import main
from whmetric.code import Limits
from whmetric.construct import pareto_frontier, search_constructions
from whmetric.errors import ParameterError
from whmetric.metric import WeightedSpace

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

SPACE_33 = """
[space]
q = 2
blocks = 3,3
lambda = 1,2
"""

TWO_BLOCK = SPACE_33 + """
[gcc]
levels = 1
chain.1 = repetition:3
chain.2 = full:3
outer.1 = full
"""

TWO_LEVEL = """
[space]
q = 2
blocks = 6,3
lambda = 1,2

[gcc]
levels = 2
chain.1 = rows:111111|111000 ; rows:111111
chain.2 = full:3 ; rows:111
outer.1 = rows:1,1,1
outer.2 = full
"""

THREE_BLOCK = """
[space]
q = 2
blocks = 3,3,3
lambda = 1,2,3

[gcc]
levels = 1
chain.1 = repetition:3
chain.2 = parity:3
chain.3 = full:3
outer.1 = mother:parity:3:2
"""

RECIPE_21 = """
[space]
q = 2
blocks = 7,7,7
lambda = 1,2,3

[gcc]
levels = 1
chain.1 = hamming:7
chain.2 = full:7
chain.3 = full:7
outer.1 = full
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_bounds_csv(tmp_path, capsys):
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    code, out = run(capsys, ["bounds", "--config", cfg, "--t-min", "0", "--t-max", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,packing,singleton,lp,covering"
    assert lines[1] == "0,6,6,6,6"
    code2, out2 = run(capsys, ["bounds", "--config", cfg, "--t-min", "0", "--t-max", "3"])
    assert out2 == out  # byte-stable


def test_bounds_empty_range(tmp_path, capsys):
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    code, out = run(capsys, ["bounds", "--config", cfg, "--t-min", "3", "--t-max", "2"])
    assert code == 0
    assert out == "t,packing,singleton,lp,covering\n"


def test_bounds_negative_t_min_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    assert main(["bounds", "--config", cfg, "--t-min", "-1", "--t-max", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bounds_json_includes_raw_lp_optimum(tmp_path, capsys):
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    code, out = run(
        capsys,
        ["bounds", "--config", cfg, "--t-min", "0", "--t-max", "1", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["t"] == 0
    assert rows[0]["lp_optimum"] == "64"


def test_bounds_requires_t_max(tmp_path, capsys):
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    code, _ = run(capsys, ["bounds", "--config", cfg])
    assert code == 2


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.cfg", "[space]\nq = 2\nblocks = 3,3\nlambda = 2,1\n")
    assert run(capsys, ["bounds", "--config", bad, "--t-max", "1"])[0] == 2
    bad2 = write(tmp_path, "bad2.cfg", SPACE_33 + "stray = 1\n")
    assert run(capsys, ["bounds", "--config", bad2, "--t-max", "1"])[0] == 2
    bad3 = write(tmp_path, "bad3.cfg", "[space]\nq = 6\nblocks = 3\nlambda = 1\n")
    assert run(capsys, ["bounds", "--config", bad3, "--t-max", "1"])[0] == 2
    missing = str(tmp_path / "nope.cfg")
    assert run(capsys, ["bounds", "--config", missing, "--t-max", "1"])[0] == 2


def test_exhaustion_exit_3(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "tight.cfg",
        TWO_BLOCK + "\n[limits]\nmax_codewords = 4\n",
    )
    gen = write(tmp_path, "gen.txt", "2 6 4\n1 1 1 0 0 0\n0 0 0 1 0 0\n0 0 0 0 1 0\n0 0 0 0 0 1\n")
    code, _ = run(capsys, ["analyze", "--config", cfg, gen])
    assert code == 3
    # the inner full:3 has 8 codewords; its distance scan obeys [limits] too
    code, _ = run(capsys, ["construct", "--config", cfg])
    assert code == 3


def test_a_negative_cap_is_a_config_error_and_a_zero_cap_refuses_every_scan(tmp_path, capsys):
    negative = write(tmp_path, "negative.cfg", TWO_BLOCK + "\n[limits]\nmax_codewords = -1\n")
    assert main(["construct", "--config", negative]) == 2
    assert "max_codewords must be a non-negative integer, got -1" in capsys.readouterr().err
    zero = write(tmp_path, "zero.cfg", TWO_BLOCK + "\n[limits]\nmax_codewords = 0\n")
    assert main(["construct", "--config", zero]) == 3
    assert "exceeds the limit 0" in capsys.readouterr().err
    for bad in (-1, 1.5, "8"):
        with pytest.raises(ParameterError, match="^max_ambient must be a non-negative integer"):
            Limits(max_ambient=bad)


def test_construct_two_block(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    out_path = tmp_path / "gen.txt"
    code, out = run(capsys, ["construct", "--config", cfg, "--out", str(out_path)])
    assert code == 0
    assert out.splitlines()[0] == "n,k,d_designed,t_designed"
    assert out.splitlines()[1] == "6,4,2,1"
    text = out_path.read_text()
    assert text.splitlines()[0] == "2 6 4"


def test_construct_three_block_with_mother_outer(tmp_path, capsys):
    cfg = write(tmp_path, "three.cfg", THREE_BLOCK)
    code, out = run(capsys, ["construct", "--config", cfg])
    assert code == 0
    assert "9,3,6,2" in out


def test_construct_two_level(tmp_path, capsys):
    cfg = write(tmp_path, "nine.cfg", TWO_LEVEL)
    code, out = run(capsys, ["construct", "--config", cfg, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 9
    assert payload["dimension"] == 3
    assert payload["designed_distance"] == 5
    assert payload["capability_floor"] == 2


def test_construct_recipe_21_18(tmp_path, capsys):
    cfg = write(tmp_path, "big.cfg", RECIPE_21)
    code, out = run(capsys, ["construct", "--config", cfg])
    assert code == 0
    assert out.splitlines()[1] == "21,18,2,1"


def test_analyze_constructed_code(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    out_path = tmp_path / "gen.txt"
    run(capsys, ["construct", "--config", cfg, "--out", str(out_path)])
    code, out = run(capsys, ["analyze", "--config", cfg, str(out_path)])
    assert code == 0
    report = json.loads(out)
    assert report["min_weighted_distance"] == 2
    assert report["capability"] == 1
    assert report["bounds_at_capability"]["packing"] >= report["dimension"]


def test_decode_roundtrip_and_correction(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    clean = write(tmp_path, "clean.txt", "1 1 1 0 0 1\n")
    code, out = run(capsys, ["decode", "--config", cfg, clean])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["codeword"] == [1, 1, 1, 0, 0, 1]
    noisy = write(tmp_path, "noisy.txt", "1 0 1 0 0 1\n")
    code, out = run(capsys, ["decode", "--config", cfg, noisy])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["codeword"] == [1, 1, 1, 0, 0, 1]


def test_a_nul_byte_in_the_config_path_exits_2(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "a\x00b"), "x.txt"]) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err and "internal defect" not in err


def test_a_nul_byte_in_the_word_file_path_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    assert main(["decode", "--config", cfg, "a\x00b.txt"]) == 2
    err = capsys.readouterr().err
    assert "cannot read received word" in err and "internal defect" not in err


def test_search_frontier_contains_recipe_point(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "search.cfg",
        """
[space]
q = 2
blocks = 7,7,7
lambda = 1,2,3

[search]
inner = repetition,parity,hamming,full
max_levels = 2
outer = full
""",
    )
    code, out = run(capsys, ["search", "--config", cfg])
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert blocks[0].splitlines()[0] == "t,k"
    assert "1,18" in blocks[0].splitlines()
    assert blocks[1].splitlines()[0] == "d,k"


def _search_config(inner, outer="full", max_levels="2"):
    return SPACE_33 + f"""
[search]
inner = {inner}
outer = {outer}
max_levels = {max_levels}
"""


@pytest.mark.parametrize(
    "inner, outer, max_levels",
    [
        ("repetition,parity,full", "full,bogus", "2"),
        ("repetition,hamming:x", "full", "2"),
        ("repetition,parity,full", "full", "0"),
        ("repetition,parity,full", "full", "-3"),
        ("", "full", "2"),
        ("repetition,parity,full", "", "2"),
    ],
)
def test_search_menu_errors_exit_2(tmp_path, capsys, inner, outer, max_levels):
    cfg = write(tmp_path, "search.cfg", _search_config(inner, outer, max_levels))
    assert main(["search", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_search_with_a_huge_max_levels_stops_at_the_deepest_chain(tmp_path, capsys):
    inner, outer = "repetition,parity,full", "full,rs"
    cfg = write(tmp_path, "deep.cfg", _search_config(inner, outer, "1000000"))
    capped = write(tmp_path, "capped.cfg", _search_config(inner, outer, "3"))
    code, out = run(capsys, ["search", "--config", cfg])
    assert code == 0
    assert run(capsys, ["search", "--config", capped]) == (0, out)


def _readme_config():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("command", ["construct", "search"])
def test_readme_config_example_runs(tmp_path, capsys, command):
    cfg = write(tmp_path, "readme.cfg", _readme_config())
    code, out = run(capsys, [command, "--config", cfg])
    assert code == 0, capsys.readouterr().err
    assert out


def test_search_record_names_rebuild_in_gcc(tmp_path):
    # every frontier record, written back as a [gcc] section, rebuilds the
    # same dimension, designed distance and capability floor
    write(tmp_path, "Rep3.txt", "2 3 1\n1 1 1\n")
    write(tmp_path, "Rep2.txt", "2 2 1\n1 1\n")
    space = WeightedSpace(2, (3, 3), (1, 2))
    records = search_constructions(
        space,
        ["repetition", "parity", "full", "rows:110|011", "file:Rep3.txt"],
        ["full", "rs", "mother:parity:2:1", "file:Rep2.txt"],
        2,
        base_dir=str(tmp_path),
    )
    keys = ("capability_floor", "designed_distance")
    fronts = {key: set(pareto_frontier(records, key)) for key in keys}
    on_front = [r for r in records if any((r[key], r["k"]) in f for key, f in fronts.items())]
    assert {o for r in on_front for o in r["outer"]} >= {"mother:rs:2:1", "file:Rep2.txt"}
    for i, rec in enumerate(on_front):
        lines = [f"levels = {rec['levels']}"]
        lines += [f"chain.{l + 1} = {' ; '.join(chain)}" for l, chain in enumerate(rec["inner"])]
        lines += [f"outer.{j + 1} = {spec}" for j, spec in enumerate(rec["outer"])]
        path = write(tmp_path, f"rec{i}.cfg", SPACE_33 + "\n[gcc]\n" + "\n".join(lines) + "\n")
        gcc = cli.build_gcc_from_config(cli.parse_config(path))
        assert (gcc.k, gcc.designed_distance, gcc.capability_floor) == (
            rec["k"],
            rec["designed_distance"],
            rec["capability_floor"],
        )


def test_enumerate_profiles(tmp_path, capsys):
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    code, out = run(capsys, ["enumerate", "--config", cfg, "--t-max", "2"])
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "1,0", "2,0"]
    code, out = run(
        capsys,
        ["enumerate", "--config", cfg, "--t-max", "1", "--set", "diff", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["profiles"] == [[0, 0], [1, 0], [2, 0]]
    assert payload["cardinality"] == 1 + 3 + 3


def test_unused_flags_are_usage_errors(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    received = write(tmp_path, "word.txt", "1 1 1 0 0 1\n")
    for argv in (
        ["bounds", "--config", cfg, "--t-max", "1", "--seed", "3"],
        ["decode", "--config", cfg, "--t-min", "0", received],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_output_file_flag(tmp_path, capsys):
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    dest = tmp_path / "table.csv"
    code, out = run(capsys, ["bounds", "--config", cfg, "--t-max", "1", "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[0] == "t,packing,singleton,lp,covering"


def test_analyze_two_level_code(tmp_path, capsys):
    cfg = write(tmp_path, "nine.cfg", TWO_LEVEL)
    gen = tmp_path / "gen9.txt"
    code, _ = run(capsys, ["construct", "--config", cfg, "--out", str(gen)])
    assert code == 0
    code, out = run(capsys, ["analyze", "--config", cfg, str(gen)])
    assert code == 0
    report = json.loads(out)
    assert report["min_weighted_distance"] == 5
    assert report["capability"] == 2


def test_construct_mother_outer_with_unsorted_widths(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "swap.cfg",
        """
[space]
q = 2
blocks = 3,3
lambda = 1,2

[gcc]
levels = 1
chain.1 = full:3
chain.2 = parity:3
outer.1 = mother:parity:2:1
""",
    )
    code, out = run(capsys, ["construct", "--config", cfg])
    assert code == 0
    # widths (3, 2): the mother-derived outer is permuted back onto them
    assert out.splitlines()[1] == "6,2,5,2"


def test_chain_spec_from_matrix_file(tmp_path, capsys):
    write(tmp_path, "inner.txt", "2 3 1\n1 1 1\n")
    cfg = write(
        tmp_path,
        "filechain.cfg",
        SPACE_33
        + """
[gcc]
levels = 1
chain.1 = file:inner.txt
chain.2 = full:3
outer.1 = full
""",
    )
    code, out = run(capsys, ["construct", "--config", cfg])
    assert code == 0
    assert out.splitlines()[1] == "6,4,2,1"


def test_decode_rejects_out_of_field_symbols(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    for word in ("1 1 1 0 0 -1\n", "1 1 5 0 0 1\n"):
        received = write(tmp_path, "word.txt", word)
        assert main(["decode", "--config", cfg, received]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the field" in captured.err


def test_malformed_specs_exit_2(tmp_path, capsys):
    for chain, outer in (
        ("repetition:abc", "full"),
        ("rows:1x1", "full"),
        ("repetition:3", "mother:parity:two:1"),
    ):
        cfg = write(
            tmp_path,
            "bad.cfg",
            SPACE_33
            + f"""
[gcc]
levels = 1
chain.1 = {chain}
chain.2 = parity:3
outer.1 = {outer}
""",
        )
        assert main(["construct", "--config", cfg]) == 2
        assert "expected an integer" in capsys.readouterr().err
    # <family>[:<n>[:<k>]]: a k that the family does not fix, more parts,
    # or a Reed-Solomon code without its k
    for chain in ("repetition:3:7", "full:3:99", "hamming:3:1:5", "rs:7", "rs:2"):
        cfg = write(tmp_path, "bad.cfg", TWO_BLOCK.replace("repetition:3", chain))
        assert main(["construct", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_mother_dimension_beyond_the_block_count_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "three.cfg", THREE_BLOCK.replace("mother:parity:3:2", "mother:parity:3:5"))
    assert main(["construct", "--config", cfg]) == 2
    assert "mother dimension must be in [1, 3]" in capsys.readouterr().err


def test_unexpected_errors_exit_4(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "build_bound_table", broken)
    cfg = write(tmp_path, "space.cfg", SPACE_33)
    assert main(["bounds", "--config", cfg, "--t-max", "1"]) == 4
    assert capsys.readouterr().err == "internal defect: ZeroDivisionError: boom\n"


# -- unreadable and unwritable files exit 2 ------------------------------------

NOT_UTF8 = b"2 6 1\n\xff\xfe 1 1\n"


def test_analyze_missing_generator_file_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    assert main(["analyze", "--config", cfg, str(tmp_path / "nope.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read matrix file: ")


@pytest.mark.parametrize(
    "spec, missing",
    (("repetition:3", "file:nope.txt"), ("outer.1 = full", "outer.1 = file:nope.txt")),
    ids=("chain", "outer"),
)
def test_missing_matrix_file_in_a_spec_exits_2(tmp_path, capsys, spec, missing):
    cfg = write(tmp_path, "file.cfg", TWO_BLOCK.replace(spec, missing))
    assert main(["construct", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read matrix file: ")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(SPACE_33.encode() + b"# \xff\n")
    assert main(["bounds", "--config", str(cfg), "--t-max", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


def test_received_word_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    word = tmp_path / "word.txt"
    word.write_bytes(b"1 1 1 0 0 \xff\n")
    assert main(["decode", "--config", cfg, str(word)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read received word: ")


def test_matrix_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    gen = tmp_path / "gen.txt"
    gen.write_bytes(NOT_UTF8)
    assert main(["analyze", "--config", cfg, str(gen)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read matrix file: ")


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    dest = str(tmp_path / "no-such-dir" / "out.txt")
    cfg = write(tmp_path, "two.cfg", TWO_BLOCK)
    for argv in (
        ["bounds", "--config", cfg, "--t-max", "1", "--out", dest],
        ["construct", "--config", cfg, "--out", dest],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")


# -- the exit-code contract on arbitrary input files ---------------------------


@pytest.fixture(scope="module")
def two_block_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("contract")
    write(tmp_path, "two.cfg", TWO_BLOCK)
    return tmp_path


def _check_exit_contract(directory, data, argv):
    """Run ``argv`` on a file holding ``data``: only exits 0, 2 and 3 are promised."""
    path = directory / "input.bin"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--config", str(directory / "two.cfg"), str(path)])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.binary(max_size=64))
@example(data=NOT_UTF8)
@example(data=b"2 6 1\n1 1 1 0 0 1\n")
@example(data=b"")
def test_any_generator_file_exits_0_2_or_3(two_block_dir, data):
    _check_exit_contract(two_block_dir, data, ["analyze"])


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(data=st.binary(max_size=64))
@example(data=b"1 0 1 0 0 1\n")
@example(data=b"1 1 1 0 0 \xff\n")
@example(data=b"1 1 1\n")
def test_any_received_word_exits_0_2_or_3(two_block_dir, data):
    _check_exit_contract(two_block_dir, data, ["decode"])


# -- the exit-code contract on arbitrary config text and code specs ------------

GENERATOR_6_1 = "2 6 1\n1 1 1 1 1 1\n"


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("configs")
    write(tmp_path, "gen.txt", GENERATOR_6_1)
    return tmp_path


def _config_exits(directory, text, argv):
    """Run ``argv --config`` on a config holding ``text``, from inside
    ``directory`` so that any output path it names lands there."""
    path = directory / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], "--config", str(path)] + argv[1:])
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_SMALL = st.integers(-2, 9).map(str)
_INT_LIST = st.lists(_SMALL, min_size=1, max_size=3).map(",".join)
_FAMILIES = st.sampled_from(
    ("repetition", "parity", "full", "hamming", "rs", "reed_solomon", "rows", "file", "mother")
)
_SPEC_PARTS = st.one_of(_FAMILIES, _SMALL, st.sampled_from(("101", "1,1,0|0,1,1")), _TEXT)
_SPECS = st.one_of(  # a family head and arbitrary parts, or arbitrary parts alone
    st.tuples(_FAMILIES, st.lists(_SPEC_PARTS, max_size=3)).map(lambda h: ":".join([h[0]] + h[1])),
    st.lists(_SPEC_PARTS, min_size=1, max_size=4).map(":".join),
)


def _assignments(keys, values):
    return st.tuples(st.sampled_from(keys), values).map(" = ".join)


_CONFIG_LINES = st.one_of(
    st.sampled_from(("[space]", "[gcc]", "[limits]", "[output]", "[search]", "[bogus]", "")),
    st.sampled_from(("q = 2", "q = 3", "blocks = 3,3", "lambda = 1,2", "levels = 1", "levels = 2")),
    _assignments(("q", "blocks", "lambda", "levels", "format"), _INT_LIST),
    _assignments(("chain.1", "chain.2", "outer.1", "outer.2", "inner", "outer"), _SPECS),
    _assignments(("max_codewords", "max_ambient"), _SMALL),
    _TEXT,
)
_CONFIGS = st.one_of(_TEXT, st.lists(_CONFIG_LINES, max_size=14).map("\n".join))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(text=_CONFIGS)
@example(text=TWO_BLOCK)
@example(text=TWO_BLOCK.replace("[gcc]", "[space]"))  # a repeated section
@example(text=TWO_BLOCK.replace("q = 2", "q = 2\nq = 3"))  # a repeated key
@example(text=TWO_BLOCK.replace("lambda = 1,2", "lambda = 2,1"))
@example(text=TWO_BLOCK.replace("q = 2", "q = 1"))
@example(text=TWO_BLOCK.replace("q = 2", "q = 4"))
@example(text=TWO_BLOCK.replace("blocks = 3,3", "blocks = 3,0"))
@example(text=TWO_BLOCK + "[limits]\nmax_codewords = 0\n")
@example(text=TWO_BLOCK + "[limits]\nmax_codewords = -1\n")
@example(text=TWO_BLOCK + "[output]\nformat = yaml\n")
@example(text=TWO_BLOCK.replace("levels = 1", "levels = 0"))
@example(text="[space\nq = 2\n")
@example(text="q = 2\n")
@example(text="")
def test_any_config_text_exits_0_2_or_3(config_dir, text):
    _config_exits(config_dir, text, ["analyze", "gen.txt"])
    _config_exits(config_dir, text, ["construct"])


def _with_specs(chain, outer):
    return SPACE_33 + f"""
[gcc]
levels = 1
chain.1 = {chain}
chain.2 = parity:3
outer.1 = {outer}
"""


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(chain=_SPECS, outer=_SPECS)
@example(chain="repetition:3", outer="full")
@example(chain="rows:111|111", outer="full")
@example(chain="rows:", outer="full")
@example(chain="rows:2", outer="full")
@example(chain="hamming:3", outer="full")
@example(chain="rs:3:2", outer="full")
@example(chain="parity:0", outer="full")
@example(chain="full:-1", outer="full")
@example(chain="file:", outer="full")
@example(chain="repetition:3", outer="mother:parity:2:1")
@example(chain="repetition:3", outer="mother:reed_solomon:2:1")
@example(chain="repetition:3", outer="mother:bogus:2:1")
@example(chain="repetition:3", outer="mother:parity:2:0")
@example(chain="repetition:3", outer="rows:1,1,1")
@example(chain="repetition:3", outer="rows:0,0,0")
@example(chain="repetition:3", outer="rows:1")
@example(chain="repetition:3", outer="file:gen.txt")
@example(chain="file:gen.txt", outer="full")
@example(chain="file:a\x00b", outer="full")
@example(chain="full:99999999999", outer="full")
def test_any_inner_and_outer_spec_exits_0_2_or_3(config_dir, chain, outer):
    _config_exits(config_dir, _with_specs(chain, outer), ["construct"])


_MENU_ENTRIES = st.one_of(
    st.sampled_from(("rs:3:2", "rows:", "file:missing.txt", "mother:bogus:2:1", "bogus", "")),
    _FAMILIES,
    _SPECS,
)
# entries that give a code somewhere on blocks 3,3, so that searches run
_INNER_ENTRIES = st.sampled_from(
    ("repetition", "parity", "full", "full:3", "hamming", "rows:111|110", "rows:110|011")
)
_OUTER_ENTRIES = st.sampled_from(
    ("full", "rs", "parity", "mother:rs:2:1", "mother:parity:2:1", "file:gen.txt", "rows:11")
)


def _menu(entries, min_size=0):
    return st.lists(entries, min_size=min_size, max_size=4).map(",".join)


def _any_menu(entries):
    return st.one_of(_menu(st.one_of(entries, _MENU_ENTRIES)), _TEXT)


_SEARCHES = st.one_of(
    st.tuples(
        _menu(_INNER_ENTRIES, 1),
        _menu(_OUTER_ENTRIES, 1),
        st.sampled_from((1, 2, 3, 10**9)).map(str),
    ),
    st.tuples(
        _any_menu(_INNER_ENTRIES),
        _any_menu(_OUTER_ENTRIES),
        st.one_of(st.integers(-2, 3), st.just(10**9)).map(str),
    ),
)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(search=_SEARCHES)
@example(search=("repetition,parity,full", "full,rs", "1000000000"))
@example(search=("repetition,parity,full", "full,rs", "-2"))
@example(search=("repetition, FULL:3", "Full, RS, file:gen.txt", "2"))
@example(search=("file:gen.txt", "full", "1"))
@example(search=("repetition", "mother:rs:2:1,rows:11", "1"))
@example(search=("", "full", "1"))
@example(search=("full", "", "1"))
@example(search=("full", "file:a\x00b", "1"))
def test_any_search_menu_exits_0_2_or_3(config_dir, search):
    _config_exits(config_dir, _search_config(*search), ["search"])
