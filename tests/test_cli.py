import enum
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pmcrystal import cli
from pmcrystal.cartan import build_root_datum
from pmcrystal.limits import MAX_RANK, LimitExceeded
from pmcrystal.cli import run
from pmcrystal.product import ConsistencyError, multiset_from_pairs
from pmcrystal.truncation import truncate, up_closure
from pmcrystal.typea import check_diagram, check_sequence
from conftest import random_multiset
from reference import diagram_of_sequence


def run_json(capsys, argv, expect_code=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect_code, out
    return json.loads(out)


def test_decompose_sl4_example(capsys):
    data = run_json(capsys, ["decompose", "--cartan", "A", "--rank", "3",
                             "--R", "[[1,3,1],[3,1,1],[3,3,1]]"])
    assert data["status"] == "ok"
    assert data["result"]["decomposition"] == {"(1,0,2)": 1, "(1,1,0)": 1}


def test_decompose_empty(capsys):
    data = run_json(capsys, ["decompose", "--cartan", "A", "--rank", "2", "--R", "[]"])
    assert data["result"]["decomposition"] == {"(0,0)": 1}


def test_decompose_gl6_example(capsys):
    data = run_json(capsys, ["decompose", "--cartan", "GL", "--rank", "6",
                             "--R", "[[1,5,1],[3,1,1],[4,6,1]]"])
    parts = data["result"]["decomposition"]["by_partition"]
    assert parts == {
        "[2, 2, 2, 2]": 1, "[2, 2, 2, 1, 1]": 1, "[2, 2, 1, 1, 1, 1]": 1,
        "[3, 2, 2, 1]": 1, "[3, 2, 1, 1, 1]": 1, "[3, 1, 1, 1, 1, 1]": 1}


def test_character_with_truncation(capsys):
    data = run_json(capsys, [
        "character", "--cartan", "GL", "--rank", "4",
        "--R", "[[1,3,1],[3,1,1],[3,3,1]]",
        "--truncation", '{"thresholds": {"1": 3, "2": 2, "3": 1}}'])
    assert data["result"]["laurent"] == "x1^3*x2^2*x3^2 + x1^3*x2^2*x3*x4"


def test_truncate_command(capsys):
    data = run_json(capsys, ["truncate", "--cartan", "A", "--rank", "3",
                             "--R", "[[1,3,1],[3,1,1],[3,3,1]]",
                             "--truncation", '{"thresholds": {"1": 3, "2": 2, "3": 1}}'])
    assert data["result"]["count"] == 2


def test_plan_command(capsys):
    data = run_json(capsys, ["plan", "--cartan", "A", "--rank", "3",
                             "--R", "[[1,3,1],[3,1,1],[3,3,1]]"])
    steps = data["result"]["plan"]["steps"]
    assert {"extend": [3, 1]} in steps
    assert {"multiply": [[3, 1, 1]]} in steps
    assert data["result"]["character"] == {"(1,0,2)": 1, "(1,1,0)": 1}


def test_graph_dot_deterministic(capsys):
    code = run(["graph", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]",
                "--format", "dot"])
    first = capsys.readouterr().out
    assert code == 0
    assert first.count("->") == 2
    code = run(["graph", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]",
                "--format", "dot"])
    assert capsys.readouterr().out == first


def test_graph_single_node(capsys):
    code = run(["graph", "--cartan", "A", "--rank", "2", "--R", "[]",
                "--format", "dot"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("->") == 0


def test_graph_json_six_nodes(capsys):
    data = run_json(capsys, ["graph", "--cartan", "A", "--rank", "2",
                             "--R", "[[1,1,2]]"])
    g = data["result"]["graph"]
    assert len(g["nodes"]) == 6 and len(g["edges"]) == 6


def test_schur_sequence(capsys):
    data = run_json(capsys, ["schur", "--sequence", "[[1],[1],[2,1,1]]"])
    assert data["result"]["decomposition"] == {
        "[4, 1, 1]": 1, "[3, 2, 1]": 2, "[2, 2, 2]": 1}


def test_schur_sequence_at_a_rank_whose_full_character_passes_max_terms(capsys):
    # pi_{w_o} of this flagged character in GL_13 has more than
    # limits.MAX_TERMS terms, so peeling it exited 3; the decomposition is
    # the GL_3 one, as every highest weight has at most 3 rows
    data = run_json(capsys, ["schur", "--sequence", "[[3],[2,1],[2,1,1]]", "--rank", "13"])
    expected = {"[5, 3, 2]": 1, "[5, 4, 1]": 1, "[6, 2, 2]": 1, "[6, 3, 1]": 2, "[7, 2, 1]": 1}
    assert data["result"]["decomposition"] == expected
    assert run_json(capsys, ["schur", "--sequence", "[[3],[2,1],[2,1,1]]"])[
        "result"]["decomposition"] == expected


def test_schur_diagram(capsys):
    diagram = "[[1,1],[2,2],[3,2],[2,3],[4,3]]"
    data = run_json(capsys, ["schur", "--diagram", diagram])
    expected = {"[2, 1, 1, 1]": 1, "[3, 1, 1]": 1, "[2, 2, 1]": 2, "[3, 2]": 1}
    assert data["result"]["decomposition"] == expected
    assert data["result"]["skew_lr"] == expected
    assert data["result"]["specht"] == expected
    assert data["result"]["skew_shape"] == {"lambda": [3, 2, 2, 1], "mu": [2, 1]}


def test_schur_diagram_ascii(capsys):
    code = run(["schur", "--diagram", "[[1,1],[1,2],[2,1]]", "--format", "ascii"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "[][]\n[]\n"


@pytest.mark.parametrize("argv", [
    ["graph", "--R", "[[1,1,1]]", "--format", "ascii"],
    ["decompose", "--R", "[[1,1,1]]", "--format", "dot"],
    ["character", "--R", "[[1,1,1]]", "--format", "json"],
    ["stable", "--R", "[[1,1,1]]", "--format", "json"],
    ["schur", "--diagram", "[[1,1]]", "--format", "dot"],
])
def test_format_only_where_honoured(capsys, argv):
    # --format belongs to graph (json, dot) and schur (json, ascii) alone
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["schur", "--sequence", "[[1]]", "--format", "ascii"],
    ["stable", "--R", "[[1,1,1]]", "--coeffs", "--restrict", "-1"],
    ["stable", "--R", "[[1,1,1]]", "--bound", "--restrict", "-1"],
    ["stable", "--R", "[[1,1,1]]", "--bound", "--restrict", "1"],
    ["schur", "--diagram", "[[1,1],[2,1]]", "--format", "ascii", "--rank", "1"],
    ["schur", "--diagram", "[[1,1],[2,1]]", "--format", "ascii", "--rank", "0"],
    ["schur", "--diagram", "[[1,1],[2,1]]", "--format", "ascii", "--rank", "99"],
])
def test_options_that_would_do_nothing_exit_2(capsys, argv):
    data = run_json(capsys, argv, expect_code=2)
    assert data["status"] == "error" and data["diagnostics"]


def test_stable_restrict_zero_keeps_the_empty_partition(capsys):
    # --restrict accepts 0: only the empty partition has length <= 0
    data = run_json(capsys, ["stable", "--R", "[]", "--restrict", "0"])
    assert data["result"]["coefficients"] == {"[]": 1}
    data = run_json(capsys, ["stable", "--R", "[[1,1,1]]", "--restrict", "0"])
    assert data["result"]["coefficients"] == {}


def test_schur_rank_defaults_to_the_sequence_length_or_1(capsys):
    assert run_json(capsys, ["schur", "--sequence", "[]"])["result"]["rank"] == 1
    assert run_json(capsys, ["schur", "--diagram", "[]"])["result"]["rank"] == 1
    assert run_json(capsys, ["schur", "--sequence", "[[1],[1]]"])["result"]["rank"] == 2


def test_cartan_defaults_to_a2(capsys):
    argv = ["decompose", "--R", "[[1,1,1],[2,0,1]]"]
    assert run_json(capsys, argv) == run_json(capsys, argv + ["--cartan", "A", "--rank", "2"])


@pytest.mark.parametrize("kind, r", [("E6", "[[1,0,1]]"), ("E7", "[[1,0,1]]"),
                                     ("E8", "[[8,0,1]]")])
def test_rank_defaults_to_the_fixed_rank_of_an_e_kind(capsys, kind, r):
    # the kind fixes the rank, so --rank may be left out (the default was 2,
    # which exited 2); a wrong rank given explicitly is still refused
    for command in ("decompose", "graph", "plan"):
        argv = [command, "--cartan", kind, "--R", r]
        assert run_json(capsys, argv) == run_json(capsys, argv + ["--rank", kind[1]])
    data = run_json(capsys, ["decompose", "--cartan", kind, "--rank", "2", "--R", r],
                    expect_code=2)
    assert data["diagnostics"] == [f"type {kind} has fixed rank {kind[1]}"]


def test_rank_defaults_to_2_for_the_other_kinds(capsys):
    for kind, r in (("A", "[[1,1,1]]"), ("GL", "[[1,1,1]]")):
        argv = ["decompose", "--cartan", kind, "--R", r]
        assert run_json(capsys, argv) == run_json(capsys, argv + ["--rank", "2"])
    data = run_json(capsys, ["decompose", "--cartan", "D", "--R", "[]"], expect_code=2)
    assert data["diagnostics"] == ["type D needs rank >= 4"]


def test_schur_diagram_of_one_long_row(capsys):
    # lr_skew_expand walks the cells with its own stack: it recursed once
    # per cell, and a row of about 990 boxes or more ended in RecursionError
    diagram = json.dumps([[1, c] for c in range(1, 1201)])
    result = run_json(capsys, ["schur", "--diagram", diagram])["result"]
    assert result["skew_lr"] == result["decomposition"] == {"[1200]": 1}
    assert result["skew_shape"] == {"lambda": [1200], "mu": []}


def test_stable_bound_and_coeffs_exclude_each_other(capsys):
    # the bound alone and the coefficients cannot both be printed
    assert run(["stable", "--R", "[[1,1,1]]", "--bound", "--coeffs"]) == 2
    assert capsys.readouterr().out == ""


def test_stable_commands(capsys):
    data = run_json(capsys, ["stable", "--R", "[[1,5,1],[3,1,1],[4,6,1]]", "--bound"])
    assert data["result"]["stable_bound"] == 6
    data = run_json(capsys, ["stable", "--R", "[[1,5,1],[3,1,1],[4,6,1]]",
                             "--coeffs", "--restrict", "5"])
    assert data["result"]["coefficients"] == {
        "[2, 2, 2, 2]": 1, "[2, 2, 2, 1, 1]": 1,
        "[3, 2, 2, 1]": 1, "[3, 2, 1, 1, 1]": 1}


@pytest.mark.parametrize("argv", [
    ["decompose", "--cartan", "A", "--rank", "2", "--R", "[[1,0,1]]"],   # parity
    ["decompose", "--cartan", "A", "--rank", "2", "--R", "[[5,1,1]]"],   # rank
    ["decompose", "--cartan", "D", "--rank", "3", "--R", "[]"],          # bad rank
    ["decompose", "--cartan", "A", "--rank", "2", "--R", "not json"],
    ["schur", "--sequence", "[[1,2]]"],                                  # not a partition
    ["schur"],                                                           # missing input
    ["truncate", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]",
     "--truncation", '{"thresholds": {"1": 3, "2": 2}}'],                # R outside J
    ["character", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]",
     "--truncation", '{"thresholds": {"1": 3, "2": 2}}'],                # plan precondition
])
def test_validation_errors_exit_2(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 2
    data = json.loads(out)
    assert data["status"] == "error" and data["diagnostics"]
    assert list(data) == sorted(data)
    assert run(argv) == 2
    assert capsys.readouterr().out == out


def test_unknown_command_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_round_trip_schema(capsys):
    # every JSON answer re-parses and carries the envelope keys
    data = run_json(capsys, ["character", "--cartan", "A", "--rank", "2",
                             "--R", "[[1,1,2]]"])
    assert set(data) == {"status", "result", "diagnostics"}


DEEP_ARRAY = "[" * 3000 + "]" * 3000
DEEP_OBJECT = '{"a": ' * 3000 + "1" + "}" * 3000


@pytest.mark.parametrize("deep", [DEEP_ARRAY, DEEP_OBJECT], ids=["array", "object"])
@pytest.mark.parametrize("argv, what", [
    (["decompose", "--R", "{}"], "bad point multiset"),
    (["stable", "--R", "{}"], "bad point multiset"),
    (["schur", "--sequence", "{}"], "bad sequence"),
    (["schur", "--diagram", "{}"], "bad diagram"),
    (["truncate", "--R", "[[1,1,1]]", "--truncation", "{}"], "bad truncation"),
    (["plan", "--R", "[[1,1,1]]", "--truncation", "{}"], "bad truncation"),
], ids=["decompose", "stable", "sequence", "diagram", "truncate", "plan"])
def test_argument_nested_past_the_parsers_depth_exits_2(capsys, argv, what, deep):
    # json.loads raises RecursionError here, which once left run() as a
    # traceback and exit 1, the code of a route disagreement
    code = run([deep if arg == "{}" else arg for arg in argv])
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["status"] == "error" and data["result"] is None
    assert data["diagnostics"][0].startswith(what)
    assert "maximum recursion depth exceeded" in data["diagnostics"][0]


@pytest.mark.parametrize("error", [ValueError("v"), TypeError("t"), KeyError("k"),
                                   AttributeError("a"), RecursionError("r")])
def test_reading_names_every_unreadable_error(error):
    # the one policy of every JSON argument; the validators raise only
    # ValueError today, so the other three are pinned here, not by an input
    with pytest.raises(ValueError) as info:
        with cli._reading("thing 'x'"):
            raise error
    assert str(info.value) == f"bad thing 'x': {error}" and info.value.__cause__ is error


@pytest.mark.parametrize("error", [OverflowError("o"), ConsistencyError("c", {}),
                                   LimitExceeded("s", 1, 2)])
def test_reading_lets_other_errors_through(error):
    with pytest.raises(type(error)) as info:
        with cli._reading("thing"):
            raise error
    assert info.value is error



@pytest.mark.parametrize("command", ["decompose", "graph"])
def test_limit_exceeded_exits_3(capsys, monkeypatch, command):
    from pmcrystal import limits
    monkeypatch.setattr(limits, "MAX_ELEMENTS", 5)  # |M(R)| = 6 below
    data = run_json(capsys, [command, "--cartan", "A", "--rank", "2",
                             "--R", "[[1,1,2]]"], expect_code=3)
    assert data["status"] == "limit-exceeded" and data["result"] is None
    assert "limit 5" in data["diagnostics"][0]


# One case per limit, each patched in ``limits`` alone: (name, value, argv,
# exit code, last diagnostic).  The 8-box diagram is the skew shape
# (3,3,2,1)/(1); the 3-row one has a gap in its first column.
LIMIT_CASES = [
    ("MAX_ELEMENTS", 5, ["graph", "--cartan", "A", "--rank", "2", "--R", "[[1,1,2]]"], 3,
     {"stage": "crystal.closure", "limit": 5, "reached": 6}),
    ("MAX_TERMS", 10, ["character", "--cartan", "D", "--rank", "4",
                       "--R", "[[1,0,1],[3,0,1]]"], 3,
     {"stage": "weightring.demazure_pi", "limit": 10, "reached": 11}),
    ("MAX_PLAN_STEPS", 3, ["plan", "--cartan", "A", "--rank", "3",
                           "--R", "[[1,3,1],[3,1,1],[3,3,1]]"], 3,
     {"stage": "truncation.plan_steps", "limit": 3, "reached": 7}),
    ("MAX_RANK", 2, ["decompose", "--cartan", "A", "--rank", "3", "--R", "[]"], 2,
     "rank 3 exceeds the ceiling MAX_RANK = 2"),
    ("CONVEXIFY_MAX_ROWS", 2, ["schur", "--diagram", "[[1,1],[2,2],[3,1]]"], 2,
     "diagram has gapped columns and too many rows to search for a convexifying row order"),
    ("SPECHT_MAX_BOXES", 8, ["schur", "--diagram",
                             "[[1,1],[1,2],[2,1],[2,2],[2,3],[3,2],[3,3],[4,3]]"], 0, None),
]


@pytest.mark.parametrize("name,value,argv,code,diagnostic", LIMIT_CASES,
                         ids=[case[0] for case in LIMIT_CASES])
def test_each_limit_through_the_cli(capsys, monkeypatch, name, value, argv, code, diagnostic):
    # every reader reads the limit when it runs: no copy taken at import
    # (as cli once kept of SPECHT_MAX_BOXES) and no cached root datum
    # escapes a lowered MAX_RANK
    from pmcrystal import limits
    before = run_json(capsys, argv)["result"]
    monkeypatch.setattr(limits, name, value)
    data = run_json(capsys, argv, expect_code=code)
    if code == 0:
        assert "specht" not in before and data["result"]["specht"] == before["decomposition"]
        assert data["result"]["decomposition"] == before["decomposition"]
    else:
        assert data["status"] == ("limit-exceeded" if code == 3 else "error")
        assert data["diagnostics"][-1] == diagnostic


def test_closed_stdout_exits_quietly(capsys):
    # a reader that stops early (| head) once left a BrokenPipeError
    # traceback on stderr
    argv = ["graph", "--cartan", "D", "--rank", "4", "--R", "[[1,0,1],[3,0,1],[4,0,1]]"]
    assert run(argv) == 0
    assert len(capsys.readouterr().out) > 4 << 16  # beyond any pipe buffer
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "pmcrystal.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err, err.decode()


A3_R = "[[1,1,1]]"


@pytest.mark.parametrize("argv", [
    # columns outside 1..3; "0" once indexed column 3 from the end
    ["truncate", "--cartan", "A", "--rank", "3", "--R", A3_R,
     "--truncation", '{"thresholds": {"9": 1}}'],
    ["character", "--cartan", "A", "--rank", "3", "--R", A3_R,
     "--truncation", '{"thresholds": {"0": 1, "1": 1, "2": 2}}'],
    ["plan", "--cartan", "A", "--rank", "3", "--R", A3_R,
     "--truncation", '{"thresholds": {"-1": 1, "1": 1}}'],
    # JSON numbers too large for an int
    *[[command, "--cartan", "A", "--rank", "3", "--R", "[[1,1e400,1]]"]
      for command in ("decompose", "character", "truncate", "plan", "graph")],
    ["stable", "--R", "[[1,1,1e400]]"],
    ["character", "--cartan", "A", "--rank", "3", "--R", A3_R,
     "--truncation", '{"thresholds": {"1": 1e400}}'],
    ["schur", "--diagram", "[[1,-1e400]]"],
    ["schur", "--sequence", "[[1e400]]"],
    # rows and columns below 1, once dropped by the Schur route alone
    ["schur", "--diagram", "[[0,1],[-1,1],[1,2]]"],
    ["schur", "--diagram", "[[1,0],[1,1]]"],
    ["schur", "--diagram", "[[0,1]]", "--format", "ascii"],
    # a repeated box, once read as a 2-box column
    ["schur", "--diagram", "[[1,1],[1,1],[2,1]]"],
])
def test_malformed_integers_exit_2(capsys, argv):
    code = run(argv)
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["status"] == "error" and data["diagnostics"]
    assert list(data) == sorted(data)


@pytest.mark.parametrize("other", ["01", "+1", " 1", "1 ", "\u0661", "1"])
@pytest.mark.parametrize("command", ["truncate", "character", "plan"])
def test_truncation_column_given_twice_exits_2(capsys, command, other):
    # "01" once overwrote column 1's threshold 1 with 3, so J missed R
    base = ["--cartan", "A", "--rank", "3", "--R", A3_R]
    pairs = '"1": 1, "2": 2, "3": 1'
    assert run([command, *base, "--truncation", '{"thresholds": {%s}}' % pairs]) == 0
    if command == "truncate":
        assert json.loads(capsys.readouterr().out)["result"]["count"] == 1
    capsys.readouterr()
    text = '{"thresholds": {%s, %s: 3}}' % (pairs, json.dumps(other))
    assert run([command, *base, "--truncation", text]) == 2
    diagnostic, = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diagnostic.endswith("key '1' is given twice" if other == "1" else
                               f"column 1 is given twice, as '1' and {other!r}")


@pytest.mark.parametrize("command", ["truncate", "character", "plan"])
def test_truncation_key_other_than_thresholds_exits_2(capsys, command):
    # a key beside "thresholds" was once ignored, and the run exited 0
    base = ["--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]"]
    assert run([command, *base, "--truncation", '{"thresholds": {"1": 1, "2": 2}}']) == 0
    capsys.readouterr()
    for key, text in [("extra", '{"thresholds": {"1": 1, "2": 2}, "extra": 1}'),
                      ("Thresholds", '{"Thresholds": {}, "thresholds": {"1": 1, "2": 2}}'),
                      ("", '{"thresholds": {"1": 1, "2": 2}, "": null}')]:
        assert run([command, *base, "--truncation", text]) == 2
        diagnostic, = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostic.endswith(f"unknown key {key!r}: the only key is 'thresholds'")


GL4_R = "[[1,3,1],[3,1,1],[3,3,1]]"


@pytest.mark.parametrize("value", ["1.9", "true", "2.5", '"1"'])
@pytest.mark.parametrize("argv", [
    ["decompose", "--cartan", "A", "--rank", "3", "--R", "[[1,1,{}]]"],
    ["stable", "--R", "[[1,1,{}]]"],
    ["character", "--cartan", "GL", "--rank", "4", "--R", GL4_R, "--truncation",
     '{{"thresholds": {{"1": 3, "2": {}, "3": 1}}}}'],
    ["schur", "--diagram", "[[1,1],[{},2]]"],
    ["schur", "--sequence", "[[{}]]"],
])
def test_non_integers_exit_2(capsys, argv, value):
    # int() would truncate the float, read the bool as 1 or parse the
    # string, and exit 0
    code = run([arg.format(value) for arg in argv])
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["status"] == "error"
    assert "is not an integer" in data["diagnostics"][0]


@pytest.mark.parametrize("argv", [
    ["decompose", "--cartan", "A", "--rank", "2", "--R", "{}"],
    ["decompose", "--cartan", "A", "--rank", "2", "--R", '""'],
    ["decompose", "--cartan", "A", "--rank", "2", "--R", '[{}]'],
    ["decompose", "--cartan", "A", "--rank", "2", "--R", '["110"]'],
    ["stable", "--R", "{}"],
    ["graph", "--cartan", "A", "--rank", "2", "--R", "{}"],
    ["schur", "--sequence", "{}"],
    ["schur", "--sequence", "[{}]"],
    ["schur", "--sequence", '[""]'],
    ["schur", "--diagram", "{}"],
    ["schur", "--diagram", '""'],
    ["schur", "--diagram", '[{}]'],
])
def test_objects_and_strings_for_lists_exit_2(capsys, argv):
    # a dict iterates as its keys and a string as its characters, so an
    # empty one used to read as an empty list and exit 0 with that answer
    code = run(argv)
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["status"] == "error"
    assert "is not a list" in data["diagnostics"][0]


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[1]"], "1 is not a list"),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "null"], "None is not a list"),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "5"], "5 is not a list"),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[[1,1,null]]"],
     "None is not an integer"),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[[1,1,[1]]]"],
     "[1] is not an integer"),
    (["schur", "--diagram", "[1]"], "1 is not a list"),
    (["schur", "--sequence", "[[null]]"], "None is not an integer"),
    (["character", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]", "--truncation", "[]"],
     "[] is not an object"),
    (["character", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]", "--truncation", "null"],
     "None is not an object"),
    (["character", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]", "--truncation",
      '{"thresholds": [1]}'], "[1] is not an object"),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[[1]]"],
     "[1] is not [i, c] or [i, c, m]"),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1,1]]"],
     "[1, 1, 1, 1] is not [i, c] or [i, c, m]"),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[[]]"],
     "[] is not [i, c] or [i, c, m]"),
    (["schur", "--diagram", "[[1,2,3]]"], "[1, 2, 3] is not a [row, col] pair"),
    (["schur", "--diagram", "[[1]]"], "[1] is not a [row, col] pair"),
    (["character", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]", "--truncation", "{}"],
     "no 'thresholds' key"),
    (["character", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]", "--truncation",
      '{"thresholds": {"x": 1}}'], "column 'x' is not an integer"),
])
def test_wrong_typed_json_is_refused_by_name(capsys, argv, message):
    # these exited 2 before too, but with Python's own text:
    # "object of type 'int' has no len()", "cannot unpack non-iterable int
    # object", "int() argument must be ...", "list indices must be ...",
    # "not enough values to unpack", "'thresholds'" (a KeyError's repr)
    code = run(argv)
    diagnostic, = json.loads(capsys.readouterr().out)["diagnostics"]
    assert code == 2 and diagnostic.endswith(message)


def test_tuples_stay_lists():
    assert multiset_from_pairs(((1, 3, 1), [2, 0])) == multiset_from_pairs([[1, 3, 1], [2, 0, 1]])
    assert check_sequence(((), (1,), [2, 1])) == ((), (1,), (2, 1))
    assert check_diagram(((1, 1), [1, 2])) == frozenset({(1, 1), (1, 2)})
    # so do the Python iterables that no JSON value is, which the library
    # passes itself: a set of boxes, a generator of partitions
    assert check_diagram(frozenset({(1, 1), (1, 2)})) == frozenset({(1, 1), (1, 2)})
    assert check_sequence(p for p in ((), (1,))) == ((), (1,))


@pytest.mark.parametrize("command", ["stable", "decompose"])
@pytest.mark.parametrize("vertex", [0, -1, -3])
def test_a_vertex_below_1_is_named(capsys, command, vertex):
    # stable reads R at the rank one past its largest vertex, but never
    # below GL_1, so the refusal names the vertex as decompose's does
    code = run([command, "--R", f"[[{vertex},{vertex % 2},1]]"])
    diagnostic, = json.loads(capsys.readouterr().out)["diagnostics"]
    assert code == 2 and diagnostic.endswith(f"vertex {vertex} not in diagram")


@pytest.mark.parametrize("argv", [
    ["character", "--R", "[[1,1,1],[1,1,-1]]"],
    ["stable", "--R", "[[1,1,1],[1,1,-1]]"],
    ["decompose", "--R", "[[2,0],[1,1,-1],[1,1,2]]"],
])
def test_cancelling_negative_multiplicity_exits_2(capsys, argv):
    # each entry is checked before repeated points are summed, so a negative
    # multiplicity cannot cancel against a positive one into a valid R
    code = run(argv)
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["status"] == "error"
    assert "negative multiplicity at (1, 1)" in data["diagnostics"][0]
    # a zero multiplicity stays legal, and adds nothing
    assert run(["character", "--R", "[[1,1,0],[2,0]]"]) == 0
    with_zero = capsys.readouterr().out
    assert run(["character", "--R", "[[2,0]]"]) == 0
    assert capsys.readouterr().out == with_zero


# -- seeded argv fuzzing ------------------------------------------------------

FUZZ_DATA = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("GL", 2),
             ("GL", 3), ("GL", 4)]

# JSON texts that replace one value (or the whole argument) of a valid argv
FUZZ_VALUES = ["1e400", "-1e400", "2.5", "-0.5", "0.0", "true", "false", "null",
               '"x"', '"1"', '""', "[]", "[[]]", "[1, [2, [3]]]", "{}",
               '{"1": 1}', '{"thresholds": []}', "-1", "0"]
FUZZ_KEYS = ['"0"', '"9"', '"-1"', '"x"', '"1.5"', '""']
STATUS = {0: "ok", 2: "error", 3: "limit-exceeded"}
# half of the diagram draws take the JSON route; a --rank does nothing with
# --format ascii, so that draw exits 2
DIAGRAM_FORMATS = [["json"], ["json"], ["ascii"], ["ascii", "--rank", "0"]]


def fuzz_points(rng, datum):
    """[[i, c, m], ...]: at most 3 points of multiplicity <= 2, levels within
    +-10, and a product crystal small enough to enumerate quickly."""
    r = random_multiset(rng, datum, max_points=3, max_mult=2, c_lo=-5, c_hi=4,
                        cap=400)
    return [[i, c, m] for (i, c), m in r.points]


def fuzz_argv(rng):
    """An argv for one of the seven subcommands, as (fixed options,
    {option: JSON value}): valid, but now and then with an option that
    would do nothing (``stable --bound --restrict``, ``schur --format ascii
    --rank``), which exits 2."""
    command = rng.choice(["decompose", "character", "truncate", "plan", "graph",
                          "schur", "stable"])
    if command == "stable":
        # levels within +-3: the stable rank grows with their spread
        gl = build_root_datum("GL", 4)
        pts = [[i, c, m] for (i, c), m in
               random_multiset(rng, gl, max_points=3, c_lo=-1, c_hi=1).points]
        only = "--bound" if rng.random() < 0.2 else "--coeffs"
        return [command, only, "--restrict", "3"], {"--R": pts}
    if command == "schur":
        boxes = rng.sample([(r, c) for r in range(1, 4) for c in range(1, 4)],
                           rng.randint(1, 6))
        if rng.random() < 0.5:
            return ([command, "--format"] + rng.choice(DIAGRAM_FORMATS),
                    {"--diagram": [list(b) for b in sorted(boxes)]})
        seq, left = [], 6
        for k in range(1, rng.randint(1, 3) + 1):
            part = sorted((rng.randint(1, 2) for _ in range(rng.randint(0, k))),
                          reverse=True)
            if sum(part) > left:
                part = []
            left -= sum(part)
            seq.append(part)
        return [command], {"--sequence": seq}
    kind, rank = rng.choice(FUZZ_DATA)
    datum = build_root_datum(kind, rank)
    fixed = [command, "--cartan", kind, "--rank", str(rank)]
    values = {"--R": fuzz_points(rng, datum)}
    if command == "graph":
        fixed += ["--format", rng.choice(["json", "dot"])]
    elif command != "decompose" and rng.random() < 0.5:
        pts = [tuple(p[:2]) for p in values["--R"]]
        lower = rng.choice([0, 0, 2])  # 2 leaves R outside J
        j = up_closure(datum, pts).to_json()
        values["--truncation"] = {
            "thresholds": {k: t + lower for k, t in j["thresholds"].items()}}
    return fixed, values


def mutate(rng, value):
    """The JSON text of ``value`` with one slot (the root, an entry, a dict
    key, or for point lists a level moved off its parity) replaced."""
    slots = []

    def walk(v, path):
        slots.append(("value", path))
        if isinstance(v, list):
            for n, x in enumerate(v):
                walk(x, path + (n,))
        elif isinstance(v, dict):
            for k, x in v.items():
                slots.append(("key", path + (k,)))
                walk(x, path + (k,))

    walk(value, ())
    kind, target = rng.choice(slots)
    if isinstance(value, list) and value and isinstance(value[0], list) \
            and len(value[0]) == 3 and rng.random() < 0.2:
        kind, target = "parity", (rng.randrange(len(value)),)
    replacement = rng.choice(FUZZ_KEYS if kind == "key" else FUZZ_VALUES)

    def dump(v, path):
        if path == target:
            if kind == "value":
                return replacement
            if kind == "parity":
                i, c, m = v
                return json.dumps([i, c + rng.choice([-1, 1]), m])
        if isinstance(v, list):
            return "[" + ", ".join(dump(x, path + (n,)) for n, x in enumerate(v)) + "]"
        if isinstance(v, dict):
            return "{" + ", ".join(
                (replacement if kind == "key" and path + (k,) == target
                 else json.dumps(k)) + ": " + dump(x, path + (k,))
                for k, x in v.items()) + "}"
        return json.dumps(v)

    return dump(value, ())


def test_cli_fuzz(capsys):
    rng = random.Random(61)
    start = time.perf_counter()
    codes, refused = [], set()
    for _ in range(400):
        fixed, values = fuzz_argv(rng)
        texts = {opt: json.dumps(v) for opt, v in values.items()}
        if rng.random() < 0.85:
            opt = rng.choice(sorted(values))
            texts[opt] = mutate(rng, values[opt])
        # --opt=value, so that a value such as -1e400 is not read as an option
        argv = fixed + [f"{opt}={text}" for opt, text in texts.items()]
        code = run(argv)
        out = capsys.readouterr().out
        assert code in STATUS, (argv, out)
        codes.append(code)
        if code == 2 and "takes no" in out:  # an option that would do nothing
            refused.add(argv[0])
        if code == 0 and ("dot" in argv or "ascii" in argv):
            continue
        data = json.loads(out)
        assert list(data) == sorted(data), argv
        assert data["status"] == STATUS[code], (argv, out)
        assert (data["result"] is None) == (code != 0), argv
    assert codes.count(0) > 50 and codes.count(2) > 100
    assert refused == {"schur", "stable"}
    assert time.perf_counter() - start < 10.0


def limit_argv(rng):
    """A valid argv of decompose, character, truncate or plan at one of the
    limits: a point added up to 10^8 levels away from the others, or a rank
    up to MAX_RANK with one or two points on a vertex whose fundamental
    crystal has at most 2 * rank elements."""
    command = rng.choice(["decompose", "character", "truncate", "plan"])
    if rng.random() < 0.5:
        kind, rank = rng.choice(FUZZ_DATA)
        datum = build_root_datum(kind, rank)
        pts = fuzz_points(rng, datum)
        i, c, _ = rng.choice(pts)
        gap = rng.choice([-2, 2]) * rng.randint(1, 10 ** rng.randint(1, 8) // 2)
        pts.append([i, c + gap, 1])
    else:
        kind = rng.choice(["A", "D", "GL"])
        rank = rng.randint(MAX_RANK - 4, MAX_RANK)
        datum = build_root_datum(kind, rank)
        ends = {"A": [1, rank], "D": [1], "GL": [1, rank - 1]}[kind]
        pts = {}
        for _ in range(rng.randint(1, 2)):
            i = rng.choice(ends)
            pts[(i, datum.parity[i] + 2 * rng.randint(-2, 2))] = 1
        pts = [[i, c, m] for (i, c), m in pts.items()]
    argv = [command, "--cartan", kind, "--rank", str(rank), f"--R={json.dumps(pts)}"]
    if command != "decompose" and rng.random() < 0.5:
        lower = rng.choice([0, 0, 2])  # 2 leaves R outside J
        j = up_closure(datum, [tuple(p[:2]) for p in pts]).to_json()
        argv.append("--truncation=" + json.dumps(
            {"thresholds": {k: t + lower for k, t in j["thresholds"].items()}}))
    return argv


def test_cli_fuzz_limits(capsys):
    # far-apart points and ranks at the ceiling: every case ends with an
    # answer, a validation error or a stated limit, in bounded time
    rng = random.Random(67)
    codes = []
    for _ in range(30):
        argv = limit_argv(rng)
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code in STATUS, (argv, out)
        assert elapsed < 5.0, argv
        data = json.loads(out)
        assert data["status"] == STATUS[code], (argv, out)
        assert (data["result"] is None) == (code != 0), argv
        codes.append(code)
    assert codes.count(0) > 15 and codes.count(2) and codes.count(3)


# -- the shared parser and the rank ceiling -----------------------------------

GOLDEN = Path(__file__).parent / "golden"


def test_parser_is_built_once(capsys):
    # run shares one parser; a failed parse and --help between two runs of
    # a golden case leave its output unchanged
    from pmcrystal import cli
    argv = ["decompose", "--cartan", "A", "--rank", "3", "--R", "[[1,3,1],[3,1,1],[3,3,1]]"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["decompose", "--cartan", "Q", "--R", "[]"]) == 2
    assert run(["--help"]) == 0
    assert "decompose" in capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.encode() == (GOLDEN / "decompose_a3.out").read_bytes()
    assert cli._parser() is cli._parser()
    assert cli.make_parser() is not cli.make_parser()


def test_cartan_choices_are_the_kinds(capsys):
    # every --cartan option offers cartan.KINDS itself, and a refusal lists
    # the kinds in that order
    import argparse
    from pmcrystal import cli
    from pmcrystal.cartan import KINDS
    subparsers = next(a for a in cli.make_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = [a for p in subparsers.choices.values() for a in p._actions
               if "--cartan" in a.option_strings]
    assert len(options) == 5 and all(a.choices is KINDS for a in options)
    assert run(["decompose", "--cartan", "Q", "--R", "[]"]) == 2
    assert capsys.readouterr().err.endswith(
        "invalid choice: 'Q' (choose from 'A', 'D', 'E6', 'E7', 'E8', 'GL')\n")


CEILING_SCHUR_DIAGRAM = json.dumps([[r, 1] for r in range(1, 34)])  # GL rank 33


@pytest.mark.parametrize("argv", [
    *[[command, "--cartan", kind, "--rank", rank, "--R", "[[1,1,1]]"]
      for command in ("decompose", "graph") for kind in ("A", "D", "GL")
      for rank in ("33", "100000")],
    ["decompose", "--cartan", "A", "--rank", "3", "--rank", "100000", "--R", "[[1,1,1]]"],
    ["schur", "--sequence", "[[1]]", "--rank", "2000"],
    ["schur", "--sequence", "[[1]]", "--rank", "33"],
    ["schur", "--diagram", "[[1,1],[2,1],[2,2]]", "--rank", "300"],
    ["schur", "--diagram", CEILING_SCHUR_DIAGRAM],
    ["stable", "--R", "[[1,1,1],[1001,1,1]]", "--bound"],
    ["stable", "--R", "[[1,1,1],[1001,1,1]]", "--coeffs"],
])
def test_rank_above_ceiling_exits_2_at_once(capsys, argv):
    # these once built the root datum of the rank asked for, and ran for
    # minutes or until the process was killed
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    assert code == 2 and data["status"] == "error" and data["result"] is None
    assert "MAX_RANK" in data["diagnostics"][0]
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", [
    ["schur", "--diagram", "[[1,1]]", "--rank=0"],
    ["schur", "--diagram", "[[1,1]]", "--rank=-3"],
    ["schur", "--diagram", "[]", "--rank=0"],
    ["schur", "--sequence", "[[1]]", "--rank=0"],
    ["schur", "--sequence", "[]", "--rank=0"],
])
def test_schur_rank_below_one_exits_2(capsys, argv):
    # an explicit --rank 0 was read as no rank, and ran at the rank of the
    # diagram's rows
    data = run_json(capsys, argv, expect_code=2)
    assert data["status"] == "error" and data["result"] is None
    assert data["diagnostics"] == ["GL needs rank >= 1"]


def test_schur_refuses_a_rank_alike_for_both_inputs(capsys):
    # one rank check serves --sequence and --diagram: the GL datum first,
    # then the sequence length
    seq = [[1], [1], [2, 1, 1]]
    diagram = json.dumps(sorted(map(list, diagram_of_sequence(seq))))
    assert len(run_json(capsys, ["schur", "--diagram", diagram])["result"]["sequence"]) == 3
    for rank in (0, 2, MAX_RANK + 1):
        by_input = [run_json(capsys, ["schur", flag, text, "--rank", str(rank)], expect_code=2)
                    for flag, text in (("--sequence", json.dumps(seq)), ("--diagram", diagram))]
        assert by_input[0] == by_input[1], rank
    assert by_input[0]["diagnostics"][0].startswith(f"rank {MAX_RANK + 1}")
    assert run_json(capsys, ["schur", "--sequence", json.dumps(seq), "--rank", "2"],
                    expect_code=2)["diagnostics"] == ["rank 2 < sequence length 3"]


# -- the envelope emitter -----------------------------------------------------

EMIT_CHARS = ['a', 'Z', '0', ' ', '"', '\\', '/', '\x00', '\x07', '\n', '\t', '\x1f',
              '\x7f', 'é', 'ß', 'λ', ' ', '∞', '\ud800', '\U0001F600', '\U0001D11E']


class Colour(enum.IntEnum):
    RED = 1


def emit_string(rng):
    return "".join(rng.choice(EMIT_CHARS) for _ in range(rng.randrange(6)))


def emit_leaf(rng):
    return rng.choice([
        lambda: rng.choice([0, -1, 1, -rng.randrange(1 << 40), rng.randrange(1 << 40),
                            (1 << 64) + rng.randrange(1 << 70), -(1 << 65) - 3]),
        lambda: rng.choice([True, False, None, Colour.RED]),
        lambda: rng.choice([0.0, -0.0, 1.5, -2.5e-300, 1e300, rng.random(),
                            float("inf"), float("-inf"), float("nan")]),
        lambda: emit_string(rng),
    ])()


def emit_value(rng, depth, spine=False):
    """A random JSON-able value; ``spine`` forces a container chain
    ``depth`` levels deep."""
    if depth == 0 or (not spine and rng.random() < 0.3):
        return emit_leaf(rng)
    children = [emit_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if spine:
        children.insert(rng.randrange(len(children) + 1), emit_value(rng, depth - 1, True))
    kind = rng.randrange(3)
    if kind == 0:
        return {emit_string(rng): child for child in children}
    return children if kind == 1 else tuple(children)


def nesting(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(nesting, value), default=0)
    return 0


def test_emitter_matches_indented_json_dumps():
    from pmcrystal.cli import _JSONText, _dumps
    rng = random.Random(2019)
    depths = []
    for n in range(300):
        value = emit_value(rng, 7, spine=n % 2 == 0)
        envelope = {"status": emit_string(rng), "result": value, "diagnostics": []}
        for obj in (envelope, value):
            assert _dumps(obj) == json.dumps(obj, indent=2, sort_keys=True), obj
        depths.append(nesting(value))
    assert max(depths) >= 7 and min(depths) == 0
    for empty in ({}, [], (), {"": {}}, [[], ()]):
        assert _dumps(empty) == json.dumps(empty, indent=2, sort_keys=True)
    # marked JSON text, nested 0-3 levels deep in dicts and lists, is copied
    # in re-indented: the bytes of json.dumps with the parsed text in its place
    texts = [json.dumps(emit_value(rng, 3, spine=n % 2 == 0), indent=2, sort_keys=True)
             for n in range(60)] + ["[]", "{}"]
    shapes = [0, 0]  # lists and tuples, dicts
    for text in texts:
        for depth in range(4):
            marked, parsed = _JSONText(text), json.loads(text)
            for _ in range(depth):
                siblings = emit_value(rng, 2, spine=True)
                if isinstance(siblings, dict):
                    key = emit_string(rng)
                    marked, parsed = {**siblings, key: marked}, {**siblings, key: parsed}
                else:
                    at = rng.randrange(len(siblings) + 1)
                    marked = [*siblings[:at], marked, *siblings[at:]]
                    parsed = [*siblings[:at], parsed, *siblings[at:]]
                shapes[isinstance(siblings, dict)] += 1
            assert _dumps(marked) == json.dumps(parsed, indent=2, sort_keys=True), marked
    assert min(shapes) > 20
    with pytest.raises(TypeError):
        _dumps({"a": [1, {2, 3}]})
    with pytest.raises(TypeError):
        _dumps({"a": {1: "b"}})


@pytest.mark.parametrize("argv, reached", [
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[[1,1,2000]]"], 2003001),
    (["truncate", "--cartan", "A", "--rank", "2", "--R", "[[1,1,2000]]"], 2003001),
    (["graph", "--cartan", "A", "--rank", "2", "--R", "[[1,1,2000]]"], 2003001),
    (["decompose", "--cartan", "A", "--rank", "2", "--R", "[[1,1,2000000000]]"],
     2000000003000000001),
    (["stable", "--R", "[[1,1,2000000000]]"], 2000000001),
])
def test_oversized_fundamental_crystal_exits_3_at_once(capsys, argv, reached):
    # the closure of y^2000 in A2 once ran for 49 s and 1.35 GB before it
    # stopped at MAX_ELEMENTS; dim V(n w_1) is known before it starts
    start = time.perf_counter()
    data = run_json(capsys, argv, expect_code=3)
    assert time.perf_counter() - start < 2.0
    assert data["diagnostics"] == ["closure exceeded limit 1000000",
                                   {"limit": 1000000, "reached": reached,
                                    "stage": "crystal.closure"}]


@pytest.mark.parametrize("stage", ["crystal.closure", "product.fold"])
@pytest.mark.parametrize("command", [["graph"], ["graph", "--format", "dot"],
                                     ["truncate", "--truncation",
                                      '{"thresholds": {"1": -9, "2": -10, "3": -9}}']])
def test_every_error_comes_before_the_first_byte(capsys, monkeypatch, command, stage):
    # a limit met while a factor is discovered, or while the factors are
    # folded, leaves stdout one JSON error envelope and nothing else: no
    # DOT text, no part of the graph or of the elements before it
    from pmcrystal import limits
    from pmcrystal.product import product_graph
    R = "[[1,3,1],[3,1,1],[3,3,1]]"
    datum = build_root_datum("A", 3)
    r = multiset_from_pairs(json.loads(R))
    largest = max(datum.weyl_dimension(datum.fundamentals[i]) for (i, _), _ in r.points)
    assert largest < len(product_graph(datum, r))
    argv = [command[0], "--cartan", "A", "--rank", "3", "--R", R, *command[1:]]
    assert run(argv) == 0
    assert len(capsys.readouterr().out) > 1000
    if command[0] == "truncate":  # J holds the window, so M(R, J) is M(R)
        assert truncate(datum, r, up_closure(datum, [(1, -9), (2, -10), (3, -9)])) \
            == product_graph(datum, r).elements
    monkeypatch.setattr(limits, "MAX_ELEMENTS", largest - (stage == "crystal.closure"))
    assert run(argv) == 3
    captured = capsys.readouterr()
    data = json.loads(captured.out)  # the whole of stdout is one JSON value
    assert captured.out == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert "digraph" not in captured.out and not captured.err
    assert data["status"] == "limit-exceeded" and data["result"] is None
    assert data["diagnostics"][-1]["stage"] == stage


@pytest.mark.parametrize("oracle", ["specht_decompose_bruteforce", "lr_skew_expand"])
def test_schur_oracle_disagreement_exits_1(capsys, monkeypatch, oracle):
    from pmcrystal import cli
    right = getattr(cli, oracle)

    def wrong(*args):
        out = dict(right(*args))
        out[(2, 2, 1)] += 1
        out[(9,)] = 1
        return out

    monkeypatch.setattr(cli, oracle, wrong)
    data = run_json(capsys, ["schur", "--diagram", "[[1,1],[2,2],[3,2],[2,3],[4,3]]"],
                    expect_code=1)
    name = "specht" if oracle == "specht_decompose_bruteforce" else "skew_lr"
    assert data["status"] == "internal-inconsistency" and data["result"] is None
    assert data["diagnostics"][0] == (f"schur and {name} disagree at (2,2,1): schur 2, "
                                      f"{name} 3, (9): schur 0, {name} 1")
    assert data["diagnostics"][1] == {"diff": {"(2,2,1)": [2, 3], "(9)": [0, 1]}}


@pytest.mark.parametrize("diagram, message", [
    ("[[1,1],[3,1],[1,2],[2,2],[2,3],[3,3]]", "no row order makes this diagram column-convex"),
    ("[[1,1],[3,1],[2,2],[4,2],[5,3],[6,3],[7,4],[8,4],[9,4]]",
     "diagram has gapped columns and too many rows to search for a convexifying row order"),
])
def test_schur_diagram_without_a_convex_row_order_exits_2(capsys, diagram, message):
    data = run_json(capsys, ["schur", "--diagram", diagram], expect_code=2)
    assert data["diagnostics"] == [message]
