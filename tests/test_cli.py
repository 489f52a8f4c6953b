import json

import pytest

from pmcrystal.cli import run


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



@pytest.mark.parametrize("command", ["decompose", "graph"])
def test_limit_exceeded_exits_3(capsys, monkeypatch, command):
    from pmcrystal import cli, product
    original = product.product_crystal

    def small_limit(datum, r, limit=None):
        return original(datum, r, limit=5)  # |M(R)| = 6 below
    monkeypatch.setattr(product, "product_crystal", small_limit)
    monkeypatch.setattr(cli, "product_crystal", small_limit)
    data = run_json(capsys, [command, "--cartan", "A", "--rank", "2",
                             "--R", "[[1,1,2]]"], expect_code=3)
    assert data["status"] == "limit-exceeded" and data["result"] is None
    assert "limit 5" in data["diagnostics"][0]
