import enum
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pmcrystal.cartan import MAX_RANK, build_root_datum
from pmcrystal.cli import run
from pmcrystal.truncation import up_closure
from conftest import random_multiset


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
])
def test_options_that_would_do_nothing_exit_2(capsys, argv):
    data = run_json(capsys, argv, expect_code=2)
    assert data["status"] == "error" and data["diagnostics"]


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
    from pmcrystal import crystal
    monkeypatch.setattr(crystal, "MAX_ELEMENTS", 5)  # |M(R)| = 6 below
    data = run_json(capsys, [command, "--cartan", "A", "--rank", "2",
                             "--R", "[[1,1,2]]"], expect_code=3)
    assert data["status"] == "limit-exceeded" and data["result"] is None
    assert "limit 5" in data["diagnostics"][0]


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


def fuzz_points(rng, datum):
    """[[i, c, m], ...]: at most 3 points of multiplicity <= 2, levels within
    +-10, and a product crystal small enough to enumerate quickly."""
    r = random_multiset(rng, datum, max_points=3, max_mult=2, c_lo=-5, c_hi=4,
                        cap=400)
    return [[i, c, m] for (i, c), m in r.points]


def fuzz_argv(rng):
    """A valid argv for one of the seven subcommands, as (fixed options,
    {option: JSON value})."""
    command = rng.choice(["decompose", "character", "truncate", "plan", "graph",
                          "schur", "stable"])
    if command == "stable":
        # levels within +-3: the stable rank grows with their spread
        gl = build_root_datum("GL", 4)
        pts = [[i, c, m] for (i, c), m in
               random_multiset(rng, gl, max_points=3, c_lo=-1, c_hi=1).points]
        return [command, "--coeffs", "--restrict", "3"], {"--R": pts}
    if command == "schur":
        boxes = rng.sample([(r, c) for r in range(1, 4) for c in range(1, 4)],
                           rng.randint(1, 6))
        if rng.random() < 0.5:
            return ([command, "--format", rng.choice(["json", "ascii"])],
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
    codes = []
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
        if code == 0 and ("dot" in argv or "ascii" in argv):
            continue
        data = json.loads(out)
        assert list(data) == sorted(data), argv
        assert data["status"] == STATUS[code], (argv, out)
        assert (data["result"] is None) == (code != 0), argv
    assert codes.count(0) > 50 and codes.count(2) > 100
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
    assert data["diagnostics"][0] in ("GL needs rank >= 1",
                                      f"rank {argv[-1][7:]} is smaller than the sequence")


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
