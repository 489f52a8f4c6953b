"""The arithmetic of ``tests/pairs.py`` and its exit status."""

import json

import pytest

import pairs


def test_iqr():
    # inclusive quartiles of 1..5 are 2 and 4
    assert pairs.iqr([5.0, 1.0, 4.0, 2.0, 3.0]) == 2.0
    assert pairs.iqr([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.5)
    assert pairs.iqr([7.0]) == 0.0 and pairs.iqr([2.0, 2.0, 2.0]) == 0.0


def test_wins_count_strictly_better_pairs():
    parent, change = [1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 3.5, 3.0]
    assert pairs.wins(parent, change, "lower") == 2
    assert pairs.wins(parent, change, "higher") == 1
    assert pairs.wins(parent, parent, "lower") == pairs.wins(parent, parent, "higher") == 0


def fake_run(values: dict, correct=True):
    return {"correct": correct, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_summary_gives_medians_and_skips_pairs_with_a_missing_side():
    metrics = [{"name": "wall_s", "better": "lower"}, {"name": "ok_ratio", "better": "higher"}]
    runs = {"parent": [fake_run({"wall_s": 1.0, "ok_ratio": 1.0}),
                       fake_run({"wall_s": 3.0, "ok_ratio": 1.0}), None,
                       fake_run({"wall_s": 2.0, "ok_ratio": 0.5})],
            "change": [fake_run({"wall_s": 0.9, "ok_ratio": 1.0}),
                       fake_run({"wall_s": 3.5, "ok_ratio": 1.0}),
                       fake_run({"wall_s": 0.1, "ok_ratio": 1.0}),
                       fake_run({"wall_s": 1.0, "ok_ratio": 1.0})]}
    assert pairs.summary(metrics, runs) == [
        ("wall_s", "lower", 2.0, 1.0, 1.0, 2, 3),
        ("ok_ratio", "higher", 1.0, 1.0, 0.25, 1, 3)]


@pytest.mark.parametrize("failing, code", [(None, 0), ("incorrect", 1), ("exit", 1)])
def test_sides_alternate_and_a_bad_run_exits_1(tmp_path, monkeypatch, capsys, failing, code):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    order, compiled = [], []
    values = {"parent": [1.0, 1.2, 1.1], "change": [0.9, 1.0, 1.3]}

    def run_bench(path, args, env):
        assert "PYTHONDONTWRITEBYTECODE" not in env
        side = path.rsplit("/", 1)[1]
        order.append(side)
        if failing and len(order) == 4:
            return None if failing == "exit" else fake_run({"wall_s": 1.0}, correct=False)
        return fake_run({"wall_s": values[side][order.count(side) - 1]})

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(pairs, "compile_checkout", lambda path, env: compiled.append(path))
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "enumerate", "--pairs", "3"]) == code
    assert compiled == [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    row = capsys.readouterr().out.splitlines()[-1].split()
    # the fourth run (the parent's second) is dropped when it fails
    assert row[0] == "wall_s" and row[-1] == ("2/3" if failing is None else "1/2")


def test_out_writes_the_pair_set(tmp_path, monkeypatch, capsys):
    # --out: the arguments, each checkout's path and HEAD (null outside a
    # git checkout), each pair's end-to-end values per side in run order
    # with the side that went first, and the summary rows
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"},
                        {"name": "peak_rss_mb", "better": "lower"}]}))
    values = {"parent": [1.0, 1.2, 1.1], "change": [0.9, 1.0, 1.3]}
    order = []

    def run_bench(path, args, env):
        side = path.rsplit("/", 1)[1]
        order.append(side)
        if len(order) == 6:
            return None
        k = order.count(side) - 1
        result = fake_run({"wall_s": values[side][k], "peak_rss_mb": 20.0 + k})
        result["metrics"]["trace.wall_s"] = {"value": 9.0, "unit": "s"}  # not end to end
        return result

    monkeypatch.setattr(pairs, "compile_checkout", lambda path, env: None)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    monkeypatch.setattr(pairs, "git_head", lambda path: "abc123" if path.endswith("change") else None)
    out = tmp_path / "pairs.json"
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    assert pairs.main([parent, change, "--workload", "emit", "--seed", "3",
                       "--seconds", "2", "--pairs", "3", "--out", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["workload"] == "emit" and data["seed"] == 3
    assert data["seconds"] == 2.0 and data["pairs"] == 3
    assert data["checkouts"] == {"parent": {"path": parent, "head": None},
                                 "change": {"path": change, "head": "abc123"}}
    assert data["runs"] == [
        {"first": "parent", "parent": {"wall_s": 1.0, "peak_rss_mb": 20.0},
         "change": {"wall_s": 0.9, "peak_rss_mb": 20.0}},
        {"first": "change", "parent": {"wall_s": 1.2, "peak_rss_mb": 21.0},
         "change": {"wall_s": 1.0, "peak_rss_mb": 21.0}},
        {"first": "parent", "parent": {"wall_s": 1.1, "peak_rss_mb": 22.0},
         "change": None}]
    assert data["summary"] == [
        {"metric": "wall_s", "better": "lower", "parent_median": 1.1,
         "change_median": 0.95, "parent_iqr": pytest.approx(0.1), "change_wins": 2,
         "pairs": 2},
        {"metric": "peak_rss_mb", "better": "lower", "parent_median": 20.5,
         "change_median": 20.5, "parent_iqr": 0.5, "change_wins": 0, "pairs": 2}]


def test_git_head_is_none_outside_a_checkout(tmp_path):
    assert pairs.git_head(str(tmp_path)) is None


@pytest.mark.parametrize("no_compile", [False, True])
def test_child_environment_in_both_modes(tmp_path, monkeypatch, capsys, no_compile):
    # compiled: the bytecode compileall writes once is read by every run;
    # --no-compile: nothing is compiled and no run writes bytecode, so each
    # worker compiles src on import, as in a fresh checkout
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    (tmp_path / "parent" / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    compiled, envs = [], []
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PAIRS_KEPT", "yes")
    monkeypatch.setattr(pairs, "compile_checkout",
                        lambda path, env: compiled.append(env.get("PYTHONDONTWRITEBYTECODE")))
    monkeypatch.setattr(pairs, "run_bench",
                        lambda path, args, env: envs.append(env) or fake_run({"wall_s": 1.0}))
    out = tmp_path / "pairs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "character",
            "--pairs", "2", "--out", str(out)] + (["--no-compile"] if no_compile else [])
    assert pairs.main(argv) == 0
    flag = "1" if no_compile else None
    assert [env.get("PYTHONDONTWRITEBYTECODE") for env in envs] == [flag] * 4
    assert all(env["PAIRS_KEPT"] == "yes" for env in envs)
    assert compiled == ([] if no_compile else [None, None])
    assert json.loads(out.read_text())["compiled"] is not no_compile
    # a bytecode directory already in a checkout is read by an uncompiled run
    warned = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    stale = str(tmp_path / "parent" / "src" / "pkg" / "__pycache__")
    assert warned == ([f"warning: {stale} holds bytecode the runs will read"]
                      if no_compile else [])
