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
