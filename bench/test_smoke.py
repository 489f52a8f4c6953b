"""Small-seed smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload for one round, traced, and checks correctness, the
result digests recorded in ``baseline.json``, the metric names declared in
``BENCHMARK.json`` and the self-time arithmetic.  Not part of the
repository's tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from run import tail  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = sorted(gen.SECONDS_PER_ROUND)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((BENCH / "baseline.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def test_generator_is_seeded():
    for workload in WORKLOADS:
        first = gen.generate(workload, 7, 1)
        assert first == gen.generate(workload, 7, 1)
        assert first["items"] != gen.generate(workload, 8, 1)["items"]
        assert all("props" in item for item in first["items"])


def test_tail_percentile_keeps_ten_items_beyond():
    xs = [float(k) for k in range(100)]
    value, p = tail(xs)
    assert (value, p) == (89.0, 90)
    assert sum(x > value for x in xs) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_self_times_add_up_to_root():
    tracer = Tracer()
    root = tracer.open("bench.item")
    child = tracer.open("crystal.closure")
    grandchild = tracer.open("crystal.graph_over")
    time.sleep(0.002)
    tracer.close(grandchild)
    tracer.close(child)
    sibling = tracer.open("product.s_label")
    tracer.close(sibling)
    tracer.close(root)
    scales = tracer.span_scales(lambda start, end: 2.0)
    assert scales == [2.0] * 4
    own = tracer.self_times(scales)
    root_duration = tracer.span_end[root] - tracer.span_start[root]
    assert sum(own) == pytest.approx(2.0 * root_duration, abs=1e-9)
    assert all(x >= 0 for x in own)
    assert list(tracer.span_parent) == [-1, root, child, root]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    smoke = BASELINE["smoke"]
    proc = run_bench("--workload", workload, "--seed", str(smoke["seed"]),
                     "--seconds", str(smoke["seconds"]), "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["digest"] == BASELINE["workloads"][workload]["smoke_digest"]
    metrics = result["metrics"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(metrics)
    module_self = sum(m["value"] for name, m in metrics.items()
                      if name.endswith(".self_s") and name.count(".") == 1)
    traced = metrics["trace.setup_s"]["value"] + metrics["trace.wall_s"]["value"]
    assert module_self == pytest.approx(traced, rel=1e-6, abs=1e-9)


def test_end_to_end_metrics_match_spec():
    proc = run_bench("--workload", "typea", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        value = result["metrics"][spec["name"]]
        assert value["unit"] == spec["unit"] and value["value"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "enumerate", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
