"""Run the benchmark over many seeds and summarise the spread.

    python3 bench/sweep.py --out bench/baseline.json

For every workload, with ``run_seconds`` from BENCHMARK.json: one untraced
run for each of SEEDS (median, quartiles and the quartile spread (q3 - q1) / median
of each end-to-end metric, as ``statistics.quantiles(values, n=4)`` gives
them), one traced run with seed TRACE_SEED, and the digests of the smoke
configuration (``--seed 1 --seconds 1``) that ``test_smoke.py`` expects.
Runs one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from run import machine  # noqa: E402

SMOKE = {"seed": 1, "seconds": 1}
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(report, result): the last two stdout lines of one run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    report, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(result)


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out = {"machine": machine(), "seconds": seconds, "seeds": SEEDS,
           "smoke": SMOKE, "workloads": {}}
    for workload in sorted(gen.SECONDS_PER_ROUND):
        values: dict[str, list[float]] = {}
        digests, correct = {}, True
        for seed in out["seeds"]:
            report, result = bench(workload, seed, seconds, 0)
            correct &= result["correct"] and result["failed"] == 0
            digests[seed] = report["digest"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()},
                  flush=True)
        report, result = bench(workload, TRACE_SEED, seconds, 1)
        out["workloads"][workload] = {
            "correct": correct, "digests": digests,
            "end_to_end": {name: spread(v) for name, v in values.items()},
            "smoke_digest": bench(workload, SMOKE["seed"], SMOKE["seconds"], 0)[0]["digest"],
            "traced": {"seed": TRACE_SEED, "correct": result["correct"],
                       "per_layer": {k: m["value"] for k, m in result["metrics"].items()}}}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        print(workload, "correct" if entry["correct"] else "FAILED",
              {k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
