"""The pmcrystal benchmark.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Generates the workload's items from the
seed, then runs them in fresh single-threaded worker processes, one at a
time, each item a closed-loop call into the checkout's ``src/pmcrystal``.
The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: with ``--trace 0`` the end-to-end metrics of an untraced run,
with ``--trace 1`` the per-layer metrics of a traced run (plus an untraced
run of the same items, for the tracing overhead).  Full reports, item
properties and spans go to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracing import MODULES  # noqa: E402

DEADLINE_S = 170  # every run ends within 180 s
SETUP_SAMPLES = 7


class BenchError(RuntimeError):
    pass


def worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker process")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                              input=json.dumps(job), capture_output=True,
                              text=True, cwd=ROOT, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker exceeded the {DEADLINE_S} s run limit") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with at least ten
    items beyond it (nearest-rank), or the maximum when there are too few
    items for that."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(run: dict) -> list[float]:
    """Item latencies in seconds at reference speed (see worker.py)."""
    return [raw * scale for raw, scale in zip(run["latencies"], run["scales"])]


def end_to_end(run: dict, setup_samples: list[float]) -> dict:
    lat = scaled(run)
    tail_value, _ = tail(lat)
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "wall_s": metric(sum(lat), "s"),
        "item_p50_s": metric(statistics.median(lat), "s"),
        "item_tail_s": metric(tail_value, "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        "ok_ratio": metric(1 - run["failed"] / run["attempted"], "ratio"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    spans, counts = traced["trace"]["spans"], traced["trace"]["counts"]

    def s(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    elements = counts.get("product.elements", 0)
    fold = counts.get("product.fold_products", 0)
    f_calls = counts.get("monomial.f_op.calls", 0)
    e_calls = counts.get("monomial.e_op.calls", 0)
    irr_calls = s("weightring.irreducible_character", "calls")
    out = {
        "cartan.build_root_datum.s": metric(s("cartan.build_root_datum"), "s"),
        "monomial.f_op.calls": metric(f_calls, "count"),
        "monomial.e_op.calls": metric(e_calls, "count"),
        "monomial.ops_per_element": metric(ratio(f_calls + e_calls, elements), "ratio"),
        "crystal.closure.s": metric(s("crystal.closure"), "s"),
        "crystal.graph_over.s": metric(s("crystal.graph_over"), "s"),
        "crystal.highest_weights.s": metric(s("crystal.highest_weights"), "s"),
        "crystal.to_dot.s": metric(s("crystal.to_dot"), "s"),
        "crystal.graph_to_json.s": metric(s("crystal.graph_to_json"), "s"),
        "crystal.elements": metric(counts.get("crystal.elements", 0), "count"),
        "crystal.f_edges": metric(counts.get("crystal.f_edges", 0), "count"),
        "product.elements": metric(elements, "count"),
        "product.product_crystal.self_s": metric(s("product.product_crystal", "self_s"), "s"),
        "product.fold_products": metric(fold, "count"),
        "product.fold_useful_ratio": metric(ratio(elements, fold), "ratio"),
        "product.s_label.s": metric(s("product.s_label"), "s"),
        "product.s_label.calls": metric(s("product.s_label", "calls"), "count"),
        "product.decompose.self_s": metric(s("product.decompose", "self_s"), "s"),
        "truncation.build_plan.s": metric(s("truncation.build_plan"), "s"),
        "truncation.char_by_plan.s": metric(s("truncation.char_by_plan"), "s"),
        "truncation.truncate.self_s": metric(s("truncation.truncate", "self_s"), "s"),
        "weightring.pi_longest.s": metric(s("weightring.pi_longest"), "s"),
        "weightring.demazure_pi.calls": metric(counts.get("weightring.demazure_pi.calls", 0), "count"),
        "weightring.char_terms": metric(counts.get("weightring.char_terms", 0), "count"),
        "weightring.weyl_decompose.self_s": metric(s("weightring.weyl_decompose", "self_s"), "s"),
        "weightring.peel_steps": metric(counts.get("weightring.peel_steps", 0), "count"),
        "weightring.irreducible_character.s": metric(s("weightring.irreducible_character"), "s"),
        "weightring.irreducible_character.calls": metric(irr_calls, "count"),
        "weightring.irr_cache_hit_ratio": metric(
            ratio(irr_calls - counts.get("weightring.irr_cache_misses", 0), irr_calls), "ratio"),
        "typea.specht_decompose_bruteforce.s": metric(s("typea.specht_decompose_bruteforce"), "s"),
        "typea.specht_dim": metric(counts.get("typea.specht_dim", 0), "count"),
        "typea.schur_decompose.s": metric(s("typea.schur_decompose"), "s"),
        "typea.skew_normalise.s": metric(s("typea.skew_normalise"), "s"),
        "typea.lr_skew_expand.s": metric(s("typea.lr_skew_expand"), "s"),
        "typea.sequence_of_diagram.s": metric(s("typea.sequence_of_diagram"), "s"),
        "cli.run.self_s": metric(s("cli.run", "self_s"), "s"),
        "cli.output_bytes": metric(counts.get("cli.output_bytes", 0), "bytes"),
    }
    module_self = {m: 0.0 for m in (*MODULES, "bench")}
    for name, entry in spans.items():
        module_self[name.split(".")[0]] += entry["self_s"]
    for module, value in module_self.items():
        out[f"{module}.self_s"] = metric(value, "s")
    for module in MODULES:
        out[f"{module}.errors"] = metric(counts.get(f"{module}.errors", 0), "count")
    traced_wall, untraced_wall = sum(scaled(traced)), sum(scaled(untraced))
    out["trace.setup_s"] = metric(s("bench.setup"), "s")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return out


def self_time_residual(layer: dict) -> float:
    """Sum of every module's self time minus the traced set-up and wall
    time; not zero when a traced call ran outside the set-up and the timed
    items."""
    total = sum(v["value"] for k, v in layer.items()
                if k.endswith(".self_s") and k.split(".")[1] == "self_s")
    return total - layer["trace.setup_s"]["value"] - layer["trace.wall_s"]["value"]


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform()}


def property_summary(items: list[dict]) -> dict:
    """Share of items with each boolean property; min, median and max of
    each numeric one."""
    out = {}
    keys = sorted({k for it in items for k in it})
    for key in keys:
        values = [it[key] for it in items if key in it]
        if all(isinstance(v, bool) for v in values):
            out[key] = {"share": sum(values) / len(values), "items": len(values)}
        elif all(isinstance(v, (int, float)) for v in values):
            out[key] = {"min": min(values), "median": statistics.median(values),
                        "max": max(values), "items": len(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SECONDS_PER_ROUND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "pmcrystal" / "__init__.py").is_file():
        print(f"bench: no pmcrystal sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    job = gen.generate(args.workload, args.seed, args.seconds)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.seconds:g}s"
    try:
        worker({**job, "mode": "setup"}, deadline)  # warm-up: byte-compiles src
        setup = [] if args.trace else [
            worker({**job, "mode": "setup"}, deadline) for _ in range(SETUP_SAMPLES)]
        untraced = worker({**job, "mode": "run"}, deadline)
        traced = None
        if args.trace:
            traced = worker({**job, "mode": "run", "trace": True,
                             "spans_path": str(results / f"{stem}.spans.json.gz")},
                            deadline)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1

    problems = [f"item {f['item']}: {f['error']}" for f in untraced["failures"]]
    if traced is None:
        metrics = end_to_end(untraced, [r["setup_s"] * r["setup_scale"] for r in setup])
    else:
        metrics = per_layer(traced, untraced)
        problems += [f"traced item {f['item']}: {f['error']}" for f in traced["failures"]]
        if traced["digest"] != untraced["digest"]:
            problems.append("traced and untraced runs produced different results")
        residual = self_time_residual(metrics)
        if abs(residual) > 1e-6 * max(1.0, metrics["trace.wall_s"]["value"]):
            problems.append(f"self times miss the traced time by {residual} s")

    _, percentile = tail(untraced["latencies"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "digest": untraced["digest"], "items": untraced["attempted"],
        "item_tail_percentile": percentile,
        "item_properties": property_summary(untraced["items"]),
        "raw_wall_s": sum(untraced["latencies"]),
        "traced_raw_wall_s": traced and sum(traced["latencies"]),
        "speed_scale_median": statistics.median(untraced["scales"]),
        "raw_setup_s": [r["setup_s"] for r in setup],
        "problems": problems, "metrics": metrics,
    }
    with open(results / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "item_list": untraced["items"],
                   "trace_summary": traced and traced["trace"]}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps({"correct": not problems, "attempted": untraced["attempted"],
                      "failed": untraced["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
