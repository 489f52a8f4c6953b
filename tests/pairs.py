"""Alternating pairs of benchmark runs, a parent checkout against a change.

Run from anywhere, for example:

    python tests/pairs.py ../parent . --workload enumerate --seed 1 \\
        --seconds 15 --pairs 5

Each checkout's ``src`` and ``bench`` are byte-compiled once with
``compileall``.  Then ``bench/run.py --trace 0`` runs in the two checkouts
in turn, the side that goes first switching from one pair to the next, with
``PYTHONDONTWRITEBYTECODE`` removed from the child environment so that the
runs use that bytecode.  With ``--no-compile`` nothing is compiled and the
child environment sets ``PYTHONDONTWRITEBYTECODE=1``, so every worker
compiles ``src`` as it imports it, as in a fresh checkout that no earlier
run has written bytecode into; a ``__pycache__`` already under a
checkout's ``src`` or ``bench`` would still be read, so the script warns
of one (a fresh ``git clone`` has none, and keeps the HEAD that ``--out``
records).

For each end-to-end metric in the change's ``BENCHMARK.json`` the script
prints the parent's and the change's medians, the interquartile range of
the parent's runs and the number of pairs the change won.  The exit status is 1 when any run fails or is not ``correct``.
With ``--out PATH`` it also writes the pair set as JSON (``record``): the
workload, seed, seconds and pairs, whether the checkouts were compiled,
each checkout's path relative to the working directory (so the file names
no directory of the machine it was made on) and ``git rev-parse HEAD``
(null outside a git checkout), each pair's end-to-end metrics per side with the side that went
first, in run order, and the summary rows.

Standard library only.  pytest collects only test_*.py, so the suite never
runs this file; ``tests/test_pairs.py`` tests its arithmetic and the
child environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def iqr(values: list[float]) -> float:
    """The third quartile less the first (inclusive method); 0 for fewer
    than two values."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4, method="inclusive")
    return third - first


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change's value is strictly better: lower when
    ``better`` is "lower", higher when it is "higher"."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def compile_checkout(path: str, env: dict) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=path, env=env, check=True, stdout=subprocess.DEVNULL)


def child_env(no_compile: bool) -> dict:
    """This process's environment for the runs: with
    ``PYTHONDONTWRITEBYTECODE=1`` when ``no_compile``, without it
    otherwise."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    if no_compile:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def bytecode_dirs(path: str) -> list[str]:
    """The ``__pycache__`` directories under the checkout's ``src`` and
    ``bench``."""
    return sorted(os.path.join(root, "__pycache__")
                  for top in ("src", "bench")
                  for root, dirs, _ in os.walk(os.path.join(path, top))
                  if "__pycache__" in dirs)


def run_bench(path: str, args, env: dict) -> dict | None:
    """The last stdout line of one ``bench/run.py --trace 0`` run in the
    checkout, or None when the run exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=path, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(metrics: list[dict], runs: dict[str, list]) -> list[tuple]:
    """(name, better, parent median, change median, parent IQR, change
    wins, pairs) per metric, over the pairs in which both runs answered."""
    both = [(p, c) for p, c in zip(runs["parent"], runs["change"])
            if p is not None and c is not None]
    rows = []
    for m in metrics if both else ():
        parent = [p["metrics"][m["name"]]["value"] for p, _ in both]
        change = [c["metrics"][m["name"]]["value"] for _, c in both]
        rows.append((m["name"], m["better"], statistics.median(parent),
                     statistics.median(change), iqr(parent),
                     wins(parent, change, m["better"]), len(both)))
    return rows


def git_head(path: str) -> str | None:
    """``git rev-parse HEAD`` in the checkout, or None when it is not one
    (or git is missing)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(args, sides: dict, metrics: list[dict], runs: dict, rows: list[tuple]) -> dict:
    """The pair set as a JSON-ready dict, with each run's values of the
    end-to-end ``metrics``; a run that failed or was not ``correct`` has
    null values."""
    def values(result):
        return result and {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "compiled": not args.no_compile,
        "checkouts": {side: {"path": os.path.relpath(path), "head": git_head(path)}
                      for side, path in sides.items()},
        "runs": [{"first": "parent" if k % 2 == 0 else "change",
                  "parent": values(p), "change": values(c)}
                 for k, (p, c) in enumerate(zip(runs["parent"], runs["change"]))],
        "summary": [dict(zip(("metric", "better", "parent_median", "change_median",
                              "parent_iqr", "change_wins", "pairs"), row))
                    for row in rows],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent's checkout")
    parser.add_argument("change", help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", help="write the pair set as JSON to this path")
    parser.add_argument("--no-compile", action="store_true",
                        help="compile nothing and run with PYTHONDONTWRITEBYTECODE=1")
    args = parser.parse_args(argv)
    env = child_env(args.no_compile)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    for path in sides.values():
        if args.no_compile:
            for stale in bytecode_dirs(path):
                print(f"warning: {stale} holds bytecode the runs will read", file=sys.stderr)
        else:
            compile_checkout(path, env)
    runs: dict[str, list] = {"parent": [], "change": []}
    ok = True
    for k in range(args.pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result = run_bench(sides[side], args, env)
            ok = ok and result is not None and result["correct"]
            runs[side].append(result if result is not None and result["correct"] else None)
            wall = result and result["metrics"]["wall_s"]["value"]
            print(f"pair {k + 1} {side:6} wall_s {wall}", flush=True)
    rows = summary(metrics, runs)
    print(f"{'metric':12} {'better':6} {'parent':>10} {'change':>10} {'parent IQR':>10} wins")
    for name, better, p, c, spread, won, n in rows:
        print(f"{name:12} {better:6} {p:10.5g} {c:10.5g} {spread:10.4g} {won}/{n}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record(args, sides, metrics, runs, rows), fh, indent=2)
            fh.write("\n")
    if not ok:
        print("a run failed or was not correct", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
