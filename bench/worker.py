"""One benchmark process: set up, run a workload's items in a closed loop,
check every result, and print a JSON report as the last stdout line.

Reads its job from stdin: {"workload", "datums", "items", "mode", "trace",
"spans_path"}.  ``mode`` is "setup" (import and build the data only) or
"run".  The only timed intervals are set-up and each item's call into the
library; input parsing, result checks and digests run between them.

Run it through ``bench/run.py``, which puts the checkout's ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
from time import perf_counter


class CheckFailed(Exception):
    """An item's output failed its correctness check."""


# -- reference speed ---------------------------------------------------------------
#
# The machine's speed drifts by tens of per cent over seconds on a shared
# host, far more than the changes the benchmark must resolve.  Every timed
# interval is therefore scaled by REF_NOMINAL_S / r, where r is the median
# duration of a fixed pure-Python reference loop sampled around the
# interval.  A reported time is "seconds at reference speed"; the raw
# seconds are kept in the full report.  reference_work and REF_NOMINAL_S
# define that unit: changing either changes every timing.

REF_NOMINAL_S = 0.0025
REF_EVERY_S = 0.05
REF_WINDOW_S = 0.25


def reference_work() -> int:
    """Tuple arithmetic, dict updates and a sort, like the library's inner
    loops, with no call into the library."""
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(2400):
        key = tuple(a + b for a, b in zip((i % 97, i % 89, i % 83), (1, 2, 3)))
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts))


class Speedometer:
    """Samples the reference loop between timed intervals and turns raw
    interval times into reference-speed times."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)
        self._last = float("-inf")

    def sample(self, force: bool = True) -> None:
        if not force and perf_counter() - self._last < REF_EVERY_S:
            return
        start = perf_counter()
        reference_work()
        duration = perf_counter() - start
        self.samples.append((start + duration / 2, duration))
        self._last = perf_counter()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median reference duration within
        REF_WINDOW_S of [start, end] (or of the three nearest samples)."""
        near = [d for t, d in self.samples
                if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        if len(near) < 3:
            mid = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return REF_NOMINAL_S / statistics.median(near)


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _decomposition_json(dec) -> list:
    return [[list(w), m] for w, m in sorted(dec.items())]


def _dimension_sum(datum, dec) -> int:
    return sum(m * datum.weyl_dimension(w) for w, m in dec.items())


def _tensor_bound(datum, r) -> int:
    """Product of the fundamental-crystal sizes |M(i, c)^m| = dim V(m w_i)."""
    out = 1
    for (i, _), m in r.points:
        out *= datum.weyl_dimension(tuple(m * x for x in datum.fundamentals[i]))
    return out


def _cli(pm, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pm.cli.run(argv)
    return code, buf.getvalue()


# -- workloads: (execute, check) ----------------------------------------------------
#
# ``execute`` is the timed call; ``check`` validates its output, returns the
# bytes that go into the run digest, and adds measured item properties.


class Workload:
    def __init__(self, pm):
        self.pm = pm

    def close(self):
        """Undo whatever __init__ installed in the library."""


class Enumerate(Workload):
    def __init__(self, pm):
        super().__init__(pm)
        self.size = None
        product = pm.product
        inner = product.product_crystal

        def capture(*args, **kwargs):  # reads |M(R)| for the check
            graph = inner(*args, **kwargs)
            self.size = len(graph.elements)
            return graph
        product.product_crystal = capture
        self._restore = (product, inner)

    def close(self):
        module, inner = self._restore
        module.product_crystal = inner

    def execute(self, item, datum, r):
        self.size = None
        return self.pm.decompose(datum, r)

    def check(self, item, datum, r, dec, props):
        props["elements"] = self.size
        props["tensor_bound"] = _tensor_bound(datum, r)
        props["summands"] = sum(dec.values())
        if _dimension_sum(datum, dec) != self.size:
            raise CheckFailed("sum of m * dim V(mu) differs from |M(R)|")
        return _canonical(_decomposition_json(dec))


class Character(Workload):
    def execute(self, item, datum, r):
        ch = self.pm.truncation.full_character(datum, r, check=True)
        return ch, self.pm.weightring.weyl_decompose(datum, ch)

    def check(self, item, datum, r, out, props):
        ch, dec = out
        props["char_terms"] = len(ch.terms)
        props["dimension"] = ch.total()
        props["tensor_bound"] = _tensor_bound(datum, r)
        if _dimension_sum(datum, dec) != ch.total():
            raise CheckFailed("sum of m * dim V(mu) differs from ch.total()")
        return _canonical({"dimension": ch.total(), "decomposition": _decomposition_json(dec)})


class TypeA(Workload):
    def execute(self, item, datum, r):
        return _cli(self.pm, ["schur", "--diagram", json.dumps(item["diagram"])])

    def check(self, item, datum, r, out, props):
        code, text = out
        props["output_bytes"] = len(text)
        if code != 0:
            raise CheckFailed(f"schur exited {code}")
        result = json.loads(text)["result"]
        schur = result["decomposition"]
        props["specht_ran"] = "specht" in result
        props["skew_shape"] = "skew_lr" in result
        if "specht" in result and result["specht"] != schur:
            raise CheckFailed("Schur and Specht decompositions differ")
        if "skew_lr" in result and result["skew_lr"] != schur:
            raise CheckFailed("Schur and skew-LR decompositions differ")
        return text.encode()


_DOT_NODE = re.compile(r'^  n(\d+) \[label="([^"]*)"\];$', re.M)
_DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="(\d+)"\];$', re.M)
_Y = re.compile(r"y\[(\d+),(-?\d+)\](?:\^(-?\d+))?")


def _lowerable(label: str, vertices) -> int:
    """How many f_i act on the monomial with this DOT label: f_i is defined
    exactly when some upper column sum sum_{l >= k} p[i, l] is positive."""
    cols: dict[int, list[tuple[int, int]]] = {}
    for i, c, ex in _Y.findall(label):
        cols.setdefault(int(i), []).append((int(c), int(ex) if ex else 1))
    count = 0
    for i in vertices:
        running = 0
        for _, ex in sorted(cols.get(i, ()), reverse=True):
            running += ex
            if running > 0:
                count += 1
                break
    return count


class Emit(Workload):
    def execute(self, item, datum, r):
        base = ["--cartan", item["kind"], "--rank", str(item["rank"]),
                "--R", json.dumps(item["R"])]
        return (_cli(self.pm, ["graph", *base, "--format", "dot"]),
                _cli(self.pm, ["graph", *base]),
                _cli(self.pm, ["truncate", *base]))

    def check(self, item, datum, r, out, props):
        (dot_code, dot), (json_code, graph_json), (trunc_code, trunc) = out
        props["output_bytes"] = len(dot) + len(graph_json) + len(trunc)
        if (dot_code, json_code, trunc_code) != (0, 0, 0):
            raise CheckFailed(f"exit codes {dot_code}, {json_code}, {trunc_code}")
        nodes = _DOT_NODE.findall(dot)
        edges = _DOT_EDGE.findall(dot)
        props["elements"] = len(nodes)
        props["f_edges"] = len(edges)
        if [int(k) for k, _ in nodes] != list(range(len(nodes))):
            raise CheckFailed("DOT nodes are not numbered 0..n-1")
        if dot.count("\n") != len(nodes) + len(edges) + 2:
            raise CheckFailed("DOT output has lines that are neither nodes nor edges")
        expected_edges = sum(_lowerable(label, datum.vertices) for _, label in nodes)
        if len(edges) != expected_edges:
            raise CheckFailed(f"{len(edges)} DOT edges, but f_i acts {expected_edges} times")
        if (graph_json.count('"weight":') != len(nodes)
                or graph_json.count('"source":') != len(edges)):
            raise CheckFailed("JSON and DOT graphs differ in node or edge count")
        truncation = json.loads(trunc)["result"]
        props["truncation_elements"] = truncation["count"]
        if truncation["count"] != len(truncation["elements"]) or truncation["count"] > len(nodes):
            raise CheckFailed("truncation count is inconsistent with the graph")
        return dot.encode() + graph_json.encode() + trunc.encode()


WORKLOADS = {"enumerate": Enumerate, "character": Character, "typea": TypeA,
             "emit": Emit}


def run(job: dict) -> dict:
    speed = Speedometer()
    for _ in range(3):
        speed.sample()
    t0 = perf_counter()
    import pmcrystal as pm
    import pmcrystal.cli  # noqa: F401  (the CLI is not imported by the package)

    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        t0 = perf_counter()  # traced set-up covers the datum builds only
        setup_span = tracer.open("bench.setup")
    datums = {(k, r): pm.build_root_datum(k, r) for k, r in job["datums"]}
    t1 = perf_counter()
    if tracer is not None:
        tracer.close(setup_span)
    for _ in range(3):
        speed.sample()
    report = {"setup_s": t1 - t0, "setup_scale": speed.scale(t0, t1)}
    if job["mode"] == "setup":
        return report

    workload = WORKLOADS[job["workload"]](pm)
    digest = hashlib.sha256()
    intervals, props_out, failures = [], [], []
    try:
        for k, item in enumerate(job["items"]):
            props = dict(item["props"])
            if "kind" in item:
                datum = datums[(item["kind"], item["rank"])]
                r = pm.multiset_from_pairs(item["R"])
            else:
                datum = r = None
            out = error = None
            speed.sample(force=False)
            if tracer is None:
                start = perf_counter()
                try:
                    out = workload.execute(item, datum, r)
                except Exception as err:  # an item failure is counted, not fatal
                    error = err
                end = perf_counter()
            else:
                span = tracer.open("bench.item")
                try:
                    out = workload.execute(item, datum, r)
                except Exception as err:
                    error = err
                tracer.close(span)
                start, end = tracer.span_start[span], tracer.span_end[span]
            if error is None:
                try:
                    digest.update(workload.check(item, datum, r, out, props))
                except CheckFailed as err:
                    error = err
            if error is not None:
                failures.append({"item": k, "error": f"{type(error).__name__}: {error}"})
                digest.update(b"failed")
            if tracer is not None and "output_bytes" in props:
                tracer.counts["cli.output_bytes"] += props["output_bytes"]
            intervals.append((start, end))
            props_out.append(props)
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()
    for _ in range(3):
        speed.sample()

    latencies = [end - start for start, end in intervals]
    scales = [speed.scale(start, end) for start, end in intervals]
    for props, raw, scale in zip(props_out, latencies, scales):
        props["latency_s"] = raw * scale
        props["raw_latency_s"] = raw
    report.update({
        "latencies": latencies,
        "scales": scales,
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures,
        "digest": digest.hexdigest(),
        "items": props_out,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        # the same reference speed as the item latencies, so that the self
        # times add up to the scaled set-up and wall time
        span_scales = tracer.span_scales(speed.scale)
        report["trace"] = tracer.summary(span_scales)
        tracer.write_spans(job["spans_path"], span_scales)
    return report


def main() -> None:
    job = json.load(sys.stdin)
    print(json.dumps(run(job)))


if __name__ == "__main__":
    main()
