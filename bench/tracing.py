"""Span and counter recording around the public functions of ``pmcrystal``.

The tracer wraps functions from outside the library: every module
namespace that binds a wrapped function (``pmcrystal.crystal.f_op`` as well
as ``pmcrystal.monomial.f_op``) gets the same wrapper, and ``uninstall``
puts the originals back.  Spans (name, start, end, parent) live in flat
arrays until the run ends; counters are exact call counts.

Hot single-step functions (f_i, e_i, one Demazure operator, one monomial
product) are counted, not spanned: a span per call would cost more than
the call itself.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter
from math import factorial
from time import perf_counter

MODULES = ("cartan", "monomial", "crystal", "product", "truncation",
           "weightring", "typea", "cli")

# (module, function): timed as a span.
SPANS = (
    ("cartan", "build_root_datum"),
    ("crystal", "closure"),
    ("crystal", "graph_over"),
    ("crystal", "highest_weights"),
    ("crystal", "to_dot"),
    ("crystal", "graph_to_json"),
    ("product", "product_crystal"),
    ("product", "s_label"),
    ("product", "decompose"),
    ("truncation", "build_plan"),
    ("truncation", "char_by_plan"),
    ("truncation", "truncate"),
    ("weightring", "pi_longest"),
    ("weightring", "apply_word"),
    ("weightring", "irreducible_character"),
    ("weightring", "weyl_decompose"),
    ("typea", "specht_decompose_bruteforce"),
    ("typea", "schur_decompose"),
    ("typea", "skew_normalise"),
    ("typea", "lr_skew_expand"),
    ("typea", "sequence_of_diagram"),
    ("cli", "run"),
)

# (module, function): call count only.
COUNTS = (
    ("monomial", "f_op"),
    ("monomial", "e_op"),
    ("weightring", "demazure_pi"),
)


def _hook_length_dim(shape) -> int:
    """dim S^shape by the hook length formula."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    conj = [sum(1 for row in shape if row > c) for c in range(shape[0])] if shape else []
    hooks = 1
    for r, c in cells:
        hooks *= (shape[r] - c - 1) + (conj[c] - r - 1) + 1
    return factorial(len(cells)) // hooks


class Tracer:
    """Records spans and counts for one process; not thread-safe (the
    benchmark worker is single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> float:
        end = self.span_end[idx] = perf_counter()
        popped = self._stack.pop()
        assert popped == idx, "spans closed out of order"
        return end - self.span_start[idx]

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, name: str, module: str, fn, after=None):
        open_, close, counts = self.open, self.close, self.counts

        def wrapper(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[module + ".errors"] += 1
                raise
            finally:
                close(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, module: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[module + ".errors"] += 1
                raise
        return wrapper

    def _fold_wrapper(self, fn):
        """mono_mul as bound in ``product``: counts the products the fold
        forms directly inside product_crystal."""
        counts, stack, span_name = self.counts, self._stack, self.span_name
        fold_id = self._name_id("product.product_crystal")

        def wrapper(a, b):
            top = stack[-1]
            if top >= 0 and span_name[top] == fold_id:
                counts["product.fold_products"] += 1
            return fn(a, b)
        return wrapper

    def _replace(self, original, wrapper, namespaces) -> None:
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        pkg = importlib.import_module("pmcrystal")
        mods = {m: importlib.import_module(f"pmcrystal.{m}") for m in MODULES}
        every = [pkg, *mods.values()]
        counts = self.counts

        def graph_counts(graph):
            counts["crystal.elements"] += len(graph.elements)
            counts["crystal.f_edges"] += len(graph.f_edges)

        def product_size(graph):
            counts["product.elements"] += len(graph.elements)

        def char_terms(ch):
            counts["weightring.char_terms"] += len(ch.terms)

        def specht_dim(dec):
            counts["typea.specht_dim"] += sum(m * _hook_length_dim(lam)
                                              for lam, m in dec.items())

        after = {"closure": graph_counts, "graph_over": graph_counts,
                 "product_crystal": product_size, "pi_longest": char_terms,
                 "specht_decompose_bruteforce": specht_dim}
        for module, fn_name in SPANS:
            original = getattr(mods[module], fn_name)
            wrapper = self._span_wrapper(f"{module}.{fn_name}", module, original,
                                         after.get(fn_name))
            self._replace(original, wrapper, every)
        for module, fn_name in COUNTS:
            original = getattr(mods[module], fn_name)
            wrapper = self._count_wrapper(f"{module}.{fn_name}.calls", module, original)
            self._replace(original, wrapper, every)
        # only the product module's binding: the fold is the one caller there
        product = mods["product"]
        self._replace(product.mono_mul, self._fold_wrapper(product.mono_mul), [product])

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)

    # -- derived figures -------------------------------------------------------

    def span_scales(self, root_scale) -> list[float]:
        """The time scale of every span: ``root_scale(start, end)`` of its
        top-level ancestor, so that a span tree is scaled as one."""
        scales: list[float] = []
        for idx, parent in enumerate(self.span_parent):  # parents come first
            scales.append(scales[parent] if parent >= 0 else
                          root_scale(self.span_start[idx], self.span_end[idx]))
        return scales

    def durations(self, scales) -> list[float]:
        return [(e - s) * k for s, e, k in zip(self.span_start, self.span_end, scales)]

    def self_times(self, scales) -> list[float]:
        """Scaled span duration minus the scaled durations of its direct
        children (spans nest strictly, so children never overlap)."""
        dur = self.durations(scales)
        own = list(dur)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= dur[idx]
        return own

    def summary(self, scales) -> dict:
        """Per span name: total time, self time and calls, in the units of
        ``scales``; plus the counters and the figures derived from the span
        tree."""
        dur, own = self.durations(scales), self.self_times(scales)
        by_name: dict[str, dict] = {}
        for idx, nid in enumerate(self.span_name):
            entry = by_name.setdefault(self.names[nid], {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += dur[idx]
            entry["self_s"] += own[idx]
            entry["calls"] += 1
        derived = Counter()
        child_names: dict[int, set] = {}
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_names.setdefault(parent, set()).add(self.names[self.span_name[idx]])
        for idx, nid in enumerate(self.span_name):
            name = self.names[nid]
            if name != "weightring.irreducible_character":
                continue
            parent = self.span_parent[idx]
            if parent >= 0 and self.names[self.span_name[parent]] == "weightring.weyl_decompose":
                derived["weightring.peel_steps"] += 1
            if "weightring.apply_word" in child_names.get(idx, ()):
                derived["weightring.irr_cache_misses"] += 1
        return {"spans": by_name, "counts": dict(self.counts + derived)}

    def write_spans(self, path, scales) -> None:
        """Write every span as [name, start, end, parent, scale] (gzipped
        JSON; start and end in raw perf_counter seconds)."""
        spans = [[self.names[n], s, e, p, k] for n, s, e, p, k in
                 zip(self.span_name, self.span_start, self.span_end, self.span_parent,
                     scales)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "scale"],
                       "spans": spans}, fh)
