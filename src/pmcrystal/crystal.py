"""Crystal graphs of monomials: the closure, the packed passes and the writers.

``closure`` builds the graph of a set of monomials under ``monomial.f_op``
and ``monomial.e_op``, breadth first, and sorts what it found once at the
end by (weight, exponents), so that element order, edge order and DOT
output are reproducible run to run; no command runs it (the tests' oracle
and the benchmark's tracer keep it).  ``graph_over`` is the other builder:
one pass over the packed keys of a product crystal (see
``monomial.MonomialCodec``), as ``product.fold`` makes them, in the
codec's datum.  It looks up every f_i(x) in the set and checks closure
under e by counting, with no lookup per e-edge.  ``walk`` is that pass
with no graph: it returns only the keys every e_i kills; ``discover`` is
that pass adding every f_i(x) it misses, from one highest-weight key.  All
three read each column's step from the codec's memo, which
``MonomialCodec.step`` fills once per column value of the codec; only
``MonomialCodec.decode`` decodes a column, at the output edge.  Only the
builders map elements to positions; an f-edge is a triple of positions.
Every graph records its highest-weight elements, those that every e_i
kills (eps_i = 0 for ``graph_over``), from what was computed while it was
built.  Both ``closure`` and ``product.fold`` stop at ``limits.MAX_ELEMENTS``.
``graph_to_json`` returns JSON text and ``to_dot`` DOT text, each from
fragments memoised per call, one per weight and exponent.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from . import limits
from .cartan import RootDatum, weight_str
from .monomial import Monomial, MonomialCodec, e_op, f_op

_order = attrgetter("weight", "exponents")  # the order of every graph's elements


class CrystalGraph(namedtuple("CrystalGraph", "datum elements f_edges highest")):
    """A crystal graph: its ``elements`` (sorted), ``f_edges`` ((k, i, l), ...)
    meaning f_i(elements[k]) = elements[l] (sorted), and ``highest``, the
    elements every e_i kills, in element order.  ``len`` counts elements,
    so the namedtuple helpers ``_make`` and ``_replace``, which check the
    length, refuse a graph that has other than four."""

    __slots__ = ()

    def __len__(self):
        return len(self.elements)


def closure(datum: RootDatum, seeds) -> CrystalGraph:
    """Smallest set of monomials containing ``seeds`` closed under every
    e_i and f_i, together with its f-edges; LimitExceeded at stage
    ``crystal.closure`` past ``limits.MAX_ELEMENTS``."""
    limit = limits.MAX_ELEMENTS
    seen = set(seeds)
    frontier = list(seen)
    edges = {}
    tops = set()
    while frontier:
        nxt = []
        for x in frontier:
            top = True
            for i in datum.vertices:
                down = f_op(datum, x, i)
                if down is not None:
                    edges[(x, i)] = down
                    if down not in seen:
                        seen.add(down)
                        nxt.append(down)
                up = e_op(datum, x, i)
                if up is not None:
                    top = False
                    if up not in seen:
                        seen.add(up)
                        nxt.append(up)
            if top:
                tops.add(x)
            if len(seen) > limit:
                raise limits.LimitExceeded("crystal.closure", limit, len(seen),
                                           f"closure exceeded limit {limit}")
        frontier = nxt
    elements = tuple(sorted(seen, key=_order))
    at = {x: k for k, x in enumerate(elements)}
    # edges were only recorded for elements processed in the frontier; the
    # frontier eventually visits everything in `seen`, so this is complete
    f_edges = tuple(sorted((at[x], i, at[y]) for (x, i), y in edges.items()))
    return CrystalGraph(datum, elements, f_edges,
                        tuple(x for x in elements if x in tops))


def discover(seed: int, codec: MonomialCodec, bound: int) -> list:
    """The keys reached from the highest-weight key ``seed`` by f-steps,
    breadth first; AssertionError when a step leaves the window, when a
    column has an |exponent| above ``bound`` (its step's top, tested on
    every visit, as another factor may have stepped it, and before any step
    from it, so no key carries across a digit), or when the keys are not
    closed under e (the count of ``graph_over``)."""
    columns = list(enumerate(zip(codec.columns, codec.steps)))
    excess = [0] * len(columns)
    found, seen = [seed], {seed}
    for key in found:  # found grows while it is read
        for j, ((i, shift, mask), memo) in columns:
            col = (key >> shift) & mask
            phi, f_delta, _, gap, top = memo.get(col) or codec.step(i, col)
            if top > bound:
                raise AssertionError(f"an exponent passes the bound {bound}")
            if phi:
                if f_delta is None:
                    raise AssertionError(f"an f_{i} step leaves the window {codec.positions}")
                down = key + f_delta
                if down not in seen:
                    seen.add(down)
                    found.append(down)
            if gap:
                excess[j] += gap
    if any(excess):
        raise AssertionError("the f-steps from the seed reach a set not closed under e")
    return found


def walk(keys: set, codec: MonomialCodec) -> list:
    """The keys of the set ``keys`` that every e_i kills, in its iteration
    order: the pass of ``graph_over``, with the same ValueError when the set
    is not closed under f or e, and no decoding, ordering or edges."""
    columns = list(enumerate(zip(codec.columns, codec.steps)))
    excess = [0] * len(columns)
    highest = []
    for key in keys:
        top = True
        for j, ((i, shift, mask), memo) in columns:
            col = (key >> shift) & mask
            try:
                phi, f_delta, eps, gap, _ = memo[col]
            except KeyError:
                phi, f_delta, eps, gap, _ = codec.step(i, col)
            if phi and (f_delta is None or key + f_delta not in keys):
                raise ValueError("element set is not closed under f")
            if eps:
                top = False
            if gap:
                excess[j] += gap
        if top:
            highest.append(key)
    if any(excess):
        raise ValueError("element set is not closed under e")
    return highest


def graph_over(keys, codec: MonomialCodec) -> CrystalGraph:
    """The crystal graph over ``codec.datum`` on an e/f-closed set of
    products, given as ``codec``'s keys: one pass in which column i of a
    key is one shift and mask away, and f_i adds a delta memoised per (i,
    column) on the codec (``MonomialCodec.step``).  Every f_i(x) is computed
    once and looked up in the set; ValueError when one is missing.  Closure
    under e is checked by counting: in an f-closed set, f_i maps the
    elements with phi_i > 0 injectively into those with eps_i > 0, because
    e_i f_i = id and eps_i(f_i x) = eps_i(x) + 1, so the set is e-closed
    exactly when the two counts agree for every i; ValueError after the
    pass when they do not.  ``walk`` is this pass without the graph."""
    rows = sorted((*codec.decode(key), key) for key in keys)  # by _order
    elems = tuple(Monomial(weight, exponents) for weight, exponents, _ in rows)
    index = {key: k for k, (_, _, key) in enumerate(rows)}
    del rows
    columns = list(enumerate(zip(codec.columns, codec.steps)))
    # per column: the elements with phi_i > 0 less those with eps_i > 0
    excess = [0] * len(columns)
    edges = []
    highest = []
    for key, k in index.items():
        top = True
        for j, ((i, shift, mask), memo) in columns:
            col = (key >> shift) & mask
            phi, f_delta, eps, gap, _ = memo.get(col) or codec.step(i, col)
            if phi:
                # a delta leaving the window leaves the set
                target = None if f_delta is None else index.get(key + f_delta)
                if target is None:
                    raise ValueError("element set is not closed under f")
                edges.append((k, i, target))
            if eps:
                top = False
            if gap:
                excess[j] += gap
        if top:
            highest.append(elems[k])
    if any(excess):
        raise ValueError("element set is not closed under e")
    return CrystalGraph(codec.datum, elems, tuple(edges), tuple(highest))


def highest_weights(graph: CrystalGraph) -> tuple:
    """The primitive elements: no incoming f-edge, i.e. every e_i kills
    them.  Read from the record the graph was built with."""
    return graph.highest


class _Memo(dict):
    """A dict that writes each missing key's value once, as ``render(key)``."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        self[key] = value = self.render(key)
        return value


def to_dot(graph: CrystalGraph) -> str:
    """Deterministic DOT rendering: vertices in sorted order, edges
    labelled by their vertex index.  A label is written from pieces
    memoised per call, one ``e(w)*`` per weight and one ``y[i,c]^e`` per
    exponent entry.  A monomial with no exponents is "1" at weight 0 and
    e(w) elsewhere."""
    prefix = _Memo(lambda w: f"e{weight_str(w)}*")
    piece = _Memo(lambda entry: "y[%d,%d]" % entry[0] if entry[1] == 1
                  else "y[%d,%d]^%d" % (*entry[0], entry[1]))
    lines = ["digraph crystal {"]
    for k, x in enumerate(graph.elements):
        label = (prefix[x.weight] + "*".join(map(piece.__getitem__, x.exponents))
                 if x.exponents else "1" if x.is_one() else str(x))
        lines.append(f'  n{k} [label="{label}"];')
    lines.extend('  n%d -> n%d [label="%d"];' % (s, t, i) for s, i, t in graph.f_edges)
    return "\n".join(lines) + "\n}\n"


def _json_list(items, newline: str) -> str:
    """A JSON array of already written ``items``, indented two spaces a
    level below ``newline``, as ``json.dumps(..., indent=2)`` writes it."""
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"


def monomials_json(elements, newline: str = "\n") -> str:
    """The text of ``json.dumps([x.to_json() for x in elements], indent=2,
    sort_keys=True)``, indented below ``newline``.  Each weight and each
    exponent entry is written once per call."""
    node, key, entry, field = (newline + "  " * k for k in (1, 2, 3, 4))
    weight = _Memo(lambda w: _json_list(list(map(str, w)), key))
    exponent = _Memo(lambda item: '{%s"c": %d,%s"e": %d,%s"i": %d%s}' % (
        field, item[0][1], field, item[1], field, item[0][0], entry))
    head, middle, tail = "{" + key + '"exponents": ', "," + key + '"weight": ', node + "}"
    return _json_list([
        head + _json_list(list(map(exponent.__getitem__, x.exponents)), key)
        + middle + weight[x.weight] + tail for x in elements], newline)


def graph_to_json(graph: CrystalGraph) -> str:
    """The text of ``json.dumps({"nodes": [...], "edges": [...]}, indent=2,
    sort_keys=True)``: nodes as ``monomials_json`` writes them, edges as
    {"source", "target", "i"} with source and target node indices."""
    edge = '{\n      "i": %d,\n      "source": %d,\n      "target": %d\n    }'
    edges = [edge % (i, source, target) for source, i, target in graph.f_edges]
    return ('{\n  "edges": ' + _json_list(edges, "\n  ") + ',\n  "nodes": '
            + monomials_json(graph.elements, "\n  ") + "\n}")
