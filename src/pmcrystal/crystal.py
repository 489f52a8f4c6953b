"""Crystal graphs of monomials: the closure, the packed pass and the writers.

``closure`` builds the graph of a set of monomials under ``monomial.f_op``
and ``monomial.e_op``, breadth first, and sorts what it found once at the
end by (weight, exponents), so that element order, edge order and DOT
output are reproducible run to run.  ``graph_over`` is the other builder:
one pass over the packed keys of a product crystal (see
``monomial.MonomialCodec``), as ``product.fold`` makes them.  Every graph
records its highest-weight elements from the e_i computed while it was
built.  Both ``closure`` and ``product.fold`` stop at ``MAX_ELEMENTS``.
``graph_to_json`` returns JSON text and ``to_dot`` DOT text, each written
from fragments memoised per call, one per weight and exponent entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .cartan import LimitExceeded, RootDatum, weight_str
from .monomial import Monomial, MonomialCodec, e_op, f_op


class ClosureLimitError(LimitExceeded):
    """A closure or a product fold grew past ``MAX_ELEMENTS``."""


MAX_ELEMENTS = 10**6  # the element limit of every closure and product fold

_order = attrgetter("weight", "exponents")  # the order of every graph's elements


@dataclass(frozen=True)
class CrystalGraph:
    datum: RootDatum
    elements: tuple
    f_edges: tuple  # ((x, i, y), ...) meaning f_i(x) = y, sorted
    highest: tuple  # the elements every e_i kills, in element order

    def __len__(self):
        return len(self.elements)


def closure(datum: RootDatum, seeds) -> CrystalGraph:
    """Smallest set of monomials containing ``seeds`` closed under every
    e_i and f_i, together with its f-edges; ClosureLimitError past
    ``MAX_ELEMENTS``."""
    limit = MAX_ELEMENTS
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
                raise ClosureLimitError("crystal.closure", limit, len(seen),
                                        f"closure exceeded limit {limit}")
        frontier = nxt
    elements = tuple(sorted(seen, key=_order))
    # edges were only recorded for elements processed in the frontier; the
    # frontier eventually visits everything in `seen`, so this is complete
    f_edges = tuple(sorted(((x, i, y) for (x, i), y in edges.items()),
                           key=lambda t: (t[0].weight, t[0].exponents, t[1])))
    return CrystalGraph(datum, elements, f_edges,
                        tuple(x for x in elements if x in tops))


def graph_over(datum: RootDatum, keys, codec: MonomialCodec) -> CrystalGraph:
    """The crystal graph on an e/f-closed set of products, given as
    ``codec``'s keys: one pass in which column i of a key is one shift and
    mask away, and f_i/e_i add a delta memoised per (i, column) for this
    call.  Every f_i(x) and e_i(x) is computed once and looked up in the
    set; ValueError when one is missing."""
    rows = sorted((*codec.decode(key), key) for key in keys)  # by _order
    elems = tuple(Monomial(weight, exponents) for weight, exponents, _ in rows)
    index = {key: x for x, (_, _, key) in zip(elems, rows)}
    columns = [(i, shift, mask, {}) for i, shift, mask in codec.columns]
    edges = []
    highest = []
    for key, x in index.items():
        top = True
        for i, shift, mask, memo in columns:
            col = (key >> shift) & mask
            step = memo.get(col)
            if step is None:
                phi, eps, best_f, best_e = codec.column_stats(i, col)
                step = memo[col] = (
                    phi, codec.z_delta(i, best_f - 2, -1) if phi else None,
                    eps, codec.z_delta(i, best_e, 1) if eps else None)
            phi, f_delta, eps, e_delta = step
            if phi:
                # a delta leaving the window leaves the set
                y = None if f_delta is None else index.get(key + f_delta)
                if y is None:
                    raise ValueError("element set is not closed under f")
                edges.append((x, i, y))
            if eps:
                top = False
                if e_delta is None or key + e_delta not in index:
                    raise ValueError("element set is not closed under e")
        if top:
            highest.append(x)
    return CrystalGraph(datum, elems, tuple(edges), tuple(highest))


def highest_weights(graph: CrystalGraph) -> tuple:
    """The primitive elements: no incoming f-edge, i.e. every e_i kills
    them.  Read from the record the graph was built with."""
    return graph.highest


def element_label(x: Monomial) -> str:
    return "1" if x.is_one() else str(x)


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
    exponent entry; ``element_label`` writes a monomial with no exponents."""
    index = {x: k for k, x in enumerate(graph.elements)}
    prefix = _Memo(lambda w: f"e{weight_str(w)}*")
    piece = _Memo(lambda entry: "y[%d,%d]" % entry[0] if entry[1] == 1
                  else "y[%d,%d]^%d" % (*entry[0], entry[1]))
    lines = ["digraph crystal {"]
    for k, x in enumerate(graph.elements):
        label = (prefix[x.weight] + "*".join(map(piece.__getitem__, x.exponents))
                 if x.exponents else element_label(x))
        lines.append(f'  n{k} [label="{label}"];')
    lines.extend('  n%d -> n%d [label="%d"];' % (index[x], index[y], i)
                 for x, i, y in graph.f_edges)
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
    index = {x: k for k, x in enumerate(graph.elements)}
    edge = '{\n      "i": %d,\n      "source": %d,\n      "target": %d\n    }'
    edges = [edge % (i, index[x], index[y]) for x, i, y in graph.f_edges]
    return ('{\n  "edges": ' + _json_list(edges, "\n  ") + ',\n  "nodes": '
            + monomials_json(graph.elements, "\n  ") + "\n}")
