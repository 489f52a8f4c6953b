"""Generic crystal-graph machinery over monomials and formal tensors.

The closure engine works with any element supporting the five crystal
queries (weight, eps_i, phi_i, e_i, f_i); here that means Monomials and
TensorElements.  ``closure`` builds every graph on such elements, breadth
first, and sorts what it found once at the end, so that element order,
edge order and DOT output are reproducible run to run.  ``graph_over`` is
the other builder: one pass over the packed keys of a product crystal (see
``monomial.MonomialCodec``), as ``product.fold`` makes them.  Every graph
records its highest-weight elements from the e_i computed while it was
built.  Both ``closure`` and ``product.fold`` stop at ``MAX_ELEMENTS``.
``graph_to_json`` returns JSON text and ``to_dot`` DOT text, each written
from fragments memoised per call, one per weight and exponent entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .cartan import LimitExceeded, RootDatum, Weight, w_add, weight_str
from .monomial import (Monomial, MonomialCodec, column_stats, e_op, f_op,
                       make_monomial)
from .weightring import GroupAlgebraElement


class ClosureLimitError(LimitExceeded):
    """A closure or a product fold grew past ``MAX_ELEMENTS``."""


MAX_ELEMENTS = 10**6  # the element limit of every closure and product fold


@dataclass(frozen=True)
class TensorElement:
    """A formal tensor b1 (x) b2 of crystal elements, with the tensor-rule
    statistics computed on demand."""

    left: object
    right: object


def wt_of(datum: RootDatum, x) -> Weight:
    if isinstance(x, Monomial):
        return x.weight
    return w_add(wt_of(datum, x.left), wt_of(datum, x.right))


def eps_of(datum: RootDatum, x, i: int) -> int:
    if isinstance(x, Monomial):
        return column_stats(x, i)[1]
    return max(eps_of(datum, x.left, i),
               eps_of(datum, x.right, i) - datum.pairing(i, wt_of(datum, x.left)))


def phi_of(datum: RootDatum, x, i: int) -> int:
    if isinstance(x, Monomial):
        return column_stats(x, i)[0]
    return max(phi_of(datum, x.right, i),
               phi_of(datum, x.left, i) + datum.pairing(i, wt_of(datum, x.right)))


def e_of(datum: RootDatum, x, i: int):
    if isinstance(x, Monomial):
        return e_op(datum, x, i)
    if phi_of(datum, x.left, i) >= eps_of(datum, x.right, i):
        lifted = e_of(datum, x.left, i)
        return None if lifted is None else TensorElement(lifted, x.right)
    lifted = e_of(datum, x.right, i)
    return None if lifted is None else TensorElement(x.left, lifted)


def f_of(datum: RootDatum, x, i: int):
    if isinstance(x, Monomial):
        return f_op(datum, x, i)
    if phi_of(datum, x.left, i) > eps_of(datum, x.right, i):
        lowered = f_of(datum, x.left, i)
        return None if lowered is None else TensorElement(lowered, x.right)
    lowered = f_of(datum, x.right, i)
    return None if lowered is None else TensorElement(x.left, lowered)


def sort_key(x):
    if isinstance(x, Monomial):
        return (0, x.weight, x.exponents)
    return (1, sort_key(x.left), sort_key(x.right))


@dataclass(frozen=True)
class CrystalGraph:
    datum: RootDatum
    elements: tuple
    f_edges: tuple  # ((x, i, y), ...) meaning f_i(x) = y, sorted
    highest: tuple  # the elements every e_i kills, in element order

    def __len__(self):
        return len(self.elements)


def closure(datum: RootDatum, seeds) -> CrystalGraph:
    """Smallest subset containing ``seeds`` closed under every e_i and f_i,
    together with its f-edges; ClosureLimitError past ``MAX_ELEMENTS``."""
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
                down = f_of(datum, x, i)
                if down is not None:
                    edges[(x, i)] = down
                    if down not in seen:
                        seen.add(down)
                        nxt.append(down)
                up = e_of(datum, x, i)
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
    elements = tuple(sorted(seen, key=sort_key))
    # edges were only recorded for elements processed in the frontier; the
    # frontier eventually visits everything in `seen`, so this is complete
    f_edges = tuple(sorted(((x, i, y) for (x, i), y in edges.items()),
                           key=lambda t: (sort_key(t[0]), t[1])))
    return CrystalGraph(datum, elements, f_edges,
                        tuple(x for x in elements if x in tops))


def graph_over(datum: RootDatum, keys, codec: MonomialCodec) -> CrystalGraph:
    """The crystal graph on an e/f-closed set of products, given as
    ``codec``'s keys: one pass in which column i of a key is one shift and
    mask away, and f_i/e_i add a delta memoised per (i, column) for this
    call.  Every f_i(x) and e_i(x) is computed once and looked up in the
    set; ValueError when one is missing."""
    rows = sorted((*codec.decode(key), key) for key in keys)  # sort_key order
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


def extend_strings(datum: RootDatum, i: int, xs) -> frozenset:
    """D_i: close a subset under the lowering operator f_i."""
    out = set(xs)
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            down = f_of(datum, x, i)
            if down is not None and down not in out:
                out.add(down)
                nxt.append(down)
        frontier = nxt
    return frozenset(out)


def string_property(datum: RootDatum, xs, ambient: CrystalGraph):
    """Check Kashiwara's string property of ``xs`` inside ``ambient``.

    Returns (True, None) or (False, (i, string)) where ``string`` is an
    offending i-root string listed from its top element downward.
    """
    xs = set(xs)
    for i in datum.vertices:
        tops = set()
        for x in ambient.elements:
            cur = x
            while True:
                up = e_of(datum, cur, i)
                if up is None:
                    break
                cur = up
            tops.add(cur)
        for top in sorted(tops, key=sort_key):
            string = [top]
            cur = top
            while True:
                down = f_of(datum, cur, i)
                if down is None:
                    break
                string.append(down)
                cur = down
            inside = [x in xs for x in string]
            if not any(inside):
                continue
            if all(inside):
                continue
            if inside[0] and not any(inside[1:]):
                continue
            return False, (i, tuple(string))
    return True, None


def highest_weight_monomial(datum: RootDatum, lam: Weight, baseline: int = 0) -> Monomial:
    """Realise b_lambda as the monomial prod_i y_{i,c_i}^{<a_i^v,lam>} with
    each c_i the parity-matched value nearest ``baseline``."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    exps = {}
    for i in datum.vertices:
        m = datum.pairing(i, lam)
        if m:
            c = baseline + ((datum.parity[i] - baseline) % 2)
            exps[(i, c)] = m
    return make_monomial(lam, exps)


def demazure_crystal(datum: RootDatum, lam: Weight, word, baseline: int = 0) -> frozenset:
    """B_w(lambda) = D_{word[0]} ... D_{word[-1]} {b_lambda} (last letter
    acts first)."""
    xs = frozenset([highest_weight_monomial(datum, lam, baseline)])
    for i in reversed(tuple(word)):
        xs = extend_strings(datum, i, xs)
    return xs


def tensor_crystal(datum: RootDatum, a: CrystalGraph, b: CrystalGraph) -> CrystalGraph:
    """The tensor product crystal on pairs of elements of two closed
    graphs."""
    return closure(datum, [TensorElement(x, y) for x in a.elements for y in b.elements])


def character_of_set(datum: RootDatum, xs) -> GroupAlgebraElement:
    out: dict[Weight, int] = {}
    for x in xs:
        w = wt_of(datum, x)
        out[w] = out.get(w, 0) + 1
    return GroupAlgebraElement(out)


def check_crystal_axioms(graph: CrystalGraph) -> None:
    """Verify the upper-seminormal axioms plus seminormality exhaustively.

    Checks, for every element b and vertex i:
      1. phi_i(b) = eps_i(b) + <alpha_i^vee, wt b>;
      2. e_i(b) = b' iff f_i(b') = b;
      3. wt(e_i b) = wt(b) + alpha_i;
      4. eps_i(b) counts the e_i-steps to the top of the string, and
         phi_i(b) the f_i-steps to the bottom.
    """
    datum = graph.datum
    elems = set(graph.elements)
    for x in graph.elements:
        for i in datum.vertices:
            eps = eps_of(datum, x, i)
            phi = phi_of(datum, x, i)
            if phi != eps + datum.pairing(i, wt_of(datum, x)):
                raise AssertionError(f"phi != eps + pairing at {x}, i={i}")
            up = e_of(datum, x, i)
            if up is not None:
                if up not in elems:
                    raise AssertionError(f"e_{i} leaves the crystal at {x}")
                if f_of(datum, up, i) != x:
                    raise AssertionError(f"f_{i}(e_{i}(x)) != x at {x}")
                if wt_of(datum, up) != w_add(wt_of(datum, x), datum.alphas[i]):
                    raise AssertionError(f"wt(e_{i} x) != wt(x) + alpha at {x}")
            down = f_of(datum, x, i)
            if down is not None:
                if down not in elems:
                    raise AssertionError(f"f_{i} leaves the crystal at {x}")
                if e_of(datum, down, i) != x:
                    raise AssertionError(f"e_{i}(f_{i}(x)) != x at {x}")
            steps_up = 0
            cur = x
            while (nxt := e_of(datum, cur, i)) is not None:
                cur = nxt
                steps_up += 1
            if steps_up != eps:
                raise AssertionError(f"eps_{i} does not count e-steps at {x}")
            steps_down = 0
            cur = x
            while (nxt := f_of(datum, cur, i)) is not None:
                cur = nxt
                steps_down += 1
            if steps_down != phi:
                raise AssertionError(f"phi_{i} does not count f-steps at {x}")


def element_label(x) -> str:
    if isinstance(x, Monomial):
        return "1" if x.is_one() else str(x)
    return f"{element_label(x.left)} (x) {element_label(x.right)}"


class _Memo(dict):
    """A dict that writes each missing key's value once, as ``render(key)``."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        self[key] = value = self.render(key)
        return value


def to_dot(graph: CrystalGraph) -> str:
    """Deterministic DOT rendering: vertices in sorted order, edges
    labelled by their vertex index.  A monomial's label is written from
    pieces memoised per call, one ``e(w)*`` per weight and one ``y[i,c]^e``
    per exponent entry; ``element_label`` writes the other labels."""
    index = {x: k for k, x in enumerate(graph.elements)}
    prefix = _Memo(lambda w: f"e{weight_str(w)}*")
    piece = _Memo(lambda entry: "y[%d,%d]" % entry[0] if entry[1] == 1
                  else "y[%d,%d]^%d" % (*entry[0], entry[1]))
    lines = ["digraph crystal {"]
    for k, x in enumerate(graph.elements):
        label = (prefix[x.weight] + "*".join(map(piece.__getitem__, x.exponents))
                 if isinstance(x, Monomial) and x.exponents else element_label(x))
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
    sort_keys=True)``, indented below ``newline``; an element that is no
    monomial is written as {"label": element_label(x)}.  Each weight and
    each exponent entry is written once per call."""
    node, key, entry, field = (newline + "  " * k for k in (1, 2, 3, 4))
    weight = _Memo(lambda w: _json_list(list(map(str, w)), key))
    exponent = _Memo(lambda item: '{%s"c": %d,%s"e": %d,%s"i": %d%s}' % (
        field, item[0][1], field, item[1], field, item[0][0], entry))
    head, middle, tail = "{" + key + '"exponents": ', "," + key + '"weight": ', node + "}"
    return _json_list([
        head + _json_list(list(map(exponent.__getitem__, x.exponents)), key)
        + middle + weight[x.weight] + tail if isinstance(x, Monomial)
        else "{" + key + '"label": ' + encode_basestring_ascii(element_label(x)) + tail
        for x in elements], newline)


def graph_to_json(graph: CrystalGraph) -> str:
    """The text of ``json.dumps({"nodes": [...], "edges": [...]}, indent=2,
    sort_keys=True)``: nodes as ``monomials_json`` writes them, edges as
    {"source", "target", "i"} with source and target node indices."""
    index = {x: k for k, x in enumerate(graph.elements)}
    edge = '{\n      "i": %d,\n      "source": %d,\n      "target": %d\n    }'
    edges = [edge % (i, index[x], index[y]) for x, i, y in graph.f_edges]
    return ('{\n  "edges": ' + _json_list(edges, "\n  ") + ',\n  "nodes": '
            + monomials_json(graph.elements, "\n  ") + "\n}")
