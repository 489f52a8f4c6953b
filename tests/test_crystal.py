import json
import random

import pytest

from pmcrystal import limits, monomial
from pmcrystal.cartan import build_root_datum, w_add
from pmcrystal.crystal import (CrystalGraph, closure, graph_over, graph_to_json,
                               highest_weights, to_dot, walk)
from pmcrystal.monomial import Monomial, make_monomial, mono_mul, one, y_monomial
from pmcrystal.weightring import e, irreducible_character
from conftest import random_multiset, random_weight
from reference import (character_of_set, check_crystal_axioms, codec_of, demazure_crystal,
                       e_of, edge_triples, element_label, extend_strings, f_delta, f_of,
                       fundamental_crystal, highest_weight_monomial, ref_graph_over,
                       string_property, tensor_crystal)


def test_closure_sl3_fundamental(a2):
    g = closure(a2, [y_monomial(a2, 1, 1)])
    assert len(g) == 3
    assert {x.weight for x in g.elements} == {(1, 0), (-1, 1), (0, -1)}


def test_closure_sl3_square(a2):
    g = closure(a2, [y_monomial(a2, 1, 1, 2)])
    assert len(g) == 6
    assert highest_weights(g) == (y_monomial(a2, 1, 1, 2),)
    # the six elements as pictures (y11, y20, y1-1, y2-2)
    def picture(p):
        return tuple(dict(p.exponents).get(pt, 0) for pt in [(1, 1), (2, 0), (1, -1), (2, -2)])
    assert {picture(p) for p in g.elements} == {
        (2, 0, 0, 0), (1, 1, -1, 0), (1, 0, 0, -1),
        (0, 2, -2, 0), (0, 1, -1, -1), (0, 0, 0, -2)}
    assert len(g.f_edges) == 6


def test_closure_trivial_and_limit(a2, monkeypatch):
    assert len(closure(a2, [one(a2)])) == 1
    monkeypatch.setattr(limits, "MAX_ELEMENTS", 4)
    with pytest.raises(limits.LimitExceeded) as err:
        closure(a2, [y_monomial(a2, 1, 1, 3)])
    assert err.value.stage == "crystal.closure"


def test_highest_weights_empty(a2):
    assert highest_weights(closure(a2, [])) == ()


def test_graph_over_rejects_sets_not_closed(a2):
    y11 = y_monomial(a2, 1, 1)
    lowest = f_of(a2, f_of(a2, y11, 1), 2)  # no f_i acts on it
    square = {x.weight: x for x in closure(a2, [y_monomial(a2, 1, 1, 2)]).elements}
    cases = [([y11], "f"), ([lowest], "e"),
             (set(square.values()) - {square[(0, -2)]}, "f"),  # the lowest
             (set(square.values()) - {square[(2, 0)]}, "e")]   # the highest
    for elements, op in cases:
        # the packed pass of product_crystal: in the first two cases the
        # missing neighbour lies outside the codec window, in the last two
        # inside it
        codec = codec_of(a2, [tuple(elements)])
        keys = {codec.zero + codec.offset(p) for p in elements}
        with pytest.raises(ValueError, match=f"not closed under {op}"):
            graph_over(keys, codec)
        with pytest.raises(ValueError, match=f"not closed under {op}"):
            walk(keys, codec)


def drop_one(datum, graph, gone):
    """Run graph_over and walk on the element set of a product crystal less
    one element, in the codec window of the whole set, so that the missing
    element lies inside it.  Expects "not closed under f" when the element
    has an incoming f-edge, "not closed under e" when it is highest with
    an outgoing edge, and the graph on the rest when it is isolated;
    returns "f", "e" or None accordingly."""
    elements = graph.elements
    codec = codec_of(datum, [elements])
    keys = [codec.zero + codec.offset(p) for p in elements]
    assert_same_graph(graph_over(keys, codec), graph)
    assert walked(datum, set(keys), codec) == graph.highest
    k = elements.index(gone)
    rest = keys[:k] + keys[k + 1:]
    if any(target == k for _, _, target in graph.f_edges):
        op = "f"
    elif any(source == k for source, _, _ in graph.f_edges):
        op = "e"
    else:
        got = graph_over(rest, codec)
        assert got.elements == elements[:k] + elements[k + 1:]
        assert got.f_edges == tuple((s - (s > k), i, t - (t > k)) for s, i, t in graph.f_edges)
        assert got.highest == tuple(x for x in graph.highest if x != gone)
        assert walked(datum, set(rest), codec) == got.highest
        return None
    with pytest.raises(ValueError, match=f"not closed under {op}"):
        graph_over(rest, codec)
    with pytest.raises(ValueError, match=f"not closed under {op}"):
        walk(set(rest), codec)
    return op


def walked(datum, keys, codec):
    """The highest keys that walk finds, decoded, in element order."""
    return tuple(Monomial(*row) for row in sorted(map(codec.decode, walk(keys, codec))))


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("A", 4), ("D", 4), ("GL", 3)])
def test_graph_over_finds_one_missing_element(kind, rank):
    # e-closure is checked by counting, after every f-edge is looked up
    from pmcrystal.product import product_graph
    datum = build_root_datum(kind, rank)
    rng = random.Random(31 + 7 * rank + len(kind))
    seen = set()
    for draw in range(8):
        graph = product_graph(datum, random_multiset(rng, datum, cap=400))
        # every other draw removes a highest-weight element
        seen.add(drop_one(datum, graph, rng.choice(graph.highest if draw % 2
                                                   else graph.elements)))
    assert {"f", "e"} <= seen


def test_graph_over_drops_an_isolated_element(a2):
    # y_{2,4}^-1, the lowest element of M(1,1), times y_{2,4} is 1: an
    # element with no edge
    from pmcrystal.product import multiset, product_graph
    graph = product_graph(a2, multiset({(1, 1): 1, (2, 4): 1}))
    assert drop_one(a2, graph, one(a2)) is None
    assert graph.highest[0] == one(a2)
    assert drop_one(a2, graph, graph.highest[1]) == "e"


def test_f_delta_is_memoised_with_its_misses(a2, monkeypatch):
    # the codec's f-delta rows are its memo: each (i, k) gives the
    # z_exponents f-delta at the position of k + 2, and None where k + 2 is
    # no position; f-deltas that leave the window are answers too
    graph = closure(a2, [y_monomial(a2, 1, 1, 2)])
    args = [(i, k) for i in a2.vertices for k in range(-3, 6)]
    codec = codec_of(a2, [graph.elements])
    first = [f_delta(codec, *a) for a in args]
    assert None in first and any(d is not None for d in first)
    for (i, k), want in zip(args, first):
        column = codec.positions[i - 1]
        assert (codec.deltas[i - 1][column.index(k + 2)] if k + 2 in column else None) == want
    # the rows are built from the window, once per codec: a second codec
    # and a pass over its keys build no z_{i,k}
    calls = []
    monkeypatch.setattr(monomial, "z_exponents", lambda *a: calls.append(a) or {})
    again = codec_of(a2, [graph.elements])
    assert again.deltas == codec.deltas
    keys = {again.zero + again.offset(x) for x in graph.elements}
    assert graph_over(keys, again) == graph and calls == []


def test_graph_over_keeps_weights_apart(a2, gl3):
    # equal exponents, different weights: a det shift in GL, and a weight
    # that is not the column sums
    base = closure(gl3, [y_monomial(gl3, 1, 1)]).elements
    det = (1,) * gl3.rank
    shifted = tuple(make_monomial(w_add(p.weight, det), dict(p.exponents))
                    for p in base)
    g = closure(gl3, base + shifted)
    assert len(g) == 6 and len(g.f_edges) == 4
    assert set(highest_weights(g)) == {base[-1], shifted[-1]}
    odd = Monomial((1, 1), ())
    assert closure(a2, [one(a2), odd]).highest == (one(a2), odd)


def test_extend_strings(a3):
    # the compute-truncation example, step 3
    seed = mono_mul(y_monomial(a3, 1, 3), y_monomial(a3, 3, 3))
    ext = extend_strings(a3, 3, {seed})
    assert len(ext) == 2
    assert extend_strings(a3, 3, ext) == ext
    assert extend_strings(a3, 1, frozenset()) == frozenset()


def test_string_property(a2):
    ambient = closure(a2, demazure_crystal(a2, (1, 1), a2.longest_word))
    assert len(ambient) == 8
    ok, witness = string_property(a2, ambient.elements, ambient)
    assert ok and witness is None
    # drop the top of a length-two string: the remainder violates
    for i in a2.vertices:
        for x, edge_i, y in edge_triples(ambient):
            if edge_i != i:
                continue
            if e_of(a2, x, i) is None and f_of(a2, y, i) is None:
                bad = set(ambient.elements) - {x}
                bad.discard(next(z for z in ambient.elements if z not in (x, y)))
                ok, witness = string_property(a2, bad, ambient)
                assert not ok
                wit_i, string = witness
                assert sum(1 for z in string if z in bad) not in (0, len(string))
                return
    pytest.fail("no length-two string found in B(w1+w2)")


def test_demazure_crystal(a2):
    lam = (2, 1)
    b = highest_weight_monomial(a2, lam)
    assert demazure_crystal(a2, lam, ()) == {b}
    full = demazure_crystal(a2, lam, a2.longest_word)
    assert character_of_set(a2, full) == irreducible_character(a2, lam)


def test_demazure_crystal_sl2():
    a1 = build_root_datum("A", 1)
    xs = demazure_crystal(a1, (1,), (1,))
    from pmcrystal.weightring import demazure_pi
    assert character_of_set(a1, xs) == demazure_pi(a1, 1, e((1,)))


def test_demazure_placement_independent(a2):
    lam = (1, 2)
    for baseline in (0, 2, -4):
        xs = demazure_crystal(a2, lam, a2.longest_word, baseline=baseline)
        assert character_of_set(a2, xs) == irreducible_character(a2, lam)


def test_tensor_sl2_clebsch_gordan():
    a1 = build_root_datum("A", 1)
    b1 = closure(a1, [y_monomial(a1, 1, 1)])
    assert len(b1) == 2
    t = tensor_crystal(a1, b1, b1)
    assert len(t) == 4
    assert len(highest_weights(t)) == 2
    check_crystal_axioms(t)


def test_tensor_character_multiplicative(a2):
    b1 = closure(a2, [y_monomial(a2, 1, 1)])
    b2 = closure(a2, [y_monomial(a2, 2, 0)])
    t = tensor_crystal(a2, b1, b2)
    assert character_of_set(a2, t.elements) == \
        character_of_set(a2, b1.elements) * character_of_set(a2, b2.elements)


def test_axiom_checker_on_product_crystals(a2, a3):
    from pmcrystal.product import multiset, product_graph
    for datum, r in [(a2, multiset({(1, 1): 2})),
                     (a3, multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1}))]:
        check_crystal_axioms(product_graph(datum, r))


def test_dot_deterministic(a2):
    g = closure(a2, [y_monomial(a2, 1, 1)])
    text = to_dot(g)
    assert text == to_dot(closure(a2, [y_monomial(a2, 1, 1)]))
    assert text.count("->") == 2
    assert 'label="1"' in text and 'label="2"' in text


def test_dot_single_node(a2):
    g = closure(a2, [one(a2)])
    text = to_dot(g)
    assert text.count("->") == 0 and text.count("[label=") == 1


def ref_graph_to_json(graph: CrystalGraph) -> dict:
    """The graph as one dict per node, exponent and edge: the reference the
    text of ``graph_to_json`` must encode."""
    index = {x: k for k, x in enumerate(graph.elements)}
    return {"nodes": [x.to_json() for x in graph.elements],
            "edges": [{"source": index[x], "target": index[y], "i": i}
                      for x, i, y in edge_triples(graph)]}


def ref_to_dot(graph: CrystalGraph) -> str:
    """DOT with every label written by ``element_label``: the reference for
    ``to_dot``."""
    index = {x: k for k, x in enumerate(graph.elements)}
    lines = ["digraph crystal {"]
    for x in graph.elements:
        lines.append(f'  n{index[x]} [label="{element_label(x)}"];')
    for x, i, y in edge_triples(graph):
        lines.append(f'  n{index[x]} -> n{index[y]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


RENDER_DATA = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("E6", 6),
               ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)]


def render_cases(seed):
    """Seeded product crystals over RENDER_DATA, with overlapping and with
    far-apart points, the one-element M(empty set), and monomials with a
    weight and no exponents."""
    from pmcrystal.product import multiset, product_graph
    rng = random.Random(seed)
    for kind, rank in RENDER_DATA:
        datum = build_root_datum(kind, rank)
        for _ in range(3):
            yield product_graph(datum, random_multiset(rng, datum, cap=400))
            r = random_multiset(rng, datum, max_points=2, cap=30)
            yield product_graph(datum, r + r.shifted(10**6))
        yield product_graph(datum, multiset({}))
        yield closure(datum, [make_monomial(random_weight(rng, datum), {})])


def test_renderers_match_references():
    seen = {"far": 0, "empty": 0}
    for g in render_cases(15):
        # edges are sorted triples of positions, which the references read back
        assert g.f_edges == tuple(sorted(g.f_edges))
        assert all(type(k) is type(i) is type(t) is int for k, i, t in g.f_edges)
        assert graph_to_json(g) == json.dumps(ref_graph_to_json(g), indent=2, sort_keys=True)
        assert to_dot(g) == ref_to_dot(g)
        first = g.elements[0]
        seen["far"] += max((c for (_, c), _ in first.exponents), default=0) > 10**5
        seen["empty"] += not first.exponents and not g.f_edges
    assert seen == {"far": 30, "empty": 20}


def test_writers_never_hash_a_monomial(monkeypatch):
    graphs = list(render_cases(17))

    def refuse(self):
        raise AssertionError("a writer hashed a monomial")

    monkeypatch.setattr(Monomial, "__hash__", refuse)
    for g in graphs:
        to_dot(g)
        graph_to_json(g)


def test_single_primitive_closure_is_irreducible(a3):
    import random
    rng = random.Random(27)
    for _ in range(4):
        i = rng.choice(a3.vertices)
        c = a3.parity[i] + 2 * rng.randint(-1, 1)
        n = rng.randint(1, 2)
        g = closure(a3, [y_monomial(a3, i, c, n)])
        from pmcrystal.weightring import weyl_decompose
        lam = tuple(n * x for x in a3.fundamentals[i])
        assert weyl_decompose(a3, character_of_set(a3, g.elements)) == {lam: 1}


def test_demazure_crystal_char_matches_word_on_random_words(a2):
    import random
    from pmcrystal.weightring import apply_word
    rng = random.Random(28)
    for _ in range(10):
        lam = (rng.randint(0, 2), rng.randint(0, 2))
        word = tuple(rng.choice(a2.vertices) for _ in range(rng.randint(0, 4)))
        xs = demazure_crystal(a2, lam, word)
        assert character_of_set(a2, xs) == apply_word(a2, word, e(lam))


def test_character_of_singleton(a2):
    assert character_of_set(a2, [one(a2)]) == e(a2.zero)


def assert_same_graph(got, want):
    assert got.elements == want.elements
    assert edge_triples(got) == edge_triples(want)
    assert got.highest == want.highest


def test_closure_matches_reference_pass():
    from pmcrystal.product import multiset, product_graph
    cases = [("A", 3, {(1, 1): 1, (3, 1): 1, (2, 2): 1}),
             ("D", 4, {(1, 0): 1, (2, 1): 1, (4, 2): 1}),
             ("E6", 6, {(1, 0): 1, (6, 2): 1}),
             ("GL", 4, {(1, 3): 1, (3, 1): 1, (3, 3): 1})]
    for kind, rank, points in cases:
        datum = build_root_datum(kind, rank)
        # fundamental crystals, from their highest element and from all of it
        for (i, c), m in points.items():
            fund = fundamental_crystal(datum, i, c, m)
            assert_same_graph(fund, ref_graph_over(datum, fund.elements))
            assert_same_graph(closure(datum, reversed(fund.elements)), fund)
        # the element set of a product crystal, and its packed pass
        packed = product_graph(datum, multiset(points))
        ref = ref_graph_over(datum, packed.elements)
        assert_same_graph(closure(datum, packed.elements), ref)
        assert_same_graph(packed, ref)
        # a tensor square of the first fundamental crystal
        (i, c), m = next(iter(points.items()))
        fund = fundamental_crystal(datum, i, c, m)
        square = tensor_crystal(datum, fund, fund)
        assert len(square) == len(fund) ** 2


def test_one_element_limit(capsys, monkeypatch, a2):
    # one binding stops the closure, the product fold and the truncation
    from pmcrystal import product
    from pmcrystal.cli import run
    from pmcrystal.product import multiset, product_crystal
    from pmcrystal.truncation import truncate, up_closure
    r = multiset({(1, 1): 1, (2, 0): 1})  # factors of 3 elements, |M(R)| = 8
    j = up_closure(a2, [(1, -9), (2, -10)])  # M(R, J) = M(R)
    assert len(product_crystal(a2, r)) == len(truncate(a2, r, j)) == 8
    monkeypatch.setattr(limits, "MAX_ELEMENTS", 4)
    with pytest.raises(limits.LimitExceeded, match="closure exceeded limit 4") as err:
        closure(a2, [y_monomial(a2, 1, 1, 2)])
    assert err.value.stage == "crystal.closure"
    with pytest.raises(limits.LimitExceeded, match="product crystal exceeded limit 4") as err:
        product_crystal(a2, r)
    assert err.value.stage == "product.fold"
    with pytest.raises(limits.LimitExceeded, match="product crystal exceeded limit 4") as err:
        truncate(a2, r, j)
    assert err.value.stage == "product.fold"
    assert not hasattr(product, "MAX_ELEMENTS")
    assert run(["graph", "--R", "[[1,1,1],[2,0,1]]"]) == 3
    assert '"limit-exceeded"' in capsys.readouterr().out


def test_closure_limit_is_a_limit_exceeded(a2, capsys, monkeypatch):
    from pmcrystal.limits import LimitExceeded
    from pmcrystal.cli import run
    from pmcrystal.product import multiset, product_crystal
    monkeypatch.setattr(limits, "MAX_ELEMENTS", 4)
    with pytest.raises(LimitExceeded) as err:
        closure(a2, [y_monomial(a2, 1, 1, 2)])
    assert type(err.value) is LimitExceeded
    assert (err.value.stage, err.value.limit) == ("crystal.closure", 4)
    assert err.value.reached > 4
    with pytest.raises(LimitExceeded) as err:
        product_crystal(a2, multiset({(1, 1): 1, (2, 0): 1}))
    assert (err.value.stage, err.value.limit, err.value.reached) == ("product.fold", 4, 6)
    assert run(["graph", "--R", "[[1,1,1],[2,0,1]]"]) == 3
    message, detail = json.loads(capsys.readouterr().out)["diagnostics"]
    assert message == "product crystal exceeded limit 4"
    assert detail == {"stage": "product.fold", "limit": 4, "reached": 6}


def test_closure_from_a_lowest_seed(a2):
    # from the lowest element every neighbour is found by an e_i step
    top = closure(a2, [y_monomial(a2, 1, 1, 2)])
    lowest = [x for x in top.elements if all(f_of(a2, x, i) is None for i in a2.vertices)]
    assert len(lowest) == 1 and lowest[0] not in top.highest
    up = closure(a2, lowest)
    assert up.elements == top.elements
    assert up.f_edges == top.f_edges
    assert up.highest == top.highest
