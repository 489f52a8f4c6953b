import random

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.crystal import (TensorElement, character_of_set, e_of,
                               extend_strings, highest_weight_monomial,
                               string_property, wt_of)
from pmcrystal.monomial import mono_div, mono_mul, one
from pmcrystal.product import (fundamental_crystal, multiset, product_crystal,
                               r_support, y_of_multiset)
from pmcrystal.truncation import (ThresholdSet, boundary, build_plan,
                                  char_by_plan, down_closure, full_character,
                                  replay_plan, truncate, truncation_character,
                                  up_closure, validate_threshold_set)
from pmcrystal.weightring import (GroupAlgebraElement, demazure_pi, e,
                                  key_decompose, weyl_decompose)
from conftest import random_multiset


def test_up_closure_examples(a3):
    assert up_closure(a3, [(2, 2)]).thresholds == (3, 2, 3)
    assert up_closure(a3, []).thresholds == (None, None, None)
    # complement of down({(1,-1)}) has thresholds 2 - j
    comp = ThresholdSet(tuple(2 - j for j in range(1, 4)))
    validate_threshold_set(a3, comp)
    down = down_closure(a3, [(1, -1)])
    for i in a3.vertices:
        t = comp.threshold(i)
        assert not down.contains(i, t) and down.contains(i, t - 2)


def test_boundary(a3):
    j = up_closure(a3, [(2, 2)])
    assert boundary(a3, j) == {(1, 3), (2, 2), (3, 3)}
    shifted = ThresholdSet(tuple(t + 2 for t in j.thresholds))
    assert boundary(a3, shifted) == {(1, 5), (2, 4), (3, 5)}
    with pytest.raises(ValueError):
        boundary(a3, up_closure(a3, []))


def test_boundary_count_is_vertex_count():
    a5 = build_root_datum("A", 5)
    j = up_closure(a5, [(1, 1), (4, 2)])
    assert len(boundary(a5, j)) == 5


def test_truncate_sl4_three_point_multiset(a3):
    r1 = multiset({(1, 3): 1, (3, 3): 1})
    j0 = up_closure(a3, [(2, 2)])
    assert truncate(a3, r1, j0) == (y_of_multiset(a3, r1),)

    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    j2 = up_closure(a3, [(3, 1)])
    got = set(truncate(a3, r, j2))
    y_r = y_of_multiset(a3, r)
    from pmcrystal.monomial import mono_pow, z_monomial
    assert got == {y_r, mono_mul(y_r, mono_pow(z_monomial(a3, 3, 1), -1))}


def test_truncate_everything(a2):
    r = multiset({(1, 1): 2})
    g = product_crystal(a2, r)
    j = ThresholdSet(tuple(t - 20 for t in up_closure(a2, r.support()).thresholds))
    assert set(truncate(a2, r, j)) == set(g.elements)


# (kind, rank, {(i, k): m}) for the point (i, parity(i) + 2k): overlapping
# points, points of multiplicity 2, and far-apart points
ORACLE_CASES = [
    ("A", 3, {(1, 0): 1, (3, 0): 1}),
    ("A", 3, {(2, 0): 2, (1, 1): 1}),
    ("A", 3, {(1, 0): 1, (3, 20): 1}),
    ("D", 4, {(1, 0): 1, (2, 0): 1}),
    ("D", 4, {(3, 0): 2, (4, 0): 1}),
    ("D", 4, {(1, 0): 1, (4, 15): 1}),
    ("E6", 6, {(1, 0): 2}),
    ("E6", 6, {(1, 0): 1, (1, 1): 1}),
    ("E6", 6, {(1, 0): 1, (6, 10): 1}),
    ("GL", 4, {(1, 0): 2, (2, 0): 1}),
    ("GL", 4, {(1, 0): 1, (3, 0): 1, (2, 1): 1}),
    ("GL", 4, {(1, 0): 1, (3, 12): 2}),
]


def test_truncate_is_the_filtered_product_crystal(monkeypatch):
    # the definition: the elements of M(R) whose R-support lies in J, in
    # element order; truncate labels only elements of the fundamental factors
    from pmcrystal import product
    labelled = []
    real_s_label = product.s_label

    def recording_s_label(datum, r, p):
        labelled.append(p)
        return real_s_label(datum, r, p)
    monkeypatch.setattr(product, "s_label", recording_s_label)
    rng = random.Random(21)
    for kind, rank, levels in ORACLE_CASES:
        datum = build_root_datum(kind, rank)
        r = multiset({(i, datum.parity[i] + 2 * k): m for (i, k), m in levels.items()})
        graph = product_crystal(datum, r)
        factor_elements = [fundamental_crystal(datum, i, c, m).elements
                           for (i, c), m in r.points]
        # up(Supp R), then widened by one and by two lower points
        js = [up_closure(datum, r.support())]
        lowest = min(k for _, k in levels)
        extra = list(r.support())
        for _ in range(2):
            i = rng.choice(datum.vertices)
            extra.append((i, datum.parity[i] + 2 * (lowest - rng.randint(1, 5))))
            js.append(up_closure(datum, extra))
        for j in js:
            expected = tuple(p for p in graph.elements
                             if j.contains_all(r_support(datum, r, p)))
            labelled.clear()
            assert truncate(datum, r, j) == expected
            assert len(labelled) == sum(map(len, factor_elements))
            assert set(labelled) <= set().union(*factor_elements)
        if len(r.points) > 1:
            assert len(labelled) < len(graph.elements)


def test_truncate_requires_containment(a2):
    with pytest.raises(ValueError):
        truncate(a2, multiset({(1, 1): 1}), up_closure(a2, [(1, 3)]))


def test_build_plan_sl4_three_point_multiset(a3):
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    plan = build_plan(a3, r)
    kinds = [(k, p if k == "extend" else tuple(p.points)) for k, p in plan.steps]
    # the closing moves: extend to (3,1), then multiply the multiplicity there
    assert ("multiply", (((3, 1), 1),)) == kinds[-1]
    assert ("extend", (3, 1)) == kinds[-2]
    replay = replay_plan(a3, plan)
    assert set(replay) == set(truncate(a3, r, up_closure(a3, r.support())))


def test_build_plan_empty(a3):
    plan = build_plan(a3, multiset({}))
    assert plan.steps == ()
    assert char_by_plan(a3, plan) == GroupAlgebraElement.unit(a3)
    assert replay_plan(a3, plan) == {one(a3)}


def test_char_by_plan_sl4_three_point_multiset(a3):
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    ch = char_by_plan(a3, build_plan(a3, r))
    assert ch == e((1, 0, 2)) + e((1, 1, 0))


def test_plan_replay_matches_filter_random():
    rng = random.Random(14)
    for kind, rank in [("A", 2), ("A", 3), ("GL", 3)]:
        datum = build_root_datum(kind, rank)
        for _ in range(4):
            r = random_multiset(rng, datum)
            plan = build_plan(datum, r)
            filtered = set(truncate(datum, r, up_closure(datum, r.support())))
            assert set(replay_plan(datum, plan)) == filtered
            assert char_by_plan(datum, plan) == character_of_set(datum, filtered)


def test_full_character_examples(a3):
    assert full_character(a3, multiset({})) == GroupAlgebraElement.unit(a3)
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    assert weyl_decompose(a3, full_character(a3, r)) == {(1, 0, 2): 1, (1, 1, 0): 1}


def test_full_character_matches_crystal_random():
    rng = random.Random(15)
    for kind, rank in [("A", 2), ("D", 4)]:
        datum = build_root_datum(kind, rank)
        for _ in range(3):
            r = random_multiset(rng, datum, max_points=2, cap=900)
            assert full_character(datum, r) == \
                character_of_set(datum, product_crystal(datum, r).elements)


def _random_containing_up_set(rng, datum, r):
    extra = [r.support()[k] for k in range(len(r.support()))]
    for _ in range(rng.randint(0, 2)):
        i = rng.choice(datum.vertices)
        c = datum.parity[i] + 2 * rng.randint(-3, 1)
        extra.append((i, c))
    return up_closure(datum, extra)


def test_extension_lemma_random():
    rng = random.Random(16)
    for kind, rank in [("A", 2), ("A", 3)]:
        datum = build_root_datum(kind, rank)
        for _ in range(5):
            r = random_multiset(rng, datum, max_points=2, cap=400)
            j = _random_containing_up_set(rng, datum, r)
            # find a vertex whose threshold can drop by 2 keeping upward closure
            for i in datum.vertices:
                k = j.threshold(i) - 2
                if all(j.threshold(v) <= k + 1 for v in datum.neighbours[i]):
                    j_bigger = j.with_point(i, k)
                    validate_threshold_set(datum, j_bigger)
                    lhs = set(truncate(datum, r, j_bigger))
                    rhs = set(extend_strings(datum, i, truncate(datum, r, j)))
                    assert lhs == rhs
                    break


def test_factorisation_lemma_random():
    rng = random.Random(17)
    for kind, rank in [("A", 3), ("D", 4)]:
        datum = build_root_datum(kind, rank)
        for _ in range(4):
            r = random_multiset(rng, datum, max_points=2, cap=120)
            j = _random_containing_up_set(rng, datum, r)
            q_pts = rng.sample(sorted(boundary(datum, j)), 1)
            q = multiset({pt: rng.randint(1, 2) for pt in q_pts})
            y_q = y_of_multiset(datum, q)
            lhs = set(truncate(datum, r + q, j))
            rhs = {mono_mul(y_q, p) for p in truncate(datum, r, j)}
            assert lhs == rhs


def test_truncations_have_string_property_and_commute():
    rng = random.Random(18)
    for kind, rank in [("A", 2), ("A", 3)]:
        datum = build_root_datum(kind, rank)
        for _ in range(4):
            r = random_multiset(rng, datum, max_points=2, cap=900)
            g = product_crystal(datum, r)
            j = _random_containing_up_set(rng, datum, r)
            xs = truncate(datum, r, j)
            ok, witness = string_property(datum, xs, g)
            assert ok, witness
            for i in datum.vertices:
                assert character_of_set(datum, extend_strings(datum, i, xs)) == \
                    demazure_pi(datum, i, character_of_set(datum, xs))


def test_truncation_characters_are_key_positive():
    rng = random.Random(19)
    for kind, rank in [("A", 2), ("GL", 3)]:
        datum = build_root_datum(kind, rank)
        for _ in range(4):
            r = random_multiset(rng, datum, max_points=2, cap=900)
            dec = key_decompose(datum, truncation_character(datum, r))
            assert all(c > 0 for c in dec.values())


def test_tensor_embedding_lemma():
    # Phi: M(R+Q, J) -> {b_mu} (x) M(R, J), p -> b_mu (x) p / y_Q commutes
    # with every raising operator
    rng = random.Random(20)
    datum = build_root_datum("A", 2)
    for _ in range(4):
        r = random_multiset(rng, datum, max_points=2, cap=200)
        j = _random_containing_up_set(rng, datum, r)
        q_pts = rng.sample(sorted(boundary(datum, j)), rng.randint(1, 2))
        q = multiset({pt: 1 for pt in q_pts})
        mu = sum((datum.fundamentals[i] for (i, _), m in q.points
                  for _ in range(m)), start=datum.zero)
        from pmcrystal.product import weight_of_multiset
        mu = weight_of_multiset(datum, q)
        b_mu = highest_weight_monomial(datum, mu)
        y_q = y_of_multiset(datum, q)
        big = truncate(datum, r + q, j)
        small = set(truncate(datum, r, j))
        image = {}
        for p in big:
            phi_p = TensorElement(b_mu, mono_div(p, y_q))
            assert mono_div(p, y_q) in small
            assert wt_of(datum, phi_p) == p.weight
            image[p] = phi_p
        assert len(set(image.values())) == len(big)
        for p in big:
            for i in datum.vertices:
                up = e_of(datum, p, i)
                phi_up = e_of(datum, image[p], i)
                if up is None:
                    assert phi_up is None
                else:
                    assert phi_up == image[up]
