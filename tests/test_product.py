import json
import random
import time

import pytest

from pmcrystal.cartan import build_root_datum, w_add, w_scale, w_sub
from pmcrystal.crystal import highest_weights
from pmcrystal.monomial import Monomial, make_monomial, mono_mul, one, y_monomial
from pmcrystal.product import (NotExpressibleError, PointMultiset, decompose, expand_label,
                               fundamental_keys, multiset, multiset_from_pairs,
                               product_codec, product_crystal, product_graph,
                               s_label, weight_of_multiset, y_of_multiset)
from pmcrystal.truncation import up_closure
from conftest import random_multiset, random_point
from reference import (check_crystal_axioms, down_closure, e_of, edge_triples, f_of,
                       fold_monomials, fundamental_crystal, r_support, sort_key,
                       validate_monomial)


def fundamental(datum, i, c, n):
    """M(i,c)^n as the keys that the library discovers, in the codec of
    R = {(i,c)^n}."""
    return fundamental_keys(product_codec(datum, multiset({(i, c): n})), i, c, n)


def test_fundamental_sizes(a2, a3):
    assert len(fundamental(a2, 1, 1, 1)) == 3
    assert len(fundamental(a2, 1, 1, 0)) == 1
    assert len(fundamental(a3, 2, 0, 1)) == 6  # |B(w2)| = C(4,2)


def test_product_crystal_sl3_small_cases(a2):
    assert len(product_crystal(a2, multiset({}))) == 1
    g = product_crystal(a2, multiset({(1, 1): 2}))
    assert len(g) == 6
    assert highest_weights(g) == (y_monomial(a2, 1, 1, 2),)


def test_product_equals_elementwise_product(a2):
    r = multiset({(1, 1): 1, (2, 0): 1})
    g = product_graph(a2, r)
    f1 = fundamental_crystal(a2, 1, 1, 1).elements
    f2 = fundamental_crystal(a2, 2, 0, 1).elements
    assert set(g.elements) == {mono_mul(p, q) for p in f1 for q in f2}


def test_product_closure_random():
    rng = random.Random(10)
    for kind, rank in [("A", 2), ("A", 3), ("D", 4), ("GL", 4)]:
        datum = build_root_datum(kind, rank)
        for _ in range(4):
            r = random_multiset(rng, datum, max_points=4, max_mult=2, cap=2500)
            g = product_graph(datum, r)  # graph_over asserts e/f closure
            check_crystal_axioms(g)


def test_product_crystal_fold_limit(a3, monkeypatch):
    from pmcrystal import limits
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    size = len(product_crystal(a3, r))
    monkeypatch.setattr(limits, "MAX_ELEMENTS", size - 1)
    with pytest.raises(limits.LimitExceeded) as err:
        product_crystal(a3, r)
    assert err.value.stage == "product.fold"
    monkeypatch.setattr(limits, "MAX_ELEMENTS", size)
    assert len(product_crystal(a3, r)) == size


WALK_DATA = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5),
             ("D", 6), ("E6", 6), ("E7", 7), ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)]


def test_product_crystal_walks_to_the_graphs_highest_weights():
    # product_crystal decodes only the keys the walk finds highest; the
    # graph of the same fold has the same elements and highest weights
    rng = random.Random(29)
    far = 0
    for kind, rank in WALK_DATA:
        datum = build_root_datum(kind, rank)
        near, apart = (8000, 56) if kind == "E7" else (1500, 40)
        cases = [random_multiset(rng, datum, cap=near) for _ in range(2)]
        r = random_multiset(rng, datum, max_points=2, cap=apart)
        cases.append(r + r.shifted(10**6))
        for r in cases:
            packed, graph = product_crystal(datum, r), product_graph(datum, r)
            assert packed.highest == graph.highest
            assert len(packed) == len(graph) == len(packed.elements)
            assert sorted(map(packed.codec.decode, packed.elements)) == [
                (x.weight, x.exponents) for x in graph.elements]
            levels = [c for (_, c), _ in r.points]
            far += max(levels) - min(levels) > 10**5
    assert far == len(WALK_DATA)


def assert_matches_naive_fold(datum, r):
    """product_graph(datum, r) against a mono_mul fold, with every f_i/e_i
    taken by f_of/e_of."""
    naive = {one(datum)}
    for (i, c), m in r.points:
        factor = fundamental_crystal(datum, i, c, m).elements
        naive = {mono_mul(p, q) for p in naive for q in factor}
    elements = tuple(sorted(naive, key=sort_key))
    downs = [(x, i, f_of(datum, x, i)) for x in elements for i in datum.vertices]
    ups = {x: [e_of(datum, x, i) for i in datum.vertices] for x in elements}
    assert all(y in naive for _, _, y in downs if y is not None)
    assert all(y in naive for ys in ups.values() for y in ys if y is not None)
    g = product_graph(datum, r)
    assert g.elements == elements
    assert edge_triples(g) == tuple(t for t in downs if t[2] is not None)
    assert highest_weights(g) == tuple(
        x for x in elements if all(y is None for y in ups[x]))


def test_packed_product_matches_naive_fold():
    rng = random.Random(33)
    cases = [(build_root_datum("E6", 6), multiset({(1, 0): 1, (6, 2): 1}))]
    for kind, rank in [("A", 3), ("D", 4), ("E6", 6), ("GL", 4)]:
        datum = build_root_datum(kind, rank)
        cases += [(datum, random_multiset(rng, datum, max_points=4, max_mult=2, cap=3000))
                  for _ in range(5)]
    for datum, r in cases:
        assert_matches_naive_fold(datum, r)


def test_fold_keeps_products_that_differ_only_in_weight(gl3):
    # a and a * det have the same exponents, so the factors share no
    # weight invariant; each product keeps its own weight
    a = make_monomial((1, 0, 0), {(1, 1): 1})
    c = make_monomial((1, 1, 0), {(2, 0): 1})
    det = (1,) * gl3.rank
    codec, keys = fold_monomials(gl3, [[a, Monomial(w_add(a.weight, det), a.exponents)],
                                       [c]])
    exponents = (((1, 1), 1), ((2, 0), 1))
    assert sorted(map(codec.decode, keys)) == [((2, 1, 0), exponents), ((3, 2, 1), exponents)]


def test_fold_with_an_empty_factor_is_empty(a2):
    # an empty factor adds nothing to either bound, and leaves no product
    codec, keys = fold_monomials(a2, [[y_monomial(a2, 1, 1)], []])
    assert keys == set() and codec.bound == 1


def test_fold_weight_digits_at_every_width(gl3):
    # no exponents: the weight alone sets the digit width, and k crosses
    # the widths of half = 4, 8, ..., 128
    for k in range(-69, 70):
        codec, keys = fold_monomials(gl3, [[Monomial((k, k, k), ())],
                                           [Monomial((0, 0, 0), ())]])
        assert [codec.decode(key) for key in keys] == [((k, k, k), ())]


def test_product_crystal_far_apart_points(a2):
    # the packed window holds only the factors' supports, so its size does
    # not grow with the distance between the points
    r = multiset({(1, 1): 1, (1, 10**6 + 1): 1, (2, -10**6): 1})
    start = time.perf_counter()
    assert len(product_crystal(a2, r)) == 27
    assert time.perf_counter() - start < 2.0
    assert_matches_naive_fold(a2, r)


def test_product_rejects_parity_violation(a2):
    with pytest.raises(ValueError):
        product_crystal(a2, PointMultiset((((1, 0), 1),)))


def test_s_label_of_trivial_monomial(a3):
    r = multiset({(1, 1): 1, (3, 5): 1})
    s = s_label(a3, r, one(a3))
    assert dict(s.points) == {(1, 1): 1, (2, 2): 1, (3, 3): 1}
    assert r_support(a3, r, one(a3)) == {(1, 1), (2, 2), (3, 3), (3, 5)}


def test_s_label_trivial(a3):
    r = multiset({(1, 3): 1, (3, 1): 1})
    y = y_of_multiset(a3, r)
    assert s_label(a3, r, y).is_empty()
    assert r_support(a3, r, y) == set(r.support())


def test_s_label_tracks_f_steps(a3):
    rng = random.Random(11)
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    g = product_graph(a3, r)
    for _ in range(30):
        p = rng.choice(g.elements)
        i = rng.choice(a3.vertices)
        q = f_of(a3, p, i)
        if q is None:
            continue
        before = dict(s_label(a3, r, p).points)
        after = dict(s_label(a3, r, q).points)
        gained = {pt: after.get(pt, 0) - before.get(pt, 0)
                  for pt in set(before) | set(after)}
        gained = {pt: v for pt, v in gained.items() if v}
        assert len(gained) == 1 and set(gained.values()) == {1}
        assert next(iter(gained))[0] == i


def test_s_label_bijective_on_crystal(a2):
    r = multiset({(1, 1): 2, (2, 0): 1})
    g = product_graph(a2, r)
    labels = {s_label(a2, r, p) for p in g.elements}
    assert len(labels) == len(g)
    for p in g.elements:
        assert expand_label(a2, r, s_label(a2, r, p)) == p


def test_s_label_rejects_foreign_monomials(a2):
    r = multiset({(1, 1): 1})
    with pytest.raises(NotExpressibleError):
        s_label(a2, r, y_monomial(a2, 2, 0))
    with pytest.raises(NotExpressibleError):
        s_label(a2, r, y_monomial(a2, 1, 3))


LABEL_DATA = [("A", 3), ("D", 4), ("E6", 6), ("GL", 4)]


def random_label(rng, datum, anchors):
    """A random nonnegative S whose points lie a few levels from an anchor
    (anchors are even, so the points keep their parity)."""
    out = {}
    for _ in range(rng.randint(0, 5)):
        i, c = random_point(rng, datum, -3, 2)
        pt = (i, c + rng.choice(anchors))
        out[pt] = out.get(pt, 0) + rng.randint(1, 2)
    return multiset(out)


def label_cases(seed, far=True):
    """Seeded (datum, R, S) triples over LABEL_DATA; with ``far``, each
    datum also gets an R whose points lie 10**6 levels apart, with S near
    both groups."""
    rng = random.Random(seed)
    for kind, rank in LABEL_DATA:
        datum = build_root_datum(kind, rank)
        for _ in range(8):
            yield datum, random_multiset(rng, datum), random_label(rng, datum, [0])
        if far:
            r = random_multiset(rng, datum)
            yield (datum, r + r.shifted(10**6),
                   random_label(rng, datum, [0, 10**6]))


def test_s_label_round_trip():
    seen_far = seen_nonempty = 0
    for datum, r, s in label_cases(41):
        assert s_label(datum, r, expand_label(datum, r, s)) == s
        seen_far += max(c for (_, c) in r.support()) >= 10**6
        seen_nonempty += not s.is_empty()
    assert seen_far == len(LABEL_DATA) and seen_nonempty > 20


def perturbations(rng, datum, r, p):
    """Monomials near p = y_R z_S^{-1} that are not of that form."""
    exps = dict(p.exponents)
    pt = rng.choice(sorted(set(exps) | set(r.support())))
    for d in (1, -1):
        moved = dict(exps)
        moved[pt] = moved.get(pt, 0) + d
        q = Monomial(p.weight, tuple(sorted((k, v) for k, v in moved.items() if v)))
        with pytest.raises(ValueError):
            validate_monomial(datum, q)
        yield q
    # weights off the root lattice: a fundamental weight added alone, and
    # with its y-variable (a valid monomial)
    i, c = random_point(rng, datum)
    yield Monomial(w_add(p.weight, datum.fundamentals[i]), p.exponents)
    yield mono_mul(p, y_monomial(datum, i, c))
    if datum.kind == "GL":
        yield Monomial(w_add(p.weight, (1,) * datum.rank), p.exponents)


def test_s_label_rejects_perturbed_labels():
    rng = random.Random(43)
    rejected = 0
    for datum, r, s in label_cases(42, far=False):
        p = expand_label(datum, r, s)
        for q in perturbations(rng, datum, r, p):
            with pytest.raises(NotExpressibleError):
                s_label(datum, r, q)
            rejected += 1
        if not p.is_one():
            with pytest.raises(NotExpressibleError):
                s_label(datum, multiset({}), p)
            rejected += 1
    assert rejected >= 4 * 8 * len(LABEL_DATA)


def test_s_label_empty_r(a3, gl4):
    assert s_label(a3, multiset({}), one(a3)).is_empty()
    for datum in (a3, gl4):
        for w in (datum.alphas[1], w_scale(-1, datum.alphas[1]), datum.fundamentals[1]):
            with pytest.raises(NotExpressibleError):
                s_label(datum, multiset({}), Monomial(w, ()))
    with pytest.raises(NotExpressibleError):
        s_label(gl4, multiset({}), Monomial((1,) * gl4.rank, ()))


def test_s_label_budget_bounds_the_sweep(a3):
    r = multiset({(1, 1): 1, (3, 1): 1})
    wt_r = weight_of_multiset(a3, r)
    # height(wt R - wt p) = 0, but the exponents force S[1,1] = 3
    with pytest.raises(NotExpressibleError, match="exceeds"):
        s_label(a3, r, Monomial(wt_r, (((1, 3), -3), ((3, 1), 1))))
    # a budget of 6 * 10**6, and exponents that no S explains
    huge = w_scale(10**6, w_add(w_add(a3.alphas[1], a3.alphas[2]), a3.alphas[3]))
    start = time.perf_counter()
    for exps in ((((1, 3), -3),), (((2, -4), 5), ((3, 1), -1)), (((1, 1), 2),)):
        with pytest.raises(NotExpressibleError):
            s_label(a3, r, Monomial(w_sub(wt_r, huge), exps))
    assert time.perf_counter() - start < 2.0


def ref_s_label(datum, r, p):
    """The descending level sweep s_label used before the peel, kept as a
    reference: S[i,c] from the exponent relation at level c+2, every grid
    level from the highest support down to two below the lowest."""
    budget = datum.height(w_sub(weight_of_multiset(datum, r), p.weight))
    cost = {i: datum.height(datum.alphas[i]) for i in datum.vertices}
    rd = {pt: m for pt, m in r.points}
    pd = {pt: ex for pt, ex in p.exponents}
    support_levels = [c for (_, c) in rd] + [c for (_, c) in pd]
    s = {}
    min_seen = min(support_levels, default=0)
    c = max(support_levels, default=0)
    while c >= min_seen - 2:
        for i in datum.vertices:
            if datum.parity[i] != c % 2:
                continue
            val = (rd.get((i, c + 2), 0) - pd.get((i, c + 2), 0)
                   - s.get((i, c + 2), 0)
                   + sum(s.get((j, c + 1), 0) for j in datum.neighbours[i]))
            if val < 0:
                raise NotExpressibleError(f"negative S entry at ({i},{c})")
            if val:
                budget -= val * cost[i]
                if budget < 0:
                    raise NotExpressibleError("S exceeds height(wt R - wt p)")
                s[(i, c)] = val
                min_seen = min(min_seen, c)
        c -= 1
    out = multiset(s)
    if expand_label(datum, r, out) != p:
        raise NotExpressibleError("re-expansion mismatch")
    return out


def label_or_error(datum, r, p, label):
    try:
        return label(datum, r, p)
    except NotExpressibleError:
        return NotExpressibleError


def test_peel_matches_reference_sweep():
    rng = random.Random(44)
    outcomes = {"label": 0, "error": 0}
    for kind, rank in [("A", 1), ("A", 3), ("D", 4), ("E6", 6), ("GL", 4)]:
        datum = build_root_datum(kind, rank)
        for _ in range(25):
            r = random_multiset(rng, datum)
            label = random_label(rng, datum, [0])
            p = expand_label(datum, r, label)
            # y_R z_S^{-1} with one point of S moved off the parity grid
            i, c = random_point(rng, datum)
            near = [p, expand_label(datum, r, label + multiset({(i, c + 1): 1}))]
            for _ in range(3):
                # an exponent moved by +-1, at a point within three levels
                # of the support (off the parity grid for odd shifts)
                i, c = rng.choice(sorted(set(p.support()) | set(r.support())))
                pt = (rng.choice(datum.vertices), c + rng.randint(-3, 3))
                exps = dict(p.exponents)
                exps[pt] = exps.get(pt, 0) + rng.choice([-1, 1])
                near.append(Monomial(p.weight, tuple(sorted(
                    (q, v) for q, v in exps.items() if v))))
                # one weight coordinate moved by +-1
                w = list(p.weight)
                w[rng.randrange(len(w))] += rng.choice([-1, 1])
                near.append(Monomial(tuple(w), p.exponents))
            for q in near:
                got = label_or_error(datum, r, q, s_label)
                assert got == label_or_error(datum, r, q, ref_s_label), (datum, r, q)
                outcomes["error" if got is NotExpressibleError else "label"] += 1
    assert outcomes["label"] >= 125 and outcomes["error"] >= 500


def test_s_label_cost_ignores_distance(a3):
    # with the level sweep, every element cost seconds at a gap of 10**6
    from pmcrystal.truncation import truncate
    counts = []
    for gap in (10**6, 10**8):
        r = multiset({(1, 1): 1, (1, gap + 1): 1, (2, 0): 2})
        start = time.perf_counter()
        counts.append(len(truncate(a3, r, up_closure(a3, r.support()))))
        assert time.perf_counter() - start < 1.0
    assert counts[0] == counts[1] > 0


def test_fundamental_support_bound(a3):
    for (i, c, n) in [(1, 1, 2), (2, 0, 1), (3, 3, 2)]:
        r = multiset({(i, c): n})
        down = down_closure(a3, [(i, c - 2)])
        for p in fundamental_crystal(a3, i, c, n).elements:
            s = s_label(a3, r, p)
            assert all(down.contains(j, k) for (j, k) in s.support())


def test_minimal_support_raising(a3):
    # if (i,k) is minimal in Supp_R(p) and not in Supp R, the top of the
    # i-string drops it from the support
    from reference import eps_of
    r = multiset({(1, 3): 1, (3, 3): 2})
    g = product_graph(a3, r)
    checked = 0
    for p in g.elements:
        supp = r_support(a3, r, p)
        for (i, k) in supp:
            if (i, k) in r.support():
                continue
            below = any((j, l) != (i, k) and k - l >= a3.dist[j, i]
                        for (j, l) in supp)
            if below:
                continue
            n = eps_of(a3, p, i)
            assert n > 0
            q = p
            for _ in range(n):
                q = e_of(a3, q, i)
            assert (i, k) not in r_support(a3, r, q)
            checked += 1
    assert checked > 0


def test_highest_weight_support_in_up_closure(a3):
    rng = random.Random(13)
    for _ in range(5):
        r = random_multiset(rng, a3)
        g = product_crystal(a3, r)
        j = up_closure(a3, r.support())
        for p in highest_weights(g):
            assert j.contains_all(r_support(a3, r, p))


def test_decompose_trichotomy_example(a3):
    assert decompose(a3, multiset({(2, 2): 2})) == {(0, 2, 0): 1}
    two = decompose(a3, multiset({(2, 0): 1, (2, 2): 1}))
    assert two == {(0, 2, 0): 1, (1, 0, 1): 1}


def test_decompose_compute_truncation_example(a3):
    r = multiset_from_pairs([[1, 3, 1], [3, 1, 1], [3, 3, 1]])
    assert decompose(a3, r) == {(1, 0, 2): 1, (1, 1, 0): 1}


def test_multiset_entries():
    # a negative multiplicity is refused and a zero one dropped, an [i, c]
    # entry counts once, and a shift must keep parity
    with pytest.raises(ValueError, match="negative multiplicity"):
        multiset({(1, 1): -1})
    assert multiset({(1, 1): 0, (3, 3): 2}).points == (((3, 3), 2),)
    assert multiset_from_pairs([[1, 3], [1, 3, 1]]) == multiset({(1, 3): 2})
    with pytest.raises(ValueError, match="even"):
        multiset({(1, 1): 1}).shifted(1)
    assert multiset({}).max_vertex() == 0


def test_multiset_json(a3):
    r = multiset_from_pairs([[1, 3, 1], [3, 1, 2]])
    assert r.to_json() == [[1, 3, 1], [3, 1, 2]]
    assert weight_of_multiset(a3, r) == (1, 0, 2)


def test_fundamental_sizes_exceptional_types():
    # dimension checks across the supported kinds: D_4, D_5 and E_6 vectors
    d4 = build_root_datum("D", 4)
    assert len(fundamental(d4, 1, d4.parity[1], 1)) == 8
    d5 = build_root_datum("D", 5)
    assert len(fundamental(d5, 1, d5.parity[1], 1)) == 10
    e6 = build_root_datum("E6", 6)
    assert len(fundamental(e6, 1, e6.parity[1], 1)) == 27
    assert len(fundamental(e6, 1, e6.parity[1], 1)) == \
        e6.weyl_dimension(e6.fundamentals[1])


def test_truncation_elements_are_the_primitives(a3):
    from pmcrystal.truncation import truncate, up_closure
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    g = product_crystal(a3, r)
    trunc = truncate(a3, r, up_closure(a3, r.support()))
    assert set(highest_weights(g)) == set(trunc)


def test_route_disagreement_carries_the_diff(a3, capsys, monkeypatch):
    from pmcrystal import weightring
    from pmcrystal.cli import run
    from pmcrystal.product import ConsistencyError
    real = weightring.straighten

    def skewed(datum, f):  # one weight added, one raised, one dropped
        return (real(datum, f) + weightring.e((1, 0, 2)) + weightring.e((0, 0, 0), 2)
                - weightring.e((1, 1, 0)))
    monkeypatch.setattr(weightring, "straighten", skewed)
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    with pytest.raises(ConsistencyError) as err:
        decompose(a3, r)
    assert err.value.diff == {(0, 0, 0): (0, 2), (1, 0, 2): (1, 2), (1, 1, 0): (1, 0)}
    assert run(["decompose", "--cartan", "A", "--rank", "3",
                "--R", "[[1,3,1],[3,1,1],[3,3,1]]"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "internal-inconsistency" and data["result"] is None
    message, detail = data["diagnostics"]
    assert "(1,0,2): enumeration 1, character 2" in message
    assert detail == {"diff": {"(0,0,0)": [0, 2], "(1,0,2)": [1, 2], "(1,1,0)": [1, 0]}}


def test_decompose_never_builds_the_full_character(a3, monkeypatch):
    # a Demazure step of pi_{w_o} on the plan fold reaches 23 terms here;
    # the straightening reads 2 highest weights off its 2 terms
    from pmcrystal import limits
    monkeypatch.setattr(limits, "MAX_TERMS", 20)
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    assert decompose(a3, r) == {(1, 0, 2): 1, (1, 1, 0): 1}


def test_fundamental_crystal_size_is_weyl_dimension():
    # M(i,c)^n is a copy of B(n w_i), so its closure has dim V(n w_i) elements
    rng = random.Random(19)
    for kind, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("E6", 6),
                       ("GL", 3), ("GL", 4), ("GL", 5)]:
        datum = build_root_datum(kind, rank)
        done = 0
        while done < 3:
            i, n = rng.choice(datum.vertices), rng.randint(1, 3)
            dim = datum.weyl_dimension(w_scale(n, datum.fundamentals[i]))
            if dim > 3000:   # redrawn, to keep the closures small
                continue
            c = datum.parity[i] + 2 * rng.randint(-2, 2)
            assert len(fundamental(datum, i, c, n)) == dim
            done += 1


def test_oversized_fundamental_crystal_is_refused_before_its_closure(a2, monkeypatch):
    from pmcrystal import limits, product
    monkeypatch.setattr(limits, "MAX_ELEMENTS", 10)
    assert len(fundamental(a2, 1, 1, 3)) == 10   # at the limit
    monkeypatch.setattr(limits, "MAX_ELEMENTS", 9)
    assert len(fundamental(a2, 1, 1, 2)) == 6
    monkeypatch.setattr(product, "discover", lambda *args: pytest.fail("discovery ran"))
    with pytest.raises(limits.LimitExceeded) as err:
        fundamental(a2, 1, 1, 3)   # dim V(3 w_1) = 10
    assert (err.value.stage, err.value.limit, err.value.reached) == ("crystal.closure", 9, 10)
    assert str(err.value) == "closure exceeded limit 9"
    with pytest.raises(ValueError, match="parity"):   # the point is checked first
        fundamental(a2, 1, 2, 3)
