import json
import random
import time

import pytest

from pmcrystal import crystal, limits, product, truncation
from pmcrystal.cartan import build_root_datum
from pmcrystal.limits import LimitExceeded
from pmcrystal.cli import run
from pmcrystal.monomial import mono_mul, one
from pmcrystal.product import (decompose, multiset, product_graph, weight_of_multiset,
                               y_of_multiset)
from pmcrystal.truncation import (ThresholdSet, build_plan, char_by_plan,
                                  down_closure, full_character, truncate,
                                  truncation_character, up_closure,
                                  validate_threshold_set)
from pmcrystal.weightring import GroupAlgebraElement, demazure_pi, e, weyl_decompose
from conftest import random_multiset, refuse_everywhere
from reference import (TensorElement, boundary, character_of_set, e_of, extend_strings,
                       highest_weight_monomial, key_decompose, mono_div, r_support,
                       replay_plan, string_property, with_point, wt_of)


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
    from reference import mono_pow, z_monomial
    assert got == {y_r, mono_mul(y_r, mono_pow(z_monomial(a3, 3, 1), -1))}


def test_truncate_everything(a2):
    r = multiset({(1, 1): 2})
    g = product_graph(a2, r)
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


def widened_js(rng, datum, r):
    """up(Supp R), then widened by one and by two lower points."""
    js = [up_closure(datum, r.support())]
    lowest = min((c - datum.parity[i]) // 2 for i, c in r.support())
    extra = list(r.support())
    for _ in range(2):
        i = rng.choice(datum.vertices)
        extra.append((i, datum.parity[i] + 2 * (lowest - rng.randint(1, 5))))
        js.append(up_closure(datum, extra))
    return js


def test_truncate_is_the_filtered_product_crystal(monkeypatch):
    # the definition: the elements of M(R) whose R-support lies in J, in
    # element order; truncate filters the fundamental factors by support,
    # so it labels no element and never builds M(R)
    rng = random.Random(21)
    cases = []
    for kind, rank, levels in ORACLE_CASES:
        datum = build_root_datum(kind, rank)
        r = multiset({(i, datum.parity[i] + 2 * k): m for (i, k), m in levels.items()})
        graph = product_graph(datum, r)
        for j in widened_js(rng, datum, r):
            cases.append((datum, r, j, tuple(p for p in graph.elements
                                             if j.contains_all(r_support(datum, r, p)))))
    refuse_everywhere(monkeypatch, product, ("s_label", "product_graph", "product_crystal"))
    refuse_everywhere(monkeypatch, crystal, ("graph_over", "walk"))
    for datum, r, j, expected in cases:
        assert truncate(datum, r, j) == expected


@pytest.mark.parametrize("kind, rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("D", 6),
    ("E6", 6), ("E7", 7), ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)])
def test_support_in_j_is_r_support_in_j(kind, rank):
    # for an upward-closed J holding Supp R, Supp_R(p) lies in J iff Supp p
    # does: the condition truncate filters by, element by element on M(R)
    datum = build_root_datum(kind, rank)
    rng = random.Random(f"{kind}{rank}")
    verdicts = set()
    for _ in range(3):
        r = random_multiset(rng, datum, cap=1500)
        graph = product_graph(datum, r)
        for j in widened_js(rng, datum, r):
            for p in graph.elements:
                verdict = j.contains_all(r_support(datum, r, p))
                assert verdict == j.contains_all(p.support()), (r, j, p)
                verdicts.add(verdict)
    assert verdicts == {True, False}


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
                character_of_set(datum, product_graph(datum, r).elements)


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
                    j_bigger = with_point(j, i, k)
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
            g = product_graph(datum, r)
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


# -- the plan walk against the listing it replaced ---------------------------

def ref_plan_steps(datum, r, j_target=None):
    """(start, steps) by listing every window point, sorting the list by
    (-level, vertex) and checking that each prefix is upward-closed."""
    if j_target is None:
        j_target = up_closure(datum, r.support())
    if r.is_empty():
        return j_target, ()
    down_r = down_closure(datum, r.support())
    start, window = [], []
    for i in datum.vertices:
        theta, delta = j_target.threshold(i), down_r.ceilings[i - 1]
        if delta < theta:
            start.append(theta)
        else:
            start.append(delta + 2)
            window.extend((i, c) for c in range(delta, theta - 2, -2))
    start_j = cur = ThresholdSet(tuple(start))
    validate_threshold_set(datum, start_j)
    mult = dict(r.points)
    steps = []
    for (i, k) in sorted(window, key=lambda pt: (-pt[1], pt[0])):
        cur = with_point(cur, i, k)
        validate_threshold_set(datum, cur)
        steps.append(("extend", (i, k)))
        m = mult.get((i, k))
        if m:
            steps.append(("multiply", multiset({(i, k): m})))
    return start_j, tuple(steps)


def ref_plan_json(start, steps):
    return {"start": start.to_json(),
            "steps": [{"extend": list(p)} if kind == "extend"
                      else {"multiply": p.to_json()} for kind, p in steps]}


def ref_char_by_plan(datum, steps):
    """The fold that applies every step."""
    ch = GroupAlgebraElement.unit(datum)
    for kind, payload in steps:
        if kind == "extend":
            ch = demazure_pi(datum, payload[0], ch)
        else:
            ch = e(weight_of_multiset(datum, payload)) * ch
    return ch


def _seeded_plan_cases(seed=22, per_datum=12, cap=20000):
    """(datum, R, J) over A1, A3, D4, E6 and GL4: 1-3 points of
    multiplicity 1-2, levels from overlapping to 10^3 apart, and J either
    up(Supp R) or lowered below it."""
    rng = random.Random(seed)
    for kind, rank in [("A", 1), ("A", 3), ("D", 4), ("E6", 6), ("GL", 4)]:
        datum = build_root_datum(kind, rank)
        drawn = 0
        while drawn < per_datum:
            pts = {}
            for _ in range(1 + drawn % 3):
                i = rng.choice(datum.vertices)
                level = rng.choice([0, 1, 2, 3, 5, 500])
                pts[(i, datum.parity[i] + 2 * level)] = rng.randint(1, 2)
            bound = 1
            for (i, _), m in pts.items():
                bound *= datum.weyl_dimension(tuple(m * x for x in datum.fundamentals[i]))
            if bound > cap:
                continue
            drawn += 1
            r = multiset(pts)
            j = (up_closure(datum, r.support()) if drawn % 2
                 else _random_containing_up_set(rng, datum, r))
            yield datum, r, j


SEEDED_PLAN_CASES = list(_seeded_plan_cases())


def test_seeded_cases_span_the_gaps():
    spans = [max(c for _, c in r.support()) - min(c for _, c in r.support())
             for _, r, _ in SEEDED_PLAN_CASES]
    assert min(spans) == 0 and max(spans) >= 999
    lowered = sum(j != up_closure(datum, r.support()) for datum, r, j in SEEDED_PLAN_CASES)
    assert 0 < lowered < len(SEEDED_PLAN_CASES)


@pytest.mark.parametrize("case", range(len(SEEDED_PLAN_CASES)))
def test_plan_walk_matches_reference_listing(case):
    datum, r, j = SEEDED_PLAN_CASES[case]
    start, steps = ref_plan_steps(datum, r, j)
    plan = build_plan(datum, r, j)
    assert plan.start == start
    assert plan.steps == steps
    assert plan.step_count() == len(steps)
    assert plan.to_json() == ref_plan_json(start, steps)
    assert char_by_plan(datum, plan) == ref_char_by_plan(datum, steps)


def _golden_plan_inputs():
    a3, d4 = build_root_datum("A", 3), build_root_datum("D", 4)
    return [(a3, multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1}), None),
            (d4, multiset({(1, 0): 1, (1, 6): 1, (2, 5): 1}), None)]


@pytest.mark.parametrize("case", range(len(SEEDED_PLAN_CASES) + 2))
def test_every_plan_prefix_is_upward_closed(case):
    # build_plan validates only the start set; the walk order is what keeps
    # every prefix upward-closed, and this checks it step by step
    datum, r, j = (_golden_plan_inputs() + SEEDED_PLAN_CASES)[case]
    plan = build_plan(datum, r, j)
    cur = plan.start
    validate_threshold_set(datum, cur)
    for kind, payload in plan.steps:
        if kind == "extend":
            cur = with_point(cur, *payload)
            validate_threshold_set(datum, cur)
    assert cur == (j or up_closure(datum, r.support()))


# -- the character route does not pay for the distance between points ------

def _far_apart(gap):
    return multiset({(1, 1): 1, (1, 1 + gap): 1, (2, 0): 2})


def test_far_apart_results_do_not_depend_on_gap(a3):
    results = {(tuple(sorted(decompose(a3, _far_apart(gap)).items())),
                full_character(a3, _far_apart(gap)))
               for gap in (10**3, 10**6, 10**8)}
    assert len(results) == 1


def test_char_by_plan_calls_do_not_depend_on_gap(a3, monkeypatch):
    calls = []
    real_pi = truncation.demazure_pi

    def counting_pi(datum, i, f):
        calls.append(i)
        return real_pi(datum, i, f)
    monkeypatch.setattr(truncation, "demazure_pi", counting_pi)
    counts = []
    for gap in (10**6, 10**8):
        calls.clear()
        ch = char_by_plan(a3, build_plan(a3, _far_apart(gap)))
        counts.append(len(calls))
    assert counts[0] == counts[1]
    assert ch == ref_char_by_plan(a3, ref_plan_steps(a3, _far_apart(10**3))[1])


@pytest.mark.parametrize("argv", [
    ["decompose", "--cartan", "A", "--rank", "3", "--R", "[[1,1,1],[1,100000001,1],[2,0,2]]"],
    ["character", "--cartan", "A", "--rank", "3", "--R", "[[1,1,1],[1,100000001,1],[2,0,2]]"],
    ["character", "--cartan", "A", "--rank", "2", "--R", "[[1,1,1]]",
     "--truncation", '{"thresholds":{"1":-199999,"2":-200000}}'],
])
def test_far_apart_cli_runs_at_once(capsys, argv):
    t0 = time.perf_counter()
    assert run(argv) == 0
    assert time.perf_counter() - t0 < 2.0
    assert '"status": "ok"' in capsys.readouterr().out


def test_plan_step_limit(capsys, monkeypatch, a3):
    # the step count is a sum over the window, known before any step is listed
    plan = build_plan(a3, _far_apart(10**6))
    assert plan.step_count() == 1_500_005
    with pytest.raises(LimitExceeded) as err:
        plan.steps
    assert (err.value.stage, err.value.limit, err.value.reached) == (
        "truncation.plan_steps", limits.MAX_PLAN_STEPS, 1_500_005)
    t0 = time.perf_counter()
    assert run(["plan", "--cartan", "A", "--rank", "3",
                "--R", "[[1,1,1],[1,1000001,1],[2,0,2]]"]) == 3
    assert time.perf_counter() - t0 < 2.0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "limit-exceeded"
    assert data["diagnostics"][1] == {"stage": "truncation.plan_steps",
                                      "limit": limits.MAX_PLAN_STEPS,
                                      "reached": 1_500_005}
    # the lazy fold is not bound by it
    monkeypatch.setattr(limits, "MAX_PLAN_STEPS", 3)
    small = build_plan(a3, _far_apart(10))
    assert small.step_count() > 3
    with pytest.raises(LimitExceeded):
        small.to_json()
    assert char_by_plan(a3, small) == char_by_plan(a3, build_plan(a3, _far_apart(10**3)))
    # a plan of exactly the limit is listed, and an empty plan has no steps
    monkeypatch.setattr(limits, "MAX_PLAN_STEPS", small.step_count())
    assert len(small.steps) == small.step_count()
    empty = build_plan(a3, multiset({}))
    assert empty.step_count() == 0 and empty.steps == ()
