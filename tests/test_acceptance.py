"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import random
import time

from pmcrystal.cartan import build_root_datum
from pmcrystal.crystal import highest_weights
from pmcrystal.monomial import mono_mul, y_monomial
from pmcrystal.product import (decompose, multiset, product_graph,
                               y_of_multiset)
from pmcrystal.truncation import (build_plan, truncate, up_closure,
                                  validate_threshold_set)
from pmcrystal.typea import (flagged_schur_char, lr_skew_expand,
                             partitions_of, restrict_coeffs, schur_decompose,
                             sequence_of_diagram, skew_normalise,
                             specht_decompose_bruteforce, stable_bound,
                             stable_coeffs, weight_partition)
from pmcrystal.weightring import (apply_word, demazure_pi, e, laurent_str,
                                  pi_longest, weyl_decompose)
from conftest import random_element, random_multiset
from reference import (boundary, character_of_set, check_crystal_axioms,
                       diagram_of_sequence, edge_triples, extend_strings, key_decompose,
                       mono_pow, multiset_of_sequence, replay_plan, string_property,
                       z_monomial)
from test_typea import random_sequence


def report(num, text):
    print(f"\nPASS criterion {num}: {text}")


def test_criterion_1_sl3_examples(a2):
    g1 = product_graph(a2, multiset({(1, 1): 1}))
    assert len(g1) == 3
    y11 = y_monomial(a2, 1, 1)
    m2 = mono_mul(y11, mono_pow(z_monomial(a2, 1, -1), -1))
    m3 = mono_mul(m2, mono_pow(z_monomial(a2, 2, -2), -1))
    assert set(g1.elements) == {y11, m2, m3}
    assert set(edge_triples(g1)) == {(y11, 1, m2), (m2, 2, m3)}

    g2 = product_graph(a2, multiset({(1, 1): 2}))
    sq = y_monomial(a2, 1, 1, 2)
    listed = [sq]
    listed.append(mono_mul(sq, mono_pow(z_monomial(a2, 1, -1), -1)))
    listed.append(mono_mul(listed[1], mono_pow(z_monomial(a2, 2, -2), -1)))
    listed.append(mono_mul(listed[1], mono_pow(z_monomial(a2, 1, -1), -1)))
    listed.append(mono_mul(listed[3], mono_pow(z_monomial(a2, 2, -2), -1)))
    listed.append(mono_mul(listed[4], mono_pow(z_monomial(a2, 2, -2), -1)))
    assert set(g2.elements) == set(listed) and len(g2) == 6
    assert highest_weights(g2) == (sq,)
    assert decompose(a2, multiset({(1, 1): 2})) == {(2, 0): 1}
    report(1, "SL_3 crystals M(1,1) and M(1,1)^2 match the expected "
              "monomials, edges and decomposition")


def test_criterion_2_sl4_trichotomy(a3):
    w2 = (0, 2, 0)
    adj = (1, 0, 1)
    for k in (0, 2, 4):
        assert decompose(a3, multiset({(2, k): 2})) == {w2: 1}
    for k in (0, 2):
        assert decompose(a3, multiset({(2, k): 1, (2, k + 2): 1})) == \
            {w2: 1, adj: 1}
    assert decompose(a3, multiset({(2, 0): 1, (2, 4): 1})) == \
        {w2: 1, adj: 1, (0, 0, 0): 1}
    report(2, "SL_4 trichotomy at weight 2w_2 for k in {0,2,4}")


def test_criterion_3_compute_truncation(a3):
    r = multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})
    j = up_closure(a3, [(3, 1)])
    y_r = y_of_multiset(a3, r)
    expected = {y_r, mono_mul(y_r, mono_pow(z_monomial(a3, 3, 1), -1))}
    assert set(truncate(a3, r, j)) == expected
    plan = build_plan(a3, r)
    assert set(replay_plan(a3, plan)) == expected
    multiplied = [p for kind, p in plan.steps if kind == "multiply"]
    assert sum((q for q in multiplied), start=multiset({})) == r
    assert decompose(a3, r) == {(1, 0, 2): 1, (1, 1, 0): 1}
    report(3, "SL_4 build plan replays the truncation filter; "
              "decomposition w_1+2w_3 and w_1+w_2")


def test_criterion_4_gl4_character_identity(a3, gl4):
    # exact GL_4 fold: e^{w_3} * pi_3(e^{w_1+w_3})
    ch_gl = e(gl4.fundamentals[3]) * demazure_pi(gl4, 3, e((2, 1, 1, 0)))
    assert ch_gl == e((3, 2, 2, 0)) + e((3, 2, 1, 1))
    dec_gl = weyl_decompose(gl4, pi_longest(gl4, ch_gl))
    assert dec_gl == {(3, 2, 2, 0): 1, (3, 2, 1, 1): 1}
    # in SL_4 coordinates (mod det) the same fold is exactly the displayed
    # x1^3 x2^2 x3^2 + x1^2 x2, via the minimal polynomial representatives
    ch_sl = e(a3.fundamentals[3]) * demazure_pi(a3, 3, e((1, 0, 1)))
    assert ch_sl == e((1, 0, 2)) + e((1, 1, 0))
    reps = {(1, 0, 2): (3, 2, 2, 0), (1, 1, 0): (2, 1, 0, 0)}
    rendered = sum((e(reps[w], c) for w, c in ch_sl.items()), start=e(gl4.zero, 0))
    assert laurent_str(gl4, rendered) == "x1^3*x2^2*x3^2 + x1^2*x2"
    assert weyl_decompose(a3, pi_longest(a3, ch_sl)) == {(1, 0, 2): 1, (1, 1, 0): 1}
    report(4, "GL_4 identity e^{w3}*pi_3 e^{w1+w3} = x1^3x2^2x3^2 + x1^2x2 "
              "(mod det) with the stated Weyl decomposition")


def test_criterion_5_gl6_stable_example():
    t0 = time.time()
    r = multiset({(1, 5): 1, (3, 1): 1, (4, 6): 1})
    assert stable_bound(r) == 6
    coeffs = stable_coeffs(r)
    assert coeffs == {
        (2, 2, 2, 2): 1, (2, 2, 2, 1, 1): 1, (2, 2, 1, 1, 1, 1): 1,
        (3, 2, 2, 1): 1, (3, 2, 1, 1, 1): 1, (3, 1, 1, 1, 1, 1): 1}
    restricted = restrict_coeffs(coeffs, 5)
    assert set(coeffs) - set(restricted) == {(2, 2, 1, 1, 1, 1), (3, 1, 1, 1, 1, 1)}
    assert all(len(lam) == 6 for lam in set(coeffs) - set(restricted))
    gl5 = build_root_datum("GL", 5)
    direct = {weight_partition(w): m for w, m in decompose(gl5, r).items()}
    assert direct == restricted
    elapsed = time.time() - t0
    assert elapsed <= 60, f"criterion 5 took {elapsed:.1f}s"
    report(5, f"GL_6 stable example: bound 6, six partitions, restriction "
              f"to GL_5 ({elapsed:.1f}s)")


def test_criterion_6_diagram_oracles(gl3):
    five = {(1, 1), (2, 2), (3, 2), (2, 3), (4, 3)}
    expected5 = {(2, 1, 1, 1): 1, (3, 1, 1): 1, (2, 2, 1): 2, (3, 2): 1}
    lam, mu = skew_normalise(five)
    assert (lam, mu) == ((3, 2, 2, 1), (2, 1))
    assert lr_skew_expand(lam, mu) == expected5
    assert specht_decompose_bruteforce(five) == expected5
    assert schur_decompose(sequence_of_diagram(five)) == expected5

    stair_seq = ((1,), (1,), (2, 1, 1))
    stair = diagram_of_sequence(stair_seq)
    expected6 = {(4, 1, 1): 1, (3, 2, 1): 2, (2, 2, 2): 1}
    assert specht_decompose_bruteforce(stair) == expected6
    assert schur_decompose(stair_seq) == expected6
    flagged = flagged_schur_char(stair_seq, 3)
    assert flagged == (e((4, 1, 1)) + e((2, 3, 1)) + 2 * e((3, 2, 1))
                       + e((3, 1, 2)) + e((2, 2, 2)))
    assert key_decompose(gl3, flagged) == {
        (4, 1, 1): 1, (2, 3, 1): 1, (3, 1, 2): 1, (2, 2, 2): 1}
    report(6, "5-box diagram agrees across skew-LR, Specht and Schur routes; "
              "6-box staircase flagged character and key decomposition")


def test_criterion_7_hecke_property_suite():
    total = 0
    for kind, rank in [("A", 2), ("A", 3), ("D", 4)]:
        datum = build_root_datum(kind, rank)
        rng = random.Random(100 + rank)
        pairs = [(i, j) for i in datum.vertices for j in datum.neighbours[i] if i < j]
        apart = [(i, j) for i in datum.vertices for j in datum.vertices
                 if i < j and j not in datum.neighbours[i]]
        for _ in range(100):
            f = random_element(rng, datum)
            i = rng.choice(datum.vertices)
            assert demazure_pi(datum, i, demazure_pi(datum, i, f)) == \
                demazure_pi(datum, i, f)
            a, b = rng.choice(pairs)
            assert apply_word(datum, (a, b, a), f) == apply_word(datum, (b, a, b), f)
            if apart:
                a, b = rng.choice(apart)
                assert apply_word(datum, (a, b), f) == apply_word(datum, (b, a), f)
            word = tuple(rng.choice(datum.vertices) for _ in range(rng.randint(1, 4)))
            assert apply_word(datum, datum.longest_word + word, f) == \
                apply_word(datum, datum.longest_word, f)
            total += 1
    report(7, f"0-Hecke relations hold on {total} random elements "
              f"across A_2, A_3, D_4")


def test_criterion_8_lemma_property_suite():
    rng = random.Random(88)
    data = [build_root_datum(k, r)
            for k, r in [("A", 2), ("A", 3), ("GL", 3), ("GL", 4), ("D", 4)]]
    checked = 0
    while checked < 50:
        datum = rng.choice(data)
        r = random_multiset(rng, datum, max_points=3, max_mult=2, cap=1200)
        graph = product_graph(datum, r)
        extra = list(r.support())
        for _ in range(rng.randint(0, 2)):
            i = rng.choice(datum.vertices)
            extra.append((i, datum.parity[i] + 2 * rng.randint(-3, 1)))
        j = up_closure(datum, extra)
        xs = truncate(datum, r, j)

        # extension lemma at any admissible vertex
        for i in datum.vertices:
            k = j.threshold(i) - 2
            if all(j.threshold(v) <= k + 1 for v in datum.neighbours[i]):
                j_ext = j.with_point(i, k)
                validate_threshold_set(datum, j_ext)
                assert set(truncate(datum, r, j_ext)) == \
                    set(extend_strings(datum, i, xs))
                break

        # factorisation lemma with a boundary multiset
        q_pt = rng.choice(sorted(boundary(datum, j)))
        q = multiset({q_pt: rng.randint(1, 2)})
        y_q = y_of_multiset(datum, q)
        assert set(truncate(datum, r + q, j)) == {mono_mul(y_q, p) for p in xs}

        # string property and the character commutation
        ok, witness = string_property(datum, xs, graph)
        assert ok, witness
        ch = character_of_set(datum, xs)
        for i in datum.vertices:
            assert character_of_set(datum, extend_strings(datum, i, xs)) == \
                demazure_pi(datum, i, ch)

        # truncation characters are nonnegative sums of key polynomials
        dec = key_decompose(datum, ch)
        assert all(c > 0 for c in dec.values())
        checked += 1
    report(8, f"extension/factorisation/string-property/key-positivity "
              f"checked on {checked} random (R, J)")


def test_criterion_9_main_theorem_desk_scale():
    t0 = time.time()
    rng = random.Random(99)
    fixed = [  # stress cases at the top of the allowed ranges
        ((3,), (2, 1), (1, 1, 1), (2, 1)),
        ((2,), (1, 1), (3,), (2, 1, 1)),
        ((1,), (2, 2), (1, 1, 1), (3,)),
    ]
    sequences = fixed + [random_sequence(rng, max_len=4, max_boxes=3)
                         for _ in range(30)]
    checked = specht_checked = 0
    for seq in sequences:
        r, _, n = multiset_of_sequence(seq)
        coeffs = stable_coeffs(r)
        assert coeffs == schur_decompose(seq)
        boxes = diagram_of_sequence(seq)
        if len(boxes) <= 7:
            assert specht_decompose_bruteforce(boxes) == coeffs
            specht_checked += 1
        checked += 1
    elapsed = time.time() - t0
    assert elapsed <= 600, f"criterion 9 took {elapsed:.1f}s"
    report(9, f"main theorem on {checked} random sequences "
              f"({specht_checked} with the Specht oracle, {elapsed:.1f}s)")


def test_criterion_10_crystal_axioms(a2, a3):
    rng = random.Random(1010)
    crystals = [
        (a2, multiset({(1, 1): 1})),
        (a2, multiset({(1, 1): 2})),
        (a3, multiset({(1, 3): 1, (3, 1): 1, (3, 3): 1})),
        (a3, multiset({(2, 0): 1, (2, 2): 1})),
        (build_root_datum("GL", 6), multiset({(1, 5): 1, (3, 1): 1, (4, 6): 1})),
    ]
    d4 = build_root_datum("D", 4)
    for _ in range(3):
        crystals.append((d4, random_multiset(rng, d4, cap=900)))
    for datum, r in crystals:
        check_crystal_axioms(product_graph(datum, r))
    report(10, f"upper-seminormal axioms plus seminormality verified "
               f"exhaustively on {len(crystals)} product crystals")
