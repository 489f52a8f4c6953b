import itertools
import json
import operator
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest

from pmcrystal import cli, limits, truncation, weightring
from pmcrystal.cartan import RootDatum, build_root_datum, w_add, w_scale, w_sub
from pmcrystal.limits import LimitExceeded
from pmcrystal.product import multiset, weight_of_multiset
from pmcrystal.truncation import build_plan, char_by_plan, full_character
from pmcrystal.weightring import (BIAS, DecompositionError, GroupAlgebraElement,
                                  apply_word, demazure_pi, e, irreducible_character,
                                  laurent_str, pi_longest, straighten, weyl_decompose)
from conftest import random_element, random_multiset, random_weight
from reference import demazure_character, dominant_multiplicities, key_decompose


# -- reference: the Demazure operators on tuple weights ------------------------


def ref_demazure_pi(datum, i, terms):
    """pi_i on a dict weight -> coefficient, one tuple at a time."""
    out = {}

    def accumulate(w, c):
        new = out.get(w, 0) + c
        if new:
            out[w] = new
        else:
            del out[w]

    alpha = datum.alphas[i]
    for w, c in terms.items():
        m = datum.pairing(i, w)
        if m >= 0:
            cur = w
            for _ in range(m + 1):
                accumulate(cur, c)
                cur = w_sub(cur, alpha)
        elif m <= -2:
            cur = w_add(w, alpha)
            for _ in range(-m - 1):
                accumulate(cur, -c)
                cur = w_add(cur, alpha)
    return out


def ref_apply_word(datum, word, terms):
    for i in reversed(tuple(word)):
        terms = ref_demazure_pi(datum, i, terms)
    return terms


def ref_mul(a, b):
    out = {}
    for v, x in a.items():
        for w, y in b.items():
            key = w_add(v, w)
            out[key] = out.get(key, 0) + x * y
    return {w: c for w, c in out.items() if c}


def ref_truncation_character(datum, r):
    """char_by_plan folded on tuple weights, every step applied."""
    ch = {datum.zero: 1}
    for kind, payload in build_plan(datum, r).steps:
        if kind == "extend":
            ch = ref_demazure_pi(datum, payload[0], ch)
        else:
            ch = ref_mul({weight_of_multiset(datum, payload): 1}, ch)
    return ch


def ref_full_character(datum, r):
    """char_by_plan and pi_{w_o} folded on tuple weights."""
    return ref_apply_word(datum, datum.longest_word, ref_truncation_character(datum, r))


def ref_weyl_decompose(datum, terms):
    rem, out = dict(terms), {}
    while rem:
        mu = max((w for w in rem if datum.is_dominant(w)),
                 key=lambda w: (datum.height(w), w))
        c = rem[mu]
        assert c > 0
        for w, x in ref_apply_word(datum, datum.longest_word, {mu: 1}).items():
            rem[w] = rem.get(w, 0) - c * x
            if not rem[w]:
                del rem[w]
        out[mu] = c
    return out


def brauer_klimyk(datum, terms):
    """weyl_decompose(pi_{w_o} f) read straight off f: pi_{w_o} e^mu is the
    Weyl character chi(mu), which is sign(w) ch V(w(mu + rho) - rho) for
    w(mu + rho) dominant, and 0 when mu + rho is singular."""
    out = {}
    for mu, c in terms.items():
        dom, word = datum.dominant_representative(w_add(mu, datum.rho))
        if all(datum.pairing(i, dom) > 0 for i in datum.vertices):
            lam = w_sub(dom, datum.rho)
            out[lam] = out.get(lam, 0) + (-1) ** len(word) * c
    return {lam: c for lam, c in out.items() if c}


def x(*exps):
    """Shorthand: the GL monomial x1^a x2^b ... as a group algebra term."""
    return e(tuple(exps))


def test_pi_fixes_invariants(a2):
    assert demazure_pi(a2, 1, e(a2.zero)) == e(a2.zero)


def test_pi_returns_its_input_exactly_when_it_is_fixed(a2):
    # char_by_plan reads s_i-invariance off ``demazure_pi(...) is f``
    rng = random.Random(23)
    for _ in range(20):
        f = random_element(rng, a2)
        for i in a2.vertices:
            g = demazure_pi(a2, i, f)
            assert (g is f) == (g == f)
            assert demazure_pi(a2, i, g) is g


def test_pi_kills_pairing_minus_one(a2):
    # <a_1^v, w> = -1 at w = -w1 + w2  (fundamental coords (-1, 1))
    assert demazure_pi(a2, 1, e((-1, 1))).is_zero()


def test_pi_gl4_single_monomial(gl4):
    # pi_3(x1^2 x2 x3) = x1^2 x2 x3 + x1^2 x2 x4
    assert demazure_pi(gl4, 3, x(2, 1, 1, 0)) == x(2, 1, 1, 0) + x(2, 1, 0, 1)


def test_apply_word_identities(a2):
    rng = random.Random(3)
    for _ in range(10):
        f = random_element(rng, a2)
        assert apply_word(a2, (), f) == f
        assert apply_word(a2, (1, 1), f) == apply_word(a2, (1,), f)
        assert apply_word(a2, (1, 2, 1), f) == apply_word(a2, (2, 1, 2), f)


def test_pi_commutes_nonadjacent(a3):
    rng = random.Random(4)
    for _ in range(10):
        f = random_element(rng, a3)
        assert apply_word(a3, (1, 3), f) == apply_word(a3, (3, 1), f)


def test_irreducible_characters():
    gl2 = build_root_datum("GL", 2)
    assert irreducible_character(gl2, (1, 0)) == x(1, 0) + x(0, 1)
    a2 = build_root_datum("A", 2)
    ch = irreducible_character(a2, (1, 0))
    assert ch == e((1, 0)) + e((-1, 1)) + e((0, -1))


@pytest.mark.parametrize("kind,rank,lam", [
    ("A", 2, (1, 1)), ("A", 2, (2, 1)), ("A", 3, (1, 0, 2)),
    ("D", 4, (1, 0, 0, 0)), ("D", 4, (0, 1, 1, 0)), ("GL", 4, (3, 2, 2, 0)),
])
def test_character_dimension_against_weyl_formula(kind, rank, lam):
    datum = build_root_datum(kind, rank)
    assert irreducible_character(datum, lam).total() == datum.weyl_dimension(lam)


def test_irreducible_rejects_nondominant(a2):
    with pytest.raises(ValueError):
        irreducible_character(a2, (-1, 0))


def test_weyl_decompose_roundtrip(a3):
    lam = (1, 0, 2)
    assert weyl_decompose(a3, irreducible_character(a3, lam)) == {lam: 1}


def test_weyl_decompose_gl4_two_summands(gl4):
    f = pi_longest(gl4, x(3, 2, 2, 0) + x(2, 1, 0, 0))
    assert weyl_decompose(gl4, f) == {(3, 2, 2, 0): 1, (2, 1, 0, 0): 1}


def test_weyl_decompose_sl2_clebsch_gordan():
    a1 = build_root_datum("A", 1)
    rng = random.Random(5)
    for _ in range(8):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        prod = irreducible_character(a1, (a,)) * irreducible_character(a1, (b,))
        expected = {(k,): 1 for k in range(abs(a - b), a + b + 1, 2)}
        assert weyl_decompose(a1, prod) == expected


def test_weyl_decompose_reports_bad_input(a2):
    with pytest.raises(DecompositionError):
        weyl_decompose(a2, e((1, 0)) + e((0, 1)) - e((1, 1)) * e((1, 0)))
    with pytest.raises(DecompositionError):
        # invariant but negative multiplicity
        weyl_decompose(a2, -1 * irreducible_character(a2, (1, 0)))


def test_demazure_characters(gl3):
    assert demazure_character(gl3, (2, 1, 0)) == x(2, 1, 0)
    assert demazure_character(gl3, (1, 2, 0)) == x(2, 1, 0) + x(1, 2, 0)
    # lowest weight w_o(lam) gives the full character
    assert demazure_character(gl3, (0, 1, 2)) == irreducible_character(gl3, (2, 1, 0))


def test_demazure_triangularity(gl3):
    rng = random.Random(6)
    for _ in range(20):
        mu = tuple(rng.randint(0, 4) for _ in range(3))
        ch = demazure_character(gl3, mu)
        assert ch.coefficient(mu) == 1
        assert all(c > 0 for c in ch.terms.values())


def test_key_decompose_basics(gl3):
    assert key_decompose(gl3, x(2, 1, 0)) == {(2, 1, 0): 1}
    lam = (3, 1, 0)
    assert key_decompose(gl3, demazure_pi(gl3, 1, e(lam))) == {(1, 3, 0): 1}


def test_key_decompose_staircase_character(gl3):
    f = (x(4, 1, 1) + x(2, 3, 1) + 2 * x(3, 2, 1) + x(3, 1, 2) + x(2, 2, 2))
    assert key_decompose(gl3, f) == {
        (4, 1, 1): 1, (2, 3, 1): 1, (3, 1, 2): 1, (2, 2, 2): 1}


def test_key_decompose_reexpands(gl3):
    rng = random.Random(7)
    for _ in range(15):
        keys = {}
        for _ in range(rng.randint(1, 3)):
            mu = tuple(rng.randint(0, 3) for _ in range(3))
            keys[mu] = keys.get(mu, 0) + rng.randint(1, 2)
        f = GroupAlgebraElement({})
        for mu, c in keys.items():
            f = f + c * demazure_character(gl3, mu)
        found = key_decompose(gl3, f)
        total = GroupAlgebraElement({})
        for mu, c in found.items():
            total = total + c * demazure_character(gl3, mu)
        assert total == f


def test_key_decompose_rejects_non_key_positive(gl3):
    with pytest.raises(DecompositionError):
        key_decompose(gl3, -1 * x(1, 0, 0))


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("D", 4)])
def test_hecke_relations_random(kind, rank):
    datum = build_root_datum(kind, rank)
    rng = random.Random(8)
    for _ in range(15):
        f = random_element(rng, datum)
        i = rng.choice(datum.vertices)
        assert demazure_pi(datum, i, demazure_pi(datum, i, f)) == demazure_pi(datum, i, f)
        word = tuple(rng.choice(datum.vertices) for _ in range(3))
        lhs = apply_word(datum, datum.longest_word + word, f)
        assert lhs == apply_word(datum, datum.longest_word, f)


def test_laurent_rendering(gl4):
    f = x(3, 2, 2, 0) + x(2, 1, 0, 0)
    assert laurent_str(gl4, f) == "x1^3*x2^2*x3^2 + x1^2*x2"
    assert laurent_str(gl4, e(gl4.zero)) == "1"
    # coefficients 1, -1 and any other, and the constant term
    assert laurent_str(gl4, x(1, 0, 0, 0) - 2 * x(0, 1, 0, 0) - e(gl4.zero)) == "x1 - 2*x2 - 1"


def test_element_negation_coefficient_and_repr():
    f = e((1, 0)) - e((0, 1)) + 3 * e((-1, 1))
    assert -f == (-1) * f and (f + -f).is_zero()
    assert f.coefficient((0, 1)) == -1
    # an absent weight, or one of another length, has coefficient 0
    assert f.coefficient((1, 1)) == 0 and f.coefficient((1, 0, 0)) == 0
    assert repr(f) == "3*e(-1,1) - e(0,1) + e(1,0)"
    assert repr(e((0, 0), 0)) == "0"


def test_tensor_product_multiplicities_nonnegative(a2):
    rng = random.Random(26)
    for _ in range(6):
        lam = (rng.randint(0, 2), rng.randint(0, 2))
        mu = (rng.randint(0, 2), rng.randint(0, 2))
        prod = irreducible_character(a2, lam) * irreducible_character(a2, mu)
        dec = weyl_decompose(a2, prod)
        assert all(c > 0 for c in dec.values())
        assert sum(c * a2.weyl_dimension(nu) for nu, c in dec.items()) == prod.total()


# -- the packed kernel against the tuple reference ------------------------------


KINDS = [("A", 3), ("D", 4), ("E6", 6), ("E7", 7), ("GL", 4)]


@pytest.mark.parametrize("kind,rank", KINDS)
def test_packed_pi_matches_reference(kind, rank):
    datum = build_root_datum(kind, rank)
    rng = random.Random(40 + rank)
    seen = set()
    for _ in range(40):
        f = random_element(rng, datum, terms=5)
        i = rng.choice(datum.vertices)
        pairings = {datum.pairing(i, w) for w in f.terms}
        seen.update("-1" if m == -1 else "<=-2" if m <= -2 else ">=0" for m in pairings)
        assert demazure_pi(datum, i, f).terms == ref_demazure_pi(datum, i, f.terms)
        word = tuple(rng.choice(datum.vertices) for _ in range(rng.randint(2, 6)))
        assert apply_word(datum, word, f).terms == ref_apply_word(datum, word, f.terms)
    assert seen == {"-1", "<=-2", ">=0"}
    first = datum.fundamentals[1]
    f = e(first) + e(first, -2) * e(first) + 3 * e(tuple(-x for x in first))
    assert (pi_longest(datum, f).terms
            == ref_apply_word(datum, datum.longest_word, f.terms))


@pytest.mark.parametrize("kind,rank", KINDS)
def test_packed_pi_cancelling_terms(kind, rank):
    # pi_i e^(s_i w - a_i) = -pi_i e^w when <a_i^vee, w> >= 0
    datum = build_root_datum(kind, rank)
    rng = random.Random(50 + rank)
    for _ in range(10):
        i = rng.choice(datum.vertices)
        w = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
        if datum.pairing(i, w) < 0:
            w = datum.reflect(i, w)
        partner = w_sub(datum.reflect(i, w), datum.alphas[i])
        other = tuple(rng.randint(-3, 3) for _ in range(datum.rank))
        f = e(w) + e(partner) + e(other, 2)
        assert ref_demazure_pi(datum, i, {w: 1, partner: 1}) == {}
        assert demazure_pi(datum, i, e(w) + e(partner)).is_zero()
        assert demazure_pi(datum, i, f).terms == ref_demazure_pi(datum, i, f.terms)


def on_line(datum, i, w, m):
    """The weight of pairing m on the a_i-line through w (m of its parity)."""
    t, odd = divmod(m - datum.pairing(i, w), 2)
    assert not odd
    return w_add(w, w_scale(t, datum.alphas[i]))


STRING_KINDS = [("A", 1), ("A", 3), ("D", 4), ("E6", 6),
                ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)]


@pytest.mark.parametrize("kind,rank", STRING_KINDS)
def test_string_sums_match_reference(kind, rank):
    # long strings carrying several terms of both signs, which the
    # five-term elements of the small box above never build
    datum = build_root_datum(kind, rank)
    rng = random.Random(60 + 10 * len(kind) + rank)
    for _ in range(30):
        i = rng.choice(datum.vertices)
        w = random_weight(rng, datum)
        odd = datum.pairing(i, w) % 2
        terms = {on_line(datum, i, w, rng.randrange(odd - 40, 41, 2)): rng.choice((-2, -1, 1, 3))
                 for _ in range(rng.randint(2, 6))}
        terms[random_weight(rng, datum)] = 1
        f = GroupAlgebraElement(terms)
        assert demazure_pi(datum, i, f).terms == ref_demazure_pi(datum, i, f.terms)
    i = datum.vertices[-1]
    for w in (datum.zero, datum.fundamentals[i]):      # even and odd lines
        odd = datum.pairing(i, w) % 2

        def at(m):
            return on_line(datum, i, w, m + odd)

        for terms in (
            {at(40): 1, at(-42): 1},                # folded onto the top: zero
            {at(40): 2, at(-42): 1, at(-4): 3},     # both signs on one weight
            {at(40): 1, at(36): -1},                # sums cancel from 36 to -36
            {at(38): 1, at(-40): -1, at(10): 2, at(-12): 2, at(0): 5},
            {at(-40): 1, at(-2): -1, at(2): 1, at(-4): 7},   # -1 on the odd line
        ):
            f = GroupAlgebraElement(terms)
            assert demazure_pi(datum, i, f).terms == ref_demazure_pi(datum, i, f.terms)
    assert demazure_pi(datum, i, e(on_line(datum, i, datum.zero, 40))
                       - e(on_line(datum, i, datum.zero, 36))).terms == {
        on_line(datum, i, datum.zero, m): 1 for m in (40, 38, -38, -40)}


def longest_word_of(datum, vertices):
    """A reduced word for the longest element w_J of the parabolic subgroup
    generated by these vertices: the ascent of -rho inside W_J."""
    cur, word = w_scale(-1, datum.rho), []
    while True:
        i = next((i for i in vertices if datum.pairing(i, cur) < 0), None)
        if i is None:
            return tuple(word)
        cur = datum.reflect(i, cur)
        word.append(i)


def small_orbit_element(rng, datum):
    """A few terms on the W-orbits of 0 and of the fundamental weights of
    dimension at most 200, so that pi_{w_o} of it stays small."""
    small = [datum.zero] + [w for w in datum.fundamentals.values()
                            if datum.weyl_dimension(w) <= 200]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = rng.choice(small)
        for _ in range(rng.randint(0, 12)):
            w = datum.reflect(rng.choice(datum.vertices), w)
        if datum.kind == "GL":
            w = w_add(w, w_scale(rng.randint(-2, 2), (1,) * datum.rank))
        terms[w] = rng.choice((-3, -1, 1, 2))
    return terms


def fixed_vertices(datum, terms):
    return {i for i in datum.vertices if ref_demazure_pi(datum, i, terms) == terms}


LONGEST_KINDS = [("A", r) for r in range(1, 7)] + [("D", r) for r in (4, 5, 6)] + [
    ("E6", 6), ("E7", 7)] + [("GL", r) for r in range(2, 6)]


@pytest.mark.parametrize("kind,rank", LONGEST_KINDS)
def test_pi_longest_along_the_coset_word(kind, rank, monkeypatch):
    # pi_longest applies pi along w_o w_J only, J the vertices fixing its
    # input; the image is the one the whole longest word gives
    datum = build_root_datum(kind, rank)
    rng = random.Random(70 + 10 * len(kind) + rank)
    subsets = [(), datum.vertices] + [
        tuple(i for i in datum.vertices if rng.random() < 0.5) for _ in range(4)]
    calls = []
    real_pi = weightring.demazure_pi

    def counting_pi(datum, i, f):
        calls.append(i)
        return real_pi(datum, i, f)

    for j in subsets:
        f_terms = ref_apply_word(datum, longest_word_of(datum, j),
                                 small_orbit_element(rng, datum))
        f = GroupAlgebraElement(f_terms)
        fixed = fixed_vertices(datum, f_terms)
        assert set(j) <= fixed
        expected = ref_apply_word(datum, datum.longest_word, f_terms)
        assert apply_word(datum, datum.longest_word, f).terms == expected
        monkeypatch.setattr(weightring, "demazure_pi", counting_pi)
        calls.clear()
        assert pi_longest(datum, f).terms == expected
        monkeypatch.undo()
        assert len(calls) == len(datum.longest_word) - len(longest_word_of(datum, fixed))


@pytest.mark.parametrize("kind,rank", [("A", 4), ("D", 5), ("E6", 6), ("GL", 5)])
def test_pi_longest_word_is_the_old_spelling(kind, rank, monkeypatch):
    # over every vertex set J, e^{-lam_J} is fixed by the s_i with i in J
    # alone; the letters pi_longest hands to demazure_pi are the ascent from
    # w_o lam_J = -(dominant representative of -lam_J), found here by a
    # second ascent that does not read RootDatum.dual, and pi_longest makes
    # one ascent only
    datum = build_root_datum(kind, rank)
    real_pi, real_dominant = weightring.demazure_pi, datum.dominant_representative
    calls, ascents = [], []

    def counting_pi(datum, i, f):
        calls.append(i)
        return real_pi(datum, i, f)

    def counting_dominant(w):
        ascents.append(w)
        return real_dominant(w)

    for size in range(len(datum.vertices) + 1):
        for moving in itertools.combinations(datum.vertices, size):
            lam = datum.zero
            for i in moving:
                lam = w_add(lam, datum.fundamentals[i])
            low = w_scale(-1, real_dominant(w_scale(-1, lam))[0])
            f = e(w_scale(-1, lam))
            assert fixed_vertices(datum, f.terms) == set(datum.vertices) - set(moving)
            monkeypatch.setattr(weightring, "demazure_pi", counting_pi)
            monkeypatch.setattr(datum, "dominant_representative", counting_dominant)
            calls.clear()
            ascents.clear()
            pi_longest(datum, f)
            monkeypatch.undo()
            assert tuple(reversed(calls)) == real_dominant(low)[1]
            assert len(ascents) == 1


@pytest.mark.parametrize("kind,rank,points", [
    ("D", 4, {(1, 0): 1, (2, 1): 1, (3, 2): 1}),   # overlapping
    ("E6", 6, {(1, 0): 1, (6, 20): 1}),           # far apart
    ("E7", 7, {(7, 1): 1, (7, 25): 1}),
])
def test_character_route_matches_reference(kind, rank, points):
    datum = build_root_datum(kind, rank)
    r = multiset(points)
    expected = ref_full_character(datum, r)
    ch = full_character(datum, r)
    assert ch.terms == expected
    assert weyl_decompose(datum, ch) == ref_weyl_decompose(datum, expected)


# -- the plan fold splits off its W-invariant factor ---------------------------


def _seeded_split_cases(seed=41, per_datum=6, cap=1000):
    """(datum, R, far) over A3, D4, E6 and GL4: 2 up to ``most`` points,
    each either 30-60 levels below the one before (far) or on one of the
    three lowest levels of its column (overlapping), the tensor bound under
    ``cap``."""
    rng = random.Random(seed)
    for kind, rank, most in [("A", 3, 4), ("D", 4, 3), ("E6", 6, 2), ("GL", 4, 4)]:
        datum = build_root_datum(kind, rank)
        drawn = 0
        while drawn < per_datum:
            far = drawn % 2 == 0
            pts, level = {}, 0
            for _ in range(2 + drawn // 2 % (most - 1)):
                i = rng.choice(datum.vertices)
                level = level - rng.randint(15, 30) if far else rng.randint(0, 2)
                pt = (i, datum.parity[i] + 2 * level)
                pts[pt] = pts.get(pt, 0) + 1
            bound = 1
            for (i, _), m in pts.items():
                bound *= datum.weyl_dimension(tuple(m * x for x in datum.fundamentals[i]))
            if bound <= cap:
                drawn += 1
                yield datum, multiset(pts), far


SPLIT_CASES = list(_seeded_split_cases())


@pytest.mark.parametrize("case", range(len(SPLIT_CASES)))
def test_split_fold_matches_reference(case):
    datum, r, far = SPLIT_CASES[case]
    g, _ = truncation._fold(datum, build_plan(datum, r))
    # far-apart points split off a factor other than 1; overlapping ones
    # never make the character W-invariant before a Multiply
    assert (g is not None and g != e(datum.zero)) if far else g is None
    expected = ref_truncation_character(datum, r)
    assert char_by_plan(datum, build_plan(datum, r)).terms == expected
    assert char_by_plan(datum, build_plan(datum, r)).terms == expected
    assert full_character(datum, r).terms == ref_apply_word(datum, datum.longest_word,
                                                             expected)


def test_seeded_split_cases_span_the_data():
    assert {datum.kind for datum, _, _ in SPLIT_CASES} == {"A", "D", "E6", "GL"}
    sizes = {len(r.points) for _, r, far in SPLIT_CASES if far}
    assert sizes == {2, 3, 4}


def test_split_fold_shrinks_the_operator_inputs(monkeypatch):
    # every Demazure operator of full_character, in the fold and in
    # pi_{w_o}; the fold that never splits hands the same 62 calls 37,785
    # terms in all, the largest 2,847
    sizes = []
    real_pi = weightring.demazure_pi

    def counting_pi(datum, i, f):
        sizes.append(len(f.terms))
        return real_pi(datum, i, f)
    monkeypatch.setattr(truncation, "demazure_pi", counting_pi)
    monkeypatch.setattr(weightring, "demazure_pi", counting_pi)
    e6 = build_root_datum("E6", 6)
    full_character(e6, multiset({(2, 1): 1, (3, 31): 1}))
    assert (len(sizes), max(sizes), sum(sizes)) == (62, 243, 5273)


def test_full_character_checks_the_product(monkeypatch):
    # with pi_i the identity in the fold, the factor split off is e^{wt Q}
    # and not W-invariant; pi_{w_o} h still is, so only the check on the
    # product returned can see it
    monkeypatch.setattr(truncation, "demazure_pi", lambda datum, i, f: f)
    a3 = build_root_datum("A", 3)
    r = multiset({(1, 41): 1, (2, 0): 1})
    g, h = truncation._fold(a3, build_plan(a3, r))
    assert g == e(weight_of_multiset(a3, multiset({(1, 41): 1})))
    weightring._assert_weyl_invariant(a3, pi_longest(a3, h))
    with pytest.raises(AssertionError, match="not Weyl-invariant"):
        full_character(a3, r, check=True)
    with pytest.raises(DecompositionError):
        weyl_decompose(a3, full_character(a3, r, check=False))


# -- the W-invariance verdict an element carries -----------------------------------


@pytest.fixture
def scans(monkeypatch):
    """The keys of every W-invariance scan, in call order: a call on an
    element that records the datum is no scan."""
    seen = []
    real = weightring._moving_vertices

    def counting(datum, f):
        if f._invariant_under is not datum:
            seen.append(f._keys)
        return real(datum, f)
    monkeypatch.setattr(weightring, "_moving_vertices", counting)
    return seen


def scans_of(scans, f):
    return sum(keys is f._keys for keys in scans)


# characters pi_{w_o} h alone (split False) and products g * pi_{w_o} h
@pytest.mark.parametrize("kind,rank,points,split", [
    ("A", 3, {(1, 1): 1, (2, 0): 1}, False), ("GL", 3, {(1, 1): 1, (2, 2): 1}, False),
    ("A", 3, {(1, 41): 1, (2, 0): 1}, True), ("A", 2, {(1, -3): 1, (1, 3): 1}, True)])
def test_checked_character_is_scanned_once(kind, rank, points, split, scans):
    datum, r = build_root_datum(kind, rank), multiset(points)
    g, _ = truncation._fold(datum, build_plan(datum, r))
    assert (g is not None) == split
    ch = full_character(datum, r, check=True)
    dec = weyl_decompose(datum, ch)
    assert scans_of(scans, ch) == 1
    assert weyl_decompose(datum, ch) == dec and scans_of(scans, ch) == 1
    # unchecked, the peel makes the one scan
    del scans[:]
    ch = full_character(datum, r, check=False)
    assert scans_of(scans, ch) == 0
    assert weyl_decompose(datum, ch) == dec and scans_of(scans, ch) == 1
    assert weyl_decompose(datum, ch) == dec and scans_of(scans, ch) == 1


def test_pi_longest_scans_its_input_once(a3, scans):
    # the J scan reads the input; pi_longest checks nothing on its image
    f = e((1, 0, 2))
    out = pi_longest(a3, f)
    assert scans_of(scans, f) == 1 and scans_of(scans, out) == 0
    # a W-invariant input is its own image, and the J scan records it
    del scans[:]
    ch = irreducible_character(a3, (1, 0, 2))
    assert pi_longest(a3, ch) is ch
    assert scans_of(scans, ch) == 1
    assert pi_longest(a3, ch) is ch and weyl_decompose(a3, ch) == {(1, 0, 2): 1}
    assert scans_of(scans, ch) == 1
    # full_character's check scans the image once and records it
    del scans[:]
    ch = full_character(a3, multiset({(1, 1): 1, (2, 0): 1}), check=True)
    assert scans_of(scans, ch) == 1 and ch._invariant_under is a3


def test_verdict_is_per_datum(a3, gl3):
    # A3's ch V(omega_1) in fundamental coordinates is not S_3-invariant in
    # GL3's coordinates, though both lattices have rank 3
    ch = irreducible_character(a3, (1, 0, 0))
    assert weyl_decompose(a3, ch) == {(1, 0, 0): 1}
    assert ch._invariant_under is a3
    with pytest.raises(DecompositionError, match="Weyl-invariant"):
        weyl_decompose(gl3, ch)
    assert ch._invariant_under is a3


def test_failed_scan_leaves_no_verdict(a3, monkeypatch):
    # a J scan that finds moving reflections
    f = e((1, 0, 0))
    out = pi_longest(a3, f)
    assert f._invariant_under is None and out._invariant_under is None
    with pytest.raises(DecompositionError, match="Weyl-invariant"):
        weyl_decompose(a3, f)
    assert f._invariant_under is None
    # the message names the first of the moving reflections, s_1 and s_3
    with pytest.raises(DecompositionError, match=r"^not Weyl-invariant: s_1 moves it$"):
        weyl_decompose(a3, e((1, 0, 1)))
    # the product check of the demazure-identity mutant
    monkeypatch.setattr(truncation, "demazure_pi", lambda datum, i, f: f)
    products = []
    real = truncation._assert_weyl_invariant
    monkeypatch.setattr(truncation, "_assert_weyl_invariant",
                        lambda datum, f: products.append(f) or real(datum, f))
    with pytest.raises(AssertionError, match="not Weyl-invariant"):
        full_character(a3, multiset({(1, 41): 1, (2, 0): 1}), check=True)
    # pi_{w_o} h passes and records a3; the product g * pi_{w_o} h fails
    assert [p._invariant_under for p in products] == [a3, None]
    with pytest.raises(DecompositionError, match="Weyl-invariant"):
        weyl_decompose(a3, products[1])


def test_racing_threads_share_one_verdict(a3):
    # the slot is set without a lock, only after a completed scan: threads
    # racing on one element at worst scan it twice, and none takes an
    # element some reflection moves for W-invariant
    ch = irreducible_character(a3, (2, 1, 2))
    moved = ch + e((1, 0, 0))
    results, refused = [], []

    def peel():
        results.append(weyl_decompose(a3, ch))
        try:
            weyl_decompose(a3, moved)
        except DecompositionError:
            refused.append(True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=peel) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [{(2, 1, 2): 1}] * 8 and len(refused) == 8
    assert ch._invariant_under is a3 and moved._invariant_under is None


def test_oversized_split_character_stops_at_the_product(monkeypatch):
    # both factors stay under the limit; their product, ch M(R), does not
    monkeypatch.setattr(limits, "MAX_TERMS", 1000)
    e6 = build_root_datum("E6", 6)
    with pytest.raises(LimitExceeded) as err:
        full_character(e6, multiset({(2, 1): 1, (3, 31): 1}))
    assert err.value.stage == "weightring.multiply"


# -- straightening -----------------------------------------------------------------


STRAIGHTEN_KINDS = ([("A", r) for r in range(1, 7)] + [("D", r) for r in (4, 5, 6)]
                    + [("E6", 6), ("E7", 7), ("E8", 8)] + [("GL", r) for r in range(2, 7)])


@pytest.mark.parametrize("kind,rank", STRAIGHTEN_KINDS)
def test_straighten_is_the_peel_on_invariants(kind, rank):
    # pi_{w_o} f = f for W-invariant f, so straightening a full character
    # decomposes it as the peel does
    datum = build_root_datum(kind, rank)
    rng = random.Random(40 + rank + len(kind))
    for _ in range(4):
        ch = full_character(datum, random_multiset(rng, datum, max_points=4,
                                                   c_lo=-6, c_hi=6, cap=3000))
        assert straighten(datum, ch).terms == weyl_decompose(datum, ch)


@pytest.mark.parametrize("kind,rank,points", [
    ("E7", 7, {(1, 0): 1, (7, 1): 1, (7, 35): 1}),
    ("E7", 7, {(7, 1): 2, (1, 30): 1}),
    ("E8", 8, {(8, 0): 1, (8, 40): 1}),
])
def test_straighten_is_the_peel_far_apart(kind, rank, points):
    # far-apart multisets too large to enumerate
    datum = build_root_datum(kind, rank)
    ch = full_character(datum, multiset(points))
    dec = straighten(datum, ch).terms
    assert dec == weyl_decompose(datum, ch) and len(dec) > 2


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 3), ("D", 4), ("E6", 6), ("GL", 3)])
def test_straighten_matches_brauer_klimyk_term_by_term(kind, rank):
    # elements that are not W-invariant: straighten is pi_{w_o} then the
    # peel, read term by term, refusing a negative multiplicity
    datum = build_root_datum(kind, rank)
    rng = random.Random(26)
    signs = set()
    for _ in range(40):
        f = random_element(rng, datum, terms=4)
        want = brauer_klimyk(datum, f.terms)
        signs.add(min(want.values(), default=0) < 0)
        if min(want.values(), default=0) < 0:
            with pytest.raises(DecompositionError, match="not a nonnegative"):
                straighten(datum, f)
        else:
            assert straighten(datum, f).terms == want
    assert signs == {False, True}


def test_straighten_off_gl():
    a1 = build_root_datum("A", 1)
    # pi_{w_o} e^(-2) = -ch V(0), and -1 + rho = 0 lies on the wall
    with pytest.raises(DecompositionError, match="coefficient -1 at \\(0,\\)"):
        straighten(a1, e((-2,)))
    assert straighten(a1, e((-1,))).is_zero()
    assert straighten(a1, e((-1,)) + e((3,))) == e((3,))
    # the top of the packed range plus rho leaves it
    with pytest.raises(ValueError, match="packed range"):
        straighten(a1, e((BIAS - 1,)))
    assert straighten(a1, e((BIAS - 2,))) == e((BIAS - 2,))


# -- the edges of the packed range -------------------------------------------------


def test_encode_range(a2):
    for x in (BIAS - 1, -BIAS):
        assert e((x, 0)).items() == [((x, 0), 1)]
        assert GroupAlgebraElement({(0, x): 3}).coefficient((0, x)) == 3
    for x in (BIAS, -BIAS - 1):
        with pytest.raises(ValueError):
            e((x, 0))
        with pytest.raises(ValueError):
            GroupAlgebraElement({(0, x): 1})


def test_overflow_raises_instead_of_wrapping(a2):
    big = BIAS - 1
    with pytest.raises(ValueError):   # s_1 (big, big) = (-big, 2 big)
        demazure_pi(a2, 1, e((big, big)))
    with pytest.raises(ValueError):   # far end of a negative string
        demazure_pi(a2, 1, e((-big, -big)))
    with pytest.raises(ValueError):
        e((big, 0)) * e((1, 0))
    with pytest.raises(ValueError):
        e((0, -BIAS)) * e((0, -1))
    # GL strings stay between w_i and w_(i+1), so they never leave the range
    gl2 = build_root_datum("GL", 2)
    for w in ((big, big - 3), (big - 3, big), (-BIAS, -BIAS + 3), (-BIAS + 3, -BIAS)):
        assert demazure_pi(gl2, 1, e(w)).terms == ref_demazure_pi(gl2, 1, {w: 1})


def test_errors_at_the_edges(a2):
    # a vertex the datum lacks, by name: A(i) is read as walls[i - 1], which
    # alone would read walls[-1] and walls[-2] for vertices 0 and -1
    for datum, vertices in [(a2, (0, -1, 3)), (build_root_datum("GL", 3), (0, -1, 3, 4))]:
        for i in vertices:
            with pytest.raises(ValueError, match=rf"^vertex {i} not in diagram$"):
                demazure_pi(datum, i, e((1,) + (0,) * (datum.rank - 1)))
    with pytest.raises(ValueError):   # weights of different lengths
        e((1, 0)) * e((1, 0, 0))
    with pytest.raises(ValueError):
        GroupAlgebraElement({(1, 0): 1, (1, 0, 0): 1})
    with pytest.raises(ValueError):   # weights of another rank
        demazure_pi(a2, 1, e((1, 0, 0)))


def ref_dominant_part(datum, lam):
    return {w: c for w, c in ref_apply_word(datum, datum.longest_word, {lam: 1}).items()
            if datum.is_dominant(w)}


def test_irreducible_cache_is_bounded(monkeypatch):
    # the cache holds the dominant-multiplicity tables of the peel
    cap = 5
    monkeypatch.setattr(limits, "IRR_CACHE_MAX_TERMS", cap)
    datum = RootDatum("A", 3)   # not the shared instance
    reference = build_root_datum("A", 3)
    tables = weightring._root_tables(datum).dominant
    inserted = []
    # (2,2,0) and (2,0,2) alone have more entries than the cap and are not kept
    for lam in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2), (1, 0, 1), (2, 0, 0),
                (2, 2, 0), (1, 0, 0), (2, 0, 2), (0, 1, 0)]:
        if lam not in tables:
            inserted.append(lam)
        assert dominant_multiplicities(datum, lam) == ref_dominant_part(reference, lam)
        held = [len(table) for table in tables.values()]
        kept = list(tables)
        # the newest entries that fit, oldest evicted first
        assert kept == inserted[len(inserted) - len(kept):]
        assert sum(held) <= cap
        if len(kept) < len(inserted):
            dropped = inserted[len(inserted) - len(kept) - 1]
            assert sum(held) + len(ref_dominant_part(reference, dropped)) > cap
    assert (2, 2, 0) not in tables and (2, 0, 2) not in tables
    dec = weyl_decompose(datum, irreducible_character(datum, (1, 0, 0))
                         * irreducible_character(datum, (0, 0, 1)))
    assert dec == {(1, 0, 1): 1, (0, 0, 0): 1}


# -- the dominant-only peel ------------------------------------------------------


PEEL_KINDS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("D", 4),
              ("D", 5), ("D", 6), ("E6", 6), ("E7", 7), ("GL", 2), ("GL", 3),
              ("GL", 4), ("GL", 5)]


def random_dominant(rng, datum, max_dim=600):
    """A dominant weight: at most two fundamental weights (and a power of
    det for GL), redrawn until dim V(lam) <= max_dim."""
    while True:
        lam = datum.zero
        for _ in range(rng.randint(0, 2)):
            lam = w_add(lam, datum.fundamentals[rng.choice(datum.vertices)])
        if datum.kind == "GL":
            lam = w_add(lam, (rng.randint(-1, 1),) * datum.rank)
        if datum.weyl_dimension(lam) <= max_dim:
            return lam


def random_invariant(rng, datum):
    """A nonnegative combination of irreducible characters, one in two
    times times a second, so that summands overlap."""
    f = GroupAlgebraElement({})
    for _ in range(rng.randint(1, 3)):
        f = f + rng.randint(1, 3) * irreducible_character(datum, random_dominant(rng, datum))
    if rng.random() < 0.5:
        f = f * irreducible_character(datum, random_dominant(rng, datum, max_dim=60))
    return f


@pytest.mark.parametrize("kind,rank", PEEL_KINDS)
def test_dominant_peel_matches_reference(kind, rank):
    datum = build_root_datum(kind, rank)
    rng = random.Random(70 + 10 * rank + len(kind))
    for _ in range(3):
        f = random_invariant(rng, datum)
        assert weyl_decompose(datum, f) == ref_weyl_decompose(datum, f.terms)


@pytest.mark.parametrize("kind,rank", PEEL_KINDS)
def test_dominant_multiplicities_match_demazure(kind, rank):
    datum = build_root_datum(kind, rank)
    rng = random.Random(90 + 10 * rank + len(kind))
    for _ in range(4):
        lam = random_dominant(rng, datum, max_dim=2000)
        assert dominant_multiplicities(datum, lam) == ref_dominant_part(datum, lam)


@pytest.mark.parametrize("kind,rank,lam", [
    ("A", 2, (7, 5)), ("A", 3, (2, 2, 2)), ("A", 4, (1, 1, 1, 1)),
    ("GL", 4, (6, 3, 1, 0)), ("GL", 5, (3, 2, 1, 1, -1)), ("D", 4, (2, 2, 0, 0)),
    ("E7", 7, (2, 0, 0, 0, 0, 0, 0)),
])
def test_dominant_multiplicities_with_many_dominant_weights(kind, rank, lam):
    # tables of 14 to 24 dominant weights, some reached only by subtracting
    # a non-simple root; and the 5 of an E7 module of dimension 7371
    datum = build_root_datum(kind, rank)
    assert dominant_multiplicities(datum, lam) == ref_dominant_part(datum, lam)


TABLE_KINDS = ([("A", r) for r in range(1, 7)] + [("D", r) for r in range(4, 7)]
               + [("E6", 6), ("E7", 7), ("E8", 8)] + [("GL", r) for r in range(1, 7)])


@pytest.mark.parametrize("kind,rank", TABLE_KINDS)
def test_root_tables_hold_the_packed_constants(kind, rank):
    # each field against the expression that built it before the table
    # named it: packed deltas as differences of encoded weights, masks bit
    # by bit
    datum = RootDatum(kind, rank)   # not the shared instance: empty caches
    n, bits = datum.rank, weightring.DIGIT_BITS
    tables = weightring._root_tables(datum)
    assert tables._fields == ("roots", "signs", "walls", "guard", "rho", "height",
                              "memo", "dominant")
    zero = weightring._encode(datum.zero)

    def delta(w):
        return weightring._encode(w) - zero
    assert tables.roots == tuple(
        (delta(root), coords, tuple(datum.pairing(j, root) for j in datum.vertices))
        for coords, root in datum.positive_roots)
    assert tables.walls == tuple((bits * (n - i), delta(datum.alphas[i]))
                                 for i in datum.vertices)
    assert tables.signs == (sum(1 << bits * k + bits - 1 for k in range(n - 1))
                            if kind == "GL" else sum(1 << bits * k + bits - 2 for k in range(n)))
    assert tables.guard == sum(1 << bits * k + bits - 1 for k in range(n))
    assert tables.rho == delta(datum.rho)
    assert tables.height == tuple((bits * (n - 1 - j), h)
                                  for j, h in enumerate(datum._height) if h)
    assert tables.memo == {} and tables.dominant == {} and tables.memo is not tables.dominant
    assert weightring._root_tables(datum) is tables
    # the height parts order seeded weights as datum.height does: they
    # differ from it by one constant
    rng = random.Random(90 + 10 * rank + len(kind))
    offsets = set()
    for _ in range(50):
        w = tuple(rng.randint(-BIAS, BIAS - 1) if rng.random() < 0.2 else rng.randint(-9, 9)
                  for _ in range(n))
        key = weightring._encode(w)
        offsets.add(sum(h * ((key >> sh) & weightring._MASK) for sh, h in tables.height)
                    - datum.height(w))
    assert len(offsets) == 1


def pairing_filter(datum, keys, n):
    """The dominant keys, found by testing every pairing <a_i^vee, w> >= 0."""
    out = list(keys)
    for i in datum.vertices:
        out = [k for k, m in zip(out, weightring._pairings(datum, i, out, n)) if m >= 0]
    return out


@pytest.mark.parametrize("kind,rank", [
    ("A", 1), ("A", 2), ("A", 5), ("D", 4), ("D", 6), ("E6", 6), ("E7", 7), ("E8", 8),
    ("GL", 1), ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)])
def test_sign_bit_dominance_matches_pairings(kind, rank):
    datum = build_root_datum(kind, rank)
    n = datum.rank
    rng = random.Random(40 + 10 * rank + len(kind))
    edges = (-BIAS, -1, 0, BIAS - 1)   # the ends of the legal range, and of the signs
    coords = edges + (-2, 1, 2, BIAS - 2)
    weights = set(itertools.product(edges, repeat=n)) if n <= 4 else set()
    for _ in range(400):
        w = [rng.choice(coords) for _ in range(n)]
        if rng.random() < 0.5:   # dominant more often than by chance
            w = sorted(w, reverse=True) if kind == "GL" else [x if x >= 0 else -x - 1 for x in w]
        weights.add(tuple(w))
    weights = sorted(weights, key=lambda w: rng.random())
    keys = [weightring._encode(w) for w in weights]
    want = pairing_filter(datum, keys, n)
    assert weightring._dominant_keys(datum, keys) == want
    assert want == [weightring._encode(w) for w in weights if datum.is_dominant(w)]
    # both outcomes are met, at the edges of the range too (GL_1 has no
    # wall: every weight is dominant)
    assert 0 < len(want) < len(keys) or (not datum.vertices and want == keys)
    assert any(-BIAS in weightring._decode(k, n) for k in want) == (kind == "GL")
    assert any(BIAS - 1 in weightring._decode(k, n) for k in want)


@pytest.mark.parametrize("n", [*range(2, 7), 16, 32])
def test_gl_sign_bit_dominance_matches_tuples(n):
    # the GL test subtracts the whole key, top digit included: against the
    # tuple order on seeded weights with negative coordinates and
    # coordinates at +-(BIAS - 1); the walk to the chamber sorts the tuple
    # with one reflection per inversion
    datum = build_root_datum("GL", n)
    rng = random.Random(70 + n)
    coords = (-(BIAS - 1), -BIAS // 2, -2, -1, 0, 1, 2, BIAS // 2, BIAS - 1)
    weights = set()
    for _ in range(300):
        w = [rng.choice(coords) for _ in range(n)]
        weights.add(tuple(sorted(w, reverse=True)) if rng.random() < 0.4 else tuple(w))
    weights = sorted(weights, key=lambda w: rng.random())
    keys = [weightring._encode(w) for w in weights]
    dominant = [w for w in weights if all(a >= b for a, b in zip(w, w[1:]))]
    assert 0 < len(dominant) < len(weights)
    assert {-(BIAS - 1), BIAS - 1} <= {x for w in dominant for x in w}
    assert weightring._dominant_keys(datum, keys) == [weightring._encode(w) for w in dominant]
    tables = weightring._root_tables(datum)
    for w, key in zip(weights, keys):
        inversions = sum(a < b for a, b in itertools.combinations(w, 2))
        assert weightring._dominant_key(datum, key, n, tables) == (
            weightring._encode(sorted(w, reverse=True)), inversions)


WALK_KINDS = ([("A", r) for r in range(1, 7)] + [("D", r) for r in (4, 5, 6)]
              + [("E6", 6), ("E7", 7), ("E8", 8)])


def negative_roots_count(datum, w):
    """#{beta > 0 : <beta^vee, w> < 0}, |N(w)|, in fundamental coordinates."""
    return sum(sum(c * x for c, x in zip(coords, w)) < 0 for coords, _ in datum.positive_roots)


def reflect_along(datum, word, w):
    for i in word:
        w = datum.reflect(i, w)
    return w


@pytest.mark.parametrize("kind,rank", WALK_KINDS)
def test_dominant_key_against_an_order_free_oracle(kind, rank):
    # whatever order of negative walls it takes, the walk ends at the one
    # dominant weight of the orbit after |N(w)| reflections: on seeded
    # weights, weights on walls, -rho, w_o of dominant weights, and orbits
    # of dominant lam with <theta^vee, lam> just below BIAS, theta the
    # highest root, which reach coordinates +-<theta^vee, lam>
    datum = build_root_datum(kind, rank)
    n = datum.rank
    tables = weightring._root_tables(datum)
    rng = random.Random(430 + 10 * rank + len(kind))
    coords_of = {root: coords for coords, root in datum.positive_roots}
    marks, theta = max(datum.positive_roots, key=lambda root: sum(root[0]))
    # a word u with u(theta) a simple root a_i: then <a_i^vee, u(lam)> is
    # <theta^vee, lam>, and s_i u(lam) has -<theta^vee, lam> there
    down, beta = [], theta
    while sum(coords_of[beta]) > 1:
        i = next(i for i in datum.vertices if datum.pairing(i, beta) > 0)
        down.append(i)
        beta = datum.reflect(i, beta)
    top = coords_of[beta].index(1) + 1
    weights = [tuple(-x for x in datum.rho)]
    for _ in range(60):
        w = random_weight(rng, datum, -4, 4)
        weights.append(tuple(0 if rng.random() < 0.4 else x for x in w))
        lam = tuple(max(x, 0) for x in weights[-1])
        weights.append(reflect_along(datum, datum.longest_word, lam))
    for _ in range(6):
        lam = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n)]
        j = rng.choice([j for j in range(n) if marks[j] == min(marks)])
        lam[j] += (BIAS - 1 - sum(map(operator.mul, marks, lam))) // marks[j]
        lam = tuple(lam)
        assert BIAS - max(marks) <= sum(map(operator.mul, marks, lam)) < BIAS
        far = reflect_along(datum, down, lam)
        weights += [far, datum.reflect(top, far), reflect_along(datum, datum.longest_word, lam)]
        for _ in range(8):
            word = [rng.choice(datum.vertices) for _ in range(rng.randint(1, 3 * n))]
            weights.append(reflect_along(datum, word, lam))
    extreme = max(abs(x) for w in weights for x in w)
    assert BIAS - max(marks) <= extreme < BIAS
    for w in weights:
        want = (weightring._encode(datum.dominant_representative(w)[0]),
                negative_roots_count(datum, w))
        assert weightring._dominant_key(datum, weightring._encode(w), n, tables) == want
    assert negative_roots_count(datum, weights[0]) == len(datum.positive_roots)


@pytest.mark.parametrize("kind,rank", [("A", 2), ("D", 4), ("E6", 6), ("GL", 3)])
def test_walk_leaving_the_packed_range_raises(kind, rank):
    # a walk from w_o(lam), lam legal and dominant, reflects at some step
    # at the wall whose pairing is -<theta^vee, lam>, theta the highest
    # root, in any order of negative walls; when <theta^vee, lam> >= BIAS
    # that step leaves the range, though both ends of the walk are legal
    datum = build_root_datum(kind, rank)
    n = datum.rank
    tables = weightring._root_tables(datum)
    big = BIAS - 1
    if kind == "GL":
        # s_i swaps two coordinates, so a GL walk stays legal: only a key
        # that enters illegal (the top of the range plus rho) is refused
        for w in [(-BIAS, big, -BIAS), (big, -BIAS, big), (0, -BIAS, big)]:
            key = weightring._encode(w)
            assert weightring._dominant_key(datum, key, n, tables)[0] == weightring._encode(
                sorted(w, reverse=True))
        with pytest.raises(ValueError, match="left the packed range"):
            weightring._dominant_key(datum, weightring._encode((big, 0, 0)) + tables.rho,
                                     n, tables)
        return
    marks = max(datum.positive_roots, key=lambda root: sum(root[0]))[0]
    lams = [(big,) * n, (big, 1) + (0,) * (n - 2), (1,) + (0,) * (n - 2) + (big,)]
    if kind == "A":   # the key of (-(BIAS - 1), -(BIAS - 1))
        assert reflect_along(datum, datum.longest_word, lams[0]) == (-big, -big)
    for lam in lams:
        assert sum(map(operator.mul, marks, lam)) >= BIAS
        key = weightring._encode(reflect_along(datum, datum.longest_word, lam))
        with pytest.raises(ValueError, match="left the packed range"):
            weightring._dominant_key(datum, key, n, tables)
        weightring._encode(lam)   # the dominant end is legal


@pytest.mark.parametrize("kind,rank,points", [
    ("A", 6, {(1, 1): 1, (2, 2): 1, (3, 3): 1, (6, 30): 1}),
    ("D", 6, {(1, 0): 1, (5, 22): 1, (5, 44): 1}),
    ("E6", 6, {(1, 0): 1, (1, 30): 1, (6, 60): 1}),
    ("E7", 7, {(1, 0): 1, (7, 1): 1, (7, 35): 1}),
    ("GL", 5, {(1, 1): 1, (2, 14): 1, (4, 30): 2}),
])
def test_peel_against_brauer_klimyk(kind, rank, points):
    # sizes where the Demazure-built oracle is too slow
    datum = build_root_datum(kind, rank)
    f = char_by_plan(datum, build_plan(datum, multiset(points)))
    dec = weyl_decompose(datum, pi_longest(datum, f))
    assert dec == brauer_klimyk(datum, f.terms)
    assert len(dec) > 2


@pytest.mark.parametrize("kind,rank", [("A", 2), ("D", 4), ("E6", 6), ("GL", 3)])
def test_peel_rejects_non_invariant_input(kind, rank):
    datum = build_root_datum(kind, rank)
    rng = random.Random(31)
    for _ in range(5):
        f = irreducible_character(datum, random_dominant(rng, datum))
        # a dominant weight off the W-orbits of f's terms, or one term
        # missing from an orbit
        extra = e(w_add(datum.fundamentals[1], datum.fundamentals[1]),
                  rng.choice([-1, 1])) * e(datum.fundamentals[1])
        for g in (f + extra, f - e(max(f.terms, key=datum.height))):
            if g.is_zero() or g == pi_longest(datum, g):
                continue
            with pytest.raises(DecompositionError, match="Weyl-invariant"):
                weyl_decompose(datum, g)


def orbit_sum(datum, lam):
    """The sum of e^w over the W-orbit of a dominant lam, breadth-first
    down from lam: any other weight w of the orbit has a wall i with
    <a_i^vee, w> < 0, so it is s_i of the weight s_i w, of positive pairing
    there.  Each layer is the set of these reflections of the last one not
    found before, so a weight reached twice in a layer is kept once."""
    walls = [(i, datum.alphas[i]) for i in datum.vertices]
    orbit, frontier = {lam}, {lam}
    while frontier:
        frontier = {tuple([x - m * a for x, a in zip(w, alpha)])
                    for w in frontier for i, alpha in walls
                    for m in (datum.pairing(i, w),) if m > 0} - orbit
        orbit |= frontier
    return GroupAlgebraElement(dict.fromkeys(orbit, 1))


def test_peel_stops_at_a_table_larger_than_its_input(gl3, monkeypatch):
    # an invariant element with one dominant term cannot hold V(lam) with
    # about 2500 dominant weights; the peel says so before enumerating them
    calls = []
    monkeypatch.setattr(weightring, "_freudenthal",
                        lambda *args: calls.append(args) or None)
    with pytest.raises(DecompositionError, match="more dominant weights"):
        weyl_decompose(gl3, orbit_sum(gl3, (50, 0, -50)))
    assert [cap for _, _, cap in calls] == [1]
    monkeypatch.undo()
    with pytest.raises(DecompositionError, match="more dominant weights"):
        weyl_decompose(gl3, orbit_sum(gl3, (50, 0, -50)))
    assert weyl_decompose(gl3, orbit_sum(gl3, (1, 0, -1)) + 3 * e((0, 0, 0))) == {
        (1, 0, -1): 1, (0, 0, 0): 1}


# -- the one-pass W-invariance verdict ----------------------------------------------


VERDICT_KINDS = ([("A", r) for r in range(1, 6)] + [("D", 4), ("D", 5)]
                 + [("E6", 6), ("E7", 7), ("E8", 8)] + [("GL", r) for r in range(1, 6)])


def scanned_moving(datum, f):
    """The per-vertex scan of ``_moving_vertices``, run without the verdict."""
    keys, walls = f._keys, weightring._root_tables(datum).walls
    return [i for i, (_, a) in zip(datum.vertices, walls) if not weightring._reflection_fixes(
        keys, a, weightring._pairings(datum, i, keys, datum.rank))]


def ref_invariant(datum, terms):
    """Whether every simple reflection fixes terms, on tuple weights."""
    return all(terms.get(datum.reflect(i, w)) == c for w, c in terms.items()
               for i in datum.vertices)


def invariant_elements(rng, datum):
    """Seeded W-invariant elements: zero, and irreducible characters,
    multiples of orbit sums, full characters and random_invariant's sums
    and products; for GL1, whose W is trivial, random elements."""
    out = [GroupAlgebraElement({})]
    if not datum.vertices:
        return out + [random_element(rng, datum, terms=6) for _ in range(6)]
    small = 300 if datum.kind == "E8" else 1000
    for _ in range(8):
        lam = random_dominant(rng, datum, max_dim=small)
        out += [irreducible_character(datum, lam),
                rng.choice((-2, 1, 3)) * orbit_sum(datum, lam),
                full_character(datum, random_multiset(rng, datum, max_points=2, cap=small))]
    return out + [random_invariant(rng, datum) for _ in range(2)]


def corruptions(rng, datum, f):
    """(kind, element) for seeded corruptions of an invariant f: a moved
    coefficient, a dropped term, its lowest term dropped (no lookup lands
    there, so only the orbit count sees it), a term added one wall away,
    and one orbit rescaled on all of its terms but one."""
    terms = f.terms
    if not terms:
        return [("added", e(random_weight(rng, datum)))]
    weights = sorted(terms)
    w, lowest = rng.choice(weights), min(weights, key=datum.height)
    moved = dict(terms)
    moved[w] += rng.choice([d for d in (-2, -1, 1, 2) if d != -terms[w]])
    out = [("moved", moved), ("dropped", {u: c for u, c in terms.items() if u != w}),
           ("lowest", {u: c for u, c in terms.items() if u != lowest})]
    if datum.vertices:
        alpha = w_scale(rng.choice((-1, 1)), datum.alphas[rng.choice(datum.vertices)])
        added = dict(terms)
        added[w_add(w, alpha)] = added.get(w_add(w, alpha), 0) + rng.choice((-1, 1))
        out.append(("added", added))
        orbit = sorted(orbit_sum(datum, rng.choice(
            [u for u in weights if datum.is_dominant(u)])).terms)
        if len(orbit) > 1:
            kept = rng.choice(orbit)
            out.append(("rescaled", {**terms, **{u: 2 * terms[u] for u in orbit if u != kept}}))
    return [(kind, GroupAlgebraElement(g)) for kind, g in out]


@pytest.mark.parametrize("kind,rank", VERDICT_KINDS)
def test_verdict_agrees_with_the_scan(kind, rank):
    # _orbits_closed decides W-invariance as the per-vertex scan does, on
    # invariant elements and on corruptions of each
    datum = build_root_datum(kind, rank)
    rng = random.Random(f"verdict {kind}{rank}")
    made, refused = Counter(), Counter()
    for f in invariant_elements(rng, datum):
        assert ref_invariant(datum, f.terms) and scanned_moving(datum, f) == []
        assert weightring._orbits_closed(datum, f)
        for name, g in corruptions(rng, datum, f):
            invariant = ref_invariant(datum, g.terms)
            assert weightring._orbits_closed(datum, g) == invariant
            assert weightring._moving_vertices(datum, g) == scanned_moving(datum, g)
            assert (scanned_moving(datum, g) == []) == invariant
            assert (g._invariant_under is datum) == invariant
            made[name] += 1
            refused[name] += not invariant
    if datum.vertices:
        # a corruption at a W-fixed weight (0, or a power of det) can keep
        # the element invariant; a part of an orbit never does
        assert refused["rescaled"] == made["rescaled"] > 0
        assert all(refused[name] for name in ("moved", "dropped", "lowest", "added"))
    else:
        assert not sum(refused.values())


def test_verdict_looks_up_each_nondominant_term_once_and_never_scans(monkeypatch):
    class Lookups(dict):
        count = 0

        def get(self, *args):
            Lookups.count += 1
            return super().get(*args)

    e7 = build_root_datum("E7", 7)
    ch = irreducible_character(e7, e7.fundamentals[7]) * irreducible_character(
        e7, e7.fundamentals[1])
    f = GroupAlgebraElement._of(Lookups(ch._keys), ch._n)
    # a per-vertex scan would call None
    monkeypatch.setattr(weightring, "_reflection_fixes", None)
    assert weightring._moving_vertices(e7, f) == [] and f._invariant_under is e7
    dominant = sum(map(e7.is_dominant, ch.terms))
    assert Lookups.count == len(ch._keys) - dominant and dominant > 0


def test_disagreeing_tests_raise(a3, monkeypatch):
    ch = irreducible_character(a3, (1, 0, 1))
    monkeypatch.setattr(weightring, "_orbits_closed", lambda datum, f: False)
    with pytest.raises(AssertionError, match="^the two W-invariance tests disagree$"):
        weyl_decompose(a3, ch)
    assert ch._invariant_under is None
    # a failed verdict on an element some reflection moves names them
    assert weightring._moving_vertices(a3, e((1, 0, 1))) == [1, 3]


ZERO_ONE_KINDS = ([("A", r) for r in range(1, 5)] + [("D", 4), ("D", 5), ("E6", 6)]
                  + [("GL", r) for r in range(1, 6)])


@pytest.mark.parametrize("kind,rank", ZERO_ONE_KINDS)
def test_orbit_sizes_against_orbit_sums(kind, rank):
    # |W lam| from Macdonald's formula, on every dominant weight with
    # coordinates 0 and 1, is the size of the orbit found breadth-first
    datum = build_root_datum(kind, rank)
    roots = weightring._root_tables(datum).roots
    weights = [lam for lam in itertools.product((0, 1), repeat=rank) if datum.is_dominant(lam)]
    assert len(weights) == (rank + 1 if kind == "GL" else 2 ** rank)
    for lam in weights:
        orbit = orbit_sum(datum, lam)
        off = [datum.pairing(i, lam) != 0 for i in datum.vertices]
        assert weightring._orbit_size(roots, off) == orbit.total()
        assert weightring._orbits_closed(datum, orbit)


def test_orbit_sizes_pinned():
    # |W| itself, at a weight on no wall
    for kind, rank, order in [("A", 1, 2), ("A", 5, 720), ("D", 4, 192), ("D", 5, 1920),
                              ("E6", 6, 51840), ("E7", 7, 2903040), ("E8", 8, 696729600),
                              ("GL", 1, 1), ("GL", 5, 120)]:
        datum = build_root_datum(kind, rank)
        off = [datum.pairing(i, datum.rho) != 0 for i in datum.vertices]
        assert weightring._orbit_size(weightring._root_tables(datum).roots, off) == order
    # E7's adjoint (the 126 roots) and minuscule (56) orbits
    e7 = build_root_datum("E7", 7)
    roots = weightring._root_tables(e7).roots
    for i, size in [(1, 126), (7, 56)]:
        off = [j == i for j in e7.vertices]
        assert weightring._orbit_size(roots, off) == size
        assert len(orbit_sum(e7, e7.fundamentals[i]).terms) == size


def test_dominant_multiplicities_rejects_bad_weights(a2, monkeypatch):
    monkeypatch.setattr(limits, "MAX_TERMS", 10)
    with pytest.raises(LimitExceeded):
        dominant_multiplicities(a2, (20, 20))
    monkeypatch.undo()
    with pytest.raises(ValueError):
        dominant_multiplicities(a2, (-1, 0))
    with pytest.raises(ValueError):
        dominant_multiplicities(a2, (1, 0, 0))


# -- the term limit ----------------------------------------------------------------


def test_term_limit(monkeypatch, a2):
    three, eight = irreducible_character(a2, (1, 0)), irreducible_character(a2, (1, 1))
    product = three * eight
    monkeypatch.setattr(limits, "MAX_TERMS", 5)
    with pytest.raises(LimitExceeded) as err:
        demazure_pi(a2, 1, e((6, 0)))        # a string of 7 terms
    assert (err.value.stage, err.value.limit, err.value.reached) == (
        "weightring.demazure_pi", 5, 7)
    with pytest.raises(LimitExceeded, match="multiply exceeded limit 5") as err:
        three * eight
    assert err.value.stage == "weightring.multiply" and err.value.reached > 5
    # at the limit itself nothing is raised
    assert len(demazure_pi(a2, 1, e((4, 0))).terms) == 5
    monkeypatch.setattr(limits, "MAX_TERMS", len(product.terms))
    assert three * eight == product


def test_term_limit_counts_strings_of_one_term(monkeypatch, a2):
    # a term of pairing 0 is a string of its own, one term of the image:
    # pi_1(e^0 + e^(1,0)) = e^0 + e^(1,0) + e^(-1,1), and the count that
    # the limit reads holds all three
    f = e((0, 0)) + e((1, 0))
    assert demazure_pi(a2, 1, f) == f + e((-1, 1))
    monkeypatch.setattr(limits, "MAX_TERMS", 2)
    with pytest.raises(LimitExceeded) as err:
        demazure_pi(a2, 1, f)
    assert (err.value.limit, err.value.reached) == (2, 3)


def test_term_limit_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(limits, "MAX_TERMS", 10)
    argv = ["character", "--cartan", "D", "--rank", "4", "--R", "[[1,0,1],[3,0,1]]"]
    assert cli.run(argv) == 3
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "limit-exceeded" and data["result"] is None
    message, detail = data["diagnostics"]
    assert "exceeded limit 10" in message
    assert detail["limit"] == 10 and detail["reached"] > 10
    assert detail["stage"] in ("weightring.demazure_pi", "weightring.multiply")


@pytest.mark.parametrize("kind,rank", [("A", "1"), ("GL", "2")])
def test_long_string_is_refused_before_it_is_written(capsys, kind, rank):
    # pi_{w_o} of e^(30000000 w_1) is one string of 30,000,001 terms
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = cli.run(["character", "--cartan", kind, "--rank", rank,
                        "--R", "[[1,1,30000000]]"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and elapsed < 1.0 and peak < 50 * 2**20
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "limit-exceeded"
    assert data["diagnostics"][1] == {"stage": "weightring.demazure_pi",
                                      "limit": limits.MAX_TERMS, "reached": 30_000_001}


def test_freudenthal_refuses_a_quotient_that_is_no_positive_integer(monkeypatch):
    # the formula's quotient at 0 in the adjoint A2 module is 2 * 6 / 6;
    # with 2 alpha_1 read as dominant (1,1) its alpha_1 string holds one
    # more term, and the quotient is 20/6, and with every string ended at
    # once the sum is 0: each is refused, at 0 in V(1,1)
    real = weightring._dominant_key
    top, doubled = weightring._encode((1, 1)), weightring._encode((4, -2))
    for wrong, quotient in [(lambda key: (top, 0) if key == doubled else None, "20/6"),
                            (lambda key: (0, 0), "0/6")]:
        datum = RootDatum("A", 2)   # not the shared instance: a fresh memo
        monkeypatch.setattr(weightring, "_dominant_key",
                            lambda datum, key, *rest: wrong(key) or real(datum, key, *rest))
        with pytest.raises(AssertionError, match=rf"gives {quotient} at \(0, 0\) in V\(1,1\)$"):
            weightring._freudenthal(datum, (1, 1), 10)


def test_dominant_memo_is_cleared_when_full(monkeypatch):
    monkeypatch.setattr(limits, "DOMINANT_MEMO_MAX", 3)
    datum = RootDatum("A", 3)   # not the shared instance: a fresh memo
    reference = build_root_datum("A", 3)
    memo = weightring._root_tables(datum).memo
    walks = []
    dominant_key = weightring._dominant_key
    monkeypatch.setattr(weightring, "_dominant_key",
                        lambda *args: walks.append(args[1]) or dominant_key(*args))
    for lam in [(2, 1, 0), (1, 1, 1), (3, 0, 1), (2, 0, 2)]:
        assert dominant_multiplicities(datum, lam) == ref_dominant_part(reference, lam)
        assert 0 < len(memo) <= 3
    assert len(set(walks)) > 3   # more keys than the memo holds: it was cleared
    f = irreducible_character(reference, (2, 0, 1)) * irreducible_character(reference, (0, 1, 1))
    assert weyl_decompose(datum, f) == ref_weyl_decompose(reference, f.terms)
