import json
import random
import time
import tracemalloc

import pytest

from pmcrystal import cli, weightring
from pmcrystal.cartan import (LimitExceeded, RootDatum, build_root_datum, w_add, w_scale,
                              w_sub)
from pmcrystal.product import multiset, weight_of_multiset
from pmcrystal.truncation import build_plan, full_character, truncation_character
from pmcrystal.weightring import (BIAS, DecompositionError, GroupAlgebraElement,
                                  apply_word, demazure_pi, dominant_multiplicities,
                                  e, irreducible_character, laurent_str, pi_longest,
                                  weyl_decompose)
from conftest import random_element, random_weight
from reference import demazure_character, key_decompose


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


def ref_full_character(datum, r):
    """char_by_plan and pi_{w_o} folded on tuple weights."""
    ch = {datum.zero: 1}
    for kind, payload in build_plan(datum, r).steps:
        if kind == "extend":
            ch = ref_demazure_pi(datum, payload[0], ch)
        else:
            ch = ref_mul({weight_of_multiset(datum, payload): 1}, ch)
    return ref_apply_word(datum, datum.longest_word, ch)


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
    assert (pi_longest(datum, f, check=False).terms
            == ref_apply_word(datum, datum.longest_word, f.terms))


@pytest.mark.parametrize("kind,rank", KINDS)
def test_packed_pi_cancelling_terms(kind, rank):
    # pi_i e^(s_i w - a_i) = -pi_i e^w when <a_i^vee, w> >= 0
    datum = build_root_datum(kind, rank)
    rng = random.Random(50 + rank)
    for _ in range(10):
        i = rng.choice(datum.vertices)
        w = tuple(rng.randint(-3, 3) for _ in range(datum.lattice_rank))
        if datum.pairing(i, w) < 0:
            w = datum.reflect(i, w)
        partner = w_sub(datum.reflect(i, w), datum.alphas[i])
        other = tuple(rng.randint(-3, 3) for _ in range(datum.lattice_rank))
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
        if datum.det is not None:
            w = w_add(w, w_scale(rng.randint(-2, 2), datum.det))
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
    with pytest.raises(ValueError):   # a vertex the datum lacks
        demazure_pi(a2, 3, e((1, 0)))
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
    monkeypatch.setattr(weightring, "IRR_CACHE_MAX_TERMS", cap)
    datum = RootDatum("A", 3)   # not the shared instance
    reference = build_root_datum("A", 3)
    inserted = []
    # (2,2,0) and (2,0,2) alone have more entries than the cap and are not kept
    for lam in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 2), (1, 0, 1), (2, 0, 0),
                (2, 2, 0), (1, 0, 0), (2, 0, 2), (0, 1, 0)]:
        if lam not in datum._irr_cache:
            inserted.append(lam)
        assert dominant_multiplicities(datum, lam) == ref_dominant_part(reference, lam)
        held = [len(table) for table in datum._irr_cache.values()]
        kept = list(datum._irr_cache)
        # the newest entries that fit, oldest evicted first
        assert kept == inserted[len(inserted) - len(kept):]
        assert sum(held) <= cap
        if len(kept) < len(inserted):
            dropped = inserted[len(inserted) - len(kept) - 1]
            assert sum(held) + len(ref_dominant_part(reference, dropped)) > cap
    assert (2, 2, 0) not in datum._irr_cache and (2, 0, 2) not in datum._irr_cache
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
        if datum.det is not None:
            k = rng.randint(-1, 1)
            lam = w_add(lam, tuple(k * x for x in datum.det))
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
])
def test_dominant_multiplicities_with_many_dominant_weights(kind, rank, lam):
    # tables of 14 to 24 dominant weights, some reached only by subtracting
    # a non-simple root
    datum = build_root_datum(kind, rank)
    assert dominant_multiplicities(datum, lam) == ref_dominant_part(datum, lam)


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
    f = truncation_character(datum, multiset(points))
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
            if g.is_zero() or g == pi_longest(datum, g, check=False):
                continue
            with pytest.raises(DecompositionError, match="Weyl-invariant"):
                weyl_decompose(datum, g)


def orbit_sum(datum, lam):
    orbit, frontier = {lam}, [lam]
    while frontier:
        frontier = [datum.reflect(i, w) for w in frontier for i in datum.vertices]
        frontier = [w for w in frontier if w not in orbit]
        orbit.update(frontier)
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


def test_dominant_multiplicities_rejects_bad_weights(a2, monkeypatch):
    monkeypatch.setattr(weightring, "MAX_TERMS", 10)
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
    monkeypatch.setattr(weightring, "MAX_TERMS", 5)
    with pytest.raises(LimitExceeded) as err:
        demazure_pi(a2, 1, e((6, 0)))        # a string of 7 terms
    assert (err.value.stage, err.value.limit, err.value.reached) == (
        "weightring.demazure_pi", 5, 7)
    with pytest.raises(LimitExceeded, match="multiply exceeded limit 5") as err:
        three * eight
    assert err.value.stage == "weightring.multiply" and err.value.reached > 5
    # at the limit itself nothing is raised
    assert len(demazure_pi(a2, 1, e((4, 0))).terms) == 5


def test_term_limit_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(weightring, "MAX_TERMS", 10)
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
                                      "limit": weightring.MAX_TERMS, "reached": 30_000_001}
