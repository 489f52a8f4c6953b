import random

import pytest

from pmcrystal.cartan import RootDatum, build_root_datum, w_add, w_sub
from pmcrystal.limits import MAX_RANK
from conftest import random_weight
from reference import diagram_dual, ref_positive_roots


def test_a2_cartan_matrix(a2):
    matrix = [[a2.pairing(i, a2.alphas[j]) for j in a2.vertices] for i in a2.vertices]
    assert matrix == [[2, -1], [-1, 2]]


def test_gl4_epsilon_basis(gl4):
    assert gl4.fundamentals[1] == (1, 0, 0, 0)
    assert gl4.fundamentals[2] == (1, 1, 0, 0)
    assert gl4.fundamentals[3] == (1, 1, 1, 0)
    assert gl4.alphas[2] == (0, 1, -1, 0)
    # (w_1, ..., w_{n-1}, det) is a lattice basis: e_i are integer combinations
    assert w_sub(gl4.fundamentals[2], gl4.fundamentals[1]) == (0, 1, 0, 0)
    assert w_sub((1,) * gl4.rank, gl4.fundamentals[3]) == (0, 0, 0, 1)


def test_d4_shape(d4):
    assert d4.neighbours[2] == (1, 3, 4)
    classes = {0: set(), 1: set()}
    for i in d4.vertices:
        classes[d4.parity[i]].add(i)
    assert {frozenset(v) for v in classes.values()} == {frozenset({2}), frozenset({1, 3, 4})}


@pytest.mark.parametrize("kind,rank", [("A", 0), ("D", 3), ("E6", 7), ("GL", 0), ("F", 4),
                                       ("A", 33), ("D", 33), ("GL", 33), ("A", 100000)])
def test_invalid_data_rejected(kind, rank):
    with pytest.raises(ValueError):
        build_root_datum(kind, rank)


@pytest.mark.parametrize("kind", ["E6", "E7", "E8"])
def test_exceptional_rank_is_named(kind):
    with pytest.raises(ValueError, match=f"type {kind} has fixed rank {kind[1]}$"):
        build_root_datum(kind, 5)


def test_rank_ceiling_is_inclusive():
    # the largest accepted rank still builds
    datum = RootDatum("GL", MAX_RANK)
    assert datum.rank == MAX_RANK and len(datum.vertices) == MAX_RANK - 1
    # and is shared through the datum cache, as every rank below it is
    assert build_root_datum("GL", MAX_RANK) is build_root_datum("GL", MAX_RANK)
    with pytest.raises(ValueError, match="MAX_RANK"):
        RootDatum("GL", MAX_RANK + 1)


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 4), ("D", 5), ("E6", 6),
                                       ("E7", 7), ("E8", 8), ("GL", 5)])
def test_parity_is_proper_colouring(kind, rank):
    datum = build_root_datum(kind, rank)
    edges = [(a, b) for a in datum.vertices for b in datum.neighbours[a]]
    assert len(edges) == 2 * (len(datum.vertices) - 1)  # a tree, each edge both ways
    for a, b in edges:
        assert datum.parity[a] != datum.parity[b]


def test_pairing_basics(a2, gl4):
    assert a2.pairing(1, a2.fundamentals[1]) == 1
    assert a2.pairing(1, a2.alphas[2]) == -1
    det = (1,) * gl4.rank
    for i in gl4.vertices:
        assert gl4.pairing(i, det) == 0


def test_simple_reflection(a2, gl3):
    w1 = a2.fundamentals[1]
    assert a2.reflect(1, w1) == w_sub(w1, a2.alphas[1])
    # GL_3: s_1 swaps eps_1, eps_2 and fixes eps_3
    assert gl3.reflect(1, (5, 2, 7)) == (2, 5, 7)
    rng = random.Random(1)
    for _ in range(25):
        w = random_weight(rng, a2)
        for i in a2.vertices:
            assert a2.reflect(i, a2.reflect(i, w)) == w
            assert a2.pairing(i, a2.reflect(i, w)) == -a2.pairing(i, w)


def test_dominant_representative(gl3, a3):
    dom, word = gl3.dominant_representative((1, 2, 0))
    assert dom == (2, 1, 0) and word == (1,)
    dom, word = gl3.dominant_representative((0, 1, 2))
    assert dom == (2, 1, 0) and len(word) == 3
    w = a3.fundamentals[2]
    assert a3.dominant_representative(w) == (w, ())
    # replaying the word right-to-left on the dominant weight recovers the input
    rng = random.Random(2)
    for _ in range(25):
        w = random_weight(rng, a3)
        dom, word = a3.dominant_representative(w)
        assert a3.is_dominant(dom)
        cur = dom
        for i in reversed(word):
            cur = a3.reflect(i, cur)
        assert cur == w


@pytest.mark.parametrize("kind,rank,roots", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("D", 4, 12),
    ("E6", 6, 36), ("GL", 4, 6),
])
def test_longest_word_length_is_root_count(kind, rank, roots):
    datum = build_root_datum(kind, rank)
    # positive roots are closed independently from the greedy descent
    assert len(datum.positive_roots) == roots
    assert len(datum.longest_word) == roots


@pytest.mark.parametrize("kind,rank", [("A", r) for r in range(1, 9)]
                         + [("D", r) for r in range(4, 9)]
                         + [("E6", 6), ("E7", 7), ("E8", 8)]
                         + [("GL", r) for r in range(1, 8)]
                         + [("A", 32), ("D", 32), ("GL", 32)])
def test_positive_roots_match_reflection_closure(kind, rank):
    # simple steps at -1 pairings against the closure under all reflections
    datum = build_root_datum(kind, rank)
    assert datum.positive_roots == ref_positive_roots(datum)


def test_longest_word_is_reduced_descent(a2):
    assert len(a2.longest_word) == 3
    # w_o sends rho to -rho in a semisimple type
    cur = a2.rho
    for i in a2.longest_word:
        cur = a2.reflect(i, cur)
    assert cur == tuple(-x for x in a2.rho)


def ref_greedy_descent_word(datum):
    """A reduced word for w_o by greedy descent from rho to the
    antidominant chamber (the construction the library used before it
    took the ascent from -rho)."""
    word, cur = [], datum.rho
    while True:
        for i in datum.vertices:
            if datum.pairing(i, cur) > 0:
                cur = datum.reflect(i, cur)
                word.append(i)
                break
        else:
            return tuple(word)


@pytest.mark.parametrize("kind,rank", [("A", r) for r in range(1, 9)]
                         + [("D", r) for r in range(4, 9)]
                         + [("E6", 6), ("E7", 7), ("E8", 8)]
                         + [("GL", r) for r in range(1, 8)])
def test_longest_word_matches_greedy_descent(kind, rank):
    datum = build_root_datum(kind, rank)
    assert datum.longest_word == ref_greedy_descent_word(datum)


def test_weyl_dimension(a2, a3, gl4):
    assert a2.weyl_dimension(a2.fundamentals[1]) == 3
    assert a2.weyl_dimension(w_add(a2.fundamentals[1], a2.fundamentals[2])) == 8
    assert a3.weyl_dimension(a3.fundamentals[2]) == 6
    assert gl4.weyl_dimension((1, 1, 0, 0)) == 6
    assert gl4.weyl_dimension((2, 1, 1, 0)) == 15


def test_longest_word_rank_one():
    a1 = build_root_datum("A", 1)
    assert a1.longest_word == (1,)
    gl1 = build_root_datum("GL", 1)
    assert gl1.longest_word == () and gl1.vertices == ()


@pytest.mark.parametrize("kind,rank", [("A", r) for r in range(1, 6)]
                         + [("D", r) for r in range(4, 7)]
                         + [("E6", 6), ("E7", 7), ("E8", 8)]
                         + [("GL", r) for r in range(2, 6)])
def test_height_is_positive_on_positive_roots(kind, rank):
    datum = build_root_datum(kind, rank)
    simple = 1 if kind == "GL" else 2
    assert all(datum.height(datum.alphas[i]) == simple for i in datum.vertices)
    for coords, root in datum.positive_roots:
        assert datum.height(root) == simple * sum(coords) > 0


DUAL_KINDS = ([("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 10)]
              + [("E6", 6), ("E7", 7), ("E8", 8)] + [("GL", r) for r in range(1, 10)])


@pytest.mark.parametrize("kind,rank", DUAL_KINDS)
def test_dual_is_the_diagram_involution(kind, rank):
    datum = build_root_datum(kind, rank)
    dual = datum.dual
    assert dual == diagram_dual(kind, rank)
    assert sorted(dual) == list(datum.vertices)
    for i in datum.vertices:
        assert dual[dual[i]] == i
        assert sorted(dual[j] for j in datum.neighbours[i]) == list(datum.neighbours[dual[i]])


@pytest.mark.parametrize("kind,rank", DUAL_KINDS)
def test_dual_is_minus_longest_element(kind, rank):
    # w_o w_i = -w_{i*}, with w_o applied letter by letter along longest_word;
    # for GL_n, w_o w_i = eps_{n-i+1} + ... + eps_n = det - w_{i*}
    datum = build_root_datum(kind, rank)
    for i in datum.vertices:
        cur = datum.fundamentals[i]
        for j in datum.longest_word:
            cur = datum.reflect(j, cur)
        det = (1,) * rank if kind == "GL" else datum.zero
        assert w_add(cur, datum.fundamentals[datum.dual[i]]) == det
