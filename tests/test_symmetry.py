"""Symmetry relations of M(R), which need no oracle.

Both routes of ``decompose`` read the involution i -> i* (-w_o w_i =
w_{i*}) from ``cartan``, so route agreement cannot see an error in it.
Duality can: mapping R by (i, c) -> (i*, -c) maps the decomposition of
M(R) by lam -> lam* = sum_i lam_i w_{i*}.  i* is an automorphism of the
Dynkin diagram, so it keeps the two-colouring or swaps it on every
vertex at once; when it swaps it, every level is shifted by 1 to land
back on the parity grid (the crystal structure reads only differences of
levels).  i* comes here from the diagram (``diagram_dual``), not from
``RootDatum.dual``.

Two more relations need no i* at all.  Translation: raising every level
of R by 2 changes no difference of levels, so M(R) has the same
decomposition and the same character.  Diagram automorphisms: for every
automorphism sigma of the Dynkin diagram, (i, c) -> (sigma i, c + shift)
maps M(R) onto M(sigma R) with every weight mapped by w_i -> w_{sigma i},
the shift being 1 when sigma swaps the two-colouring.  The automorphisms
are found here by trying every permutation of the vertices against the
diagram's edges as Bourbaki draws them (planches I, IV-VII), not read from
``cartan``: the A_n flip, the D_n swap of n-1 and n, all of S_3 on D4
(triality) and the E6 flip.  Each relation is checked on ``decompose``
and on ``full_character``, the ``character`` command's route.
"""

import itertools
import random

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.product import decompose, multiset
from pmcrystal.truncation import full_character
from conftest import random_multiset
from reference import diagram_dual

DUALITY_KINDS = [("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E6", 6)]
CASES = 40  # seeded multisets per datum


@pytest.mark.parametrize("kind,rank", DUALITY_KINDS)
def test_duality_maps_the_decomposition(kind, rank):
    datum = build_root_datum(kind, rank)
    star = diagram_dual(kind, rank)
    shifts = {(datum.parity[star[i]] - datum.parity[i]) % 2 for i in datum.vertices}
    assert len(shifts) == 1
    shift = shifts.pop()
    rng = random.Random(140 + 10 * len(kind) + rank)
    for _ in range(CASES):
        r = random_multiset(rng, datum, max_points=3, c_lo=-3, c_hi=3, cap=20000)
        dual_r = multiset({(star[i], shift - c): m for (i, c), m in r.points})
        expected = {tuple(lam[star[j] - 1] for j in datum.vertices): m
                    for lam, m in decompose(datum, r).items()}
        assert decompose(datum, dual_r) == expected, r


def dynkin_edges(kind, rank):
    """The Dynkin diagram's edges in Bourbaki's numbering: A_n a chain, D_n
    a chain 1..n-1 with n joined to n-2, E_n the chain 1-3-4-...-n with 2
    joined to 4.  GL_n has the diagram of A_{n-1}."""
    if kind in ("A", "GL"):
        n = rank if kind == "A" else rank - 1
        return {frozenset((i, i + 1)) for i in range(1, n)}
    if kind == "D":
        return {frozenset((i, i + 1)) for i in range(1, rank - 1)} | {frozenset((rank - 2, rank))}
    chain = [1] + list(range(3, rank + 1))
    return {frozenset(pair) for pair in zip(chain, chain[1:])} | {frozenset((2, 4))}


def automorphisms(kind, rank):
    """Every permutation of the vertices that keeps the edges, the identity
    left out, each as a dict i -> sigma i."""
    edges = dynkin_edges(kind, rank)
    vertices = sorted(set().union(*edges))
    out = []
    for image in itertools.permutations(vertices):
        sigma = dict(zip(vertices, image))
        if image != tuple(vertices) and {frozenset(map(sigma.get, e)) for e in edges} == edges:
            out.append(sigma)
    return out


def colouring_shift(kind, rank, sigma):
    """1 when sigma swaps the two-colouring of the diagram, 0 when it keeps
    it (a connected diagram has one colouring up to the swap)."""
    edges = dynkin_edges(kind, rank)
    colour, todo = {1: 0}, [1]
    while todo:
        i = todo.pop()
        for e in edges:
            if i in e:
                (j,) = e - {i}
                if j not in colour:
                    colour[j] = 1 - colour[i]
                    todo.append(j)
    shifts = {(colour[sigma[i]] - colour[i]) % 2 for i in colour}
    assert len(shifts) == 1
    return shifts.pop()


def test_automorphisms_are_the_known_groups():
    assert [sorted(s.items()) for s in automorphisms("A", 4)] == [
        [(1, 4), (2, 3), (3, 2), (4, 1)]]
    assert automorphisms("A", 1) == [] and automorphisms("E7", 7) == []
    assert automorphisms("E8", 8) == []
    assert automorphisms("D", 6) == [{1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 5}]
    assert automorphisms("E6", 6) == [{1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}]
    d4 = automorphisms("D", 4)
    assert len(d4) == 5 and all(s[2] == 2 for s in d4)
    assert {1: 3, 2: 2, 3: 4, 4: 1} in d4  # triality
    assert [colouring_shift("A", n, automorphisms("A", n)[0]) for n in (2, 3, 4, 5)] == [
        1, 0, 1, 0]
    assert {colouring_shift("D", 4, s) for s in d4} == {0}


def mapped(sigma, weights):
    """{sigma w: m}: the weight sum_i w_i w_{sigma i}, in fundamental
    coordinates, for each weight w."""
    out = {}
    for w, m in weights.items():
        image = [0] * len(w)
        for i, x in enumerate(w, start=1):
            image[sigma[i] - 1] = x
        out[tuple(image)] = m
    return out


def one_vertex_multiset(rng, datum, vertex):
    """One or two points on ``vertex`` (E7's 56- or E8's 248-dimensional
    one), total multiplicity at most 2, so M(R) has at most 248^2
    elements; a fixed number of draws."""
    levels = [datum.parity[vertex] + 2 * rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
    out = {}
    for c in levels:
        out[(vertex, c)] = out.get((vertex, c), 0) + 1
    return multiset(out)


TRANSLATION_KINDS = [("A", 3), ("A", 5), ("D", 4), ("D", 6), ("E6", 6), ("GL", 4), ("GL", 5)]


@pytest.mark.parametrize("kind,rank", TRANSLATION_KINDS)
def test_translation_keeps_decomposition_and_character(kind, rank):
    datum = build_root_datum(kind, rank)
    rng = random.Random(480 + 10 * len(kind) + rank)
    for _ in range(24):
        r = random_multiset(rng, datum, max_points=3, c_lo=-3, c_hi=3, cap=20000)
        raised = multiset({(i, c + 2): m for (i, c), m in r.points})
        assert decompose(datum, raised) == decompose(datum, r), r
        assert full_character(datum, raised).terms == full_character(datum, r).terms, r


@pytest.mark.parametrize("kind,rank,vertex,cases", [("E7", 7, 7, 16), ("E8", 8, 8, 4)])
def test_translation_on_e7_and_e8(kind, rank, vertex, cases):
    datum = build_root_datum(kind, rank)
    rng = random.Random(500 + rank)
    for _ in range(cases):
        r = one_vertex_multiset(rng, datum, vertex)
        raised = multiset({(i, c + 2): m for (i, c), m in r.points})
        assert decompose(datum, raised) == decompose(datum, r), r
        assert full_character(datum, raised).terms == full_character(datum, r).terms, r


AUTOMORPHISM_KINDS = [("A", 3), ("A", 4), ("D", 4), ("D", 5), ("D", 6), ("E6", 6)]


@pytest.mark.parametrize("kind,rank", AUTOMORPHISM_KINDS)
def test_diagram_automorphisms_map_decomposition_and_character(kind, rank):
    datum = build_root_datum(kind, rank)
    sigmas = automorphisms(kind, rank)
    assert sigmas
    rng = random.Random(520 + 10 * len(kind) + rank)
    for _ in range(16):
        r = random_multiset(rng, datum, max_points=3, c_lo=-3, c_hi=3, cap=20000)
        dec, ch = decompose(datum, r), full_character(datum, r).terms
        for sigma in sigmas:
            shift = colouring_shift(kind, rank, sigma)
            moved = multiset({(sigma[i], c + shift): m for (i, c), m in r.points})
            assert decompose(datum, moved) == mapped(sigma, dec), (r, sigma)
            assert full_character(datum, moved).terms == mapped(sigma, ch), (r, sigma)
