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
"""

import random

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.product import decompose, multiset
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
