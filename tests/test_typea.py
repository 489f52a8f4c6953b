import random
from fractions import Fraction
from math import gcd

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.crystal import highest_weights
from pmcrystal.product import multiset, product_crystal
from pmcrystal.truncation import build_plan, char_by_plan
from pmcrystal.typea import (centraliser_order, check_sequence,
                             class_representative, compose,
                             diagram_of_sequence, flagged_schur_char, invert,
                             lr_skew_expand, multiset_of_sequence,
                             partitions_of, psi_embed, restrict_coeffs,
                             schur_decompose, sequence_of_diagram,
                             sequence_of_multiset, skew_normalise,
                             specht_decompose_bruteforce, stable_bound,
                             stable_coeffs, sym_character, young_symmetriser)
from pmcrystal.weightring import e, laurent_str

FIVE_BOX = frozenset({(1, 1), (2, 2), (3, 2), (2, 3), (4, 3)})
STAIRCASE_SEQ = ((1,), (1,), (2, 1, 1))


def random_sequence(rng, max_len=4, max_boxes=3):
    seq = []
    for i in range(1, rng.randint(1, max_len) + 1):
        parts = [p for p in partitions_of(rng.randint(0, max_boxes))
                 if len(p) <= i]
        seq.append(rng.choice(parts))
    return check_sequence(seq)


# -- diagrams ------------------------------------------------------------------


def test_diagram_of_five_step_sequence():
    seq = ((), (1, 1), (2, 1), (1, 1, 1, 1), (2, 1, 1))
    # the five-step diagram, row by row
    assert diagram_of_sequence(seq) == frozenset({
        (1, 5), (1, 6),
        (2, 4), (2, 5),
        (3, 2), (3, 3), (3, 4), (3, 5),
        (4, 1), (4, 2), (4, 4),
        (5, 1), (5, 4),
    })


def test_diagram_of_sequence_shapes():
    assert diagram_of_sequence(((3,),)) == frozenset({(1, 1), (1, 2), (1, 3)})
    stair = diagram_of_sequence(STAIRCASE_SEQ)
    cols = {}
    for r, c in stair:
        cols.setdefault(c, []).append(r)
    # one column of height three plus three singletons, as in the non-skew
    # staircase (up to the row order of the singleton columns)
    assert sorted(len(v) for v in cols.values()) == [1, 1, 1, 3]
    assert len(stair) == 6


def test_sequence_of_diagram_roundtrip():
    rng = random.Random(21)
    for _ in range(10):
        seq = random_sequence(rng)
        boxes = diagram_of_sequence(seq)
        back = sequence_of_diagram(boxes)
        assert diagram_of_sequence(back) == boxes


def test_sequence_of_diagram_convexifies():
    assert sequence_of_diagram(FIVE_BOX) == ((), (1, 1), (1, 1), (1,))


def test_sequence_of_diagram_rejects_non_positive_or_non_integer_boxes():
    # a row below 1 was once dropped, leaving a smaller diagram
    for boxes in ({(0, 1), (-1, 1), (1, 2)}, {(1, 0)}, {(1.5, 1)}, {(True, 1)}):
        with pytest.raises(ValueError):
            sequence_of_diagram(boxes)


# -- sequences <-> multisets ----------------------------------------------------


def test_multiset_of_five_step_sequence():
    seq = ((), (1, 1), (2, 1), (1, 1, 1, 1), (2, 1, 1))
    r, j, n = multiset_of_sequence(seq)
    assert dict(r.points) == {(2, -2): 1, (1, -5): 1, (2, -4): 1,
                              (4, -4): 1, (1, -9): 1, (3, -7): 1}
    assert n == 5
    assert j.thresholds == tuple(k - 10 for k in range(1, 5))
    assert j.contains_all(r.support())


def test_multiset_of_sequence_trivial():
    r, j, n = multiset_of_sequence(((), (), ()))
    assert r.is_empty()
    # J(empty sequence prefix) stays the complement of down({(1,-1)})
    r0, j0, _ = multiset_of_sequence(())
    assert r0.is_empty() and j0.thresholds == ()


def test_sequence_multiset_roundtrip():
    rng = random.Random(22)
    for _ in range(12):
        seq = random_sequence(rng)
        while seq and not seq[-1]:
            seq = seq[:-1]  # trailing empty partitions do not register
        r, _, _ = multiset_of_sequence(seq)
        assert sequence_of_multiset(r) == seq


def test_decomposition_shift_invariant():
    rng = random.Random(23)
    for _ in range(4):
        seq = random_sequence(rng, max_len=3, max_boxes=2)
        r, _, n = multiset_of_sequence(seq)
        if r.is_empty():
            continue
        datum = build_root_datum("GL", max(n, r.max_vertex() + 1))
        from pmcrystal.product import decompose
        assert decompose(datum, r) == decompose(datum, r.shifted(2))


def test_gl6_strip_reading():
    r = multiset({(1, 5): 1, (3, 1): 1, (4, 6): 1})
    assert sequence_of_multiset(r) == ((), (), (1,), (1, 1, 1, 1), (), (1, 1, 1))


# -- characters ------------------------------------------------------------------


def test_flagged_schur_char_staircase(gl3):
    ch = flagged_schur_char(STAIRCASE_SEQ, 3)
    expected = (e((4, 1, 1)) + e((2, 3, 1)) + 2 * e((3, 2, 1))
                + e((3, 1, 2)) + e((2, 2, 2)))
    assert ch == expected
    assert laurent_str(gl3, ch) == \
        "x1^4*x2*x3 + 2*x1^3*x2^2*x3 + x1^3*x2*x3^2 + x1^2*x2^3*x3 + x1^2*x2^2*x3^2"


def test_flagged_schur_char_empty():
    from pmcrystal.weightring import GroupAlgebraElement
    datum = build_root_datum("GL", 2)
    assert flagged_schur_char((), 2) == GroupAlgebraElement.unit(datum)


def test_flagged_equals_plan_character():
    rng = random.Random(24)
    for _ in range(8):
        seq = random_sequence(rng, max_len=3, max_boxes=2)
        r, j, n = multiset_of_sequence(seq)
        datum = build_root_datum("GL", n)
        plan = build_plan(datum, r, j)
        assert flagged_schur_char(seq, n) == char_by_plan(datum, plan)


def test_schur_decompose_staircase():
    assert schur_decompose(STAIRCASE_SEQ, 3) == {
        (4, 1, 1): 1, (3, 2, 1): 2, (2, 2, 2): 1}


def test_schur_single_column():
    # a single column of k boxes carries the k-th fundamental representation
    assert schur_decompose(((), (1, 1)), 2) == {(1, 1): 1}
    assert schur_decompose(((), (), (1, 1, 1)), 3) == {(1, 1, 1): 1}


def test_schur_rejects_small_rank():
    with pytest.raises(ValueError):
        flagged_schur_char(STAIRCASE_SEQ, 2)


# -- skew shapes and Littlewood-Richardson ---------------------------------------


def test_skew_normalise_five_box():
    assert skew_normalise(FIVE_BOX) == ((3, 2, 2, 1), (2, 1))


def test_skew_normalise_staircase_fails():
    assert skew_normalise(diagram_of_sequence(STAIRCASE_SEQ)) is None


def test_skew_normalise_young_diagram():
    young = frozenset({(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)})
    assert skew_normalise(young) == ((3, 2, 1), ())


def test_lr_skew_expand():
    assert lr_skew_expand((3, 2, 1), ()) == {(3, 2, 1): 1}
    assert lr_skew_expand((2, 1), (1,)) == {(2,): 1, (1, 1): 1}
    assert lr_skew_expand((3, 2, 2, 1), (2, 1)) == {
        (2, 1, 1, 1): 1, (3, 1, 1): 1, (2, 2, 1): 2, (3, 2): 1}


# -- symmetric group characters ---------------------------------------------------


def test_murnaghan_nakayama_small_table():
    assert sym_character((2, 1), (1, 1, 1)) == 2
    assert sym_character((2, 1), (2, 1)) == 0
    assert sym_character((2, 1), (3,)) == -1
    assert sym_character((1, 1, 1), (2, 1)) == -1
    assert sym_character((3,), (3,)) == 1


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_murnaghan_nakayama_orthogonality(d):
    classes = list(partitions_of(d))
    for lam in classes:
        for mu in classes:
            acc = sum(Fraction(sym_character(lam, nu) * sym_character(mu, nu),
                               centraliser_order(nu)) for nu in classes)
            assert acc == (1 if lam == mu else 0)


# -- the Specht oracle -------------------------------------------------------------


def test_specht_young_diagrams_are_irreducible():
    assert specht_decompose_bruteforce({(1, 1), (1, 2), (1, 3)}) == {(3,): 1}
    assert specht_decompose_bruteforce({(1, 1), (2, 1), (3, 1)}) == {(1, 1, 1): 1}
    assert specht_decompose_bruteforce({(1, 1), (1, 2), (2, 1)}) == {(2, 1): 1}


def test_specht_five_box_matches_lr():
    assert specht_decompose_bruteforce(FIVE_BOX) == lr_skew_expand((3, 2, 2, 1), (2, 1))


def test_specht_staircase():
    assert specht_decompose_bruteforce(diagram_of_sequence(STAIRCASE_SEQ)) == {
        (4, 1, 1): 1, (3, 2, 1): 2, (2, 2, 2): 1}


def test_specht_ceiling():
    with pytest.raises(ValueError):
        specht_decompose_bruteforce({(1, c) for c in range(1, 9)})


def test_specht_disconnected_boxes():
    # two free boxes: the regular representation of S_2
    assert specht_decompose_bruteforce({(1, 2), (2, 1)}) == {(2,): 1, (1, 1): 1}


# the Specht oracle as first written: permutation tuples as keys, tuple
# composition for translates, and rows rebuilt on every elimination step;
# kept as an independent reference for the Lehmer-ranked kernel


def _ref_normalise_row(vec: dict) -> dict:
    g = 0
    for v in vec.values():
        g = gcd(g, abs(v))
    if g > 1:
        vec = {k: v // g for k, v in vec.items()}
    pivot = min(vec)
    if vec[pivot] < 0:
        vec = {k: -v for k, v in vec.items()}
    return vec


class _RefSpanBasis:
    """A reduced row-echelon integer basis of a left ideal of Z[S_d],
    with rows keyed by permutation tuples and pivots at the smallest key."""

    def __init__(self):
        self.rows: list[dict] = []
        self.pivots: dict[tuple[int, ...], int] = {}

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        for p in sorted(k for k in vec if k in self.pivots):
            b = vec.get(p, 0)
            if not b:
                continue
            row = self.rows[self.pivots[p]]
            a = row[p]
            vec = {k: a * vec.get(k, 0) - b * row.get(k, 0)
                   for k in set(vec) | set(row)}
            vec = {k: v for k, v in vec.items() if v}
        return vec

    def insert(self, vec: dict) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        vec = _ref_normalise_row(vec)
        pivot = min(vec)
        for idx, row in enumerate(self.rows):
            coeff = row.get(pivot)
            if coeff:
                a = vec[pivot]
                new = {k: a * row.get(k, 0) - coeff * vec.get(k, 0)
                       for k in set(row) | set(vec)}
                self.rows[idx] = _ref_normalise_row(
                    {k: v for k, v in new.items() if v})
        self.rows.append(vec)
        self.pivots[pivot] = len(self.rows) - 1
        return True

    def trace_of_left_mult(self, h: tuple[int, ...]) -> int:
        h_inv = invert(h)
        total = Fraction(0)
        for pivot, idx in self.pivots.items():
            row = self.rows[idx]
            total += Fraction(row.get(compose(h_inv, pivot), 0), row[pivot])
        assert total.denominator == 1
        return int(total)


def ref_specht_decompose(boxes) -> dict:
    boxes = frozenset(boxes)
    d = len(boxes)
    if d == 0:
        return {(): 1}
    gens = []
    for k in range(d - 1):
        img = list(range(d))
        img[k], img[k + 1] = img[k + 1], img[k]
        gens.append(tuple(img))
    basis = _RefSpanBasis()
    frontier = [young_symmetriser(boxes)]
    while frontier:
        vec = frontier.pop()
        if not basis.insert(vec):
            continue
        for g in gens:
            frontier.append({compose(g, perm): coeff for perm, coeff in vec.items()})
    classes = list(partitions_of(d))
    module_char = {mu: basis.trace_of_left_mult(class_representative(mu, d))
                   for mu in classes}
    assert module_char[(1,) * d] == len(basis.rows)
    out = {}
    for lam in classes:
        acc = sum((Fraction(module_char[mu] * sym_character(lam, mu),
                            centraliser_order(mu)) for mu in classes), Fraction(0))
        assert acc.denominator == 1 and acc >= 0
        if acc:
            out[lam] = int(acc)
    return out


def sequences_up_to(total: int, length: int):
    """Every partition sequence of at most ``length`` steps and at most
    ``total`` boxes whose last partition is nonempty."""
    def grow(i, rest, seq):
        if seq and seq[-1]:
            yield tuple(seq)
        if i > length:
            return
        for size in range(rest + 1):
            for p in partitions_of(size):
                if len(p) <= i:
                    yield from grow(i + 1, rest - size, seq + [p])
    yield from grow(1, total, [])


# the 6- and 7-box sequences of the typea benchmark round
TYPEA_SEQUENCES = ([[6]], [[7]], [[4], [2]], [[5], [2]], [[3], [2, 1]],
                   [[1], [3], [3]], [[2], [1, 1], [1], [2]],
                   [[1], [1], [2, 1, 1]], [[3], [2, 2]], [[2], [3, 2]])


def test_specht_matches_reference():
    # every diagram of at most 5 boxes, up to vertical translation (a
    # sequence of more steps only adds empty rows)
    small = {diagram_of_sequence(seq) for seq in sequences_up_to(5, 5)}
    assert len(small) == 322
    for boxes in small:
        assert specht_decompose_bruteforce(boxes) == ref_specht_decompose(boxes)
    rng = random.Random(31)
    six = sorted({diagram_of_sequence(seq) for seq in sequences_up_to(6, 6)
                  if sum(map(sum, seq)) == 6}, key=sorted)
    for boxes in rng.sample(six, 60):
        assert specht_decompose_bruteforce(boxes) == ref_specht_decompose(boxes)
    for seq in TYPEA_SEQUENCES:
        seq = check_sequence(seq)
        assert specht_decompose_bruteforce(diagram_of_sequence(seq)) == \
            schur_decompose(seq, len(seq))


# -- stability ----------------------------------------------------------------------


def test_stable_bound_three_point_multiset():
    assert stable_bound(multiset({(1, 5): 1, (3, 1): 1, (4, 6): 1})) == 6


def test_stable_bound_singleton():
    assert stable_bound(multiset({(1, 1): 1})) == 1


def test_stable_coeffs_gl6_example():
    r = multiset({(1, 5): 1, (3, 1): 1, (4, 6): 1})
    coeffs = stable_coeffs(r)
    assert coeffs == {
        (2, 2, 2, 2): 1, (2, 2, 2, 1, 1): 1, (2, 2, 1, 1, 1, 1): 1,
        (3, 2, 2, 1): 1, (3, 2, 1, 1, 1): 1, (3, 1, 1, 1, 1, 1): 1}
    restricted = restrict_coeffs(coeffs, 5)
    assert restricted == {
        (2, 2, 2, 2): 1, (2, 2, 2, 1, 1): 1, (3, 2, 2, 1): 1, (3, 2, 1, 1, 1): 1}
    assert restrict_coeffs(coeffs, 6) == coeffs
    assert restrict_coeffs(coeffs, 1) == {}
    # the direct GL_5 decomposition agrees with the restriction rule
    from pmcrystal.product import decompose
    gl5 = build_root_datum("GL", 5)
    direct = {tuple(x for x in w if x) or (): m
              for w, m in decompose(gl5, r).items()}
    assert direct == restricted


def test_stable_coeffs_basics():
    assert stable_coeffs(multiset({})) == {(): 1}
    assert stable_coeffs(multiset({(2, 0): 2})) == {(2, 2): 1}


def test_hw_counts_stable_beyond_bound():
    r = multiset({(1, 1): 1, (2, 2): 1})
    base = max(stable_bound(r), r.max_vertex() + 1)
    counts = []
    for n in range(base, base + 3):
        datum = build_root_datum("GL", n)
        counts.append(len(highest_weights(product_crystal(datum, r))))
    assert counts[0] == counts[1] == counts[2]


def test_psi_embed_preserves_labels():
    gl3 = build_root_datum("GL", 3)
    gl5 = build_root_datum("GL", 5)
    r = multiset({(1, 1): 1, (2, 2): 1})
    from pmcrystal.product import s_label, y_of_multiset
    g = product_crystal(gl3, r)
    images = set()
    for p in g.elements:
        q = psi_embed(gl3, gl5, r, p)
        assert s_label(gl3, r, p) == s_label(gl5, r, q)
        assert all(q.weight[k] == 0 for k in range(3, 5))
        images.add(q)
    assert y_of_multiset(gl5, r) in images
    assert len(images) == len(g)
    # converse: zero weight beyond rank 3 characterises the image exactly
    big = product_crystal(gl5, r)
    flat = {q for q in big.elements if all(q.weight[k] == 0 for k in range(3, 5))}
    assert flat == images


def test_psi_functorial():
    gl3 = build_root_datum("GL", 3)
    gl4 = build_root_datum("GL", 4)
    gl6 = build_root_datum("GL", 6)
    r = multiset({(1, 1): 2})
    for p in product_crystal(gl3, r).elements:
        assert psi_embed(gl4, gl6, r, psi_embed(gl3, gl4, r, p)) == \
            psi_embed(gl3, gl6, r, p)


# -- the main theorem at desk scale ------------------------------------------------


def test_main_theorem_small_cases():
    for seq in [((1,),), ((), (1, 1)), ((1,), (2,)), ((2,), (1, 1))]:
        r, _, n = multiset_of_sequence(seq)
        coeffs = stable_coeffs(r)
        assert coeffs == schur_decompose(seq, len(seq))
        boxes = diagram_of_sequence(seq)
        if len(boxes) <= 7:
            assert specht_decompose_bruteforce(boxes) == coeffs


def test_diagrams_of_sequences_are_column_convex():
    from pmcrystal.typea import is_column_convex
    rng = random.Random(29)
    for _ in range(15):
        assert is_column_convex(diagram_of_sequence(random_sequence(rng)))


def test_skew_consistency_random():
    # whenever a random small diagram has a skew presentation, the LR
    # expansion agrees with the Specht brute force
    rng = random.Random(30)
    seen = 0
    for _ in range(25):
        seq = random_sequence(rng, max_len=3, max_boxes=2)
        boxes = diagram_of_sequence(seq)
        if not 0 < len(boxes) <= 6:
            continue
        shape = skew_normalise(boxes)
        if shape is None:
            continue
        assert lr_skew_expand(*shape) == specht_decompose_bruteforce(boxes)
        seen += 1
    assert seen >= 5
