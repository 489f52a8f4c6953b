import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.crystal import highest_weights
from pmcrystal.product import multiset, product_crystal
from pmcrystal.truncation import build_plan, char_by_plan
from pmcrystal import typea
from pmcrystal.typea import (Seminormal, check_sequence, conjugate,
                             flagged_schur_char, lr_skew_expand,
                             partitions_of, restrict_coeffs,
                             schur_decompose, seminormal, sequence_of_diagram,
                             skew_normalise, specht_decompose_bruteforce,
                             stable_bound, stable_coeffs)
from pmcrystal.weightring import e, laurent_str
from reference import (diagram_of_sequence, multiset_of_sequence, psi_embed,
                       sequence_of_multiset)
from specht_reference import (centraliser_order, lehmer_specht_decompose,
                              ref_specht_decompose, sym_character)

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


def test_specht_matches_lehmer_kernel():
    # the span kernel over Lehmer-ranked S_d, the library's kernel before
    # the ranks in seminormal form: every diagram of at most 6 boxes, and
    # seeded 7-box diagrams
    small = {diagram_of_sequence(seq) for seq in sequences_up_to(6, 6)}
    assert sum(len(boxes) == 6 for boxes in small) == 1013
    for boxes in small:
        assert specht_decompose_bruteforce(boxes) == lehmer_specht_decompose(boxes), \
            sorted(boxes)
    seven = sorted({diagram_of_sequence(seq) for seq in sequences_up_to(7, 7)
                    if sum(map(sum, seq)) == 7}, key=sorted)
    for boxes in random.Random(7).sample(seven, 40):
        assert specht_decompose_bruteforce(boxes) == lehmer_specht_decompose(boxes), \
            sorted(boxes)
    # boxes anywhere, gapped columns and rows included, as schur --diagram
    # takes them
    rng = random.Random(3)
    grid = [(r, c) for r in range(1, 6) for c in range(1, 6)]
    for _ in range(60):
        boxes = frozenset(rng.sample(grid, rng.randint(1, 5)))
        assert specht_decompose_bruteforce(boxes) == lehmer_specht_decompose(boxes), \
            sorted(boxes)


# the 8-box diagrams on which the span kernel took 0.5-11.4 s
EIGHT_BOX_SEQUENCES = ([[3], [3, 2]], [[4], [2, 2]], [[2], [3, 3]],
                       [[2], [2, 1], [2, 1]], [[2], [1, 1], [2, 1, 1]],
                       [[1], [2, 2], [2, 1]], [[1], [2, 1], [2, 1, 1]],
                       [[1], [1, 1], [2, 2, 1]])


@pytest.mark.parametrize("seq", EIGHT_BOX_SEQUENCES)
def test_specht_matches_schur_above_ceiling(monkeypatch, seq):
    seq = check_sequence(seq)
    boxes = diagram_of_sequence(seq)
    assert len(boxes) == 8
    monkeypatch.setattr(typea, "SPECHT_MAX_BOXES", 8)
    assert specht_decompose_bruteforce(boxes) == schur_decompose(seq, len(seq))


# -- Young's seminormal form --------------------------------------------------------


def _rho(rep: Seminormal, k: int, vec: dict) -> dict:
    """rho(s_k) on a sparse rational vector, straight from the seminormal
    formulas for the axial distance r: s_k e_T = (1/r) e_T + e_T' and
    s_k e_T' = (1 - 1/r^2) e_T - (1/r) e_T' for r > 0, +-e_T for r = +-1."""
    out: dict = {}
    for i, x in vec.items():
        j, r = rep.partner[k][i], rep.axial[k][i]
        if j == i:
            assert abs(r) == 1
            terms = [(i, r)]
        elif r > 0:
            assert rep.axial[k][j] == -r and rep.partner[k][j] == i
            terms = [(i, Fraction(1, r)), (j, 1)]
        else:  # T_i = s_k T_j, where the distance is -r > 0
            terms = [(j, 1 - Fraction(1, r * r)), (i, Fraction(1, r))]
        for t, c in terms:
            out[t] = out.get(t, 0) + c * x
    return {t: c for t, c in out.items() if c}


def _hook_length_dim(lam) -> int:
    cols = conjugate(lam)
    hooks = math.prod(lam[r] - c + cols[c] - r - 1
                      for r in range(len(lam)) for c in range(lam[r]))
    return math.factorial(sum(lam)) // hooks


@pytest.mark.parametrize("d", range(1, 9))
def test_seminormal_form_is_a_representation(d):
    # the Coxeter relations of S_d, the invariance of the diagonal form
    # (D rho(s_k) symmetric) and the hook-length dimension, for every lam
    for lam in partitions_of(d):
        rep = Seminormal(lam)
        assert rep.dim == _hook_length_dim(lam)
        assert min(rep.form) > 0
        for i in range(rep.dim):
            unit = {i: Fraction(1)}
            images = [_rho(rep, k, unit) for k in range(d - 1)]
            for k, image in enumerate(images):
                assert _rho(rep, k, image) == unit
                for j, c in image.items():
                    back = _rho(rep, k, {j: Fraction(1)}).get(i, 0)
                    assert rep.form[j] * c == rep.form[i] * back
                # the integer action is rho(s_k) times a positive scalar
                scaled = rep.apply(k, [int(t == i) for t in range(rep.dim)])
                ratio = {Fraction(scaled[t]) / image.get(t, 0)
                         for t in range(rep.dim) if scaled[t] or t in image}
                assert len(ratio) == 1 and ratio.pop() > 0
                if k + 1 < d - 1:
                    assert _rho(rep, k, _rho(rep, k + 1, image)) == \
                        _rho(rep, k + 1, _rho(rep, k, images[k + 1]))
                for j in range(k + 2, d - 1):
                    assert _rho(rep, j, image) == _rho(rep, k, images[j])


def test_seminormal_cache_is_bounded_and_lazy():
    # one entry per partition of 1..SPECHT_MAX_BOXES, and nothing built on
    # import: the CLI imports typea on every command
    count = sum(1 for d in range(1, typea.SPECHT_MAX_BOXES + 1) for _ in partitions_of(d))
    assert count == 44 and seminormal.cache_info().maxsize == count
    code = ("import pmcrystal.cli, pmcrystal.typea as t; "
            "print(t.seminormal.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"


# -- stability ----------------------------------------------------------------------


def test_stable_bound_three_point_multiset():
    assert stable_bound(multiset({(1, 5): 1, (3, 1): 1, (4, 6): 1})) == 6


def test_stable_bound_singleton():
    assert stable_bound(multiset({(1, 1): 1})) == 1


def ref_stable_bound(rr) -> int:
    """stable_bound by walking every column up to max vertex + span + 2."""
    if rr.is_empty():
        return 1
    pts = rr.support()
    max_vertex = max(i for i, _ in pts)
    span = max(c for _, c in pts) - min(c for _, c in pts)
    top = 1
    for j in range(1, max_vertex + span + 3):
        theta = min(c + abs(i - j) for i, c in pts)
        delta = max(c - 2 - abs(i - j) for i, c in pts)
        if theta <= delta:
            top = j + 1
    return top


def test_stable_bound_matches_column_walk():
    rng = random.Random(41)
    for _ in range(4000):
        r = multiset({(rng.randint(1, 7), rng.randint(-12, 12)): 1
                      for _ in range(rng.randint(1, 4))})
        assert stable_bound(r) == ref_stable_bound(r), r
    assert stable_bound(multiset({})) == ref_stable_bound(multiset({})) == 1


def test_stable_bound_far_apart_points_at_once():
    # the column walk took seconds here: its length grows with the gap
    start = time.perf_counter()
    assert stable_bound(multiset({(1, 1): 1, (1, 2000001): 1})) == 1000001
    assert time.perf_counter() - start < 1.0


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
