import itertools
import math
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.crystal import highest_weights
from pmcrystal.product import multiset, product_crystal, product_graph
from pmcrystal.truncation import build_plan, char_by_plan
from pmcrystal import limits, typea
from pmcrystal.typea import (Seminormal, check_partition, check_sequence, check_shape,
                             conjugate, diagram_ascii, flagged_schur_char, lr_skew_expand,
                             partitions_of, restrict_coeffs,
                             schur_decompose, seminormal, sequence_of_diagram,
                             skew_normalise, specht_decompose_bruteforce,
                             stable_bound, stable_coeffs, weight_partition)
from pmcrystal.weightring import DecompositionError, e, laurent_str, straighten
from reference import (diagram_of_sequence, multiset_of_sequence, psi_embed,
                       ref_is_column_convex, ref_schur_at_rank, ref_schur_decompose,
                       ref_sequence_of_diagram, sequence_of_multiset)
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


def grid_diagrams(rows: int, cols: int, max_boxes: int):
    """Every diagram of 1 to ``max_boxes`` boxes in a rows x cols grid."""
    grid = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    for k in range(1, max_boxes + 1):
        yield from map(frozenset, itertools.combinations(grid, k))


def sequence_or_refusal(read, boxes):
    try:
        return read(boxes)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("grid, count, searched, refused",
                         [((4, 4, 7), 26_332, 16_990, 1_248), ((5, 4, 5), 21_699, 14_524, 0)])
def test_sequence_of_diagram_matches_the_relabelling_search(grid, count, searched, refused):
    # the row orders tested on one reading of the columns pick the same
    # convexifying order as relabelling the boxes for each order, and refuse
    # the same diagrams with the same message
    diagrams = list(grid_diagrams(*grid))
    assert len(diagrams) == count
    outcomes = Counter()
    for boxes in diagrams:
        expected = sequence_or_refusal(ref_sequence_of_diagram, boxes)
        assert sequence_or_refusal(sequence_of_diagram, boxes) == expected, sorted(boxes)
        outcomes["refused" if isinstance(expected, str) else
                 "convex" if ref_is_column_convex(boxes) else "searched"] += 1
    assert (outcomes["searched"], outcomes["refused"]) == (searched, refused)


def test_row_relabellings_are_the_bijections_onto_1_to_n_in_lexicographic_order():
    boxes = {(2, 1), (5, 1), (9, 3), (5, 2)}
    orders = [tuple(pos[r] for r in (2, 5, 9)) for pos in typea.row_relabellings(boxes, 3)]
    assert orders == list(itertools.permutations((1, 2, 3)))
    assert typea.row_relabellings(boxes, 2) is None


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


def test_sequence_of_multiset_refuses_what_validate_points_refuses():
    # (1, 0) is off the GL grid: it was once read as ((1,),), as (1, 1) is
    assert sequence_of_multiset(multiset({(1, 1): 1})) == ((1,),)
    with pytest.raises(ValueError, match=r"point \(1,0\) violates parity"):
        sequence_of_multiset(multiset({(1, 0): 1}))
    with pytest.raises(ValueError, match=r"point \(3,2\) violates parity"):
        sequence_of_multiset(multiset({(1, 1): 1, (3, 2): 1}))


# -- characters ------------------------------------------------------------------


def test_flagged_schur_char_staircase(gl3):
    ch = flagged_schur_char(STAIRCASE_SEQ, 3)
    expected = (e((4, 1, 1)) + e((2, 3, 1)) + 2 * e((3, 2, 1))
                + e((3, 1, 2)) + e((2, 2, 2)))
    assert ch == expected
    assert laurent_str(gl3, ch) == \
        "x1^4*x2*x3 + 2*x1^3*x2^2*x3 + x1^3*x2*x3^2 + x1^2*x2^3*x3 + x1^2*x2^2*x3^2"


def test_flagged_schur_char_empty():
    datum = build_root_datum("GL", 2)
    assert flagged_schur_char((), 2) == e(datum.zero)


def test_flagged_equals_plan_character():
    rng = random.Random(24)
    for _ in range(8):
        seq = random_sequence(rng, max_len=3, max_boxes=2)
        r, j, n = multiset_of_sequence(seq)
        datum = build_root_datum("GL", n)
        plan = build_plan(datum, r, j)
        assert flagged_schur_char(seq, n) == char_by_plan(datum, plan)


def test_schur_decompose_staircase():
    assert schur_decompose(STAIRCASE_SEQ) == {
        (4, 1, 1): 1, (3, 2, 1): 2, (2, 2, 2): 1}


def test_schur_single_column():
    # a single column of k boxes carries the k-th fundamental representation
    assert schur_decompose(((), (1, 1))) == {(1, 1): 1}
    assert schur_decompose(((), (), (1, 1, 1))) == {(1, 1, 1): 1}
    assert schur_decompose(()) == {(): 1}


def test_schur_rejects_small_rank():
    with pytest.raises(ValueError):
        flagged_schur_char(STAIRCASE_SEQ, 2)


def test_partitions_refuse_a_rise_and_a_negative_tail():
    # positive parts that rise; entries that never rise but end below 0
    with pytest.raises(ValueError, match="is not a partition"):
        check_partition((1, 2))
    with pytest.raises(ValueError, match="not a polynomial dominant weight"):
        weight_partition((1, -1))
    assert check_partition((2, 1)) == (2, 1)
    assert weight_partition((2, 1, 0)) == (2, 1)


def all_sequences(total: int, length: int):
    """Every partition sequence of 1 to ``length`` steps and at most
    ``total`` boxes, empty steps anywhere, the last one included."""
    def grow(i, rest, seq):
        if seq:
            yield tuple(seq)
        if i > length:
            return
        for size in range(rest + 1):
            for p in partitions_of(size):
                if len(p) <= i:
                    yield from grow(i + 1, rest - size, seq + [p])
    yield from grow(1, total, [])


def random_long_sequence(rng):
    """A partition sequence of 2 to 7 steps and 6 to 10 boxes, empty steps
    likely."""
    boxes = rng.randint(6, 10)
    length = rng.randint(2, 7)
    cuts = sorted(rng.randint(0, boxes) for _ in range(length - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [boxes])]
    return check_sequence(rng.choice([p for p in partitions_of(size) if len(p) <= i])
                          for i, size in enumerate(sizes, start=1))


def test_straightening_matches_reference():
    # the straightened flagged character against pi_{w_o} of it, peeled in
    # GL_n: every sequence of at most 5 boxes in at most 4 steps, at ranks
    # n = len to len + 2
    cases = [(seq, n) for seq in all_sequences(5, 4) for n in range(len(seq), len(seq) + 3)]
    assert len(cases) == 1386
    for seq, n in cases:
        assert schur_decompose(seq) == ref_schur_decompose(seq, n), (seq, n)
    # seeded 6- to 10-box sequences with empty steps, at GL ranks up to 8
    rng = random.Random(24)
    above, gapped = 0, 0
    for _ in range(40):
        seq = random_long_sequence(rng)
        n = rng.randint(len(seq), 8)
        above += n > len(seq)
        gapped += () in seq
        assert schur_decompose(seq) == ref_schur_decompose(seq, n), (seq, n)
    assert above >= 10 and gapped >= 10


def test_schur_decompose_is_the_same_at_every_rank():
    # straightened in GL_r alone, r the sequence length, against the fold
    # and straightening in GL_n itself: every sequence of at most 5 boxes in
    # at most 4 steps at ranks len to len + 2, and seeded 6- to 10-box
    # sequences at GL12 and GL32
    for seq in all_sequences(5, 4):
        for n in range(len(seq), len(seq) + 3):
            assert schur_decompose(seq) == ref_schur_at_rank(seq, n), (seq, n)
    rng = random.Random(29)
    for _ in range(10):
        seq = random_long_sequence(rng)
        for n in (12, 32):
            assert schur_decompose(seq) == ref_schur_at_rank(seq, n), (seq, n)


def straightened(f, n):
    """``weightring.straighten`` in GL_n, its highest weights as partitions."""
    return {weight_partition(w): m
            for w, m in straighten(build_root_datum("GL", n), f).items()}


def test_straighten_terms():
    # mu + rho with a repeated entry straightens to 0; a term whose sort is
    # odd cancels one whose sort is even; a sort of even length keeps the sign
    assert straightened(e((0, 1)), 2) == {}
    assert straightened(e((2, 0)) + e((-1, 3)), 2) == {}
    assert straightened(e((0, 0, 3)), 3) == {(1, 1, 1): 1}
    assert straightened(e((3, 1, 0)) + e((0, 0, 3)), 3) == {(3, 1): 1, (1, 1, 1): 1}


def test_straighten_refuses_a_negative_multiplicity():
    # pi_{w_o}(e^(-1,1)) = -ch V(0,0) in GL_2
    with pytest.raises(DecompositionError, match="coefficient -1"):
        straightened(e((-1, 1)), 2)
    with pytest.raises(ValueError, match="weights of length 2 in a datum of rank 3"):
        straightened(e((1, 0)), 3)


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
    # mu as long as lam, or equal to lam in a row, is still contained in it
    assert check_shape((2, 2), (1, 1)) == ((2, 2), (1, 1))
    assert lr_skew_expand((2, 2), (1, 1)) == {(1, 1): 1}
    assert lr_skew_expand((2, 1), (2,)) == {(1,): 1}
    for lam, mu in [((2,), (1, 1)), ((2, 1), (3,))]:
        with pytest.raises(ValueError, match="not contained"):
            check_shape(lam, mu)


def test_diagram_ascii():
    # one line per row up to the last, each cut after its last box
    assert diagram_ascii(frozenset({(1, 1), (2, 2), (2, 3)})) == "[]\n  [][]"
    assert diagram_ascii(frozenset({(2, 1), (1, 3)})) == "    []\n[]"
    assert diagram_ascii(frozenset()) == "(empty diagram)"


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
        assert specht_decompose_bruteforce(diagram_of_sequence(seq)) == schur_decompose(seq)


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


@pytest.mark.parametrize("seq", TYPEA_SEQUENCES)
def test_specht_is_the_same_under_column_permutations_and_memo_state(seq):
    # the oracle reads the columns in the order of their top cells and
    # memoises eigenspace bases: neither the columns' order nor what the
    # memo holds changes the answer.  Every column permutation, or a
    # seeded 200 of them where there are more than 720.
    boxes = diagram_of_sequence(check_sequence(seq))
    want = lehmer_specht_decompose(boxes)
    cols = sorted({c for _, c in boxes})
    perms = list(itertools.permutations(cols))
    if len(perms) > 720:
        perms = random.Random(len(boxes)).sample(perms, 200)
    for perm in perms:
        relabel = dict(zip(cols, perm))
        permuted = frozenset((r, relabel[c]) for r, c in boxes)
        seminormal.cache_clear()
        assert specht_decompose_bruteforce(permuted) == want, (seq, perm)   # cold
        assert specht_decompose_bruteforce(permuted) == want, (seq, perm)   # warm


def test_specht_builds_only_the_forms_young_admits():
    # the dominance filter skips every lam that Young's rule rules out, so
    # a cold cache gains one seminormal form per admitted lam and no other
    for boxes in (FIVE_BOX, {(1, c) for c in range(1, 8)}, {(r, 1) for r in range(1, 8)},
                  diagram_of_sequence(STAIRCASE_SEQ)):
        rows = tuple(sorted(Counter(r for r, _ in boxes).values(), reverse=True))
        cols = tuple(sorted(Counter(c for _, c in boxes).values(), reverse=True))
        admitted = [lam for lam in partitions_of(len(boxes))
                    if typea.dominates(lam, rows) and typea.dominates(conjugate(lam), cols)]
        seminormal.cache_clear()
        specht_decompose_bruteforce(boxes)
        assert len(admitted) < sum(1 for _ in partitions_of(len(boxes)))
        assert seminormal.cache_info().currsize == len(admitted)


def test_bubble_swaps_sort_every_word():
    # the swaps sort the word one adjacent inversion at a time, the pair at
    # positions 0 and 1 included: with columns in top-cell order the
    # oracle's words start at 0, so its diagrams never need that last swap
    for n in range(6):
        for word in itertools.permutations(range(n)):
            swaps, moved = typea._bubble_swaps(word), list(word)
            for k in swaps:
                assert moved[k] > moved[k + 1]
                moved[k], moved[k + 1] = moved[k + 1], moved[k]
            assert moved == sorted(word)
            assert len(swaps) == sum(a > b for a, b in itertools.combinations(word, 2))


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
    monkeypatch.setattr(limits, "SPECHT_MAX_BOXES", 8)
    assert specht_decompose_bruteforce(boxes) == schur_decompose(seq)


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


def _is_positive_multiple(vec: list[int], sparse: dict) -> bool:
    """Whether the dense ``vec`` is a positive multiple of ``sparse``."""
    ratio = {Fraction(vec[t]) / sparse.get(t, 0)
             for t in range(len(vec)) if vec[t] or t in sparse}
    return len(ratio) == 1 and ratio.pop() > 0


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
                scaled = rep.move([int(t == i) for t in range(rep.dim)], (k,))
                assert _is_positive_multiple(scaled, image)
                # with coprime entries, whatever the input's scale
                assert math.gcd(*scaled) == 1
                assert rep.move([2 * int(t == i) for t in range(rep.dim)], (k,)) == scaled
                if k + 1 < d - 1:
                    # a move applies its swaps in order: s_(k+1) after s_k
                    both = rep.move([3 * int(t == i) for t in range(rep.dim)], (k, k + 1))
                    assert _is_positive_multiple(both, _rho(rep, k + 1, image))
                    assert math.gcd(*both) == 1
                    assert _rho(rep, k, _rho(rep, k + 1, image)) == \
                        _rho(rep, k + 1, _rho(rep, k, images[k + 1]))
                for j in range(k + 2, d - 1):
                    assert _rho(rep, j, image) == _rho(rep, k, images[j])


def test_seminormal_cache_is_bounded_and_lazy():
    # one entry per partition of 1..SPECHT_MAX_BOXES, and nothing built on
    # import: the CLI imports typea on every command
    count = sum(1 for d in range(1, limits.SPECHT_MAX_BOXES + 1) for _ in partitions_of(d))
    assert count == 44 and seminormal.cache_info().maxsize == count
    # nor any eigenspace basis, which each form memoises, nor the
    # partitions of any d
    code = ("import pmcrystal.cli, pmcrystal.typea as t; "
            "print(t.seminormal.cache_info().currsize, "
            "t._partitions_with_conjugates.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "0"]


def test_eigenspace_memo_is_bounded_and_faithful():
    # every diagram of at most 6 boxes and the seeded 7-box sample: each
    # form then holds at most 2^d bases, one per (subset of the d-1 swaps,
    # sign), and each equals the basis a fresh form computes
    seminormal.cache_clear()
    diagrams = {diagram_of_sequence(seq) for seq in sequences_up_to(6, 6)}
    seven = sorted({diagram_of_sequence(seq) for seq in sequences_up_to(7, 7)
                    if sum(map(sum, seq)) == 7}, key=sorted)
    for boxes in itertools.chain(diagrams, random.Random(7).sample(seven, 40)):
        specht_decompose_bruteforce(boxes)
    assert seminormal.cache_info().currsize == 44
    held = 0
    for d in range(1, limits.SPECHT_MAX_BOXES + 1):
        for lam in partitions_of(d):
            rep, fresh = seminormal(lam), Seminormal(lam)
            assert fresh.bases == {}
            assert len(rep.bases) <= 2 ** d
            for (ks, sign), basis in rep.bases.items():
                assert ks == tuple(sorted(set(ks))) and set(ks) <= set(range(d - 1))
                assert sign in (1, -1)
                assert basis == fresh.eigenspace(ks, sign)
            held += len(rep.bases)
    assert 0 < held <= 2962


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
    g = product_graph(gl3, r)
    images = set()
    for p in g.elements:
        q = psi_embed(gl3, gl5, r, p)
        assert s_label(gl3, r, p) == s_label(gl5, r, q)
        assert all(q.weight[k] == 0 for k in range(3, 5))
        images.add(q)
    assert y_of_multiset(gl5, r) in images
    assert len(images) == len(g)
    # converse: zero weight beyond rank 3 characterises the image exactly
    big = product_graph(gl5, r)
    flat = {q for q in big.elements if all(q.weight[k] == 0 for k in range(3, 5))}
    assert flat == images


def test_psi_functorial():
    gl3 = build_root_datum("GL", 3)
    gl4 = build_root_datum("GL", 4)
    gl6 = build_root_datum("GL", 6)
    r = multiset({(1, 1): 2})
    for p in product_graph(gl3, r).elements:
        assert psi_embed(gl4, gl6, r, psi_embed(gl3, gl4, r, p)) == \
            psi_embed(gl3, gl6, r, p)


# -- the main theorem at desk scale ------------------------------------------------


def test_main_theorem_small_cases():
    for seq in [((1,),), ((), (1, 1)), ((1,), (2,)), ((2,), (1, 1))]:
        r, _, n = multiset_of_sequence(seq)
        coeffs = stable_coeffs(r)
        assert coeffs == schur_decompose(seq)
        boxes = diagram_of_sequence(seq)
        if len(boxes) <= 7:
            assert specht_decompose_bruteforce(boxes) == coeffs


def test_diagrams_of_sequences_are_column_convex():
    rng = random.Random(29)
    for _ in range(15):
        assert ref_is_column_convex(diagram_of_sequence(random_sequence(rng)))


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


def test_skew_normalise_above_seven_rows():
    # eight rows: only the given order and the order by length are tried
    lam, mu = (5, 4, 4, 4, 3, 2, 1, 1), (4, 3, 3, 1, 1, 1)
    mu8 = mu + (0, 0)
    boxes = frozenset((r + 1, c) for r in range(8) for c in range(mu8[r] + 1, lam[r] + 1))
    assert typea.row_relabellings(boxes, 7) is None
    assert skew_normalise(boxes) == (lam, mu)
    assert lr_skew_expand(lam, mu) == schur_decompose(sequence_of_diagram(boxes))
