"""The GL_n correspondence: partition sequences, column-convex diagrams,
Schur characters, stability, and two independent representation-theoretic
oracles.

A partition sequence (l^(1), ..., l^(r)) with len(l^(i)) <= i determines
a column-convex diagram D (shift the diagram down a row, adjoin the next
Young diagram on fresh columns); ``sequence_of_diagram`` reads one back.
It also determines a point multiset R with an upward-closed set J, whose
truncation character is the flagged one; that correspondence is checked
in the tests (``tests/reference.py``), and no command needs it.  The
flagged character recurrence

    ch_0 = 1,   ch_i = e^{l^(i)} * pi_1 ... pi_{i-1} (ch_{i-1})

computes the flagged Schur module character; pi_{w_o} of it is the full
Schur module character, whose Weyl decomposition yields the diagram's
generalised Littlewood-Richardson coefficients.  That decomposition is
read off the flagged character term by term (``weightring.straighten``)
in GL_r, r the sequence length, and the full character is never built.
Every GL_n, n >= r, gives the same: a flagged weight mu is >= 0 and 0 past
r, so mu + rho ends in rho's own tail, which the dominant walk never moves.

Two independent oracles cross-check those coefficients: exhaustive
enumeration of lattice skew tableaux (when the diagram has a skew
presentation), and an exact symmetric-group computation of the generalised
Specht module C[S_d] y_T.  As C[S_d] is the sum of the End(S^lam), the
multiplicity of S^lam in it is the rank of rho_lam(y_T), taken in Young's
seminormal form with integer arithmetic.  The seminormal data of each lam
is built on first use, never at import, and kept in the lru_cache
``seminormal``, one entry per partition of d up to
``limits.SPECHT_MAX_BOXES``; each entry memoises the eigenspace bases it
has computed, at most 2^d, since row and column compositions of d recur
from one diagram to the next (thread safety: see ``limits``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm

from . import limits
from .cartan import Weight, build_root_datum
from .product import PointMultiset, decompose, strict_int, strict_list
from .weightring import GroupAlgebraElement, apply_word, e as ga_e, straighten

Partition = tuple[int, ...]
Box = tuple[int, int]  # (row, col), 1-based, matrix convention


# -- partitions ---------------------------------------------------------------


def check_partition(p) -> Partition:
    p = tuple(map(strict_int, strict_list(p)))
    if any(x <= 0 for x in p) or any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"{p} is not a partition")
    return p


def partition_weight(p: Partition, n: int) -> Weight:
    """A partition of length <= n as a dominant GL_n weight (pad with
    zeros)."""
    if len(p) > n:
        raise ValueError(f"partition {p} is too long for GL_{n}")
    return tuple(p) + (0,) * (n - len(p))


def weight_partition(w: Weight) -> Partition:
    """Inverse of partition_weight for polynomial dominant weights."""
    if any(a < b for a, b in zip(w, w[1:])) or (w and w[-1] < 0):
        raise ValueError(f"{w} is not a polynomial dominant weight")
    return tuple(x for x in w if x > 0)


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def partitions_of(d: int):
    def gen(rest, biggest):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, biggest), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    yield from gen(d, d)


def dominates(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in dominance order, for two partitions of one d."""
    return all(a >= b for a, b in zip(itertools.accumulate(lam),
                                      itertools.accumulate(mu)))


# -- partition sequences and their diagrams -----------------------------------


def check_sequence(seq) -> tuple[Partition, ...]:
    out = []
    for i, p in enumerate(strict_list(seq), start=1):
        p = check_partition(p)
        if len(p) > i:
            raise ValueError(f"partition #{i} of the sequence has length "
                             f"{len(p)} > {i}")
        out.append(p)
    return tuple(out)


def check_diagram(boxes) -> frozenset[Box]:
    """The (row, col) boxes of a diagram, every box a pair, every row and
    column an integer >= 1 and no box listed twice."""
    pairs = []
    for box in map(strict_list, strict_list(boxes)):
        if len(box) != 2:
            raise ValueError(f"{box!r} is not a [row, col] pair")
        r, c = box
        pairs.append((strict_int(r), strict_int(c)))
    boxes = frozenset(pairs)
    if len(boxes) != len(pairs):
        raise ValueError("a diagram lists each box once")
    if any(r < 1 or c < 1 for r, c in boxes):
        raise ValueError("diagram rows and columns start at 1")
    return boxes


def diagram_columns(boxes) -> dict[int, list[int]]:
    cols: dict[int, list[int]] = {}
    for r, c in boxes:
        cols.setdefault(c, []).append(r)
    return {c: sorted(rs) for c, rs in cols.items()}


def diagram_rows(boxes) -> dict[int, list[int]]:
    rows: dict[int, list[int]] = {}
    for r, c in boxes:
        rows.setdefault(r, []).append(c)
    return {r: sorted(cs) for r, cs in rows.items()}


def row_relabellings(boxes, max_rows: int):
    """Every map of the diagram's n rows onto 1..n, as dicts in
    lexicographic order of the images, or None over ``max_rows`` rows."""
    rows = sorted({r for r, _ in boxes})
    if len(rows) > max_rows:
        return None
    return (dict(zip(rows, perm))
            for perm in itertools.permutations(range(1, len(rows) + 1)))


def sequence_of_diagram(boxes) -> tuple[Partition, ...]:
    """Recover a partition sequence from a column-convex diagram (sorting
    columns), searching row permutations first when columns have gaps:
    every row order up to ``limits.CONVEXIFY_MAX_ROWS`` rows, ValueError above.

    The Specht/Schur decomposition is invariant under row and column
    permutations, so any convexifying row order is as good as another.
    """
    boxes = check_diagram(boxes)
    if not boxes:
        return ()
    columns = list(diagram_columns(boxes).values())
    intervals = _column_intervals(columns, {r: r for r, _ in boxes})
    if intervals is None:
        relabellings = row_relabellings(boxes, limits.CONVEXIFY_MAX_ROWS)
        if relabellings is None:
            raise ValueError("diagram has gapped columns and too many rows "
                             "to search for a convexifying row order")
        for pos in relabellings:
            intervals = _column_intervals(columns, pos)
            if intervals is not None:
                break
        else:
            raise ValueError("no row order makes this diagram column-convex")
    r = max(bottom for _, bottom in intervals)
    lengths_at: dict[int, list[int]] = {}
    for top, bottom in intervals:
        lengths_at.setdefault(r - top + 1, []).append(bottom - top + 1)
    return check_sequence(conjugate(tuple(sorted(lengths_at.get(i, []), reverse=True)))
                          for i in range(1, r + 1))


def diagram_ascii(boxes) -> str:
    if not boxes:
        return "(empty diagram)"
    rmax = max(r for r, _ in boxes)
    cmax = max(c for _, c in boxes)
    lines = []
    for r in range(1, rmax + 1):
        lines.append("".join("[]" if (r, c) in boxes else "  "
                             for c in range(1, cmax + 1)).rstrip())
    return "\n".join(lines)


# -- Schur characters ----------------------------------------------------------


def flagged_schur_char(seq, n: int) -> GroupAlgebraElement:
    """Fold ch -> e^{l^(i)} * pi_1...pi_{i-1}(ch) over the sequence, in
    GL_n (n at least the sequence length)."""
    seq = check_sequence(seq)
    if n < len(seq):
        raise ValueError(f"rank {n} < sequence length {len(seq)}")
    datum = build_root_datum("GL", n)
    ch = ga_e(datum.zero)
    for i, p in enumerate(seq, start=1):
        ch = apply_word(datum, range(1, i), ch)
        ch = ga_e(partition_weight(p, n)) * ch
    return ch


def schur_decompose(seq) -> dict[Partition, int]:
    """The Schur module of ``seq`` decomposed: its flagged character
    straightened in GL_r, r = max(len(seq), 1).  Every GL_n, n >= r, gives
    the same: a flagged weight is >= 0 and 0 past r, so mu + rho ends in
    rho's own tail, which the dominant walk never moves."""
    seq = check_sequence(seq)
    r = max(len(seq), 1)
    dec = straighten(build_root_datum("GL", r), flagged_schur_char(seq, r))
    return {weight_partition(w): m for w, m in dec.items()}


# -- skew presentations and Littlewood-Richardson ------------------------------


def _column_intervals(columns, pos):
    """Each column's rows, relabelled by ``pos``, as (top, bottom), or None
    when some column is not an interval."""
    out = []
    for rs in columns:
        rows = list(map(pos.__getitem__, rs))
        top, bottom = min(rows), max(rows)
        if bottom - top + 1 != len(rows):
            return None
        out.append((top, bottom))
    return out


def _skew_shape_from(columns, pos):
    """lam/mu when, with rows relabelled by ``pos``, every column is an
    interval and the columns sort with tops and bottoms weakly decreasing;
    else None.  Then the columns of each row are a prefix (bottom at or
    below it) meeting a suffix (top at or above it), nonempty as every row
    holds a box, so lam and mu weakly decrease; one pass over the sorted
    columns reads both, lam from the last column on each row and mu from
    the first."""
    intervals = _column_intervals(columns, pos)
    if intervals is None:
        return None
    intervals.sort(key=lambda ab: (-ab[1], -ab[0]))
    rows = len(pos)
    a_prev = b_prev = rows
    lam, mu = [0] * (rows + 1), [0] * (rows + 1)
    for col_pos, (a, b) in enumerate(intervals, start=1):
        if a > a_prev or b > b_prev:
            return None
        a_prev, b_prev = a, b
        for rr in range(a, b + 1):
            if not lam[rr]:
                mu[rr] = col_pos - 1
            lam[rr] = col_pos
    return tuple(lam[1:]), tuple(x for x in mu if x)


def skew_normalise(boxes):
    """Search row orders (plus the induced column sort) for a skew
    presentation lam/mu of the diagram; return the lexicographically
    smallest such pair, or None.  Every row order is tried up to
    ``limits.SKEW_MAX_ROWS`` rows, above that only the given order and rows
    sorted by length, so a skew diagram with rows permuted may give None.
    The columns are read once, not once per row order."""
    boxes = frozenset(boxes)
    if not boxes:
        return (), ()
    relabellings = row_relabellings(boxes, limits.SKEW_MAX_ROWS)
    if relabellings is None:  # keep the row order, or sort rows by length
        rows = diagram_rows(boxes)
        by_length = sorted(rows, key=lambda r: (-len(rows[r]), r))
        relabellings = [{r: k for k, r in enumerate(order, start=1)}
                        for order in (sorted(rows), by_length)]
    columns = [rs for _, rs in sorted(diagram_columns(boxes).items())]
    best = None
    for pos in relabellings:
        shape = _skew_shape_from(columns, pos)
        if shape is not None and (best is None or shape < best):
            best = shape
    return best


def lr_skew_expand(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Littlewood-Richardson coefficients of s_{lam/mu} by exhaustive
    enumeration of semistandard fillings with lattice reverse reading
    word."""
    lam, mu = check_shape(lam, mu)
    cells = []
    for r in range(len(lam)):
        left = mu[r] if r < len(mu) else 0
        # reverse reading order: rows top to bottom, right to left
        cells.extend((r, c) for c in range(lam[r] - 1, left - 1, -1))
    out: dict[Partition, int] = {}
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * len(lam)  # counts[v-1] = #v placed so far

    def place(k: int):
        if k == len(cells):
            content = tuple(itertools.takewhile(lambda x: x > 0, counts))
            out[content] = out.get(content, 0) + 1
            return
        r, c = cells[k]
        lo, hi = 1, r + 1
        right = filling.get((r, c + 1))
        if right is not None:
            hi = min(hi, right)
        above = filling.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, hi + 1):
            # lattice: after placing v, #v must not exceed #(v-1)
            if v > 1 and counts[v - 1] + 1 > counts[v - 2]:
                continue
            filling[(r, c)] = v
            counts[v - 1] += 1
            place(k + 1)
            counts[v - 1] -= 1
            del filling[(r, c)]

    place(0)
    return out


def check_shape(lam, mu) -> tuple[Partition, Partition]:
    lam = check_partition(lam) if lam else ()
    mu = check_partition(mu) if mu else ()
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        raise ValueError(f"{mu} is not contained in {lam}")
    return lam, mu


# -- the Specht oracle ----------------------------------------------------------


def standard_tableaux(lam: Partition) -> list[tuple[Box, ...]]:
    """The standard tableaux of shape lam filled with 0..d-1, each as the
    0-based (row, col) cell of every entry, in lexicographic order."""
    out = []
    filled = [0] * len(lam)
    cells: list[Box] = []

    def place():
        if len(cells) == sum(lam):
            out.append(tuple(cells))
            return
        for row, length in enumerate(lam):
            if filled[row] < length and (row == 0 or filled[row - 1] > filled[row]):
                cells.append((row, filled[row]))
                filled[row] += 1
                place()
                filled[row] -= 1
                cells.pop()

    place()
    return out


class Seminormal:
    """Young's seminormal form of S^lam on the standard tableaux T, with
    contents c_T(v) = col - row and axial distance r = c_T(k+1) - c_T(k):
    s_k e_T = +-e_T when r = +-1, and otherwise, for r > 0 and T' = s_k T,
    s_k e_T = (1/r) e_T + e_T' and s_k e_T' = (1 - 1/r^2) e_T - (1/r) e_T'.

    ``partner[k][i]`` is the index of s_k T_i (i when r = +-1) and
    ``axial[k][i]`` its r; ``act[k][i]`` is (partner, diagonal,
    off-diagonal) of the integer matrix L_k rho(s_k), L_k the lcm of the
    r^2; ``form`` is the diagonal invariant form, D_T' = (1 - 1/r^2) D_T
    for r > 0, scaled to coprime integers.  ``bases`` memoises
    ``eigenspace`` by (tuple(ks), sign), at most 2^d entries; it is the
    only part of a form that changes after ``__init__``.
    """

    __slots__ = ("dim", "partner", "axial", "form", "act", "bases")

    def __init__(self, lam: Partition):
        tableaux = standard_tableaux(lam)
        index = {t: i for i, t in enumerate(tableaux)}
        self.dim = len(tableaux)
        self.bases: dict[tuple[tuple[int, ...], int], tuple[dict[int, int], ...]] = {}
        partners, axials, acts = [], [], []
        for k in range(sum(lam) - 1):
            partner, axial = [], []
            for i, t in enumerate(tableaux):
                (r0, c0), (r1, c1) = t[k], t[k + 1]
                r = (c1 - r1) - (c0 - r0)
                axial.append(r)
                partner.append(i if abs(r) == 1 else
                               index[t[:k] + (t[k + 1], t[k]) + t[k + 2:]])
            scale = lcm(*(r * r for r in axial))
            partners.append(tuple(partner))
            axials.append(tuple(axial))
            acts.append(tuple(
                (j, scale // r, 0 if j == i else scale if r < 0
                 else scale * (r * r - 1) // (r * r))
                for i, (j, r) in enumerate(zip(partner, axial))))
        self.partner, self.axial, self.act = tuple(partners), tuple(axials), tuple(acts)
        form: list[tuple[int, int] | None] = [(1, 1)] + [None] * (self.dim - 1)  # (num, den)
        todo = [0]
        while todo:
            i = todo.pop()
            num, den = form[i]
            for partner, axial in zip(self.partner, self.axial):
                j, r = partner[i], axial[i]
                if j == i:
                    continue
                # D_T' / D_T = a / b, which is 1 - 1/r^2 for r > 0
                a, b = (r * r - 1, r * r) if r > 0 else (r * r, r * r - 1)
                g = gcd(num * a, den * b)
                value = (num * a // g, den * b // g)
                if form[j] is None:
                    form[j] = value
                    todo.append(j)
                elif form[j] != value:
                    raise AssertionError(f"the invariant form of {lam} is not "
                                         f"well defined at tableau {j}")
        top = lcm(*(den for _, den in form))
        ints = [num * (top // den) for num, den in form]
        g = gcd(*ints)
        self.form = tuple(x // g for x in ints)

    def eigenspace(self, ks, sign: int) -> tuple[dict[int, int], ...]:
        """A basis of the common sign-eigenspace of the s_k, k in ``ks``,
        as integer vectors {tableau: coefficient}, memoised on this form by
        (tuple(ks), sign): stored once, never mutated.

        Each rho(s_k) is block diagonal with blocks of size one and two, so
        every condition involves at most two coordinates: x_T = 0 when
        r = -sign, and r x_T = (sign*r + 1) x_T' for a pair with r > 0.
        The solutions are one vector per connected component of these
        conditions, unless a condition forces the component to zero."""
        key = (tuple(ks), sign)
        if key in self.bases:
            return self.bases[key]
        edges: dict[int, list[tuple[int, int, int]]] = {}
        dead = set()
        for k in ks:
            for i, (j, r) in enumerate(zip(self.partner[k], self.axial[k])):
                if j == i:
                    if r == -sign:
                        dead.add(i)
                elif r > 0:  # x_T' / x_T = r / (sign*r + 1)
                    edges.setdefault(i, []).append((j, r, sign * r + 1))
                    edges.setdefault(j, []).append((i, sign * r + 1, r))
        basis = []
        seen: set[int] = set()
        for root in range(self.dim):
            if root in seen:
                continue
            value = {root: (1, 1)}  # x_i = num / den
            todo, alive = [root], True
            while todo:
                i = todo.pop()
                alive = alive and i not in dead
                num, den = value[i]
                for j, a, b in edges.get(i, ()):
                    if j not in value:
                        value[j] = (num * a, den * b)
                        todo.append(j)
                    elif value[j][0] * den * b != num * a * value[j][1]:
                        alive = False
            seen.update(value)
            if alive:
                top = lcm(*(den for _, den in value.values()))
                vec = {i: num * (top // den) for i, (num, den) in value.items()}
                g = gcd(*vec.values())
                basis.append({i: x // g for i, x in vec.items()})
        basis = self.bases[key] = tuple(basis)
        return basis

    def move(self, vec: list[int], order) -> list[int]:
        """rho(s_{k_m} ... s_{k_1}) vec for ``order`` = (k_1, ..., k_m), up
        to a positive scalar, with coprime entries: the integer matrices
        L_k rho(s_k) one swap at a time, and one gcd at the end."""
        for k in order:
            vec = [a * vec[i] + b * vec[j] for i, (j, a, b) in enumerate(self.act[k])]
        g = gcd(*vec)
        return [x // g for x in vec] if g > 1 else vec


@lru_cache(maxsize=sum(1 for d in range(1, limits.SPECHT_MAX_BOXES + 1)
                       for _ in partitions_of(d)))
def seminormal(lam: Partition) -> Seminormal:
    """The seminormal form of S^lam, built on first use; one entry per
    partition of d <= ``limits.SPECHT_MAX_BOXES``.  After it is built, an
    entry changes only by adding bases to its eigenspace memo, each written
    once and never changed."""
    return Seminormal(lam)


@lru_cache(maxsize=limits.SPECHT_MAX_BOXES)
def _partitions_with_conjugates(d: int) -> tuple[tuple[Partition, Partition], ...]:
    """Each partition of d with its conjugate, built once per d."""
    return tuple((lam, conjugate(lam)) for lam in partitions_of(d))


def _rank(rows: list[list[int]]) -> int:
    """The rank of an integer matrix, by fraction-free elimination."""
    rank = 0
    rows = [row for row in rows if any(row)]
    while rows:
        top = rows.pop()
        p = next(k for k, x in enumerate(top) if x)
        a = top[p]
        rank += 1
        reduced = []
        for row in rows:
            b = row[p]
            if b:
                row = [a * x - b * y for x, y in zip(row, top)]
                if not any(row):
                    continue
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
            reduced.append(row)
        rows = reduced
    return rank


def _bubble_swaps(word: list[int]) -> list[int]:
    """The positions k of the adjacent swaps a bubble sort of ``word``
    makes, in order: the permutation with image word ``word`` is
    s_{k_m} o ... o s_{k_1}."""
    word, swaps = list(word), []
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                swaps.append(k)
    return swaps


def specht_decompose_bruteforce(boxes) -> dict[Partition, int]:
    """Decompose the generalised Specht module C[S_d] y_T of a diagram.

    Cells are numbered 0..d-1 in sorted (row, col) order and y_T = R+ C-.
    As C[S_d] is the sum of the End(S^lam), the multiplicity of S^lam is
    rank rho_lam(y_T) = rank(B_R^T D B_C), for B_R a basis of the row
    invariants U_R, B_C one of the column-sign space U_C and D the
    invariant form, all in Young's seminormal form (``seminormal``, whose
    eigenspace bases are memoised).  U_R is the common +1-eigenspace of
    the s_k joining two cells of a row; U_C is rho(sigma) of the common
    -1-eigenspace of the s_k joining two cells of a column in the column
    numbering, sigma the relabelling between the numberings.  The column
    numbering takes the columns in the order of their top cells in the row
    numbering, rows ascending within a column: the column-sign space does
    not depend on the order of the columns, and this one keeps sigma
    short.  sigma moves each basis vector as the swaps of a bubble sort,
    with one gcd normalisation per vector at the end (``Seminormal.move``).
    Young's rule skips lam unless it dominates the row shape and its
    conjugate the column shape.  Exact integer arithmetic throughout.

    The name is kept from the span kernel this one replaced, because the
    CLI, the package's exports and the benchmark's tracer call it by that
    name; the span kernel is now the tests' reference.  Neither uses the
    crystal, Schur or LR routes.
    """
    boxes = frozenset(boxes)
    d = len(boxes)
    if d > limits.SPECHT_MAX_BOXES:
        raise ValueError(f"diagram has {d} boxes, over the ceiling {limits.SPECHT_MAX_BOXES}")
    cells = sorted(boxes)
    top: dict[int, int] = {}
    for k, (_, c) in enumerate(cells):
        top.setdefault(c, k)
    by_col = sorted(cells, key=lambda cell: top[cell[1]])  # stable: rows ascending
    row_ks = [k for k in range(d - 1) if cells[k][0] == cells[k + 1][0]]
    col_ks = [k for k in range(d - 1) if by_col[k][1] == by_col[k + 1][1]]
    index = {cell: k for k, cell in enumerate(cells)}
    swaps = _bubble_swaps([index[cell] for cell in by_col])
    row_shape = tuple(sorted(map(len, diagram_rows(boxes).values()), reverse=True))
    col_shape = tuple(sorted(map(len, diagram_columns(boxes).values()), reverse=True))
    out: dict[Partition, int] = {}
    for lam, lam_t in _partitions_with_conjugates(d):
        if not (dominates(lam, row_shape) and dominates(lam_t, col_shape)):
            continue
        rep = seminormal(lam)
        rows = rep.eigenspace(row_ks, 1)
        cols = rep.eigenspace(col_ks, -1)
        # rho(sigma) is orthogonal for D, <u, rho(sigma) v> = <rho(sigma)^-1 u, v>:
        # move the smaller basis, U_C' by sigma or U_R by sigma^-1
        order = swaps
        if len(rows) < len(cols):
            rows, cols, order = cols, rows, swaps[::-1]
        moved = []
        for sparse in cols:
            vec = [0] * rep.dim
            for i, x in sparse.items():
                vec[i] = x
            moved.append(rep.move(vec, order))
        gram = [[sum(x * rep.form[i] * vec[i] for i, x in u.items()) for vec in moved]
                for u in rows]
        m = _rank(gram)
        if m:
            out[lam] = m
    return out


# -- stability over I_infinity --------------------------------------------------


def stable_bound(rr: PointMultiset) -> int:
    """The smallest n with up(R) meet down({(i, c-2) : (i,c) in R}) living
    over I_n, computed with the path metric on I_infinity."""
    if rr.is_empty():
        return 1
    pts = rr.support()
    max_vertex = max(i for i, _ in pts)
    # from column max_vertex on, theta_j - delta_j = 2j + min(c - i) + 2 -
    # max(c + i) grows by 2 a column: solve for the last j with theta <= delta
    last = (max(c + i for i, c in pts) - 2 - min(c - i for i, c in pts)) // 2
    if last >= max_vertex:
        return last + 1
    top = 1
    for j in range(1, max_vertex):
        theta = min(c + abs(i - j) for i, c in pts)
        delta = max(c - 2 - abs(i - j) for i, c in pts)
        if theta <= delta:
            top = j + 1
    return top


def min_rank(rr: PointMultiset) -> int:
    """Smallest n with R living over I_n."""
    return max(rr.max_vertex() + 1, 1)


def stable_coeffs(rr: PointMultiset) -> dict[Partition, int]:
    """The stable decomposition multiplicities c_R^lambda, computed at the
    stabilisation rank (or the smallest rank carrying R, if larger)."""
    n = max(stable_bound(rr), min_rank(rr))
    datum = build_root_datum("GL", n)
    dec = decompose(datum, rr)
    return {weight_partition(w): m for w, m in dec.items()}


def restrict_coeffs(coeffs: dict[Partition, int], n: int) -> dict[Partition, int]:
    """Keep only partitions of length at most n; this equals the direct
    GL_n decomposition."""
    return {lam: m for lam, m in coeffs.items() if len(lam) <= n}
