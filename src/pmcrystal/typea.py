"""The GL_n correspondence: partition sequences, column-convex diagrams,
Schur characters, stability, and two independent representation-theoretic
oracles.

A partition sequence (l^(1), ..., l^(r)) with len(l^(i)) <= i determines
both a column-convex diagram D (shift the diagram down a row, adjoin the
next Young diagram on fresh columns) and a point multiset R together with
an upward-closed set J (the i-th strip of J holds one point per column
length occurring in l^(i)).  The flagged character recurrence

    ch_0 = 1,   ch_i = e^{l^(i)} * pi_1 ... pi_{i-1} (ch_{i-1})

computes the flagged Schur module character; applying pi_{w_o} gives the
full Schur module character, whose Weyl decomposition yields the diagram's
generalised Littlewood-Richardson coefficients.

Two independent oracles cross-check those coefficients: exhaustive
enumeration of lattice skew tableaux (when the diagram has a skew
presentation), and an exact symmetric-group computation that spans
C[S_d] * y_T by left translates of the Young symmetrizer, row-reduces the
span over Q, reads traces of left multiplication off the pivots, and pairs
them against Murnaghan-Nakayama characters.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .cartan import RootDatum, Weight, build_root_datum
from .product import (PointMultiset, multiset, decompose, expand_label,
                      s_label)
from .truncation import ThresholdSet
from .weightring import (GroupAlgebraElement, apply_word, e as ga_e,
                         pi_longest, weyl_decompose)

Partition = tuple[int, ...]
Box = tuple[int, int]  # (row, col), 1-based, matrix convention

# the most boxes ``specht_decompose_bruteforce`` takes; ``cli schur`` adds
# the Specht decomposition up to this size
SPECHT_MAX_BOXES = 7


# -- partitions ---------------------------------------------------------------


def check_partition(p) -> Partition:
    p = tuple(int(x) for x in p)
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


def column_mults(p: Partition) -> dict[int, int]:
    """Number of columns of each length: length j occurs p_j - p_{j+1}
    times."""
    out = {}
    for j in range(1, len(p) + 1):
        nxt = p[j] if j < len(p) else 0
        if p[j - 1] - nxt:
            out[j] = p[j - 1] - nxt
    return out


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


# -- partition sequences and their diagrams -----------------------------------


def check_sequence(seq) -> tuple[Partition, ...]:
    out = []
    for i, p in enumerate(seq, start=1):
        p = check_partition(p)
        if len(p) > i:
            raise ValueError(f"partition #{i} of the sequence has length "
                             f"{len(p)} > {i}")
        out.append(p)
    return tuple(out)


def diagram_of_sequence(seq) -> frozenset[Box]:
    """Shift the running diagram down one row, then adjoin the Young
    diagram of the next partition on fresh columns, longest row on row 1."""
    seq = check_sequence(seq)
    boxes: set[Box] = set()
    for p in seq:
        boxes = {(r + 1, c) for (r, c) in boxes}
        base = max((c for (_, c) in boxes), default=0)
        for r, parts in enumerate(p, start=1):
            for c in range(1, parts + 1):
                boxes.add((r, base + c))
    return frozenset(boxes)


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


def is_column_convex(boxes) -> bool:
    return all(rs[-1] - rs[0] + 1 == len(rs)
               for rs in diagram_columns(boxes).values())


def sequence_of_diagram(boxes) -> tuple[Partition, ...]:
    """Recover a partition sequence from a column-convex diagram (sorting
    columns), searching row permutations first when columns have gaps.

    The Specht/Schur decomposition is invariant under row and column
    permutations, so any convexifying row order is as good as another.
    """
    boxes = frozenset(boxes)
    if not boxes:
        return ()
    if not is_column_convex(boxes):
        rows = sorted(diagram_rows(boxes))
        if len(rows) > 8:
            raise ValueError("diagram has gapped columns and too many rows "
                             "to search for a convexifying row order")
        for perm in itertools.permutations(range(1, len(rows) + 1)):
            relabel = dict(zip(rows, perm))
            moved = frozenset((relabel[r], c) for (r, c) in boxes)
            if is_column_convex(moved):
                boxes = moved
                break
        else:
            raise ValueError("no row order makes this diagram column-convex")
    cols = diagram_columns(boxes)
    r = max(rs[-1] for rs in cols.values())
    lengths_at: dict[int, list[int]] = {}
    for rs in cols.values():
        step = r - rs[0] + 1
        lengths_at.setdefault(step, []).append(len(rs))
    seq = []
    for i in range(1, r + 1):
        seq.append(conjugate(tuple(sorted(lengths_at.get(i, []), reverse=True))))
    return check_sequence(seq)


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


# -- sequences <-> multisets ---------------------------------------------------


def sequence_strips(seq) -> list[dict[int, int]]:
    """Per step i, the column multiplicities of l^(i): vertex j carries
    multiplicity (#columns of length j), living at grid point (j, j-2i)."""
    seq = check_sequence(seq)
    return [column_mults(p) for p in seq]


def multiset_of_sequence(seq, n: int | None = None) -> tuple[PointMultiset, ThresholdSet, int]:
    """The (R, J) pair of a partition sequence, over GL_n.

    J's column-j threshold after all r steps is j - 2r (the union of
    strips), with column 1 of the i-th strip at height 1 - 2i.  Returns
    (R, J, n) where n defaults to the smallest rank whose vertex set
    carries both R and J's finite columns.
    """
    seq = check_sequence(seq)
    r = len(seq)
    mult: dict[tuple[int, int], int] = {}
    for i, strip in enumerate(sequence_strips(seq), start=1):
        for j, m in strip.items():
            pt = (j, j - 2 * i)
            mult[pt] = mult.get(pt, 0) + m
    rr = multiset(mult)
    min_n = max(r, rr.max_vertex() + 1, 1)
    if n is None:
        n = min_n
    elif n < min_n:
        raise ValueError(f"rank {n} too small; sequence needs GL_{min_n}")
    thresholds = tuple(min(2 - j, j - 2 * r) for j in range(1, n))
    return rr, ThresholdSet(thresholds), n


def sequence_of_multiset(rr: PointMultiset) -> tuple[Partition, ...]:
    """Read a partition sequence back off a multiset, after the even
    vertical shift placing every point (j, c) at or below c = -j."""
    if rr.is_empty():
        return ()
    shift = 0
    for (j, c), _ in rr.points:
        over = c + j
        if over > shift:
            shift = over + (over % 2)
    shifted = rr.shifted(-shift)
    strips: dict[int, dict[int, int]] = {}
    for (j, c), m in shifted.points:
        i = (j - c) // 2
        strips.setdefault(i, {})[j] = m
    r = max(strips)
    seq = []
    for i in range(1, r + 1):
        mults = strips.get(i, {})
        top = max(mults, default=0)
        parts = tuple(sum(m for j, m in mults.items() if j >= k)
                      for k in range(1, top + 1))
        seq.append(parts)
    return check_sequence(seq)


# -- Schur characters ----------------------------------------------------------


def flagged_schur_char(seq, n: int) -> GroupAlgebraElement:
    """Fold ch -> e^{l^(i)} * pi_1...pi_{i-1}(ch) over the sequence, in
    GL_n (n at least the sequence length)."""
    seq = check_sequence(seq)
    if n < len(seq):
        raise ValueError(f"rank {n} < sequence length {len(seq)}")
    datum = build_root_datum("GL", n)
    ch = GroupAlgebraElement.unit(datum)
    for i, p in enumerate(seq, start=1):
        ch = apply_word(datum, range(1, i), ch)
        ch = ga_e(partition_weight(p, n)) * ch
    return ch


def schur_char(seq, n: int) -> GroupAlgebraElement:
    """pi_{w_o} of the flagged character: the full Schur module
    character."""
    datum = build_root_datum("GL", n)
    return pi_longest(datum, flagged_schur_char(seq, n))


def schur_decompose(seq, n: int) -> dict[Partition, int]:
    datum = build_root_datum("GL", n)
    dec = weyl_decompose(datum, schur_char(seq, n))
    return {weight_partition(w): m for w, m in dec.items()}


# -- skew presentations and Littlewood-Richardson ------------------------------


def _column_intervals(boxes, row_order):
    pos = {r: k + 1 for k, r in enumerate(row_order)}
    cols = diagram_columns(boxes)
    out = []
    for c in sorted(cols):
        rows = sorted(pos[r] for r in cols[c])
        if rows[-1] - rows[0] + 1 != len(rows):
            return None
        out.append((rows[0], rows[-1]))
    return out


def _skew_shape_from(boxes, row_order):
    intervals = _column_intervals(boxes, row_order)
    if intervals is None:
        return None
    order = sorted(range(len(intervals)),
                   key=lambda k: (-intervals[k][1], -intervals[k][0]))
    a_prev, b_prev = None, None
    placed: set[Box] = set()
    for col_pos, k in enumerate(order, start=1):
        a, b = intervals[k]
        if a_prev is not None and (a > a_prev or b > b_prev):
            return None
        a_prev, b_prev = a, b
        placed.update((rr, col_pos) for rr in range(a, b + 1))
    nrows = len(row_order)
    lam, mu = [], []
    for rr in range(1, nrows + 1):
        cs = sorted(c for (r2, c) in placed if r2 == rr)
        if not cs or cs[-1] - cs[0] + 1 != len(cs):
            return None
        lam.append(cs[-1])
        mu.append(cs[0] - 1)
    if any(a < b for a, b in zip(lam, lam[1:])):
        return None
    if any(a < b for a, b in zip(mu, mu[1:])):
        return None
    return tuple(lam), tuple(x for x in mu if x)


def skew_normalise(boxes):
    """Search row orders (plus the induced column sort) for a skew
    presentation lam/mu of the diagram; return the lexicographically
    smallest such pair, or None."""
    boxes = frozenset(boxes)
    if not boxes:
        return (), ()
    rows = sorted(diagram_rows(boxes))
    if len(rows) > 7:
        candidates = [rows, sorted(rows, key=lambda r: (-len(diagram_rows(boxes)[r]), r))]
    else:
        candidates = [list(p) for p in itertools.permutations(rows)]
    best = None
    for order in candidates:
        shape = _skew_shape_from(boxes, order)
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
    counts = [0] * (len(lam) + 1)  # counts[v-1] = #v placed so far

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


# -- symmetric group characters (Murnaghan-Nakayama) ---------------------------


@lru_cache(maxsize=1024)
def sym_character(lam: Partition, mu: Partition) -> int:
    """chi^lam on the class of cycle type mu, by border-strip recursion on
    beta-numbers."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        if b - k < 0 or (b - k) in beta_set:
            continue
        jumped = sum(1 for x in beta if b - k < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(b - k)
        new_beta.sort(reverse=True)
        new_lam = tuple(x - (length - 1 - i) for i, x in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** jumped * sym_character(new_lam, rest)
    return total


def partitions_of(d: int):
    if d == 0:
        yield ()
        return

    def gen(rest, biggest):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, biggest), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    yield from gen(d, d)


def centraliser_order(mu: Partition) -> int:
    z = 1
    for part, group in itertools.groupby(mu):
        m = len(list(group))
        z *= part ** m
        for t in range(1, m + 1):
            z *= t
    return z


def class_representative(mu: Partition, d: int) -> tuple[int, ...]:
    """A permutation of {0..d-1} (as an image tuple) with cycle type mu."""
    img = list(range(d))
    pos = 0
    for part in mu:
        for t in range(part):
            img[pos + t] = pos + (t + 1) % part
        pos += part
    return tuple(img)


def perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def invert(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for k, v in enumerate(a):
        out[v] = k
    return tuple(out)


# -- the Specht brute-force oracle ---------------------------------------------


def _group_perms(blocks: list[list[int]], d: int):
    """All permutations of {0..d-1} permuting each block within itself."""
    perms = [tuple(itertools.permutations(b)) for b in blocks]
    for choice in itertools.product(*perms):
        img = list(range(d))
        for block, image in zip(blocks, choice):
            for src, dst in zip(block, image):
                img[src] = dst
        yield tuple(img)


def young_symmetriser(boxes) -> dict[tuple[int, ...], int]:
    """y_T = sum over row-group r and column-group c of sgn(c) * (r o c),
    for the tableau numbering the sorted cells 0..d-1.

    Row symmetrisation with column signs matches the normalisation in
    which a single-row diagram gives the trivial module."""
    cells = sorted(boxes)
    d = len(cells)
    index = {cell: k for k, cell in enumerate(cells)}
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for cell in cells:
        rows.setdefault(cell[0], []).append(index[cell])
        cols.setdefault(cell[1], []).append(index[cell])
    y: dict[tuple[int, ...], int] = {}
    col_elems = [(perm_sign(c), c) for c in _group_perms(list(cols.values()), d)]
    for r in _group_perms(list(rows.values()), d):
        for sign, c in col_elems:
            key = compose(r, c)
            y[key] = y.get(key, 0) + sign
    return {k: v for k, v in y.items() if v}


def _normalise_row(vec: dict) -> dict:
    from math import gcd
    g = 0
    for v in vec.values():
        g = gcd(g, abs(v))
    if g > 1:
        vec = {k: v // g for k, v in vec.items()}
    pivot = min(vec)
    if vec[pivot] < 0:
        vec = {k: -v for k, v in vec.items()}
    return vec


class _SpanBasis:
    """A reduced row-echelon integer basis of a left ideal of Z[S_d],
    with rows keyed by permutation tuples and pivots at the smallest key."""

    def __init__(self):
        self.rows: list[dict] = []
        self.pivots: dict[tuple[int, ...], int] = {}

    def reduce(self, vec: dict) -> dict:
        # Rows are mutually reduced, so each pivot hit is eliminated once
        # and the eliminating row introduces no further pivot coordinates.
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
        vec = _normalise_row(vec)
        pivot = min(vec)
        # keep reduced form: clear the new pivot from existing rows (their
        # pivots stay put, as every key of vec is at least the new pivot)
        for idx, row in enumerate(self.rows):
            coeff = row.get(pivot)
            if coeff:
                a = vec[pivot]
                new = {k: a * row.get(k, 0) - coeff * vec.get(k, 0)
                       for k in set(row) | set(vec)}
                self.rows[idx] = _normalise_row({k: v for k, v in new.items() if v})
        self.rows.append(vec)
        self.pivots[pivot] = len(self.rows) - 1
        return True

    def trace_of_left_mult(self, h: tuple[int, ...]) -> int:
        """Trace of v -> h * v on the spanned module, read off the pivots
        of the reduced basis."""
        h_inv = invert(h)
        total = Fraction(0)
        for pivot, idx in self.pivots.items():
            row = self.rows[idx]
            total += Fraction(row.get(compose(h_inv, pivot), 0), row[pivot])
        if total.denominator != 1:
            raise AssertionError(f"trace of {h} is not an integer")
        return int(total)


def specht_decompose_bruteforce(boxes) -> dict[Partition, int]:
    """Decompose the generalised Specht module C[S_d] y_T of a diagram.

    Spans the module by left translates of y_T (closing under the adjacent
    transpositions), computes the character as traces of left
    multiplication on the reduced basis, and pairs against the
    Murnaghan-Nakayama irreducible characters.  Exact integer arithmetic
    throughout.
    """
    boxes = frozenset(boxes)
    d = len(boxes)
    if d > SPECHT_MAX_BOXES:
        raise ValueError(f"diagram has {d} boxes, over the ceiling {SPECHT_MAX_BOXES}")
    if d == 0:
        return {(): 1}
    y = young_symmetriser(boxes)
    gens = []
    for k in range(d - 1):
        img = list(range(d))
        img[k], img[k + 1] = img[k + 1], img[k]
        gens.append(tuple(img))
    basis = _SpanBasis()
    frontier = [y]
    while frontier:
        vec = frontier.pop()
        if not basis.insert(vec):
            continue
        for g in gens:
            frontier.append({compose(g, perm): coeff for perm, coeff in vec.items()})

    classes = list(partitions_of(d))
    module_char = {mu: basis.trace_of_left_mult(class_representative(mu, d))
                   for mu in classes}
    if module_char[(1,) * d] != len(basis.rows):
        raise AssertionError("identity trace differs from the module dimension")

    out: dict[Partition, int] = {}
    for lam in classes:
        acc = Fraction(0)
        for mu in classes:
            acc += Fraction(module_char[mu] * sym_character(lam, mu),
                            centraliser_order(mu))
        if acc.denominator != 1 or acc < 0:
            raise AssertionError(f"multiplicity of {lam} is {acc}")
        if acc:
            out[lam] = int(acc)
    return out


# -- stability over I_infinity --------------------------------------------------


def psi_embed(datum_n: RootDatum, datum_m: RootDatum, rr: PointMultiset, p):
    """Send an element of M(GL_n, R) to M(GL_m, R) by preserving its
    S-label (n <= m)."""
    if datum_n.kind != "GL" or datum_m.kind != "GL":
        raise ValueError("psi embeddings are a GL construction")
    if datum_n.rank > datum_m.rank:
        raise ValueError("psi goes from smaller rank to larger")
    s = s_label(datum_n, rr, p)
    return expand_label(datum_m, rr, s)


def stable_bound(rr: PointMultiset) -> int:
    """The smallest n with up(R) meet down({(i, c-2) : (i,c) in R}) living
    over I_n, computed with the path metric on I_infinity."""
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
