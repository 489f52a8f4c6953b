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
them against Murnaghan-Nakayama characters.  It keys S_d by Lehmer rank,
translates through int tables per adjacent transposition (the lru_cache
``_rank_tables``, one entry per d up to ``SPECHT_MAX_BOXES``; racing
threads at worst build one twice), and eliminates fraction-free in place
on int-keyed dict rows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cartan import RootDatum, Weight, build_root_datum
from .product import (PointMultiset, multiset, decompose, expand_label,
                      s_label, strict_int)
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
    p = tuple(strict_int(x) for x in p)
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


def check_diagram(boxes) -> frozenset[Box]:
    """The (row, col) boxes of a diagram, every row and column an integer
    >= 1 and no box listed twice."""
    pairs = [(strict_int(r), strict_int(c)) for r, c in boxes]
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


def is_column_convex(boxes) -> bool:
    return all(rs[-1] - rs[0] + 1 == len(rs)
               for rs in diagram_columns(boxes).values())


def row_relabellings(boxes, max_rows: int):
    """Every map of the diagram's n rows onto 1..n, as dicts in
    lexicographic order of the images, or None over ``max_rows`` rows."""
    rows = sorted(diagram_rows(boxes))
    if len(rows) > max_rows:
        return None
    return (dict(zip(rows, perm))
            for perm in itertools.permutations(range(1, len(rows) + 1)))


def sequence_of_diagram(boxes) -> tuple[Partition, ...]:
    """Recover a partition sequence from a column-convex diagram (sorting
    columns), searching row permutations first when columns have gaps.

    The Specht/Schur decomposition is invariant under row and column
    permutations, so any convexifying row order is as good as another.
    """
    boxes = check_diagram(boxes)
    if not boxes:
        return ()
    if not is_column_convex(boxes):
        relabellings = row_relabellings(boxes, 8)
        if relabellings is None:
            raise ValueError("diagram has gapped columns and too many rows "
                             "to search for a convexifying row order")
        for relabel in relabellings:
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


def _column_intervals(boxes, pos):
    cols = diagram_columns(boxes)
    out = []
    for c in sorted(cols):
        rows = sorted(pos[r] for r in cols[c])
        if rows[-1] - rows[0] + 1 != len(rows):
            return None
        out.append((rows[0], rows[-1]))
    return out


def _skew_shape_from(boxes, pos):
    intervals = _column_intervals(boxes, pos)
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
    nrows = len(pos)
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
    relabellings = row_relabellings(boxes, 7)
    if relabellings is None:  # keep the row order, or sort rows by length
        rows = diagram_rows(boxes)
        by_length = sorted(rows, key=lambda r: (-len(rows[r]), r))
        relabellings = [{r: k for k, r in enumerate(order, start=1)}
                        for order in (sorted(rows), by_length)]
    best = None
    for pos in relabellings:
        shape = _skew_shape_from(boxes, pos)
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


@lru_cache(maxsize=SPECHT_MAX_BOXES + 1)
def _rank_tables(d: int):
    """S_d by Lehmer rank, the position in ``itertools.permutations(range(d))``
    (so rank order is tuple order): the image words (bytes) by rank, the
    rank of each word, and per adjacent transposition s_k the table
    rank(perm) -> rank(s_k o perm).  Never mutated once built."""
    words = tuple(bytes(perm) for perm in itertools.permutations(range(d)))
    rank = {w: k for k, w in enumerate(words)}
    # s_k o perm swaps the values k and k+1 of the image word
    left = [tuple(rank[w.translate(swap)] for w in words)
            for swap in (bytes.maketrans(bytes((k, k + 1)), bytes((k + 1, k)))
                         for k in range(d - 1))]
    return words, rank, left


def _eliminate(vec: dict[int, int], row: dict[int, int], p: int) -> None:
    """vec <- a*vec - b*row in place, for a = row[p] and b = vec[p], so that
    vec loses its entry at p; cancelled entries are dropped."""
    a, b = row[p], vec[p]
    if a != 1:
        for k in vec:
            vec[k] *= a
    for k, v in row.items():
        x = vec.get(k, 0) - b * v
        if x:
            vec[k] = x
        else:
            del vec[k]


def _normalise(vec: dict[int, int]) -> None:
    """Divide out the content and make the pivot (smallest key) positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    if g != 1:
        for k in vec:
            vec[k] //= g


def specht_decompose_bruteforce(boxes) -> dict[Partition, int]:
    """Decompose the generalised Specht module C[S_d] y_T of a diagram.

    Spans the module by left translates of y_T, closing under the adjacent
    transpositions (never straight back along the one a vector came by),
    with permutations as Lehmer ranks and left translation by s_k one
    lookup per key in a table of ``_rank_tables``, an lru_cache of one
    entry per d up to ``SPECHT_MAX_BOXES``; concurrent calls share it
    safely, racing threads at worst building a table twice.  Each new
    vector is reduced in place, fraction-free, against a reduced echelon
    basis of int-keyed integer rows (pivot at the smallest rank, content
    divided out, so the basis does not depend on the order of insertion),
    and then clears its pivot from the other rows.  The character is the
    trace of left multiplication read off the pivots, paired against the
    Murnaghan-Nakayama irreducible characters.  Exact integer arithmetic
    throughout; traces, the identity trace (= the module dimension) and the
    multiplicities are checked integral.
    """
    boxes = frozenset(boxes)
    d = len(boxes)
    if d > SPECHT_MAX_BOXES:
        raise ValueError(f"diagram has {d} boxes, over the ceiling {SPECHT_MAX_BOXES}")
    if d == 0:
        return {(): 1}
    words, rank, left = _rank_tables(d)
    y = {rank[bytes(perm)]: v for perm, v in young_symmetriser(boxes).items()}
    rows: dict[int, dict[int, int]] = {}  # pivot -> row, mutually reduced
    # (vector, the table it came by): that table leads back into the span
    frontier = [(y, None)]
    while frontier:
        vec, back = frontier.pop()
        red = dict(vec)
        # a row has no entry at another row's pivot, so each pivot hit is
        # eliminated once and brings in no further pivot
        for p in [k for k in red if k in rows]:
            _eliminate(red, rows[p], p)
        if not red:
            continue
        _normalise(red)
        pivot = min(red)
        # every key of red is >= pivot, so the other rows keep their pivots
        for row in rows.values():
            if pivot in row:
                _eliminate(row, red, pivot)
                _normalise(row)
        rows[pivot] = red
        frontier.extend(({t[k]: v for k, v in vec.items()}, t)
                        for t in left if t is not back)

    def trace(h: tuple[int, ...]) -> int:
        # the coefficient of h o pivot in h * row sits at h^-1 o pivot in row
        h_inv = bytes.maketrans(bytes(range(d)), bytes(invert(h)))
        total = sum((Fraction(row.get(rank[words[p].translate(h_inv)], 0), row[p])
                     for p, row in rows.items()), Fraction(0))
        if total.denominator != 1:
            raise AssertionError(f"trace of {h} is not an integer")
        return int(total)

    classes = list(partitions_of(d))
    module_char = {mu: trace(class_representative(mu, d)) for mu in classes}
    if module_char[(1,) * d] != len(rows):
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
