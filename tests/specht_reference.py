"""Test-only references for the Specht oracle ``typea.specht_decompose_bruteforce``.

Both span the generalised Specht module C[S_d] y_T inside the group
algebra and read its decomposition off traces of left multiplication,
paired against Murnaghan-Nakayama characters; the library's kernel takes
ranks in Young's seminormal form instead, so these stay independent of it.

- ``lehmer_specht_decompose``: permutations by Lehmer rank, int translation
  tables per adjacent transposition, in-place fraction-free elimination.
  It was the library's kernel before the rank kernel.
- ``ref_specht_decompose``: the oracle as first written, with permutation
  tuples as keys and rows rebuilt on every elimination step.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from pmcrystal.typea import Partition, partitions_of

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


# -- the Young symmetriser ------------------------------------------------------


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


# -- the Lehmer-ranked span kernel -----------------------------------------------


@lru_cache(maxsize=8)
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


def lehmer_specht_decompose(boxes) -> dict[Partition, int]:
    """Decompose the generalised Specht module C[S_d] y_T of a diagram.

    Spans the module by left translates of y_T, closing under the adjacent
    transpositions (never straight back along the one a vector came by),
    with permutations as Lehmer ranks and left translation by s_k one
    lookup per key in a table of ``_rank_tables`` (cached per d).  Each new
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
        hits = ((row.get(rank[words[p].translate(h_inv)]), row[p])
                for p, row in rows.items())
        total = sum((Fraction(x, y) for x, y in hits if x), Fraction(0))
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


# -- the span kernel as first written ---------------------------------------------


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


