"""Fundamental subcrystals, the product monomial crystal, and S-labels.

The product crystal attached to a finite multiset R of parity-respecting
points is the monomial-wise product of the fundamental subcrystals
generated by e^{n w_i} y_{i,c}^n over the points (i, c) of R (n the
multiplicity).  Every element factors uniquely as p = y_R * z_S^{-1} for a
finite multiset S; the exponents are tied together by

    p[i,k] = R[i,k] - S[i,k-2] - S[i,k] + sum_{j ~ i} S[j,k-1].

``s_label`` inverts this relation by a descending sweep over the grid
levels: reading the relation at k = c+2 expresses S[i,c] through S-values
strictly above level c, so the sweep is forced once it starts above all
supports.  Since wt(p) = wt(R) - sum S[i,c] alpha_i, any label spends
exactly height(wt R - wt p) in entries weighted by height(alpha_i); that
integer budget bounds the sweep, and re-expanding the label is the one
membership verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import RootDatum, Weight, w_add, w_scale, w_sub
from .crystal import (ClosureLimitError, CrystalGraph, closure, graph_over,
                      highest_weights, DEFAULT_CEILING)
from .monomial import (LatticePoint, Monomial, MonomialCodec, make_monomial,
                       mono_mul, one, require_lattice_point, y_monomial)


class NotExpressibleError(ValueError):
    """The monomial is not of the form y_R z_S^{-1} over this R."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


@dataclass(frozen=True, order=True)
class PointMultiset:
    """A finite multiset of lattice points: ((point, multiplicity), ...)
    sorted, multiplicities positive."""

    points: tuple[tuple[LatticePoint, int], ...]

    def multiplicity(self, i: int, c: int) -> int:
        for (pi, pc), m in self.points:
            if (pi, pc) == (i, c):
                return m
        return 0

    def support(self) -> tuple[LatticePoint, ...]:
        return tuple(pt for pt, _ in self.points)

    def size(self) -> int:
        return sum(m for _, m in self.points)

    def is_empty(self) -> bool:
        return not self.points

    def __add__(self, other: "PointMultiset") -> "PointMultiset":
        out = dict(self.points)
        for pt, m in other.points:
            out[pt] = out.get(pt, 0) + m
        return multiset(out)

    def shifted(self, dc: int) -> "PointMultiset":
        """Vertical shift by dc (even, to respect parity classes)."""
        if dc % 2:
            raise ValueError("vertical shifts must be even to preserve parity")
        return multiset({(i, c + dc): m for (i, c), m in self.points})

    def max_vertex(self) -> int:
        return max((i for (i, _), _ in self.points), default=0)

    def to_json(self) -> list:
        return [[i, c, m] for (i, c), m in self.points]

    def __str__(self):
        if not self.points:
            return "{}"
        bits = [f"({i},{c})" + (f"^{m}" if m > 1 else "")
                for (i, c), m in self.points]
        return "{" + ", ".join(bits) + "}"


def multiset(mult: dict[LatticePoint, int]) -> PointMultiset:
    for pt, m in mult.items():
        if m < 0:
            raise ValueError(f"negative multiplicity at {pt}")
    return PointMultiset(tuple(sorted((pt, m) for pt, m in mult.items() if m > 0)))


def multiset_from_pairs(pairs) -> PointMultiset:
    out: dict[LatticePoint, int] = {}
    for entry in pairs:
        i, c, m = (entry if len(entry) == 3 else (*entry, 1))
        out[(int(i), int(c))] = out.get((int(i), int(c)), 0) + int(m)
    return multiset(out)


def validate_points(datum: RootDatum, r: PointMultiset) -> None:
    for (i, c), _ in r.points:
        require_lattice_point(datum, i, c)


def weight_of_multiset(datum: RootDatum, r: PointMultiset) -> Weight:
    w = datum.zero
    for (i, _), m in r.points:
        w = w_add(w, w_scale(m, datum.fundamentals[i]))
    return w


def y_of_multiset(datum: RootDatum, r: PointMultiset) -> Monomial:
    p = one(datum)
    for (i, c), m in r.points:
        p = mono_mul(p, y_monomial(datum, i, c, m))
    return p


def fundamental_crystal(datum: RootDatum, i: int, c: int, n: int,
                        limit: int = DEFAULT_CEILING) -> CrystalGraph:
    """M(i,c)^n: the closure of the highest-weight monomial y_{i,c}^n."""
    return closure(datum, [y_monomial(datum, i, c, n)], limit)


def product_crystal(datum: RootDatum, r: PointMultiset,
                    limit: int = DEFAULT_CEILING) -> CrystalGraph:
    """M(R): the monomial-wise product of the fundamental subcrystals.

    The factor sets are folded pairwise with deduplication, as packed keys
    (a product of monomials is a sum of keys); every intermediate product is
    itself a product crystal, so the working set never exceeds the true
    size, and ClosureLimitError is raised as soon as it passes ``limit``.
    The resulting set is closed under all e_i/f_i by the underlying theory;
    this is asserted rather than trusted.
    """
    validate_points(datum, r)
    factors = [fundamental_crystal(datum, i, c, m, limit).elements
               for (i, c), m in r.points]
    codec = MonomialCodec.for_products(datum, factors)
    product = {codec.zero}
    for factor in factors:
        offsets = [codec.offset(q) for q in factor]
        folded: set[int] = set()
        for p in product:
            folded.update([p + q for q in offsets])
            if len(folded) > limit:
                raise ClosureLimitError(f"product crystal exceeded limit {limit}")
        product = folded
    # raises if the product set is not closed
    return graph_over(datum, product, codec)


def expand_label(datum: RootDatum, r: PointMultiset, s: PointMultiset) -> Monomial:
    """The monomial y_R z_S^{-1}, from the defining exponent relation."""
    exps: dict[LatticePoint, int] = {}

    def bump(i, c, v):
        if v:
            exps[(i, c)] = exps.get((i, c), 0) + v
            if exps[(i, c)] == 0:
                del exps[(i, c)]

    for (i, c), m in r.points:
        bump(i, c, m)
    weight = weight_of_multiset(datum, r)
    for (i, k), m in s.points:
        bump(i, k, -m)
        bump(i, k + 2, -m)
        for j in datum.neighbours[i]:
            bump(j, k + 1, m)
        weight = w_sub(weight, w_scale(m, datum.alphas[i]))
    return make_monomial(weight, exps)


def s_label(datum: RootDatum, r: PointMultiset, p: Monomial) -> PointMultiset:
    """The unique S with p = y_R z_S^{-1}, or NotExpressibleError.

    The sweep solves
    S[i,c] = R[i,c+2] - p[i,c+2] - S[i,c+2] + sum_{j~i} S[j,c+1] level by
    level downward, which only involves already-known values, and stops two
    empty levels below the lowest support.  Any label of p has
    sum S[i,c] height(alpha_i) = height(wt R - wt p); the sweep raises on a
    negative entry or once it overspends that budget, which bounds its
    length, and its result is accepted only if it re-expands to p.
    """
    budget = datum.height(w_sub(weight_of_multiset(datum, r), p.weight))
    cost = {i: datum.height(datum.alphas[i]) for i in datum.vertices}
    rd = {pt: m for pt, m in r.points}
    pd = {pt: ex for pt, ex in p.exponents}
    support_levels = [c for (_, c) in rd] + [c for (_, c) in pd]
    s: dict[LatticePoint, int] = {}
    min_seen = min(support_levels, default=0)
    c = max(support_levels, default=0)
    while c >= min_seen - 2:
        for i in datum.vertices:
            if datum.parity[i] != c % 2:
                continue
            val = (rd.get((i, c + 2), 0) - pd.get((i, c + 2), 0)
                   - s.get((i, c + 2), 0)
                   + sum(s.get((j, c + 1), 0) for j in datum.neighbours[i]))
            if val < 0:
                raise NotExpressibleError(f"negative S entry at ({i},{c})")
            if val:
                budget -= val * cost[i]
                if budget < 0:
                    raise NotExpressibleError("S exceeds height(wt R - wt p)")
                s[(i, c)] = val
                min_seen = min(min_seen, c)
        c -= 1
    out = multiset(s)
    if expand_label(datum, r, out) != p:
        raise NotExpressibleError("re-expansion mismatch")
    return out


def r_support(datum: RootDatum, r: PointMultiset, p: Monomial) -> frozenset[LatticePoint]:
    """Supp_R(p) = Supp R united with the support of p's S-label."""
    s = s_label(datum, r, p)
    return frozenset(r.support()) | frozenset(s.support())


def decompose(datum: RootDatum, r: PointMultiset,
              limit: int = DEFAULT_CEILING) -> dict[Weight, int]:
    """Multiplicities of each B(lambda) inside M(R), computed two
    independent ways (highest-weight enumeration on the closed graph, and
    Weyl decomposition of the Demazure-stabilised truncation character).
    Raises ConsistencyError when the routes disagree."""
    from . import truncation
    from .weightring import weyl_decompose

    graph = product_crystal(datum, r, limit)
    counts: dict[Weight, int] = {}
    for p in highest_weights(graph):
        counts[p.weight] = counts.get(p.weight, 0) + 1

    by_character = weyl_decompose(datum, truncation.full_character(datum, r))
    if by_character != counts:
        raise ConsistencyError(
            "decomposition routes disagree: "
            f"highest-weight enumeration gave {counts}, "
            f"character route gave {by_character}")
    return counts
