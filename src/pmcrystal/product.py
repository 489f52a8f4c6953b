"""Fundamental subcrystals, the product monomial crystal, and S-labels.

The product crystal attached to a finite multiset R of parity-respecting
points is the monomial-wise product of the fundamental subcrystals
generated by e^{n w_i} y_{i,c}^n over the points (i, c) of R (n the
multiplicity).  Every element factors uniquely as p = y_R * z_S^{-1} for a
finite multiset S.

``s_label`` finds S by peeling z_S = y_R / p from its top level down,
which visits only the levels where the residual is nonzero.  Since
wt(p) = wt(R) - sum S[i,c] alpha_i, any label spends exactly
height(wt R - wt p) in entries weighted by height(alpha_i); that integer
budget bounds the peel, and re-expanding the label is the one membership
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import RootDatum, Weight, add_into, w_add, w_scale, w_sub, weight_str
from . import crystal
from .crystal import (ClosureLimitError, CrystalGraph, closure, graph_over,
                      highest_weights)
from .monomial import (LatticePoint, Monomial, MonomialCodec, make_monomial,
                       mono_mul, one, require_lattice_point, y_monomial,
                       z_exponents)


class NotExpressibleError(ValueError):
    """The monomial is not of the form y_R z_S^{-1} over this R."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree: ``diff``
    maps every weight where they differ to the pair of values."""

    def __init__(self, message: str, diff: dict):
        super().__init__(message)
        self.diff = diff


@dataclass(frozen=True, order=True)
class PointMultiset:
    """A finite multiset of lattice points: ((point, multiplicity), ...)
    sorted, multiplicities positive."""

    points: tuple[tuple[LatticePoint, int], ...]

    def support(self) -> tuple[LatticePoint, ...]:
        return tuple(pt for pt, _ in self.points)

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


def multiset(mult: dict[LatticePoint, int]) -> PointMultiset:
    for pt, m in mult.items():
        if m < 0:
            raise ValueError(f"negative multiplicity at {pt}")
    return PointMultiset(tuple(sorted((pt, m) for pt, m in mult.items() if m > 0)))


def strict_int(x) -> int:
    """int(x), refusing what int() takes without it being an integer: a
    bool, a string, or a float with a fractional part (or an infinite or NaN
    one)."""
    if isinstance(x, (bool, str)) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def multiset_from_pairs(pairs) -> PointMultiset:
    """The multiset of [i, c, m] (or [i, c], m = 1) entries, the m of
    repeated points summed; every m is checked before any is summed, so a
    negative one cannot cancel against another."""
    out: dict[LatticePoint, int] = {}
    for entry in pairs:
        i, c, m = map(strict_int, entry if len(entry) == 3 else (*entry, 1))
        if m < 0:
            raise ValueError(f"negative multiplicity at {(i, c)}")
        out[(i, c)] = out.get((i, c), 0) + m
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


def fundamental_crystal(datum: RootDatum, i: int, c: int, n: int) -> CrystalGraph:
    """M(i,c)^n: the closure of the highest-weight monomial y_{i,c}^n."""
    return closure(datum, [y_monomial(datum, i, c, n)])


def fold(datum: RootDatum, factors) -> tuple[MonomialCodec, set[int]]:
    """The products x_1 * ... * x_m, x_k from factors[k], as codec keys:
    folded pairwise with deduplication (a product of monomials is a sum of
    keys).  The working set never shrinks, so ClosureLimitError is raised as
    soon as it passes ``crystal.MAX_ELEMENTS``."""
    limit = crystal.MAX_ELEMENTS
    codec = MonomialCodec(datum, factors)
    product = {codec.zero}
    for factor in factors:
        offsets = [codec.offset(q) for q in factor]
        folded: set[int] = set()
        for p in product:
            folded.update([p + q for q in offsets])
            if len(folded) > limit:
                raise ClosureLimitError("product.fold", limit, len(folded),
                                        f"product crystal exceeded limit {limit}")
        product = folded
    return codec, product


def product_crystal(datum: RootDatum, r: PointMultiset) -> CrystalGraph:
    """M(R): the ``fold`` of the fundamental subcrystals; its closure under
    every e_i/f_i is asserted rather than trusted."""
    validate_points(datum, r)
    codec, product = fold(datum, [fundamental_crystal(datum, i, c, m).elements
                                  for (i, c), m in r.points])
    # raises if the product set is not closed
    return graph_over(datum, product, codec)


def expand_label(datum: RootDatum, r: PointMultiset, s: PointMultiset) -> Monomial:
    """The monomial y_R z_S^{-1}."""
    exps = dict(r.points)
    weight = weight_of_multiset(datum, r)
    for (i, k), m in s.points:
        add_into(exps, -m, z_exponents(datum, i, k))
        weight = w_sub(weight, w_scale(m, datum.alphas[i]))
    return make_monomial(weight, exps)


def s_label(datum: RootDatum, r: PointMultiset, p: Monomial) -> PointMultiset:
    """The unique S with p = y_R z_S^{-1}, or NotExpressibleError.

    z_{i,c} reaches no level above c+2, so an entry v at the top level t of
    the residual y_R / p can only come from S[i,t-2] = v, which must be
    positive and on the parity grid; subtracting v z_{i,t-2} lowers the
    top.  The peel raises once it overspends the budget
    height(wt R - wt p), and its result is accepted only if it re-expands
    to p.
    """
    budget = datum.height(w_sub(weight_of_multiset(datum, r), p.weight))
    residual = dict(r.points)
    add_into(residual, -1, dict(p.exponents))
    s: dict[LatticePoint, int] = {}
    while residual:
        t = max(c for _, c in residual)
        for i in datum.vertices:
            v = residual.get((i, t))
            if v is None:
                continue
            if v < 0 or datum.parity[i] != t % 2:
                raise NotExpressibleError(f"negative or off-grid S entry at ({i},{t - 2})")
            budget -= v * datum.height(datum.alphas[i])
            if budget < 0:
                raise NotExpressibleError("S exceeds height(wt R - wt p)")
            s[(i, t - 2)] = v
            add_into(residual, -v, z_exponents(datum, i, t - 2))
    out = multiset(s)
    if expand_label(datum, r, out) != p:
        raise NotExpressibleError("re-expansion mismatch")
    return out


def r_support(datum: RootDatum, r: PointMultiset, p: Monomial) -> frozenset[LatticePoint]:
    """Supp_R(p) = Supp R united with the support of p's S-label."""
    s = s_label(datum, r, p)
    return frozenset(r.support()) | frozenset(s.support())


def decompose(datum: RootDatum, r: PointMultiset) -> dict[Weight, int]:
    """Multiplicities of each B(lambda) inside M(R), computed two
    independent ways (highest-weight enumeration on the closed graph, and
    Weyl decomposition of the Demazure-stabilised truncation character).
    Raises ConsistencyError when the routes disagree."""
    from . import truncation
    from .weightring import weyl_decompose

    graph = product_crystal(datum, r)
    counts: dict[Weight, int] = {}
    for p in highest_weights(graph):
        counts[p.weight] = counts.get(p.weight, 0) + 1

    by_character = weyl_decompose(datum, truncation.full_character(datum, r))
    if by_character != counts:
        diff = {w: (counts.get(w, 0), by_character.get(w, 0))
                for w in sorted(counts.keys() | by_character.keys())
                if counts.get(w, 0) != by_character.get(w, 0)}
        raise ConsistencyError(
            "decomposition routes disagree at "
            + ", ".join(f"{weight_str(w)}: enumeration {a}, character {b}"
                        for w, (a, b) in diff.items()), diff)
    return counts
