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
verdict.  S-labels serve the tests and the benchmark's tracer only.

M(R) comes in two forms, both the ``fold`` of the fundamental subcrystals,
each discovered from the key of y_{i,c}^n in a codec built from R alone
(whose column steps every codec shares, ``monomial._steps``), with its
closure under every e_i/f_i asserted: ``product_crystal`` walks the keys
(``crystal.walk``) and decodes only the highest-weight elements, which is
all ``decompose`` reads; ``product_graph`` builds the whole crystal graph
(``crystal.graph_over``: elements and f-edges) for the ``graph`` command.
"""

from __future__ import annotations

from collections import namedtuple

from . import limits
from .cartan import RootDatum, Weight, add_into, w_add, w_scale, w_sub, weight_str
from .crystal import CrystalGraph, discover, graph_over, highest_weights, walk
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

    @classmethod
    def between(cls, what: str, names: tuple[str, str], first: dict, second: dict):
        """The error for two differing maps of counts, ``what`` their two
        sources and ``names`` each one's name in the message."""
        diff = {w: (first.get(w, 0), second.get(w, 0))
                for w in sorted(first.keys() | second.keys())
                if first.get(w, 0) != second.get(w, 0)}
        return cls(f"{what} disagree at " + ", ".join(
            f"{weight_str(w)}: {names[0]} {a}, {names[1]} {b}" for w, (a, b) in diff.items()),
            diff)


class PointMultiset(namedtuple("PointMultiset", "points")):
    """A finite multiset of lattice points: ``points`` is ((point,
    multiplicity), ...) sorted, multiplicities positive."""

    __slots__ = ()

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
    """int(x) for an int but not a bool, or a float with no fractional part
    (so neither infinite nor NaN); ValueError naming anything else."""
    if isinstance(x, bool) or not (isinstance(x, int)
                                   or isinstance(x, float) and x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def strict_list(x):
    """x, refusing by name each JSON value but an array: an object (which
    iterates as its keys), a string (as its characters), a number, a bool
    or null.  A tuple, a set or a generator passes."""
    if x is None or isinstance(x, (dict, str, int, float)):
        raise ValueError(f"{x!r} is not a list")
    return x


def multiset_from_pairs(pairs) -> PointMultiset:
    """The multiset of [i, c, m] (or [i, c], m = 1) entries, the m of
    repeated points summed; every m is checked before any is summed, so a
    negative one cannot cancel against another."""
    out: dict[LatticePoint, int] = {}
    for entry in map(strict_list, strict_list(pairs)):
        if len(entry) not in (2, 3):
            raise ValueError(f"{entry!r} is not [i, c] or [i, c, m]")
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


def product_codec(datum: RootDatum, r: PointMultiset) -> MonomialCodec:
    """The codec of M(R), from R alone (see the ``monomial`` module
    docstring): the window is the union over the points (i, c) of R of the
    (j, l) with c - h + d(i*, j) <= l <= c - d(i, j), h the Coxeter number
    and i* from ``RootDatum.dual``, and the bound is sum n a_i, n the
    multiplicity of (i, c) and a_i the coefficient of alpha_i in the highest
    root, the last positive root."""
    window: set[LatticePoint] = set()
    bound = 0
    if r.points:  # so the diagram has a vertex
        h = 2 * len(datum.positive_roots) // len(datum.vertices)
    for (i, c), n in r.points:
        window.update((j, l) for j in datum.vertices for l in range(
            c - h + datum.dist[datum.dual[i], j], c - datum.dist[i, j] + 1, 2))
        bound += n * datum.positive_roots[-1][0][i - 1]
    return MonomialCodec(datum, window, bound)


def fundamental_keys(codec: MonomialCodec, i: int, c: int, n: int) -> list[int]:
    """M(i,c)^n, a copy of B(n w_i), as ``codec``'s keys, discovered from
    y_{i,c}^n with every |exponent| at most n a_i.  Past
    ``limits.MAX_ELEMENTS`` elements it raises LimitExceeded at stage
    ``crystal.closure`` first, ``reached`` being the exact dim V(n w_i)."""
    datum = codec.datum
    seed = codec.zero + codec.offset(y_monomial(datum, i, c, n))  # checks the point
    limit = limits.MAX_ELEMENTS
    size = datum.weyl_dimension(w_scale(n, datum.fundamentals[i]))
    if size > limit:
        raise limits.LimitExceeded("crystal.closure", limit, size,
                                   f"closure exceeded limit {limit}")
    return discover(seed, codec, n * datum.positive_roots[-1][0][i - 1])


def fold(codec: MonomialCodec, factors) -> set[int]:
    """The products x_1 * ... * x_m, x_k from the key set factors[k], as
    ``codec``'s keys: folded pairwise with deduplication, a product of
    monomials being a sum of offsets from ``codec.zero``, weights included.
    The working set never shrinks, so LimitExceeded is raised at stage
    ``product.fold`` as soon as it passes ``limits.MAX_ELEMENTS``."""
    limit = limits.MAX_ELEMENTS
    zero = codec.zero
    product = {zero}
    for factor in factors:
        offsets = [q - zero for q in factor]
        folded: set[int] = set()
        for p in product:
            folded.update([p + q for q in offsets])
            if len(folded) > limit:
                raise limits.LimitExceeded("product.fold", limit, len(folded),
                                           f"product crystal exceeded limit {limit}")
        product = folded
    return product


class ProductCrystal(namedtuple("ProductCrystal", "codec elements highest")):
    """M(R) as a packed set over ``codec.datum``: ``elements``, its keys, and
    ``highest``, the elements every e_i kills as the walk finds them (no edge
    is kept to read them off), decoded, in a ``CrystalGraph``'s element
    order.  ``len`` counts elements."""

    __slots__ = ()

    def __len__(self):
        return len(self.elements)


def _folded(datum: RootDatum, r: PointMultiset) -> tuple[MonomialCodec, set[int]]:
    """The codec of M(R) and the ``fold`` of its fundamental subcrystals."""
    validate_points(datum, r)
    codec = product_codec(datum, r)
    return codec, fold(codec, [fundamental_keys(codec, i, c, m) for (i, c), m in r.points])


def product_crystal(datum: RootDatum, r: PointMultiset) -> ProductCrystal:
    """M(R) on packed keys: the ``fold`` of the fundamental subcrystals.
    ``crystal.walk`` asserts its closure under every e_i/f_i rather than
    trusting it, and finds the highest-weight keys, the only ones decoded.
    ``product_graph`` is M(R) with its crystal graph."""
    codec, keys = _folded(datum, r)
    # raises if the product set is not closed
    highest = sorted(map(codec.decode, walk(keys, codec)))  # in element order
    return ProductCrystal(codec, keys,
                          tuple(Monomial(weight, exponents) for weight, exponents in highest))


def product_graph(datum: RootDatum, r: PointMultiset) -> CrystalGraph:
    """M(R) as a crystal graph: the ``fold`` of the fundamental subcrystals,
    every element decoded and every f-edge placed by ``graph_over``, which
    asserts closure under every e_i/f_i."""
    codec, keys = _folded(datum, r)
    # raises if the product set is not closed
    return graph_over(keys, codec)


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


def decompose(datum: RootDatum, r: PointMultiset) -> dict[Weight, int]:
    """Multiplicities of each B(lambda) inside M(R), computed two
    independent ways (highest-weight enumeration: the weights of the
    elements that the walk of ``product_crystal`` finds highest, with no
    graph built; and the plan fold g * h straightened:
    ``weightring.straighten`` of h, then of g times that when g is not the
    unit, by the Brauer-Klimyk rule).  Raises ConsistencyError when the
    routes disagree."""
    from . import truncation, weightring

    crystal = product_crystal(datum, r)
    counts: dict[Weight, int] = {}
    for p in highest_weights(crystal):
        counts[p.weight] = counts.get(p.weight, 0) + 1

    g, h = truncation._fold(datum, truncation.build_plan(datum, r))
    ch = weightring.straighten(datum, h)
    by_character = (ch if g is None else weightring.straighten(datum, ch * g)).terms
    if by_character != counts:
        raise ConsistencyError.between("decomposition routes", ("enumeration", "character"),
                                       counts, by_character)
    return counts
