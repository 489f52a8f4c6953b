"""Upward-closed sets, truncations M(R, J), build plans and characters.

The grid I x. Z is ordered by the transitive closure of (i,c) <= (i,c+2)
and (i,c) <= (j,c+1) for j ~ i; concretely (i,c) <= (j,c') iff
c' - c >= d(i,j), the graph distance.  An upward-closed set is therefore a
per-column threshold: column i contains the points at or above theta_i.

A truncation M(R, J) keeps the monomials of M(R) whose R-support stays
inside J.  Build plans reconstruct a truncation from {1} using only two
moves, each with a character-level counterpart:

    Extend(i, k):   J grows by one point       ->  apply pi_i
    Multiply(Q):    R grows by Q on boundary   ->  multiply by e^{wt Q}

so folding the plan gives the truncation's character without enumerating
any crystal, and pi_{w_o} of that is the character of all of M(R).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import RootDatum
from .crystal import extend_strings
from .monomial import LatticePoint, Monomial, mono_mul, one
from .product import (PointMultiset, fold, fundamental_crystal, multiset,
                      r_support, validate_points, weight_of_multiset,
                      y_of_multiset)
from .weightring import GroupAlgebraElement, demazure_pi, e as ga_e, pi_longest

INF = None  # an infinite threshold: the column meets J nowhere


@dataclass(frozen=True)
class ThresholdSet:
    """An upward-closed subset of the grid, one threshold per column
    (None meaning the column is empty)."""

    thresholds: tuple  # entry per vertex, int or None

    def threshold(self, i: int):
        return self.thresholds[i - 1]

    def contains(self, i: int, c: int) -> bool:
        t = self.thresholds[i - 1]
        return t is not None and c >= t

    def contains_all(self, points) -> bool:
        return all(self.contains(i, c) for (i, c) in points)

    def with_point(self, i: int, k: int) -> "ThresholdSet":
        new = list(self.thresholds)
        new[i - 1] = k
        return ThresholdSet(tuple(new))

    def to_json(self) -> dict:
        return {"thresholds": {str(i + 1): t for i, t in enumerate(self.thresholds)
                               if t is not None}}

    def __str__(self):
        bits = [f"{i+1}:{'inf' if t is None else t}"
                for i, t in enumerate(self.thresholds)]
        return "J[" + ", ".join(bits) + "]"


@dataclass(frozen=True)
class DownwardSet:
    """The downward-closed analogue: column i holds the points at or below
    ceilings[i-1] (None meaning the column is empty)."""

    ceilings: tuple

    def contains(self, i: int, c: int) -> bool:
        t = self.ceilings[i - 1]
        return t is not None and c <= t


def validate_threshold_set(datum: RootDatum, j: ThresholdSet) -> None:
    if len(j.thresholds) != len(datum.vertices):
        raise ValueError("threshold vector length does not match vertex count")
    for i in datum.vertices:
        t = j.threshold(i)
        if t is None:
            continue
        if t % 2 != datum.parity[i]:
            raise ValueError(f"threshold {t} in column {i} violates parity")
        for jv in datum.neighbours[i]:
            tj = j.threshold(jv)
            if tj is None or tj > t + 1:
                raise ValueError(
                    f"not upward-closed: column {jv} must reach {t + 1} "
                    f"when column {i} starts at {t}")


def up_closure(datum: RootDatum, points) -> ThresholdSet:
    """up(X): thresholds theta_j = min over (i,c) in X of c + d(i,j)."""
    pts = list(points)
    out = []
    for jv in datum.vertices:
        vals = [c + datum.dist[i, jv] for (i, c) in pts]
        out.append(min(vals) if vals else INF)
    return ThresholdSet(tuple(out))


def down_closure(datum: RootDatum, points) -> DownwardSet:
    pts = list(points)
    out = []
    for jv in datum.vertices:
        vals = [c - datum.dist[i, jv] for (i, c) in pts]
        out.append(max(vals) if vals else None)
    return DownwardSet(tuple(out))


def boundary(datum: RootDatum, j: ThresholdSet) -> frozenset[LatticePoint]:
    """The lowest point of every column of J; defined only when all
    thresholds are finite."""
    for i in datum.vertices:
        if j.threshold(i) is None:
            raise ValueError(f"column {i} has no boundary (infinite threshold)")
    return frozenset((i, j.threshold(i)) for i in datum.vertices)


def truncate(datum: RootDatum, r: PointMultiset,
             j: ThresholdSet) -> tuple[Monomial, ...]:
    """M(R, J): the monomials of M(R) whose R-support lies in J, in sort_key
    order.  Any p = x_1 * ... * x_m over the fundamental factors has
    S(p) = S(x_1) + ... + S(x_m), so p lies in M(R, J) iff every S(x_k)
    lies in J: M(R, J) is the ``fold`` of the truncated factors, and M(R)
    is never built."""
    validate_points(datum, r)
    validate_threshold_set(datum, j)
    if not j.contains_all(r.support()):
        raise ValueError("J must contain the support of R")
    factors = [[x for x in fundamental_crystal(datum, i, c, m).elements
                if j.contains_all(r_support(datum, multiset({(i, c): m}), x))]
               for (i, c), m in r.points]
    codec, keys = fold(datum, factors)
    return tuple(sorted(Monomial(*codec.decode(key)) for key in keys))


# -- build plans -----------------------------------------------------------

@dataclass(frozen=True)
class BuildPlan:
    start: ThresholdSet
    steps: tuple

    def to_json(self) -> dict:
        steps = []
        for kind, payload in self.steps:
            if kind == "extend":
                steps.append({"extend": list(payload)})
            else:
                steps.append({"multiply": payload.to_json()})
        return {"start": self.start.to_json(), "steps": steps}


def build_plan(datum: RootDatum, r: PointMultiset,
               j_target: ThresholdSet | None = None) -> BuildPlan:
    """A plan whose replay builds M(R, J_target) from {1}.

    Start from J_0 = J_target minus down(Supp R) (upward-closed, disjoint
    from every possible S-support level of interest); the finite window
    K = J_target meets down(Supp R) is then adjoined point by point in
    weakly decreasing level order, which keeps every prefix upward-closed,
    and each R-point is multiplied in the moment it appears on the
    boundary.
    """
    validate_points(datum, r)
    if j_target is None:
        j_target = up_closure(datum, r.support())
    else:
        validate_threshold_set(datum, j_target)
        if not j_target.contains_all(r.support()):
            raise ValueError("J_target must contain the support of R")
    if r.is_empty():
        return BuildPlan(j_target, ())

    down_r = down_closure(datum, r.support())
    start = []
    window: list[LatticePoint] = []
    for i in datum.vertices:
        theta = j_target.threshold(i)
        delta = down_r.ceilings[i - 1]
        if theta is None:
            raise ValueError("J_target has an empty column over a nonempty R")
        if delta is None or delta < theta:
            start.append(theta)
            continue
        # parity forces theta = delta mod 2 here
        start.append(delta + 2)
        window.extend((i, c) for c in range(delta, theta - 2, -2))
    start_j = ThresholdSet(tuple(start))
    validate_threshold_set(datum, start_j)

    steps = []
    cur = start_j
    for (i, k) in sorted(window, key=lambda pt: (-pt[1], pt[0])):
        cur = cur.with_point(i, k)
        validate_threshold_set(datum, cur)  # prefix stays upward-closed
        steps.append(("extend", (i, k)))
        m = r.multiplicity(i, k)
        if m:
            steps.append(("multiply", multiset({(i, k): m})))
    return BuildPlan(start_j, tuple(steps))


def replay_plan(datum: RootDatum, plan: BuildPlan) -> frozenset[Monomial]:
    """Execute a plan's set semantics: Extend(i, k) extends i-strings,
    Multiply(Q) multiplies by y_Q."""
    xs = frozenset([one(datum)])
    for kind, payload in plan.steps:
        if kind == "extend":
            xs = extend_strings(datum, payload[0], xs)
        else:
            yq = y_of_multiset(datum, payload)
            xs = frozenset(mono_mul(yq, p) for p in xs)
    return xs


def char_by_plan(datum: RootDatum, plan: BuildPlan) -> GroupAlgebraElement:
    """Fold the inductive character rules over a plan: start from 1, apply
    pi_i for Extend(i, k), multiply by e^{wt Q} for Multiply(Q)."""
    ch = GroupAlgebraElement.unit(datum)
    for kind, payload in plan.steps:
        if kind == "extend":
            ch = demazure_pi(datum, payload[0], ch)
        else:
            ch = ga_e(weight_of_multiset(datum, payload)) * ch
    return ch


def truncation_character(datum: RootDatum, r: PointMultiset,
                         j_target: ThresholdSet | None = None) -> GroupAlgebraElement:
    return char_by_plan(datum, build_plan(datum, r, j_target))


def full_character(datum: RootDatum, r: PointMultiset,
                   check: bool = True) -> GroupAlgebraElement:
    """ch M(R) = pi_{w_o} applied to any truncation character."""
    return pi_longest(datum, truncation_character(datum, r), check=check)
