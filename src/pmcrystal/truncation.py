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

A plan is stored as its window, one level range per column, and its steps
are generated; the character fold skips every Extend that follows a
W-invariant character (see ``char_by_plan``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import LimitExceeded, RootDatum
from .monomial import Monomial
from .product import (PointMultiset, fold, fundamental_crystal, multiset,
                      r_support, validate_points, weight_of_multiset)
from .weightring import GroupAlgebraElement, demazure_pi, e as ga_e, pi_longest

INF = None  # an infinite threshold: the column meets J nowhere

# The most steps a plan may list (``BuildPlan.steps``, ``to_json``); the
# character fold walks its plan lazily and is not bound by it.
MAX_PLAN_STEPS = 100_000


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


def truncate(datum: RootDatum, r: PointMultiset,
             j: ThresholdSet) -> tuple[Monomial, ...]:
    """M(R, J): the monomials of M(R) whose R-support lies in J, sorted by
    weight, then exponents.  Any p = x_1 * ... * x_m over the fundamental factors has
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
    """A plan that builds M(R, J_target) from {1}, stored as its window:
    J_0 = J_target minus down(Supp R), then (i, theta_i, delta_i) for each
    column i meeting K = J_target meets down(Supp R) in theta_i, theta_i + 2,
    ..., delta_i.  The walk adjoins K level by level from the top, columns
    in vertex order, multiplying each point of R in right after its Extend.
    Every point above a point of K has a higher level, so it lies in J_0 or
    earlier in the walk: every prefix is upward-closed."""

    start: ThresholdSet
    window: tuple
    r: PointMultiset

    def step_count(self) -> int:
        """The number of steps, from the window: one Extend per level of
        each column range, one Multiply per point of R."""
        if not self.window:
            return 0
        return (sum((delta - theta) // 2 + 1 for _, theta, delta in self.window)
                + len(self.r.points))

    @property
    def steps(self) -> tuple:
        """Every step, listed; LimitExceeded past MAX_PLAN_STEPS."""
        count = self.step_count()
        if count > MAX_PLAN_STEPS:
            raise LimitExceeded("truncation.plan_steps", MAX_PLAN_STEPS, count)
        return tuple(self._walk(lambda: False))

    def _walk(self, invariant):
        """Yield the steps; when ``invariant()`` holds after a level, go on
        at the next level below holding a point of R, or stop."""
        if not self.window:
            return
        mult = dict(self.r.points)
        level = max(delta for _, _, delta in self.window)
        bottom = min(theta for _, theta, _ in self.window)
        while level >= bottom:
            for i, theta, delta in self.window:
                if theta <= level <= delta and (delta - level) % 2 == 0:
                    yield "extend", (i, level)
                    if (i, level) in mult:
                        yield "multiply", multiset({(i, level): mult[i, level]})
            level -= 1
            if invariant():
                level = max((c for _, c in mult if c <= level), default=bottom - 1)

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
    """The plan that builds M(R, J_target) from {1}, J_target defaulting to
    up(Supp R).  R, J_target and J_0 are validated once; the walk keeps
    every prefix upward-closed (see ``BuildPlan``)."""
    validate_points(datum, r)
    if j_target is None:
        j_target = up_closure(datum, r.support())
    else:
        validate_threshold_set(datum, j_target)
        if not j_target.contains_all(r.support()):
            raise ValueError("J_target must contain the support of R")
    if r.is_empty():
        return BuildPlan(j_target, (), r)

    down_r = down_closure(datum, r.support())
    start, window = [], []
    for i in datum.vertices:
        theta = j_target.threshold(i)
        delta = down_r.ceilings[i - 1]
        if theta is None:
            raise ValueError("J_target has an empty column over a nonempty R")
        if delta < theta:
            start.append(theta)
        else:  # parity forces theta = delta mod 2 here
            start.append(delta + 2)
            window.append((i, theta, delta))
    start_j = ThresholdSet(tuple(start))
    validate_threshold_set(datum, start_j)
    return BuildPlan(start_j, tuple(window), r)


def char_by_plan(datum: RootDatum, plan: BuildPlan) -> GroupAlgebraElement:
    """Fold the inductive character rules over a plan: start from 1, apply
    pi_i for Extend(i, k), multiply by e^{wt Q} for Multiply(Q).

    pi_i f = f exactly when s_i f = f (Demazure 1974; Kumar, *Kac-Moody
    Groups* section 8).  ``fixed`` holds the i with s_i ch = ch: pi_i
    returned ch itself, or made it.  Once it holds every vertex, ch is
    W-invariant and every Extend up to the next Multiply is the identity,
    so the walk goes on at the next level holding a point of R.  A run of
    full levels gets there within h + 2 of them (h the Coxeter number),
    whatever the distance between the points of R."""
    ch = GroupAlgebraElement.unit(datum)
    n = len(datum.vertices)
    fixed: set[int] = set()
    for kind, payload in plan._walk(lambda: len(fixed) == n):
        if kind == "multiply":
            ch = ga_e(weight_of_multiset(datum, payload)) * ch
            fixed = set()
        elif len(fixed) < n:
            out = demazure_pi(datum, payload[0], ch)
            fixed = (fixed if out is ch else set()) | {payload[0]}
            ch = out
    return ch


def truncation_character(datum: RootDatum, r: PointMultiset,
                         j_target: ThresholdSet | None = None) -> GroupAlgebraElement:
    return char_by_plan(datum, build_plan(datum, r, j_target))


def full_character(datum: RootDatum, r: PointMultiset,
                   check: bool = True) -> GroupAlgebraElement:
    """ch M(R) = pi_{w_o} applied to any truncation character."""
    return pi_longest(datum, truncation_character(datum, r), check=check)
