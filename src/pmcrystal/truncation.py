"""Upward-closed sets, truncations M(R, J), build plans and characters.

The grid I x. Z is ordered by the transitive closure of (i,c) <= (i,c+2)
and (i,c) <= (j,c+1) for j ~ i; concretely (i,c) <= (j,c') iff
c' - c >= d(i,j), the graph distance.  An upward-closed set is therefore a
per-column threshold: column i contains the points at or above theta_i.
Likewise down(X) holds, in column i, the points at or below the ceiling
delta_i = max over (j,c) in X of c - d(j,i); ``build_plan`` reads it for
X = Supp R.

A truncation M(R, J) keeps the p = y_R z_S^{-1} in M(R) with Supp R and
Supp S in J; for an upward-closed J holding Supp R, that is Supp p in J.
z_{i,k} touches only points >= (i,k), so Supp p lies in up(Supp R, Supp S);
at a minimal (i,k) of Supp S no z_{i,k-2} or z_{j,k-1} is in S, so p has
exponent R(i,k) - S(i,k) there and (i,k) lies in Supp p or Supp R; every
point of Supp S lies above such a point.

Build plans reconstruct a truncation from {1} using only two moves, each
with a character-level counterpart:

    Extend(i, k):   J grows by one point       ->  apply pi_i
    Multiply(Q):    R grows by Q on boundary   ->  multiply by e^{wt Q}

so folding the plan gives the truncation's character without enumerating
any crystal, and pi_{w_o} of that is the character of all of M(R).

A plan is stored as its window, one level range per column, and its steps
are generated.  pi_i is linear over s_i-invariants: pi_i (g f) = g pi_i f
when s_i g = g (Demazure 1974; Kumar, *Kac-Moody Groups* section 8).  So
the character fold carries a product g * h with g W-invariant: a Multiply
that follows a W-invariant h folds it into g, the Demazure operators act
on h alone, every Extend that follows a W-invariant h is skipped, and
pi_{w_o} of the product is g * pi_{w_o} h (see ``char_by_plan``).  The
product is formed once, at the end, so an oversized character may stop
there, as LimitExceeded at stage ``weightring.multiply``.
"""

from __future__ import annotations

from collections import namedtuple

from . import limits
from .cartan import RootDatum
from .monomial import Monomial
from .product import (PointMultiset, fold, fundamental_keys, multiset, product_codec,
                      validate_points, weight_of_multiset)
from .weightring import (GroupAlgebraElement, _assert_weyl_invariant, demazure_pi,
                         e as ga_e, pi_longest)


class ThresholdSet(namedtuple("ThresholdSet", "thresholds")):
    """An upward-closed subset of the grid, one threshold per column:
    ``thresholds`` holds an int or None (the column is empty) per vertex."""

    __slots__ = ()

    def threshold(self, i: int):
        return self.thresholds[i - 1]

    def contains(self, i: int, c: int) -> bool:
        t = self.thresholds[i - 1]
        return t is not None and c >= t

    def contains_all(self, points) -> bool:
        return all(self.contains(i, c) for (i, c) in points)

    def to_json(self) -> dict:
        return {"thresholds": {str(i + 1): t for i, t in enumerate(self.thresholds)
                               if t is not None}}


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
        out.append(min(vals) if vals else None)
    return ThresholdSet(tuple(out))


def truncate(datum: RootDatum, r: PointMultiset,
             j: ThresholdSet) -> tuple[Monomial, ...]:
    """M(R, J): the monomials of M(R) whose support lies in J, sorted by
    weight, then exponents; for this J that is the R-support condition (see
    the module docstring).  Any p = x_1 * ... * x_m over the fundamental
    factors has S(p) = S(x_1) + ... + S(x_m), so p lies in M(R, J) iff every
    S(x_k) lies in J, that is iff every x_k has its support in J: M(R, J) is
    the ``fold`` of the factors so filtered, and M(R) is never built: a
    factor key is kept when its digits outside J all hold the bias."""
    validate_points(datum, r)
    validate_threshold_set(datum, j)
    if not j.contains_all(r.support()):
        raise ValueError("J must contain the support of R")
    codec = product_codec(datum, r)
    outside = codec.points_mask(lambda i, c: not j.contains(i, c))
    bias = codec.zero & outside
    factors = [[key for key in fundamental_keys(codec, i, c, m) if key & outside == bias]
               for (i, c), m in r.points]
    return tuple(Monomial(*row) for row in sorted(map(codec.decode, fold(codec, factors))))


# -- build plans -----------------------------------------------------------

class BuildPlan(namedtuple("BuildPlan", "start window r")):
    """A plan that builds M(R, J_target) from {1}, stored as its window:
    J_0 = J_target minus down(Supp R), then (i, theta_i, delta_i) for each
    column i meeting K = J_target meets down(Supp R) in theta_i, theta_i + 2,
    ..., delta_i.  The walk adjoins K level by level from the top, columns
    in vertex order, multiplying each point of R in right after its Extend.
    Every point above a point of K has a higher level, so it lies in J_0 or
    earlier in the walk: every prefix is upward-closed.  Fields ``start``
    (J_0, a ThresholdSet), ``window`` and ``r`` (R, a PointMultiset)."""

    __slots__ = ()

    def step_count(self) -> int:
        """The number of steps, from the window: one Extend per level of
        each column range, one Multiply per point of R."""
        if not self.window:
            return 0
        return (sum((delta - theta) // 2 + 1 for _, theta, delta in self.window)
                + len(self.r.points))

    @property
    def steps(self) -> tuple:
        """Every step, listed; LimitExceeded past ``limits.MAX_PLAN_STEPS``."""
        count = self.step_count()
        if count > limits.MAX_PLAN_STEPS:
            raise limits.LimitExceeded("truncation.plan_steps", limits.MAX_PLAN_STEPS, count)
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

    # J_target holds Supp R and is upward-closed on a connected diagram, so
    # no column is empty; down(Supp R) reaches delta_i in column i
    support = r.support()
    start, window = [], []
    for i in datum.vertices:
        theta = j_target.threshold(i)
        delta = max(c - datum.dist[jv, i] for jv, c in support)
        if delta < theta:
            start.append(theta)
        else:  # parity forces theta = delta mod 2 here
            start.append(delta + 2)
            window.append((i, theta, delta))
    start_j = ThresholdSet(tuple(start))
    validate_threshold_set(datum, start_j)
    return BuildPlan(start_j, tuple(window), r)


def _fold(datum: RootDatum, plan: BuildPlan):
    """The fold of ``char_by_plan`` as (g, h): its character is g * h, g is
    W-invariant, and g is None while it is still the unit.

    ``fixed`` holds the i with s_i h = h: pi_i returned h itself, or made
    it.  As s_i g = g, these are also the i with s_i (g h) = g h.  A
    Multiply that finds every vertex fixed folds h into g and restarts h
    at 1; once ``fixed`` holds every vertex, every Extend up to the next
    Multiply is the identity, so the walk goes on at the next level holding
    a point of R."""
    unit = ga_e(datum.zero)
    g, h = None, unit
    n = len(datum.vertices)
    fixed: set[int] = set()
    for kind, payload in plan._walk(lambda: len(fixed) == n):
        if kind == "multiply":
            if len(fixed) == n:
                g, h = (h if g is None else g * h), unit
            h = ga_e(weight_of_multiset(datum, payload)) * h
            fixed = set()
        elif len(fixed) < n:
            out = demazure_pi(datum, payload[0], h)
            fixed = (fixed if out is h else set()) | {payload[0]}
            h = out
    return g, h


def char_by_plan(datum: RootDatum, plan: BuildPlan) -> GroupAlgebraElement:
    """Fold the inductive character rules over a plan: start from 1, apply
    pi_i for Extend(i, k), multiply by e^{wt Q} for Multiply(Q).

    pi_i f = f exactly when s_i f = f, and pi_i (g f) = g pi_i f when
    s_i g = g (Demazure 1974; Kumar, *Kac-Moody Groups* section 8).  The
    fold (``_fold``) therefore carries the character as g * h, g the
    W-invariant part split off at each Multiply that follows a W-invariant
    character, and applies pi_i to h alone; it skips every Extend that
    follows a W-invariant h.  A run of full levels makes h W-invariant
    within the Coxeter number plus 2 of them, whatever the distance between
    the points of R."""
    g, h = _fold(datum, plan)
    return h if g is None else g * h


def full_character(datum: RootDatum, r: PointMultiset,
                   check: bool = True) -> GroupAlgebraElement:
    """ch M(R) = pi_{w_o} applied to any truncation character.  With the
    truncation character g * h of the plan fold (``_fold``), g W-invariant,
    pi_{w_o} (g h) = g pi_{w_o} h, so pi_{w_o} acts on h alone.  ``check``
    asserts that pi_{w_o} h and the product returned are W-invariant, each
    by one pass over its terms with at most one lookup per term
    (``weightring._orbits_closed``).  A check that passes is recorded on
    the element it tested (see ``weightring.GroupAlgebraElement``), so
    ``weyl_decompose`` does not test the checked character again."""
    g, h = _fold(datum, build_plan(datum, r))
    ch = pi_longest(datum, h)
    if check:
        _assert_weyl_invariant(datum, ch)
    if g is None:
        return ch
    ch = g * ch
    if check:
        _assert_weyl_invariant(datum, ch)
    return ch
