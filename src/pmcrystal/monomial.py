"""Nakajima monomials and their single-step crystal operators.

A monomial is a weight together with a finite exponent map on the
parity-respecting grid: points (i, c) with i a Dynkin vertex and c an
integer of the same parity as i.  The crystal operators act by
multiplication with the auxiliary monomials

    z_{i,k} = e^{alpha_i} * y_{i,k} * y_{i,k+2} * prod_{j ~ i} y_{j,k+1}^{-1}

as  f_i(p) = p * z_{i, F_i(p)-2}^{-1}  and  e_i(p) = p * z_{i, E_i(p)},
where F_i (resp. E_i) is the largest (smallest) position maximising the
upper (negated lower) column sum.  This convention reproduces the crystal
graphs of the small SL_3 examples edge by edge; see the tests.  The
exponents of z_{i,k} are written out once, in ``z_exponents``.

Packed monomials.  ``MonomialCodec`` packs the products of the factors of
a product crystal into integers, so that a product is an integer sum and
f_i/e_i add a fixed integer delta.  Its invariants:

* Window.  Every encoded point lies in a finite window: the union of the
  factors' supports, and no other points, so the key size depends on the
  supports and not on how far apart they lie.  Columns are laid out one
  after another in vertex order, each column's positions by c ascending,
  one fixed-width digit each, so column i is one shift and one mask away.
  Every monomial of the encoded set is 0 off the window, while a delta
  changes each point it touches by +-1; a delta that touches a point
  outside the window therefore leaves the set.
* Digit width.  Every encoded exponent has |e| <= bound, and f_i/e_i
  change each exponent by at most 1, so every exponent the codec ever
  meets has |e| <= bound + 1.  A digit stores e + H with H a power of two
  at least bound + 2, in width log2(2H) bits; the stored value stays in
  [1, 2H - 1], so no sum or delta carries across a digit boundary, and
  the exponents of a key are its digits minus H.  The bound is the sum
  over the factors of their largest |exponent|.
* Weight.  Write s_i for the column sums.  For the semisimple kinds
  (fundamental coordinates) D(s) = s, and for GL_n (epsilon basis)
  D(s)_k = n * sum_{i > k} s_i - sum_i i * s_i, with scale 1 and n.  The
  invariant I(p) = scale * wt(p) - D(s(p)) is unchanged by multiplying
  with any z_{i,k}^{+-1}, so it is constant on a crystal closure and
  additive over products: every encoded monomial carries the one
  invariant I, the sum of the factors' invariants.  The weight
  wt(p) = (I + D(s(p))) / scale is therefore a function of the column
  sums, which the digits give, and a key determines its monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cartan import RootDatum, Weight, w_add, w_scale, w_sub, weight_str

LatticePoint = tuple[int, int]


def require_lattice_point(datum: RootDatum, i: int, c: int) -> None:
    if i not in datum.neighbours:
        raise ValueError(f"vertex {i} not in diagram")
    if datum.parity[i] != c % 2:
        raise ValueError(f"point ({i},{c}) violates parity: "
                         f"vertex {i} has parity {datum.parity[i]}")


@dataclass(frozen=True, order=True)
class Monomial:
    """An element of the monomial crystal: e^weight * prod y_{i,c}^{e}."""

    weight: Weight
    exponents: tuple[tuple[LatticePoint, int], ...]  # sorted, values nonzero

    def exponent(self, i: int, c: int) -> int:
        for (pi, pc), ex in self.exponents:
            if (pi, pc) == (i, c):
                return ex
        return 0

    def column(self, i: int) -> list[tuple[int, int]]:
        """[(c, exponent)] for column i, by c ascending (the exponent tuple
        is sorted by point, so the column comes out in order)."""
        return [(pc, ex) for (pi, pc), ex in self.exponents if pi == i]

    def support(self) -> tuple[LatticePoint, ...]:
        return tuple(pt for pt, _ in self.exponents)

    def is_one(self) -> bool:
        return not self.exponents and not any(self.weight)

    def __str__(self):
        if not self.exponents:
            return f"e{weight_str(self.weight)}"
        ys = "*".join(
            f"y[{i},{c}]" if ex == 1 else f"y[{i},{c}]^{ex}"
            for (i, c), ex in self.exponents
        )
        return f"e{weight_str(self.weight)}*{ys}"

    def to_json(self) -> dict:
        return {
            "weight": list(self.weight),
            "exponents": [{"i": i, "c": c, "e": ex} for (i, c), ex in self.exponents],
        }


def make_monomial(weight: Weight, exponents: dict[LatticePoint, int]) -> Monomial:
    return Monomial(tuple(weight),
                    tuple(sorted((pt, ex) for pt, ex in exponents.items() if ex != 0)))


def one(datum: RootDatum) -> Monomial:
    return Monomial(datum.zero, ())


def y_monomial(datum: RootDatum, i: int, c: int, n: int = 1) -> Monomial:
    """e^{n w_i} y_{i,c}^n, the highest-weight seed of a fundamental
    subcrystal."""
    require_lattice_point(datum, i, c)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return one(datum)
    return make_monomial(w_scale(n, datum.fundamentals[i]), {(i, c): n})


def z_exponents(datum: RootDatum, i: int, k: int) -> dict[LatticePoint, int]:
    """The exponents of z_{i,k}: 1 at (i,k) and (i,k+2), -1 at (j,k+1) for
    every neighbour j of i."""
    out = {(j, k + 1): -1 for j in datum.neighbours[i]}
    out[(i, k)] = out[(i, k + 2)] = 1
    return out


@lru_cache(maxsize=4096)  # the z_{i,k}^power of every root datum
def _z_monomial_cached(datum: RootDatum, i: int, k: int, power: int) -> Monomial:
    require_lattice_point(datum, i, k)
    exps = {pt: power * ex for pt, ex in z_exponents(datum, i, k).items()}
    return make_monomial(w_scale(power, datum.alphas[i]), exps)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    # both exponent tuples are sorted by point: merge, do not re-sort
    ea, eb = a.exponents, b.exponents
    la, lb = len(ea), len(eb)
    out = []
    ia = ib = 0
    while ia < la and ib < lb:
        pa, va = ea[ia]
        pb, vb = eb[ib]
        if pa == pb:
            v = va + vb
            if v:
                out.append((pa, v))
            ia += 1
            ib += 1
        elif pa < pb:
            out.append(ea[ia])
            ia += 1
        else:
            out.append(eb[ib])
            ib += 1
    out.extend(ea[ia:])
    out.extend(eb[ib:])
    return Monomial(w_add(a.weight, b.weight), tuple(out))


def column_stats(p: Monomial, i: int) -> tuple[int, int, int | None, int | None]:
    """Return (phi_i, eps_i, F_i, E_i) for the monomial p.

    phi_i is the largest upper column sum max_k sum_{l >= k} p[i,l] and
    eps_i the largest negated lower column sum, both at least 0 (the empty
    tail/head attains 0).  F_i is the largest k maximising the upper sum
    (None when phi_i = 0); E_i the smallest k maximising the negated lower
    sum (None when eps_i = 0).
    """
    return _scan_column(p.column(i))


def _scan_column(col) -> tuple[int, int, int | None, int | None]:
    """column_stats of the column [(c, exponent)], c ascending."""
    if not col:
        return 0, 0, None, None
    phi = 0
    best_f = None
    running = 0
    for c, ex in reversed(col):  # descending c; running = sum_{l >= c}
        running += ex
        if running > phi:
            phi = running
            best_f = c
    eps = 0
    best_e = None
    running = 0
    for c, ex in col:  # ascending c; running = sum_{l <= c}
        running += ex
        if -running > eps:
            eps = -running
            best_e = c
    return phi, eps, best_f, best_e


def f_op(datum: RootDatum, p: Monomial, i: int) -> Monomial | None:
    phi, _, best_f, _ = column_stats(p, i)
    if phi == 0:
        return None
    return mono_mul(p, _z_monomial_cached(datum, i, best_f - 2, -1))


def e_op(datum: RootDatum, p: Monomial, i: int) -> Monomial | None:
    _, eps, _, best_e = column_stats(p, i)
    if eps == 0:
        return None
    return mono_mul(p, _z_monomial_cached(datum, i, best_e, 1))


def _derived_weight(datum: RootDatum, sums) -> Weight:
    """D(s): scale times the weight of a monomial with column sums ``sums``
    (one per vertex) and invariant 0; see the module docstring."""
    if datum.det is None:
        return tuple(sums)
    n = datum.rank
    total = sum(i * s for i, s in zip(datum.vertices, sums))
    out = [0] * n
    suffix = 0
    for k in range(n - 1, -1, -1):
        out[k] = n * suffix - total
        if k:
            suffix += sums[k - 1]
    return tuple(out)


def _weight_invariant(datum: RootDatum, p: Monomial) -> Weight:
    """I(p) = scale * wt(p) - D(column sums of p), unchanged by every
    e_i/f_i step."""
    sums = [0] * len(datum.vertices)
    for (i, _), ex in p.exponents:
        sums[i - 1] += ex
    scale = datum.rank if datum.det is not None else 1
    return w_sub(w_scale(scale, p.weight), _derived_weight(datum, sums))


class MonomialCodec:
    """Packs the products x_1 * ... * x_m, x_k from factors[k], into
    integers (see the module docstring for the layout and its invariants).

    Each factor is a nonempty crystal closure, so all its elements share one
    invariant and every product carries their sum.  The window is the union
    of the factors' supports, and the bound the sum over the factors of
    their largest |exponent|.  Decoded columns and weights are memoised on
    the codec, which is meant to live for one computation.
    """

    def __init__(self, datum: RootDatum, factors):
        self.datum = datum
        self.bound = bound = sum(
            max((abs(ex) for p in f for _, ex in p.exponents), default=0) for f in factors)
        self.half = 1 << (bound + 1).bit_length()  # at least bound + 2
        self.width = width = (bound + 1).bit_length() + 1
        self.scale = datum.rank if datum.det is not None else 1
        self.invariant = (0,) * datum.lattice_rank
        for factor in factors:
            self.invariant = w_add(self.invariant, _weight_invariant(datum, factor[0]))
        cs: dict[int, set[int]] = {}
        for i, c in {pt for f in factors for p in f for pt, _ in p.exponents}:
            require_lattice_point(datum, i, c)
            cs.setdefault(i, set()).add(c)
        self.positions = [tuple(sorted(cs.get(i, ()))) for i in datum.vertices]
        self.shift: dict[LatticePoint, int] = {}
        self.columns: list[tuple[int, int, int]] = []  # (i, shift, mask)
        shift = 0
        for i, col in zip(datum.vertices, self.positions):
            self.columns.append((i, shift, (1 << len(col) * width) - 1))
            for c in col:
                self.shift[(i, c)] = shift
                shift += width
        # the key of the monomial with no exponents: the bias H in every digit
        self.zero = self.half * (((1 << shift) - 1) // ((1 << width) - 1))
        self._decoded: list[dict[int, tuple]] = [{} for _ in datum.vertices]
        self._weights: dict[tuple, Weight] = {}

    def offset(self, p: Monomial) -> int:
        """The exponents of p as a signed sum of digits (no bias):
        key(p * q) = key(p) + offset(q)."""
        out = 0
        for pt, ex in p.exponents:
            if abs(ex) > self.bound:
                raise ValueError(f"exponent {ex} at {pt} exceeds the codec bound {self.bound}")
            shift = self.shift.get(pt)
            if shift is None:
                raise ValueError(f"point {pt} lies outside the codec window")
            out += ex << shift
        return out

    def _column(self, i: int, col: int) -> tuple:
        """(((i, c), exponent) nonzero entries by c ascending, column sum)
        of the packed column ``col`` of vertex i."""
        memo = self._decoded[i - 1]
        out = memo.get(col)
        if out is None:
            width, half = self.width, self.half
            digit = (1 << width) - 1
            entries = []
            rest = col
            for c in self.positions[i - 1]:
                ex = (rest & digit) - half
                if ex:
                    entries.append(((i, c), ex))
                rest >>= width
            out = memo[col] = (tuple(entries), sum(ex for _, ex in entries))
        return out

    def decode(self, key: int) -> tuple[Weight, tuple]:
        """The weight and the exponent tuple of the monomial with this key."""
        exponents: list = []
        sums = []
        for (i, shift, mask), memo in zip(self.columns, self._decoded):
            col = (key >> shift) & mask
            entries, total = memo.get(col) or self._column(i, col)
            exponents += entries
            sums.append(total)
        sums = tuple(sums)
        weight = self._weights.get(sums)
        if weight is None:
            weight = self._weights[sums] = tuple(
                (a + b) // self.scale
                for a, b in zip(self.invariant, _derived_weight(self.datum, sums)))
        return weight, tuple(exponents)

    def column_stats(self, i: int, col: int) -> tuple[int, int, int | None, int | None]:
        """column_stats of the packed column ``col`` of vertex i."""
        return _scan_column([(c, ex) for (_, c), ex in self._column(i, col)[0]])

    def z_delta(self, i: int, k: int, power: int) -> int | None:
        """key(p * z_{i,k}^power) - key(p), or None when z_{i,k} touches a
        point outside the window (then p * z_{i,k}^power is not in the
        encoded set)."""
        out = 0
        for pt, ex in z_exponents(self.datum, i, k).items():
            shift = self.shift.get(pt)
            if shift is None:
                return None
            out += power * ex << shift
        return out

