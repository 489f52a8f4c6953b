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
a product crystal M(R) into integers, so that a product is an integer sum
and f_i/e_i add a fixed integer delta.  Its invariants:

* Window.  Every encoded point lies in a finite window, known from R:
  M(i,c)^n, a copy of B(n w_i), runs from y_{i,c}^n down to y_{i*,c-h}^-n
  (Kashiwara 2003; Nakajima 2003), h the Coxeter number, -w_o w_i =
  w_{i*}, so its support lies in the (j, l) with c - h + d(i*, j) <= l <=
  c - d(i, j), and the window is the union of these over the points of R.
  Columns are laid out one after another in vertex order, each column's
  positions by c ascending, one fixed-width digit each, so column i is one
  shift and one mask away.  A delta changes each point it touches by +-1,
  so one that touches a point outside the window leaves the encoded set;
  ``crystal.discover`` raises AssertionError if a factor's step does.
* Digit width.  Every encoded exponent has |e| <= bound, and f_i/e_i
  change each exponent by at most 1, so every exponent the codec ever
  meets has |e| <= bound + 1.  A digit stores e + H with H a power of two
  at least bound + 2, in width log2(2H) bits; the stored value stays in
  [1, 2H - 1], so no sum or delta carries across a digit boundary, and
  the exponents of a key are its digits minus H.  The bound is sum n a_i
  over the points (i, c) of R, a_i the coefficient of alpha_i in the
  highest root theta; ``crystal.discover`` checks |e| <= n a_i at run
  time, once per column value.
* Weight digits.  Above the columns sit lattice_rank more digits of the
  same width, coordinate 1 most significant, each a weight coordinate plus
  H: weights add under products as exponents do, and z_{i,k}^power adds
  power * alpha_i, so a key determines its monomial whatever the factors
  are.  The weight bound is sum n a_i too, with no check: a weight of
  V(n w_i) lies in the hull of the W-orbit of n w_i, and |<alpha_j^vee,
  u n w_i>| = |<beta^vee, n w_i>| <= <theta^vee, n w_i> = n a_i, beta =
  +-u^-1 alpha_j positive (a GL coordinate lies in [0, n]).  A z-step
  moves a coordinate by at most 2, so with H also at least weight bound +
  3 no key formed by ``crystal.graph_over`` carries across a digit.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering

from . import limits
from .cartan import RootDatum, Weight, w_add, w_scale, weight_str

LatticePoint = tuple[int, int]


def require_lattice_point(datum: RootDatum, i: int, c: int) -> None:
    if i not in datum.neighbours:
        raise ValueError(f"vertex {i} not in diagram")
    if datum.parity[i] != c % 2:
        raise ValueError(f"point ({i},{c}) violates parity: "
                         f"vertex {i} has parity {datum.parity[i]}")


_set = object.__setattr__


@total_ordering
class Monomial:
    """An element of the monomial crystal: e^weight * prod y_{i,c}^{e}.

    An immutable value with two slots, ``weight`` and ``exponents`` (sorted,
    values nonzero), equal, hashed and ordered as the pair of them."""

    __slots__ = ("weight", "exponents")
    weight: Weight
    exponents: tuple[tuple[LatticePoint, int], ...]

    def __init__(self, weight: Weight, exponents: tuple[tuple[LatticePoint, int], ...]):
        _set(self, "weight", weight)
        _set(self, "exponents", exponents)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Monomial")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Monomial")

    def __reduce__(self):
        return Monomial, (self.weight, self.exponents)

    def __repr__(self):
        return f"Monomial(weight={self.weight!r}, exponents={self.exponents!r})"

    def __hash__(self):
        return hash((self.weight, self.exponents))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.weight == other.weight and self.exponents == other.exponents
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.weight, self.exponents) < (other.weight, other.exponents)
        return NotImplemented

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


@lru_cache(maxsize=limits.Z_MONOMIALS_CACHED)
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


class MonomialCodec:
    """Packs monomials into integers, one digit per point of ``window``,
    each |exponent| at most ``bound`` and |weight coordinate| at most
    ``weight_bound`` (see the module docstring for the layout and its
    invariants).  Decoded columns, weights and z-deltas are memoised on the
    codec, which is meant to live for one computation.
    """

    def __init__(self, datum: RootDatum, window, bound: int, weight_bound: int):
        self.datum, self.bound, self.weight_bound = datum, bound, weight_bound
        least = max(bound + 1, weight_bound + 2)
        self.half = 1 << least.bit_length()  # at least bound + 2 and weight_bound + 3
        self.width = width = least.bit_length() + 1
        cs: dict[int, set[int]] = {}
        for i, c in window:
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
        # the weight digits above the columns, coordinate 1 most significant
        self.wbase = shift
        self._wshifts = tuple(range((datum.lattice_rank - 1) * width, -1, -width))
        shift += datum.lattice_rank * width
        # the key of the monomial 1 with weight 0: the bias H in every digit
        self.zero = self.half * (((1 << shift) - 1) // ((1 << width) - 1))
        self._decoded: list[dict[int, tuple]] = [{} for _ in datum.vertices]
        self._weights: dict[int, Weight] = {}
        self._deltas: dict[tuple[int, int, int], int | None] = {}

    def _pack_weight(self, weight: Weight) -> int:
        """The weight as a signed sum of weight digits (no bias)."""
        return sum(w << s for w, s in zip(weight, self._wshifts)) << self.wbase

    def offset(self, p: Monomial) -> int:
        """The exponents and the weight of p as a signed sum of digits (no
        bias): key(p * q) = key(p) + offset(q)."""
        if max(map(abs, p.weight)) > self.weight_bound:
            raise ValueError(f"weight {p.weight} exceeds the codec weight bound "
                             f"{self.weight_bound}")
        out = self._pack_weight(p.weight)
        for pt, ex in p.exponents:
            if abs(ex) > self.bound:
                raise ValueError(f"exponent {ex} at {pt} exceeds the codec bound {self.bound}")
            shift = self.shift.get(pt)
            if shift is None:
                raise ValueError(f"point {pt} lies outside the codec window")
            out += ex << shift
        return out

    def _column(self, i: int, col: int) -> tuple:
        """The ((i, c), exponent) nonzero entries, by c ascending, of the
        packed column ``col`` of vertex i."""
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
            out = memo[col] = tuple(entries)
        return out

    def decode(self, key: int) -> tuple[Weight, tuple]:
        """The weight and the exponent tuple of the monomial with this key."""
        exponents: list = []
        for (i, shift, mask), memo in zip(self.columns, self._decoded):
            col = (key >> shift) & mask
            entries = memo.get(col)
            exponents += self._column(i, col) if entries is None else entries
        digits = key >> self.wbase
        weight = self._weights.get(digits)
        if weight is None:
            digit, half = (1 << self.width) - 1, self.half
            weight = self._weights[digits] = tuple(
                ((digits >> s) & digit) - half for s in self._wshifts)
        return weight, tuple(exponents)

    def z_delta(self, i: int, k: int, power: int) -> int | None:
        """key(p * z_{i,k}^power) - key(p), or None when z_{i,k} touches a
        point outside the window (then p * z_{i,k}^power is not in the
        encoded set).  Memoised on the codec, None included."""
        memo = self._deltas
        args = (i, k, power)
        if args in memo:
            return memo[args]
        out = self._pack_weight(w_scale(power, self.datum.alphas[i]))
        for pt, ex in z_exponents(self.datum, i, k).items():
            shift = self.shift.get(pt)
            if shift is None:
                out = None
                break
            out += power * ex << shift
        memo[args] = out
        return out
