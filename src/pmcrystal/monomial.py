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
exponents of z_{i,k} are written out in ``z_exponents``.

Packed monomials.  ``MonomialCodec`` packs the products of the factors of
a product crystal M(R) into integers, so that a product is an integer sum
and f_i/e_i add a fixed integer delta.  It owns this format, which no other
module reads, and the step of each column value (``MonomialCodec.step``)
for the packed passes of ``crystal``: a step reads exponents in level
order, not levels, so every codec shares one table of steps per column
shape (digit width, number of positions), ``_steps``.  Its invariants:

* Window.  Every encoded point lies in a finite window, known from R:
  M(i,c)^n, a copy of B(n w_i), runs from y_{i,c}^n down to y_{i*,c-h}^-n
  (Kashiwara 2003; Nakajima 2003), h the Coxeter number, -w_o w_i = w_{i*}
  (``RootDatum.dual``), so its support lies in the (j, l) with
  c - h + d(i*, j) <= l <= c - d(i, j), and the window is the union of
  these over the points of R.
  Columns are laid out one after another in vertex order, each column's
  positions by c ascending, one fixed-width digit each, so column i is one
  shift and one mask away.  A delta changes each point it touches by +-1,
  so one that touches a point outside the window leaves the encoded set;
  ``crystal.discover`` raises AssertionError if a factor's step does.
* Digits.  Above the columns sit ``datum.rank`` more digits, coordinate 1
  most significant, one per weight coordinate: weights add under products
  as exponents do, and z_{i,k}^power adds power * alpha_i, so a key
  determines its monomial whatever the factors are.  Every encoded exponent
  and weight coordinate e has |e| <= bound, the one bound sum n a_i over
  the points (i, c) of R, a_i the coefficient of alpha_i in the highest
  root theta.  A z-step moves an exponent by at most 1 and a weight
  coordinate by at most 2, so a digit stores e + H with H the least power
  of two at least bound + 3, in width log2(2H) bits; the stored value stays
  in [1, 2H - 1], no sum or delta carries across a digit boundary, and a
  key's exponents and weight are its digits minus H.  The weight half of
  the bound is proven: a weight of V(n w_i) lies in the hull of the
  W-orbit of n w_i, and |<alpha_j^vee, u n w_i>| = |<beta^vee, n w_i>| <=
  <theta^vee, n w_i> = n a_i, beta = +-u^-1 alpha_j positive (a GL
  coordinate lies in [0, n]).  The exponent half is checked:
  ``crystal.discover`` asserts |e| <= n a_i on every column it visits,
  read off its digits by ``MonomialCodec.step``.
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
    col = p.column(i)
    phi = running = 0
    best_f = None
    for c, ex in reversed(col):  # descending c; running = sum_{l >= c}
        running += ex
        if running > phi:
            phi, best_f = running, c
    eps = running = 0
    best_e = None
    for c, ex in col:  # ascending c; running = sum_{l <= c}
        running += ex
        if -running > eps:
            eps, best_e = -running, c
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


_steps: dict[tuple[int, int], dict[int, tuple]] = {}  # shape -> {column: step}


class MonomialCodec:
    """Packs monomials into integers, one digit per point of ``window``,
    each |exponent| and |weight coordinate| at most ``bound`` (see the
    module docstring for the layout and its invariants).  Per vertex:
    ``tables``, its shape's table of steps, and ``deltas``, its f-deltas by
    position of F_i.  Its memos, for the one computation it is meant to
    live for: decoded columns, which serve only ``decode``, and weights."""

    def __init__(self, datum: RootDatum, window, bound: int):
        self.datum, self.bound = datum, bound
        self.width = width = (bound + 2).bit_length() + 1
        self.half = 1 << width - 1  # the least power of two at least bound + 3
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
        self._wshifts = tuple(range((datum.rank - 1) * width, -1, -width))
        shift += datum.rank * width
        # the key of the monomial 1 with weight 0: the bias H in every digit
        self.zero = self.half * (((1 << shift) - 1) // ((1 << width) - 1))
        self._decoded: list[dict[int, tuple]] = [{} for _ in datum.vertices]
        self._weights: dict[int, Weight] = {}
        self.tables = [_steps.setdefault((width, len(col)), {}) for col in self.positions]
        # deltas[i - 1][k] = key(p * z_{i,c-2}^-1) - key(p), c the k-th position
        # of column i; None when z_{i,c-2} leaves the window (and the set)
        shifts, self.deltas = self.shift, []
        for i, col in zip(datum.vertices, self.positions):
            alpha, row = self._pack_weight(datum.alphas[i]), []
            for c in col:
                below, delta = shifts.get((i, c - 2)), None
                if below is not None:
                    delta = -alpha - (1 << below) - (1 << shifts[i, c])
                    for j in datum.neighbours[i]:
                        if (up := shifts.get((j, c - 1))) is None:
                            delta = None
                            break
                        delta += 1 << up
                row.append(delta)
            self.deltas.append(row)

    def _pack_weight(self, weight: Weight) -> int:
        """The weight as a signed sum of weight digits (no bias)."""
        return sum(w << s for w, s in zip(weight, self._wshifts)) << self.wbase

    def offset(self, p: Monomial) -> int:
        """The exponents and the weight of p as a signed sum of digits (no
        bias): key(p * q) = key(p) + offset(q)."""
        if max(map(abs, (*p.weight, *(ex for _, ex in p.exponents)))) > self.bound:
            raise ValueError(f"{p} exceeds the codec bound {self.bound}")
        out = self._pack_weight(p.weight)
        for pt, ex in p.exponents:
            shift = self.shift.get(pt)
            if shift is None:
                raise ValueError(f"point {pt} lies outside the codec window")
            out += ex << shift
        return out

    def _column(self, i: int, col: int) -> tuple:
        """The ((i, c), exponent) nonzero entries, by c ascending, of the
        packed column ``col`` of vertex i, memoised for ``decode``, which
        reads the memo first."""
        width, half, digit = self.width, self.half, (1 << self.width) - 1
        entries = []
        for k, c in enumerate(self.positions[i - 1]):
            ex = (col >> k * width & digit) - half
            if ex:
                entries.append(((i, c), ex))
        out = self._decoded[i - 1][col] = tuple(entries)
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

    def step(self, i: int, col: int) -> tuple:
        """(phi_i, k, eps_i, gap, top) of the packed column ``col`` of
        vertex i, read off its digits by c ascending, s their running sum:
        phi_i is the column's sum less the least s before a nonzero digit,
        F_i the largest c attaining it, eps_i the largest -s after one (each
        >= 0).  k is the position of F_i in the column, None when phi_i = 0,
        so ``deltas[i - 1][k]`` is key(f_i x) - key(x); the gap, (phi_i > 0)
        - (eps_i > 0), is what the column adds to the e-closure count; top is
        the largest |exponent|.  Stored in ``tables[i - 1]``, read first; all
        the tables are cleared when they hold ``limits.COLUMN_STEPS_MAX``."""
        width, half, digit = self.width, self.half, (1 << self.width) - 1
        below = least = low = top = best = 0
        rest = col
        for k in range(len(self.positions[i - 1])):
            ex = (rest & digit) - half
            rest >>= width
            if ex:
                if below <= least:
                    least, best = below, k
                below += ex
                if below < low:
                    low = below
                if ex > top or -ex > top:
                    top = abs(ex)
        phi, eps = max(below - least, 0), -low
        if sum(map(len, tables := list(_steps.values()))) >= limits.COLUMN_STEPS_MAX:
            for table in tables:
                table.clear()
        out = self.tables[i - 1][col] = (phi, best if phi else None,
                                         eps, (phi > 0) - (eps > 0), top)
        return out

    def points_mask(self, select) -> int:
        """The mask of the digits of the window points (i, c) with select(i, c)."""
        digit = (1 << self.width) - 1
        return sum(digit << shift for (i, c), shift in self.shift.items() if select(i, c))
