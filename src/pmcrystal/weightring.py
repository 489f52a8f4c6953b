"""Sparse arithmetic in the group algebra Z[P] and Demazure operators.

Elements are finite Z-linear combinations of formal exponentials e^w of
weights, multiplied via e^v * e^w = e^(v+w).  The Demazure operator pi_i
acts Z-linearly by the three-case formula

    pi_i e^w = e^w + e^(w - a_i) + ... + e^(s_i w)        if <a_i^vee, w> >= 0
             = 0                                          if <a_i^vee, w> = -1
             = -e^(w + a_i) - ... - e^(s_i w - a_i)       if <a_i^vee, w> <= -2

where a_i is the i-th simple root.  The operators are idempotent and braid,
so composing along any reduced word of w_o yields the same projector; its
image on e^w (w dominant) is the irreducible character ch V(w).  Moreover
pi_i f = f exactly when s_i f = f, so with J the vertices whose reflections
fix f, pi_{w_o} f = pi_{w_o w_J} f: ``pi_longest`` applies only a reduced
word of the shortest element w_o w_J of the coset w_o W_J.

``weyl_decompose`` peels a character triangularly by height, which grows
along the positive-root order: it subtracts at a dominant term of greatest
height.  A W-invariant element is fixed by its dominant terms, so it checks
W-invariance once and then peels on dominant keys alone, subtracting the
dominant multiplicities of V(mu) that Freudenthal's formula gives
(``dominant_multiplicities``); the Demazure-built ch V(mu)
(``irreducible_character``) stays as the independent oracle.

Limits.  A Demazure operator or a product that builds more than
MAX_TERMS terms raises ``cartan.LimitExceeded``; a Demazure operator does
so before it writes the string that would pass the limit.

Packed weights.  Inside this module a weight (w_1, ..., w_n) is the integer

    key = sum_k (w_k + BIAS) << DIGIT_BITS * (n - k),   BIAS = 2^(DIGIT_BITS-2),

one fixed-width biased digit per coordinate, w_1 most significant, so that
key order on weights of one length is tuple order.  The layout depends on
nothing but n, so ``e(w)`` and ``GroupAlgebraElement(terms)`` need no root
datum; each element records n, and tuples appear only at the API edge
(``terms``, ``items()``, ``coefficient``, ``repr``, ``laurent_str``).  A
coordinate is *legal* when it lies in [-BIAS, BIAS), i.e. its digit lies in
[0, 2^(DIGIT_BITS-1)); every key an element stores has legal coordinates,
and ``e``/``GroupAlgebraElement`` raise ``ValueError`` on any other.  With
A(i) the packed delta sum_k (a_i)_k << DIGIT_BITS * (n - k) of a_i:

- <a_i^vee, w> is one digit minus BIAS (fundamental coordinates) or the
  difference of digits i and i+1 (GL): shifts and masks;
- w - t a_i is ``key - t * A(i)``, so one step along an a_i-string adds or
  subtracts A(i), and the reflection s_i w is ``key - <a_i^vee, w> * A(i)``;
- e^v * e^w is ``key(w) + key(v) - key(0)``.

No silent overflow.  Integer sums of digits are exact; a result decodes
correctly exactly when all its true digits stay inside [0, 2^DIGIT_BITS).
Let GUARD have the top bit of every digit set.  If every true digit t of a
result lies in the window [-2^(DIGIT_BITS-1), 2^DIGIT_BITS) -- coordinates
in [-3 BIAS, 3 BIAS) -- then ``key & GUARD`` is zero exactly when all its
coordinates are legal: the lowest illegal digit receives no borrow from
the legal digits below it and shows its top bit.  Each operation stays in
that window and is checked where it could leave the legal range:

- pi_i: every coordinate moves monotonically along an a_i-string, so a
  string of the image is legal iff its two ends are, and both are tested
  before it is written.  Its top is a stored key w or the partner
  s_i w - a_i of one (pairing at most -2), and its bottom is s_i of the
  top: s_i w or w + a_i.  Each end differs from w by at most
  |<a_i^vee, w>| <= 2 BIAS in a coordinate of GL (where it stays between
  w_i and w_(i+1)) and by at most BIAS in a neighbour's coordinate
  otherwise, which stays inside the window, as does the key of pairing 0
  or 1 between them that names the string.  Every weight of pi_i(e^w)
  lies in conv(W w), whose coordinates grow with sum_k mark_k |w_k|, so
  long words over large weights do reach the limit; they then raise
  ``ValueError`` instead of wrapping.
- a product of legal keys has coordinates in [-2 BIAS, 2 BIAS); every key
  formed is tested before terms cancel.
- the W-invariance tests of ``pi_longest`` and ``weyl_decompose`` only
  look keys up: a reflected key with an illegal coordinate is never a
  stored key.
- the dominant weights of V(mu) step down from mu by positive roots, whose
  coordinates are at most 2 in size, and each is tested.  Freudenthal's
  strings step up by one root from a weight of V(mu), and the walk to the
  dominant chamber reflects one wall at a time, each move within the
  window; every key on the way is tested.  In a peel of a W-invariant
  element with legal keys all of these stay legal but for weights within
  2 of the edge of the range: the weights of V(mu) lie in conv(W mu), and
  the orbit W mu is legal.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import eq, mul, sub

from .cartan import (LimitExceeded, RootDatum, Weight, add_into, w_add, w_scale,
                     weight_str)

DIGIT_BITS = 32
BIAS = 1 << (DIGIT_BITS - 2)
_MASK = (1 << DIGIT_BITS) - 1

# Bound on the entries held by one datum's cache of dominant-multiplicity
# tables; the oldest tables are evicted first.
IRR_CACHE_MAX_TERMS = 500_000
# The most terms a Demazure operator or a product may build.  The
# benchmark's largest character has 3,317 terms; pi_{w_o} on E8 from
# e^(2 w_1 + w_8) passes this limit after 2.8-3.1 s at 86 MB peak RSS
# (raw seconds, one core of a 2-core Xeon, Python 3.11).
MAX_TERMS = 200_000
# Bound on one datum's memo of dominant representatives; a full memo is
# cleared.
DOMINANT_MEMO_MAX = 100_000


def _repunit(n: int) -> int:
    """1 in every one of n digits."""
    return ((1 << DIGIT_BITS * n) - 1) // _MASK


def _encode(w) -> int:
    key = 0
    for x in w:
        if not -BIAS <= x < BIAS:
            raise ValueError(
                f"weight coordinate {x} outside the packed range [{-BIAS}, {BIAS})")
        key = (key << DIGIT_BITS) + x + BIAS
    return key


def _decode(key: int, n: int) -> Weight:
    return tuple(((key >> sh) & _MASK) - BIAS
                 for sh in range(DIGIT_BITS * (n - 1), -1, -DIGIT_BITS))


def _overflow(n: int) -> ValueError:
    return ValueError(f"a weight left the packed range [{-BIAS}, {BIAS}) "
                      f"in some of its {n} coordinates")


class GroupAlgebraElement:
    """A sparse element of Z[P]: a map weight -> nonzero integer, held as
    packed keys of weights of one length (see the module docstring)."""

    __slots__ = ("_keys", "_n")

    def __init__(self, terms: dict[Weight, int] | None = None):
        keys: dict[int, int] = {}
        n = None
        for w, c in (terms or {}).items():
            if not c:
                continue
            if n is None:
                n = len(w)
            elif len(w) != n:
                raise ValueError(f"weights of different lengths {n} and {len(w)}")
            keys[_encode(w)] = c
        self._keys = keys
        self._n = n

    @classmethod
    def _of(cls, keys: dict[int, int], n: int | None) -> "GroupAlgebraElement":
        out = object.__new__(cls)
        out._keys = keys
        out._n = n
        return out

    @classmethod
    def unit(cls, datum: RootDatum) -> "GroupAlgebraElement":
        return cls({datum.zero: 1})

    @property
    def terms(self) -> dict[Weight, int]:
        n = self._n
        return {_decode(k, n): c for k, c in self._keys.items()}

    def items(self):
        n = self._n
        return [(_decode(k, n), c) for k, c in sorted(self._keys.items())]

    def coefficient(self, w: Weight) -> int:
        if len(w) != self._n:
            return 0
        return self._keys.get(_encode(w), 0)

    def is_zero(self) -> bool:
        return not self._keys

    def total(self) -> int:
        """Sum of all coefficients (the dimension, for a character)."""
        return sum(self._keys.values())

    def _length_with(self, other: "GroupAlgebraElement") -> int | None:
        if not self._keys:
            return other._n
        if other._keys and other._n != self._n:
            raise ValueError(f"weights of different lengths {self._n} and {other._n}")
        return self._n

    def __add__(self, other):
        n = self._length_with(other)
        out = dict(self._keys)
        add_into(out, 1, other._keys)
        return GroupAlgebraElement._of(out, n)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        keys = {k: scalar * c for k, c in self._keys.items()} if scalar else {}
        return GroupAlgebraElement._of(keys, self._n)

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        n = self._length_with(other)
        if n is None:
            return GroupAlgebraElement._of({}, None)
        zero, guard = BIAS * _repunit(n), _repunit(n) << (DIGIT_BITS - 1)
        out: dict[int, int] = {}
        get = out.get
        for v, a in self._keys.items():
            delta = v - zero
            for w, b in other._keys.items():
                k = w + delta
                out[k] = get(k, 0) + a * b
            if len(out) > MAX_TERMS:
                raise LimitExceeded("weightring.multiply", MAX_TERMS, len(out))
        if any(k & guard for k in out):
            raise _overflow(n)
        return GroupAlgebraElement._of({k: c for k, c in out.items() if c}, n)

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement) and self._keys == other._keys
                and (self._n == other._n or not self._keys))

    def __hash__(self):
        return hash(frozenset(self._keys.items()))

    def __repr__(self):
        if not self._keys:
            return "0"
        bits = []
        for w, c in self.items():
            coeff = "" if c == 1 else "-" if c == -1 else f"{c}*"
            bits.append(f"{coeff}e{weight_str(w)}")
        return " + ".join(bits).replace("+ -", "- ")


def e(w: Weight, coeff: int = 1) -> GroupAlgebraElement:
    """The basis element coeff * e^w."""
    return GroupAlgebraElement({tuple(w): coeff})


def _check_length(datum: RootDatum, f: GroupAlgebraElement) -> int:
    n = datum.lattice_rank
    if f._keys and f._n != n:
        raise ValueError(f"weights of length {f._n} in a datum of rank {n}")
    return n


def _alpha_key(datum: RootDatum, i: int) -> int:
    """The packed delta A(i) of the simple root a_i."""
    if i not in datum.neighbours:
        raise ValueError(f"vertex {i} not in diagram")
    key = 0
    for x in datum.alphas[i]:
        key = (key << DIGIT_BITS) + x
    return key


def _pairings(datum: RootDatum, i: int, keys, n: int) -> list[int]:
    """<a_i^vee, w> for every key, in iteration order."""
    sh = DIGIT_BITS * (n - i)
    if datum.kind == "GL":
        nxt = sh - DIGIT_BITS
        return [((k >> sh) & _MASK) - ((k >> nxt) & _MASK) for k in keys]
    return [((k >> sh) & _MASK) - BIAS for k in keys]


def _reflection_fixes(keys: dict[int, int], a: int, pairings: list[int]) -> bool:
    """Whether s_i fixes the element with these keys, given A(i) and the
    pairings <a_i^vee, w> of its keys."""
    # s_i w = w - <a_i^vee, w> a_i, compared term by term in C-level maps
    reflected = map(sub, keys, map(mul, pairings, repeat(a)))
    return all(map(eq, map(keys.get, reflected), keys.values()))


def _moving_vertices(datum: RootDatum, keys: dict[int, int], n: int):
    """The vertices i with s_i moving the element with these keys, in
    vertex order and lazily: none when the element is W-invariant."""
    for i in datum.vertices:
        if not _reflection_fixes(keys, _alpha_key(datum, i), _pairings(datum, i, keys, n)):
            yield i


def _dominant_keys(datum: RootDatum, keys, n: int) -> list[int]:
    out = list(keys)
    for i in datum.vertices:
        out = [k for k, m in zip(out, _pairings(datum, i, out, n)) if m >= 0]
    return out


def _height_of_key(datum: RootDatum, n: int):
    """A function on keys ordered like ``datum.height`` on their weights
    (it differs from it by a constant)."""
    parts = [(DIGIT_BITS * (n - 1 - j), h) for j, h in enumerate(datum._height) if h]
    return lambda k: sum(h * ((k >> sh) & _MASK) for sh, h in parts)


def demazure_pi(datum: RootDatum, i: int, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """pi_i f.  When s_i f = f, which is exactly when pi_i f = f, f itself is
    returned: ``char_by_plan`` tests s_i-invariance by identity.

    Otherwise pi_i f is summed one alpha_i-string at a time.  A term c e^w
    with pairing m = <a_i^vee, w> <= -2 has the image of -c e^(s_i w - a_i),
    whose pairing is -m - 2 >= 0, and one with m = -1 has none; once every
    term is folded onto a pairing q >= 0, it adds c at each weight of its
    string with pairing in [-q, q].  The image at pairings +-p is therefore
    the sum of the folded coefficients at pairings >= |p| on its string,
    which one walk down from the string's top pairing writes as a running
    suffix sum.  LimitExceeded is raised before a string would take the
    output past MAX_TERMS terms, ``reached`` being the count it would bring."""
    n = _check_length(datum, f)
    a = _alpha_key(datum, i)
    guard = _repunit(n) << (DIGIT_BITS - 1)
    keys = f._keys
    pairings = _pairings(datum, i, keys, n)
    # pi_i fixes every s_i-invariant element: one lookup per term instead
    # of a whole string
    if _reflection_fixes(keys, a, pairings):
        return f
    # the folded terms, later overwritten by the image; and the top pairing
    # of each string, keyed by its weight of pairing 0 or 1
    out: dict[int, int] = {}
    tops: dict[int, int] = {}
    get, top_of = out.get, tops.get
    for (k, c), m in zip(keys.items(), pairings):
        if m < 0:
            if m == -1:
                continue
            k, m, c = k - (m + 1) * a, -m - 2, -c
        out[k] = get(k, 0) + c
        mid = k - (m >> 1) * a
        if top_of(mid, -1) < m:
            tops[mid] = m
    size = 0
    for mid, q in tops.items():
        k = mid + (q >> 1) * a
        r = k - q * a
        if (k | r) & guard:
            raise _overflow(n)
        size += q + 1
        if size > MAX_TERMS:
            raise LimitExceeded("weightring.demazure_pi", MAX_TERMS, size)
        # the top holds a folded term; step the pairings q - 2, q - 4, ...
        # down to 0 or 1 at k, and -q + 2, -q + 4, ... up to 0 or -1 at r
        s = out[r] = out[k]
        while q > 1:
            k -= a
            r += a
            q -= 2
            s += get(k, 0)
            out[k] = out[r] = s
    return GroupAlgebraElement._of({k: c for k, c in out.items() if c}, n)


def apply_word(datum: RootDatum, word, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """pi_{word[0]} pi_{word[1]} ... pi_{word[-1]} applied to f (the last
    letter acts first, as in a composition read left to right)."""
    for i in reversed(tuple(word)):
        f = demazure_pi(datum, i, f)
    return f


def pi_longest(datum: RootDatum, f: GroupAlgebraElement, check: bool = True) -> GroupAlgebraElement:
    """Apply pi_{w_o}; optionally assert the result is Weyl-invariant.

    With J = {i : s_i f = f}, every pi_i with i in J fixes f, hence so does
    pi_{w_J}; as l(w_o) = l(w_o w_J) + l(w_J), pi_{w_o} f = pi_{w_o w_J} f.
    The stabiliser of lam_J = sum_{i not in J} omega_i is W_J, so w_o w_J
    is the shortest element taking lam_J to w_o lam_J = -(dominant
    representative of -lam_J), and the ascent ``dominant_representative``
    takes from w_o lam_J spells a reduced word for it.  The word is found
    afresh on each call, in under a millisecond even on E8."""
    n = _check_length(datum, f)
    lam = datum.zero
    for i in _moving_vertices(datum, f._keys, n):
        lam = w_add(lam, datum.fundamentals[i])
    low = w_scale(-1, datum.dominant_representative(w_scale(-1, lam))[0])
    out = apply_word(datum, datum.dominant_representative(low)[1], f)
    if check and next(_moving_vertices(datum, out._keys, n), None) is not None:
        raise AssertionError("pi_{w_o} image is not Weyl-invariant")
    return out


def irreducible_character(datum: RootDatum, w: Weight) -> GroupAlgebraElement:
    """ch V(w) for dominant w, via the Demazure character formula at w_o.
    Not cached: the Weyl peel reads only the dominant multiplicities
    (``dominant_multiplicities``), and this stays its independent oracle."""
    w = tuple(w)
    if not datum.is_dominant(w):
        raise ValueError(f"{w} is not dominant")
    out = apply_word(datum, datum.longest_word, e(w))
    if out.coefficient(w) != 1:
        raise AssertionError(f"ch V{weight_str(w)} has no simple top term")
    return out


@lru_cache(maxsize=64)
def _root_tables(datum: RootDatum):
    """Per datum, built on first use: for every positive root alpha its
    packed delta, its simple-root coordinates and its pairings
    (<a_j^vee, alpha>)_j; the shift and packed delta A(i) of every vertex;
    and the memo of ``_dominant_key``."""
    n = datum.lattice_rank
    roots = []
    for coords, root in datum.positive_roots:
        delta = 0
        for x in root:
            delta = (delta << DIGIT_BITS) + x
        roots.append((delta, coords, tuple(datum.pairing(j, root) for j in datum.vertices)))
    walls = tuple((DIGIT_BITS * (n - i), _alpha_key(datum, i)) for i in datum.vertices)
    return tuple(roots), walls, {}


def _dominant_key(datum: RootDatum, key: int, n: int, walls, guard: int) -> int:
    """The dominant weight in the W-orbit of a key whose true digits lie in
    the guard window (see the module docstring); ValueError when a weight on
    the way has an illegal coordinate.  Reflects at any wall with a negative
    pairing; each step raises the weight in the positive-root order."""
    if key & guard:
        raise _overflow(n)
    gl = datum.kind == "GL"
    moved = True
    while moved:
        moved = False
        for sh, a in walls:
            m = ((key >> sh) & _MASK) - (((key >> (sh - DIGIT_BITS)) & _MASK) if gl else BIAS)
            if m < 0:
                key -= m * a
                if key & guard:
                    raise _overflow(n)
                moved = True
    return key


def _freudenthal(datum: RootDatum, lam: Weight, cap: int) -> dict[int, int] | None:
    """The dominant multiplicities of V(lam) on packed keys, or None when
    V(lam) has more than ``cap`` dominant weights.

    The dominant weights mu of V(lam) are the dominant mu <= lam, reached
    from lam by subtracting positive roots without leaving the dominant
    chamber (Stembridge 1998); each carries the simple-root coordinates c
    of lam - mu.  With (alpha, alpha) = 2 for every root, Freudenthal's
    formula (Humphreys section 22.3) reads, in integers,

        (lam - mu, lam + mu + 2 rho) m(mu)
            = 2 sum_{alpha > 0} sum_{k >= 1} (mu + k alpha, alpha) m(dom(mu + k alpha)),

    where (lam - mu, nu) = sum_j c_j <a_j^vee, nu> and
    (nu, alpha) = sum_j alpha_j <a_j^vee, nu>, for A/D/E and GL alike.  The
    weights mu + k alpha of V(lam) form an interval in k, so each string
    stops at the first zero.  dom(nu) lies strictly above mu in the
    positive-root order, so taking mu by increasing height of lam - mu
    finds every m(dom(nu)) already known."""
    n = datum.lattice_rank
    roots, walls, memo = _root_tables(datum)
    guard = _repunit(n) << (DIGIT_BITS - 1)
    top = _encode(lam)
    p_lam = tuple(datum.pairing(j, lam) for j in datum.vertices)
    found = {top: ((0,) * len(walls), p_lam)}
    frontier = [top]
    while frontier:
        nxt = []
        for key in frontier:
            c, p = found[key]
            for delta, a, pa in roots:
                q = tuple(x - y for x, y in zip(p, pa))
                if min(q) < 0 or key - delta in found:
                    continue
                if (key - delta) & guard:
                    raise _overflow(n)
                found[key - delta] = (tuple(x + y for x, y in zip(c, a)), q)
                nxt.append(key - delta)
                if len(found) > cap:
                    return None
        frontier = nxt
    order = sorted(found, key=lambda k: sum(found[k][0]))
    mult = {top: 1}
    get, memo_get = mult.get, memo.get
    for key in order[1:]:
        c, p = found[key]
        total = 0
        for delta, a, _ in roots:
            t = 2 + sum(x * y for x, y in zip(a, p))   # (mu + alpha, alpha)
            nu = key + delta
            while True:
                d = memo_get(nu)
                if d is None:
                    if len(memo) >= DOMINANT_MEMO_MAX:
                        memo.clear()
                    d = memo[nu] = _dominant_key(datum, nu, n, walls, guard)
                m = get(d)
                if not m:
                    break
                total += t * m
                t += 2
                nu += delta
        norm = sum(x * (y + z + 2) for x, y, z in zip(c, p_lam, p))
        m, rest = divmod(2 * total, norm)
        if rest or m <= 0:
            raise AssertionError(
                f"Freudenthal's formula gives {2 * total}/{norm} at "
                f"{_decode(key, n)} in V{weight_str(lam)}")
        mult[key] = m
    return mult


def _dominant_table(datum: RootDatum, lam: Weight, cap: int) -> dict[int, int] | None:
    """``_freudenthal`` remembered in ``datum._irr_cache``, which holds at
    most IRR_CACHE_MAX_TERMS entries in all and evicts its oldest tables
    first; None, and nothing remembered, past ``cap`` dominant weights."""
    cache = datum._irr_cache
    table = cache.get(lam)
    if table is None:
        table = _freudenthal(datum, lam, cap)
        if table is None:
            return None
        cache[lam] = table
        # list() snapshots the dict in one step, so racing threads see no
        # change of size during iteration
        held = sum(map(len, list(cache.values())))
        for old in list(cache):
            if held <= IRR_CACHE_MAX_TERMS:
                break
            gone = cache.pop(old, None)
            if gone is not None:
                held -= len(gone)
    return table


def dominant_multiplicities(datum: RootDatum, w: Weight) -> dict[Weight, int]:
    """The dominant part of ch V(w), w dominant: mu -> dim V(w)_mu for
    every dominant weight mu of V(w), by Freudenthal's formula.
    LimitExceeded past MAX_TERMS dominant weights."""
    w = tuple(w)
    if len(w) != datum.lattice_rank or not datum.is_dominant(w):
        raise ValueError(f"{w} is not a dominant weight of {datum!r}")
    table = _dominant_table(datum, w, MAX_TERMS)
    if table is None:
        raise LimitExceeded("weightring.dominant_multiplicities", MAX_TERMS, MAX_TERMS + 1)
    n = datum.lattice_rank
    return {_decode(k, n): c for k, c in table.items()}


class DecompositionError(ValueError):
    """The element is not the expected nonnegative combination."""


def weyl_decompose(datum: RootDatum, f: GroupAlgebraElement) -> dict[Weight, int]:
    """Write a W-invariant f as a sum of irreducible characters.

    A W-invariant element is fixed by its dominant terms, so only those are
    peeled: repeatedly subtract c * m_mu, the dominant multiplicities of
    V(mu) (``dominant_multiplicities``), at a dominant term mu of greatest
    height, hence maximal in the positive-root order.
    Raises DecompositionError when f is not W-invariant or not a
    nonnegative integral combination.
    """
    n = _check_length(datum, f)
    keys = f._keys
    i = next(_moving_vertices(datum, keys, n), None)
    if i is not None:
        raise DecompositionError(f"not Weyl-invariant: s_{i} moves it")
    height = _height_of_key(datum, n)
    rem = {k: keys[k] for k in _dominant_keys(datum, keys, n)}
    # every dominant weight of a summand is a dominant term of f
    cap = len(rem)
    out: dict[Weight, int] = {}
    while rem:
        top = max(rem, key=lambda k: (height(k), k))
        mu, c = _decode(top, n), rem[top]
        if c < 0:
            raise DecompositionError(
                f"not a nonnegative integral combination: coefficient {c} at {mu}")
        table = _dominant_table(datum, mu, cap)
        if table is None:
            raise DecompositionError(
                f"not a nonnegative integral combination: V{weight_str(mu)} has "
                f"more dominant weights than the {cap} dominant terms")
        add_into(rem, -c, table)
        out[mu] = c
    return out


def laurent_str(datum: RootDatum, f: GroupAlgebraElement) -> str:
    """Render a GL_n element as a Laurent polynomial in x_1..x_n
    (e^{eps_i} <-> x_i)."""
    if datum.kind != "GL":
        raise ValueError("Laurent rendering is a GL convention")
    if f.is_zero():
        return "0"
    bits = []
    for w, c in reversed(f.items()):
        mono = "*".join(
            f"x{k+1}" if p == 1 else f"x{k+1}^{p}"
            for k, p in enumerate(w) if p != 0
        )
        if not mono:
            mono = "1"
        if c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ")
