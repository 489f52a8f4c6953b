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
(``_dominant_table``); the Demazure-built ch V(mu)
(``irreducible_character``) stays as the independent oracle.  The check
is made once across calls too: an element records a W-invariance scan
that passed (``GroupAlgebraElement``), so the peel does not scan again a
character that ``truncation.full_character`` checked.

Limits.  A Demazure operator or a product that builds more than
``limits.MAX_TERMS`` terms raises ``limits.LimitExceeded``; a Demazure
operator does so before it writes the string that would pass the limit.

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
- w is dominant by one mask test (``signs``, see ``_root_tables``).  A
  legal digit x + BIAS lies in [0, 2 BIAS), so x >= 0 exactly when its bit
  DIGIT_BITS-2 is set, and in fundamental coordinates a key is dominant
  when all n of these bits (``signs``) are.  For GL, with ``signs`` L =
  2^(DIGIT_BITS-1) in each of the n-1 low digits, (key >> DIGIT_BITS) -
  key + L has there the digits
  d_k - d_(k+1) + L in [1, 2^DIGIT_BITS) for k < n, so none of them
  borrows; the top digit's -d_1 borrows only above them, and ``&`` on a
  negative int reads two's complement, so the n-1 low digits are exact.
  Then <a_k^vee, w> >= 0 exactly when bit DIGIT_BITS-1 of the k-th of
  these digits from the top is set.  Both tests hold for legal keys only;
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
- the W-invariance scans (``_moving_vertices``) only look keys up: a
  reflected key with an illegal coordinate is never a stored key.
- the dominant weights of V(mu) step down from mu by positive roots, whose
  coordinates are at most 2 in size, and each is tested.  Freudenthal's
  strings step up by one root from a weight of V(mu), and the walk to the
  dominant chamber reflects one wall at a time, each move within the
  window; every key on the way is tested.  In a peel of a W-invariant
  element with legal keys all of these stay legal but for weights within
  2 of the edge of the range: the weights of V(mu) lie in conv(W mu), and
  the orbit W mu is legal.

Straightening.  pi_{w_o} is Weyl's symmetriser (Demazure 1974; Humphreys
section 24; for GL_n Macdonald I.3): pi_{w_o}(e^mu) is
(-1)^l(w) ch V(w(mu + rho) - rho) for w(mu + rho) dominant, and 0 when
mu + rho lies on a wall.  So ``straighten`` reads the decomposition of
pi_{w_o} f off the terms of f and never builds pi_{w_o} f; as
pi_{w_o}(g f) = g pi_{w_o} f for W-invariant g, straightening
g * sum m_lam e^lam decomposes g * sum m_lam ch V(lam) (the Brauer-Klimyk
rule).  rho moves a coordinate by at most n - 1 (GL) or 1, so a legal key
plus rho, and a walked legal key minus rho, stay inside the guard window:
both are tested, as is every key of the walk.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from operator import add, eq, lt, mul, sub

from . import limits
from .cartan import RootDatum, Weight, add_into, w_add, w_scale, weight_str

DIGIT_BITS = 32
BIAS = 1 << (DIGIT_BITS - 2)
_MASK = (1 << DIGIT_BITS) - 1


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


def _delta(w) -> int:
    """The packed delta of w: the key of v + w less the key of v."""
    key = 0
    for x in w:
        key = (key << DIGIT_BITS) + x
    return key


def _decode(key: int, n: int) -> Weight:
    return tuple(((key >> sh) & _MASK) - BIAS
                 for sh in range(DIGIT_BITS * (n - 1), -1, -DIGIT_BITS))


def _overflow(n: int) -> ValueError:
    return ValueError(f"a weight left the packed range [{-BIAS}, {BIAS}) "
                      f"in some of its {n} coordinates")


class GroupAlgebraElement:
    """A sparse element of Z[P]: a map weight -> nonzero integer, held as
    packed keys of weights of one length (see the module docstring).

    Elements are immutable: no operation changes ``_keys`` once built.  So
    an element can carry the verdict of a W-invariance scan:
    ``_invariant_under`` is None until a complete scan under a root datum
    finds no reflection moving the element, and is that datum from then on
    (compared by identity).  Every scan (``_moving_vertices``) reads it, so
    each element is scanned at most once under each datum; a scan that
    finds a moving reflection records nothing.  The slot is not locked (see
    ``limits``): it only goes from None to a datum, after a completed scan."""

    __slots__ = ("_keys", "_n", "_invariant_under")

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
        self._invariant_under = None

    @classmethod
    def _of(cls, keys: dict[int, int], n: int | None) -> "GroupAlgebraElement":
        out = object.__new__(cls)
        out._keys = keys
        out._n = n
        out._invariant_under = None
        return out

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
        limit = limits.MAX_TERMS
        out: dict[int, int] = {}
        get = out.get
        for v, a in self._keys.items():
            delta = v - zero
            for w, b in other._keys.items():
                k = w + delta
                out[k] = get(k, 0) + a * b
            if len(out) > limit:
                raise limits.LimitExceeded("weightring.multiply", limit, len(out))
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
    n = datum.rank
    if f._keys and f._n != n:
        raise ValueError(f"weights of length {f._n} in a datum of rank {n}")
    return n


_RootTables = namedtuple("_RootTables", "roots signs walls guard rho height memo dominant")


@lru_cache(maxsize=limits.ROOT_DATA_CACHED)
def _root_tables(datum: RootDatum) -> _RootTables:
    """Every packed constant of a datum, built on first use: ``roots``, for
    every positive root alpha its packed delta, its simple-root coordinates
    and its pairings (<a_j^vee, alpha>)_j; ``signs``, the mask of the
    sign-bit dominance test (``_dominant_keys``); ``walls``, the shift of
    the pairing digit and the packed delta A(i) of every vertex i, in vertex
    order; ``guard``, the top bit of every digit; ``rho``, the packed delta
    of rho; ``height``, the (shift, coefficient) parts of a function on keys
    ordered like ``datum.height`` on their weights; ``memo``, the memo of
    ``_dominant_key``, cleared at ``limits.DOMINANT_MEMO_MAX`` entries; and
    ``dominant``, the dominant-multiplicity tables of ``_dominant_table``.
    Neither cache is locked (see ``limits``)."""
    n = datum.rank
    return _RootTables(
        roots=tuple((_delta(root), coords, tuple(datum.pairing(j, root) for j in datum.vertices))
                    for coords, root in datum.positive_roots),
        signs=_repunit(n - 1) << (DIGIT_BITS - 1) if datum.kind == "GL"
        else _repunit(n) << (DIGIT_BITS - 2),
        walls=tuple((DIGIT_BITS * (n - i), _delta(datum.alphas[i])) for i in datum.vertices),
        guard=_repunit(n) << (DIGIT_BITS - 1),
        rho=_delta(datum.rho),
        height=tuple((DIGIT_BITS * (n - 1 - j), h) for j, h in enumerate(datum._height) if h),
        memo={}, dominant={})


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


def _moving_vertices(datum: RootDatum, f: GroupAlgebraElement) -> list[int]:
    """The vertices i with s_i moving f, in vertex order: [] when W fixes
    f.  f's record of datum stands in for the scan, and a scan of every
    vertex that finds none records datum on f (see ``GroupAlgebraElement``)."""
    if f._invariant_under is datum:
        return []
    keys, n = f._keys, datum.rank
    moving = [i for i, (_, a) in zip(datum.vertices, _root_tables(datum).walls)
              if not _reflection_fixes(keys, a, _pairings(datum, i, keys, n))]
    if not moving:
        f._invariant_under = datum
    return moving


def _dominant_keys(datum: RootDatum, keys) -> list[int]:
    """The dominant keys among legal ``keys``, in iteration order, by one
    sign-bit test each (see the module docstring)."""
    signs = _root_tables(datum).signs
    if datum.kind != "GL":
        return [k for k in keys if k & signs == signs]
    return [k for k in keys if ((k >> DIGIT_BITS) - k + signs) & signs == signs]


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
    output past ``limits.MAX_TERMS`` terms, ``reached`` being the count it
    would bring."""
    n = _check_length(datum, f)
    if i not in datum.neighbours:
        raise ValueError(f"vertex {i} not in diagram")
    tables = _root_tables(datum)
    a, guard = tables.walls[i - 1][1], tables.guard
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
    size, limit = 0, limits.MAX_TERMS
    for mid, q in tops.items():
        k = mid + (q >> 1) * a
        r = k - q * a
        if (k | r) & guard:
            raise _overflow(n)
        size += q + 1
        if size > limit:
            raise limits.LimitExceeded("weightring.demazure_pi", limit, size)
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


def pi_longest(datum: RootDatum, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """pi_{w_o} f.

    With J = {i : s_i f = f}, every pi_i with i in J fixes f, hence so does
    pi_{w_J}; as l(w_o) = l(w_o w_J) + l(w_J), pi_{w_o} f = pi_{w_o w_J} f.
    The stabiliser of lam_J = sum_{i not in J} omega_i is W_J, so w_o w_J
    is the shortest element taking lam_J to w_o lam_J = -(dominant
    representative of -lam_J), and the ascent ``dominant_representative``
    takes from w_o lam_J spells a reduced word for it.  The word is found
    afresh on each call, in under a millisecond even on E8.

    Finding J scans every vertex.  When none moves f, f is its own image
    and the scan is recorded on f (``GroupAlgebraElement``); an f recorded
    under this datum is not scanned."""
    _check_length(datum, f)
    lam = datum.zero
    for i in _moving_vertices(datum, f):
        lam = w_add(lam, datum.fundamentals[i])
    low = w_scale(-1, datum.dominant_representative(w_scale(-1, lam))[0])
    return apply_word(datum, datum.dominant_representative(low)[1], f)


def _assert_weyl_invariant(datum: RootDatum, f: GroupAlgebraElement) -> None:
    """The check on a pi_{w_o} image: AssertionError unless W fixes f."""
    if _moving_vertices(datum, f):
        raise AssertionError("pi_{w_o} image is not Weyl-invariant")


def irreducible_character(datum: RootDatum, w: Weight) -> GroupAlgebraElement:
    """ch V(w) for dominant w, via the Demazure character formula at w_o.
    Not cached: the Weyl peel reads only the dominant multiplicities
    (``_dominant_table``), and this stays its independent oracle."""
    w = tuple(w)
    if not datum.is_dominant(w):
        raise ValueError(f"{w} is not dominant")
    out = apply_word(datum, datum.longest_word, e(w))
    if out.coefficient(w) != 1:
        raise AssertionError(f"ch V{weight_str(w)} has no simple top term")
    return out


def _dominant_key(datum: RootDatum, key: int, n: int, tables: _RootTables) -> tuple[int, int]:
    """The dominant weight in the W-orbit of a key whose true digits lie in
    the guard window (see the module docstring), and the number of
    reflections walked, whose parity is that of the length of w with w(key)
    dominant; ValueError when a weight on the way has an illegal coordinate.
    While the sign-bit test (``tables.signs``) finds a negative pairing, a
    pass over ``tables.walls`` in vertex order reflects at each wall whose
    pairing is negative when it is reached; each step raises the weight in
    the positive-root order."""
    signs, walls, guard = tables.signs, tables.walls, tables.guard
    if key & guard:
        raise _overflow(n)
    gl = datum.kind == "GL"
    count = 0
    while (((key >> DIGIT_BITS) - key + signs) if gl else key) & signs != signs:
        for sh, a in walls:
            m = ((key >> sh) & _MASK) - (((key >> (sh - DIGIT_BITS)) & _MASK) if gl else BIAS)
            if m < 0:
                key -= m * a
                count += 1
                if key & guard:
                    raise _overflow(n)
    return key, count


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
    n = datum.rank
    tables = _root_tables(datum)
    roots, guard, memo = tables.roots, tables.guard, tables.memo
    top = _encode(lam)
    p_lam = tuple(datum.pairing(j, lam) for j in datum.vertices)
    p_rho = tuple(x + 2 for x in p_lam)   # pairings of lam + 2 rho
    found = {top: ((0,) * len(p_lam), p_lam)}
    frontier = [top]
    while frontier:
        nxt = []
        for key in frontier:
            c, p = found[key]
            for delta, a, pa in roots:
                # skip mu - alpha outside the dominant chamber or found before
                if any(map(lt, p, pa)):
                    continue
                nu = key - delta
                if nu in found:
                    continue
                if nu & guard:
                    raise _overflow(n)
                found[nu] = (tuple(map(add, c, a)), tuple(map(sub, p, pa)))
                nxt.append(nu)
                if len(found) > cap:
                    return None
        frontier = nxt
    order = sorted(found, key=lambda k: sum(found[k][0]))
    mult = {top: 1}
    get, memo_get, memo_max = mult.get, memo.get, limits.DOMINANT_MEMO_MAX
    for key in order[1:]:
        c, p = found[key]
        total = 0
        for delta, a, _ in roots:
            t = 0   # found at the first weight of V(lam) on the string, as >= 2
            nu = key + delta
            while True:
                d = memo_get(nu)
                if d is None:
                    if len(memo) >= memo_max:
                        memo.clear()
                    d = memo[nu] = _dominant_key(datum, nu, n, tables)[0]
                m = get(d)
                if not m:
                    break
                if not t:
                    t = 2 + sum(map(mul, a, p))   # (mu + alpha, alpha)
                total += t * m
                t += 2
                nu += delta
        norm = sum(map(mul, c, map(add, p_rho, p)))
        m, rest = divmod(2 * total, norm)
        if rest or m <= 0:
            raise AssertionError(
                f"Freudenthal's formula gives {2 * total}/{norm} at "
                f"{_decode(key, n)} in V{weight_str(lam)}")
        mult[key] = m
    return mult


def _dominant_table(datum: RootDatum, lam: Weight, cap: int) -> dict[int, int] | None:
    """``_freudenthal`` remembered in the ``dominant`` tables of the datum's
    ``_root_tables``, which hold at most ``limits.IRR_CACHE_MAX_TERMS``
    entries in all and evict the oldest table first; None, and nothing
    remembered, past ``cap`` dominant weights."""
    cache = _root_tables(datum).dominant
    table = cache.get(lam)
    if table is None:
        table = _freudenthal(datum, lam, cap)
        if table is None:
            return None
        cache[lam] = table
        # list() snapshots the dict in one step, so a racing thread (see
        # ``limits``) cannot change its size during the iteration
        held = sum(map(len, list(cache.values())))
        for old in list(cache):
            if held <= limits.IRR_CACHE_MAX_TERMS:
                break
            gone = cache.pop(old, None)
            if gone is not None:
                held -= len(gone)
    return table


class DecompositionError(ValueError):
    """The element is not the expected nonnegative combination."""


def weyl_decompose(datum: RootDatum, f: GroupAlgebraElement) -> dict[Weight, int]:
    """Write a W-invariant f as a sum of irreducible characters.

    A W-invariant element is fixed by its dominant terms, so only those are
    peeled: repeatedly subtract c * m_mu, the dominant multiplicities of
    V(mu) (``_dominant_table``), at a dominant term mu of greatest
    height, hence maximal in the positive-root order.
    Raises DecompositionError when f is not W-invariant or not a
    nonnegative integral combination.  The W-invariance scan is skipped
    when f records a passed scan under this datum (``pi_longest``'s J
    search, ``truncation.full_character``), and a passing scan is recorded
    on f; a record under another datum does not count.
    """
    n = _check_length(datum, f)
    keys = f._keys
    moving = _moving_vertices(datum, f)
    if moving:
        raise DecompositionError(f"not Weyl-invariant: s_{moving[0]} moves it")
    parts = _root_tables(datum).height
    rem = {k: keys[k] for k in _dominant_keys(datum, keys)}
    # every dominant weight of a summand is a dominant term of f
    cap = len(rem)
    out: dict[Weight, int] = {}
    while rem:
        top = max(rem, key=lambda k: (sum(h * ((k >> sh) & _MASK) for sh, h in parts), k))
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


def straighten(datum: RootDatum, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """pi_{w_o}(f) as sum_lam m_lam e^lam, m_lam the multiplicity of V(lam)
    (see "Straightening" in the module docstring): a term c e^mu adds
    (-1)^l(w) c at lam = w(mu + rho) - rho, w the walk of ``_dominant_key``,
    and nothing when lam is not dominant.  Zero multiplicities are dropped;
    DecompositionError at a negative one."""
    n = _check_length(datum, f)
    tables = _root_tables(datum)
    rho, guard = tables.rho, tables.guard
    out: dict[int, int] = {}
    for key, c in f._keys.items():
        key, count = _dominant_key(datum, key + rho, n, tables)
        key -= rho
        if key & guard:
            raise _overflow(n)
        out[key] = out.get(key, 0) + (-c if count & 1 else c)
    dec = {key: out[key] for key in _dominant_keys(datum, out) if out[key]}
    for key, m in dec.items():
        if m < 0:
            raise DecompositionError(
                f"not a nonnegative integral combination: coefficient {m} at {_decode(key, n)}")
    return GroupAlgebraElement._of(dec, n)


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
