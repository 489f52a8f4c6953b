"""Sparse arithmetic in the group algebra Z[P] and Demazure operators.

Elements are finite Z-linear combinations of formal exponentials e^w of
weights, multiplied via e^v * e^w = e^(v+w).  The Demazure operator pi_i
acts Z-linearly by the three-case formula

    pi_i e^w = e^w + e^(w - a_i) + ... + e^(s_i w)        if <a_i^vee, w> >= 0
             = 0                                          if <a_i^vee, w> = -1
             = -e^(w + a_i) - ... - e^(s_i w - a_i)       if <a_i^vee, w> <= -2

where a_i is the i-th simple root.  The operators are idempotent and braid,
so composing along any reduced word of w_o yields the same projector; its
image on e^w (w dominant) is the irreducible character ch V(w).

Decomposition routines peel characters triangularly by height, which grows
along the positive-root order: ``weyl_decompose`` peels a dominant term of
greatest height, ``key_decompose`` a term of least height (Demazure
characters have lowest term e^mu with coefficient one).
"""

from __future__ import annotations

from .cartan import RootDatum, Weight, w_add, w_sub, weight_str


class GroupAlgebraElement:
    """A sparse element of Z[P]: a map weight -> nonzero integer."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, int] | None = None):
        self.terms: dict[Weight, int] = {
            w: c for w, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def unit(cls, datum: RootDatum) -> "GroupAlgebraElement":
        return cls({datum.zero: 1})

    def items(self):
        return sorted(self.terms.items())

    def coefficient(self, w: Weight) -> int:
        return self.terms.get(w, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def total(self) -> int:
        """Sum of all coefficients (the dimension, for a character)."""
        return sum(self.terms.values())

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            new = out.get(w, 0) + c
            if new:
                out[w] = new
            else:
                out.pop(w, None)
        return GroupAlgebraElement(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        return GroupAlgebraElement({w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        out: dict[Weight, int] = {}
        for v, a in self.terms.items():
            for w, b in other.terms.items():
                key = w_add(v, w)
                new = out.get(key, 0) + a * b
                if new:
                    out[key] = new
                else:
                    del out[key]
        return GroupAlgebraElement(out)

    def __eq__(self, other):
        return isinstance(other, GroupAlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.items():
            coeff = "" if c == 1 else "-" if c == -1 else f"{c}*"
            bits.append(f"{coeff}e{weight_str(w)}")
        return " + ".join(bits).replace("+ -", "- ")


def e(w: Weight, coeff: int = 1) -> GroupAlgebraElement:
    """The basis element coeff * e^w."""
    return GroupAlgebraElement({tuple(w): coeff})


def demazure_pi(datum: RootDatum, i: int, f: GroupAlgebraElement) -> GroupAlgebraElement:
    out: dict[Weight, int] = {}

    def accumulate(w: Weight, c: int):
        new = out.get(w, 0) + c
        if new:
            out[w] = new
        else:
            del out[w]

    alpha = datum.alphas[i]
    for w, c in f.terms.items():
        m = datum.pairing(i, w)
        if m >= 0:
            cur = w
            for _ in range(m + 1):
                accumulate(cur, c)
                cur = w_sub(cur, alpha)
        elif m <= -2:
            cur = w_add(w, alpha)
            for _ in range(-m - 1):
                accumulate(cur, -c)
                cur = w_add(cur, alpha)
    return GroupAlgebraElement(out)


def apply_word(datum: RootDatum, word, f: GroupAlgebraElement) -> GroupAlgebraElement:
    """pi_{word[0]} pi_{word[1]} ... pi_{word[-1]} applied to f (the last
    letter acts first, as in a composition read left to right)."""
    for i in reversed(tuple(word)):
        f = demazure_pi(datum, i, f)
    return f


def pi_longest(datum: RootDatum, f: GroupAlgebraElement, check: bool = True) -> GroupAlgebraElement:
    """Apply pi_{w_o}; optionally assert the result is Weyl-invariant."""
    out = apply_word(datum, datum.longest_word, f)
    if check:
        for i in datum.vertices:
            for w, c in out.terms.items():
                if out.coefficient(datum.reflect(i, w)) != c:
                    raise AssertionError("pi_{w_o} image is not Weyl-invariant")
    return out


def irreducible_character(datum: RootDatum, w: Weight) -> GroupAlgebraElement:
    """ch V(w) for dominant w, via the Demazure character formula at w_o."""
    w = tuple(w)
    if not datum.is_dominant(w):
        raise ValueError(f"{w} is not dominant")
    cached = datum._irr_cache.get(w)
    if cached is None:
        cached = apply_word(datum, datum.longest_word, e(w))
        assert cached.coefficient(w) == 1
        datum._irr_cache[w] = cached
    return cached


def demazure_character(datum: RootDatum, mu: Weight) -> GroupAlgebraElement:
    """The key polynomial ch D(mu): lowest term e^mu, all others above it
    in the positive-root order."""
    mu = tuple(mu)
    dom, word = datum.dominant_representative(mu)
    out = apply_word(datum, word, e(dom))
    assert out.coefficient(mu) == 1
    return out


class DecompositionError(ValueError):
    """The element is not the expected nonnegative combination."""


def weyl_decompose(datum: RootDatum, f: GroupAlgebraElement) -> dict[Weight, int]:
    """Write f as a sum of irreducible characters.

    Repeatedly subtracts c * ch V(mu) at a dominant term mu of greatest
    height, hence maximal in the positive-root order.
    Raises DecompositionError when f is not a nonnegative integral
    combination.
    """
    rem = GroupAlgebraElement(dict(f.terms))
    out: dict[Weight, int] = {}
    while not rem.is_zero():
        dominant = [w for w in rem.terms if datum.is_dominant(w)]
        if not dominant:
            raise DecompositionError(
                f"not a nonnegative integral combination: residue {rem!r}")
        mu = max(dominant, key=lambda w: (datum.height(w), w))
        c = rem.coefficient(mu)
        if c < 0:
            raise DecompositionError(
                f"not a nonnegative integral combination: coefficient {c} at {mu}")
        rem = rem - c * irreducible_character(datum, mu)
        out[mu] = out.get(mu, 0) + c
    return out


def key_decompose(datum: RootDatum, f: GroupAlgebraElement) -> dict[Weight, int]:
    """Write f as a sum of Demazure characters (key polynomials).

    Repeatedly peels at a term of least height, hence minimal in the
    positive-root order.  For an element that is a nonnegative sum of key
    polynomials this terminates with the exact multiset of keys; otherwise
    DecompositionError is raised (negative coefficient, or the iteration
    guard trips).
    """
    rem = GroupAlgebraElement(dict(f.terms))
    out: dict[Weight, int] = {}
    guard = sum(abs(c) for c in f.terms.values()) + 10
    while not rem.is_zero():
        guard -= 1
        if guard < 0:
            raise DecompositionError("key decomposition did not terminate; "
                                     "input is not key-positive")
        mu = min(rem.terms, key=lambda w: (datum.height(w), w))
        c = rem.coefficient(mu)
        if c < 0:
            raise DecompositionError(f"negative key coefficient {c} at {mu}")
        rem = rem - c * demazure_character(datum, mu)
        out[mu] = out.get(mu, 0) + c
    return {w: c for w, c in out.items() if c}


def laurent_str(datum: RootDatum, f: GroupAlgebraElement) -> str:
    """Render a GL_n element as a Laurent polynomial in x_1..x_n
    (e^{eps_i} <-> x_i)."""
    if datum.kind != "GL":
        raise ValueError("Laurent rendering is a GL convention")
    if f.is_zero():
        return "0"
    bits = []
    for w, c in sorted(f.terms.items(), reverse=True):
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
