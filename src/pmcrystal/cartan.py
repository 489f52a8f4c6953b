"""Root data and Weyl-group combinatorics for simply-laced types and GL_n.

Weights are plain integer tuples.  For the semisimple kinds (A, D, E6, E7,
E8) a weight is stored in fundamental-weight coordinates, so that the
pairing <alpha_i^vee, w> is simply ``w[i-1]`` and dominance is a
nonnegativity check.  For GL the epsilon-basis of rank n is used instead:
``w = (w_1, ..., w_n)`` means ``w_1 eps_1 + ... + w_n eps_n``, the pairing
is ``w[i-1] - w[i]`` and dominance means weakly decreasing.

Every vertex set is 1-based.  The two-colouring ("parity") of the Dynkin
diagram is fixed once per kind: for A and GL, ``parity(i) = i mod 2``; for
D and E, the parity of a vertex is its graph distance from vertex 1, mod 2.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from . import limits

Weight = tuple[int, ...]

KINDS = ("A", "D", "E6", "E7", "E8", "GL")


def w_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def w_sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def w_scale(k: int, a: Weight) -> Weight:
    return tuple(k * x for x in a)


def add_into(out: dict, c: int, terms: dict) -> None:
    """out += c * terms for sparse integer vectors, in place, dropping the
    entries that cancel."""
    for k, v in terms.items():
        new = out.get(k, 0) + c * v
        if new:
            out[k] = new
        else:
            del out[k]


def weight_str(w: Weight) -> str:
    return "(" + ",".join(str(x) for x in w) + ")"


def _edge_list(kind: str, rank: int) -> list[tuple[int, int]]:
    if kind == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if kind == "GL":
        return [(i, i + 1) for i in range(1, rank - 1)]
    if kind == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    # E6, E7, E8: RootDatum.__init__ has refused every other kind
    chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
    return [(a, b) for a, b in zip(chain, chain[1:])] + [(2, 4)]


class RootDatum:
    """A based root datum with its structure precomputed at construction.

    ``rank`` is the length of every weight, for every kind: the number of
    Dynkin vertices for A, D and E, and n for GL_n, whose diagram has the
    n - 1 ``vertices`` of A_{n-1}.

    Instances are shared via the bounded lru_cache on
    :func:`build_root_datum`; a datum holds no cache.
    """

    def __init__(self, kind: str, rank: int):
        if kind not in KINDS:
            raise ValueError(f"unknown Cartan kind {kind!r}; expected one of {KINDS}")
        if kind == "A" and rank < 1:
            raise ValueError("type A needs rank >= 1")
        if kind == "GL" and rank < 1:
            raise ValueError("GL needs rank >= 1")
        if kind == "D" and rank < 4:
            raise ValueError("type D needs rank >= 4")
        if kind in ("E6", "E7", "E8") and rank != int(kind[1]):
            raise ValueError(f"type {kind} has fixed rank {kind[1]}")
        if rank > limits.MAX_RANK:
            raise ValueError(f"rank {rank} exceeds the ceiling MAX_RANK = {limits.MAX_RANK}")

        self.kind = kind
        self.rank = rank
        self.vertices: tuple[int, ...] = tuple(range(1, rank if kind == "GL" else rank + 1))

        edges = _edge_list(kind, rank)
        nbrs: dict[int, list[int]] = {i: [] for i in self.vertices}
        for a, b in edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self.neighbours: dict[int, tuple[int, ...]] = {
            i: tuple(sorted(v)) for i, v in nbrs.items()
        }

        self.dist = self._all_distances()
        if kind in ("A", "GL"):
            self.parity: dict[int, int] = {i: i % 2 for i in self.vertices}
        else:
            self.parity = {i: self.dist[1, i] % 2 for i in self.vertices}
        if any(self.parity[a] == self.parity[b] for a, b in edges):
            raise AssertionError("two-colouring failed")

        if kind == "GL":
            n = rank
            self.alphas = {
                i: tuple(1 if j == i - 1 else -1 if j == i else 0 for j in range(n))
                for i in self.vertices
            }
            self.fundamentals = {
                i: tuple(1 if j < i else 0 for j in range(n)) for i in self.vertices
            }
            self.rho: Weight = tuple(range(n - 1, -1, -1))
        else:
            self.alphas = {
                i: tuple(self._cartan_entry(j, i) for j in self.vertices)
                for i in self.vertices
            }
            self.fundamentals = {
                i: tuple(1 if j == i else 0 for j in self.vertices)
                for i in self.vertices
            }
            self.rho = (1,) * rank

        self.zero: Weight = (0,) * rank
        # -sum_i i w_i is strictly antidominant: its ascent to the dominant
        # chamber is reduced of length #positive-roots, a word for w_o, and
        # ends at sum_i i w_{i*} (-w_o w_i = w_{i*}), which pairs to j* with
        # alpha_j^vee
        low = tuple(-sum(i * w[k] for i, w in self.fundamentals.items()) for k in range(rank))
        top, self.longest_word = self.dominant_representative(low)
        self.dual: dict[int, int] = {j: self.pairing(j, top) for j in self.vertices}
        self.positive_roots = self._close_positive_roots()
        if len(self.positive_roots) != len(self.longest_word):
            raise AssertionError("longest word and positive roots differ in length")
        # height(w) = <w, _height>: rho for GL (alpha_i has height 1), else
        # the simple-root coordinates of 2 rho (alpha_i has height 2)
        self._height = self.rho if kind == "GL" else tuple(
            map(sum, zip(*(c for c, _ in self.positive_roots))))

    # -- basic structure ---------------------------------------------------

    def _cartan_entry(self, i: int, j: int) -> int:
        if i == j:
            return 2
        return -1 if j in self.neighbours[i] else 0

    def _all_distances(self) -> dict[tuple[int, int], int]:
        dist: dict[tuple[int, int], int] = {}
        for src in self.vertices:
            seen = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in self.neighbours[v]:
                        if u not in seen:
                            seen[u] = seen[v] + 1
                            nxt.append(u)
                frontier = nxt
            if len(seen) != len(self.vertices) and self.vertices:
                raise ValueError("Dynkin diagram must be connected")
            for v, d in seen.items():
                dist[src, v] = d
        return dist

    def __repr__(self):
        return f"RootDatum({self.kind}, {self.rank})"

    # -- pairings and reflections ------------------------------------------

    def pairing(self, i: int, w: Weight) -> int:
        """<alpha_i^vee, w>."""
        if i not in self.neighbours:
            raise ValueError(f"vertex {i} not in diagram")
        if self.kind == "GL":
            return w[i - 1] - w[i]
        return w[i - 1]

    def reflect(self, i: int, w: Weight) -> Weight:
        """s_i(w) = w - <alpha_i^vee, w> alpha_i."""
        return w_sub(w, w_scale(self.pairing(i, w), self.alphas[i]))

    def is_dominant(self, w: Weight) -> bool:
        return all(self.pairing(i, w) >= 0 for i in self.vertices)

    def height(self, w: Weight) -> int:
        """A linear functional positive on every simple root, so that v > w
        in the positive-root order implies height(v) > height(w)."""
        return sum(h * x for h, x in zip(self._height, w))

    # -- Weyl group ---------------------------------------------------------

    def dominant_representative(self, w: Weight) -> tuple[Weight, tuple[int, ...]]:
        """Return (w+, word) with w+ dominant and
        w = s_{word[0]} s_{word[1]} ... s_{word[-1]} (w+).

        Greedy ascent: repeatedly reflect at the smallest vertex pairing
        negatively.  Each step strictly increases w in the positive-root
        order, so the word has minimal length.
        """
        word = []
        cur = w
        while True:
            for i in self.vertices:
                if self.pairing(i, cur) < 0:
                    cur = self.reflect(i, cur)
                    word.append(i)
                    break
            else:
                return cur, tuple(word)

    def _close_positive_roots(self) -> tuple[tuple[tuple[int, ...], Weight], ...]:
        """All positive roots as (simple-root coordinates, weight vector),
        sorted, found by adding simple roots one at a time.

        Every kind here is simply laced (GL on the A_{n-1} diagram), so all
        roots have one length and <alpha_i^vee, beta> lies in {-1, 0, 1} for
        a positive root beta != alpha_i.  The alpha_i-string through beta,
        beta - r alpha_i, ..., beta + q alpha_i, has r - q = <alpha_i^vee,
        beta> and at most two roots, so beta + alpha_i is a root exactly when
        <alpha_i^vee, beta> = -1.  Every positive root is reached from a
        simple root by such steps (Humphreys, *Introduction to Lie Algebras
        and Representation Theory*, section 10.2, Corollary to Lemma A), so
        closing the simple roots under them finds every positive root and no
        other vector."""
        m = len(self.vertices)
        roots: dict[tuple[int, ...], Weight] = {}
        for idx, i in enumerate(self.vertices):
            roots[(0,) * idx + (1,) + (0,) * (m - idx - 1)] = self.alphas[i]
        frontier = list(roots)
        while frontier:
            nxt = []
            for coords in frontier:
                root = roots[coords]
                for idx, i in enumerate(self.vertices):
                    if self.pairing(i, root) == -1:
                        up = coords[:idx] + (coords[idx] + 1,) + coords[idx + 1:]
                        if up not in roots:
                            roots[up] = w_add(root, self.alphas[i])
                            nxt.append(up)
            frontier = nxt
        return tuple(sorted(roots.items()))

    def weyl_dimension(self, w: Weight) -> int:
        """Weyl dimension formula; an oracle independent of any character
        computation."""
        if not self.is_dominant(w):
            raise ValueError(f"{w} is not dominant")
        # the product over positive roots alpha of (w + rho, alpha) / (rho, alpha),
        # in alpha's simple-root coordinates c: sum_i c_i <a_i^vee, w + rho> over
        # sum_i c_i, as rho pairs to 1 with every simple coroot
        shifted = [self.pairing(i, w_add(w, self.rho)) for i in self.vertices]
        num = den = 1
        for coords, _root in self.positive_roots:
            num *= sum(map(mul, coords, shifted))
            den *= sum(coords)
        dim, rest = divmod(num, den)
        if rest:
            raise AssertionError(f"Weyl dimension of {w} is not an integer")
        return dim


def build_root_datum(kind: str, rank: int) -> RootDatum:
    """Construct (and cache) the root datum for the given kind and rank.

    ``rank`` counts Dynkin vertices for the semisimple kinds and the size n
    for GL_n (so GL_n has n-1 vertices).  A rank above ``limits.MAX_RANK``
    skips the cache, so ``RootDatum`` refuses it even if it was cached under
    a higher limit.
    """
    if rank > limits.MAX_RANK:
        return RootDatum(kind, rank)
    return _cached_root_datum(kind, rank)


@lru_cache(maxsize=limits.ROOT_DATA_CACHED)
def _cached_root_datum(kind: str, rank: int) -> RootDatum:
    return RootDatum(kind, rank)
