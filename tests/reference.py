"""Test-only references: the verifiers of the paper's claims, and the crystal
queries they share over monomials and formal tensors.

The library's crystal core works on monomials alone and holds what the CLI
and the two decomposition routes run.  What only the tests need lives here:

- generic crystal queries (``wt_of``, ``eps_of``, ``phi_of``, ``e_of``,
  ``f_of``, ``sort_key``, ``element_label``) over ``Monomial`` and
  ``TensorElement``, and Kashiwara's tensor rule, so that M(R+Q, J) can be
  embedded in {b_mu} (x) M(R, J);
- ``ref_graph_over``, the one-pass crystal graph of a closed set, which is
  also the tensor product ``tensor_crystal``, and ``edge_triples``, which
  reads a graph's positional f-edges back as elements;
- ``r_support``, the paper's definition of M(R, J) by S-labels, the
  oracle for ``truncation.truncate``'s filter by support, ``with_point``,
  a threshold set with one column moved, and ``down_closure``, down(X) as
  a ``DownwardSet`` of per-column ceilings, as ``build_plan`` reads it;
- truncations are Demazure crystals: ``extend_strings``,
  ``string_property``, ``demazure_crystal``, ``replay_plan`` (the set
  semantics of a build plan) and ``check_crystal_axioms``;
- ``ref_positive_roots``, the positive roots closed under all reflections,
  and ``diagram_dual``, the involution i -> i* read off the Dynkin diagram;
- ``dominant_multiplicities``, the checked entry to the Freudenthal tables
  of the Weyl peel;
- the key polynomials ``demazure_character`` and ``key_decompose``;
- the type-A correspondence between partition sequences, diagrams and
  (R, J) pairs, and the psi embeddings of the stability argument;
- the Schur route ``weightring.straighten`` replaced: ``schur_char``
  builds pi_{w_o} of the flagged character and ``ref_schur_decompose``
  peels it; ``ref_schur_at_rank`` straightens it in GL_n, as the library
  did before it straightened in GL_r alone;
- ``ref_sequence_of_diagram``, the convexifying search that relabels the
  boxes and re-reads the columns for every row order;
- monomial helpers: ``z_monomial``, ``mono_pow``, ``mono_div``,
  ``monomial_from_json`` and ``validate_monomial``;
- the fundamental crystals by the ``Monomial`` closure,
  ``fundamental_crystal``, the oracle of ``product.fundamental_keys``; and
  ``codec_of``/``fold_monomials``, a codec over the union of the supports
  of any monomial sets and their fold, as the library packed its factors
  before its window came from R; and ``ref_step``, the step of one packed
  column from its decoded entries, the oracle of ``MonomialCodec.step``,
  which reads the digits and which the codec memoises for the packed
  passes.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass

from pmcrystal import limits, weightring
from pmcrystal.cartan import (RootDatum, Weight, add_into, build_root_datum, w_add, w_scale,
                              weight_str)
from pmcrystal.crystal import CrystalGraph, closure
from pmcrystal.monomial import (LatticePoint, Monomial, MonomialCodec, column_stats, e_op,
                                f_op, make_monomial, mono_mul, one, require_lattice_point,
                                y_monomial, z_exponents)
from pmcrystal.product import (PointMultiset, expand_label, fold, multiset, s_label,
                               validate_points, y_of_multiset)
from pmcrystal.truncation import BuildPlan, ThresholdSet
from pmcrystal.typea import (Box, Partition, check_diagram, check_sequence, conjugate,
                             flagged_schur_char, min_rank, weight_partition)
from pmcrystal.weightring import DecompositionError, GroupAlgebraElement, apply_word, e

# -- root data -----------------------------------------------------------------


def ref_positive_roots(datum: RootDatum) -> tuple[tuple[tuple[int, ...], Weight], ...]:
    """All positive roots as (simple-root coordinates, weight vector), sorted,
    computed by closing the simple roots under all reflections and keeping
    the roots with nonnegative coordinates: an independent check of the
    simple steps by which ``RootDatum`` builds them."""
    m = len(datum.vertices)
    seen: dict[Weight, tuple[int, ...]] = {}
    frontier = []
    for idx, i in enumerate(datum.vertices):
        seen[datum.alphas[i]] = tuple(1 if k == idx else 0 for k in range(m))
        frontier.append(datum.alphas[i])
    while frontier:
        nxt = []
        for root in frontier:
            coords = seen[root]
            for i in datum.vertices:
                refl = datum.reflect(i, root)
                if refl in seen:
                    continue
                pair = sum(c * datum.pairing(i, datum.alphas[j])
                           for c, j in zip(coords, datum.vertices))
                new_coords = list(coords)
                new_coords[i - 1] -= pair
                seen[refl] = tuple(new_coords)
                nxt.append(refl)
        frontier = nxt
    return tuple(sorted((coords, root) for root, coords in seen.items()
                        if all(c >= 0 for c in coords)))


def diagram_dual(kind, rank):
    """i -> i*, -w_o w_i = w_{i*}, read off the Dynkin diagram (Bourbaki,
    Lie groups, ch. VI, planches): A_n and GL_n flip the chain, D_n swaps
    its two short legs for odd n, E6 flips its long arm, and every other
    datum is fixed."""
    if kind == "A":
        return {i: rank + 1 - i for i in range(1, rank + 1)}
    if kind == "GL":
        return {i: rank - i for i in range(1, rank)}
    dual = {i: i for i in range(1, rank + 1)}
    if kind == "D" and rank % 2:
        dual[rank - 1], dual[rank] = rank, rank - 1
    if kind == "E6":
        dual.update({1: 6, 6: 1, 3: 5, 5: 3})
    return dual


# -- monomials -----------------------------------------------------------------


def monomial_from_json(data: dict) -> Monomial:
    exps = {(d["i"], d["c"]): d["e"] for d in data["exponents"]}
    return make_monomial(tuple(data["weight"]), exps)


def z_monomial(datum: RootDatum, i: int, k: int) -> Monomial:
    """z_{i,k} = e^{alpha_i} y_{i,k} y_{i,k+2} prod_{j ~ i} y_{j,k+1}^{-1}."""
    require_lattice_point(datum, i, k)
    return make_monomial(datum.alphas[i], z_exponents(datum, i, k))


def mono_pow(a: Monomial, k: int) -> Monomial:
    if k == 0:
        return Monomial((0,) * len(a.weight), ())
    return Monomial(w_scale(k, a.weight),
                    tuple((pt, k * ex) for pt, ex in a.exponents))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return mono_mul(a, mono_pow(b, -1))


def validate_monomial(datum: RootDatum, p: Monomial) -> None:
    """Check the two membership conditions of the monomial crystal."""
    for (i, c), _ in p.exponents:
        require_lattice_point(datum, i, c)
    for i in datum.vertices:
        col = sum(ex for (pi, _), ex in p.exponents if pi == i)
        if datum.pairing(i, p.weight) != col:
            raise ValueError(
                f"weight/exponent mismatch in column {i}: "
                f"<a_{i}^v, wt> = {datum.pairing(i, p.weight)} but column sums to {col}")


def fundamental_crystal(datum: RootDatum, i: int, c: int, n: int) -> CrystalGraph:
    """M(i,c)^n: the ``crystal.closure`` of the highest-weight monomial
    y_{i,c}^n, a copy of B(n w_i).  Past ``limits.MAX_ELEMENTS`` elements
    it raises the closure's ``limits.LimitExceeded`` (stage
    ``crystal.closure``) before the closure runs, ``reached`` being the
    exact dim V(n w_i)."""
    top = y_monomial(datum, i, c, n)
    limit = limits.MAX_ELEMENTS
    size = datum.weyl_dimension(w_scale(n, datum.fundamentals[i]))
    if size > limit:
        raise limits.LimitExceeded("crystal.closure", limit, size,
                                   f"closure exceeded limit {limit}")
    return closure(datum, [top])


def codec_of(datum: RootDatum, factors) -> MonomialCodec:
    """The codec of the products of the monomial sets ``factors``: its
    window is the union of their supports, its bound the larger of the sums
    over the factors of their largest |exponent| and of their largest
    |weight coordinate|."""
    window = {pt for f in factors for p in f for pt, _ in p.exponents}
    for i, c in window:
        require_lattice_point(datum, i, c)
    return MonomialCodec(datum, window, max(
        sum(max((abs(ex) for p in f for _, ex in p.exponents), default=0) for f in factors),
        sum(max((abs(w) for p in f for w in p.weight), default=0) for f in factors)))


def fold_monomials(datum: RootDatum, factors) -> tuple[MonomialCodec, set[int]]:
    """``product.fold`` of the monomial sets ``factors``, in ``codec_of``
    them: the codec and the keys of the products."""
    codec = codec_of(datum, factors)
    return codec, fold(codec, [[codec.zero + codec.offset(p) for p in f] for f in factors])



def ref_step(codec: MonomialCodec, i: int, col: int) -> tuple:
    """``codec.step(i, col)`` from the decoded entries of the packed
    column ``col`` of vertex i (``codec._column``): their ``column_stats``
    phi_i, eps_i and F_i, the f-delta ``f_delta`` at F_i - 2, the gap and
    the largest |exponent|.  The codec owns the step and its memo, one
    dict per vertex for its computation; this oracle neither reads nor
    fills that memo."""
    entries = codec._column(i, col)
    phi, eps, best_f, _ = column_stats(Monomial(codec.datum.zero, entries), i)
    return (phi, codec.f_delta(i, best_f - 2) if phi else None,
            eps, (phi > 0) - (eps > 0), max((abs(ex) for _, ex in entries), default=0))

# -- crystal queries over monomials and formal tensors -------------------------


@dataclass(frozen=True)
class TensorElement:
    """A formal tensor b1 (x) b2 of crystal elements, with the tensor-rule
    statistics computed on demand."""

    left: object
    right: object


def wt_of(datum: RootDatum, x) -> Weight:
    if isinstance(x, Monomial):
        return x.weight
    return w_add(wt_of(datum, x.left), wt_of(datum, x.right))


def eps_of(datum: RootDatum, x, i: int) -> int:
    if isinstance(x, Monomial):
        return column_stats(x, i)[1]
    return max(eps_of(datum, x.left, i),
               eps_of(datum, x.right, i) - datum.pairing(i, wt_of(datum, x.left)))


def phi_of(datum: RootDatum, x, i: int) -> int:
    if isinstance(x, Monomial):
        return column_stats(x, i)[0]
    return max(phi_of(datum, x.right, i),
               phi_of(datum, x.left, i) + datum.pairing(i, wt_of(datum, x.right)))


def e_of(datum: RootDatum, x, i: int):
    if isinstance(x, Monomial):
        return e_op(datum, x, i)
    if phi_of(datum, x.left, i) >= eps_of(datum, x.right, i):
        lifted = e_of(datum, x.left, i)
        return None if lifted is None else TensorElement(lifted, x.right)
    lifted = e_of(datum, x.right, i)
    return None if lifted is None else TensorElement(x.left, lifted)


def f_of(datum: RootDatum, x, i: int):
    if isinstance(x, Monomial):
        return f_op(datum, x, i)
    if phi_of(datum, x.left, i) > eps_of(datum, x.right, i):
        lowered = f_of(datum, x.left, i)
        return None if lowered is None else TensorElement(lowered, x.right)
    lowered = f_of(datum, x.right, i)
    return None if lowered is None else TensorElement(x.left, lowered)


def sort_key(x):
    if isinstance(x, Monomial):
        return (0, x.weight, x.exponents)
    return (1, sort_key(x.left), sort_key(x.right))


def element_label(x) -> str:
    if isinstance(x, Monomial):
        return "1" if x.is_one() else str(x)
    return f"{element_label(x.left)} (x) {element_label(x.right)}"


def edge_triples(graph: CrystalGraph) -> tuple:
    """The f-edges of ``graph`` as (x, i, y) with f_i(x) = y, in edge order."""
    elems = graph.elements
    return tuple((elems[k], i, elems[target]) for k, i, target in graph.f_edges)


def ref_graph_over(datum: RootDatum, elements) -> CrystalGraph:
    """The crystal graph on an e/f-closed set through the generic crystal
    queries, one pass in sort_key order: the reference ``crystal.closure``
    must match on closed sets.  ValueError when the set is not closed."""
    elements = set(elements)
    elems = tuple(sorted(elements, key=sort_key))
    at = {x: k for k, x in enumerate(elems)}
    edges = []
    highest = []
    for x in elems:
        top = True
        for i in datum.vertices:
            down = f_of(datum, x, i)
            if down is not None:
                if down not in elements:
                    raise ValueError("element set is not closed under f")
                edges.append((at[x], i, at[down]))
            up = e_of(datum, x, i)
            if up is not None:
                top = False
                if up not in elements:
                    raise ValueError("element set is not closed under e")
        if top:
            highest.append(x)
    return CrystalGraph(datum, elems, tuple(edges), tuple(highest))


def tensor_crystal(datum: RootDatum, a: CrystalGraph, b: CrystalGraph) -> CrystalGraph:
    """The tensor product crystal on all pairs of elements of two closed
    graphs; the pair set is closed, which ``ref_graph_over`` checks."""
    return ref_graph_over(datum, [TensorElement(x, y) for x in a.elements for y in b.elements])


def character_of_set(datum: RootDatum, xs) -> GroupAlgebraElement:
    out: dict[Weight, int] = {}
    for x in xs:
        w = wt_of(datum, x)
        out[w] = out.get(w, 0) + 1
    return GroupAlgebraElement(out)


def check_crystal_axioms(graph: CrystalGraph) -> None:
    """Verify the upper-seminormal axioms plus seminormality exhaustively.

    Checks, for every element b and vertex i:
      1. phi_i(b) = eps_i(b) + <alpha_i^vee, wt b>;
      2. e_i(b) = b' iff f_i(b') = b;
      3. wt(e_i b) = wt(b) + alpha_i;
      4. eps_i(b) counts the e_i-steps to the top of the string, and
         phi_i(b) the f_i-steps to the bottom.
    """
    datum = graph.datum
    elems = set(graph.elements)
    for x in graph.elements:
        for i in datum.vertices:
            eps = eps_of(datum, x, i)
            phi = phi_of(datum, x, i)
            if phi != eps + datum.pairing(i, wt_of(datum, x)):
                raise AssertionError(f"phi != eps + pairing at {x}, i={i}")
            up = e_of(datum, x, i)
            if up is not None:
                if up not in elems:
                    raise AssertionError(f"e_{i} leaves the crystal at {x}")
                if f_of(datum, up, i) != x:
                    raise AssertionError(f"f_{i}(e_{i}(x)) != x at {x}")
                if wt_of(datum, up) != w_add(wt_of(datum, x), datum.alphas[i]):
                    raise AssertionError(f"wt(e_{i} x) != wt(x) + alpha at {x}")
            down = f_of(datum, x, i)
            if down is not None:
                if down not in elems:
                    raise AssertionError(f"f_{i} leaves the crystal at {x}")
                if e_of(datum, down, i) != x:
                    raise AssertionError(f"e_{i}(f_{i}(x)) != x at {x}")
            steps_up = 0
            cur = x
            while (nxt := e_of(datum, cur, i)) is not None:
                cur = nxt
                steps_up += 1
            if steps_up != eps:
                raise AssertionError(f"eps_{i} does not count e-steps at {x}")
            steps_down = 0
            cur = x
            while (nxt := f_of(datum, cur, i)) is not None:
                cur = nxt
                steps_down += 1
            if steps_down != phi:
                raise AssertionError(f"phi_{i} does not count f-steps at {x}")


# -- Demazure crystals and the string property --------------------------------


def extend_strings(datum: RootDatum, i: int, xs) -> frozenset:
    """D_i: close a subset under the lowering operator f_i."""
    out = set(xs)
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            down = f_of(datum, x, i)
            if down is not None and down not in out:
                out.add(down)
                nxt.append(down)
        frontier = nxt
    return frozenset(out)


def string_property(datum: RootDatum, xs, ambient: CrystalGraph):
    """Check Kashiwara's string property of ``xs`` inside ``ambient``.

    Returns (True, None) or (False, (i, string)) where ``string`` is an
    offending i-root string listed from its top element downward.
    """
    xs = set(xs)
    for i in datum.vertices:
        tops = set()
        for x in ambient.elements:
            cur = x
            while True:
                up = e_of(datum, cur, i)
                if up is None:
                    break
                cur = up
            tops.add(cur)
        for top in sorted(tops, key=sort_key):
            string = [top]
            cur = top
            while True:
                down = f_of(datum, cur, i)
                if down is None:
                    break
                string.append(down)
                cur = down
            inside = [x in xs for x in string]
            if not any(inside):
                continue
            if all(inside):
                continue
            if inside[0] and not any(inside[1:]):
                continue
            return False, (i, tuple(string))
    return True, None


def highest_weight_monomial(datum: RootDatum, lam: Weight, baseline: int = 0) -> Monomial:
    """Realise b_lambda as the monomial prod_i y_{i,c_i}^{<a_i^v,lam>} with
    each c_i the parity-matched value nearest ``baseline``."""
    if not datum.is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    exps = {}
    for i in datum.vertices:
        m = datum.pairing(i, lam)
        if m:
            c = baseline + ((datum.parity[i] - baseline) % 2)
            exps[(i, c)] = m
    return make_monomial(lam, exps)


def demazure_crystal(datum: RootDatum, lam: Weight, word, baseline: int = 0) -> frozenset:
    """B_w(lambda) = D_{word[0]} ... D_{word[-1]} {b_lambda} (last letter
    acts first)."""
    xs = frozenset([highest_weight_monomial(datum, lam, baseline)])
    for i in reversed(tuple(word)):
        xs = extend_strings(datum, i, xs)
    return xs


def r_support(datum: RootDatum, r: PointMultiset, p: Monomial) -> frozenset[LatticePoint]:
    """Supp_R(p) = Supp R united with the support of p's S-label: the
    paper's condition for p to lie in M(R, J) is that J holds it."""
    s = s_label(datum, r, p)
    return frozenset(r.support()) | frozenset(s.support())


def with_point(j: ThresholdSet, i: int, k: int) -> ThresholdSet:
    """J with column i starting at k."""
    return ThresholdSet(j.thresholds[:i - 1] + (k,) + j.thresholds[i:])


class DownwardSet(namedtuple("DownwardSet", "ceilings")):
    """The downward-closed analogue of ``ThresholdSet``: column i holds the
    points at or below ceilings[i-1] (None meaning the column is empty)."""

    __slots__ = ()

    def contains(self, i: int, c: int) -> bool:
        t = self.ceilings[i - 1]
        return t is not None and c <= t


def down_closure(datum: RootDatum, points) -> DownwardSet:
    """down(X): ceilings delta_j = max over (i,c) in X of c - d(i,j)."""
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


# -- dominant multiplicities ----------------------------------------------------


def dominant_multiplicities(datum: RootDatum, w: Weight) -> dict[Weight, int]:
    """The dominant part of ch V(w), w dominant: mu -> dim V(w)_mu for
    every dominant weight mu of V(w), from the Freudenthal tables the Weyl
    peel reads (``weightring._dominant_table``).  LimitExceeded past
    ``limits.MAX_TERMS`` dominant weights, read at call time."""
    w = tuple(w)
    if len(w) != datum.rank or not datum.is_dominant(w):
        raise ValueError(f"{w} is not a dominant weight of {datum!r}")
    limit = limits.MAX_TERMS
    table = weightring._dominant_table(datum, w, limit)
    if table is None:
        raise limits.LimitExceeded("weightring.dominant_multiplicities", limit, limit + 1)
    n = datum.rank
    return {weightring._decode(k, n): c for k, c in table.items()}


# -- key polynomials ------------------------------------------------------------


def demazure_character(datum: RootDatum, mu: Weight) -> GroupAlgebraElement:
    """The key polynomial ch D(mu): lowest term e^mu, all others above it
    in the positive-root order."""
    mu = tuple(mu)
    dom, word = datum.dominant_representative(mu)
    out = apply_word(datum, word, e(dom))
    if out.coefficient(mu) != 1:
        raise AssertionError(f"ch D{weight_str(mu)} has no simple bottom term")
    return out


def key_decompose(datum: RootDatum, f: GroupAlgebraElement) -> dict[Weight, int]:
    """Write f as a sum of Demazure characters (key polynomials).

    Repeatedly peels at a term of least height, hence minimal in the
    positive-root order (Demazure characters have lowest term e^mu with
    coefficient one).  For an element that is a nonnegative sum of key
    polynomials this terminates with the exact multiset of keys; otherwise
    DecompositionError is raised (negative coefficient, or the iteration
    guard trips).
    """
    rem = f.terms
    out: dict[Weight, int] = {}
    guard = sum(abs(c) for c in rem.values()) + 10
    while rem:
        guard -= 1
        if guard < 0:
            raise DecompositionError("key decomposition did not terminate; "
                                     "input is not key-positive")
        mu = min(rem, key=lambda w: (datum.height(w), w))
        c = rem[mu]
        if c < 0:
            raise DecompositionError(f"negative key coefficient {c} at {mu}")
        add_into(rem, -c, demazure_character(datum, mu).terms)
        out[mu] = out.get(mu, 0) + c
    return {w: c for w, c in out.items() if c}


# -- type A: partition sequences, diagrams and (R, J) pairs --------------------


def schur_char(seq, n: int) -> GroupAlgebraElement:
    """pi_{w_o} of the flagged character: the full Schur module
    character; AssertionError unless it is W-invariant."""
    datum = build_root_datum("GL", n)
    ch = weightring.pi_longest(datum, flagged_schur_char(seq, n))
    weightring._assert_weyl_invariant(datum, ch)
    return ch


def ref_schur_decompose(seq, n: int) -> dict[Partition, int]:
    """The Schur module's GL_n decomposition by the Weyl peel of its full
    character, the route ``typea.schur_decompose`` straightens past."""
    datum = build_root_datum("GL", n)
    dec = weightring.weyl_decompose(datum, schur_char(seq, n))
    return {weight_partition(w): m for w, m in dec.items()}


def ref_schur_at_rank(seq, n: int) -> dict[Partition, int]:
    """The Schur module's GL_n decomposition, its flagged character folded
    and straightened in GL_n itself."""
    datum = build_root_datum("GL", n)
    dec = weightring.straighten(datum, flagged_schur_char(seq, n))
    return {weight_partition(w): m for w, m in dec.items()}


def ref_columns(boxes) -> dict[int, list[int]]:
    """Each column of a diagram: its rows, sorted."""
    cols: dict[int, list[int]] = {}
    for r, c in boxes:
        cols.setdefault(c, []).append(r)
    return {c: sorted(rs) for c, rs in cols.items()}


def ref_is_column_convex(boxes) -> bool:
    """Every column of the diagram is an interval of rows."""
    return all(rs[-1] - rs[0] + 1 == len(rs) for rs in ref_columns(boxes).values())


def ref_sequence_of_diagram(boxes) -> tuple[Partition, ...]:
    """``typea.sequence_of_diagram`` by the search it replaced: for every
    row order, in lexicographic order of the images of the sorted rows,
    relabel the boxes and read their columns afresh."""
    boxes = check_diagram(boxes)
    if not boxes:
        return ()
    if not ref_is_column_convex(boxes):
        rows = sorted({r for r, _ in boxes})
        if len(rows) > limits.CONVEXIFY_MAX_ROWS:
            raise ValueError("diagram has gapped columns and too many rows "
                             "to search for a convexifying row order")
        for perm in itertools.permutations(range(1, len(rows) + 1)):
            relabel = dict(zip(rows, perm))
            moved = frozenset((relabel[r], c) for (r, c) in boxes)
            if ref_is_column_convex(moved):
                boxes = moved
                break
        else:
            raise ValueError("no row order makes this diagram column-convex")
    cols = ref_columns(boxes)
    r = max(rs[-1] for rs in cols.values())
    lengths_at: dict[int, list[int]] = {}
    for rs in cols.values():
        step = r - rs[0] + 1
        lengths_at.setdefault(step, []).append(len(rs))
    seq = []
    for i in range(1, r + 1):
        seq.append(conjugate(tuple(sorted(lengths_at.get(i, []), reverse=True))))
    return check_sequence(seq)


def diagram_of_sequence(seq) -> frozenset[Box]:
    """Shift the running diagram down one row, then adjoin the Young
    diagram of the next partition on fresh columns, longest row on row 1."""
    seq = check_sequence(seq)
    boxes: set[Box] = set()
    for p in seq:
        boxes = {(r + 1, c) for (r, c) in boxes}
        base = max((c for (_, c) in boxes), default=0)
        for r, parts in enumerate(p, start=1):
            for c in range(1, parts + 1):
                boxes.add((r, base + c))
    return frozenset(boxes)


def column_mults(p: Partition) -> dict[int, int]:
    """Number of columns of each length: length j occurs p_j - p_{j+1}
    times."""
    out = {}
    for j in range(1, len(p) + 1):
        nxt = p[j] if j < len(p) else 0
        if p[j - 1] - nxt:
            out[j] = p[j - 1] - nxt
    return out


def sequence_strips(seq) -> list[dict[int, int]]:
    """Per step i, the column multiplicities of l^(i): vertex j carries
    multiplicity (#columns of length j), living at grid point (j, j-2i)."""
    seq = check_sequence(seq)
    return [column_mults(p) for p in seq]


def multiset_of_sequence(seq, n: int | None = None) -> tuple[PointMultiset, ThresholdSet, int]:
    """The (R, J) pair of a partition sequence, over GL_n.

    J's column-j threshold after all r steps is j - 2r (the union of
    strips), with column 1 of the i-th strip at height 1 - 2i.  Returns
    (R, J, n) where n defaults to the smallest rank whose vertex set
    carries both R and J's finite columns.
    """
    seq = check_sequence(seq)
    r = len(seq)
    mult: dict[tuple[int, int], int] = {}
    for i, strip in enumerate(sequence_strips(seq), start=1):
        for j, m in strip.items():
            pt = (j, j - 2 * i)
            mult[pt] = mult.get(pt, 0) + m
    rr = multiset(mult)
    min_n = max(r, rr.max_vertex() + 1, 1)
    if n is None:
        n = min_n
    elif n < min_n:
        raise ValueError(f"rank {n} too small; sequence needs GL_{min_n}")
    thresholds = tuple(min(2 - j, j - 2 * r) for j in range(1, n))
    return rr, ThresholdSet(thresholds), n


def sequence_of_multiset(rr: PointMultiset) -> tuple[Partition, ...]:
    """Read a partition sequence back off a multiset, after the even
    vertical shift placing every point (j, c) at or below c = -j.  A
    multiset that ``validate_points`` refuses on the smallest GL rank
    carrying it raises its ValueError."""
    if rr.is_empty():
        return ()
    validate_points(build_root_datum("GL", min_rank(rr)), rr)
    shift = 0
    for (j, c), _ in rr.points:
        over = c + j
        if over > shift:
            shift = over + (over % 2)
    shifted = rr.shifted(-shift)
    strips: dict[int, dict[int, int]] = {}
    for (j, c), m in shifted.points:
        i = (j - c) // 2
        strips.setdefault(i, {})[j] = m
    r = max(strips)
    seq = []
    for i in range(1, r + 1):
        mults = strips.get(i, {})
        top = max(mults, default=0)
        parts = tuple(sum(m for j, m in mults.items() if j >= k)
                      for k in range(1, top + 1))
        seq.append(parts)
    return check_sequence(seq)


def psi_embed(datum_n: RootDatum, datum_m: RootDatum, rr: PointMultiset, p):
    """Send an element of M(GL_n, R) to M(GL_m, R) by preserving its
    S-label (n <= m)."""
    if datum_n.kind != "GL" or datum_m.kind != "GL":
        raise ValueError("psi embeddings are a GL construction")
    if datum_n.rank > datum_m.rank:
        raise ValueError("psi goes from smaller rank to larger")
    s = s_label(datum_n, rr, p)
    return expand_label(datum_m, rr, s)
