"""Test-only references: the verifiers of the paper's claims, and the crystal
queries they share over monomials and formal tensors.

The library's crystal core works on monomials alone and holds what the CLI
and the two decomposition routes run.  What only the tests need lives here:

- generic crystal queries (``wt_of``, ``eps_of``, ``phi_of``, ``e_of``,
  ``f_of``, ``sort_key``, ``element_label``) over ``Monomial`` and
  ``TensorElement``, and Kashiwara's tensor rule, so that M(R+Q, J) can be
  embedded in {b_mu} (x) M(R, J);
- ``ref_graph_over``, the one-pass crystal graph of a closed set, which is
  also the tensor product ``tensor_crystal``;
- truncations are Demazure crystals: ``extend_strings``,
  ``string_property``, ``demazure_crystal``, ``replay_plan`` (the set
  semantics of a build plan) and ``check_crystal_axioms``;
- the key polynomials ``demazure_character`` and ``key_decompose``;
- the type-A correspondence between partition sequences, diagrams and
  (R, J) pairs, and the psi embeddings of the stability argument;
- monomial helpers: ``z_monomial``, ``mono_pow``, ``mono_div``,
  ``monomial_from_json`` and ``validate_monomial``.
"""

from dataclasses import dataclass

from pmcrystal.cartan import RootDatum, Weight, add_into, w_add, w_scale, weight_str
from pmcrystal.crystal import CrystalGraph
from pmcrystal.monomial import (LatticePoint, Monomial, column_stats, e_op, f_op,
                                make_monomial, mono_mul, one, require_lattice_point,
                                z_exponents)
from pmcrystal.product import (PointMultiset, expand_label, multiset, s_label,
                               y_of_multiset)
from pmcrystal.truncation import BuildPlan, ThresholdSet
from pmcrystal.typea import Box, Partition, check_sequence
from pmcrystal.weightring import DecompositionError, GroupAlgebraElement, apply_word, e

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


def ref_graph_over(datum: RootDatum, elements) -> CrystalGraph:
    """The crystal graph on an e/f-closed set through the generic crystal
    queries, one pass in sort_key order: the reference ``crystal.closure``
    must match on closed sets.  ValueError when the set is not closed."""
    elements = set(elements)
    elems = tuple(sorted(elements, key=sort_key))
    edges = []
    highest = []
    for x in elems:
        top = True
        for i in datum.vertices:
            down = f_of(datum, x, i)
            if down is not None:
                if down not in elements:
                    raise ValueError("element set is not closed under f")
                edges.append((x, i, down))
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
    vertical shift placing every point (j, c) at or below c = -j."""
    if rr.is_empty():
        return ()
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
