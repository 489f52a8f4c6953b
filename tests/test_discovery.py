"""The fundamental crystals discovered on packed keys (``crystal.discover``,
run by ``product.fundamental_keys``) against the ``Monomial`` closure, the
codec that ``product.product_codec`` builds from R alone, the step that the
packed passes read off a column's digits (``MonomialCodec.step``) against its
decoded-entry oracle, and the commands built on both against a fold of the
closures."""

import random
import sys

import pytest

from pmcrystal import crystal, monomial, product
from pmcrystal.cartan import build_root_datum, w_scale
from pmcrystal.crystal import closure, graph_over
from pmcrystal.monomial import MonomialCodec, make_monomial, y_monomial
from pmcrystal.product import (decompose, fundamental_keys, multiset, product_codec,
                               product_crystal, product_graph)
from pmcrystal.truncation import truncate, up_closure
from conftest import random_multiset, random_point, replace_everywhere
from reference import (codec_of, fold_monomials, fundamental_crystal, ref_positive_roots,
                       ref_step)

DATA = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5), ("D", 6),
        ("E6", 6), ("E7", 7), ("E8", 8), ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)]


def small_fundamentals(datum, most=10**4):
    """(i, n, dim V(n w_i)) for every i and n <= 2 with fewer than ``most``
    elements."""
    out = []
    for i in datum.vertices:
        for n in (1, 2):
            dim = datum.weyl_dimension(w_scale(n, datum.fundamentals[i]))
            if dim < most:
                out.append((i, n, dim))
    return out


@pytest.mark.parametrize("kind,rank", DATA)
def test_discovery_matches_the_closure(kind, rank):
    # every fundamental crystal under 10^4 elements with n <= 2, at a
    # seeded level: the keys, decoded and placed by graph_over, are the
    # closure's elements, f-edges and highest element; their supports lie
    # in the codec's window, the grid points between (i, c) and the point
    # (i*, c-h) of the lowest monomial y_{i*,c-h}^{-n}; the largest
    # |exponent| and |weight coordinate| are both n a_i, so the digits are
    # as wide as those of a codec over the closure's own supports; and
    # there are dim V(n w_i) keys
    datum = build_root_datum(kind, rank)
    roots = ref_positive_roots(datum)
    h = 2 * len(roots) // len(datum.vertices)
    theta = max(roots, key=lambda root: sum(root[0]))[0]
    rng = random.Random(f"discover:{kind}{rank}")
    for i, n, dim in small_fundamentals(datum):
        c = datum.parity[i] + 2 * rng.randint(-4, 4)
        codec = product_codec(datum, multiset({(i, c): n}))
        keys = fundamental_keys(codec, i, c, n)
        assert len(keys) == len(set(keys)) == dim
        got = graph_over(keys, codec)
        want = closure(datum, [y_monomial(datum, i, c, n)])
        assert got.elements == want.elements
        assert got.f_edges == want.f_edges
        assert got.highest == want.highest == (y_monomial(datum, i, c, n),)
        support = {pt for x in got.elements for pt, _ in x.exponents}
        assert support <= set(codec.shift)
        sources = {k for k, _, _ in got.f_edges}
        lowest = [x for k, x in enumerate(got.elements) if k not in sources]
        star = [j for j in datum.vertices if datum.pairing(j, lowest[0].weight) == -n]
        assert len(lowest) == 1 and len(star) == 1
        assert lowest[0].exponents == (((star[0], c - h), -n),)
        assert set(codec.shift) == {
            (j, l) for j in datum.vertices for l in range(c - h, c + 1)
            if (l - datum.parity[j]) % 2 == 0
            and l - (c - h) >= datum.dist[star[0], j] and c - l >= datum.dist[i, j]}
        most = n * theta[i - 1]
        assert max(abs(ex) for x in got.elements for _, ex in x.exponents) == most
        assert max(abs(w) for x in got.elements for w in x.weight) == most
        assert codec.bound == most
        assert 1 << codec.width == 2 * codec.half
        assert codec.width == codec_of(datum, [want.elements]).width


def test_window_is_the_union_of_the_factor_windows():
    # product_codec over R: the union over its points of the levels
    # c - h + d(i*, j) to c - d(i, j) in each column j, and bounds that add
    rng = random.Random(41)
    for kind, rank in [("A", 3), ("D", 5), ("E6", 6), ("GL", 4)]:
        datum = build_root_datum(kind, rank)
        r = random_multiset(rng, datum, max_points=3, cap=10**9)
        codec = product_codec(datum, r)
        parts = [product_codec(datum, multiset({pt: m})) for pt, m in r.points]
        assert set(codec.shift) == set().union(*(set(p.shift) for p in parts))
        assert codec.bound == sum(p.bound for p in parts)


@pytest.mark.parametrize("kind,rank", DATA)
def test_one_bound_keeps_the_digits_of_two_equal_bounds(kind, rank):
    # product_codec on seeded R: half is the least power of two at least
    # bound + 3 and the width one bit more, the digits that two equal
    # bounds gave; offset takes a weight coordinate and an exponent on the
    # bound, of either sign, and refuses each one past it
    datum = build_root_datum(kind, rank)
    rng = random.Random(f"one bound:{kind}{rank}")
    for _ in range(6):
        r = random_multiset(rng, datum, max_points=4, max_mult=3, cap=10**9)
        codec = product_codec(datum, r)
        bound = codec.bound
        assert codec.half == 1 << (bound + 2).bit_length()
        assert codec.width == (bound + 2).bit_length() + 1
        (pt, _), j = rng.choice(r.points), rng.randrange(datum.rank)
        for sign in (1, -1):
            weight = [0] * datum.rank
            weight[j] = sign * bound
            p = make_monomial(weight, {pt: sign * bound})
            assert codec.decode(codec.zero + codec.offset(p)) == (p.weight, p.exponents)
            with pytest.raises(ValueError, match="exceeds the codec bound"):
                codec.offset(make_monomial(weight, {pt: sign * (bound + 1)}))
            weight[j] = sign * (bound + 1)
            with pytest.raises(ValueError, match="exceeds the codec bound"):
                codec.offset(make_monomial(weight, {pt: sign * bound}))


def test_empty_vertex_set_and_empty_r():
    # GL_1 has no vertex, so no Coxeter number; an empty R needs none
    for kind, rank in [("GL", 1), ("A", 2)]:
        datum = build_root_datum(kind, rank)
        empty = multiset({})
        codec = product_codec(datum, empty)
        assert codec.shift == {} and codec.bound == 0
        one = monomial.one(datum)
        assert decompose(datum, empty) == {datum.zero: 1}
        assert product_graph(datum, empty).elements == (one,)
        assert truncate(datum, empty, up_closure(datum, [])) == (one,)


def test_a_narrower_window_raises(monkeypatch):
    # without the lowest point of the window, the f-step to the lowest
    # monomial of that factor leaves the window
    datum = build_root_datum("D", 4)
    r = multiset({(2, 1): 1, (1, 4): 2})
    assert len(product_crystal(datum, r)) == 917
    real = product.product_codec

    def narrower(datum, r):
        codec = real(datum, r)
        window = set(codec.shift) - {min(codec.shift, key=lambda pt: pt[1])}
        return MonomialCodec(datum, window, codec.bound)

    replace_everywhere(monkeypatch, product, "product_codec", narrower)
    for build in (product_crystal, product_graph):
        with pytest.raises(AssertionError, match=r"leaves the window \[\("):
            build(datum, r)
    with pytest.raises(AssertionError, match="leaves the window"):
        truncate(datum, r, up_closure(datum, [(1, -20), (2, -21), (3, -20), (4, -20)]))


def test_a_smaller_bound_raises(monkeypatch):
    # the adjoint crystal of D4 reaches |exponent| 2 = a_2 below its
    # highest key, whose exponents are 1: one less passes the seed and
    # fails further down
    datum = build_root_datum("D", 4)
    r = multiset({(2, 1): 1})
    assert len(product_crystal(datum, r)) == 28
    seen = []
    real = crystal.discover

    def tighter(seed, codec, bound):
        seen.append(bound)
        return real(seed, codec, bound - 1)

    replace_everywhere(monkeypatch, crystal, "discover", tighter)
    with pytest.raises(AssertionError, match="passes the bound 1"):
        product_crystal(datum, r)
    assert seen == [2]


@pytest.mark.parametrize("kind,rank", DATA)
def test_digit_pass_matches_its_oracle(kind, rank):
    # every column value of the keys of seeded product crystals gives the
    # same (phi, f-delta, eps, gap, largest |exponent|) read off its digits
    # as from its decoded entries
    datum = build_root_datum(kind, rank)
    rng = random.Random(f"digits:{kind}{rank}")
    for _ in range(3):
        crystal_ = product_crystal(datum, random_multiset(rng, datum, max_points=3, cap=3000))
        codec = crystal_.codec
        values = {(i, (key >> shift) & mask)
                  for key in crystal_.elements for i, shift, mask in codec.columns}
        for i, col in values:
            assert codec.step(i, col) == ref_step(codec, i, col)


def column_of(codec, exponents):
    """The packed column of vertex 1 with these exponents, by c ascending."""
    return sum(ex + codec.half << k * codec.width for k, ex in enumerate(exponents))


@pytest.mark.parametrize("exponents, phi, f_at, eps", [
    ([0, 1, -1, 1, 0, 0], 1, 5, 0),      # two positions tie for phi: F is the higher
    ([0, -1, 1, -1, 0, 0], 0, None, 1),   # two tie for eps
    ([0, 1, 0, 0, 1, 0], 2, 1, 0),        # zero digits between nonzero ones
    ([0, 1, 0, -1, 0, 1], 1, 9, 0),       # ... and a tie across them
    ([0, 2, -3, 0, 0, 0], 0, None, 1),    # a negative sum: phi is 0
    ([0, 3, -3, 0, 0, 0], 0, None, 0),    # exponents on the bound
    ([0, 0, 0, 0, 0, 0], 0, None, 0),     # the empty column
    ([1, 0, 0, 0, 0, 0], 1, None, 0),     # the F - 2 step leaves the window
])
def test_digit_pass_on_hand_built_columns(exponents, phi, f_at, eps):
    # A1, one column at c = -1, 1, ..., 9: F is the largest c attaining
    # the largest upper sum, and the f-delta is z_{1,F-2}^-1's
    datum = build_root_datum("A", 1)
    codec = MonomialCodec(datum, {(1, c) for c in range(-1, 10, 2)}, 3)
    col = column_of(codec, exponents)
    step = codec.step(1, col)
    assert step == ref_step(codec, 1, col)
    f_delta = None if f_at is None else codec.f_delta(1, f_at - 2)
    assert step == (phi, f_delta, eps, (phi > 0) - (eps > 0), max(map(abs, exponents)))
    assert (f_delta is None) == (f_at is None or f_at == -1)


def test_discover_at_the_bound_and_one_past_it():
    # a column value whose largest |exponent| is the bound passes; one
    # whose largest is the bound + 1 raises before any step from it, on a
    # fresh codec and on one whose memo a discovery at the full bound
    # already filled: the memo is shared, so the bound is tested on every
    # visit, and no value is stepped again
    datum = build_root_datum("A", 1)
    for n in (3, 4):
        codec = product_codec(datum, multiset({(1, 1): 4}))
        assert codec.bound == 4
        seed = codec.zero + codec.offset(y_monomial(datum, 1, 1, n))
        with pytest.raises(AssertionError, match=f"passes the bound {n - 1}"):
            crystal.discover(seed, codec, n - 1)
        codec = product_codec(datum, multiset({(1, 1): 4}))
        assert len(crystal.discover(seed, codec, n)) == n + 1
        stepped = [dict(memo) for memo in codec.steps]
        assert sum(map(len, stepped)) == n + 1
        with pytest.raises(AssertionError, match=f"passes the bound {n - 1}"):
            crystal.discover(seed, codec, n - 1)
        assert codec.steps == stepped


@pytest.mark.parametrize("kind,rank", DATA)
def test_each_column_value_is_stepped_once_per_codec(monkeypatch, kind, rank):
    # the codec owns the step memo and every packed pass reads it first, so
    # over all the factors that discover finds and the walk or graph after
    # them, a codec steps each (vertex, column value) exactly once, and
    # its memo holds exactly what it stepped
    calls = []
    real = MonomialCodec.step

    def counted(self, i, col):
        calls.append((self, i, col))
        return real(self, i, col)

    monkeypatch.setattr(MonomialCodec, "step", counted)
    datum = build_root_datum(kind, rank)
    rng = random.Random(f"once:{kind}{rank}")
    total = 0
    for _ in range(3):
        r = random_multiset(rng, datum, max_points=3, cap=3000)
        j = up_closure(datum, [*r.support(), random_point(rng, datum, -3, 3)])
        for build in (product_crystal, product_graph, lambda datum, r: truncate(datum, r, j)):
            del calls[:]
            build(datum, r)
            if not calls:
                continue
            codec = calls[0][0]
            assert all(self is codec for self, _, _ in calls)
            values = [(i, col) for _, i, col in calls]
            assert len(set(values)) == len(values)
            assert sorted(values) == sorted((i, col) for i, memo in zip(datum.vertices, codec.steps)
                                            for col in memo)
            total += len(values)
    assert total


def test_the_packed_passes_decode_no_column(monkeypatch):
    # discover and walk read every step off the digits: with the decoded
    # entries refused everywhere, they still run; with them refused
    # everywhere but decode, at the output edge, decompose and the graph
    # still answer
    real = MonomialCodec._column

    def refused(self, i, col):
        raise AssertionError("a packed pass decoded a column")

    def only_in_decode(self, i, col):
        if sys._getframe(1).f_code.co_name != "decode":
            raise AssertionError("a packed pass decoded a column")
        return real(self, i, col)

    rng = random.Random(53)
    cases = []
    for kind, rank in [("A", 3), ("D", 4), ("E6", 6), ("GL", 4)]:
        datum = build_root_datum(kind, rank)
        cases.append((datum, random_multiset(rng, datum, max_points=3, cap=3000)))
    want = [decompose(datum, r) for datum, r in cases]
    tops = [len(product_crystal(datum, r).highest) for datum, r in cases]
    graphs = [product_graph(datum, r) for datum, r in cases]
    monkeypatch.setattr(MonomialCodec, "_column", refused)
    for (datum, r), top in zip(cases, tops):
        codec = product_codec(datum, r)
        factors = [fundamental_keys(codec, i, c, m) for (i, c), m in r.points]
        assert len(crystal.walk(product.fold(codec, factors), codec)) == top
    monkeypatch.setattr(MonomialCodec, "_column", only_in_decode)
    assert [decompose(datum, r) for datum, r in cases] == want
    assert [product_graph(datum, r) for datum, r in cases] == graphs


@pytest.mark.parametrize("kind,rank", [("A", 2), ("A", 3), ("D", 4), ("E6", 6), ("GL", 4)])
def test_commands_match_a_fold_of_closures(kind, rank):
    # decompose, product_graph and truncate on seeded R against the same
    # commands built from the Monomial closures, as before discovery
    datum = build_root_datum(kind, rank)
    rng = random.Random(f"fold:{kind}{rank}")
    for _ in range(4):
        r = random_multiset(rng, datum, max_points=3, cap=3000)
        codec, keys = fold_monomials(datum, [fundamental_crystal(datum, i, c, m).elements
                                             for (i, c), m in r.points])
        want = graph_over(keys, codec)
        got = product_graph(datum, r)
        assert got.elements == want.elements
        assert got.f_edges == want.f_edges and got.highest == want.highest
        counts = {}
        for x in want.highest:
            counts[x.weight] = counts.get(x.weight, 0) + 1
        assert decompose(datum, r) == counts
        j = up_closure(datum, [*r.support(), *(random_point(rng, datum, -3, 3)
                                              for _ in range(2))])
        kept = [[x for x in fundamental_crystal(datum, i, c, m).elements
                 if j.contains_all(x.support())] for (i, c), m in r.points]
        codec, keys = fold_monomials(datum, kept)
        assert truncate(datum, r, j) == tuple(
            monomial.Monomial(*row) for row in sorted(map(codec.decode, keys)))
