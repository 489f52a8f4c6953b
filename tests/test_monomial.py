import copy
import pickle
import random

import pytest

from pmcrystal.cartan import build_root_datum, w_add
from pmcrystal.monomial import (Monomial, column_stats, e_op, f_op, make_monomial, mono_mul,
                                one, y_monomial)
from reference import (codec_of, mono_div, mono_pow, monomial_from_json, validate_monomial,
                       z_monomial)


def test_z_sl3(a2):
    z = z_monomial(a2, 1, -1)
    assert z.weight == a2.alphas[1]
    assert dict(z.exponents) == {(1, -1): 1, (1, 1): 1, (2, 0): -1}


def test_z_weight_is_simple_root(a3, d4):
    for datum in (a3, d4):
        for i in datum.vertices:
            k = datum.parity[i]
            assert z_monomial(datum, i, k).weight == datum.alphas[i]


def test_z_a3_interior(a3):
    z = z_monomial(a3, 2, 2)
    assert dict(z.exponents) == {(2, 2): 1, (2, 4): 1, (1, 3): -1, (3, 3): -1}


def test_z_parity_rejected(a2):
    with pytest.raises(ValueError):
        z_monomial(a2, 1, 0)
    with pytest.raises(ValueError):
        y_monomial(a2, 2, 1)


def test_y_monomial_refuses_negative_powers(a2):
    # n = -1 is the first power refused; n = 0 is the monomial 1
    with pytest.raises(ValueError, match="nonnegative"):
        y_monomial(a2, 1, 1, -1)
    assert y_monomial(a2, 1, 1, 0) == one(a2)


def test_monomial_order_is_strict():
    # __lt__ is irreflexive: no monomial is less than itself or an equal one
    m = Monomial((1, 0), (((1, 0), 1),))
    same = Monomial(tuple([1, 0]), (((1, 0), 1),))
    assert not m < m and not m < same and not same < m and not m > same
    assert m <= same and m >= same
    assert sorted([same, m]) == [same, m]


def test_column_stats_basic(a2):
    p = y_monomial(a2, 1, 1)
    assert column_stats(p, 1) == (1, 0, 1, None)
    assert column_stats(p, 2) == (0, 0, None, None)
    assert column_stats(one(a2), 1) == (0, 0, None, None)


def test_column_stats_mixed_sign_column():
    # an A_5 column with a positive block under a negative one
    a5 = build_root_datum("A", 5)
    p = make_monomial(w_add(a5.fundamentals[4], a5.fundamentals[4]),
                      {(4, 20): 6, (4, 24): -4})
    phi, eps, best_f, best_e = column_stats(p, 4)
    assert (phi, best_f) == (2, 20)
    # the upper column sum from 22 on is -4, dominated by the value at 20
    assert sum(ex for c, ex in p.column(4) if c >= 22) == -4
    # every lower sum is positive, so eps is attained by the empty head
    assert (eps, best_e) == (0, None)


def test_f_edges_of_sl3_fundamental(a2):
    p = y_monomial(a2, 1, 1)
    q = f_op(a2, p, 1)
    assert dict(q.exponents) == {(1, -1): -1, (2, 0): 1}
    assert q.weight == (-1, 1)
    r = f_op(a2, q, 2)
    assert dict(r.exponents) == {(2, -2): -1}
    assert f_op(a2, p, 2) is None
    assert e_op(a2, p, 1) is None
    assert e_op(a2, q, 1) == p
    assert e_op(a2, r, 2) == q


def test_ef_inverse_and_weight_shift(a3):
    rng = random.Random(9)
    seeds = [y_monomial(a3, 2, 0, 2), y_monomial(a3, 1, 1),
             mono_mul(y_monomial(a3, 1, 1), y_monomial(a3, 3, 1))]
    frontier = list(seeds)
    for _ in range(60):
        p = rng.choice(frontier)
        i = rng.choice(a3.vertices)
        q = f_op(a3, p, i)
        if q is None:
            continue
        frontier.append(q)
        assert e_op(a3, q, i) == p
        assert q.weight == tuple(a - b for a, b in zip(p.weight, a3.alphas[i]))
        validate_monomial(a3, q)
        phi, eps, _, _ = column_stats(q, i)
        assert phi == eps + a3.pairing(i, q.weight)


def test_monomial_identities(a2):
    p = y_monomial(a2, 1, 1, 2)
    q = z_monomial(a2, 1, -1)
    assert mono_div(mono_mul(p, q), q) == p
    assert mono_pow(q, -1).weight == tuple(-x for x in q.weight)
    assert mono_mul(p, one(a2)) == p


def test_json_roundtrip(a2):
    p = mono_mul(y_monomial(a2, 1, 1, 2), mono_pow(z_monomial(a2, 1, -1), -1))
    assert monomial_from_json(p.to_json()) == p


def test_rendering(a2):
    assert str(one(a2)) == "e(0,0)"
    assert str(y_monomial(a2, 1, 1)) == "e(1,0)*y[1,1]"


def test_monomial_is_an_immutable_two_slot_value():
    m = Monomial((1, 0), (((1, 0), 1),))
    same = Monomial(tuple([1, 0]), (((1, 0), 1),))
    other = Monomial((1, 0), (((1, 2), 1),))
    assert m == same and m is not same and hash(m) == hash(same)
    # equal, hashed and ordered as the pair (weight, exponents)
    assert hash(m) == hash((m.weight, m.exponents))
    assert m < other and m <= other and other > m and other >= m and m <= same
    assert sorted([other, m, Monomial((0, 1), ())]) == [Monomial((0, 1), ()), m, other]
    # a value of its own, not a tuple: it equals no pair and no other type
    assert m != (m.weight, m.exponents) and not isinstance(m, tuple)
    with pytest.raises(TypeError):
        m < (m.weight, m.exponents)
    assert repr(m) == "Monomial(weight=(1, 0), exponents=(((1, 0), 1),))"
    assert Monomial.__slots__ == ("weight", "exponents") and not hasattr(m, "__dict__")
    for name in ("weight", "exponents", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, ())
    with pytest.raises(AttributeError):
        del m.weight
    assert m.weight == (1, 0)
    assert copy.copy(m) == m and pickle.loads(pickle.dumps(m)) == m


def test_codec_digits_hold_every_exponent(a2):
    # one bound for exponents and weight coordinates: a digit stores e +
    # half for |e| <= bound + 2 (a z-step moves an exponent by 1 and a
    # weight coordinate by 2), inside its width: half is the least power of
    # two at least bound + 3, and 2 * half is 2^width; codec_of takes the
    # larger of its two sums, so each seed puts the bound on either side
    for bound in range(65):
        for seed in [make_monomial((bound, 0), {(1, 1): -bound}),
                     make_monomial((0, 0), {(1, 1): bound}),
                     make_monomial((0, -bound), {})]:
            codec = codec_of(a2, [(seed,)])
            assert codec.bound == bound
            assert codec.half >= bound + 3 > codec.half // 2
            assert 2 * codec.half == 1 << codec.width
            assert codec.decode(codec.zero + codec.offset(seed)) == (seed.weight, seed.exponents)
        with pytest.raises(ValueError, match="exceeds the codec bound"):
            codec.offset(make_monomial((0, 0), {(1, 1): bound + 1}))
        with pytest.raises(ValueError, match="exceeds the codec bound"):
            codec.offset(make_monomial((0, -bound - 1), {}))


def test_codec_weight_digits_sit_above_the_columns(gl3):
    # one digit per window point, by vertex then c, then one per weight
    # coordinate, coordinate 1 most significant
    p = make_monomial((1, -2, 3), {(1, 1): 1, (2, 0): -1})
    codec = codec_of(gl3, [(p,)])
    w = codec.width
    assert codec.columns == [(1, 0, (1 << w) - 1), (2, w, (1 << w) - 1)]
    assert codec.offset(p) == 1 - (1 << w) + ((1 << 4 * w) - (2 << 3 * w) + (3 << 2 * w))
    assert codec.decode(codec.zero + codec.offset(p)) == (p.weight, p.exponents)


@pytest.mark.parametrize("kind,rank", [("A", 2), ("D", 4), ("GL", 3)])
def test_codec_z_steps_decode_at_the_weight_bound(kind, rank):
    # p is no closure: its weight sits on the codec bound in every
    # coordinate, and f_i p, e_i p move one coordinate 2 past it (1 for GL),
    # for bounds on both sides of every power of two up to 32; each step,
    # formed as a key plus or minus the codec's f-delta at the position of
    # c + 2, decodes to f_op / e_op
    datum = build_root_datum(kind, rank)
    for bound in range(1, 35):
        for sign in (1, -1):
            for i in datum.vertices:
                c = datum.parity[i]
                # phi_i = eps_i = 1, and both steps multiply by z_{i,c}^{-+1}
                p = make_monomial((sign * bound,) * datum.rank,
                                  {(i, c): -1, (i, c + 2): 1})
                window = make_monomial(datum.zero, {(j, c + 1): 1 for j in datum.neighbours[i]})
                codec = codec_of(datum, [(p, window)])
                assert codec.bound == bound
                key = codec.zero + codec.offset(p)
                delta = codec.deltas[i - 1][codec.positions[i - 1].index(c + 2)]
                for step, sign in ((f_op, 1), (e_op, -1)):
                    want = step(datum, p, i)
                    got = codec.decode(key + sign * delta)
                    assert got == (want.weight, want.exponents)
