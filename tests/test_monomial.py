import random

import pytest

from pmcrystal.cartan import build_root_datum, w_add
from pmcrystal.monomial import (column_stats, e_op, f_op, make_monomial,
                                mono_mul, one, y_monomial)
from reference import (mono_div, mono_pow, monomial_from_json, validate_monomial,
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
