import random
import signal
import sys

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.product import multiset
from pmcrystal.weightring import GroupAlgebraElement


TEST_SECONDS = 60  # the longest a test may run before it fails


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test that runs longer than TEST_SECONDS, so that a hang ends
    as a failed test; no bound where the platform lacks SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran longer than {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def a2():
    return build_root_datum("A", 2)


@pytest.fixture
def a3():
    return build_root_datum("A", 3)


@pytest.fixture
def d4():
    return build_root_datum("D", 4)


@pytest.fixture
def gl3():
    return build_root_datum("GL", 3)


@pytest.fixture
def gl4():
    return build_root_datum("GL", 4)


def random_weight(rng: random.Random, datum, lo=-3, hi=3):
    return tuple(rng.randint(lo, hi) for _ in range(datum.rank))


def random_element(rng: random.Random, datum, terms=3, lo=-3, hi=3):
    out = {}
    for _ in range(rng.randint(1, terms)):
        w = random_weight(rng, datum, lo, hi)
        c = rng.choice([c for c in range(-3, 4) if c])
        out[w] = out.get(w, 0) + c
    return GroupAlgebraElement(out)


def random_point(rng: random.Random, datum, c_lo=-2, c_hi=2):
    i = rng.choice(datum.vertices)
    c = datum.parity[i] + 2 * rng.randint(c_lo, c_hi)
    return (i, c)


def random_multiset(rng: random.Random, datum, max_points=3, max_mult=2,
                    c_lo=-2, c_hi=2, cap=6000):
    """A random parameter multiset whose tensor bound prod dim B(m w_i)
    stays under ``cap``, so the enumeration side of every cross-check
    stays fast (the draw is redone, not truncated, when it blows up)."""
    while True:
        out = {}
        for _ in range(rng.randint(1, max_points)):
            pt = random_point(rng, datum, c_lo, c_hi)
            out[pt] = min(max_mult, out.get(pt, 0) + rng.randint(1, max_mult))
        bound = 1
        for (i, _), m in out.items():
            bound *= datum.weyl_dimension(
                tuple(m * x for x in datum.fundamentals[i]))
        if bound <= cap:
            return multiset(out)


def replace_everywhere(monkeypatch, home, name, replacement):
    """Patch the function ``home.name`` to ``replacement``, in every
    pmcrystal module that binds it."""
    original = getattr(home, name)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("pmcrystal")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, replacement)


def refuse_everywhere(monkeypatch, home, names):
    """Patch each function ``home.name`` to raise, in every pmcrystal
    module that binds it."""
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"called {name}")

        replace_everywhere(monkeypatch, home, name, refuse)
