"""Every size limit and cache bound of the library, each with its reason.

M(R), the characters that Demazure operators build and the Specht modules
of type-A diagrams grow without bound in R, so each computation that can
grow stops at a limit stated here.  Code reads a limit as ``limits.X``
when it runs (a loop binds it once per call), so one assignment, as a
test's ``monkeypatch.setattr(limits, "X", ...)``, moves it everywhere; a
cache bound is read when its cache is made, at import.  This module
imports nothing.

Thread safety.  The ``lru_cache``s are safe to share between threads in
CPython.  No other cache is locked (the memo and Freudenthal tables of
``weightring._root_tables``, the W-invariance verdict an element records):
each entry depends on its key alone, is written by one dict or slot store,
atomic in CPython, and is never changed once built, so racing threads at
worst compute an entry twice or evict one more than needed.
"""


class LimitExceeded(RuntimeError):
    """A computation grew past one of the limits of this module: at
    ``stage`` the size ``reached`` passed ``limit``."""

    def __init__(self, stage: str, limit: int, reached: int, message: str | None = None):
        super().__init__(message or f"{stage} exceeded limit {limit} (reached {reached})")
        self.stage, self.limit, self.reached = stage, limit, reached


# The largest rank a RootDatum accepts: A/D/GL 32 build in well under a
# second, 64 takes seconds and A128 most of a minute, so a larger rank is
# refused at once rather than left to run without bound.
MAX_RANK = 32
MAX_ELEMENTS = 10**6  # the element limit of every closure, fundamental crystal and fold
# The most terms a Demazure operator or a product may build.  The
# benchmark's largest character has 3,317 terms; pi_{w_o} on E8 from
# e^(2 w_1 + w_8) passes this limit after 2.8-3.1 s at 86 MB peak RSS
# (raw seconds, one core of a 2-core Xeon, Python 3.11).
MAX_TERMS = 200_000
# The most steps a plan may list (``BuildPlan.steps``, ``to_json``); the
# character fold walks its plan lazily and is not bound by it.
MAX_PLAN_STEPS = 100_000
# The most boxes ``specht_decompose_bruteforce`` takes; ``cli schur`` adds
# the Specht decomposition up to this size.
SPECHT_MAX_BOXES = 7
# Bound on the entries held by one datum's cache of dominant-multiplicity
# tables; the oldest tables are evicted first.
IRR_CACHE_MAX_TERMS = 500_000
# Bound on one datum's memo of dominant representatives; a full memo is
# cleared.
DOMINANT_MEMO_MAX = 100_000
# ``typea.row_relabellings`` tries all n! row orders: all 8! take 0.07-0.17 s
# in ``sequence_of_diagram``, which refuses a gapped diagram with more rows,
# and all 7! 0.06 s in ``skew_normalise``, which runs on every ``schur
# --diagram`` and tries two orders above that (raw seconds, as above).
CONVEXIFY_MAX_ROWS = 8
SKEW_MAX_ROWS = 7

# Cache bounds: the root data of ``cartan.build_root_datum`` and of
# ``weightring._root_tables``; the z_{i,k}^power of every datum
# (``monomial._z_monomial_cached``); the one parser of ``cli._parser``.
# ``typea.seminormal`` keeps one entry per partition of 1..SPECHT_MAX_BOXES.
ROOT_DATA_CACHED = 64
Z_MONOMIALS_CACHED = 4096
PARSERS_CACHED = 1
