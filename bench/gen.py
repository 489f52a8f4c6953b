"""Seeded input generators for the four benchmark workloads.

Pure Python with no import of ``pmcrystal``: the program under test sees
only the items generated here.  The same (workload, seed, seconds) always
gives the same item list, byte for byte.

A run is a whole number of rounds of a workload's fixed table of slots
(``character`` has one table per round, see CHARACTER_ROUNDS).
A slot fixes the Cartan datum and the size class of an item (a
tensor-bound band and a level pattern for point multisets, a box count or
a partition sequence for diagrams); the seed chooses the concrete item
inside the slot.  Stratifying this way keeps the total work of a run
nearly the same from seed to seed while every seed still gets different
inputs.
"""

from __future__ import annotations

import math
import random

# Dimensions of the fundamental representations V(w_i), i = 1..n; the
# fundamental subcrystal M(i, c) has exactly this many elements.
FUNDAMENTAL_DIMS = {
    ("A", 3): (4, 6, 4),
    ("A", 4): (5, 10, 10, 5),
    ("A", 6): (7, 21, 35, 35, 21, 7),
    ("D", 4): (8, 28, 8, 8),
    ("D", 5): (10, 45, 120, 16, 16),
    ("D", 6): (12, 66, 220, 495, 32, 32),
    ("E6", 6): (27, 78, 351, 2925, 351, 27),
    ("E7", 7): (133, 912, 8645, 365750, 27664, 1539, 56),
    ("GL", 5): (5, 10, 10, 5),
}

_E_PARITY = {1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 0}


def parity(kind: str, rank: int, i: int) -> int:
    """The two-colouring of vertex i: i mod 2 for A and GL, the graph
    distance from vertex 1 mod 2 for D and E."""
    if kind in ("A", "GL"):
        return i % 2
    if kind == "D":
        return (i - 1) % 2 if i < rank else (rank - 2) % 2
    return _E_PARITY[i]


# -- point multisets -----------------------------------------------------------


def overlap(kind: str, rank: int, band: tuple[int, int], points: int, window: int):
    """A seeded multiset: the seed draws `points` vertices whose tensor
    bound lies in [lo, hi) and gives each point (i, c) the level
    c = parity(i) + 2 * k, k drawn from range(window).  The fundamental
    factors overlap, so distinct products can coincide and |M(R)| depends
    on the draw."""
    return ("overlap", kind, rank, band, points, window)


def apart(kind: str, rank: int, *vertices: int):
    """A fixed multiset: the points (listed from the lowest up) sit so far
    apart that no two factors share a level, so M(R) is the whole tensor
    product.  Its cost depends on which vertex sits highest and on the
    exact gaps, so the seed only translates it (M(R) of a translate is
    isomorphic, with shifted labels)."""
    return ("apart", kind, rank, vertices)


# Slot costs are laid out so that the per-item median and the tail
# percentile (ten items from the top) fall inside a group of slots with
# steady cost rather than on the jump between two groups; the seeded
# overlap slots sit at the cheap end.
ENUMERATE_SLOTS = (
    overlap("A", 3, (100, 250), 3, 2),
    overlap("D", 4, (200, 250), 2, 3),
    overlap("GL", 5, (240, 510), 3, 3),
    overlap("A", 4, (240, 510), 3, 3),
    overlap("A", 3, (500, 900), 4, 3),
    apart("D", 4, 1, 1, 1),
    apart("D", 5, 2, 4),
    apart("GL", 5, 2, 2, 2),
    apart("A", 4, 2, 2, 2),
    apart("E6", 6, 1, 1),
    overlap("D", 4, (1792, 1793), 3, 3),
    overlap("D", 5, (2560, 2561), 3, 3),
    apart("E6", 6, 1, 2),
    apart("D", 5, 1, 4, 4),
    apart("D", 5, 1, 1, 3),
)

EMIT_SLOTS = (
    overlap("A", 3, (100, 250), 3, 2),
    overlap("D", 4, (200, 250), 2, 3),
    overlap("GL", 5, (240, 510), 3, 3),
    overlap("A", 4, (625, 1251), 4, 3),
    apart("A", 4, 1, 2, 2),
    apart("GL", 5, 1, 2, 2),
    apart("D", 4, 1, 1, 1),
    apart("A", 3, 1, 1, 2, 2),
    apart("D", 4, 1, 3, 4),
    apart("D", 4, 1, 1, 2),
)

# Fixed multisets only: the peel's cost hangs on the irreducible-character
# cache, which every item on the same datum fills, so a drawn multiset
# would change the cost of the fixed ones after it.  Every round has its
# own vertex sets, so that no round repeats the weights of another and the
# cache meets new highest weights in every round (it still hits on the
# weights that items share, as it would in a sweep).  A run of more than
# five rounds starts over from the first table.  E7 has only three vertex
# sets in range, so rounds 4 and 5 have none.
CHARACTER_ROUNDS = (
    (apart("A", 6, 1, 3, 3), apart("D", 6, 1, 5, 5), apart("E6", 6, 2, 2),
     apart("E7", 7, 7, 7), apart("E6", 6, 1, 3), apart("A", 6, 1, 1, 2, 3),
     apart("D", 6, 1, 1, 3), apart("E6", 6, 2, 3)),
    (apart("A", 6, 1, 1, 2, 4), apart("D", 6, 1, 5, 6), apart("E6", 6, 1, 2),
     apart("E7", 7, 1, 7), apart("E6", 6, 5, 6), apart("A", 6, 2, 5, 6, 6),
     apart("D", 6, 2, 3), apart("E6", 6, 2, 5)),
    (apart("E7", 7, 1, 1), apart("A", 6, 1, 1, 4, 6), apart("D", 6, 4, 5),
     apart("E6", 6, 1, 5), apart("E6", 6, 2, 6), apart("D", 6, 1, 4),
     apart("A", 6, 1, 2, 6, 6), apart("E6", 6, 1, 1, 1)),
    (apart("A", 6, 1, 1, 3, 5), apart("D", 6, 5, 5, 5), apart("E6", 6, 3, 6),
     apart("D", 6, 1, 2, 5), apart("E6", 6, 1, 1, 6), apart("A", 6, 1, 4, 6, 6),
     apart("D", 6, 3, 5), apart("E6", 6, 6, 6, 6)),
    (apart("A", 6, 1, 2, 3, 6), apart("D", 6, 2, 4), apart("E6", 6, 1, 6, 6),
     apart("A", 6, 3, 5, 6, 6), apart("D", 6, 1, 1, 2), apart("E6", 6, 1, 6),
     apart("D", 6, 1, 1, 1, 1), apart("A", 6, 2, 2, 6, 6)),
)


def _multiset_item(rng: random.Random, slot) -> dict:
    shape, kind, rank, *spec = slot
    dims = FUNDAMENTAL_DIMS[(kind, rank)]
    if shape == "apart":
        (vs,) = spec
        gap = 4 * rank + 6  # wider than every Coxeter number here
        shift = 2 * rng.randrange(4)
        levels = [shift + k * gap for k in range(len(vs))]
    else:
        (lo, hi), points, window = spec
        choices = [vs for vs in _vertex_tuples(range(1, len(dims) + 1), points)
                   if lo <= math.prod(dims[i - 1] for i in vs) < hi]
        if not choices:
            raise ValueError(f"slot {slot} has no vertex tuple in its band")
        vs = rng.choice(choices)
        levels = [2 * rng.randrange(window) for _ in vs]
    mult: dict[tuple[int, int], int] = {}
    for i, level in zip(vs, levels):
        pt = (i, parity(kind, rank, i) + level)
        mult[pt] = mult.get(pt, 0) + 1
    return {"kind": kind, "rank": rank,
            "R": [[i, c, m] for (i, c), m in sorted(mult.items())],
            "props": {"points": len(vs),
                      "fundamental_tensor_bound": math.prod(dims[i - 1] for i in vs)}}


def _vertex_tuples(vertices, k: int):
    """Weakly increasing k-tuples of vertices (multisets of size k)."""
    if k == 0:
        yield ()
        return
    for pos, i in enumerate(vertices):
        for rest in _vertex_tuples(vertices[pos:], k - 1):
            yield (i,) + rest


# -- column-convex diagrams -----------------------------------------------------

# One round of diagrams.  A box count draws a random partition sequence;
# diagrams of 6 and 7 boxes, where the Specht oracle's cost swings by a
# factor of ten with the shape, come from fixed sequences instead and the
# seed permutes their columns (the Schur, Specht and LR answers are
# invariant under that).  Diagrams with at most 7 boxes run the Specht
# oracle; the larger ones exercise only the Schur and LR routes.
TYPEA_ROUND = (
    4, 8, [[6]], [[7]], 5, [[4], [2]], [[5], [2]], 9, [[3], [2, 1]],
    [[1], [3], [3]], [[3], [2, 1]], [[2], [1, 1], [1], [2]], 10,
    [[1], [1], [2, 1, 1]], [[3], [2, 2]], [[3], [2, 1]], [[2], [3, 2]],
)


def _random_partition(rng: random.Random, size: int, max_len: int) -> list[int]:
    parts: list[int] = []
    rest = size
    while rest:
        if len(parts) == max_len - 1:
            parts.append(rest)
            break
        p = rng.randint(1, min(rest, parts[-1] if parts else rest))
        parts.append(p)
        rest -= p
    return sorted(parts, reverse=True)


def _random_sequence(rng: random.Random, boxes: int) -> list[list[int]]:
    """A partition sequence (l^1, ..., l^r), len(l^i) <= i, with the given
    total size."""
    r = rng.randint(2, 4)
    cuts = sorted(rng.randint(0, boxes) for _ in range(r - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [boxes])]
    return [_random_partition(rng, s, i + 1) if s else []
            for i, s in enumerate(sizes)]


def diagram_of_sequence(seq) -> list[list[int]]:
    """Shift the running diagram down a row, then adjoin the next Young
    diagram on fresh columns (the construction the paper uses)."""
    boxes: set[tuple[int, int]] = set()
    for p in seq:
        boxes = {(r + 1, c) for (r, c) in boxes}
        base = max((c for (_, c) in boxes), default=0)
        for r, parts in enumerate(p, start=1):
            for c in range(1, parts + 1):
                boxes.add((r, base + c))
    return [list(b) for b in sorted(boxes)]


def _typea_item(rng: random.Random, spec) -> dict:
    if isinstance(spec, int):
        diagram = diagram_of_sequence(_random_sequence(rng, spec))
    else:
        diagram = diagram_of_sequence(spec)
        cols = sorted({c for _, c in diagram})
        relabel = dict(zip(cols, rng.sample(cols, len(cols))))
        diagram = sorted([r, relabel[c]] for r, c in diagram)
    boxes = len(diagram)
    # the CLI works over GL_n with n the number of rows
    rank = max(r for r, _ in diagram)
    return {"diagram": diagram,
            "props": {"boxes": boxes, "rank": rank, "specht": boxes <= 7}}


# -- item lists ------------------------------------------------------------------

# Seconds of --seconds per round of a workload's slot table.  A run is a
# whole number of rounds, fixed by --seconds alone, never by the speed of
# the machine; at reference speed (see worker.py) a round takes about half
# this long.
SECONDS_PER_ROUND = {"enumerate": 3.0, "character": 3.0, "typea": 15 / 7,
                     "emit": 3.75}


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / SECONDS_PER_ROUND[workload]))


def generate(workload: str, seed: int, seconds: float) -> dict:
    """{"datums": [[kind, rank], ...], "items": [...]} for one run."""
    rng = random.Random(f"{workload}:{seed}")
    n = rounds(workload, seconds)
    if workload == "typea":
        items = [_typea_item(rng, spec) for _ in range(n) for spec in TYPEA_ROUND]
        datums = sorted({("GL", it["props"]["rank"]) for it in items})
    else:
        tables = {"enumerate": (ENUMERATE_SLOTS,), "character": CHARACTER_ROUNDS,
                  "emit": (EMIT_SLOTS,)}[workload]
        items = [_multiset_item(rng, slot) for k in range(n)
                 for slot in tables[k % len(tables)]]
        datums = sorted({(it["kind"], it["rank"]) for it in items})
    return {"workload": workload, "seed": seed,
            "datums": [list(d) for d in datums], "items": items}
