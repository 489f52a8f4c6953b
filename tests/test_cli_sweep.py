"""A seeded sweep of CLI argument lists, each pinned to the digest of its
exit code and stdout, sha256(f"{code}\\n{stdout}"), in
tests/golden/cli_sweep.sha256.

The sweep covers every command and every format over A1-A4, D4, E6 and
GL2-GL5, and the error paths: bad JSON in each JSON flag, parity, a rank
above MAX_RANK, truncations with an empty column or missing R, schur
diagrams with no convexifying row order, exclusive stable options and a
plan past MAX_PLAN_STEPS.  Regenerate the digest file (only where a change
of output is meant) with

    PYTHONPATH=src python tests/test_cli_sweep.py --write
"""

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.limits import MAX_RANK
from pmcrystal.cli import run

DIGESTS = Path(__file__).parent / "golden" / "cli_sweep.sha256"
DATA = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("E6", 6),
        ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)]
CAP = 1500  # the largest product of fundamental dimensions drawn
MOST_DRAWS = 100  # per multiset; the sweep's 23 multisets take 29 draws, at most 6 each


def _multiset(rng, datum):
    """One to three points of small multiplicity near level 0, with the
    product of their fundamental dimensions at most CAP; RuntimeError,
    naming the datum and the count, after MOST_DRAWS draws, so that a fault
    which keeps the product over CAP fails at import instead of hanging it."""
    for _ in range(MOST_DRAWS):
        pts = []
        for _ in range(rng.randint(1, 3)):
            i = rng.choice(datum.vertices)
            pts.append([i, datum.parity[i] + 2 * rng.randint(-2, 2), rng.randint(1, 2)])
        bound = 1
        for i, _, m in pts:
            bound *= datum.weyl_dimension(tuple(m * x for x in datum.fundamentals[i]))
        if bound <= CAP:
            return pts
    raise RuntimeError(f"no multiset of {datum} under {CAP} in {MOST_DRAWS} draws")


def _truncation(rng, datum, pts):
    """up(Supp R + one more point): upward-closed, every column nonempty."""
    i = rng.choice(datum.vertices)
    extra = (i, datum.parity[i] + 2 * rng.randint(-2, 1))
    support = [(p[0], p[1]) for p in pts] + [extra]
    return json.dumps({"thresholds": {
        str(j): min(c + datum.dist[i, j] for i, c in support) for j in datum.vertices}})


def _diagram(rng):
    boxes = set()
    for _ in range(rng.randint(3, 7)):
        boxes.add((rng.randint(1, 4), rng.randint(1, 4)))
    return json.dumps(sorted(boxes))


def _sequence(rng):
    seq, left = [], 7
    for i in range(1, rng.randint(2, 4) + 1):
        parts = sorted((rng.randint(1, 2) for _ in range(rng.randint(0, i))), reverse=True)
        parts = parts if sum(parts) <= left else []
        left -= sum(parts)
        seq.append(parts)
    return json.dumps(seq)


def sweep_argvs():
    rng = random.Random(20261018)
    out = []
    for kind, rank in DATA:
        datum = build_root_datum(kind, rank)
        base = ["--cartan", kind, "--rank", str(rank)]
        pts = _multiset(rng, datum)
        r = json.dumps(pts)
        j = _truncation(rng, datum, pts)
        out += [["decompose", *base, "--R", r],
                ["character", *base, "--R", r],
                ["character", *base, "--R", r, "--truncation", j],
                ["truncate", *base, "--R", r],
                ["truncate", *base, "--R", r, "--truncation", j],
                ["plan", *base, "--R", r],
                ["plan", *base, "--R", r, "--truncation", j],
                ["graph", *base, "--R", json.dumps(_multiset(rng, datum))],
                ["graph", *base, "--R", r, "--format", "dot"]]
    for _ in range(6):
        diagram = _diagram(rng)
        out += [["schur", "--diagram", diagram], ["schur", "--diagram", diagram,
                                                  "--format", "ascii"]]
    for _ in range(4):
        out.append(["schur", "--sequence", _sequence(rng)])
    out.append(["schur", "--sequence", _sequence(rng), "--rank", "5"])
    for _ in range(3):
        r = json.dumps(_multiset(rng, build_root_datum("GL", 4)))
        out += [["stable", "--R", r], ["stable", "--R", r, "--bound"],
                ["stable", "--R", r, "--coeffs", "--restrict", "2"]]
    bad = "[[1,1"
    a2 = ["--cartan", "A", "--rank", "2"]
    out += [[cmd, *a2, "--R", bad] for cmd in
            ("decompose", "character", "truncate", "plan", "graph")]
    out += [["stable", "--R", bad],
            ["schur", "--sequence", bad],
            ["schur", "--diagram", bad],
            ["schur", "--diagram", bad, "--format", "ascii"]]
    out += [[cmd, *a2, "--R", "[[1,1,1]]", "--truncation", '{"thresholds": '] for cmd in
            ("character", "truncate", "plan")]
    out += [
        # parity: (1, 2) is off the grid of vertex 1
        ["decompose", *a2, "--R", "[[1,2,1]]"],
        ["stable", "--R", "[[1,2,1]]"],
        ["decompose", "--cartan", "A", "--rank", str(MAX_RANK + 1), "--R", "[]"],
        # an empty column: column 2 misses the threshold column 1 needs
        ["character", "--cartan", "A", "--rank", "3", "--R", "[[1,1,1]]",
         "--truncation", '{"thresholds": {"1": 1}}'],
        ["plan", "--cartan", "A", "--rank", "3", "--R", "[[1,1,1]]",
         "--truncation", '{"thresholds": {"1": 1}}'],
        # a truncation that misses R
        ["plan", *a2, "--R", "[[1,1,1]]", "--truncation", '{"thresholds": {"1": 3, "2": 2}}'],
        # no row order makes every column an interval: rows 1-3, 1-2, 2-3
        ["schur", "--diagram", "[[1,1],[3,1],[1,2],[2,2],[2,3],[3,3]]"],
        # gapped columns over nine rows: too many to search
        ["schur", "--diagram", "[[1,1],[3,1],[2,2],[4,2],[5,3],[6,3],[7,4],[8,4],[9,4]]"],
        ["stable", "--R", "[[1,1,1]]", "--bound", "--coeffs"],
        ["plan", *a2, "--R", "[[1,1,1],[1,400001,1]]"],
    ]
    return out


def digest(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


def _read_digests() -> dict[str, str]:
    out = {}
    for line in DIGESTS.read_text().splitlines():
        hexdigest, argv = line.split(" ", 1)
        out[argv] = hexdigest
    return out


ARGVS = sweep_argvs()


def test_sweep_lists_every_digest():
    assert sorted(_read_digests()) == sorted(json.dumps(argv) for argv in ARGVS)


def test_multiset_draws_are_bounded(monkeypatch):
    # a cap that no multiset meets ends the draws with a RuntimeError
    monkeypatch.setitem(globals(), "CAP", 0)
    with pytest.raises(RuntimeError, match=rf"\(A, 2\) under 0 in {MOST_DRAWS} draws"):
        _multiset(random.Random(1), build_root_datum("A", 2))


@pytest.mark.parametrize("argv", ARGVS, ids=[f"{k:03d}-{a[0]}" for k, a in enumerate(ARGVS)])
def test_sweep_output_digest(argv):
    assert digest(argv) == _read_digests()[json.dumps(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_sweep.py --write")
    DIGESTS.write_text("".join(f"{digest(argv)} {json.dumps(argv)}\n" for argv in ARGVS))
