"""Command-line front end: decompositions, characters, truncations, plans,
Schur modules and DOT graph export over JSON.

Every command prints a JSON envelope {"status", "result", "diagnostics"}
and exits 0; ``graph --format dot`` prints DOT and ``schur --diagram …
--format ascii`` the diagram instead, and no other command takes --format.
Bad input raises a ``ValueError`` naming it and exits 2 with a
machine-readable diagnostic, as does an option that would do nothing:
``--rank`` with ``--format ascii``, or ``--restrict`` with
``stable --bound``.  ``_reading`` alone decides what makes a JSON argument
unreadable, nesting past the parser's depth included.  An internal oracle disagreement
exits 1 with status "internal-inconsistency"; its diagnostics are the
message and {"diff": {weight: [enumeration, character]}} for every weight
where the two routes differ, or for ``schur`` {"diff": {partition: [schur,
oracle]}} for the first oracle it prints (``skew_lr``, then ``specht``)
that differs from its decomposition.  A computation that grows past one of the library's limits
(``limits.LimitExceeded``) exits 3 with status "limit-exceeded"; its
diagnostics are the message and {"stage", "limit", "reached"}.  A rank
above ``limits.MAX_RANK`` exits 2 too, as ``RootDatum`` refuses it before
building anything; ``schur`` and ``stable`` build the datum of their GL
rank before any other route runs; ``--rank`` defaults to 2, or the rank
of E6–E8.  When stdout closes before the output is written (as under
``| head``), the command stops without a traceback and exits 141, the code
a shell gives a process that SIGPIPE ended.  All output orderings are
deterministic, and every envelope, error envelopes included, has sorted keys.

Envelopes are written by ``_dumps``, which gives the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` without that call's fallback
to the pure-Python encoder: one walk writes the indentation and hands every
string to the C ``encode_basestring_ascii``.  ``graph`` and ``truncate``
hand it their monomials as JSON text, which it copies in re-indented.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import limits
from .cartan import KINDS, build_root_datum, weight_str
from .crystal import graph_to_json, monomials_json, to_dot
from .product import (ConsistencyError, multiset_from_pairs, product_graph,
                      strict_int, validate_points)
from .truncation import (ThresholdSet, build_plan, char_by_plan, full_character,
                         truncate, up_closure, validate_threshold_set)
from .typea import (diagram_ascii, lr_skew_expand, restrict_coeffs,
                    schur_decompose, sequence_of_diagram,
                    check_diagram, check_sequence, skew_normalise,
                    specht_decompose_bruteforce, stable_bound, stable_coeffs,
                    flagged_schur_char, min_rank, weight_partition)
from .weightring import laurent_str, straighten


@contextlib.contextmanager
def _reading(what):
    """Around the reading of one JSON argument: what an unreadable one raises,
    nesting past the parser's depth included, becomes ValueError("bad <what>: ...")."""
    try:
        yield
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as err:
        raise ValueError(f"bad {what}: {err}") from err


def _datum_and_multiset(args):
    rank = args.rank
    if rank is None:  # an E kind has one rank; every other kind defaults to 2
        rank = int(args.cartan[1]) if args.cartan.startswith("E") else 2
    datum = build_root_datum(args.cartan, rank)
    with _reading(f"point multiset {args.R!r}"):
        r = multiset_from_pairs(json.loads(args.R))
        validate_points(datum, r)
    return datum, r


def _keyed_once(pairs):
    """A JSON object as a dict, refusing a key given twice (``json.loads``
    alone keeps the last value)."""
    out = {}
    for key, val in pairs:
        if key in out:
            raise ValueError(f"key {key!r} is given twice")
        out[key] = val
    return out


def _json_object(x) -> dict:
    """x when it is a JSON object; ValueError naming x otherwise."""
    if not isinstance(x, dict):
        raise ValueError(f"{x!r} is not an object")
    return x


def _parse_truncation(datum, text):
    with _reading(f"truncation {text!r}"):
        data = _json_object(json.loads(text, object_pairs_hook=_keyed_once))
        thresholds = [None] * len(datum.vertices)
        spelled: dict[int, str] = {}
        if "thresholds" not in data:
            raise ValueError("no 'thresholds' key")
        for key, val in _json_object(data["thresholds"]).items():
            try:
                col = int(key)
            except ValueError:
                raise ValueError(f"column {key!r} is not an integer") from None
            if col not in datum.vertices:
                raise ValueError(f"column {key} is not a vertex")
            if col in spelled:
                raise ValueError(f"column {col} is given twice, as "
                                 f"{spelled[col]!r} and {key!r}")
            spelled[col] = key
            thresholds[col - 1] = strict_int(val)
        j = ThresholdSet(tuple(thresholds))
        validate_threshold_set(datum, j)
        for key in data:
            if key != "thresholds":
                raise ValueError(f"unknown key {key!r}: the only key is 'thresholds'")
        return j


def _decomposition_json(datum, dec):
    """Both serialisations: fundamental coordinates always, and the
    partition-plus-det form for GL."""
    if datum.kind != "GL":
        return {weight_str(w): m for w, m in sorted(dec.items())}
    by_partition = {}
    detail = []
    for w, m in sorted(dec.items()):
        parts = [x for x in w if x > 0]
        fund = {str(i): datum.pairing(i, w) for i in datum.vertices
                if datum.pairing(i, w)}
        det = w[-1]
        by_partition[json.dumps(parts)] = m
        detail.append({"partition": parts, "fundamental": fund, "det": det,
                       "multiplicity": m})
    return {"by_partition": by_partition, "summands": detail}


def _partition_map(counts):
    """{partition: m} as JSON keys, in partition order."""
    return {json.dumps(list(lam)): m for lam, m in sorted(counts.items())}


def cmd_decompose(args):
    from .product import decompose
    datum, r = _datum_and_multiset(args)
    dec = decompose(datum, r)
    return {"decomposition": _decomposition_json(datum, dec)}


def cmd_character(args):
    datum, r = _datum_and_multiset(args)
    if args.truncation:
        j = _parse_truncation(datum, args.truncation)
        ch = char_by_plan(datum, build_plan(datum, r, j))
    else:
        ch = full_character(datum, r)
    result = {"terms": {weight_str(w): c for w, c in ch.items()}}
    if datum.kind == "GL":
        result["laurent"] = laurent_str(datum, ch)
    return result


def cmd_truncate(args):
    datum, r = _datum_and_multiset(args)
    j = (_parse_truncation(datum, args.truncation) if args.truncation
         else up_closure(datum, r.support()))
    elements = truncate(datum, r, j)
    return {"truncation": j.to_json(),
            "elements": _JSONText(monomials_json(elements)),
            "count": len(elements)}


def cmd_plan(args):
    datum, r = _datum_and_multiset(args)
    j = _parse_truncation(datum, args.truncation) if args.truncation else None
    plan = build_plan(datum, r, j)
    listed = plan.to_json()  # first: a plan past limits.MAX_PLAN_STEPS stops before the fold
    ch = char_by_plan(datum, plan)
    return {"plan": listed,
            "character": {weight_str(w): c for w, c in ch.items()}}


def cmd_graph(args):
    datum, r = _datum_and_multiset(args)
    graph = product_graph(datum, r)
    if args.format == "dot":
        return to_dot(graph)
    return {"graph": _JSONText(graph_to_json(graph))}


def cmd_schur(args):
    if (args.sequence is None) == (args.diagram is None):
        raise ValueError("schur needs exactly one of --sequence/--diagram")
    if args.sequence is not None:
        if args.format == "ascii":
            raise ValueError("--format ascii draws a --diagram, not a --sequence")
        with _reading("sequence"):
            seq = check_sequence(json.loads(args.sequence))
    else:
        with _reading("diagram"):
            boxes = check_diagram(json.loads(args.diagram))
        if args.format == "ascii":
            if args.rank is not None:
                raise ValueError("--format ascii draws the diagram and takes no --rank")
            return diagram_ascii(boxes)
        seq = sequence_of_diagram(boxes)
    n = max(len(seq), 1) if args.rank is None else args.rank
    build_root_datum("GL", n)  # refuses a rank out of range
    if n < len(seq):
        raise ValueError(f"rank {n} < sequence length {len(seq)}")
    if args.sequence is not None:
        datum = build_root_datum("GL", max(len(seq), 1))  # gives GL_n's answer
        ch = flagged_schur_char(seq, datum.rank)
        dec = {weight_partition(w): m for w, m in straighten(datum, ch).items()}
        return {"rank": n, "flagged_character": laurent_str(datum, ch),
                "decomposition": _partition_map(dec)}
    dec = schur_decompose(seq)
    result = {"rank": n, "sequence": [list(p) for p in seq],
              "decomposition": _partition_map(dec)}
    skew = skew_normalise(boxes)
    if skew is not None:
        lam, mu = skew
        result["skew_shape"] = {"lambda": list(lam), "mu": list(mu)}
        result["skew_lr"] = _partition_map(_agreeing(dec, "skew_lr", lr_skew_expand(lam, mu)))
    if len(boxes) <= limits.SPECHT_MAX_BOXES:
        result["specht"] = _partition_map(
            _agreeing(dec, "specht", specht_decompose_bruteforce(boxes)))
    return result


def _agreeing(dec, name, oracle):
    """The oracle's decomposition, or ConsistencyError naming every
    partition where it differs from the Schur route's ``dec``."""
    if oracle != dec:
        raise ConsistencyError.between(f"schur and {name}", ("schur", name), dec, oracle)
    return oracle


def cmd_stable(args):
    if args.restrict is not None and args.restrict < 0:
        raise ValueError(f"--restrict must be at least 0, not {args.restrict}")
    with _reading(f"point multiset {args.R!r}"):
        r = multiset_from_pairs(json.loads(args.R))
        validate_points(build_root_datum("GL", min_rank(r)), r)  # the GL colouring's parity
    if args.bound:
        if args.restrict is not None:
            raise ValueError("--bound reports only the bound and takes no --restrict")
        return {"stable_bound": stable_bound(r)}
    coeffs = stable_coeffs(r)
    if args.restrict is not None:
        coeffs = restrict_coeffs(coeffs, args.restrict)
    return {"stable_bound": stable_bound(r),
            "coefficients": _partition_map(coeffs)}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcrystal",
        description="Product monomial crystals, truncation characters, and "
                    "generalised Schur modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cartan", default="A", choices=KINDS)
        p.add_argument("--rank", type=int)

    p = sub.add_parser("decompose", help="decompose M(R) into irreducibles")
    common(p)
    p.add_argument("--R", required=True, help='JSON [[i,c,mult],...]')
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("character", help="character of M(R) or a truncation")
    common(p)
    p.add_argument("--R", required=True)
    p.add_argument("--truncation", help='JSON {"thresholds": {"i": k}}')
    p.set_defaults(func=cmd_character)

    p = sub.add_parser("truncate", help="list the monomials of M(R, J)")
    common(p)
    p.add_argument("--R", required=True)
    p.add_argument("--truncation")
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("plan", help="emit a build plan for a truncation")
    common(p)
    p.add_argument("--R", required=True)
    p.add_argument("--truncation")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("graph", help="emit the crystal graph of M(R)")
    common(p)
    p.add_argument("--R", required=True)
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("schur", help="Schur module of a sequence or diagram")
    p.add_argument("--rank", type=int, help="GL rank (default: the sequence length, at least 1)")
    p.add_argument("--sequence", help="JSON [[parts],...]")
    p.add_argument("--diagram", help="JSON [[row,col],...]")
    p.add_argument("--format", default="json", choices=["json", "ascii"])
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("stable", help="stable coefficients of a multiset")
    p.add_argument("--R", required=True)
    only = p.add_mutually_exclusive_group()
    only.add_argument("--bound", action="store_true", help="report only the bound")
    only.add_argument("--coeffs", action="store_true",
                      help="print the coefficients (the default)")
    p.add_argument("--restrict", type=int)
    p.set_defaults(func=cmd_stable)
    return parser


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


class _JSONText(str):
    """JSON text written at depth 0 as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes it.  ``_walk`` copies it in with every newline
    re-indented, which is exact: the string encoder never writes a raw one."""


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, at
    close to C-encoder speed.  Dict keys must be strings: any other key
    raises TypeError (the CLI builds only string keys)."""
    chunks = []
    _walk(obj, "\n", chunks.append)
    return "".join(chunks)


def _walk(obj, newline, write) -> None:
    """Write ``obj`` indented two spaces a level below ``newline``.  Exact
    ints and strings are written inline, so a leaf costs no call; marked
    ``_JSONText`` is copied in re-indented; any other leaf (floats, int
    subclasses, unknown types) goes to the compact ``json.dumps``, which
    writes it as the indenting encoder does or raises the same TypeError."""
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            kind = type(value)
            if kind is int:
                write(sep + _encode_str(key) + ": " + _int_repr(value))
            elif kind is str:
                write(sep + _encode_str(key) + ": " + _encode_str(value))
            else:
                write(sep + _encode_str(key) + ": ")
                _walk(value, inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            kind = type(item)
            if kind is int:
                write(sep + _int_repr(item))
            elif kind is str:
                write(sep + _encode_str(item))
            else:
                write(sep)
                _walk(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif type(obj) is _JSONText:
        write(obj.replace("\n", newline))
    elif isinstance(obj, str):
        write(_encode_str(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif type(obj) is int:
        write(_int_repr(obj))
    else:
        write(json.dumps(obj))


def _error(status: str, code: int, *diagnostics) -> int:
    print(_dumps({"status": status, "result": None, "diagnostics": list(diagnostics)}))
    return code


@functools.lru_cache(maxsize=limits.PARSERS_CACHED)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.  ``parse_args``
    leaves it unchanged, so every call of ``run`` can share it."""
    return make_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        result = args.func(args)
    except ConsistencyError as err:
        diff = {weight_str(w): list(pair) for w, pair in err.diff.items()}
        return _error("internal-inconsistency", 1, str(err), {"diff": diff})
    except limits.LimitExceeded as err:
        return _error("limit-exceeded", 3, str(err),
                      {"stage": err.stage, "limit": err.limit, "reached": err.reached})
    except (ValueError, OverflowError) as err:  # bad input; int(1e400)
        return _error("error", 2, str(err))
    if isinstance(result, str):
        sys.stdout.write(result if result.endswith("\n") else result + "\n")
    else:
        print(_dumps({"status": "ok", "result": result, "diagnostics": []}))
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so that the
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
