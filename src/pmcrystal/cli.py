"""Command-line front end: decompositions, characters, truncations, plans,
Schur modules and DOT graph export over JSON.

Every command prints a JSON envelope {"status", "result", "diagnostics"}
and exits 0; ``graph --format dot`` prints DOT and ``schur --diagram …
--format ascii`` the diagram instead, and no other command takes --format.
Validation problems exit 2 with a machine-readable diagnostic.  An internal
oracle disagreement exits 1 with status "internal-inconsistency"; its
diagnostics are the message and {"diff": {weight: [enumeration,
character]}} for every weight where the two routes differ.  A computation
that grows past one of the library's limits (``cartan.LimitExceeded``:
``crystal.MAX_ELEMENTS``, ``weightring.MAX_TERMS``,
``truncation.MAX_PLAN_STEPS``) exits 3 with status "limit-exceeded"; its
diagnostics are the message and {"stage", "limit", "reached"}.  A rank
above ``cartan.MAX_RANK`` (32) exits 2 too, as ``RootDatum`` refuses it
before building anything; ``schur`` and ``stable`` build the datum of their
GL rank before any other route runs.  When stdout closes before the output
is written (as under ``| head``), the command stops without a traceback and
exits 141, the code a shell gives a process that SIGPIPE ended.  All output
orderings are deterministic, and every envelope, error envelopes included,
has sorted keys.

Envelopes are written by ``_dumps``, which gives the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` without that call's fallback
to the pure-Python encoder: one walk writes the indentation and hands every
string to the C ``encode_basestring_ascii``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cartan import LimitExceeded, build_root_datum, weight_str
from .crystal import graph_to_json, to_dot
from .product import (ConsistencyError, multiset_from_pairs, product_crystal,
                      strict_int, validate_points)
from .truncation import (ThresholdSet, build_plan, char_by_plan, full_character,
                         truncate, truncation_character, up_closure,
                         validate_threshold_set)
from .typea import (SPECHT_MAX_BOXES, diagram_ascii, lr_skew_expand,
                    restrict_coeffs, schur_decompose, sequence_of_diagram,
                    check_diagram, check_sequence, skew_normalise,
                    specht_decompose_bruteforce, stable_bound, stable_coeffs,
                    flagged_schur_char, min_rank)
from .weightring import laurent_str


class ValidationError(ValueError):
    pass


def _parse_multiset(datum, text):
    try:
        pairs = json.loads(text)
        r = multiset_from_pairs(pairs)
        validate_points(datum, r)
        return r
    except (ValueError, TypeError, KeyError) as err:
        raise ValidationError(f"bad point multiset {text!r}: {err}") from err


def _parse_truncation(datum, text):
    try:
        data = json.loads(text)
        thresholds = [None] * len(datum.vertices)
        for key, val in data["thresholds"].items():
            col = int(key)
            if col not in datum.vertices:
                raise ValueError(f"column {key} is not a vertex")
            thresholds[col - 1] = strict_int(val)
        j = ThresholdSet(tuple(thresholds))
        validate_threshold_set(datum, j)
        return j
    except (ValueError, TypeError, KeyError, AttributeError) as err:
        raise ValidationError(f"bad truncation {text!r}: {err}") from err


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


def cmd_decompose(args):
    from .product import decompose
    datum = build_root_datum(args.cartan, args.rank)
    r = _parse_multiset(datum, args.R)
    dec = decompose(datum, r)
    return {"decomposition": _decomposition_json(datum, dec)}


def cmd_character(args):
    datum = build_root_datum(args.cartan, args.rank)
    r = _parse_multiset(datum, args.R)
    if args.truncation:
        j = _parse_truncation(datum, args.truncation)
        ch = truncation_character(datum, r, j)
    else:
        ch = full_character(datum, r)
    result = {"terms": {weight_str(w): c for w, c in ch.items()}}
    if datum.kind == "GL":
        result["laurent"] = laurent_str(datum, ch)
    return result


def cmd_truncate(args):
    datum = build_root_datum(args.cartan, args.rank)
    r = _parse_multiset(datum, args.R)
    j = (_parse_truncation(datum, args.truncation) if args.truncation
         else up_closure(datum, r.support()))
    elements = truncate(datum, r, j)
    return {"truncation": j.to_json(),
            "elements": [p.to_json() for p in elements],
            "count": len(elements)}


def cmd_plan(args):
    datum = build_root_datum(args.cartan, args.rank)
    r = _parse_multiset(datum, args.R)
    j = _parse_truncation(datum, args.truncation) if args.truncation else None
    plan = build_plan(datum, r, j)
    listed = plan.to_json()  # first: a plan past MAX_PLAN_STEPS stops before the fold
    ch = char_by_plan(datum, plan)
    return {"plan": listed,
            "character": {weight_str(w): c for w, c in ch.items()}}


def cmd_graph(args):
    datum = build_root_datum(args.cartan, args.rank)
    r = _parse_multiset(datum, args.R)
    graph = product_crystal(datum, r)
    if args.format == "dot":
        return to_dot(graph)
    return {"graph": graph_to_json(graph)}


def cmd_schur(args):
    if (args.sequence is None) == (args.diagram is None):
        raise ValidationError("schur needs exactly one of --sequence/--diagram")
    if args.sequence is not None:
        if args.format == "ascii":
            raise ValidationError("--format ascii draws a --diagram, not a --sequence")
        try:
            seq = check_sequence(json.loads(args.sequence))
        except (ValueError, TypeError) as err:
            raise ValidationError(f"bad sequence: {err}") from err
        n = max(len(seq), 1) if args.rank is None else args.rank
        if n < len(seq):
            raise ValidationError(f"rank {n} is smaller than the sequence")
        dec = schur_decompose(seq, n)
        datum = build_root_datum("GL", n)
        return {"rank": n,
                "flagged_character": laurent_str(datum, flagged_schur_char(seq, n)),
                "decomposition": {json.dumps(list(lam)): m
                                  for lam, m in sorted(dec.items())}}
    try:
        boxes = check_diagram(json.loads(args.diagram))
    except (ValueError, TypeError) as err:
        raise ValidationError(f"bad diagram: {err}") from err
    if args.format == "ascii":
        return diagram_ascii(boxes)
    seq = sequence_of_diagram(boxes)
    n = max(len(seq), 1) if args.rank is None else args.rank
    dec = schur_decompose(seq, n)
    result = {"rank": n, "sequence": [list(p) for p in seq],
              "decomposition": {json.dumps(list(lam)): m
                                for lam, m in sorted(dec.items())}}
    skew = skew_normalise(boxes)
    if skew is not None:
        lam, mu = skew
        result["skew_shape"] = {"lambda": list(lam), "mu": list(mu)}
        result["skew_lr"] = {json.dumps(list(p)): m
                             for p, m in sorted(lr_skew_expand(lam, mu).items())}
    if len(boxes) <= SPECHT_MAX_BOXES:
        result["specht"] = {json.dumps(list(p)): m for p, m in
                            sorted(specht_decompose_bruteforce(boxes).items())}
    return result


def cmd_stable(args):
    if args.restrict is not None and args.restrict < 0:
        raise ValidationError(f"--restrict must be at least 0, not {args.restrict}")
    try:
        r = multiset_from_pairs(json.loads(args.R))
        datum = build_root_datum("GL", max(min_rank(r), 2))
        validate_points(datum, r)  # parity check against the GL colouring
    except (ValueError, TypeError) as err:
        raise ValidationError(f"bad point multiset {args.R!r}: {err}") from err
    if args.bound:
        return {"stable_bound": stable_bound(r)}
    coeffs = stable_coeffs(r)
    if args.restrict is not None:
        coeffs = restrict_coeffs(coeffs, args.restrict)
    return {"stable_bound": stable_bound(r),
            "coefficients": {json.dumps(list(lam)): m
                             for lam, m in sorted(coeffs.items())}}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmcrystal",
        description="Product monomial crystals, truncation characters, and "
                    "generalised Schur modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cartan", default="A", choices=["A", "D", "E6", "E7", "E8", "GL"])
        p.add_argument("--rank", type=int, default=2)

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
    p.add_argument("--rank", type=int, help="GL rank (default: the number of rows)")
    p.add_argument("--sequence", help="JSON [[parts],...]")
    p.add_argument("--diagram", help="JSON [[row,col],...]")
    p.add_argument("--format", default="json", choices=["json", "ascii"])
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("stable", help="stable coefficients of a multiset")
    p.add_argument("--R", required=True)
    p.add_argument("--bound", action="store_true", help="report only the bound")
    p.add_argument("--coeffs", action="store_true")
    p.add_argument("--restrict", type=int)
    p.set_defaults(func=cmd_stable)
    return parser


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, at
    close to C-encoder speed.  Dict keys must be strings: any other key
    raises TypeError (the CLI builds only string keys)."""
    chunks = []
    _walk(obj, "\n", chunks.append)
    return "".join(chunks)


def _walk(obj, newline, write) -> None:
    """Write ``obj`` indented two spaces a level below ``newline``.  Exact
    ints and strings are written inline, so a leaf costs no call; any other
    leaf (floats, int subclasses, unknown types) goes to the compact
    ``json.dumps``, which writes it as the indenting encoder does or raises
    the same TypeError."""
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


@functools.lru_cache(maxsize=1)
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
    except LimitExceeded as err:
        return _error("limit-exceeded", 3, str(err),
                      {"stage": err.stage, "limit": err.limit, "reached": err.reached})
    except json.JSONDecodeError as err:
        return _error("error", 2, f"bad JSON: {err}")
    except (ValueError, OverflowError) as err:  # ValidationError; int(1e400)
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
