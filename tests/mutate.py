"""Mutation testing of pmcrystal's source with the standard library only.

Run from the root of a checkout, for example:

    python tests/mutate.py src/pmcrystal/monomial.py --count 120 --seed 1 \\
        --tests tests/test_monomial.py tests/test_crystal.py \\
                tests/test_product.py tests/test_truncation.py

The mutator parses each file with ``ast`` and lists every site of four
kinds of mutation: a comparison swapped (< and <=, > and >=, == and !=,
``is`` and ``is not``, ``in`` and ``not in``), + and - swapped (binary and
augmented), ``and`` and ``or`` swapped, and an integer literal moved by +1
or -1.  A sample of ``--count`` sites, drawn with ``--seed``, runs one
mutant at a time: the mutated file, written back by ``ast.unparse``, goes
into a copy of ``src``, ``tests`` and ``bench`` in a scratch directory,
and the tests run there under ``--timeout`` seconds.  A mutant is killed
when the tests fail or time out, and survives when they pass.  The score
and every survivor, as file:line:column: mutation in function, are
printed at the end; the exit status is 1 when a mutant survives.
``--functions`` keeps only the sites inside the named functions (as the
survivors name them, ``MonomialCodec.__init__`` for a method) and prints
each one's site count; a name with no site (misspelled, or a function
with nothing to mutate) stops the run with status 2 before anything is
copied.  Before any mutant runs, every file unparsed unmutated must pass,
or the run stops with status 2.  The copy goes in a fresh ``tempfile``
directory (``TMPDIR`` moves it), and each file to mutate must be named
relative to the checkout and lie inside it.

pytest collects only test_*.py, so the suite never runs this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile

COMPARES = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add}
BOOLEANS = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}


def enclosing_functions(tree: ast.AST) -> dict[ast.AST, str]:
    """The dotted name of the innermost function or class around each node
    ("<module>" outside all of them), a def's own name included."""
    owner: dict[ast.AST, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if name == "<module>" else f"{name}.{child.name}"
            owner[child] = inner
            visit(child, inner)

    visit(tree, "<module>")
    return owner


def sites(path: str, source: str) -> list[tuple]:
    """Every mutation site of the file: (path, line, column, node, how,
    label), node the position of the mutated node in ``ast.walk`` order,
    ``how`` the comparison's operator index or an integer literal's step,
    and the label naming the function that holds the site."""
    out = []
    tree = ast.parse(source)
    owner = enclosing_functions(tree)
    for node_index, node in enumerate(ast.walk(tree)):
        kind = type(getattr(node, "op", None))
        if isinstance(node, ast.Compare):
            found = [(k, f"{SYMBOLS[type(op)]} -> {SYMBOLS[COMPARES[type(op)]]}")
                     for k, op in enumerate(node.ops)]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and kind in ARITHMETIC:
            found = [(None, f"{SYMBOLS[kind]} -> {SYMBOLS[ARITHMETIC[kind]]}"
                      + ("=" if isinstance(node, ast.AugAssign) else ""))]
        elif isinstance(node, ast.BoolOp):
            found = [(None, f"{SYMBOLS[kind]} -> {SYMBOLS[BOOLEANS[kind]]}")]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found = [(step, f"{node.value} -> {node.value + step}") for step in (1, -1)]
        else:
            continue
        out += [(path, node.lineno, node.col_offset + 1, node_index, how,
                 f"{label} in {owner[node]}") for how, label in found]
    return out


def mutant(source: str, node_index: int | None, how) -> str:
    """The source unparsed with the one mutation applied; unmutated when
    ``node_index`` is None."""
    tree = ast.parse(source)
    if node_index is not None:
        node = list(ast.walk(tree))[node_index]
        if isinstance(node, ast.Compare):
            node.ops[how] = COMPARES[type(node.ops[how])]()
        elif isinstance(node, ast.BoolOp):
            node.op = BOOLEANS[type(node.op)]()
        elif isinstance(node, ast.Constant):
            node.value += how
        else:
            node.op = ARITHMETIC[type(node.op)]()
    return ast.unparse(tree) + "\n"


def run_tests(work: str, path: str, source: str, original: str, tests: list[str],
              timeout: float) -> str:
    """Run the tests in the copy with ``source`` in place of ``path``, then
    put ``original`` back: 'survived', 'killed' or 'timeout'."""
    target = os.path.join(work, path)
    with open(target, "w") as fh:
        fh.write(source)
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    # pytest leads its own process group, so a timeout also ends the
    # processes the tests started (the CLI tests start ``pmcrystal.cli``).
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=work, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        returncode = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        with open(target, "w") as fh:
            fh.write(original)
    return "survived" if returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="files to mutate, relative to the checkout")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest arguments")
    parser.add_argument("--count", type=int, default=100, help="mutants to run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=120.0, help="seconds per mutant")
    parser.add_argument("--functions", nargs="+", help="mutate only the sites in these")
    args = parser.parse_args(argv)
    for path in args.files:
        if os.path.isabs(path) or os.path.normpath(path).split(os.sep)[0] == os.pardir:
            parser.error(f"{path}: give the path relative to the checkout, inside it")

    originals = {}  # read once, so that editing the checkout cannot move a site
    for path in args.files:
        with open(path) as fh:
            originals[path] = fh.read()
    every = [site for path, source in originals.items() for site in sites(path, source)
             if not args.functions or site[5].rsplit(" in ", 1)[1] in args.functions]
    if args.functions:
        counts = {name: 0 for name in args.functions}
        for site in every:
            counts[site[5].rsplit(" in ", 1)[1]] += 1
        print(*(f"{name}: {n} sites" for name, n in counts.items()), sep="\n")
        missing = [name for name, n in counts.items() if not n]
        if missing:
            print(f"no site in {', '.join(missing)}; no mutant run")
            return 2
    chosen = sorted(random.Random(args.seed).sample(every, min(args.count, len(every))))
    print(f"{len(every)} sites, {len(chosen)} sampled with seed {args.seed}", flush=True)
    with tempfile.TemporaryDirectory() as work:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "results")
        for tree in ("src", "tests", "bench"):  # tests/test_source.py reads bench/
            shutil.copytree(tree, os.path.join(work, tree), ignore=ignore)
        shutil.copy("pyproject.toml", work)
        for path, source in originals.items():
            if run_tests(work, path, mutant(source, None, None), source, args.tests,
                         args.timeout) != "survived":
                print(f"{path}: the unmutated file fails the tests; no mutant run")
                return 2
        survivors = []
        for n, (path, line, column, node_index, how, label) in enumerate(chosen, 1):
            source = originals[path]
            status = run_tests(work, path, mutant(source, node_index, how), source, args.tests,
                               args.timeout)
            where = f"{path}:{line}:{column}: {label}"
            print(f"{n}/{len(chosen)} {status:8} {where}", flush=True)
            if status == "survived":
                survivors.append(where)
    killed = len(chosen) - len(survivors)
    print(f"score: {killed}/{len(chosen)} killed"
          + (f" ({100 * killed / len(chosen):.1f}%)" if chosen else ""))
    for line in survivors:
        print(f"survived: {line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
