"""Checks on the library source itself."""

import ast
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pmcrystal"


def test_no_assert_statements():
    # invariants raise AssertionError explicitly, so that they survive
    # python -O, which strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _unbounded_cache(node) -> bool:
    """functools.cache, or lru_cache with maxsize None."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name != "lru_cache":
            return False
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name == "cache" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "cache" \
        and getattr(node.value, "id", None) == "functools"


def test_no_unbounded_caches():
    # a cache decorator must give a finite maxsize
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _unbounded_cache(node)]
    assert found == []
    # the check itself sees the three spellings
    for text in ("@lru_cache(maxsize=None)\ndef f(): pass",
                 "@functools.lru_cache(None)\ndef f(): pass",
                 "from functools import cache", "@functools.cache\ndef f(): pass"):
        assert any(_unbounded_cache(n) for n in ast.walk(ast.parse(text)))
    assert not any(_unbounded_cache(n) for n in
                   ast.walk(ast.parse("@lru_cache(maxsize=64)\ndef f(): pass")))


def test_bench_tracer_hooks_resolve():
    # bench/tracing.py wraps library functions by (module, name); one that
    # a refactor renamed or moved would only fail when the bench installs
    # the tracer
    tree = ast.parse((SRC.parents[1] / "bench" / "tracing.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in ("MODULES", "SPANS", "COUNTS")}
    modules = tables["MODULES"]
    # attributes read straight off a module, as product.mono_mul
    direct = {(node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) in modules}
    hooks = {*tables["SPANS"], *tables["COUNTS"], *direct}
    assert ("product", "mono_mul") in hooks and len(hooks) > 20
    missing = [f"{module}.{name}" for module, name in sorted(hooks)
               if not callable(getattr(importlib.import_module(f"pmcrystal.{module}"),
                                       name, None))]
    assert missing == []


def _library_calls(tree) -> list:
    """(dotted name under pmcrystal, positional count, keyword names, line)
    of every call made through ``pm.`` or ``self.pm.``."""
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        names, target = [], node.func
        while isinstance(target, ast.Attribute):
            names.insert(0, target.attr)
            target = target.value
        if isinstance(target, ast.Name) and target.id == "self" and names[:1] == ["pm"]:
            names = names[1:]
        elif not (isinstance(target, ast.Name) and target.id == "pm"):
            continue
        if names:
            calls.append((".".join(names), len(node.args),
                          tuple(k.arg for k in node.keywords), node.lineno))
    return calls


def test_bench_calls_bind():
    # bench/worker.py calls the library directly; a removed or renamed
    # parameter would only fail when the benchmark runs
    tree = ast.parse((SRC.parents[1] / "bench" / "worker.py").read_text())
    calls = _library_calls(tree)
    assert len(calls) >= 5
    assert any(name == "truncation.full_character" and "check" in keywords
               for name, _, keywords, _ in calls)
    unbound = []
    for name, positional, keywords, line in calls:
        module, _, attr = name.rpartition(".")
        fn = getattr(importlib.import_module(f"pmcrystal.{module}".rstrip(".")), attr, None)
        try:
            inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
        except (TypeError, ValueError) as err:
            unbound.append(f"worker.py:{line} {name}: {err}")
    assert unbound == []
    # the collector sees both spellings and skips other receivers
    sample = _library_calls(ast.parse(
        "pm.decompose(a, b)\nself.pm.truncation.full_character(d, r, check=True)\n"
        "other.decompose(a)\nself.run(x)"))
    assert [(n, p, k) for n, p, k, _ in sample] == [
        ("decompose", 2, ()), ("truncation.full_character", 2, ("check",))]


def _indented_dumps(node) -> bool:
    """A json.dump/json.dumps call given an indent keyword."""
    return isinstance(node, ast.Call) \
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps") \
        and any(k.arg == "indent" for k in node.keywords)


def test_no_indented_json_dumps():
    # json.dumps with indent takes the pure-Python encoder; envelopes go
    # through cli._dumps instead
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _indented_dumps(node)]
    assert found == []
    # the check itself sees an indented call and passes a compact one
    assert any(_indented_dumps(n) for n in
               ast.walk(ast.parse("json.dumps(x, indent=2, sort_keys=True)")))
    assert not any(_indented_dumps(n) for n in
                   ast.walk(ast.parse("json.dumps(x, sort_keys=True)")))


# Kept in src/ although neither the CLI nor the benchmark reaches them.
KEPT = (
    ("product", "y_of_multiset",
     "its import binds product.mono_mul, which bench/tracing.py wraps directly"),
    ("weightring", "dominant_multiplicities",
     "the checked public entry to the Freudenthal tables"),
)


def _unreachable(sources: dict, roots) -> list:
    """``module.name`` of every top-level function and class in ``sources``
    (module name -> text; ``__init__`` is read for its imports only) that
    no chain of references reaches from ``roots`` or from the statements a
    module runs on import.  A name resolves through the relative imports of
    its module, and ``alias.name`` through a module bound by
    ``from . import alias``."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defs = {(module, node.name): node for module, tree in trees.items()
            if module != "__init__" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    imports = {(module, alias.asname or alias.name): (node.module, alias.name)
               for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}

    def resolve(module, name):
        while (module, name) not in defs:
            module, name = imports.get((module, name), (None, None))
            if module is None:
                return None
        return module, name

    def references(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                bound = imports.get((module, sub.value.id))
                if bound is not None and bound[0] is None:  # a sibling module
                    yield resolve(bound[1], sub.attr)

    todo = [resolve(module, name) for module, name in roots]
    todo += [ref for module, tree in trees.items() for node in tree.body
             if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             for ref in references(module, node)]
    seen = set()
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo.extend(references(key[0], defs[key]))
    return sorted(f"{module}.{name}" for module, name in defs.keys() - seen)


def test_src_names_reachable():
    # src/ holds what the CLI and the benchmark run; a definition only the
    # tests reach belongs in tests/reference.py
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    bench = SRC.parents[1] / "bench"
    tracing = ast.parse((bench / "tracing.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tracing.body if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) in ("MODULES", "SPANS", "COUNTS")}
    direct = {(node.value.id, node.attr) for node in ast.walk(tracing)
              if isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) in tables["MODULES"]}
    calls = {name.rpartition(".")[::2] for name, _, _, _ in
             _library_calls(ast.parse((bench / "worker.py").read_text()))}
    roots = [("cli", "main"),  # the console script
             *tables["SPANS"], *tables["COUNTS"], *direct,
             *((module or "__init__", name) for module, name in calls)]
    assert len(calls) >= 5
    kept = [(module, name) for module, name, _ in KEPT]
    assert _unreachable(sources, roots + kept) == []
    # and every exemption is still needed
    assert _unreachable(sources, roots) == sorted(f"{m}.{n}" for m, n in kept)
    # the check itself follows names, imports and module attributes, and
    # finds a definition nothing reaches
    sample = {
        "__init__": "from .a import used\n",
        "a": "def used():\n    return helper()\n\n"
             "def helper():\n    pass\n\n"
             "class Dead:\n    def method(self):\n        return helper()\n\n"
             "def also_used():\n    pass\n",
        "cli": "from . import a\nfrom .a import used as u\n\n"
               "def main():\n    u()\n    return a.also_used\n\n"
               "if __name__ == '__main__':\n    main()\n",
    }
    assert _unreachable(sample, []) == ["a.Dead"]
    assert _unreachable(sample, [("__init__", "used")]) == ["a.Dead"]
    assert _unreachable({**sample, "cli": "def main():\n    pass\n"}, [("cli", "main")]) \
        == ["a.Dead", "a.also_used", "a.helper", "a.used"]
