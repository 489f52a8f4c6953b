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
