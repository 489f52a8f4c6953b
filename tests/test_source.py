"""Checks on the library source itself."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from pmcrystal.cartan import build_root_datum
from pmcrystal.crystal import CrystalGraph
from pmcrystal.product import PointMultiset
from pmcrystal.truncation import BuildPlan, ThresholdSet

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


# Modules that ``import pmcrystal.cli`` must not load: every command runs in a
# fresh process, which pays for each one (dataclasses alone pulls in inspect,
# ast, dis and tokenize; fractions pulls in decimal).
STARTUP_EXCLUDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "fractions",
                    "decimal", "typing")


def test_cli_import_loads_no_heavy_modules():
    # -S keeps site-packages' start-up hooks out of the count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import pmcrystal.cli; print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                           capture_output=True, text=True, check=True, timeout=30).stdout.split()
    assert "pmcrystal.cli" in added and "pmcrystal.typea" in added
    assert [name for name in STARTUP_EXCLUDED if name in added] == []


def test_schur_on_seven_boxes_loads_no_fractions():
    # the Specht oracle builds its invariant form from integer pairs, so its
    # first call in a fresh process imports neither fractions nor decimal
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pmcrystal.cli as cli; "
            "code = cli.run(['schur', '--diagram', sys.argv[2]]); "
            "print(code, *[m for m in ('fractions', 'decimal') if m in sys.modules], "
            "file=sys.stderr)")
    diagram = "[[1,1],[1,2],[2,1],[2,2],[2,3],[3,2],[3,3]]"
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent), diagram],
                          capture_output=True, text=True, check=True, timeout=30)
    assert proc.stderr.split() == ["0"]
    assert "specht" in json.loads(proc.stdout)["result"]


def _records():
    """(a, a value equal to a, a value different from a, repr of a, a field)
    for each immutable record class of the library."""
    a2 = build_root_datum("A", 2)
    r, r2 = PointMultiset((((1, 0), 1),)), PointMultiset((((1, 0), 2),))
    j = ThresholdSet((0, 1))
    return [
        (r, PointMultiset(tuple([((1, 0), 1)])), r2,
         "PointMultiset(points=(((1, 0), 1),))", "points"),
        (j, ThresholdSet(tuple([0, 1])), ThresholdSet((0, None)),
         "ThresholdSet(thresholds=(0, 1))", "thresholds"),
        (BuildPlan(j, (), r), BuildPlan(ThresholdSet((0, 1)), (), r), BuildPlan(j, (), r2),
         "BuildPlan(start=ThresholdSet(thresholds=(0, 1)), window=(), "
         "r=PointMultiset(points=(((1, 0), 1),)))", "window"),
        (CrystalGraph(a2, ("x", "y"), ((0, 1, 1),), ("x",)),
         CrystalGraph(a2, ("x", "y"), ((0, 1, 1),), ("x",)),
         CrystalGraph(a2, ("x",), (), ("x",)),
         "CrystalGraph(datum=RootDatum(A, 2), elements=('x', 'y'), "
         "f_edges=((0, 1, 1),), highest=('x',))", "highest"),
    ]


def test_records_are_immutable_values():
    # equality, hashing, repr and immutability by fields, as the frozen
    # dataclasses they replaced gave them
    records = _records()
    for a, same, other, text, field in records:
        assert a == same and a is not same and hash(a) == hash(same)
        assert a != other
        assert repr(a) == text
        value = getattr(a, field)
        for name in (field, "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value
    # PointMultiset keeps its order, and CrystalGraph's len counts elements
    r, _, r2, _, _ = records[0]
    assert r < r2 and sorted([r2, r]) == [r, r2]
    assert len(records[-1][0]) == 2


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


def _limits_outside_limits(tree) -> list[int]:
    """Lines that define a limit or a cache bound, or copy a limit, outside
    ``limits``: a module-level assignment to a name containing MAX; an
    lru_cache whose maxsize is not read as ``limits.X``; a row cap of
    ``row_relabellings`` not read so; a name imported from ``limits`` other
    than LimitExceeded, a copy taken at import."""
    def reads_limits(node):
        return node is not None and any(
            isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "limits"
            for sub in ast.walk(node))
    found = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        if any("MAX" in name.id for target in targets for name in ast.walk(target)
               if isinstance(name, ast.Name)):
            found.add(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a bare @lru_cache takes the default bound, 128
            found.update(dec.lineno for dec in node.decorator_list
                         if getattr(dec, "id", getattr(dec, "attr", None)) == "lru_cache")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("lru_cache", "row_relabellings"):
                at, keyword = (0, "maxsize") if name == "lru_cache" else (1, "max_rows")
                given = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == keyword]
                if not reads_limits(given[0] if given else None):
                    found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("limits"):
            if any(alias.name != "LimitExceeded" for alias in node.names):
                found.add(node.lineno)
    return sorted(found)


def test_limits_live_in_limits():
    # every limit and cache bound is defined once, in limits.py, which
    # imports nothing, and read from there when it is used
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "limits.py" in paths
    found = [f"{path.name}:{line}" for path in paths if path.name != "limits.py"
             for line in _limits_outside_limits(ast.parse(path.read_text(), str(path)))]
    assert found == []
    tree = ast.parse((SRC / "limits.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(tree))
    # the check itself sees every spelling
    for text in ("MAX_TERMS = 10", "SPECHT_MAX_BOXES: int = 7", "A, B_MAX = 1, 2",
                 "MAX_RANK += 1", "@lru_cache(maxsize=64)\ndef f(): pass",
                 "@functools.lru_cache(1)\ndef f(): pass", "@lru_cache\ndef f(): pass",
                 "@lru_cache()\ndef f(): pass", "@lru_cache(maxsize=SIZE)\ndef f(): pass",
                 "row_relabellings(boxes, 8)", "row_relabellings(boxes, max_rows=7)",
                 "row_relabellings(boxes, CAP)", "from .limits import SPECHT_MAX_BOXES",
                 "from pmcrystal.limits import LimitExceeded, MAX_RANK"):
        assert _limits_outside_limits(ast.parse(text)), text
    # and passes reads from limits, and MAX names inside functions
    for text in ("@lru_cache(maxsize=limits.ROOT_DATA_CACHED)\ndef f(): pass",
                 "@functools.lru_cache(limits.PARSERS_CACHED)\ndef f(): pass",
                 "@lru_cache(maxsize=sum(1 for d in range(limits.SPECHT_MAX_BOXES)))\n"
                 "def f(): pass",
                 "row_relabellings(boxes, limits.SKEW_MAX_ROWS)",
                 "row_relabellings(boxes, max_rows=limits.CONVEXIFY_MAX_ROWS)",
                 "from . import limits", "from .limits import LimitExceeded",
                 "def f():\n    MAX = limits.MAX_TERMS", "limit = limits.MAX_TERMS"):
        assert not _limits_outside_limits(ast.parse(text)), text


_CODEC_LAYOUT = {"width", "half", "shift", "wbase"}


def _layout_reads(tree) -> list[int]:
    """Lines that read a codec's digit layout: an attribute ``width``,
    ``half``, ``shift`` or ``wbase``, spelled out or through ``getattr``."""
    return sorted({node.lineno for node in ast.walk(tree) if (
        isinstance(node, ast.Attribute) and node.attr in _CODEC_LAYOUT) or (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
        and node.args[1].value in _CODEC_LAYOUT)})


def test_codec_layout_stays_in_monomial():
    # the codec owns its packed format: outside monomial, a packed pass
    # asks the codec for a column's step or a mask and never reads the
    # digit widths or positions itself
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "monomial.py" in paths
    found = [f"{path.name}:{line}" for path in paths if path.name != "monomial.py"
             for line in _layout_reads(ast.parse(path.read_text(), str(path)))]
    assert found == []
    # the check itself sees both spellings, and monomial does read them
    assert _layout_reads(ast.parse("m = (1 << codec.width) - 1\nx = getattr(c, 'shift')")) \
        == [1, 2]
    assert _layout_reads(ast.parse((SRC / "monomial.py").read_text()))


_DATUM_CONSTANTS = {"alphas", "rho", "_height", "positive_roots"}


def _record_names(scope) -> set:
    """The names bound from a call of ``_root_tables`` in a definition."""
    return {target.id for node in ast.walk(scope) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "_root_tables"
            for target in node.targets if isinstance(target, ast.Name)}


def _packed_constant_reads(tree) -> list:
    """(enclosing definition, line) of every read of an attribute
    ``alphas``, ``rho``, ``_height`` or ``positive_roots``, spelled out or
    through ``getattr``, other than a field of a ``_root_tables`` record;
    and of every use of ``_repunit``.  The enclosing definition is dotted
    through classes, and "" at module level."""
    found = []

    def visit(node, scope, records):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."), _record_names(child))
                continue
            if isinstance(child, ast.Attribute):
                receiver, name = child.value, child.attr
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "getattr" \
                    and len(child.args) > 1 and isinstance(child.args[1], ast.Constant):
                receiver, name = child.args[0], child.args[1].value
            else:
                receiver, name = None, getattr(child, "id", None)
            record = getattr(receiver, "id", None) in records or (
                isinstance(receiver, ast.Call)
                and getattr(receiver.func, "id", None) == "_root_tables")
            if (receiver is not None and name in _DATUM_CONSTANTS and not record) \
                    or (receiver is None and name == "_repunit"):
                found.append((scope, child.lineno))
            visit(child, scope, records)
    visit(tree, "", set())
    return found


def test_packed_constants_are_built_in_root_tables():
    # weightring builds each per-datum packed constant once, in
    # _root_tables, and every pass reads it from there by name; only the
    # product, which has no datum, forms its own masks
    allowed = {"_root_tables", "GroupAlgebraElement.__mul__"}
    reads = _packed_constant_reads(ast.parse((SRC / "weightring.py").read_text()))
    assert [f"weightring.py:{line} {scope}" for scope, line in reads
            if scope not in allowed] == []
    assert {scope for scope, _ in reads} == allowed
    # the check itself sees every spelling, in functions, methods and at
    # module level
    sample = ("def _sign_masks(datum, n):\n    return _repunit(n)\n"
              "class GroupAlgebraElement:\n    def __pow__(self, datum):\n        return datum.rho\n"
              "HEIGHT = getattr(datum, '_height')\n"
              "def _root_tables(datum):\n    return datum.alphas, datum.positive_roots\n"
              "def straighten(datum):\n    tables = _root_tables(datum)\n"
              "    return tables.rho, _root_tables(datum).rho, self.rho\n")
    assert _packed_constant_reads(ast.parse(sample)) == [
        ("_sign_masks", 2), ("GroupAlgebraElement.__pow__", 5), ("", 6),
        ("_root_tables", 8), ("_root_tables", 8), ("straighten", 11)]


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


_DICT_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault",
                  "__setitem__", "__delitem__", "__ior__"}


def _scopes(tree):
    """(function name or None, statements) for the module's top-level
    statements and for the body of every function."""
    yield None, [node for node in tree.body if not isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.body


def _key_writes(tree) -> list[int]:
    """Lines that change an element's ``_keys`` dict, directly or through
    a name bound to it: a store, ``del`` or augmented assignment into it, a
    mutating dict method called on it, ``add_into`` with it as the target;
    and a rebinding of ``_keys`` outside the constructors."""
    found = set()
    for name, body in _scopes(tree):
        nodes = [sub for node in body for sub in ast.walk(node)]
        aliases: set[str] = set()

        def held(node):
            return (isinstance(node, ast.Attribute) and node.attr == "_keys") \
                or (isinstance(node, ast.Name) and node.id in aliases)
        grown = True
        while grown:
            bound = {target.id for node in nodes
                     if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
                     and held(node.value)
                     for target in (node.targets if isinstance(node, ast.Assign)
                                    else [node.target])
                     if isinstance(target, ast.Name)}
            grown = not bound <= aliases
            aliases |= bound
        for node in nodes:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = held(node.value)
            elif isinstance(node, ast.AugAssign):
                hit = held(node.target)
            elif isinstance(node, ast.Call):
                func = node.func
                hit = (isinstance(func, ast.Attribute) and func.attr in _DICT_MUTATORS
                       and held(func.value)) or (
                    getattr(func, "id", getattr(func, "attr", None)) == "add_into"
                    and bool(node.args) and held(node.args[0]))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
                hit = node.attr == "_keys" and name not in ("__init__", "_of")
            else:
                hit = False
            if hit:
                found.add(node.lineno)
    return sorted(found)


def test_elements_are_immutable():
    # a GroupAlgebraElement carries the verdict of its W-invariance scan,
    # which only stands while its _keys never change after construction
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}" for path in paths
             for line in _key_writes(ast.parse(path.read_text(), str(path)))]
    assert found == []
    # the check itself sees every spelling, directly and through a local name
    writes = ["{k}[w] = 1", "del {k}[w]", "{k}[w] += 1", "{k}[w] -= c",
              "{k}.pop(w)", "{k}.popitem()", "{k}.clear()", "{k}.update(other)",
              "{k}.setdefault(w, 0)", "{k}.__setitem__(w, 1)", "{k}.__delitem__(w)",
              "add_into({k}, 1, other)", "cartan.add_into({k}, -c, other)"]
    for write in writes:
        for text in (write.format(k="f._keys"),
                     "def g(f):\n    keys = f._keys\n    " + write.format(k="keys"),
                     "def g(f):\n    keys: dict = f._keys\n    more = keys\n    "
                     + write.format(k="more"),
                     "def g(f):\n    if (keys := f._keys):\n        "
                     + write.format(k="keys")):
            assert _key_writes(ast.parse(text)), text
    for text in ("def g(f):\n    keys = f._keys\n    keys |= other",
                 "def g(f):\n    f._keys = {}", "def g(f):\n    del f._keys",
                 "def g(f):\n    f._keys |= other"):
        assert _key_writes(ast.parse(text)), text
    # and passes reads, copies, other dicts and the constructors
    for text in ("def g(f):\n    keys = dict(f._keys)\n    keys[w] = 1",
                 "def g(f):\n    out = {}\n    add_into(out, 1, f._keys)",
                 "def g(f):\n    keys = f._keys\n    return keys.get(w), keys[w]",
                 "def g(f):\n    keys = f._keys\n\ndef h():\n    keys = {}\n    keys[w] = 1",
                 "def __init__(self):\n    self._keys = {}",
                 "def _of(cls):\n    out._keys = keys"):
        assert not _key_writes(ast.parse(text)), text


# Kept in src/ although neither the CLI nor the benchmark reaches them.
KEPT = (
    ("product", "y_of_multiset",
     "its import binds product.mono_mul, which bench/tracing.py wraps directly"),
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
