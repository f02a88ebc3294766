"""The benchmark reads package names as strings; each of them must exist.

The tracer rebinds package functions, and ``bench/run.py`` reads the
trigraded cache's counters with ``getattr(<module>, "<name>", None)``.  A
deleted or renamed function would otherwise fail only in traced
benchmark runs (``bench/run.py --trace 1``), or read 0 silently.  The
tracer file is read and executed in a private namespace, so nothing is
written next to it; the runner is only parsed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
RUNNER = BENCH / "run.py"


def test_every_traced_name_resolves():
    tracer = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    names = [(mod, (fn,)) for mod, fns in tracer["TRACED"].items() for fn in fns]
    names += [(mod, (cls, meth)) for mod, cls, meth, _ in tracer["TRACED_METHODS"]]
    mod, fn = tracer["PROPOSAL_FN"]
    names.append((mod, (fn,)))
    for mod, path in names:
        obj = importlib.import_module(f"mixedhodge.{mod}")
        for attr in path:
            obj = getattr(obj, attr, None)
        assert callable(obj), f"{mod}.{'.'.join(path)}"


def _module_getattrs(tree: ast.AST):
    """(module, name) of each ``getattr(self.<module>, "<name>", ...)`` whose
    module is one of the package's."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2):
            continue
        owner, name = node.args[:2]
        if (isinstance(owner, ast.Attribute) and isinstance(name, ast.Constant)
                and isinstance(name.value, str)
                and importlib.util.find_spec(f"mixedhodge.{owner.attr}")):
            yield owner.attr, name.value


def test_every_cache_name_the_runner_reads_resolves():
    tree = ast.parse(RUNNER.read_text(encoding="utf-8"), str(RUNNER))
    found = list(_module_getattrs(tree))
    assert ("multifilt", "_trigraded_items") in found
    for mod, name in found:
        obj = getattr(importlib.import_module(f"mixedhodge.{mod}"), name, None)
        assert callable(getattr(obj, "cache_info", None)), f"{mod}.{name}"
        assert callable(getattr(obj, "cache_clear", None)), f"{mod}.{name}"
