"""Module boundaries, checked on the syntax tree of each package module.

Only ``linalg`` knows how canonical rows are made: the other modules build
a ``Subspace`` through ``linalg.row_space`` or ``linalg.span``, or pass
rows that are canonical already.  And no module builds an instance around
its class's ``__init__`` with ``object.__new__``.  Every ``lru_cache``
or ``cache`` sits on a module-level function, where a scan of module
attributes (the tests' and the benchmark's cache clearing) finds it.
"""

import ast
from pathlib import Path

import mixedhodge

SOURCES = sorted(Path(mixedhodge.__file__).parent.glob("*.py"))


def _names(tree: ast.AST) -> set[str]:
    """Every name the module defines, imports or refers to."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _calls_object_new(tree: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
        for node in ast.walk(tree)
    )


def test_only_linalg_knows_the_canonical_form():
    assert any(path.stem == "linalg" for path in SOURCES)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        knows = "_canonical" in _names(tree)
        assert knows == (path.stem == "linalg"), path.name
        assert not _calls_object_new(tree), path.name


CACHE_DECORATORS = {"lru_cache", "cache"}


def _is_cache(decorator: ast.expr) -> bool:
    """``cache``, ``lru_cache``, ``lru_cache(...)``, or the same through
    ``functools.``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in CACHE_DECORATORS
    return isinstance(decorator, ast.Name) and decorator.id in CACHE_DECORATORS


def test_caches_sit_on_module_level_functions():
    cached = 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(_is_cache(d) for d in node.decorator_list):
                assert id(node) in top, f"{path.name}: {node.name}"
                cached += 1
    assert cached  # the scan sees the package's caches
