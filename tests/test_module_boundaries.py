"""Module boundaries, checked on the syntax tree of each package module.

Only ``linalg`` knows how canonical rows are made: the other modules build
a ``Subspace`` through ``linalg.row_space`` or ``linalg.span``, or pass
rows that are canonical already.  And no module builds an instance around
its class's ``__init__`` with ``object.__new__``.  Every ``lru_cache``
or ``cache`` sits on a module-level function, where a scan of module
attributes (the tests' and the benchmark's cache clearing) finds it.

Every definition in the package is reached from something other than the
tests, or is on ``ALLOWED_UNREACHED`` with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import mixedhodge

SOURCES = sorted(Path(mixedhodge.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
# the places outside the package whose calls keep a package name alive
CALLERS = [
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "bench" / "workloads.py",
    ROOT / "bench" / "run.py",
]


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


# definitions that nothing outside the tests reaches, on purpose
ALLOWED_UNREACHED = {
    "mhs.tate": "category operation: the Tate structure Z(k), checked in test_mhs",
    "mhs.tate_twist": "category operation: twisting by Z(k), checked by c04",
    "mhs.dual_mhs": "category operation: the dual structure, checked by c04",
    "mhs.direct_sum_mhs": "category operation: direct sums, checked by c04",
    "mhs.tensor_mhs": "category operation: tensor products, checked by c04",
    "multifilt.FilteredMorphism.is_strict": "category operation: strictness, checked by c11",
    "multifilt.FilteredMorphism.kernel": "category operation: kernels, checked in test_multifilt",
    "multifilt.FilteredMorphism.cokernel": "category operation: cokernels, checked in test_multifilt",
    "sampling.random_extension": "draws the extensions of c05",
    "sampling.random_compatible_morphism": "draws the morphisms of c11",
    "multifilt.simultaneous_splitting": "oracle route beside mhs.deligne_splitting (c03)",
}


def _references(node: ast.AST) -> tuple[Counter, Counter]:
    """(names, attributes) under node: each ``Name`` and imported name,
    and each attribute name, with its count.  Docstrings are constants,
    so they refer to nothing."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _definitions(path: Path):
    """(qualified name, node, is_method) for each top-level function and
    class of a package module, and each public method of its classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{path.stem}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item, True


def _traced() -> set[str]:
    """The package names that ``bench/tracer.py`` rebinds, read from its
    lists the way ``test_tracer_names`` reads them."""
    tracer = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    out = {f"{mod}.{fn}" for mod, fns in tracer["TRACED"].items() for fn in fns}
    out |= {f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in tracer["TRACED_METHODS"]}
    out.add(".".join(tracer["PROPOSAL_FN"]))
    return out


def _unreached() -> set[str]:
    """Definitions in the package that nothing in ``CALLERS`` or elsewhere in
    the package (outside their own body) refers to, and no tracer list
    names.  A method is reached only through an
    attribute, so ``linalg.kernel`` does not keep a ``.kernel`` method alive."""
    names, attrs = Counter(), Counter()
    for path in [*SOURCES, *CALLERS]:
        n, a = _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        names += n
        attrs += a
    traced = _traced()
    out = set()
    for path in SOURCES:
        for qualname, node, is_method in _definitions(path):
            own_names, own_attrs = _references(node)
            uses = attrs[node.name] - own_attrs[node.name]
            if not is_method:
                uses += names[node.name] - own_names[node.name]
            if uses == 0 and qualname not in traced:
                out.add(qualname)
    return out


def test_every_definition_is_reached_or_allowed():
    unreached = _unreached()
    assert sorted(unreached - ALLOWED_UNREACHED.keys()) == []
    # an entry whose name gained a caller, or went away, is stale
    assert sorted(ALLOWED_UNREACHED.keys() - unreached) == []
