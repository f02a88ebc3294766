"""Module boundaries, checked on the syntax tree of each package module.

Only ``linalg`` knows how canonical rows are made and how a row is
reduced: the other modules build a ``Subspace`` through ``linalg.row_space``
or ``linalg.span``, or pass rows that are canonical already, and reduce
rows through ``linalg._echelon``, ``row_space`` or ``span``.  And no
module builds an instance around its class's ``__init__`` with
``object.__new__``.  Only ``multifilt`` knows the W-adapted layout
(``_flag_coordinates``, ``_adapted_basis``) that its trigraded table and
``mhs``'s Deligne splitting share.  Only level data whose nesting is
not known (a document's, and the filtrations induced on a subspace or a
quotient) goes through ``filtration.filtered_space``, which checks it.
Every ``lru_cache`` or ``cache`` sits on a module-level function, where a
scan of module attributes (the tests' and the benchmark's cache
clearing) finds it.

Only ``Subspace`` decides how a cache key hashes: it keeps its own hash
in a slot, and no package class subclasses a builtin container (``tuple``,
``list``, ``dict``, or a ``NamedTuple``), so a key is a plain tuple of
subspaces and not a container type that stores a hash of its own.

Q(i) values, reduced quadruples, are built or read only in the modules
on ``QI_MODULES``, and no module defines or uses a ``Matrix``: a linear
map is Gaussian-integer rows.

Only ``exactfield`` decides what a JSON integer is: outside it, no
``*from_json`` function tests ``isinstance(_, bool)`` or compares
``type(_)`` with ``int``; the parsers read integers, arrays and objects
through ``exactfield``'s readers.

Every definition in the package is reached from something other than the
tests, or is on ``ALLOWED_UNREACHED`` with its reason.  A reference counts
only for the definition it resolves to, so that a name collision keeps
nothing alive:

* a bare name, for the top-level definition of that name in the module
  that reads it, unless an enclosing function binds the name itself;
* a name imported from ``mixedhodge.<mod>``, for ``<mod>``'s definition;
* an attribute read off a package module, for that module's definition:
  off the benchmark's ``pkg.<mod>``, or off a name bound to a module by
  ``import mixedhodge.<mod> as``, by ``from mixedhodge import <mod>`` or
  by (tuple) assignment of a ``pkg.<mod>``;
* any other attribute read, for the public methods of that name, unless
  the name is also a dataclass field: ``self.rows`` reads a field.

Names that only ``bench/tracer.py``'s lists reach are pinned in
``TRACER_ONLY``.

Every name a package module imports is read in that module or listed in
its ``__all__``, so a deletion leaves no import behind.
"""

import ast
from collections import Counter
from pathlib import Path

import mixedhodge
from mixedhodge.linalg import Subspace

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


# the canonical form and the steps of one row reduction
LINALG_ONLY = {"_canonical", "_reduce_step", "_real_pivot"}


def test_only_linalg_knows_the_canonical_form():
    assert any(path.stem == "linalg" for path in SOURCES)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        known = _names(tree) & LINALG_ONLY
        assert known == (LINALG_ONLY if path.stem == "linalg" else set()), path.name
        assert not _calls_object_new(tree), path.name


# the W-adapted layout that the trigraded table and the Deligne splitting
# share: one module builds it, and the splitting reads its cached rows
MULTIFILT_ONLY = {"_flag_coordinates", "_adapted_basis"}


def test_only_multifilt_knows_the_w_adapted_layout():
    assert any(path.stem == "multifilt" for path in SOURCES)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.stem == "multifilt":
            defined = {
                node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            }
            assert MULTIFILT_ONLY <= defined
        else:
            assert not _names(tree) & MULTIFILT_ONLY, path.name


# the level data whose nesting is not known: a document's, and what a
# subspace or a quotient makes of levels; every construction whose levels
# are nested by construction goes through filtration.from_generators
FILTERED_SPACE_CALLERS = {
    "filtration.from_json",
    "filtration.induced_on_sub",
    "filtration.induced_on_quotient",
}


def test_only_unknown_nesting_goes_through_filtered_space():
    callers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            name = getattr(node, "name", "<module>")
            for sub in ast.walk(node):
                if "filtered_space" in (getattr(sub, "id", None),
                                        getattr(sub, "attr", None)):
                    callers.add(f"{path.stem}.{name}")
    assert callers == FILTERED_SPACE_CALLERS


# the names through which a module builds or reads Q(i) quadruples
QI_NAMES = {"gauss", "ZERO", "I", "_quotient", "quadruple_from_json"}
# the modules that use them: the value type and its JSON reader
# (exactfield), the clearing on the way in and the writer on the way out
# (linalg), the selftest's fixed values (cli) and the package's exported
# constructor (__init__); linear maps, the grids' lines and everything
# else run on integer rows
QI_MODULES = {"__init__", "cli", "exactfield", "linalg"}


def test_q_i_values_stay_at_the_edges():
    using = set()
    for path in SOURCES:
        names = _names(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        assert "Matrix" not in names, path.name  # a linear map is integer rows
        if names & QI_NAMES:
            using.add(path.stem)
    assert using == QI_MODULES


def _imported(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, ``__future__`` features aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.asname or a.name.partition(".")[0] for a in node.names)
    return out


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module's ``__all__``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(e.value for e in node.value.elts)
    return out


def test_every_import_is_read():
    # a deletion that leaves a name imported and unread shows here
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        assert sorted(_imported(tree) - read - _exported(tree)) == [], path.name


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


CONTAINERS = {"tuple", "list", "dict", "NamedTuple"}


def _base_name(base: ast.expr) -> str | None:
    """The name a class base reads, through a subscript or a module
    attribute: ``tuple[int, ...]`` and ``typing.NamedTuple`` included."""
    if isinstance(base, ast.Subscript):
        base = base.value
    if isinstance(base, ast.Attribute):
        return base.attr
    return base.id if isinstance(base, ast.Name) else None


def test_no_class_subclasses_a_builtin_container():
    classes = 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes += 1
                bases = {_base_name(b) for b in node.bases}
                assert not bases & CONTAINERS, f"{path.name}: {node.name}"
    assert classes  # the scan sees the package's classes
    assert "__slots__" in vars(Subspace)


def _decides_an_int(node: ast.AST) -> bool:
    """``isinstance(_, bool)``, bool alone or in a tuple, or a comparison
    of ``type(_)`` with ``int``."""
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            return False
        kinds = node.args[-1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return any(
            isinstance(o, ast.Name) and o.id == "int" for o in operands
        ) and any(
            isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
            and o.func.id == "type"
            for o in operands
        )
    return False


# the document parsers and their helpers, each of which the scan must find
JSON_PARSERS = {
    "filtration.from_json", "filtration._ambient_dim_from_json",
    "filtration._filtrations_from_json", "multifilt.triple_from_json",
    "curves.config_from_json", "curves._point_from_json",
    "families.family_from_json", "families._coord_from_json",
}


def test_only_exactfield_decides_a_json_integer():
    seen = set()
    for path in SOURCES:
        if path.stem == "exactfield":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.endswith("from_json"):
                seen.add(f"{path.stem}.{node.name}")
                assert not any(map(_decides_an_int, ast.walk(node))), (
                    f"{path.name}: {node.name}"
                )
    assert JSON_PARSERS <= seen  # the scan sees every parser


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


MODULES = {path.stem for path in SOURCES}
PACKAGE = mixedhodge.__name__
# the names under which the benchmark holds its freshly imported package:
# ``pkg.<module>`` and ``self.pkg.<module>`` are that module
PACKAGE_HANDLES = {"pkg"}


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` reads from: ``mixedhodge.<mod>``
    or, inside the package, ``.<mod>``; ``PACKAGE`` for the package itself."""
    if node.level:
        return node.module or PACKAGE
    if node.module == PACKAGE:
        return PACKAGE
    if node.module and node.module.startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


def _module_of(node: ast.expr, env: dict[str, str]) -> str | None:
    """The package module an expression stands for."""
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.Attribute) and node.attr in MODULES:
        base = node.value
        handle = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None)
        if handle in PACKAGE_HANDLES:
            return node.attr
    return None


def _module_names(tree: ast.AST) -> dict[str, str]:
    """The names a file binds to package modules: by
    ``import mixedhodge.<mod> as <name>``, by ``from mixedhodge import
    <mod>``, and by (tuple) assignment of a ``pkg.<mod>``."""
    env: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith(PACKAGE + "."):
                    env[alias.asname] = alias.name[len(PACKAGE) + 1:]
        elif isinstance(node, ast.ImportFrom) and _imported_module(node) == PACKAGE:
            for alias in node.names:
                if alias.name in MODULES:
                    env[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
            for target, value in pairs:
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                    pairs += zip(target.elts, value.elts)
                elif isinstance(target, ast.Name) and _module_of(value, env):
                    env[target.id] = _module_of(value, env)
    return env


def _fields() -> set[str]:
    """The field names of the package's dataclasses."""
    out = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in _names(d) for d in node.decorator_list
            ):
                out |= {
                    item.target.id for item in node.body
                    if isinstance(item, ast.AnnAssign)
                }
    return out


def _local_names(fn: ast.AST) -> set[str]:
    """The names a function or lambda binds: its parameters, the names
    it stores or imports (nested scopes included), less its globals."""
    args = fn.args
    out = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                           args.vararg, args.kwarg) if a}
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(a.asname or a.name.partition(".")[0] for a in sub.names)
        elif isinstance(sub, ast.Global):
            out.difference_update(sub.names)
    return out


def _references(node: ast.AST, env: dict[str, str], module: str | None,
                fields: set[str]) -> Counter:
    """References under node, each counted for what it resolves to:
    ``<mod>.<name>`` for a name imported from a package module, an
    attribute read off a module, or a bare name read in a package module
    (``module``) that no enclosing function binds; ``.<attr>`` for any
    other attribute read, which may reach a method, unless it is a
    dataclass field.  Docstrings are constants, so they refer to
    nothing."""
    out = Counter()

    def visit(sub: ast.AST, local: frozenset) -> None:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = local | _local_names(sub)
        if isinstance(sub, ast.ImportFrom):
            source = _imported_module(sub)
            if source is not None and source != PACKAGE:
                out.update(f"{source}.{alias.name}" for alias in sub.names)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if module is not None and sub.id not in local:
                out[f"{module}.{sub.id}"] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            mod = _module_of(sub.value, env)
            if mod is not None:
                out[f"{mod}.{sub.attr}"] += 1
            elif sub.attr not in fields:
                out[f".{sub.attr}"] += 1
        for child in ast.iter_child_nodes(sub):
            visit(child, local)

    visit(node, frozenset())
    return out


def _definitions(tree: ast.Module, module: str):
    """(qualified name, reference key, node) for each top-level function
    and class of a package module, and each public method of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield f"{module}.{node.name}", f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", f".{item.name}", item


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
    the package (outside their own body) refers to, tracer lists aside."""
    fields = _fields()
    refs = Counter()
    files = []
    for path in [*SOURCES, *CALLERS]:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        env = _module_names(tree)
        module = path.stem if path in SOURCES else None
        refs += _references(tree, env, module, fields)
        files.append((tree, env, module))
    out = set()
    for tree, env, module in files:
        if module is None:
            continue
        for qualname, key, node in _definitions(tree, module):
            own = _references(node, env, module, fields)
            if refs[key] - own[key] <= 0:
                out.add(qualname)
    return out


# reached only through bench/tracer.py's lists, which name functions no
# workload calls any more; the benchmark change that trims those lists
# deletes all three
TRACER_ONLY = {"linalg.rref", "linalg.reduce_mod", "multifilt.induced_on_subquotient"}


def test_every_definition_is_reached_or_allowed():
    unreached = _unreached() - _traced()
    assert sorted(unreached - ALLOWED_UNREACHED.keys()) == []
    # an entry whose name gained a caller, or went away, is stale
    assert sorted(ALLOWED_UNREACHED.keys() - unreached) == []


def test_tracer_only_names_are_pinned():
    assert _unreached() & _traced() == TRACER_ONLY
