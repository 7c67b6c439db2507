import ast
import importlib
import importlib.util
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import clustercat
from clustercat.quivers import builtin_quiver
from clustercat.tilting import TiltingModule, enumerate_tilting_modules

MODULES = ["clustercat"] + [
    f"clustercat.{m.name}" for m in pkgutil.iter_modules(clustercat.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", ())
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    assert [n for n in exports if not hasattr(mod, n)] == []


def _names(tree, modules=frozenset()):
    """Every name a tree uses: bare names, attributes and imported names.
    String constants, such as the entries of __all__, are not uses, and
    neither is an attribute read off one of the names in ``modules``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_definition_is_used():
    # a def or class in the package that nothing in src/, tests/ or bench/
    # names, outside its own body, is dead code
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in ("src", "tests", "bench")
        for path in sorted((root / top).rglob("*.py"))
    }
    used = Counter(n for tree in trees.values() for n in _names(tree))
    dead = []
    for path, tree in trees.items():
        if path.is_relative_to(root / "src"):
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                own = sum(n == node.name for n in _names(node))
                if used[node.name] == own:
                    dead.append(f"{path.relative_to(root)}::{node.name}")
    assert dead == []


def _names_outside_raise(tree):
    """Every bare name and attribute a tree reads outside its raise statements."""
    raised = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Raise) for n in ast.walk(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in raised:
            yield node.id
        elif isinstance(node, ast.Attribute) and id(node) not in raised:
            yield node.attr


def test_every_exception_class_is_named_beyond_its_raises():
    # an exception class in the package that nothing in src/, tests/ or bench/
    # names outside its definition, its raise statements and __all__ is caught
    # by no handler and told apart by no test: the builtin it derives from
    # carries the same message
    root = Path(__file__).resolve().parents[1]
    used = Counter(
        n
        for top in ("src", "tests", "bench")
        for path in sorted((root / top).rglob("*.py"))
        for n in _names_outside_raise(ast.parse(path.read_text(), str(path)))
    )
    unnamed = []
    for name in MODULES[1:]:
        mod = importlib.import_module(name)
        for node in ast.parse(Path(mod.__file__).read_text()).body:
            if isinstance(node, ast.ClassDef) and issubclass(getattr(mod, node.name), BaseException):
                if used[node.name] == sum(n == node.name for n in _names_outside_raise(node)):
                    unnamed.append(f"{name}.{node.name}")
    assert unnamed == []


def test_private_helpers_have_a_src_caller():
    # a private def or method that only the tests name is a test oracle, and
    # belongs in the tests
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in ("src", "bench")
        for path in sorted((root / top).rglob("*.py"))
    }
    used = Counter(n for tree in trees.values() for n in _names(tree))
    test_only = [
        f"{path.relative_to(root)}::{node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(root / "src")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and used[node.name] == sum(n == node.name for n in _names(node))
    ]
    assert test_only == []


# Public methods and properties that nothing in src/ or bench/ names, kept on
# purpose as constructors of the library's value types.
LIBRARY_METHODS = {
    "LaurentPoly.zero": "the additive identity in n variables, beside LaurentPoly.one",
    "LaurentPoly.monomial": "a single term from its exponent vector and coefficient",
    "TiltingModule.of": "a tilting module from module objects, checking each summand is a brick",
}


def _module_bindings(tree):
    """Every name a tree binds to an imported module: ``import m``,
    ``import m as x``, and ``from p import m`` when m is a module of p (a
    relative import is from the clustercat package)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["clustercat" if node.level else "", node.module]))
            for alias in node.names:
                try:
                    importlib.import_module(f"{package}.{alias.name}")
                except ImportError:
                    continue
                yield alias.asname or alias.name


def _uncalled_methods():
    """Every ``Class.name`` of a public method or property of a src class
    that nothing in src/ or bench/ names outside the method's own body; an
    attribute read off a module, such as ``linalg.mat``, names no method."""
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in ("src", "bench")
        for path in sorted((root / top).rglob("*.py"))
    }
    modules = {path: set(_module_bindings(tree)) for path, tree in trees.items()}
    used = Counter(n for path, tree in trees.items() for n in _names(tree, modules[path]))
    return {
        f"{cls.name}.{node.name}"
        for path, tree in trees.items()
        if path.is_relative_to(root / "src")
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and used[node.name] == sum(n == node.name for n in _names(node, modules[path]))
    }


def test_public_methods_have_a_src_caller():
    # a public method or property that only the tests name is a test oracle,
    # and belongs in the tests
    uncalled = _uncalled_methods()
    assert sorted(uncalled - LIBRARY_METHODS.keys()) == []
    # an entry that gained a caller or left its class no longer needs it
    assert LIBRARY_METHODS.keys() <= uncalled


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(clustercat.__file__).parent.glob("*.py") if p.name != "__init__.py")
    + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    # an import that the module never names and does not re-export is left over
    tree = ast.parse(path.read_text(), str(path))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exports(tree)
    assert [name for name in imported if name not in used] == []


# Exports that nothing in src/ or bench/ calls, kept on purpose because the
# tests use each as an independent oracle.
ORACLES = {
    "quivers.quiver_to_json": "writes the format load_quiver_json reads; "
    "the loader's round-trip tests read its output back",
}


def _calls(tree, module):
    """The names of ``module`` that a tree uses: each name it imports from
    the module, and each attribute it reads off a name that it binds to the
    module by importing it."""
    bindings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").rpartition(".")[2] == module:
                yield from (alias.name for alias in node.names)
            bindings |= {alias.asname or alias.name for alias in node.names if alias.name == module}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in bindings:
                yield node.attr


def _bare_uses(tree, name):
    return sum(isinstance(node, ast.Name) and node.id == name for node in ast.walk(tree))


def _uncalled_exports():
    """Every ``module.name`` in a submodule's ``__all__`` that nothing in
    src/ or bench/ imports from the module or reads off it, and that its own
    module names nowhere outside the name's own definition; a re-export by
    the package's ``__init__`` does not count as a call."""
    root = Path(__file__).resolve().parents[1]
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in ("src", "bench")
        for path in sorted((root / top).rglob("*.py"))
        if path.name != "__init__.py"
    }
    found = set()
    for name in MODULES[1:]:
        module = name.removeprefix("clustercat.")
        tree = trees[root / "src" / "clustercat" / f"{module}.py"]
        called = {n for other in trees.values() for n in _calls(other, module)}
        for export in _exports(tree) - called:
            own = sum(
                _bare_uses(node, export)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == export
            )
            if _bare_uses(tree, export) == own:
                found.add(f"{module}.{export}")
    return found


def test_every_export_has_a_caller():
    # a name a submodule exports that no code calls is a test-only wrapper or
    # a second implementation, re-exported by the package or not
    uncalled = _uncalled_exports()
    assert sorted(uncalled - ORACLES.keys()) == []
    # an oracle that gained a caller or left __all__ no longer needs its entry
    assert ORACLES.keys() <= uncalled


def _bench_spans(monkeypatch):
    """``bench/spans.py`` as a module, registered for the test only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_bench_probes_resolve_but_the_known_stale_ones(monkeypatch):
    # the benchmark's tracer skips a probe whose name no longer resolves, so a
    # cleanup that renames a probed function blinds it silently; these eight
    # name functions that are gone and wait for the benchmark's own update
    spans = _bench_spans(monkeypatch)
    for name in MODULES[1:]:
        importlib.import_module(name)
    missing = [path for path, _ in spans.PROBES if spans._resolve(path) is None]
    assert missing == [
        "laurent.Seed.cluster_key",
        "category.mutate_tilting",
        "category.GammaC.ext1_c_dim",
        "category.dim_vector_mod_B",
        "linalg.rref",
        "bound.syzygy",
        "bound.hom_bqa",
        "bound.ext1_bqa",
    ]
    # a repeat key reads a real call's arguments into a set, as the tracer
    # does, and tells modules apart
    key = dict(spans.PROBES)["tilting.torsion_class"]
    q = builtin_quiver("A3")
    first, second = enumerate_tilting_modules(q)[:2]
    seen = {key(q, first)}
    assert key(q, TiltingModule(q, first.ids)) in seen
    assert key(q, second) not in seen


def _imports(module):
    """Every module a clustercat module imports, and every name it imports
    from one, as (module, name) pairs; name is None for a plain import."""
    path = Path(clustercat.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
    return imported


def test_no_module_imports_a_private_name_of_another():
    # a leading underscore keeps a name to its own module; a second module
    # that needs it needs a public report instead
    modules = {name.rpartition(".")[2] for name in MODULES[1:]}
    private = sorted(
        f"{module} imports {source}.{name}"
        for module in modules | {"__init__"}
        for source, name in _imports(module)
        if source.rpartition(".")[2] in modules and name and name.startswith("_")
    )
    assert private == []


@pytest.mark.parametrize("module", ["reps", "bound", "linalg"])
def test_module_layer_imports_nothing_from_laurent(module):
    # modules, their bound quotients and the matrix kernel do not depend on
    # cluster variables
    names = {name for pair in _imports(module) for name in pair if name}
    assert [name for name in names if name.rpartition(".")[2] == "laurent"] == []


def test_category_layer_imports_nothing_from_reps():
    # the cluster category is read off dimension vectors; module theory
    # checks it from the tests
    names = {name for pair in _imports("category") for name in pair if name}
    assert [name for name in names if name.rpartition(".")[2] == "reps"] == []


def test_category_layer_reads_laurent_only_through_explore():
    # the category compares its pairing with explore's variables and does no
    # Laurent arithmetic of its own
    imported = _imports("category")
    from_laurent = {(mod, name) for mod, name in imported if "laurent" in (mod.rpartition(".")[2], name)}
    assert from_laurent == {("laurent", "explore_exchange_graph")}
