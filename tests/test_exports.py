import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import clustercat

MODULES = ["clustercat"] + [
    f"clustercat.{m.name}" for m in pkgutil.iter_modules(clustercat.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", ())
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    assert [n for n in exports if not hasattr(mod, n)] == []


def _names(tree):
    """Every name a tree uses: bare names, attributes and imported names.
    String constants, such as the entries of __all__, are not uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
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


@pytest.mark.parametrize("module", ["reps", "bound", "linalg"])
def test_module_layer_imports_nothing_from_laurent(module):
    # modules, their bound quotients and the matrix kernel do not depend on
    # cluster variables
    path = Path(clustercat.__file__).parent / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert [name for name in imported if name.rpartition(".")[2] == "laurent"] == []
