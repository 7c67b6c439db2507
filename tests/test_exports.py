import importlib
import pkgutil

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
