"""Tests for the public names of the package."""
import ast
import importlib
import pathlib

import pytest

import lapasym

MODULES = ("asymptotics", "decomposition", "extrapolation", "lattice_sum",
           "quadrature", "specfun", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"lapasym.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_reexports_are_public():
    # every name lapasym/__init__.py imports from a module is in that
    # module's __all__, so a name dropped there cannot linger here
    tree = ast.parse(pathlib.Path(lapasym.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        public = importlib.import_module(f"lapasym.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in public]
        assert stray == [], node.module
        for alias in node.names:
            assert hasattr(lapasym, alias.asname or alias.name)
