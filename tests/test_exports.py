"""Public names: every exported name resolves, and the package exports
exactly what its modules declare."""

import ast
import importlib
from pathlib import Path

import pytest

import ermakov

MODULES = ("expr", "model", "dynamics", "integrators", "invariants")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ermakov.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_declared_names():
    tree = ast.parse(Path(ermakov.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"ermakov.{node.module}")
            declared = getattr(module, "__all__", None)
            if declared is None:  # errors: every class it defines is public
                declared = [n for n, v in vars(module).items()
                            if isinstance(v, type) and v.__module__ == module.__name__]
            for alias in node.names:
                assert hasattr(ermakov, alias.name), alias.name
                assert alias.name in declared, (node.module, alias.name)
