"""Public names and dependencies: every exported name resolves, the
package exports exactly what its modules declare, and it imports nothing
outside the standard library."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import ermakov
from conftest import REPO

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


def test_package_imports_only_the_standard_library():
    for path in sorted(Path(ermakov.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [] if node.level else [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root == "ermakov" or root in sys.stdlib_module_names, \
                    (path.name, root)


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(REPO / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []
