"""Public names and dependencies: every exported name resolves, the
package binds none but its version, and it imports nothing outside the
standard library."""

import ast
import importlib
import json
import os
import subprocess
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


_IMPORT_SCRIPT = """
import json, sys
import ermakov
print(json.dumps({"public": sorted(n for n in vars(ermakov) if not n.startswith("_")),
                  "version": "__version__" in vars(ermakov),
                  "loaded": sorted(m for m in sys.modules if m.startswith("ermakov."))}))
"""


def test_import_binds_only_the_version():
    # every public name has one import path, its module's
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"public": [], "version": True, "loaded": []}


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
