"""Every public export of every submodule exists; no module imports a name it never uses;
the package and its command line import nothing beyond NumPy and the standard library."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hadamard

SUBMODULES = sorted(f"hadamard.{m.name}" for m in pkgutil.iter_modules(hadamard.__path__))


def test_submodules_found():
    assert "hadamard.operators" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_unused_names():
    source = "from __future__ import annotations\nimport math, os.path\nfrom x import a, b as c\n" \
             "__all__ = ['a']\nprint(math.pi)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 2)"]


# The package's __init__ imports in order to re-export, so it is not checked.
@pytest.mark.parametrize("path", sorted(p for p in Path(hadamard.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_barycenter_imports_no_space_model():
    """Each model solves its own mean, so the generic module names none of them."""
    path = Path(hadamard.__file__).parent / "barycenter.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    models = {"Euclidean", "Hyperboloid", "ProductSpace", "MetricTree", "metric_tree", "numpy"}
    assert names & models == set()


# Run in a fresh interpreter, so that the modules the test session has
# already imported (pytest, hypothesis, networkx) do not hide an import.
_NEW_TOP_LEVEL = """
import sys
before = set(sys.modules)
import hadamard, hadamard.cli
new = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(new - set(sys.stdlib_module_names))))
"""


def test_runtime_imports_are_the_declared_dependencies():
    """``pyproject.toml`` declares NumPy alone, so the package imports nothing else."""
    src = str(Path(hadamard.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, "-c", _NEW_TOP_LEVEL], capture_output=True,
                          text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["hadamard", "numpy"]
