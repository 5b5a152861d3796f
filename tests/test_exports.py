"""Every public export of every submodule exists; no module imports a name it never uses."""

import ast
import importlib
import pkgutil
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
