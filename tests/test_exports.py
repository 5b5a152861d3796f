"""Every public export of every submodule exists."""

import importlib
import pkgutil

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
