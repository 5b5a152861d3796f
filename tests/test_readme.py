"""The README's Python examples run, in order, in one namespace, and its table of
scalar twins names exactly the twins in the code."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hadamard

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = Path(hadamard.__file__).parent


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_blocks_found():
    assert len(python_blocks(README.read_text(encoding="utf-8"))) >= 3


def test_examples_run():
    namespace = {}
    for i, block in enumerate(python_blocks(README.read_text(encoding="utf-8"))):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


# Each scalar method and the block method it is the one-row case of.
BLOCK_OF = {"payload_distance": "distances", "payload_interpolate": "interpolate",
            "_project_payload": "project_block", "apply": "apply_block", "sample": "sample_block",
            "_mean": "_block_mean"}


def scalar_twins() -> dict:
    """``Class.method`` -> method, for every scalar method that a library class defines
    beside its block method, unless it is abstract or derived from that block method."""
    twins = {}
    for info in pkgutil.iter_modules(hadamard.__path__):
        module = importlib.import_module(f"hadamard.{info.name}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            for scalar, block in BLOCK_OF.items():
                if scalar in vars(cls) and block in vars(cls):
                    method = vars(cls)[scalar]
                    source = inspect.getsource(method)
                    if "NotImplementedError" not in source and f"self.{block}(" not in source:
                        twins[f"{cls.__name__}.{scalar}"] = method
    return twins


def twin_table(text: str) -> list[str]:
    """The first column of the README's table of scalar twins."""
    table = text.split("\n| scalar twin |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `(\w+\.\w+)` \|", table, flags=re.MULTILINE)


def test_twin_table_is_the_code():
    twins = scalar_twins()
    assert {"Euclidean.payload_distance", "Projection.apply"} <= set(twins)
    rows = twin_table(README.read_text(encoding="utf-8"))
    assert sorted(rows) == sorted(twins)
    # each twin gives its reason in the code, and only twins do
    for name, method in twins.items():
        assert (inspect.getcomments(method) or "").startswith("# Scalar twin kept:"), name
    marks = sum(p.read_text(encoding="utf-8").count("# Scalar twin kept:")
                for p in SOURCES.glob("*.py"))
    assert marks == len(twins)
