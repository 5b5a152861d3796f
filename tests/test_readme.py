"""The README's Python examples run, in order, in one namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_blocks_found():
    assert len(python_blocks(README.read_text(encoding="utf-8"))) >= 3


def test_examples_run():
    namespace = {}
    for i, block in enumerate(python_blocks(README.read_text(encoding="utf-8"))):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
