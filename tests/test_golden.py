"""Golden outputs: the fingerprints of the shipped outputs match the committed file.

``tests/golden/fingerprints.txt`` is the printout of ``tests/fingerprint.py``:
one SHA-256 per ``default_suite(samples=1000)`` seed and one per shipped
scenario.  A change that moves a line rewrites the file with
``python tests/fingerprint.py > tests/golden/fingerprints.txt`` and tables
the moved values in ``CHANGES.md``.
"""

from pathlib import Path

import fingerprint

GOLDEN = Path(__file__).resolve().parent / "golden" / "fingerprints.txt"


def _by_name(lines) -> dict[str, str]:
    """Each line keyed by what it fingerprints: "suite seed 0", "cyclic_halfspaces.scn", ..."""
    return dict(line.split(": ", 1) for line in lines)


def test_fingerprints_match_golden():
    golden = _by_name(GOLDEN.read_text(encoding="utf-8").splitlines())
    fresh = _by_name(fingerprint.lines())
    moved = [f"{name}: committed {golden.get(name, '(none)')}, "
             f"computed {fresh.get(name, '(none)')}"
             for name in sorted(golden.keys() | fresh.keys())
             if golden.get(name) != fresh.get(name)]
    assert not moved, "fingerprints differ from tests/golden/fingerprints.txt:\n" + "\n".join(moved)
