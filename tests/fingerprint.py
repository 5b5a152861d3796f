"""Print SHA-256 fingerprints of the library's shipped outputs.

Run as ``python tests/fingerprint.py`` from any directory; it imports the
``hadamard`` package of the checkout it sits in.  It prints one line per
seed of ``default_suite(samples=1000)`` (0, 1 and 1009), hashing each
result's kind, label, space, worst defect in float hex and witness
spelled bit for bit, and one line per shipped scenario, hashing the
files the run writes, its exit code and its printed text without the
timing figures.  Two checkouts that print the same lines computed the
same bits.  Each suite line also counts the witnesses that reproduce
their defect through ``reevaluate_witness``; all of them should.

``tests/golden/fingerprints.txt`` holds the committed printout, and
``tests/test_golden.py`` compares it with a fresh one.  A change that
moves a line rewrites the file with
``python tests/fingerprint.py > tests/golden/fingerprints.txt``.
"""

import contextlib
import hashlib
import io
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from hadamard import Point, cli, default_suite, reevaluate_witness, run_check  # noqa: E402

SEEDS = (0, 1, 1009)
# the elapsed time and rate of a certifier line, and the suite's wall time
_TIMING = re.compile(r"; [^;()]* s, [^()]* samples/s\)|wall time: .*")
# a scenario's subcommand by its algorithm, as the CI scenario step picks it
_COMMAND = {"certify": "certify", "barycenter": "mean"}


def exact(value) -> str:
    """A witness entry with every float in hex, signed zeros included."""
    if isinstance(value, Point):
        return f"{value.space.describe()}:{exact(value.payload)}"
    if isinstance(value, np.ndarray):
        return "[" + ",".join(float(v).hex() for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ";".join(exact(v) for v in value) + ")"
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "edge"):
        return f"{value.edge}@{float(value.offset).hex()}"
    return repr(value)


def suite_line(seed: int) -> str:
    digest = hashlib.sha256()
    specs = default_suite(seed=seed, samples=1000)
    reproduced = 0
    for spec in specs:
        r = run_check(spec)
        digest.update(f"{r.kind}|{r.label}|{r.space}|{r.worst_defect.hex()}|"
                      f"{exact(r.witness)}\n".encode())
        again = reevaluate_witness(spec, r.witness)
        reproduced += again == r.worst_defect or (math.isnan(again)
                                                  and math.isnan(r.worst_defect))
    return (f"suite seed {seed}: {digest.hexdigest()} "
            f"({len(specs)} results, {reproduced} witnesses reproduced)")


def scenario_line(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    algorithm = re.search(r"^\s*algorithm\s*=\s*(\S+)", text, re.M).group(1)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main([_COMMAND.get(algorithm, "run"), str(path)])
            files = {name: Path(name).read_bytes() for name in sorted(os.listdir(work))}
        finally:
            os.chdir(here)
    digest = hashlib.sha256()
    for name, data in files.items():
        digest.update(name.encode() + b"\0" + data + b"\0")
    printed = _TIMING.sub("", out.getvalue() + err.getvalue())
    digest.update(f"exit {status}\n{printed}".encode())
    return f"{path.name}: {digest.hexdigest()} (exit {status}, {len(files)} file(s))"


def lines() -> list[str]:
    """The printed lines: the suite seeds in order, then the scenarios by file name."""
    return ([suite_line(seed) for seed in SEEDS]
            + [scenario_line(path) for path in sorted((ROOT / "scenarios").glob("*.scn"))])


def main() -> None:
    print("\n".join(lines()))


if __name__ == "__main__":
    main()
