"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest bench/test_bench.py``.

They check that every workload runs and reports every metric named in
``BENCHMARK.json`` with its unit, that inputs follow the seed byte for
byte, that the verification phase catches an injected fault, and that the
command refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SELFTEST_DIR = ROOT / ".bench_out" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hadamard  # noqa: E402
import hadamard.cli  # noqa: E402,F401
from calibrate import REFERENCE_MS, Speedometer  # noqa: E402
from tracing import rebind  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture
def workdir(monkeypatch):
    path = SELFTEST_DIR / "work"
    path.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _workload(name, seed, workdir):
    kwargs = {"workdir": str(workdir)} if name == "drivers" else {}
    w = WORKLOADS[name](hadamard, seed, "tiny", **kwargs)
    w.setup()
    return w


def _failures(w):
    reasons = []
    for op in w.ops:
        try:
            reason = w.verify(op, w.run(op))
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason:
            reasons.append(reason)
    return reasons


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_reported_with_its_unit(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        n: m["unit"] for n, m in result["metrics"].items()}


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name, workdir):
    first = _workload(name, 5, workdir)
    again = _workload(name, 5, workdir)
    other = _workload(name, 6, workdir)
    assert first.digest == again.digest
    assert first.digest != other.digest


@pytest.mark.parametrize("name", NAMES)
def test_verification_catches_a_scaled_distance(name, workdir):
    w = _workload(name, 7, workdir)
    assert _failures(w) == []
    original = hadamard.geometry.distance

    def scaled(p, q):
        return original(p, q) * (1.0 + 1e-6)

    rebind(original, scaled)
    try:
        assert _failures(w), "an injected 1e-6 distance error went unnoticed"
    finally:
        rebind(scaled, original)


def test_rescaling_uses_the_bursts_near_an_operation():
    meter = Speedometer(window_s=1.0, least=3)
    meter.at = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    ref = REFERENCE_MS * 1e-3
    meter.took = [ref, ref, ref, 2 * ref, 2 * ref, 4 * ref]
    # a slow phase near t = 11 halves the operation's rescaled time
    assert meter.scale(10.5, 11.5) == pytest.approx(0.5)
    assert meter.scale(0.5, 1.5) == pytest.approx(1.0)
    # no burst within the window: the three around its middle, t = 2, 10, 11
    assert meter.scale(5.9, 6.1) == pytest.approx(0.5)


def test_refuses_to_run_without_the_sources():
    bare = SELFTEST_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "certify", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
