#!/usr/bin/env python3
"""Benchmark of the hadamard library: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The command builds nothing: it imports ``hadamard`` from ``src/`` of the
checkout it lives in, and exits with status 2 if that is missing.

A parent process spawns fresh child processes.  Several children only
set up (import, generate the inputs from the seed, build spaces, sets and
trees) so that ``setup_s`` is a median over process starts; the last one
also runs the closed loop (one client, no threads): passes over a fixed
list of operations for ``--seconds``, at least three whole ones.  Each
operation's latency is the median of its times over the passes.  Short
bursts of a fixed reference kernel run between operations
(``calibrate.py``), and every time, set-up included, is rescaled to the
speed at which that kernel takes ``REFERENCE_MS``; this keeps the slow
phases of a shared host out of the figures.  The record also keeps the
wall-clock figures.
The run then verifies every output in an untimed phase and reports.
With ``--trace 1`` the child instead runs passes untraced for half of
``--seconds``, then one pass with every public library function and
method wrapped (see ``tracing.py``), and reports the per-layer metrics.

The last line of standard output is the JSON result; the lines before it
name every metric with its unit.  The full record (environment, seed,
input digest, operation counts, percentile sample counts, every failed
operation with its reason) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("certify", "drivers", "trees")
DEFAULT_SEED = 1
SETUP_REPEATS = {"certify": 7, "drivers": 7, "trees": 5}
MIN_PASSES = 3                  # each operation's latency is a median of >= 3
DEADLINE_S = 170.0              # whole command, all children included

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ok/attempted",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the self-tests")
    p.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------


def _spawn(args, mode, deadline):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--child", mode,
           "--spawned-at", repr(time.time())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget spent before the run child started")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=remaining)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} child exited with status {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def orchestrate(args):
    if not (SRC / "hadamard" / "__init__.py").is_file():
        print(f"error: no hadamard package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS[args.workload] - 1):
                setups.append(_spawn(args, "setup", deadline)[1])
        lines, child = _spawn(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = child["record"]
    digests = {s["digest"] for s in setups} | {child["digest"]}
    correct = child["correct"] and len(digests) == 1
    if len(digests) != 1:
        record["failures"].append({"op": None, "kind": "setup",
                                   "reason": "same seed gave different input digests"})
    metrics = child["metrics"]
    if not args.trace:
        samples = [s["setup_s"] for s in setups] + [child["setup_s"]]
        metrics["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
        record["setup_s_samples"] = samples
        record["setup_wall_s_samples"] = [s["setup_wall_s"] for s in setups + [child]]
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "correct": correct,
        "git_commit": _git_commit(), "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
    })
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "record": record}, fh, indent=1)

    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for f in record["failures"]:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['reason']}")
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------
# child
# ---------------------------------------------------------------------


def _import_library():
    sys.path.insert(0, str(SRC))
    import hadamard
    import hadamard.cli  # noqa: F401  (bound as hadamard.cli for the drivers)
    if not Path(hadamard.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hadamard imported from {hadamard.__file__}, not {SRC}")
    return hadamard


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Done(NamedTuple):
    op: object
    start: float
    end: float
    out: object
    err: str | None


def _run_op(workload, op):
    start = time.perf_counter()
    try:
        out, err = workload.run(op), None
    except Exception as exc:  # every failure is counted and reported
        out, err = None, f"{type(exc).__name__}: {exc}"
    return Done(op, start, time.perf_counter(), out, err)


def _run_pass(workload):
    return [_run_op(workload, op) for op in workload.ops]


def _closed_loop(workload, seconds, speedometer):
    """Passes over the operation list until ``seconds`` have passed.

    At least ``MIN_PASSES`` whole passes run; after them the loop stops at
    the deadline, so the last pass may be partial.
    """
    passes, durations = [], []
    cpu = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    speedometer.tick()
    while True:
        done, t0 = [], time.perf_counter()
        for op in workload.ops:
            if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
                break
            done.append(_run_op(workload, op))
            speedometer.tick()
        if done:
            passes.append(done)
            durations.append(time.perf_counter() - t0)
        if len(done) < len(workload.ops):
            return passes, durations, time.perf_counter() - start, time.process_time() - cpu


def _check(workload, passes):
    """Every failed execution with its reason.

    An execution fails if it raised, if its output differs from the same
    operation's output in the first pass, or if verification rejects it.
    Every output of the first pass is verified; a later output equal to
    its first-pass output shares that verdict.
    """
    first, verdicts = passes[0], []
    for d in first:
        err = d.err
        if err is None:
            try:
                err = workload.verify(d.op, d.out)
            except Exception as exc:  # a verifier crash is a failed check
                err = f"verification raised {type(exc).__name__}: {exc}"
        verdicts.append(err)
    failures = []
    for n, done in enumerate(passes):
        for d, d0, verdict in zip(done, first, verdicts):
            err = d.err
            if err is None and n and d.out != d0.out:
                err = "output differs from the first pass"
            if err is None:
                err = verdict
            if err is not None:
                failures.append({"op": d.op.index, "pass": n, "kind": d.op.kind,
                                 "reason": err})
    reason = workload.spot_check()
    if reason:
        failures.append({"op": None, "pass": None, "kind": "reference", "reason": reason})
    return failures


def _percentiles(latencies):
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return p50, p90, sum(1 for x in latencies if x > p90)


def child(args):
    H = _import_library()
    import numpy as np
    from calibrate import REFERENCE_MS, Speedometer, scale_now
    from tracing import Tracer
    from workloads import WORKLOADS as CLASSES

    workdir = None
    kwargs = {}
    if args.workload == "drivers":
        workdir = OUT / f"drivers-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        kwargs["workdir"] = str(workdir)
    try:
        setup_tracer = Tracer() if args.trace else None
        if setup_tracer:
            setup_tracer.install()
        workload = CLASSES[args.workload](H, args.seed, args.size, **kwargs)
        workload.setup()
        if setup_tracer:
            setup_tracer.uninstall()
        setup_wall_s = time.time() - args.spawned_at
        setup_s = setup_wall_s * scale_now()
        if args.child == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                              "digest": workload.digest}))
            return 0
        if workdir is not None:
            os.chdir(workdir)
        if args.trace:
            return _traced_child(args, workload, setup_tracer, setup_s)
        speedometer = Speedometer()
        passes, pass_s, elapsed, cpu_s = _closed_loop(workload, args.seconds, speedometer)
        peak = _peak_rss_mb()
        verify_start = time.perf_counter()
        failures = _check(workload, passes)
        verify_s = time.perf_counter() - verify_start
    finally:
        os.chdir(ROOT)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    # each operation's latency is the median over the passes of its time
    # rescaled to the reference speed; the median keeps short bursts of
    # interference out of the percentiles and out of the throughput of a
    # pass built from those latencies
    per_op, per_op_wall = [], []
    for k in range(len(workload.ops)):
        runs = [done[k] for done in passes if k < len(done)]
        per_op.append(statistics.median(
            (d.end - d.start) * speedometer.scale(d.start, d.end) for d in runs))
        per_op_wall.append(statistics.median(d.end - d.start for d in runs))
    p50, p90, beyond = _percentiles(per_op)
    wall_p50, wall_p90, _ = _percentiles(per_op_wall)
    kernel_ms = [t * 1e3 for t in speedometer.took]
    attempted = sum(len(done) for done in passes)
    failed = min(len(failures), attempted)
    by_kind = {}
    for op, lat in zip(workload.ops, per_op):
        by_kind.setdefault(op.kind, []).append(lat * 1e3)
    kinds = {k: {"ops": len(v), "p50_ms": statistics.median(v), "max_ms": max(v)}
             for k, v in by_kind.items()}
    metrics = {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": peak,
        "ok_ratio": (attempted - failed) / attempted,
    }
    record = {
        "python": platform.python_version(), "numpy": np.__version__,
        "input_digest": workload.digest, "setup_s_this_process": setup_s,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "ops_per_pass": len(workload.ops), "passes": len(passes), "pass_s": pass_s,
        "ops_by_kind": kinds, "timed_s": elapsed, "timed_cpu_s": cpu_s,
        "latency_samples": len(per_op), "samples_beyond_p90": beyond,
        "verify_s": verify_s, "setup_wall_s_this_process": setup_wall_s,
        "wall_clock": {"ops_per_s": len(per_op_wall) / sum(per_op_wall),
                       "op_p50_ms": wall_p50 * 1e3, "op_p90_ms": wall_p90 * 1e3},
        "reference_kernel": {"reference_ms": REFERENCE_MS, "bursts": len(kernel_ms),
                             "median_ms": statistics.median(kernel_ms),
                             "min_ms": min(kernel_ms), "max_ms": max(kernel_ms)},
        "failures": failures,
    }
    print(json.dumps({
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, "digest": workload.digest,
        "correct": not failures, "attempted": attempted, "failed": failed, "record": record,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


def _traced_child(args, workload, setup_tracer, setup_s):
    import numpy as np
    from tracing import Tracer, layer_metrics, layer_table

    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds / 2:
        t0 = time.perf_counter()
        _run_pass(workload)
        untraced.append(time.perf_counter() - t0)

    tracer = Tracer()
    tracer.install()
    done = []
    t0 = time.perf_counter()
    try:
        for op in workload.ops:
            with tracer.span(f"op.{op.kind}", op=op.index):
                done.append(_run_op(workload, op))
    finally:
        traced = time.perf_counter() - t0
        tracer.uninstall()
    failures = _check(workload, [done])
    artifact_bytes = sum(len(d.out) for d in done if isinstance(d.out, bytes))
    metrics = layer_metrics(tracer, setup_tracer, statistics.median(untraced), traced,
                            artifact_bytes)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    for line in layer_table(tracer):
        print(line)
    attempted = len(done)
    failed = min(len(failures), attempted)
    record = {
        "python": platform.python_version(), "numpy": np.__version__,
        "input_digest": workload.digest, "traced_ops": attempted,
        "untraced_pass_s": untraced, "traced_pass_s": traced,
        "missing_trace_targets": tracer.missing, "spans_file": spans_path.name,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": failures,
    }
    print(json.dumps({
        "setup_s": setup_s, "digest": workload.digest, "correct": not failures,
        "attempted": attempted, "failed": failed, "record": record, "metrics": metrics,
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.child:
        return child(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
