#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Runs ``bench/run.py`` once per seed on each named workload and prints,
per metric, the median and the quartile spread (Q3 - Q1 over the median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them) next to
the bound in ``BENCHMARK.json``.  A spread above a third of its bound is
flagged, since two sets of runs must agree within the bound::

    python3 bench/spread.py --workload drivers --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--seconds", type=float, default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds)],
                                  cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:8s} {name:12s} median {med:12.5g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.3f}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
