#!/usr/bin/env python3
"""Print every benchmark metric, by name and unit, for every workload.

For each workload this runs ``bench/run.py`` untraced (the end-to-end
metrics, outputs verified) and traced (the per-layer metrics and the layer
table: calls, self time and share of operation time per traced function)::

    python3 bench/report.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--workload", action="append",
                   help="workload to report (default: all in BENCHMARK.json)")
    args = p.parse_args(argv)
    status = 0
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            print(f"== {workload}, {'traced' if trace else 'untraced'}, seed {args.seed}",
                  flush=True)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"run failed with status {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            print(f"correct: {result['correct']}, attempted {result['attempted']}, "
                  f"failed {result['failed']}\n", flush=True)
            status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
