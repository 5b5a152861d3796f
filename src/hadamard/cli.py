"""Scenario-driven command line: run projection algorithms, certify, average.

Exit codes: 0 success, 2 scenario parse/validation error or any other
library error, 3 convergence failure, 4 failed certifier check, 5 I/O
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .barycenter import BarycenterConfig, WeightedPoints, frechet_mean, frechet_objective
from .certifier import run_suite, space_suite
from .errors import ConvergenceFailureError, HadamardError, ScenarioError
from .iterations import (
    CONVERGED,
    approximate_shadows,
    attach_shadows,
    averaged_projections,
    cyclic_projections,
    fixed_point_iterate,
    technical_condition_gaps,
)
from .operators import Composition, Projection
from .scenario import _RUN_KEYS, Scenario, parse_scenario, point_spec

__all__ = ["main", "run_scenario"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_CHECK_FAILED = 4
EXIT_IO = 5

# Shadow diagnostics are attached automatically only to short traces;
# the inner solves grow quadratically in the trace length.
_SHADOW_LIMIT = 400

# The scenario algorithm each subcommand accepts; ``run`` takes any.
_COMMAND_ALGORITHM = {"run": None, "certify": "certify", "mean": "barycenter"}

# Each override flag, its argument name and the [run] key it overrides.
# ``--tol`` is also the barycenter's step tolerance, which has no key.
_FLAG_KEYS = (("--seed", "seed", "seed"), ("--max-iter", "max_iter", "max_iter"),
              ("--tol", "tol", "residual_tol"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadamard",
        description="Projection algorithms and inequality certification "
                    "in CAT(0) space models, driven by scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "run the scenario's algorithm and write the iteration trace CSV"),
        ("certify", "run a certifier suite for the scenario's space and sets"),
        ("mean", "solve the scenario's weighted barycenter"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to the scenario file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed (certify)")
        p.add_argument("--max-iter", type=int, default=None,
                       help="override the iteration cap (cyclic, averaged, fixedpoint)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the residual tolerance (cyclic, averaged, "
                            "fixedpoint) or the step tolerance (barycenter)")
    sub.add_parser("version", help="print the package version")
    return parser


def _load_scenario(path: str, algorithm: str | None):
    """Read and parse a scenario, requiring ``algorithm`` unless it is None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return None, EXIT_IO
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, EXIT_PARSE
    if algorithm is not None and scenario.algorithm != algorithm:
        print(f"error: scenario algorithm is '{scenario.algorithm}', expected '{algorithm}'",
              file=sys.stderr)
        return None, EXIT_PARSE
    return scenario, EXIT_OK


def _unused_flag(algorithm: str, args) -> str | None:
    """The first flag given that the scenario's algorithm does not read."""
    for flag, attr, key in _FLAG_KEYS:
        reads = key in _RUN_KEYS[algorithm] or (attr == "tol" and algorithm == "barycenter")
        if getattr(args, attr) is not None and not reads:
            return flag
    return None


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    if args.seed is not None:
        scenario.seed = args.seed
    if scenario.stop is not None and (args.max_iter is not None or args.tol is not None):
        scenario.stop = replace(
            scenario.stop,
            max_iter=args.max_iter if args.max_iter is not None else scenario.stop.max_iter,
            residual_tol=args.tol if args.tol is not None else scenario.stop.residual_tol,
        )
    return scenario


def _write(path: str, writer) -> int:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer(fh)
    except OSError as exc:
        print(f"error: cannot write '{path}': {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def run_scenario(scenario: Scenario, step_tol: float | None = None) -> int:
    """Run a parsed scenario: write its artifact, print a summary.

    Dispatches on the scenario's algorithm, writes the trace CSV, the
    certifier report CSV, or the barycenter CSV to the scenario's
    output path, and returns the process exit status (0 on
    convergence/pass, 2 on any other library error, 3 on convergence
    failure, 4 on a failed check, 5 on I/O trouble).
    """
    try:
        if scenario.algorithm == "certify":
            return _run_certify(scenario)
        if scenario.algorithm == "barycenter":
            return _run_mean(scenario, step_tol)
        return _run_trace(scenario)
    except ConvergenceFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except HadamardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _run_trace(scenario: Scenario) -> int:
    run_sets = [scenario.sets[n] for n in scenario.run_sets]
    if scenario.algorithm == "cyclic":
        trace = cyclic_projections(run_sets, scenario.x0, scenario.stop,
                                   witness=scenario.witness)
    elif scenario.algorithm == "averaged":
        trace = averaged_projections(run_sets, scenario.x0, scenario.stop,
                                     weights=scenario.weights, witness=scenario.witness)
    else:  # fixedpoint: compose the projections, first listed applied first
        op = Composition(tuple(reversed([Projection(c) for c in run_sets])))
        trace = fixed_point_iterate(op, scenario.x0, scenario.stop, witness=scenario.witness)

    gap_note = ""
    if scenario.algorithm != "fixedpoint" and len(trace.points) <= _SHADOW_LIMIT:
        try:
            attach_shadows(trace, approximate_shadows(trace, run_sets), approximate=True)
            gaps = technical_condition_gaps(trace)
            gap_note = f"  monitored shadow gap at termination: {gaps[-1]:.3e}\n"
        except HadamardError:
            pass  # diagnostics stay off for non-intersecting scenarios

    status = _write(scenario.output_path, trace.to_csv)
    if status != EXIT_OK:
        return status
    print(
        f"{scenario.algorithm} run: {trace.iterations} iterations, "
        f"stop reason '{trace.stop_reason}'\n"
        f"  final residual: {trace.final_residual:.6e}\n"
        f"  Fejer violations: {trace.fejer_violations()}"
        f"{' (proxy witness)' if trace.witness_is_proxy else ''}\n"
        f"{gap_note}"
        f"  trace written to {scenario.output_path}"
    )
    return EXIT_OK if trace.stop_reason == CONVERGED else EXIT_CONVERGENCE


def _run_certify(scenario: Scenario) -> int:
    specs = space_suite(
        scenario.space, scenario.sets, scenario.witness,
        scenario.samples, scenario.seed,
        claim_alpha=scenario.claim_alpha, claim_set=scenario.claim_set,
    )
    report = run_suite(specs, suite_seed=scenario.seed)
    status = _write(scenario.output_path, report.to_csv)
    if status != EXIT_OK:
        return status
    print(report.to_text(), end="")
    print(f"report written to {scenario.output_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _run_mean(scenario: Scenario, step_tol: float | None = None) -> int:
    weights = scenario.weights
    if weights is None:
        n = len(scenario.mean_points)
        weights = [1.0 / n] * n
    cfg = BarycenterConfig() if step_tol is None else BarycenterConfig(step_tol=step_tol)
    wp = WeightedPoints(scenario.mean_points, weights)
    mean = frechet_mean(wp, cfg)
    objective = frechet_objective(wp, mean)

    def writer(fh):
        fh.write("point,objective\n")
        fh.write(f"\"{point_spec(mean)}\",{objective:.17g}\n")

    status = _write(scenario.output_path, writer)
    if status != EXIT_OK:
        return status
    print(
        f"barycenter of {len(wp)} points: {point_spec(mean)}\n"
        f"  objective: {objective:.12g}\n"
        f"  written to {scenario.output_path}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(f"hadamard {__version__}")
        return EXIT_OK
    scenario, status = _load_scenario(args.scenario, _COMMAND_ALGORITHM[args.command])
    if scenario is None:
        return status
    flag = _unused_flag(scenario.algorithm, args)
    if flag is not None:
        print(f"error: {flag} does not apply to algorithm '{scenario.algorithm}'",
              file=sys.stderr)
        return EXIT_PARSE
    return run_scenario(_apply_overrides(scenario, args), step_tol=args.tol)


if __name__ == "__main__":
    sys.exit(main())
