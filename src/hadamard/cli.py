"""Scenario-driven command line: run projection algorithms, certify, average.

Exit codes: 0 success, 2 scenario parse/validation error or any other
library error, 3 convergence failure, 4 failed certifier check, 5 I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .barycenter import WeightedPoints, frechet_mean, frechet_objective
from .certifier import run_suite, space_suite
from .errors import ConvergenceFailureError, HadamardError, ScenarioError
from .iterations import (
    CONVERGED,
    approximate_shadows,
    averaged_projections,
    cyclic_projections,
    fixed_point_iterate,
    technical_condition_gaps,
)
from .operators import Composition, Projection
from .scenario import _FLAGS, Scenario, parse_scenario, point_spec

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it unchanged."""
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
        for flag, (_, flag_help) in _FLAGS.items():
            p.add_argument(flag, dest=flag, metavar="VALUE", help=flag_help)
    sub.add_parser("version", help="print the package version")
    return parser


def _write(path: str, writer) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer(fh)


def run_scenario(scenario: Scenario) -> int:
    """Run a parsed scenario: write its artifact, print a summary.

    Dispatches on the scenario's algorithm, writes the trace CSV, the
    certifier report CSV, or the barycenter CSV to the scenario's
    output path, and returns the process exit status (0 on
    convergence/pass, 2 on any other library error, 3 on convergence
    failure, 4 on a failed check, 5 on I/O trouble).  Every setting of
    the run, flag overrides included, is a field of the scenario.
    """
    try:
        if scenario.algorithm == "certify":
            return _run_certify(scenario)
        if scenario.algorithm == "barycenter":
            return _run_mean(scenario)
        return _run_trace(scenario)
    except HadamardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE if isinstance(exc, ConvergenceFailureError) else EXIT_PARSE
    except OSError as exc:  # from _write, the one file a run opens
        print(f"error: cannot write '{scenario.output_path}': {exc}", file=sys.stderr)
        return EXIT_IO


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
    if scenario.algorithm != "fixedpoint":
        if len(trace.points) > _SHADOW_LIMIT:
            gap_note = (f"  shadow diagnostics skipped: {len(trace.points)} trace points "
                        f"exceed the limit of {_SHADOW_LIMIT}\n")
        else:
            try:
                gaps = technical_condition_gaps(approximate_shadows(trace, run_sets))
                # the probes start at the last shadow, so the last gap is 0
                largest = max(gaps)
                gap_note = (f"  largest monitored shadow gap: {largest:.3e} "
                            f"at iterate {gaps.index(largest)}\n")
            except HadamardError as exc:
                gap_note = f"  shadow diagnostics skipped: inner solve failed: {exc}\n"

    _write(scenario.output_path, trace.to_csv)
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
    _write(scenario.output_path, report.to_csv)
    print(report.to_text(), end="")
    print(f"report written to {scenario.output_path}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _run_mean(scenario: Scenario) -> int:
    weights = scenario.weights
    if weights is None:
        n = len(scenario.mean_points)
        weights = [1.0 / n] * n
    wp = WeightedPoints(scenario.mean_points, weights)
    mean = frechet_mean(wp, scenario.step_tol)
    objective = frechet_objective(wp, mean)

    def writer(fh):
        fh.write("point,objective\n")
        fh.write(f"\"{point_spec(mean)}\",{objective:.17g}\n")

    _write(scenario.output_path, writer)
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
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    overrides = {flag: vars(args)[flag] for flag in _FLAGS if vars(args)[flag] is not None}
    try:
        scenario = parse_scenario(text, overrides)
    except ScenarioError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    expected = _COMMAND_ALGORITHM[args.command]
    if expected is not None and scenario.algorithm != expected:
        print(f"error: scenario algorithm is '{scenario.algorithm}', expected '{expected}'",
              file=sys.stderr)
        return EXIT_PARSE
    return run_scenario(scenario)


if __name__ == "__main__":
    sys.exit(main())
