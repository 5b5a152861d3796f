"""Fixed-point iteration drivers with Fejer and shadow diagnostics.

The drivers record the full run: iterates, set residuals, step sizes,
and (given a witness in the target set) the Fejer gaps
d(x_{n-1}, y) - d(x_n, y), which are nonnegative for quasi-nonexpansive
iterations.  Shadow sequences (projections of the iterates onto the
limit set) can be attached exactly from a set descriptor or
approximately via an inner cyclic-projection solve, and the Cauchy-type
shadow inequality plus the monitored strong-convergence gap are exposed
as diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barycenter import WeightedPoints, frechet_mean
from .convex_sets import ConvexSet
from .errors import (
    ConstructionError,
    ConvergenceFailureError,
    DomainError,
    NotAFixedPointError,
)
from .geometry import EQ_TOL, Point, check_same_space, distance, geodesic_point
from .operators import ConvexCombination, Operator, Projection

__all__ = [
    "StopRule",
    "IterationTrace",
    "fixed_point_iterate",
    "cyclic_projections",
    "averaged_projections",
    "shadow_sequence",
    "approximate_shadows",
    "attach_shadows",
    "shadow_cauchy_worst_defect",
    "project_to_segment",
    "technical_condition_gaps",
    "AsymptoticCenterEstimate",
    "asymptotic_center_estimate",
]

CONVERGED = "converged"
MAX_ITER = "maxiter"
STALLED = "stalled"


@dataclass(frozen=True)
class StopRule:
    """Stopping policy: iteration cap, residual target, stall detection."""

    max_iter: int
    residual_tol: float = 1e-8
    stall_tol: float = 1e-12

    def __post_init__(self):
        if self.max_iter < 1:
            raise ConstructionError("max_iter must be >= 1")


@dataclass
class IterationTrace:
    """Full record of a fixed-point run.

    ``points`` holds x_0 .. x_N; ``residuals`` one value per iterate
    (max distance to the target sets, or d(x, Tx) for plain operator
    runs); ``steps`` the displacements d(x_{n-1}, x_n) for n >= 1;
    ``fejer_gaps`` d(x_{n-1}, y*) - d(x_n, y*) against the witness,
    which is the user-supplied point when given and otherwise the final
    iterate as a labeled proxy.  Shadows are optional and marked
    approximate when produced by an inner solve.
    """

    points: list[Point]
    residuals: list[float]
    steps: list[float]
    stop_reason: str
    witness: Point | None = None
    witness_is_proxy: bool = False
    fejer_gaps: list[float] | None = None
    shadows: list[Point] | None = None
    shadows_approximate: bool = False

    def __post_init__(self):
        n = len(self.points)
        if len(self.residuals) != n or len(self.steps) != n - 1:
            raise ConstructionError("trace lengths are inconsistent")
        if any(r < 0 for r in self.residuals):
            raise ConstructionError("residuals must be nonnegative")

    @property
    def iterations(self) -> int:
        return len(self.points) - 1

    @property
    def final_point(self) -> Point:
        return self.points[-1]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    def fejer_violations(self, tol: float = EQ_TOL) -> int:
        if self.fejer_gaps is None:
            return 0
        return sum(1 for g in self.fejer_gaps if g < -tol)

    def shadow_distances(self) -> list[float] | None:
        if self.shadows is None:
            return None
        return [distance(x, s) for x, s in zip(self.points, self.shadows)]

    def to_csv(self, stream) -> None:
        """Write the trace: n, residual, fejer_gap, step, shadow_dist.

        Floats carry 17 significant digits; undefined cells are blank
        (the step and Fejer gap at n = 0, shadow columns when absent).
        """
        def fmt(v):
            return "" if v is None else f"{v:.17g}"

        shadow_d = self.shadow_distances()
        stream.write("n,residual,fejer_gap,step,shadow_dist\n")
        for n in range(len(self.points)):
            gap = self.fejer_gaps[n - 1] if (self.fejer_gaps and n >= 1) else None
            step = self.steps[n - 1] if n >= 1 else None
            sd = shadow_d[n] if shadow_d is not None else None
            stream.write(
                f"{n},{fmt(self.residuals[n])},{fmt(gap)},{fmt(step)},{fmt(sd)}\n"
            )


def _fejer_gaps_against(points: list[Point], witness: Point) -> list[float]:
    dists = [distance(x, witness) for x in points]
    return [dists[n - 1] - dists[n] for n in range(1, len(dists))]


def _finalize(points, residuals, steps, stop_reason, witness) -> IterationTrace:
    trace = IterationTrace(
        points=points,
        residuals=residuals,
        steps=steps,
        stop_reason=stop_reason,
        witness=witness if witness is not None else points[-1],
        witness_is_proxy=witness is None,
    )
    trace.fejer_gaps = _fejer_gaps_against(points, trace.witness)
    return trace


def _check_witness_fixed(ops, witness: Point) -> None:
    for op in ops:
        moved = distance(op.apply(witness), witness)
        if moved > EQ_TOL:
            raise NotAFixedPointError(f"witness is moved by {moved:.3e} under {op.name}")


def fixed_point_iterate(
    op: Operator, x0: Point, rule: StopRule, witness: Point | None = None
) -> IterationTrace:
    """Iterate x_n = T x_{n-1} until the step is small or the cap is hit.

    The step d(x_{n-1}, x_n) is x_{n-1}'s residual d(x, Tx), so the run
    is declared converged at the first step of at most
    max(residual_tol, stall_tol).  Residuals record d(x_n, T x_n).
    """
    if witness is not None:
        check_same_space(x0, witness)
        _check_witness_fixed([op], witness)
    points = [x0]
    steps: list[float] = []
    stop_reason = MAX_ITER
    target = max(rule.residual_tol, rule.stall_tol)
    for _ in range(rule.max_iter):
        nxt = op.apply(points[-1])
        step = distance(points[-1], nxt)
        points.append(nxt)
        steps.append(step)
        if step <= target:
            stop_reason = CONVERGED
            break
    residuals = steps + [distance(points[-1], op.apply(points[-1]))]
    return _finalize(points, residuals, steps, stop_reason, witness)


def _set_residual(sets, x: Point) -> float:
    return max(distance(x, c.project(x)) for c in sets)


def _run_sets(sets, x0: Point, witness: Point | None) -> list[ConvexSet]:
    """The sets of a projection run, checked against x0 and the witness."""
    sets = list(sets)
    if not sets:
        raise DomainError("need at least one set")
    for c in sets:
        if c.space is not x0.space and c.space != x0.space:
            raise DomainError(f"set '{c.name}' lives in a different space")
    if witness is not None:
        check_same_space(x0, witness)
        _check_witness_fixed([Projection(c) for c in sets], witness)
    return sets


def _projection_run(sets, maps, x0: Point, rule: StopRule,
                    witness: Point | None) -> IterationTrace:
    """Iterate x_n = maps[(n-1) mod K] x_{n-1}, recording set residuals.

    Converged means the residual max_i d(x_n, C_i) reached
    ``rule.residual_tol``; stalled means a full cycle of the K maps moved
    the iterate by at most ``rule.stall_tol``.
    """
    points = [x0]
    residuals = [_set_residual(sets, x0)]
    steps: list[float] = []
    stop_reason = MAX_ITER
    if residuals[0] <= rule.residual_tol:
        return _finalize(points, residuals, steps, CONVERGED, witness)
    k = len(maps)
    for n in range(1, rule.max_iter + 1):
        try:
            nxt = maps[(n - 1) % k](points[-1])
        except ConvergenceFailureError as exc:
            raise ConvergenceFailureError(f"iteration {n} failed: {exc}",
                                          last_point=exc.last_point,
                                          objective=exc.objective) from exc
        steps.append(distance(points[-1], nxt))
        points.append(nxt)
        residuals.append(_set_residual(sets, nxt))
        if residuals[-1] <= rule.residual_tol:
            stop_reason = CONVERGED
            break
        if n % k == 0:
            # With one map the cycle's displacement is the step just taken.
            moved = steps[-1] if k == 1 else distance(points[-1], points[-1 - k])
            if moved <= rule.stall_tol:
                stop_reason = STALLED
                break
    return _finalize(points, residuals, steps, stop_reason, witness)


def cyclic_projections(
    sets, x0: Point, rule: StopRule, witness: Point | None = None
) -> IterationTrace:
    """Project onto the sets in cyclic order: x_n = P_{1 + (n-1 mod N)} x_{n-1}.

    One iterate is a single projection, so iterate nN equals n
    applications of the composed operator P_N ... P_1, and a full cycle
    is N iterates.
    """
    sets = _run_sets(sets, x0, witness)
    return _projection_run(sets, [c.project for c in sets], x0, rule, witness)


def averaged_projections(
    sets, x0: Point, rule: StopRule, weights=None, witness: Point | None = None
) -> IterationTrace:
    """Iterate the barycenter of the projections: x_n = mean_i w_i P_i x_{n-1}.

    Weights default to uniform 1/N.  One iterate is one application of
    the convex combination, which is also a full cycle.  A barycenter
    solve failure aborts the run with the iteration index attached.
    """
    sets = _run_sets(sets, x0, witness)
    if weights is None:
        weights = [1.0 / len(sets)] * len(sets)
    if len(weights) != len(sets):
        raise DomainError(f"{len(sets)} sets but {len(weights)} weights")
    combo = ConvexCombination(weights, [Projection(c) for c in sets])
    return _projection_run(sets, [combo.apply], x0, rule, witness)


def shadow_sequence(trace: IterationTrace, c: ConvexSet) -> list[Point]:
    """Exact shadows P_C x_n of the trace under a closed-form set."""
    for x in trace.points:
        if c.space is not x.space and c.space != x.space:
            raise DomainError("shadow set lives in a different space")
    return [c.project(x) for x in trace.points]


def approximate_shadows(trace: IterationTrace, sets) -> list[Point]:
    """Shadows onto the intersection of the sets via an inner cyclic solve.

    Used when no closed-form descriptor of the intersection exists; each
    iterate is projected by running cyclic projections from it until the
    inner residual drops below 1e-10, for at most 100 000 projections.
    """
    inner_rule = StopRule(max_iter=100000, residual_tol=1e-10)
    shadows = []
    for x in trace.points:
        inner = cyclic_projections(sets, x, inner_rule)
        if inner.stop_reason != CONVERGED:
            raise ConvergenceFailureError(
                f"inner shadow solve stopped with '{inner.stop_reason}' "
                f"at residual {inner.final_residual:.3e}",
                last_point=inner.final_point,
            )
        shadows.append(inner.final_point)
    return shadows


def attach_shadows(trace: IterationTrace, shadows, approximate: bool) -> IterationTrace:
    if len(shadows) != len(trace.points):
        raise DomainError("one shadow per iterate required")
    trace.shadows = list(shadows)
    trace.shadows_approximate = approximate
    return trace


def shadow_cauchy_worst_defect(trace: IterationTrace) -> float:
    """Worst slack in d(sh_m, sh_n)^2 <= d(x_n, sh_n)^2 - d(x_m, sh_m)^2, m >= n.

    The projection inequality combined with Fejer monotonicity forces
    this for shadows onto the limit set; a defect far below zero flags a
    broken shadow sequence.
    """
    if trace.shadows is None:
        raise DomainError("trace has no shadows attached")
    pts, sh = trace.points, trace.shadows
    gaps = [distance(x, s) ** 2 for x, s in zip(pts, sh)]
    worst = math.inf
    for n in range(len(pts)):
        for m in range(n + 1, len(pts)):
            defect = gaps[n] - gaps[m] - distance(sh[m], sh[n]) ** 2
            worst = min(worst, defect)
    return worst if worst is not math.inf else 0.0


def project_to_segment(p: Point, q: Point, z: Point) -> Point:
    """Nearest point to z on the geodesic segment [p, q].

    t -> d(gamma(t), z) is convex, so a golden-section search on [0, 1]
    localizes the minimizer to parameter accuracy 1e-12.
    """
    check_same_space(p, q, z)
    if distance(p, q) == 0.0:
        return p
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    t1 = hi - inv_phi * (hi - lo)
    t2 = lo + inv_phi * (hi - lo)
    f1 = distance(geodesic_point(p, q, t1), z)
    f2 = distance(geodesic_point(p, q, t2), z)
    while hi - lo > 1e-12:
        if f1 <= f2:
            hi, t2, f2 = t2, t1, f1
            t1 = hi - inv_phi * (hi - lo)
            f1 = distance(geodesic_point(p, q, t1), z)
        else:
            lo, t1, f1 = t1, t2, f2
            t2 = lo + inv_phi * (hi - lo)
            f2 = distance(geodesic_point(p, q, t2), z)
    return geodesic_point(p, q, 0.5 * (lo + hi))


def technical_condition_gaps(trace: IterationTrace) -> list[float]:
    """Monitored strong-convergence gaps along probe geodesics.

    For probe geodesics gamma from the estimated limit (the last shadow)
    to points of the limit set (a subsample of about eight shadows plus
    the witness) more than ``EQ_TOL`` away, reports per iterate the
    largest value of d(x_n, P_gamma sh_n) - d(x_n, sh_n).  These gaps are
    nonnegative and their decay toward the end of a run supports strong
    convergence of the shadows; they are reported only and never gate
    termination.
    """
    if trace.shadows is None:
        raise DomainError("trace has no shadows attached")
    pts, sh = trace.points, trace.shadows
    anchor = sh[-1]
    targets = list(sh[::max(1, len(sh) // 8)])
    if trace.witness is not None and not trace.witness_is_proxy:
        targets.append(trace.witness)
    # A probe no longer than EQ_TOL moves the gap by at most its length,
    # while its segment search costs as much as a long probe's.
    probes = [t for t in targets if distance(anchor, t) > EQ_TOL]
    gaps = []
    for x, s in zip(pts, sh):
        base = distance(x, s)
        worst = 0.0
        for target in probes:
            proj = project_to_segment(anchor, target, s)
            worst = max(worst, distance(x, proj) - base)
        gaps.append(worst)
    return gaps


@dataclass(frozen=True)
class AsymptoticCenterEstimate:
    """Minimax center estimate over a finite candidate pool.

    ``heuristic`` is always True: the pool (tail points, their pairwise
    midpoints, and the uniform tail mean) need not contain the true
    asymptotic center, so this is a diagnostic, not a certificate.
    """

    center: Point
    radius: float
    pool_size: int
    heuristic: bool = True


def asymptotic_center_estimate(points, tail_start: int) -> AsymptoticCenterEstimate:
    """Estimate the asymptotic center of a sequence from its tail.

    Scores every candidate by max_{n >= tail_start} d(c, x_n) and keeps
    the best, breaking ties toward the earliest candidate.  Candidates:
    the tail points themselves, all pairwise geodesic midpoints of the
    tail, and the uniform barycenter of the tail.
    """
    points = list(points)
    if not 0 <= tail_start < len(points):
        raise DomainError(
            f"tail_start {tail_start} outside [0, {len(points) - 1}]"
        )
    tail = points[tail_start:]
    pool: list[Point] = list(tail)
    for i in range(len(tail)):
        for j in range(i + 1, len(tail)):
            pool.append(geodesic_point(tail[i], tail[j], 0.5))
    pool.append(frechet_mean(WeightedPoints(tail, [1.0 / len(tail)] * len(tail))))
    best_idx = 0
    best_score = math.inf
    for idx, cand in enumerate(pool):
        score = max(distance(cand, x) for x in tail)
        if score < best_score:
            best_idx, best_score = idx, score
    return AsymptoticCenterEstimate(
        center=pool[best_idx], radius=best_score, pool_size=len(pool)
    )
