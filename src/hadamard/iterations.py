"""Fixed-point iteration drivers with Fejer and shadow diagnostics.

The drivers record the full run: iterates, set residuals and step
sizes.  A trace computes its Fejer gaps d(x_{n-1}, y) - d(x_n, y)
against its witness y on first read; they are nonnegative for
quasi-nonexpansive iterations when y lies in the target set.
``approximate_shadows`` attaches the shadow sequence (projections of
the iterates onto the intersection of the sets) through an inner
cyclic-projection solve per iterate, and the Cauchy-type shadow
inequality plus the monitored strong-convergence gap are exposed as
diagnostics.

A projection run checks its inputs once, on entry: the starting point
and the witness against every set, the witness as a fixed point of each
projection, and the weights.  Every later point is a projection or a
weighted mean of points of that space, built by a library kernel, so
the loop measures distances on payloads and solves each averaged
iterate's mean without repeating those checks.  A trace's Fejer gaps
and shadow distances likewise check their points' space once per trace.
``fixed_point_iterate`` keeps the checked ``distance``: a user
``Operator`` may return a point of another space.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .barycenter import _STEP_TOL, _mean_of, _weight_tuple, convex_weights
from .convex_sets import ConvexSet, _halfspace_moves, halfspace_residual
from .errors import ConstructionError, ConvergenceFailureError, DomainError
from .geometry import (
    EQ_TOL,
    Point,
    _is_integer,
    _is_tolerance,
    _require,
    check_same_space,
    distance,
    geodesic_point,
)
from .operators import Operator, Projection, _require_fixed

__all__ = [
    "StopRule",
    "IterationTrace",
    "fixed_point_iterate",
    "cyclic_projections",
    "averaged_projections",
    "approximate_shadows",
    "shadow_cauchy_worst_defect",
    "project_to_segment",
    "technical_condition_gaps",
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
        if not _is_integer(self.max_iter):
            raise ConstructionError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ConstructionError("max_iter must be >= 1")
        for name in ("residual_tol", "stall_tol"):
            value = getattr(self, name)
            if not _is_tolerance(value):
                raise ConstructionError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class IterationTrace:
    """Full record of a fixed-point run.

    ``points`` holds x_0 .. x_N; ``residuals`` one value per iterate
    (max distance to the target sets, or d(x, Tx) for plain operator
    runs); ``steps`` the displacements d(x_{n-1}, x_n) for n >= 1.  The
    witness is the user-supplied point when given and otherwise the
    final iterate as a labeled proxy; ``fejer_gaps`` are computed
    against it on first read.  Shadows are optional.
    """

    points: list[Point]
    residuals: list[float]
    steps: list[float]
    stop_reason: str
    witness: Point | None = None
    shadows: list[Point] | None = None
    witness_is_proxy: bool = field(init=False)

    def __post_init__(self):
        n = len(self.points)
        if len(self.residuals) != n or len(self.steps) != n - 1:
            raise ConstructionError("trace lengths are inconsistent")
        if any(r < 0 for r in self.residuals):
            raise ConstructionError("residuals must be nonnegative")
        self.witness_is_proxy = self.witness is None
        if self.witness_is_proxy:
            self.witness = self.points[-1]

    @property
    def iterations(self) -> int:
        return len(self.points) - 1

    @property
    def final_point(self) -> Point:
        return self.points[-1]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    @cached_property
    def fejer_gaps(self) -> list[float]:
        """d(x_{n-1}, y) - d(x_n, y) against the witness y, for n >= 1."""
        dist = check_same_space(*self.points, self.witness).payload_distance
        y = self.witness.payload
        dists = [dist(x.payload, y) for x in self.points]
        return [dists[n - 1] - dists[n] for n in range(1, len(dists))]

    def fejer_violations(self) -> int:
        """The number of Fejer gaps below ``-EQ_TOL``."""
        return sum(1 for g in self.fejer_gaps if g < -EQ_TOL)

    def shadow_distances(self) -> list[float] | None:
        if self.shadows is None:
            return None
        dist = check_same_space(*self.points, *self.shadows).payload_distance
        return [dist(x.payload, s.payload) for x, s in zip(self.points, self.shadows)]

    def to_csv(self, stream) -> None:
        """Write the trace: n, residual, fejer_gap, step, shadow_dist.

        Floats carry 17 significant digits; undefined cells are blank
        (the step and Fejer gap at n = 0, shadow columns when absent).
        """
        def fmt(v):
            return "" if v is None else f"{v:.17g}"

        gaps = self.fejer_gaps
        shadow_d = self.shadow_distances()
        stream.write("n,residual,fejer_gap,step,shadow_dist\n")
        for n in range(len(self.points)):
            gap = gaps[n - 1] if n >= 1 else None
            step = self.steps[n - 1] if n >= 1 else None
            sd = shadow_d[n] if shadow_d is not None else None
            stream.write(
                f"{n},{fmt(self.residuals[n])},{fmt(gap)},{fmt(step)},{fmt(sd)}\n"
            )


def fixed_point_iterate(
    op: Operator, x0: Point, rule: StopRule, witness: Point | None = None
) -> IterationTrace:
    """Iterate x_n = T x_{n-1} until the step is small or the cap is hit.

    The step d(x_{n-1}, x_n) is x_{n-1}'s residual d(x, Tx), so the run
    is declared converged at the first step of at most
    max(residual_tol, stall_tol).  Residuals record d(x_n, T x_n).
    """
    _require(op, Operator, "operator")
    _require(rule, StopRule, "stop rule")
    if witness is not None:
        check_same_space(x0, witness)
        _require_fixed(op, witness)
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
    return IterationTrace(points, residuals, steps, stop_reason, witness)


def _run_sets(sets, x0: Point, witness: Point | None) -> list[ConvexSet]:
    """The sets of a projection run, checked against x0 and the witness."""
    try:
        sets = list(sets)
    except TypeError:
        raise ConstructionError(f"sets must be a list of convex sets, got {sets!r}") from None
    if not sets:
        raise DomainError("need at least one set")
    for c in sets:
        _require(c, ConvexSet, "each set")
        c._check_point(x0)
    if witness is not None:
        check_same_space(x0, witness)
        for c in sets:
            _require_fixed(Projection(c), witness)
    return sets


def _projection_run(sets, x0: Point, rule: StopRule, witness: Point | None,
                    weights=None) -> IterationTrace:
    """Cyclic projections, or with ``weights`` their barycenter, recording set residuals."""
    _require(rule, StopRule, "stop rule")
    points, residuals, steps, stop_reason = _iterate(sets, halfspace_residual(sets), x0, rule,
                                                     weights, True)
    return IterationTrace(points, residuals, steps, stop_reason, witness)


def _iterate(sets, flat_residual, x0: Point, rule: StopRule, weights, record: bool):
    """The loop of every projection run: iterate from x0 until ``rule`` stops it.

    Returns the points, the residuals, the steps and the stop reason.
    With ``record`` false it keeps only what the stop rules read (the
    iterates of the last cycle and the last residual), and returns the
    last point alone and no steps.

    Each residual max_i d(x_n, C_i) is ``flat_residual`` (one matrix-vector
    product on the payload, ``halfspace_residual``) when the sets are
    Euclidean halfspaces; otherwise it is read off the images P_i x_n,
    which the next step reuses.  So no projection is computed twice at one
    iterate: a cyclic iterate costs one projection on a flat family and K
    on any other, and an averaged iterate costs K.  A projection that
    returns its input object (the iterate lies in the set) takes a step of
    exactly 0.0, which is d(x, x) in every model, and leaves the residual
    and the images as they were.  Converged means the residual reached
    ``rule.residual_tol``; stalled means a full cycle (K cyclic iterates, or
    one averaged iterate) moved the iterate by at most ``rule.stall_tol``.

    An unrecorded cyclic run over a flat family, as a shadow solve is,
    iterates coordinate arrays: each step is the halfspace's own payload
    arithmetic, which its ``project`` runs too, so the run takes the same
    floating-point operations in the same order.  Only its last iterate
    becomes a point, through ``_wrap``, which keeps the coordinate bound.
    Every other run iterates points, and makes one of each iterate.
    """
    # x0, the sets, the witness and the weights were checked on entry, and
    # every later point is a projection or a mean of earlier ones, so the
    # loop measures payloads of this one space
    space = x0.space
    payload_distance = space.payload_distance
    k = len(sets) if weights is None else 1
    moves = None if record or weights is not None else _halfspace_moves(sets)

    if moves is not None:
        start, dist = x0.payload, payload_distance

        def measure(p):
            return flat_residual(p), None

        def advance(n, p, images):
            return moves[(n - 1) % k](p)
    else:
        start = x0

        def dist(x, y):
            return payload_distance(x.payload, y.payload)

        def measure(x):
            """x's residual, and its images under the projections when formed."""
            if flat_residual is not None:
                return flat_residual(x.payload), None
            images = [c.project(x) for c in sets]
            p = x.payload
            return max(payload_distance(p, y.payload) for y in images), images

        def advance(n, x, images):
            if weights is None:
                i = (n - 1) % k
                return sets[i].project(x) if images is None else images[i]
            if images is None:
                images = [c.project(x) for c in sets]
            return _mean_of(space, images, weights, _STEP_TOL)

    residual, images = measure(start)
    points = [start] if record else deque([start], maxlen=k + 1)
    residuals = [residual]
    steps: list[float] = []
    stop_reason = MAX_ITER
    if residual <= rule.residual_tol:
        return [x0], residuals, steps, CONVERGED
    for n in range(1, rule.max_iter + 1):
        x = points[-1]
        try:
            nxt = advance(n, x, images)
        except ConvergenceFailureError as exc:
            raise ConvergenceFailureError(f"iteration {n} failed: {exc}",
                                          last_point=exc.last_point,
                                          objective=exc.objective) from exc
        if nxt is x:
            step = 0.0
        else:
            # a cycle of several maps reads its displacement, not its steps
            step = dist(x, nxt) if record or k == 1 else None
            residual, images = measure(nxt)
        points.append(nxt)
        if record:
            steps.append(step)
            residuals.append(residual)
        if residual <= rule.residual_tol:
            stop_reason = CONVERGED
            break
        if n % k == 0:
            # With one map the cycle's displacement is the step just taken.
            moved = step if k == 1 else dist(nxt, points[-1 - k])
            if moved <= rule.stall_tol:
                stop_reason = STALLED
                break
    if not record:
        last = points[-1]
        if moves is not None:
            # the one point the run keeps; x0 is already one
            last = x0 if last is start else space._wrap(last)
        points, residuals = [last], [residual]
    return points, residuals, steps, stop_reason


def cyclic_projections(
    sets, x0: Point, rule: StopRule, witness: Point | None = None
) -> IterationTrace:
    """Project onto the sets in cyclic order: x_n = P_{1 + (n-1 mod N)} x_{n-1}.

    One iterate is a single projection, so iterate nN equals n
    applications of the composed operator P_N ... P_1, and a full cycle
    is N iterates.
    """
    return _projection_run(_run_sets(sets, x0, witness), x0, rule, witness)


def averaged_projections(
    sets, x0: Point, rule: StopRule, weights=None, witness: Point | None = None
) -> IterationTrace:
    """Iterate the barycenter of the projections: x_n = mean_i w_i P_i x_{n-1}.

    Weights default to uniform 1/N.  One iterate is one application of
    the convex combination, which is also a full cycle.  A barycenter
    solve failure aborts the run with the iteration index attached.
    """
    sets = _run_sets(sets, x0, witness)
    weights = [1.0 / len(sets)] * len(sets) if weights is None else _weight_tuple(weights)
    if len(weights) != len(sets):
        raise DomainError(f"{len(sets)} sets but {len(weights)} weights")
    return _projection_run(sets, x0, rule, witness, convex_weights(weights))


def approximate_shadows(trace: IterationTrace, sets) -> IterationTrace:
    """Attach the shadows onto the intersection of the sets; return the trace.

    Each iterate is projected by running cyclic projections from it
    until the inner residual drops below 1e-10, for at most 100 000
    iterations.  The sets are checked once per trace, and each inner
    solve runs the drivers' loop without recording its trace: its final
    point is the one ``cyclic_projections`` from that iterate ends at.
    Over a flat family the inner solves step coordinate arrays by the
    halfspaces' own arithmetic and make a point only of their last
    iterate (see ``_iterate``).
    """
    points = trace.points
    sets = _run_sets(sets, points[0], None)
    check_same_space(*points)
    flat_residual = halfspace_residual(sets)
    inner_rule = StopRule(max_iter=100000, residual_tol=1e-10)
    shadows = []
    for x in points:
        last, residuals, _, stop_reason = _iterate(sets, flat_residual, x, inner_rule, None,
                                                   False)
        if stop_reason != CONVERGED:
            raise ConvergenceFailureError(
                f"inner shadow solve stopped with '{stop_reason}' "
                f"at residual {residuals[-1]:.3e}",
                last_point=last[-1],
            )
        shadows.append(last[-1])
    trace.shadows = shadows
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
    if not trace.witness_is_proxy:
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
