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
projection, and the weights.  Every run and every shadow solve is then
one loop, ``_iterate``, over payloads: each later iterate is a
projection or a weighted mean of payloads of that space, built by a
library kernel that runs the checks its point-level twin runs, so the
loop steps, measures and averages payloads without repeating the entry
checks, and makes a ``Point`` only of each iterate it keeps, at the end.
A trace's Fejer gaps and shadow distances likewise check their points'
space once per trace.
``fixed_point_iterate`` keeps the checked ``distance``: a user
``Operator`` may return a point of another space.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .barycenter import _STEP_TOL, _mean_of, _weight_tuple, convex_weights
from .convex_sets import ConvexSet, _HalfspaceFamily, _payload_projections
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
        # ``not v >= 0`` refuses a NaN, which ``v < 0`` lets through
        for name, values in (("residuals", self.residuals), ("steps", self.steps)):
            bad = [v for v in values if not v >= 0]
            if bad:
                raise ConstructionError(f"{name} must be nonnegative, got {bad[0]!r}")
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
        res, gaps, steps = self.residuals, self.fejer_gaps, self.steps
        sd = self.shadow_distances()
        # one format per row, written as one string; "%.17g" spells a float as
        # f"{v:.17g}" does
        if sd is None:
            first, row = "0,%.17g,,,\n" % res[0], "%d,%.17g,%.17g,%.17g,\n"
            cells = [(n, res[n], gaps[n - 1], steps[n - 1]) for n in range(1, len(self.points))]
        else:
            first, row = "0,%.17g,,,%.17g\n" % (res[0], sd[0]), "%d,%.17g,%.17g,%.17g,%.17g\n"
            cells = [(n, res[n], gaps[n - 1], steps[n - 1], sd[n])
                     for n in range(1, len(self.points))]
        stream.write("n,residual,fejer_gap,step,shadow_dist\n" + first
                     + "".join([row % c for c in cells]))


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
    points, residuals, steps, stop_reason = _iterate(sets, _HalfspaceFamily.of(sets), x0, rule,
                                                     weights, True)
    return IterationTrace(points, residuals, steps, stop_reason, witness)


def _iterate(sets, family, x0: Point, rule: StopRule, weights, record: bool):
    """The loop of every projection run: iterate from x0 until ``rule`` stops it.

    Returns the points, the residuals, the steps and the stop reason.
    With ``record`` false it keeps only what the stop rules read (the
    iterates of the last cycle and the last residual), and returns the
    last point alone and no steps.

    The loop steps payloads in their model's loop form
    (``SpaceModel._loop_payload``): coordinate arrays in flat space, lists
    of Python floats on the hyperboloid, tree locations, and pairs of
    factor points in a product.  Each projection is its set's
    ``_project_payload`` and each mean ``barycenter._mean_of``, which take
    the operations their point-level twins take, in the same order, and
    run the checks those twins run on each image and mean they make.  The
    loop makes a point only of each iterate it keeps, at the end: x0
    itself, and one point per iterate that moved.

    Each residual max_i d(x_n, C_i) is ``family.residual`` (one
    matrix-vector product on the payload) when the sets make a
    ``_HalfspaceFamily``; otherwise ``family`` is None, and the residual is
    read off the images P_i x_n, which the next step reuses.  So no
    projection is computed twice at one iterate: a cyclic iterate costs one
    projection on a flat family and K on any other, and an averaged iterate
    costs K.  A projection that
    returns its input (the iterate lies in the set) takes a step of
    exactly 0.0, which is d(x, x) in every model, and leaves the residual
    and the images as they were.  Converged means the residual reached
    ``rule.residual_tol``; stalled means a full cycle (K cyclic iterates, or
    one averaged iterate) moved the iterate by at most ``rule.stall_tol``.

    An unrecorded cyclic run over a flat family, as a shadow solve is,
    steps by the family's unchecked ``images`` and checks only the one
    iterate it keeps, its last, through ``_wrap``.
    """
    # x0, the sets, the witness and the weights were checked on entry, and
    # every later payload is a projection or a mean of earlier ones, so the
    # loop measures payloads of this one space
    space = x0.space
    dist = space._loop_distance
    k = len(sets) if weights is None else 1
    unchecked = family is not None and not record and weights is None
    project = family.images if unchecked else _payload_projections(sets)

    def measure(p):
        """p's residual, and its images under the projections when formed."""
        if family is not None:
            return family.residual(p), None
        images = [f(p) for f in project]
        return max(dist(p, y) for y in images), images

    def advance(n, p, images):
        if weights is None:
            i = (n - 1) % k
            return project[i](p) if images is None else images[i]
        if images is None:
            images = [f(p) for f in project]
        return _mean_of(space, images, weights, _STEP_TOL)

    start = space._loop_payload(x0)
    residual, images = measure(start)
    payloads = [start] if record else deque([start], maxlen=k + 1)
    residuals = [residual]
    steps: list[float] = []
    stop_reason = MAX_ITER
    if residual <= rule.residual_tol:
        return [x0], residuals, steps, CONVERGED
    for n in range(1, rule.max_iter + 1):
        p = payloads[-1]
        try:
            nxt = advance(n, p, images)
        except ConvergenceFailureError as exc:
            raise ConvergenceFailureError(f"iteration {n} failed: {exc}",
                                          last_point=exc.last_point,
                                          objective=exc.objective) from exc
        if nxt is p:
            step = 0.0
        else:
            # a cycle of several maps reads its displacement, not its steps
            step = dist(p, nxt) if record or k == 1 else None
            residual, images = measure(nxt)
        payloads.append(nxt)
        if record:
            steps.append(step)
            residuals.append(residual)
        if residual <= rule.residual_tol:
            stop_reason = CONVERGED
            break
        if n % k == 0:
            # With one map the cycle's displacement is the step just taken.
            moved = step if k == 1 else dist(nxt, payloads[-1 - k])
            if moved <= rule.stall_tol:
                stop_reason = STALLED
                break
    if not record:
        last = payloads[-1]
        if last is start:
            point = x0
        elif unchecked:
            point = space._wrap(last)
        else:
            point = space._loop_point(last)
        return [point], [residual], steps, stop_reason
    # the points: x0, then one per iterate that moved, shared by the iterates that did not
    points = [x0]
    for prev, p in zip(payloads, payloads[1:]):
        points.append(points[-1] if p is prev else space._loop_point(p))
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
    Over a flat family, built once per trace, the inner solves step
    coordinate arrays by the halfspaces' own arithmetic and make a point
    only of their last iterate (see ``_iterate``).
    """
    _require(trace, IterationTrace, "trace")
    points = trace.points
    sets = _run_sets(sets, points[0], None)
    check_same_space(*points)
    family = _HalfspaceFamily.of(sets)
    inner_rule = StopRule(max_iter=100000, residual_tol=1e-10)
    shadows = []
    for x in points:
        last, residuals, _, stop_reason = _iterate(sets, family, x, inner_rule, None, False)
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
    _require(trace, IterationTrace, "trace")
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
    _require(trace, IterationTrace, "trace")
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
