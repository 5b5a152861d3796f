"""Weighted Frechet means: convex combinations of finitely many points.

The mean of points x_i with weights w_i is the unique minimizer of
F(x) = sum_i w_i d(x, x_i)^2, which exists because F is strongly convex
with parameter 2 in any Hadamard space.  One point is its own mean and
two points meet at the geodesic point at parameter w_2.  Three or more
go to the model's own solver, its ``_mean`` method:

* Euclidean: the coordinate-wise weighted average, the one-row case
  of the block solver below.
* Product spaces: the objective separates, so the mean is the pair of
  the factors' means.
* Metric trees: F restricted to one edge is a single quadratic in the
  arc-length coordinate, so the global minimizer is found exactly by
  scanning edges.
* Hyperboloid: a Weiszfeld-style fixed point of the stationarity
  condition, renormalizing the tangent-weighted ambient average.

Each model has one mean solver.  ``_block_mean`` solves many instances
at once: the flat one is vectorised, and every other model's loops its
``_mean`` over the rows.  ``_frechet_means`` is the block form of
``frechet_mean`` that the certifier and ``ConvexCombination.apply_block``
call.

``inductive_mean_sweeps`` keeps a slower interpolation-only reference
iteration around; the tests use it as an independent cross-check.
"""

from __future__ import annotations

import math

from .errors import ConstructionError, DomainError
from .geometry import (
    _SWEEP_LIMIT,
    Point,
    SpaceModel,
    _is_integer,
    _is_tolerance,
    _real_vector,
    check_same_space,
    distance,
    geodesic_point,
)

__all__ = [
    "WeightedPoints",
    "convex_weights",
    "frechet_objective",
    "frechet_mean",
    "variance_defect",
    "inductive_mean_sweeps",
]

_WEIGHT_SUM_TOL = 1e-12

# Default step tolerance of the iterative solvers.
_STEP_TOL = 1e-10


def _weight_tuple(weights) -> tuple:
    """The weights, a real vector of one axis, as a tuple of floats not yet range-checked."""
    values = _real_vector(weights, ConstructionError, "weights must be real numbers")
    if values.ndim != 1:
        raise ConstructionError(f"weights must be one list of real numbers, got {weights!r}")
    return tuple(values.tolist())


def convex_weights(weights) -> tuple[float, ...]:
    """A real vector of weights as floats, checked finite, nonnegative and summing to 1."""
    values = _weight_tuple(weights)
    if not all(0.0 <= w < math.inf for w in values):
        raise ConstructionError("weights must be finite and nonnegative")
    total = math.fsum(values)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ConstructionError(f"weights must sum to 1, got {total!r}")
    return values


class WeightedPoints:
    """A nonempty list of points in one space with convex weights."""

    __slots__ = ("points", "weights", "space")

    def __init__(self, points, weights):
        points = tuple(points)
        weights = _weight_tuple(weights)
        if not points:
            raise ConstructionError("need at least one point")
        if len(points) != len(weights):
            raise ConstructionError(f"{len(points)} points but {len(weights)} weights")
        weights = convex_weights(weights)
        space = check_same_space(*points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedPoints is immutable")

    def __len__(self):
        return len(self.points)


def _check_step_tol(step_tol: float) -> None:
    if not _is_tolerance(step_tol):
        raise DomainError(f"step_tol must be finite and >= 0, got {step_tol}")


def _require_points(wp, site: str) -> None:
    if not isinstance(wp, WeightedPoints):
        raise ConstructionError(f"{site} needs WeightedPoints, got {wp!r}")


def frechet_objective(wp: WeightedPoints, x: Point) -> float:
    """F(x) = sum_i w_i d(x, x_i)^2."""
    _require_points(wp, "frechet_objective")
    check_same_space(x, wp.points[0])
    return math.fsum(
        w * distance(x, p) ** 2 for w, p in zip(wp.weights, wp.points)
    )


def variance_defect(wp: WeightedPoints, x_star: Point, y: Point) -> float:
    """Slack in the strong-convexity bound F(x*) + d(x*, y)^2 <= F(y).

    Nonnegative for every challenger y exactly when x_star is the true
    minimizer, since F is strongly convex with parameter 2.
    """
    _require_points(wp, "variance_defect")
    check_same_space(x_star, y, *wp.points)
    return _variance(distance, wp.points, wp.weights, x_star, y)


def _variance(dist, points, weights, x_star, y):
    """The variance defect through ``dist``; ``points`` are the instance's points.

    With a block's ``distances``, ``points`` and ``x_star`` are blocks that
    repeat one point per row.  F is summed left to right, the same in both
    forms: the builtin ``sum`` compensates float sums from Python 3.12 on.
    """
    def objective(x):
        total = 0.0
        for w, p in zip(weights, points):
            total = total + w * dist(x, p) ** 2
        return total

    return objective(y) - objective(x_star) - dist(x_star, y) ** 2


def _drop_zero_weights(points, weights):
    """The points with positive weights, and those weights."""
    if all(w > 0.0 for w in weights):
        return points, weights
    return tuple(zip(*[(p, w) for p, w in zip(points, weights) if w > 0.0]))


def frechet_mean(wp: WeightedPoints, step_tol: float = _STEP_TOL) -> Point:
    """The weighted barycenter w_1 x_1 (+) ... (+) w_n x_n.

    Zero-weight points are ignored.  An iterative model solver stops
    once a step moves the iterate by at most ``step_tol`` and raises
    ``ConvergenceFailureError`` (carrying the last iterate and
    objective) if it has not after 200 steps.
    """
    _check_step_tol(step_tol)
    _require_points(wp, "frechet_mean")
    space = wp.space
    payloads = [space._loop_payload(p) for p in wp.points]
    mean = _mean_of(space, payloads, wp.weights, step_tol)
    # a mean that is one of the points (one point, or an end of a geodesic) is that point
    for p, q in zip(wp.points, payloads):
        if q is mean:
            return p
    return space._loop_point(mean)


def _mean_of(space: SpaceModel, payloads, weights, step_tol: float):
    """``frechet_mean`` on loop payloads of ``space`` with convex float ``weights``.

    Returns one of the payloads itself when the mean is that point: the
    only one of positive weight, or an end of the geodesic between two.
    """
    payloads, weights = _drop_zero_weights(payloads, weights)
    if len(payloads) == 1:
        return payloads[0]
    if len(payloads) == 2:
        p, q = payloads
        w1, w2 = weights
        t = w2 / (w1 + w2)
        # the geodesic point, as ``geodesic_point`` takes it: the ends themselves at t = 0, 1
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        return space._loop_interpolate(p, q, t)
    return space._mean(payloads, weights, step_tol)


def _frechet_means(space, blocks, weights):
    """Row r is ``frechet_mean`` of row r of the k ``blocks`` with weights ``weights[r]``.

    ``weights`` is an (m, k) array of positive rows.  One block is its own
    mean, two meet at ``space.interpolate``, and three or more go to the
    model's block solver, ``_block_mean``, the rowwise twin of ``_mean``.
    """
    if len(blocks) == 1:
        return blocks[0]
    if len(blocks) == 2:
        return space.interpolate(blocks[0], blocks[1],
                                 weights[:, 1] / (weights[:, 0] + weights[:, 1]))
    return space._block_mean(blocks, weights, _STEP_TOL)


def _next_sweep(weights, counts, visits_done, sweep_size):
    """One sweep of visits, keeping cumulative counts close to the quotas.

    Each visit goes to the index with the largest deficit against its
    ideal cumulative share, so long-run visit frequencies converge to
    the weights (within one visit at all times).
    """
    order = []
    k = visits_done
    for _ in range(sweep_size):
        k += 1
        i = max(range(len(weights)), key=lambda j: (k * weights[j] - counts[j], -j))
        counts[i] += 1
        order.append(i)
    return order


def inductive_mean_sweeps(wp: WeightedPoints, sweeps: int = _SWEEP_LIMIT,
                          step_tol: float = _STEP_TOL) -> Point:
    """Interpolation-only reference iteration for the weighted mean.

    Visits the points in a fixed weight-proportional schedule, pulling a
    running point toward visit k's target by 1/(k+1).  Converges like
    1/k, so it is a coarse reference rather than a production solver;
    the best sweep endpoint by objective is returned once the sweep
    endpoints move by at most ``step_tol`` or ``sweeps`` sweeps are done.
    """
    if not (_is_integer(sweeps) and sweeps >= 1):
        raise ConstructionError(f"sweeps must be an integer >= 1, got {sweeps!r}")
    _check_step_tol(step_tol)
    _require_points(wp, "inductive_mean_sweeps")
    wp = WeightedPoints(*_drop_zero_weights(wp.points, wp.weights))
    if len(wp) == 1:
        return wp.points[0]
    n = len(wp)
    counts = [0] * n
    start = max(range(n), key=lambda i: (wp.weights[i], -i))
    current = wp.points[start]
    best = current
    best_f = frechet_objective(wp, current)
    prev_end = current
    k = 0
    for _ in range(sweeps):
        for i in _next_sweep(wp.weights, counts, k, n):
            k += 1
            current = geodesic_point(current, wp.points[i], 1.0 / (k + 1))
        f = frechet_objective(wp, current)
        if f < best_f:
            best, best_f = current, f
        if distance(prev_end, current) <= step_tol:
            return best
        prev_end = current
    return best
