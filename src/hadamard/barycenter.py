"""Weighted Frechet means: convex combinations of finitely many points.

The mean of points x_i with weights w_i is the unique minimizer of
F(x) = sum_i w_i d(x, x_i)^2, which exists because F is strongly convex
with parameter 2 in any Hadamard space.  Each shipped model admits an
exact or rapidly convergent solver:

* Euclidean: the coordinate-wise weighted average.
* Two points in any model: the geodesic point at parameter w_2.
* Product spaces: the objective separates, so the mean is computed
  factor by factor.
* Metric trees: F restricted to one edge is a single quadratic in the
  arc-length coordinate, so the global minimizer is found exactly by
  scanning edges.
* Hyperboloid: a Weiszfeld-style fixed point of the stationarity
  condition, renormalizing the tangent-weighted ambient average.

``inductive_mean_sweeps`` keeps a slower interpolation-only reference
iteration around; the tests use it as an independent cross-check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError, ConvergenceFailureError, DomainError, SpaceMismatchError
from .geometry import (
    Euclidean,
    Hyperboloid,
    Point,
    ProductSpace,
    check_same_space,
    distance,
    geodesic_point,
)
from .metric_tree import MetricTree

__all__ = [
    "WeightedPoints",
    "convex_weights",
    "frechet_objective",
    "frechet_mean",
    "variance_defect",
    "inductive_mean_sweeps",
]

_WEIGHT_SUM_TOL = 1e-12

# Sweep cap and default step tolerance of the iterative solvers; the
# hyperboloid iteration contracts linearly and stabilizes well within it.
_SWEEP_LIMIT = 200
_STEP_TOL = 1e-10


def convex_weights(weights) -> tuple[float, ...]:
    """The weights as floats, checked finite, nonnegative and summing to 1."""
    weights = tuple(float(w) for w in weights)
    if not all(0.0 <= w < math.inf for w in weights):
        raise ConstructionError("weights must be finite and nonnegative")
    total = math.fsum(weights)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise ConstructionError(f"weights must sum to 1, got {total!r}")
    return weights


class WeightedPoints:
    """A nonempty list of points in one space with convex weights."""

    __slots__ = ("points", "weights", "space")

    def __init__(self, points, weights):
        points = tuple(points)
        weights = tuple(weights)
        if not points:
            raise ConstructionError("need at least one point")
        if len(points) != len(weights):
            raise ConstructionError(
                f"{len(points)} points but {len(weights)} weights"
            )
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
    if not 0.0 <= step_tol < math.inf:
        raise DomainError(f"step_tol must be finite and >= 0, got {step_tol}")


def frechet_objective(wp: WeightedPoints, x: Point) -> float:
    """F(x) = sum_i w_i d(x, x_i)^2."""
    if x.space is not wp.space and x.space != wp.space:
        raise SpaceMismatchError("evaluation point lives in a different space")
    return math.fsum(
        w * distance(x, p) ** 2 for w, p in zip(wp.weights, wp.points)
    )


def variance_defect(wp: WeightedPoints, x_star: Point, y: Point) -> float:
    """Slack in the strong-convexity bound F(x*) + d(x*, y)^2 <= F(y).

    Nonnegative for every challenger y exactly when x_star is the true
    minimizer, since F is strongly convex with parameter 2.
    """
    check_same_space(x_star, y, *wp.points)
    return _variance(distance, wp.points, wp.weights, x_star, y)


def _variance(dist, points, weights, x_star, y):
    """The variance defect through ``dist``; ``points`` are the instance's points.

    With a block's ``distances``, ``points`` and ``x_star`` are blocks that
    repeat one point per row.  F is summed in order, the same in both forms.
    """
    def objective(x):
        return sum(w * dist(x, p) ** 2 for w, p in zip(weights, points))

    return objective(y) - objective(x_star) - dist(x_star, y) ** 2


def _drop_zero_weights(wp: WeightedPoints) -> WeightedPoints:
    if all(w > 0.0 for w in wp.weights):
        return wp
    kept = [(p, w) for p, w in zip(wp.points, wp.weights) if w > 0.0]
    pts, ws = zip(*kept)
    return WeightedPoints(pts, ws)


def _euclidean_mean(space: Euclidean, wp: WeightedPoints) -> Point:
    acc = np.zeros(space.dim)
    for w, p in zip(wp.weights, wp.points):
        acc += w * p.payload
    return space.point(acc)


def _product_mean(space: ProductSpace, wp: WeightedPoints, step_tol: float) -> Point:
    lefts = WeightedPoints([p.payload[0] for p in wp.points], wp.weights)
    rights = WeightedPoints([p.payload[1] for p in wp.points], wp.weights)
    return Point(space, (frechet_mean(lefts, step_tol), frechet_mean(rights, step_tol)))


def _tree_mean(tree: MetricTree, wp: WeightedPoints) -> Point:
    # On each edge, every squared distance is (s - c_i)^2 for a constant
    # c_i, so F restricted to the edge is one quadratic in the offset s.
    # Rows are points, columns edges; argmin keeps the first minimal edge.
    locs = [p.payload for p in wp.points]
    w = np.array(wp.weights)
    dist = tree._vertex_distances(locs)
    da = dist[:, tree._ends[:, 0]]
    db = dist[:, tree._ends[:, 1]]
    lengths = tree._lengths
    centers = np.where(da <= db, -da, lengths + db)
    for i, loc in enumerate(locs):
        centers[i, loc.edge] = loc.offset
    s_star = np.clip(w @ centers, 0.0, lengths)
    values = w @ (s_star - centers) ** 2
    idx = int(np.argmin(values))
    return Point(tree, tree._canonical(idx, float(s_star[idx])))


def _hyperboloid_mean(space: Hyperboloid, wp: WeightedPoints, step_tol: float) -> Point:
    # Fixed point of the stationarity condition: the mean satisfies
    # x = normalize(sum_i w_i (theta_i / sinh theta_i) x_i) with
    # theta_i = d(x, x_i).  The map contracts near the mean, so plain
    # iteration from the normalized ambient average converges linearly.
    payloads = [p.payload for p in wp.points]
    weights = wp.weights

    current = space.normalize(sum(w * q for w, q in zip(weights, payloads)))
    for _ in range(_SWEEP_LIMIT):
        acc = np.zeros(space.dim + 1)
        for w, q in zip(weights, payloads):
            theta = space.payload_distance(current, q)
            coeff = 1.0 if theta < 1e-8 else theta / math.sinh(theta)
            acc += (w * coeff) * q
        candidate = space.normalize(acc)
        # ambient gap: the geodesic metric cannot resolve steps below
        # ~1.5e-8, while the ambient norm bounds it near the sheet
        step = float(np.linalg.norm(current - candidate))
        current = candidate
        if step <= step_tol:
            return space.point(current)
    last_point = space.point(current)
    raise ConvergenceFailureError(
        f"hyperboloid mean did not stabilize in {_SWEEP_LIMIT} iterations",
        last_point=last_point,
        objective=frechet_objective(wp, last_point),
    )


def frechet_mean(wp: WeightedPoints, step_tol: float = _STEP_TOL) -> Point:
    """The weighted barycenter w_1 x_1 (+) ... (+) w_n x_n.

    Zero-weight points are ignored.  An iterative model solver stops
    once a step moves the iterate by at most ``step_tol`` and raises
    ``ConvergenceFailureError`` (carrying the last iterate and
    objective) if it has not after 200 steps.
    """
    _check_step_tol(step_tol)
    wp = _drop_zero_weights(wp)
    if len(wp) == 1:
        return wp.points[0]
    if len(wp) == 2:
        w1, w2 = wp.weights
        return geodesic_point(wp.points[0], wp.points[1], w2 / (w1 + w2))
    space = wp.space
    if isinstance(space, Euclidean):
        return _euclidean_mean(space, wp)
    if isinstance(space, ProductSpace):
        return _product_mean(space, wp, step_tol)
    if isinstance(space, MetricTree):
        return _tree_mean(space, wp)
    if isinstance(space, Hyperboloid):
        return _hyperboloid_mean(space, wp, step_tol)
    return inductive_mean_sweeps(wp, _SWEEP_LIMIT, step_tol)


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
    if sweeps < 1:
        raise ConstructionError("sweeps must be >= 1")
    _check_step_tol(step_tol)
    wp = _drop_zero_weights(wp)
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
