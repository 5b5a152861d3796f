"""Self-maps of a space and the alpha-firm nonexpansiveness calculus.

The discrepancy of an operator T pairs the bound vector x -> y with its
image Tx -> Ty through the quasilinearization, standing in for the inner
product <x - y, Tx - Ty>.  T is alpha-firmly nonexpansive when

    d(Tx, Ty)^2 + (1 - 2a) d(x, y)^2 <= 2 (1 - a) D_T(x, y)

for some a in (0, 1); the "quasi" variant only requires this against
fixed points y of T.  This module provides the defect forms of these
inequalities (nonnegative where the inequality holds), the constant
calculus for compositions and convex combinations, and sampling-based
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barycenter import WeightedPoints, convex_weights, frechet_mean
from .convex_sets import ConvexSet
from .errors import ConstructionError, DomainError, NotAFixedPointError, SpaceMismatchError
from .geometry import (EQ_TOL, Point, SpaceModel, check_same_space, distance, geodesic_point,
                       quasilinearization)

__all__ = [
    "Operator",
    "Identity",
    "Constant",
    "Projection",
    "Composition",
    "ConvexCombination",
    "Pointwise",
    "AlphaCertificate",
    "discrepancy",
    "alpha_firm_defect",
    "quasi_firm_defect",
    "composition_alpha",
    "fold_composition_alpha",
    "tau_value",
    "combination_alpha",
    "lmuv_values",
    "composition_condition_defect",
    "phi_profile_defects",
    "certify_alpha_firm",
]


def _check_alpha(alpha: float, label: str = "alpha") -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"{label} must lie in (0, 1), got {alpha}")
    return alpha


class Operator:
    """Base class for operator descriptors.

    Descriptors are immutable; ``apply`` is deterministic and pure.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def apply(self, x: Point) -> Point:
        raise NotImplementedError

    @property
    def name(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.name


class Identity(Operator):
    __slots__ = ()

    def apply(self, x: Point) -> Point:
        return x

    @property
    def name(self) -> str:
        return "identity"


class Constant(Operator):
    __slots__ = ("value",)

    def __init__(self, value: Point):
        object.__setattr__(self, "value", value)

    def apply(self, x: Point) -> Point:
        check_same_space(x, self.value)
        return self.value

    @property
    def name(self) -> str:
        return f"const({self.value.space.format_payload(self.value.payload)})"


class Projection(Operator):
    """Metric projection onto a closed convex set; firmly nonexpansive."""

    __slots__ = ("set",)

    def __init__(self, convex_set: ConvexSet):
        object.__setattr__(self, "set", convex_set)

    def apply(self, x: Point) -> Point:
        return self.set.project(x)

    @property
    def name(self) -> str:
        return f"P[{self.set.name}]"


class Composition(Operator):
    """Composition of factors, applied right to left.

    ``Composition([T, S])`` is the map x -> T(S(x)), matching the usual
    product notation TS.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ConstructionError("composition needs at least one factor")
        object.__setattr__(self, "factors", factors)

    def apply(self, x: Point) -> Point:
        for op in reversed(self.factors):
            x = op.apply(x)
        return x

    @property
    def name(self) -> str:
        return "(" + " o ".join(f.name for f in self.factors) + ")"


class ConvexCombination(Operator):
    """Pointwise barycenter of operator images.

    Applies each operator to x and returns the weighted Frechet mean of
    the images, i.e. the minimizer of sum_i w_i d(y, T_i x)^2.
    """

    __slots__ = ("weights", "operators")

    def __init__(self, weights, operators):
        weights = tuple(weights)
        operators = tuple(operators)
        if len(weights) != len(operators) or not operators:
            raise ConstructionError("need matching, nonempty weights and operators")
        object.__setattr__(self, "weights", convex_weights(weights))
        object.__setattr__(self, "operators", operators)

    def apply(self, x: Point) -> Point:
        images = [op.apply(x) for op in self.operators]
        return frechet_mean(WeightedPoints(images, self.weights))

    @property
    def name(self) -> str:
        terms = ", ".join(f"{w:g}*{op.name}" for w, op in zip(self.weights, self.operators))
        return f"avg({terms})"


class Pointwise(Operator):
    """An opaque user-supplied map with a declared name.

    Certificates about such operators are sampling-based only; nothing
    is assumed about the callable beyond mapping points to points of the
    same space.
    """

    __slots__ = ("fn", "_name")

    def __init__(self, name: str, fn):
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "_name", str(name))

    def apply(self, x: Point) -> Point:
        y = self.fn(x)
        if not isinstance(y, Point):
            raise SpaceMismatchError(f"user map '{self._name}' did not return a Point")
        check_same_space(x, y)
        return y

    @property
    def name(self) -> str:
        return self._name


def discrepancy(op: Operator, x: Point, y: Point) -> float:
    """D_T(x, y): the quasilinearization of x -> y against Tx -> Ty.

    Equals d(x, y)^2 for the identity and vanishes for constant maps; in
    Euclidean models it is the inner product <y - x, Ty - Tx>.
    """
    check_same_space(x, y)
    tx = op.apply(x)
    ty = op.apply(y)
    return quasilinearization(x, y, tx, ty)


def alpha_firm_defect(op: Operator, alpha: float, x: Point, y: Point) -> float:
    """Slack in the alpha-firm inequality at the pair (x, y).

    Returns 2(1-a) D_T(x, y) - d(Tx, Ty)^2 - (1-2a) d(x, y)^2, which is
    nonnegative exactly where the inequality holds.
    """
    alpha = _check_alpha(alpha)
    check_same_space(x, y)
    tx = op.apply(x)
    ty = op.apply(y)
    delta = quasilinearization(x, y, tx, ty)
    return (
        2.0 * (1.0 - alpha) * delta
        - distance(tx, ty) ** 2
        - (1.0 - 2.0 * alpha) * distance(x, y) ** 2
    )


def quasi_firm_defect(op: Operator, alpha: float, x: Point, y: Point) -> float:
    """Slack in the fixed-point form of the alpha-firm inequality.

    Requires y to be fixed by the operator; returns
    d(x, y)^2 - ((1-a)/a) d(x, Tx)^2 - d(Tx, y)^2.
    """
    alpha = _check_alpha(alpha)
    check_same_space(x, y)
    ty = op.apply(y)
    if distance(ty, y) > EQ_TOL:
        raise NotAFixedPointError(
            f"{op.name} moves the supplied point by {distance(ty, y):.3e}"
        )
    tx = op.apply(x)
    return (
        distance(x, y) ** 2
        - ((1.0 - alpha) / alpha) * distance(x, tx) ** 2
        - distance(tx, y) ** 2
    )


def composition_alpha(alpha_s: float, alpha_t: float) -> float:
    """Constant certified for a composition TS of alpha-firm factors."""
    a_s = _check_alpha(alpha_s, "alpha_s")
    a_t = _check_alpha(alpha_t, "alpha_t")
    return (a_s + a_t - 2.0 * a_s * a_t) / (1.0 - a_s * a_t)


def fold_composition_alpha(alphas) -> float:
    """Left-to-right fold of ``composition_alpha`` over a list of constants."""
    alphas = [_check_alpha(a) for a in alphas]
    if not alphas:
        raise DomainError("need at least one constant")
    acc = alphas[0]
    for a in alphas[1:]:
        acc = composition_alpha(acc, a)
    return acc


def tau_value(alpha_s: float, alpha_t: float) -> float:
    """tau = (1 - a_S)/a_S + (1 - a_T)/a_T."""
    a_s = _check_alpha(alpha_s, "alpha_s")
    a_t = _check_alpha(alpha_t, "alpha_t")
    return (1.0 - a_s) / a_s + (1.0 - a_t) / a_t


def combination_alpha(alphas) -> float:
    """Constant certified for a convex combination: the largest input."""
    alphas = [_check_alpha(a) for a in alphas]
    if not alphas:
        raise DomainError("need at least one constant")
    return max(alphas)


def lmuv_values(s: Operator, t: Operator, x: Point, y: Point) -> tuple[float, float, float, float]:
    """The four quadratic forms entering the composition condition.

    L and M are the Cauchy-Schwarz residuals of S and of T along S's
    images, U couples them, and V is the residual of the composition:

        L = d(x,y)^2   - 2 D_S(x,y)     + d(Sx,Sy)^2
        M = d(Sx,Sy)^2 - 2 D_T(Sx,Sy)   + d(TSx,TSy)^2
        U = D_TS(x,y) + d(Sx,Sy)^2 - D_S(x,y) - D_T(Sx,Sy)
        V = d(x,y)^2   - 2 D_TS(x,y)    + d(TSx,TSy)^2
    """
    check_same_space(x, y)
    sx, sy = s.apply(x), s.apply(y)
    tsx, tsy = t.apply(sx), t.apply(sy)
    d_xy = distance(x, y) ** 2
    d_s = distance(sx, sy) ** 2
    d_ts = distance(tsx, tsy) ** 2
    delta_s = quasilinearization(x, y, sx, sy)
    delta_t = quasilinearization(sx, sy, tsx, tsy)
    delta_ts = quasilinearization(x, y, tsx, tsy)
    big_l = d_xy - 2.0 * delta_s + d_s
    big_m = d_s - 2.0 * delta_t + d_ts
    big_u = delta_ts + d_s - delta_s - delta_t
    big_v = d_xy - 2.0 * delta_ts + d_ts
    return big_l, big_m, big_u, big_v


def composition_condition_defect(
    s: Operator, t: Operator, alpha_s: float, alpha_t: float, x: Point, y: Point
) -> float:
    """Left side of the sufficient condition for the composition constant.

    Evaluates (c_S)^2 L + (c_T)^2 M + 2 c_S c_T U with
    c_S = (1-a_S)/(tau a_S) and c_T = (1-a_T)/(tau a_T); nonnegativity at
    sampled pairs supports certifying TS with the composed constant.
    """
    a_s = _check_alpha(alpha_s, "alpha_s")
    a_t = _check_alpha(alpha_t, "alpha_t")
    tau = tau_value(a_s, a_t)
    c_s = (1.0 - a_s) / (tau * a_s)
    c_t = (1.0 - a_t) / (tau * a_t)
    big_l, big_m, big_u, _ = lmuv_values(s, t, x, y)
    return c_s * c_s * big_l + c_t * c_t * big_m + 2.0 * c_s * c_t * big_u


def phi_profile_defects(op: Operator, x: Point, y: Point, grid: int = 16) -> list[float]:
    """Successive decrements of t -> d(x_t, y_t) along [x,Tx] and [y,Ty].

    The classical path-monotonicity notion of firm nonexpansiveness asks
    this profile to be nonincreasing; entries are phi(t_k) - phi(t_{k+1})
    on a uniform grid, so nonnegative values support it.  Diagnostic
    only.
    """
    if grid < 2:
        raise DomainError("grid must have at least 2 samples")
    check_same_space(x, y)
    tx, ty = op.apply(x), op.apply(y)
    ts = np.linspace(0.0, 1.0, grid + 1)
    phi = [
        distance(geodesic_point(x, tx, float(t)), geodesic_point(y, ty, float(t)))
        for t in ts
    ]
    return [phi[k] - phi[k + 1] for k in range(grid)]


@dataclass(frozen=True)
class AlphaCertificate:
    """Outcome of sampling the alpha-firm inequality for one operator.

    ``scope`` is "full" when arbitrary pairs were sampled and "quasi"
    when sampled points were tested against supplied fixed points.  The
    certificate passes when the worst sampled defect clears -tolerance.
    """

    op_name: str
    alpha: float
    scope: str
    fixed_points: tuple[Point, ...]
    samples: int
    seed: int
    worst_defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_defect >= -self.tolerance

    def report_line(self) -> str:
        return (
            f"{self.op_name} alpha={self.alpha:g} scope={self.scope} "
            f"samples={self.samples} seed={self.seed} "
            f"worst_defect={self.worst_defect:.17g} "
            f"{'PASS' if self.passed else 'FAIL'}"
        )


def certify_alpha_firm(
    op: Operator,
    alpha: float,
    space: SpaceModel,
    samples: int,
    seed: int,
    fixed_points=None,
) -> AlphaCertificate:
    """Sample the alpha-firm inequality and record the worst defect.

    With ``fixed_points`` given, each sampled point is tested against
    each supplied fixed point (quasi scope); otherwise independent pairs
    are drawn.  Deterministic given the seed.
    """
    alpha = _check_alpha(alpha)
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = math.inf
    if fixed_points is None:
        for _ in range(samples):
            x = space.sample(rng)
            y = space.sample(rng)
            worst = min(worst, alpha_firm_defect(op, alpha, x, y))
        scope = "full"
        fixed = ()
    else:
        fixed = tuple(fixed_points)
        if not fixed:
            raise DomainError("quasi scope needs at least one fixed point")
        for _ in range(samples):
            x = space.sample(rng)
            for y in fixed:
                worst = min(worst, quasi_firm_defect(op, alpha, x, y))
        scope = "quasi"
    return AlphaCertificate(
        op_name=op.name,
        alpha=alpha,
        scope=scope,
        fixed_points=fixed,
        samples=samples,
        seed=seed,
        worst_defect=worst,
        tolerance=space.defect_tolerance,
    )
