"""Self-maps of a space and the alpha-firm nonexpansiveness calculus.

The discrepancy of an operator T pairs the bound vector x -> y with its
image Tx -> Ty through the quasilinearization, standing in for the inner
product <x - y, Tx - Ty>.  T is alpha-firmly nonexpansive when

    d(Tx, Ty)^2 + (1 - 2a) d(x, y)^2 <= 2 (1 - a) D_T(x, y)

for some a in (0, 1); the "quasi" variant only requires this against
fixed points y of T.  This module provides the defect forms of these
inequalities (nonnegative where the inequality holds) and the constant
calculus for compositions and convex combinations; ``hadamard.certifier``
samples the defects, the composition condition among them.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .barycenter import _frechet_means, _weight_tuple, convex_weights
from .convex_sets import ConvexSet, _halfspace_sweep
from .errors import ConstructionError, DomainError, NotAFixedPointError, SpaceMismatchError
from .geometry import (
    EQ_TOL,
    Point,
    SpaceModel,
    _quasilinear,
    _real,
    _real_vector,
    _require,
    _same_space,
    check_same_space,
    distance,
    quasilinearization,
)

__all__ = [
    "Operator",
    "Identity",
    "Constant",
    "Projection",
    "Composition",
    "ConvexCombination",
    "Pointwise",
    "discrepancy",
    "alpha_firm_defect",
    "quasi_firm_defect",
    "composition_alpha",
    "fold_composition_alpha",
    "combination_alpha",
]


def _check_alpha(alpha: float, label: str = "alpha") -> float:
    alpha = _real(alpha, DomainError, f"{label} must be a real number")
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

    def apply_block(self, space: SpaceModel, block):
        """Images of a block of points of ``space``, rowwise.

        Runs ``apply`` row by row unless the operator has an array kernel.
        """
        return space.stack([self.apply(space.row(block, i))
                            for i in range(space.block_len(block))])

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


def _operators(ops, label: str) -> tuple:
    """The operators of a composite as a tuple, each checked to be an ``Operator``."""
    try:
        ops = tuple(ops)
    except TypeError:
        raise ConstructionError(f"{label}s must be a list of operators, got {ops!r}") from None
    for op in ops:
        _require(op, Operator, f"each {label}")
    return ops


class Projection(Operator):
    """Metric projection onto a closed convex set; firmly nonexpansive."""

    __slots__ = ("set",)

    def __init__(self, convex_set: ConvexSet):
        _require(convex_set, ConvexSet, "projection set")
        object.__setattr__(self, "set", convex_set)

    # Scalar twin kept: projection runs' witness checks, where a one-row block costs 4x to 25x.
    def apply(self, x: Point) -> Point:
        return self.set.project(x)

    def apply_block(self, space, block):
        if not _same_space(space, self.set.space):
            raise SpaceMismatchError(
                f"block in {space.describe()} vs set '{self.set.name}' in "
                f"{self.set.space.describe()}")
        return self.set.project_block(block)

    @property
    def name(self) -> str:
        return f"P[{self.set.name}]"


class Composition(Operator):
    """Composition of factors, applied right to left.

    ``Composition([T, S])`` is the map x -> T(S(x)), matching the usual
    product notation TS.
    """

    __slots__ = ("factors", "_sweep")

    def __init__(self, factors):
        factors = _operators(factors, "factor")
        if not factors:
            raise ConstructionError("composition needs at least one factor")
        object.__setattr__(self, "factors", factors)
        # projections onto flat halfspaces skip the factors a screen proves held
        sets = [op.set for op in reversed(factors) if type(op) is Projection]
        object.__setattr__(self, "_sweep",
                           _halfspace_sweep(sets) if len(sets) == len(factors) else None)

    # Scalar twin kept: the drivers' fixed-point runs, where a one-row block costs 2.4x to 140x.
    def apply(self, x: Point) -> Point:
        if self._sweep is not None:
            return self._sweep(x)
        for op in reversed(self.factors):
            x = op.apply(x)
        return x

    def apply_block(self, space, block):
        for op in reversed(self.factors):
            block = op.apply_block(space, block)
        return block

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
        weights = _weight_tuple(weights)
        operators = _operators(operators, "operator")
        if len(weights) != len(operators) or not operators:
            raise ConstructionError("need matching, nonempty weights and operators")
        object.__setattr__(self, "weights", convex_weights(weights))
        object.__setattr__(self, "operators", operators)

    def apply(self, x: Point) -> Point:
        # the one-row case of apply_block
        space = check_same_space(x)
        return space.row(self.apply_block(space, space.stack([x])), 0)

    def apply_block(self, space, block):
        # one block mean of the images; zero weights drop out, as in frechet_mean
        kept = [(w, op.apply_block(space, block)) for w, op in zip(self.weights, self.operators)]
        kept = [(w, images) for w, images in kept if w > 0.0]
        weights = np.broadcast_to([w for w, _ in kept], (space.block_len(block), len(kept)))
        return _frechet_means(space, [images for _, images in kept], weights)

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
    return _alpha_firm(distance, alpha, x, y, op.apply(x), op.apply(y))


def _alpha_firm(dist, alpha, x, y, tx, ty):
    """The alpha-firm defect through ``dist``, with ``tx`` and ``ty`` the images."""
    return (
        2.0 * (1.0 - alpha) * _quasilinear(dist, x, y, tx, ty)
        - dist(tx, ty) ** 2
        - (1.0 - 2.0 * alpha) * dist(x, y) ** 2
    )


def quasi_firm_defect(op: Operator, alpha: float, x: Point, y: Point) -> float:
    """Slack in the fixed-point form of the alpha-firm inequality.

    Requires y to be fixed by the operator; returns
    d(x, y)^2 - ((1-a)/a) d(x, Tx)^2 - d(Tx, y)^2.
    """
    alpha = _check_alpha(alpha)
    check_same_space(x, y)
    _require_fixed(op, y)
    return _quasi_firm(distance, alpha, x, y, op.apply(x))


def _require_fixed(op: Operator, y: Point) -> None:
    moved = distance(op.apply(y), y)
    if moved > EQ_TOL:
        raise NotAFixedPointError(f"{op.name} moves the supplied point by {moved:.3e}")


def _quasi_firm(dist, alpha, x, y, tx):
    """The quasi alpha-firm defect through ``dist``, with ``tx`` the image of x."""
    return dist(x, y) ** 2 - ((1.0 - alpha) / alpha) * dist(x, tx) ** 2 - dist(tx, y) ** 2


def composition_alpha(alpha_s: float, alpha_t: float) -> float:
    """Constant certified for a composition TS of alpha-firm factors."""
    a_s = _check_alpha(alpha_s, "alpha_s")
    a_t = _check_alpha(alpha_t, "alpha_t")
    return (a_s + a_t - 2.0 * a_s * a_t) / (1.0 - a_s * a_t)


def _alphas(alphas) -> list:
    """The constants of a fold, a real vector, each checked; at least one."""
    alphas = [_check_alpha(a) for a in _real_vector(alphas, DomainError,
                                                       "constants must be real numbers")]
    if not alphas:
        raise DomainError("need at least one constant")
    return alphas


def fold_composition_alpha(alphas) -> float:
    """Left-to-right fold of ``composition_alpha`` over a list of constants."""
    return reduce(composition_alpha, _alphas(alphas))


def combination_alpha(alphas) -> float:
    """Constant certified for a convex combination: the largest input."""
    return max(_alphas(alphas))


def _composition_condition(dist, a_s, a_t, x, y, sx, sy, tsx, tsy):
    """The composition condition of S, then T, through ``dist``.

    ``sx``, ``sy`` are the images of x and y under S, and ``tsx``, ``tsy``
    their images under T.  Evaluates c_S^2 L + c_T^2 M + 2 c_S c_T U, with
    tau = (1-a_S)/a_S + (1-a_T)/a_T, c_S = (1-a_S)/(tau a_S) and
    c_T = (1-a_T)/(tau a_T).  L and M are the Cauchy-Schwarz residuals of S
    and of T along S's images, and U couples them:

        L = d(x,y)^2   - 2 D_S(x,y)   + d(Sx,Sy)^2
        M = d(Sx,Sy)^2 - 2 D_T(Sx,Sy) + d(TSx,TSy)^2
        U = D_TS(x,y) + d(Sx,Sy)^2 - D_S(x,y) - D_T(Sx,Sy)

    Nonnegativity at every pair is sufficient, not necessary, for TS to be
    quasi alpha-firm at ``composition_alpha(a_S, a_T)``.
    """
    tau = (1.0 - a_s) / a_s + (1.0 - a_t) / a_t
    c_s = (1.0 - a_s) / (tau * a_s)
    c_t = (1.0 - a_t) / (tau * a_t)
    d_xy = dist(x, y) ** 2
    d_s = dist(sx, sy) ** 2
    d_ts = dist(tsx, tsy) ** 2
    delta_s = _quasilinear(dist, x, y, sx, sy)
    delta_t = _quasilinear(dist, sx, sy, tsx, tsy)
    delta_ts = _quasilinear(dist, x, y, tsx, tsy)
    big_l = d_xy - 2.0 * delta_s + d_s
    big_m = d_s - 2.0 * delta_t + d_ts
    big_u = delta_ts + d_s - delta_s - delta_t
    return c_s * c_s * big_l + c_t * c_t * big_m + 2.0 * c_s * c_t * big_u
