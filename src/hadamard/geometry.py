"""Space models, points, geodesics, and the quadratic curvature test.

Every space here is a complete CAT(0) (Hadamard) space with geodesics in
closed form:

* ``Euclidean(n)`` -- flat n-space, straight-line geodesics.
* ``Hyperboloid(n)`` -- curvature -1 hyperbolic space on the upper sheet
  ``m(v, v) = -1`` of the Minkowski form ``m(u, v) = -u0*v0 + sum(ui*vi)``.
* ``ProductSpace(left, right)`` -- the l2 product of two models.
* ``MetricTree`` (see :mod:`hadamard.metric_tree`) -- a finite acyclic
  length space.

The module-level functions (``distance``, ``geodesic_point``,
``quasilinearization``, ``cat0_defect``, ``comparison_triangle``) are the
common vocabulary the rest of the package builds on.  All objects are
immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InfeasibleTriangleError,
    InvalidPointError,
    SpaceMismatchError,
)

__all__ = [
    "ToleranceConfig",
    "SpaceModel",
    "Point",
    "GeodesicSegment",
    "Euclidean",
    "Hyperboloid",
    "ProductSpace",
    "minkowski",
    "distance",
    "geodesic_point",
    "quasilinearization",
    "cat0_defect",
    "comparison_triangle",
    "check_same_space",
]

# Interpolation parameters below this angle fall back to the start point;
# sinh(theta) is too close to 0 to divide by.
_TINY_ANGLE = 1e-8


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances attached to a space model.

    ``eq_tol`` guards equality and inequality checks in flat and tree
    models, ``on_manifold`` bounds how far a hyperboloid payload may drift
    off the sheet, and ``hyperbolic_tol`` loosens inequality checks where
    arcosh conditioning near 1 dominates.
    """

    eq_tol: float = 1e-9
    on_manifold: float = 1e-10
    hyperbolic_tol: float = 1e-7

    def __post_init__(self):
        if self.eq_tol <= 0 or self.on_manifold <= 0 or self.hyperbolic_tol <= 0:
            raise ConstructionError("tolerances must be positive")


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


class Point:
    """A location tagged with the space it lives in.

    The payload representation depends on the model: a coordinate vector
    (Euclidean), an ambient Minkowski vector (Hyperboloid), an edge/offset
    location (MetricTree), or a pair of factor points (ProductSpace).
    Construct points through ``SpaceModel.point`` so invariants are
    enforced.
    """

    __slots__ = ("space", "payload")

    def __init__(self, space: "SpaceModel", payload):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.space == other.space and self.space.payloads_equal(
            self.payload, other.payload
        )

    def __hash__(self):
        # Consistent with __eq__: equal spaces describe themselves alike,
        # equal coordinate arrays give equal tuples (-0.0 hashes as 0.0),
        # tree locations are frozen and product payloads are point pairs.
        payload = self.payload
        if isinstance(payload, np.ndarray):
            payload = tuple(payload.tolist())
        return hash((self.space.describe(), payload))

    def __repr__(self):
        return f"Point({self.space.describe()}, {self.space.format_payload(self.payload)})"


class SpaceModel:
    """Base class for the concrete space models.

    Subclasses implement distance, geodesic interpolation, payload
    validation, and seeded sampling on raw payloads; the ``Point``-level
    API wraps those.  Structural equality (``==``) identifies spaces that
    were constructed separately but describe the same model, tolerances
    aside.
    """

    __slots__ = ("tolerances",)

    def __init__(self, tolerances: ToleranceConfig | None = None):
        object.__setattr__(self, "tolerances", tolerances or ToleranceConfig())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- payload-level interface ------------------------------------

    def validate_payload(self, payload):
        raise NotImplementedError

    def payload_distance(self, a, b) -> float:
        raise NotImplementedError

    def payload_interpolate(self, a, b, t: float):
        """Constant-speed geodesic point at parameter t in (0, 1)."""
        raise NotImplementedError

    def sample_payload(self, rng: np.random.Generator):
        raise NotImplementedError

    def payloads_equal(self, a, b) -> bool:
        raise NotImplementedError

    def format_payload(self, payload) -> str:
        return repr(payload)

    def describe(self) -> str:
        raise NotImplementedError

    # -- point-level convenience ------------------------------------

    def point(self, payload) -> Point:
        """Validate, canonicalize, and wrap a raw payload."""
        return Point(self, self.validate_payload(payload))

    def sample(self, rng: np.random.Generator) -> Point:
        return Point(self, self.sample_payload(rng))

    @property
    def involves_hyperboloid(self) -> bool:
        return False

    @property
    def defect_tolerance(self) -> float:
        """Tolerance for inequality defects evaluated in this model."""
        if self.involves_hyperboloid:
            return self.tolerances.hyperbolic_tol
        return self.tolerances.eq_tol

    def __repr__(self):
        return self.describe()


class Euclidean(SpaceModel):
    """Flat n-dimensional space with the usual metric."""

    __slots__ = ("dim",)

    def __init__(self, dim: int, tolerances: ToleranceConfig | None = None):
        if int(dim) != dim or dim < 1:
            raise ConstructionError("Euclidean dimension must be a positive integer")
        super().__init__(tolerances)
        object.__setattr__(self, "dim", int(dim))

    def validate_payload(self, payload):
        arr = _readonly(payload)
        if arr.shape != (self.dim,):
            raise InvalidPointError(
                f"expected {self.dim} coordinates, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidPointError("coordinates must be finite")
        return arr

    def payload_distance(self, a, b) -> float:
        return float(np.linalg.norm(a - b))

    def payload_interpolate(self, a, b, t: float):
        return _readonly((1.0 - t) * a + t * b)

    def sample_payload(self, rng):
        return _readonly(rng.standard_normal(self.dim))

    def payloads_equal(self, a, b) -> bool:
        return bool(np.array_equal(a, b))

    def format_payload(self, payload) -> str:
        return "(" + ", ".join(f"{v:g}" for v in payload) + ")"

    def describe(self) -> str:
        return f"Euclidean({self.dim})"

    def __eq__(self, other):
        return isinstance(other, Euclidean) and other.dim == self.dim

    def __hash__(self):
        return hash(("euclidean", self.dim))


def minkowski(u, v) -> float:
    """Lorentzian pairing -u0*v0 + sum_{i>=1} ui*vi on ambient vectors."""
    return float(np.dot(u[1:], v[1:]) - u[0] * v[0])


class Hyperboloid(SpaceModel):
    """Hyperbolic n-space on the upper sheet of ``m(v, v) = -1``.

    Distance is ``arcosh(-m(u, v))``; geodesics follow
    ``x_t = (sinh((1-t)*theta)*u + sinh(t*theta)*v) / sinh(theta)`` with
    ``theta = d(u, v)``.  Every arithmetic result is renormalized back
    onto the sheet to control drift.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int, tolerances: ToleranceConfig | None = None):
        if int(dim) != dim or dim < 1:
            raise ConstructionError("Hyperboloid dimension must be a positive integer")
        super().__init__(tolerances)
        object.__setattr__(self, "dim", int(dim))

    @property
    def involves_hyperboloid(self) -> bool:
        return True

    def base_point(self) -> Point:
        """The sheet's apex (1, 0, ..., 0)."""
        v = np.zeros(self.dim + 1)
        v[0] = 1.0
        return Point(self, _readonly(v))

    def validate_payload(self, payload):
        arr = _readonly(payload)
        if arr.shape != (self.dim + 1,):
            raise InvalidPointError(
                f"expected {self.dim + 1} ambient coordinates, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidPointError("coordinates must be finite")
        gap = abs(minkowski(arr, arr) + 1.0)
        if gap > self.tolerances.on_manifold:
            raise InvalidPointError(
                f"point is off the sheet: |m(v,v)+1| = {gap:.3e}"
            )
        if arr[0] <= 0:
            raise InvalidPointError("point must lie on the upper sheet (v[0] > 0)")
        return arr

    def _renormalize(self, v: np.ndarray) -> np.ndarray:
        scale = math.sqrt(-minkowski(v, v))
        w = v / scale
        if w[0] < 0:
            w = -w
        return _readonly(w)

    def payload_distance(self, a, b) -> float:
        # arcosh resolves nothing below ~1.5e-8, so identical payloads
        # must short-circuit to an exact zero.
        if a is b or np.array_equal(a, b):
            return 0.0
        c = -minkowski(a, b)
        if c < 1.0:
            c = 1.0
        return math.acosh(c)

    def payload_interpolate(self, a, b, t: float):
        theta = self.payload_distance(a, b)
        if theta < _TINY_ANGLE:
            return a
        s = math.sinh(theta)
        w = (math.sinh((1.0 - t) * theta) * a + math.sinh(t * theta) * b) / s
        return self._renormalize(w)

    def exp_from_base(self, tangent) -> Point:
        """Exponential map at the apex of a tangent vector in R^dim."""
        v = np.asarray(tangent, dtype=float)
        if v.shape != (self.dim,):
            raise InvalidPointError(f"tangent vector must have {self.dim} coordinates")
        r = float(np.linalg.norm(v))
        out = np.zeros(self.dim + 1)
        if r < 1e-300:
            out[0] = 1.0
            return Point(self, _readonly(out))
        # Far from the apex cosh and sinh overflow, or their squares cancel
        # so that the sheet constraint has nothing left to normalize.
        try:
            out[0] = math.cosh(r)
            out[1:] = (math.sinh(r) / r) * v
            norm_sq = -minkowski(out, out)
        except OverflowError:
            norm_sq = math.nan
        if not norm_sq > 0.0:
            raise InvalidPointError(
                f"exponential map at radius {r:g} is not representable in floating point")
        return Point(self, _readonly(out / math.sqrt(norm_sq)))

    def sample_payload(self, rng):
        return self.exp_from_base(rng.standard_normal(self.dim)).payload

    def payloads_equal(self, a, b) -> bool:
        return bool(np.array_equal(a, b))

    def format_payload(self, payload) -> str:
        return "(" + ", ".join(f"{v:g}" for v in payload) + ")"

    def describe(self) -> str:
        return f"Hyperboloid({self.dim})"

    def __eq__(self, other):
        return isinstance(other, Hyperboloid) and other.dim == self.dim

    def __hash__(self):
        return hash(("hyperboloid", self.dim))


class ProductSpace(SpaceModel):
    """The l2 product of two models: d^2 = d_left^2 + d_right^2.

    Payloads are pairs ``(left_point, right_point)``; geodesics run
    componentwise at a shared parameter.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: SpaceModel, right: SpaceModel,
                 tolerances: ToleranceConfig | None = None):
        if not isinstance(left, SpaceModel) or not isinstance(right, SpaceModel):
            raise ConstructionError("product factors must be space models")
        super().__init__(tolerances)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def involves_hyperboloid(self) -> bool:
        return self.left.involves_hyperboloid or self.right.involves_hyperboloid

    def validate_payload(self, payload):
        try:
            pl, pr = payload
        except (TypeError, ValueError):
            raise InvalidPointError("product payload must be a (left, right) pair")
        if isinstance(pl, Point):
            if pl.space != self.left:
                raise InvalidPointError("left component belongs to a different space")
            pl = Point(self.left, self.left.validate_payload(pl.payload))
        else:
            pl = self.left.point(pl)
        if isinstance(pr, Point):
            if pr.space != self.right:
                raise InvalidPointError("right component belongs to a different space")
            pr = Point(self.right, self.right.validate_payload(pr.payload))
        else:
            pr = self.right.point(pr)
        return (pl, pr)

    def payload_distance(self, a, b) -> float:
        dl = self.left.payload_distance(a[0].payload, b[0].payload)
        dr = self.right.payload_distance(a[1].payload, b[1].payload)
        return math.hypot(dl, dr)

    def payload_interpolate(self, a, b, t: float):
        pl = Point(self.left, self.left.payload_interpolate(a[0].payload, b[0].payload, t))
        pr = Point(self.right, self.right.payload_interpolate(a[1].payload, b[1].payload, t))
        return (pl, pr)

    def sample_payload(self, rng):
        return (self.left.sample(rng), self.right.sample(rng))

    def payloads_equal(self, a, b) -> bool:
        return a[0] == b[0] and a[1] == b[1]

    def format_payload(self, payload) -> str:
        return (f"({self.left.format_payload(payload[0].payload)}; "
                f"{self.right.format_payload(payload[1].payload)})")

    def describe(self) -> str:
        return f"Product({self.left.describe()}, {self.right.describe()})"

    def __eq__(self, other):
        return (isinstance(other, ProductSpace)
                and other.left == self.left and other.right == self.right)

    def __hash__(self):
        return hash(("product", self.left, self.right))


# ---------------------------------------------------------------------
# Point-level operations
# ---------------------------------------------------------------------


def check_same_space(*points: Point) -> SpaceModel:
    """Return the shared space of the given points or raise."""
    space = points[0].space
    for p in points[1:]:
        if p.space is not space and p.space != space:
            raise SpaceMismatchError(
                f"points live in different spaces: {space.describe()} vs "
                f"{p.space.describe()}"
            )
    return space


def distance(p: Point, q: Point) -> float:
    """Geodesic distance between two points of one space."""
    space = check_same_space(p, q)
    return space.payload_distance(p.payload, q.payload)


def geodesic_point(p: Point, q: Point, t: float) -> Point:
    """The point (1-t)p (+) tq on the unique geodesic from p to q.

    Satisfies d(p, r) = t*d(p, q) and d(r, q) = (1-t)*d(p, q).  The
    endpoints are returned exactly at t = 0 and t = 1.
    """
    space = check_same_space(p, q)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"interpolation parameter must be in [0, 1], got {t}")
    if t == 0.0:
        return p
    if t == 1.0:
        return q
    return Point(space, space.payload_interpolate(p.payload, q.payload, t))


class GeodesicSegment:
    """The constant-speed geodesic from ``start`` to ``end``.

    ``at(t)`` evaluates the segment; ``d(at(t1), at(t2)) = |t1-t2|*length``.
    """

    __slots__ = ("start", "end", "length")

    def __init__(self, start: Point, end: Point):
        check_same_space(start, end)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "length", distance(start, end))

    def __setattr__(self, name, value):
        raise AttributeError("GeodesicSegment is immutable")

    def at(self, t: float) -> Point:
        return geodesic_point(self.start, self.end, t)

    def __repr__(self):
        return f"GeodesicSegment({self.start!r} -> {self.end!r}, length={self.length:g})"


def quasilinearization(x: Point, z: Point, y: Point, w: Point) -> float:
    """Metric pairing of the bound vectors x->z and y->w.

    Defined as half of d(x,w)^2 + d(z,y)^2 - d(x,y)^2 - d(z,w)^2; in a
    Euclidean model this is exactly the inner product <z - x, w - y>.
    """
    check_same_space(x, z, y, w)
    return 0.5 * (
        distance(x, w) ** 2
        + distance(z, y) ** 2
        - distance(x, y) ** 2
        - distance(z, w) ** 2
    )


def cat0_defect(x: Point, y: Point, z: Point, t: float) -> float:
    """Slack in the quadratic nonpositive-curvature inequality.

    Returns (1-t)d(x,z)^2 + t d(y,z)^2 - t(1-t)d(x,y)^2 - d(x_t,z)^2 where
    x_t is the geodesic point between x and y.  Nonnegative (up to
    rounding) in every CAT(0) model.
    """
    check_same_space(x, y, z)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"interpolation parameter must be in [0, 1], got {t}")
    xt = geodesic_point(x, y, t)
    return (
        (1.0 - t) * distance(x, z) ** 2
        + t * distance(y, z) ** 2
        - t * (1.0 - t) * distance(x, y) ** 2
        - distance(xt, z) ** 2
    )


def comparison_triangle(
    d_xy: float, d_yz: float, d_zx: float, tol: float = 1e-9
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """Planar triangle realizing three pairwise distances, in canonical pose.

    The first vertex sits at the origin, the second on the nonnegative
    horizontal axis, and the third has nonnegative vertical coordinate.
    Raises if the lengths violate the triangle inequality beyond ``tol``.
    """
    sides = (d_xy, d_yz, d_zx)
    if any(s < -tol for s in sides):
        raise InfeasibleTriangleError(f"negative side length in {sides}")
    if (
        d_xy > d_yz + d_zx + tol
        or d_yz > d_zx + d_xy + tol
        or d_zx > d_xy + d_yz + tol
    ):
        raise InfeasibleTriangleError(
            f"side lengths {sides} violate the triangle inequality"
        )
    if d_xy <= tol:
        # degenerate base: x and y coincide
        return ((0.0, 0.0), (float(d_xy), 0.0), (float(d_zx), 0.0))
    zx = (d_xy**2 + d_zx**2 - d_yz**2) / (2.0 * d_xy)
    zy_sq = d_zx**2 - zx**2
    zy = math.sqrt(zy_sq) if zy_sq > 0.0 else 0.0
    return ((0.0, 0.0), (float(d_xy), 0.0), (float(zx), float(zy)))
