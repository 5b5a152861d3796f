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
``quasilinearization``, ``cat0_defect``) are the
common vocabulary the rest of the package builds on.  All objects are
immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    InvalidPointError,
    SpaceMismatchError,
)

__all__ = [
    "SpaceModel",
    "CoordinateSpace",
    "Point",
    "Euclidean",
    "Hyperboloid",
    "ProductSpace",
    "minkowski",
    "distance",
    "geodesic_point",
    "quasilinearization",
    "cat0_defect",
    "check_same_space",
]

# Interpolation parameters below this angle fall back to the start point;
# sinh(theta) is too close to 0 to divide by.
_TINY_ANGLE = 1e-8

# Equality and inequality checks in flat and tree models.
EQ_TOL = 1e-9
# How far a hyperboloid payload may drift off the sheet.
ON_MANIFOLD_TOL = 1e-10
# Inequality checks where arcosh conditioning near 1 dominates.
HYPERBOLIC_TOL = 1e-7


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
    were constructed separately but describe the same model.
    """

    __slots__ = ()

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

    # -- block interface ----------------------------------------------
    #
    # A block holds n points of the model as payload arrays, and a kernel
    # computes one row from that row's inputs alone, with elementwise
    # operations only, so row i of any block equals a one-row block of the
    # same inputs bit for bit.  This base class keeps a block as a list of
    # payloads and runs the scalar methods row by row; a model with array
    # kernels overrides these methods.

    def _payloads(self, points) -> list:
        out = []
        for p in points:
            if not isinstance(p, Point) or (p.space is not self and p.space != self):
                raise SpaceMismatchError(f"{p!r} is not a point of {self.describe()}")
            out.append(p.payload)
        return out

    def stack(self, points):
        """The block of the given points of this space."""
        return self._payloads(points)

    def repeat(self, point: Point, n: int):
        """A block of n copies of one point."""
        return self._payloads([point]) * n

    def block_len(self, block) -> int:
        return len(block)

    def row(self, block, i: int) -> Point:
        """Row i of a block as a point."""
        return Point(self, block[i])

    def sample_block(self, rng: np.random.Generator, n: int):
        return [self.sample_payload(rng) for _ in range(n)]

    def distances(self, a, b) -> np.ndarray:
        """Rowwise distances between two blocks of one length."""
        return np.array([self.payload_distance(p, q) for p, q in zip(a, b)], dtype=float)

    def interpolate(self, a, b, t):
        """Rowwise geodesic points at parameters t in [0, 1], exact at the ends."""
        return [p if s == 0.0 else q if s == 1.0 else self.payload_interpolate(p, q, float(s))
                for p, q, s in zip(a, b, t)]

    @property
    def involves_hyperboloid(self) -> bool:
        return False

    @property
    def defect_tolerance(self) -> float:
        """Tolerance for inequality defects evaluated in this model."""
        return HYPERBOLIC_TOL if self.involves_hyperboloid else EQ_TOL

    def __repr__(self):
        return self.describe()


class CoordinateSpace(SpaceModel):
    """A model whose payloads are read-only float arrays of one length.

    ``_extra`` counts the coordinates beyond ``dim``: none in flat space,
    the ambient time coordinate on the hyperboloid.
    """

    __slots__ = ("dim",)
    _extra = 0

    def __init__(self, dim: int):
        if int(dim) != dim or dim < 1:
            raise ConstructionError(f"{type(self).__name__} dimension must be a positive integer")
        object.__setattr__(self, "dim", int(dim))

    def validate_payload(self, payload):
        arr = _readonly(payload)
        n = self.dim + self._extra
        if arr.shape != (n,):
            raise InvalidPointError(f"expected {n} coordinates, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidPointError("coordinates must be finite")
        return arr

    def payloads_equal(self, a, b) -> bool:
        return bool(np.array_equal(a, b))

    # Blocks are (n, dim + _extra) float arrays.

    def stack(self, points):
        return np.array(self._payloads(points), dtype=float).reshape(-1, self.dim + self._extra)

    def repeat(self, point, n):
        return np.broadcast_to(self._payloads([point])[0], (n, self.dim + self._extra))

    def row(self, block, i):
        # a copy, so that a recorded witness does not keep its whole block alive
        return Point(self, _readonly(block[i]))

    def format_payload(self, payload) -> str:
        return "(" + ", ".join(f"{v:g}" for v in payload) + ")"

    def describe(self) -> str:
        return f"{type(self).__name__}({self.dim})"

    def __eq__(self, other):
        return type(other) is type(self) and other.dim == self.dim

    def __hash__(self):
        return hash((type(self).__name__, self.dim))


def _rowdot(a, b, start=0):
    """Dot products of matching rows over columns ``start:``, summed in column order.

    Either argument may be one vector.  The fixed order keeps each row's
    sum independent of the block it sits in.
    """
    total = a[..., start] * b[..., start]
    for k in range(start + 1, a.shape[-1]):
        total = total + a[..., k] * b[..., k]
    return total


class Euclidean(CoordinateSpace):
    """Flat n-dimensional space with the usual metric."""

    __slots__ = ()

    def payload_distance(self, a, b) -> float:
        return float(np.linalg.norm(a - b))

    def payload_interpolate(self, a, b, t: float):
        return _readonly((1.0 - t) * a + t * b)

    def sample_payload(self, rng):
        return _readonly(rng.standard_normal(self.dim))

    def sample_block(self, rng, n):
        return rng.standard_normal((n, self.dim))

    def distances(self, a, b):
        diff = a - b
        return np.sqrt(_rowdot(diff, diff))

    def interpolate(self, a, b, t):
        t = np.asarray(t, dtype=float)[:, None]
        return (1.0 - t) * a + t * b


def minkowski(u, v) -> float:
    """Lorentzian pairing -u0*v0 + sum_{i>=1} ui*vi on ambient vectors."""
    return float(np.dot(u[1:], v[1:]) - u[0] * v[0])


# The hyperboloid's block kernels reach the representation only through
# the three rowwise helpers below, written with elementwise operations so
# that each row of a result depends on that row's inputs alone.

def _pairing(u, v):
    """The Minkowski pairing of matching rows of ambient blocks (either may be one vector)."""
    return _rowdot(u, v, 1) - u[..., 0] * v[..., 0]


def _normalize(w):
    """Each timelike row of an ambient block scaled onto its sheet."""
    return w / np.sqrt(-_pairing(w, w))[:, None]


# Beyond this radius no exponential map is representable: from r = 19.1
# on, cosh(r)^2 - sinh(r)^2 rounds at least 2e-7 away from 1.  Below it no
# square overflows.
_EXP_RADIUS = 300.0


def _exp_rows(v):
    """The exponential maps at the apex of the rows of an (n, dim) tangent block.

    Raises ``InvalidPointError`` where ``Hyperboloid.exp_from_base`` does:
    when any row's image is not representable in floating point.
    """
    r = np.sqrt(_rowdot(v, v))
    in_range = r <= _EXP_RADIUS
    # rows within 1e-300 of the apex stay on it, and so do the rows out of
    # range, which fail the check below
    moved = in_range & (r >= 1e-300)
    rm = r[moved]
    out = np.zeros((len(r), v.shape[1] + 1))
    out[:, 0] = 1.0
    out[moved, 0] = np.cosh(rm)
    out[moved, 1:] = (np.sinh(rm) / rm)[:, None] * v[moved]
    bad = ~(in_range & (np.abs(-_pairing(out, out) - 1.0) <= 2.0 * HYPERBOLIC_TOL))
    if bad.any():
        raise InvalidPointError(f"exponential map at radius {r[bad][0]:g} "
                                f"is not representable in floating point")
    return _normalize(out)


class Hyperboloid(CoordinateSpace):
    """Hyperbolic n-space on the upper sheet of ``m(v, v) = -1``.

    Distance is ``arcosh(-m(u, v))``; geodesics follow
    ``x_t = (sinh((1-t)*theta)*u + sinh(t*theta)*v) / sinh(theta)`` with
    ``theta = d(u, v)``.  Every arithmetic result is renormalized back
    onto the sheet to control drift.  Payloads are ambient vectors of
    ``dim + 1`` coordinates, time first, and blocks are ``(n, dim + 1)``
    arrays of them.
    """

    __slots__ = ()
    _extra = 1

    @property
    def involves_hyperboloid(self) -> bool:
        return True

    def base_point(self) -> Point:
        """The sheet's apex (1, 0, ..., 0)."""
        v = np.zeros(self.dim + 1)
        v[0] = 1.0
        return Point(self, _readonly(v))

    def validate_payload(self, payload):
        arr = super().validate_payload(payload)
        gap = abs(minkowski(arr, arr) + 1.0)
        if gap > ON_MANIFOLD_TOL:
            raise InvalidPointError(
                f"point is off the sheet: |m(v,v)+1| = {gap:.3e}"
            )
        if arr[0] <= 0:
            raise InvalidPointError("point must lie on the upper sheet (v[0] > 0)")
        return arr

    @staticmethod
    def normalize(v: np.ndarray) -> np.ndarray:
        """The timelike ambient vector v scaled onto its sheet: v / sqrt(-m(v, v))."""
        w = v / math.sqrt(-minkowski(v, v))
        w.setflags(write=False)
        return w

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
        # Both coefficients are >= 0, so w stays on the upper sheet's side.
        w = (math.sinh((1.0 - t) * theta) * a + math.sinh(t * theta) * b) / s
        return self.normalize(w)

    def exp_from_base(self, tangent) -> Point:
        """Exponential map at the apex of a tangent vector in R^dim."""
        v = np.asarray(tangent, dtype=float)
        if v.shape != (self.dim,):
            raise InvalidPointError(f"tangent vector must have {self.dim} coordinates")
        r = float(np.linalg.norm(v))
        if r < 1e-300:
            return self.base_point()
        # Far from the apex cosh or its square overflows (tested on the
        # scalar, so no array product does), or -m(out, out) = cosh^2 - sinh^2
        # rounds off 1 and dividing by it moves the point by half the gap.
        try:
            c = math.cosh(r)
        except OverflowError:
            c = math.inf
        out = np.zeros(self.dim + 1)
        norm_sq = math.nan
        if c * c < math.inf:
            out[0] = c
            out[1:] = (math.sinh(r) / r) * v
            norm_sq = -minkowski(out, out)
        if not abs(norm_sq - 1.0) <= 2.0 * HYPERBOLIC_TOL:
            raise InvalidPointError(
                f"exponential map at radius {r:g} is not representable in floating point")
        return Point(self, _readonly(out / math.sqrt(norm_sq)))

    def sample_payload(self, rng):
        return self.exp_from_base(rng.standard_normal(self.dim)).payload

    def sample_block(self, rng, n):
        # the same draws as n calls of sample_payload
        return _exp_rows(rng.standard_normal((n, self.dim)))

    def distances(self, a, b):
        # identical rows read an exact zero, as in payload_distance
        same = np.all(a == b, axis=1)
        return np.where(same, 0.0, np.arccosh(np.maximum(-_pairing(a, b), 1.0)))

    def interpolate(self, a, b, t):
        t = np.asarray(t, dtype=float)
        theta = self.distances(a, b)
        # Rows below _TINY_ANGLE keep their start point, as in
        # payload_interpolate; a stand-in angle spares them sinh(0) = 0.
        near = theta < _TINY_ANGLE
        theta = np.where(near, 1.0, theta)
        w = (np.sinh((1.0 - t) * theta)[:, None] * a
             + np.sinh(t * theta)[:, None] * b) / np.sinh(theta)[:, None]
        out = np.where((near | (t == 0.0))[:, None], a, _normalize(w))
        return np.where((t == 1.0)[:, None], b, out)


class ProductSpace(SpaceModel):
    """The l2 product of two models: d^2 = d_left^2 + d_right^2.

    Payloads are pairs ``(left_point, right_point)``; geodesics run
    componentwise at a shared parameter.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: SpaceModel, right: SpaceModel):
        if not isinstance(left, SpaceModel) or not isinstance(right, SpaceModel):
            raise ConstructionError("product factors must be space models")
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
        factors = []
        for side, space, p in (("left", self.left, pl), ("right", self.right, pr)):
            if isinstance(p, Point):
                if p.space != space:
                    raise InvalidPointError(f"{side} component belongs to a different space")
                p = p.payload
            factors.append(space.point(p))
        return tuple(factors)

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

    # Blocks are (left block, right block) pairs.

    def stack(self, points):
        pairs = self._payloads(points)
        return (self.left.stack([p[0] for p in pairs]), self.right.stack([p[1] for p in pairs]))

    def repeat(self, point, n):
        pl, pr = self._payloads([point])[0]
        return (self.left.repeat(pl, n), self.right.repeat(pr, n))

    def block_len(self, block):
        return self.left.block_len(block[0])

    def row(self, block, i):
        return Point(self, (self.left.row(block[0], i), self.right.row(block[1], i)))

    def sample_block(self, rng, n):
        return (self.left.sample_block(rng, n), self.right.sample_block(rng, n))

    def distances(self, a, b):
        return np.hypot(self.left.distances(a[0], b[0]), self.right.distances(a[1], b[1]))

    def interpolate(self, a, b, t):
        return (self.left.interpolate(a[0], b[0], t), self.right.interpolate(a[1], b[1], t))

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


def quasilinearization(x: Point, z: Point, y: Point, w: Point) -> float:
    """Metric pairing of the bound vectors x->z and y->w.

    Defined as half of d(x,w)^2 + d(z,y)^2 - d(x,y)^2 - d(z,w)^2; in a
    Euclidean model this is exactly the inner product <z - x, w - y>.
    """
    check_same_space(x, z, y, w)
    return _quasilinear(distance, x, z, y, w)


def _quasilinear(dist, x, z, y, w):
    """The quasilinearization through ``dist``: ``distance`` or a block's ``distances``."""
    return 0.5 * (dist(x, w) ** 2 + dist(z, y) ** 2 - dist(x, y) ** 2 - dist(z, w) ** 2)


def cat0_defect(x: Point, y: Point, z: Point, t: float) -> float:
    """Slack in the quadratic nonpositive-curvature inequality.

    Returns (1-t)d(x,z)^2 + t d(y,z)^2 - t(1-t)d(x,y)^2 - d(x_t,z)^2 where
    x_t is the geodesic point between x and y.  Nonnegative (up to
    rounding) in every CAT(0) model.
    """
    check_same_space(x, y, z)
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"interpolation parameter must be in [0, 1], got {t}")
    return _cat0(distance, x, y, z, geodesic_point(x, y, t), t)


def _cat0(dist, x, y, z, xt, t):
    """The curvature defect through ``dist``, with ``xt`` the geodesic point at t."""
    return (
        (1.0 - t) * dist(x, z) ** 2
        + t * dist(y, z) ** 2
        - t * (1.0 - t) * dist(x, y) ** 2
        - dist(xt, z) ** 2
    )
