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
import numbers

import numpy as np

from .errors import (
    ConstructionError,
    ConvergenceFailureError,
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
# Largest coordinate magnitude of a point.  Below dimension ~4e7 no squared
# distance between such points overflows; hyperboloid points stay far
# inside it (cosh(_EXP_RADIUS) is about 1e130).
_COORD_LIMIT = 1e150
# Sweep cap of the iterative mean solvers; the hyperboloid iteration
# contracts linearly and stabilizes well within it.
_SWEEP_LIMIT = 200
# The array types of a real vector: every integer, and floats up to float64.
_REAL_ARRAY_CODES = np.typecodes["AllInteger"] + "efd"


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or NumPy integer; a bool is not one."""
    return type(value) is int or (isinstance(value, numbers.Integral) and type(value) is not bool)


# The one rule for the numbers a caller passes.  A real number is an int, a
# float, a ``Fraction``, a NumPy integer or floating scalar or any other real
# of the ``numbers`` tower, never a bool.  A real vector is an integer or float
# array (float64 at most), or a list or tuple of real numbers.  Anything else,
# a real beyond float range included, raises the site's ``error`` with ``what``.

def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a float passes the first test."""
    return type(value) is float or (isinstance(value, numbers.Real) and type(value) is not bool)


def _real(value, error: type, what: str) -> float:
    """A real number as a float."""
    if _is_real(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{what}, got {value!r}")


def _real_vector(values, error: type, what: str) -> np.ndarray:
    """A real vector as a new float64 array of its shape."""
    if isinstance(values, np.ndarray):
        if values.dtype.char in _REAL_ARRAY_CODES:
            return values.astype(float)
    elif isinstance(values, (list, tuple)) and all(map(_is_real, values)):
        try:
            # float() of each entry, as ``_real`` takes it, so that no NumPy cast warns
            return np.array(list(map(float, values)))
        except OverflowError:
            pass
    raise error(f"{what}, got {values!r}")


def _is_tolerance(value) -> bool:
    """Whether ``value`` is a finite real number >= 0."""
    return _is_real(value) and 0.0 <= value < math.inf


def _require(value, kind: type, label: str) -> None:
    if not isinstance(value, kind):
        raise ConstructionError(f"{label} must be of type {kind.__name__}, got {value!r}")


def _lines(text: str) -> list[str]:
    r"""The lines of a document, broken only at \n, \r\n and \r, as a text-mode ``open``
    reads them; ``str.splitlines`` also breaks at \f, \v, \x1c-\x1e, \x85, \u2028, \u2029."""
    if "\r" in text:  # most documents hold none, and replacing the pair is slow
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _bounded(values: list) -> bool:
    """Whether every float of ``values`` is at most ``_COORD_LIMIT`` in magnitude."""
    # The norm is at least each |v|, and NaN or inf with any of them, so
    # only a norm past the bound needs the coordinatewise test.  There a
    # NaN fails both comparisons at any position (Python's max would pass
    # over one that does not come first).
    return (math.hypot(*values) <= _COORD_LIMIT
            or all(-_COORD_LIMIT <= v <= _COORD_LIMIT for v in values))


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


class Point:
    """A location tagged with the space it lives in.

    The payload representation depends on the model: a coordinate vector
    (Euclidean), an ambient Minkowski vector (Hyperboloid), an edge/offset
    location (MetricTree), or a pair of factor points (ProductSpace).
    Points are checked once, where they enter: input from outside the
    library goes through ``SpaceModel.point``, which converts, copies and
    checks it.  A coordinate array that a kernel has just built goes
    through ``CoordinateSpace._wrap``, which skips only the conversion,
    copy and shape check and keeps every other check; a kernel that
    builds a loop payload (``SpaceModel._loop_payload``) runs those checks
    on its floats, and the point is made of it later, unchecked.
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

    Subclasses implement distance, geodesic interpolation and payload
    validation on raw payloads, and seeded sampling in blocks; the
    ``Point``-level API wraps those.  Structural equality (``==``)
    identifies spaces that were constructed separately but describe the
    same model.
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
        """Constant-speed geodesic point at parameter t in (0, 1): one row of ``interpolate``."""
        a, b = (self.stack([Point(self, p)]) for p in (a, b))
        return self.row(self.interpolate(a, b, np.array([t])), 0).payload

    def payloads_equal(self, a, b) -> bool:
        return a == b

    def format_payload(self, payload) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def _mean(self, payloads, weights, step_tol: float):
        """The weighted Frechet mean of three or more loop payloads with positive weights.

        Takes and returns payloads in the loop form (``_loop_payload``).
        An iterative solver stops once a step moves its iterate by at
        most ``step_tol``, and after ``_SWEEP_LIMIT`` steps raises
        ``ConvergenceFailureError`` with its last iterate, as a point, and
        its objective.  ``barycenter.frechet_mean`` is the public entry.
        """
        raise NotImplementedError

    # -- the loop form --------------------------------------------------
    #
    # A projection run steps payloads in the form its model's scalar
    # kernels compute on, and makes a point only of each iterate it keeps.
    # That form is the point's payload, except on the hyperboloid, whose
    # kernels compute on lists of Python floats.  A kernel that builds a
    # loop payload runs the checks ``_wrap`` would run on its point, where
    # its point-level twin runs them.

    def _loop_payload(self, point: Point):
        """A point's payload in the loop form."""
        return point.payload

    def _loop_point(self, payload) -> Point:
        """The point of a loop payload that a kernel made, without further checks."""
        return Point(self, payload)

    @property
    def _loop_distance(self):
        """``payload_distance`` on loop payloads."""
        return self.payload_distance

    def _loop_interpolate(self, a, b, t: float):
        """``payload_interpolate`` on loop payloads."""
        return self.payload_interpolate(a, b, t)

    # -- point-level convenience ------------------------------------

    def point(self, payload) -> Point:
        """Validate, canonicalize, and wrap a raw payload."""
        return Point(self, self.validate_payload(payload))

    def sample(self, rng: np.random.Generator) -> Point:
        """One seeded sample: the one-row case of ``sample_block``."""
        return self.row(self.sample_block(rng, 1), 0)

    # -- block interface ----------------------------------------------
    #
    # A block holds n points of the model as payload arrays, and a kernel
    # computes one row from that row's inputs alone, with elementwise
    # operations only, so row i of any block equals a one-row block of the
    # same inputs bit for bit.  Every model brings its own block layout and
    # kernels; ``interpolate`` in particular is never derived, so that the
    # derived ``payload_interpolate`` above never calls back into itself.
    # The block mean is the one exception: it loops ``_mean`` below, and
    # only the flat model, whose ``_mean`` is its one-row case, replaces it.

    def _payloads(self, points) -> list:
        out = []
        for p in points:
            if not (isinstance(p, Point) and _same_space(p.space, self)):
                raise SpaceMismatchError(f"{p!r} is not a point of {self.describe()}")
            out.append(p.payload)
        return out

    def stack(self, points):
        """The block of the given points of this space."""
        raise NotImplementedError

    def repeat(self, point: Point, n: int):
        """A block of n copies of one point."""
        raise NotImplementedError

    def block_len(self, block) -> int:
        raise NotImplementedError

    def row(self, block, i: int) -> Point:
        """Row i of a block as a point."""
        raise NotImplementedError

    def concat(self, blocks):
        """The rows of the given blocks, in order, as one block."""
        raise NotImplementedError

    def sample_block(self, rng: np.random.Generator, n: int):
        """A block of n seeded samples; every model draws its own."""
        raise NotImplementedError

    def distances(self, a, b) -> np.ndarray:
        """Rowwise distances between two blocks of one length."""
        raise NotImplementedError

    def interpolate(self, a, b, t):
        """Rowwise geodesic points at parameters t in [0, 1], exact at the ends."""
        raise NotImplementedError

    def _block_mean(self, blocks, weights, step_tol):
        """Rowwise ``_mean``: row r is the mean of row r of the k ``blocks``.

        ``weights`` is an (m, k) array of positive rows, row r weighting
        the points of row r.  Each row is solved by the model's own
        ``_mean``, on Python-float weights as ``frechet_mean`` passes them,
        so the first row that reaches ``_SWEEP_LIMIT`` raises as ``_mean``
        does for it.
        """
        return self.stack([self._loop_point(self._mean(
            [self._loop_payload(self.row(b, r)) for b in blocks], weights[r].tolist(), step_tol))
            for r in range(len(weights))])

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
        if not (_is_integer(dim) and dim >= 1):
            raise ConstructionError(f"{type(self).__name__} dimension must be a positive integer")
        object.__setattr__(self, "dim", int(dim))

    def validate_payload(self, payload):
        arr = _real_vector(payload, InvalidPointError, "coordinates must be real numbers")
        n = self.dim + self._extra
        if arr.shape != (n,):
            raise InvalidPointError(f"expected {n} coordinates, got shape {arr.shape}")
        self._check_coordinates(arr.tolist())
        arr.setflags(write=False)
        return arr

    def _check_coordinates(self, x: list) -> None:
        """The checks of a payload past conversion and shape, on its coordinates as Python
        floats: bounded, finite coordinates."""
        if not _bounded(x):
            raise InvalidPointError(
                f"coordinates must be finite and at most {_COORD_LIMIT:g} in magnitude")

    def _wrap(self, arr) -> Point:
        """A kernel's fresh float array of the right shape as a point of this space.

        ``point`` without its conversion, copy and shape check: the array
        becomes the read-only payload itself, after every other check of
        ``validate_payload``.
        """
        self._check_coordinates(arr.tolist())
        return self._loop_point(arr)

    def _loop_point(self, arr) -> Point:
        # the array itself becomes the read-only payload
        arr.setflags(write=False)
        return Point(self, arr)

    def payloads_equal(self, a, b) -> bool:
        return bool(np.array_equal(a, b))

    # Blocks are (n, dim + _extra) float arrays.

    def stack(self, points):
        return np.array(self._payloads(points), dtype=float).reshape(-1, self.dim + self._extra)

    def repeat(self, point, n):
        return np.broadcast_to(self._payloads([point])[0], (n, self.dim + self._extra))

    def concat(self, blocks):
        return np.concatenate(blocks)

    def block_len(self, block):
        return len(block)

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


class Euclidean(CoordinateSpace):
    """Flat n-dimensional space with the usual metric."""

    __slots__ = ()

    # Scalar twin kept: the drivers' hot path, where a one-row block costs 7.6x.
    def payload_distance(self, a, b) -> float:
        # np.linalg.norm's own arithmetic on a vector, without its dispatch
        d = a - b
        return math.sqrt(d.dot(d))

    def sample_block(self, rng, n):
        return rng.standard_normal((n, self.dim))

    def distances(self, a, b):
        diff = (a - b).T
        return np.sqrt(_dot(diff, diff))

    def interpolate(self, a, b, t):
        t = np.asarray(t, dtype=float)[:, None]
        return (1.0 - t) * a + t * b

    # The flat mean is the one-row case of the block mean.
    def _mean(self, payloads, weights, step_tol):
        blocks = [p[None] for p in payloads]
        return self._block_mean(blocks, np.array([weights]), step_tol)[0]

    def _block_mean(self, blocks, weights, step_tol):
        # the coordinate-wise weighted average, summed in point order
        acc = np.zeros((len(weights), self.dim))
        for j, block in enumerate(blocks):
            acc += weights[:, j, None] * block
        return acc


def minkowski(u, v) -> float:
    """Lorentzian pairing -u0*v0 + sum_{i>=1} ui*vi of two ambient vectors of one length.

    Raises ``DomainError`` unless both are real vectors of at least two
    coordinates, the ambient vectors of ``Hyperboloid(n)`` for n >= 1.
    """
    x, y = _ambient(u), _ambient(v)
    if len(x) != len(y):
        raise DomainError(f"Minkowski vectors must have one length, got {len(x)} and {len(y)}")
    return _minkowski(x, y)


def _ambient(v) -> list:
    """An ambient vector as a list of floats, for the public helpers' checks."""
    arr = _real_vector(v, DomainError, "Minkowski vector must be real numbers")
    if arr.ndim != 1 or len(arr) < 2:
        raise DomainError(f"Minkowski vector must have at least 2 coordinates, got shape "
                          f"{arr.shape}")
    return arr.tolist()


# The block kernels and the hyperboloid's scalar twins sum coordinates
# only through ``_dot`` and ``_minkowski``.  Their arguments are coordinate
# sequences: ``u[k]`` is coordinate k, a float when a scalar twin passes a
# list (one ``tolist`` per payload), or a block's column when a kernel
# passes ``block.T``.  The one loop sums in column order either way, so
# each row of a block's sum depends on that row alone, and a twin that
# calls it equals its one-row block bit for bit.

def _dot(u, v, start=0):
    """sum_{k >= start} u[k] * v[k] of two coordinate sequences, summed in column order."""
    total = u[start] * v[start]
    for k in range(start + 1, len(u)):
        total += u[k] * v[k]
    return total


def _minkowski(u, v):
    """The Minkowski pairing -u[0]*v[0] + sum_{k >= 1} u[k]*v[k] of two coordinate sequences."""
    return _dot(u, v, 1) - u[0] * v[0]


def _normalized(w) -> list:
    """``_normalize`` of one timelike coordinate list, unchecked."""
    scale = math.sqrt(-_minkowski(w, w))
    return [c / scale for c in w]


def _combine(weights, payloads) -> list:
    """sum_i weights[i] * payloads[i] on coordinate lists, summed in point order."""
    acc = [0.0] * len(payloads[0])
    for w, q in zip(weights, payloads):
        acc = [a + w * c for a, c in zip(acc, q)]
    return acc


def _sheet_distance(x, y) -> float:
    """``Hyperboloid.payload_distance`` of two coordinate lists."""
    # arcosh resolves nothing below ~1.5e-8, so identical payloads
    # must short-circuit to an exact zero.
    if x == y:
        return 0.0
    c = -_minkowski(x, y)
    if c < 1.0:
        c = 1.0
    return math.acosh(c)


def _normalize(w):
    """Each timelike row of an ambient block scaled onto its sheet."""
    return w / np.sqrt(-_minkowski(w.T, w.T))[:, None]


# Beyond this radius no exponential map is representable: from r = 19.1
# on, cosh(r)^2 - sinh(r)^2 rounds at least 2e-7 away from 1.  Below it no
# square overflows.
_EXP_RADIUS = 300.0


def _exp_rows(v):
    """The exponential maps at the apex of the rows of an (n, dim) tangent block.

    Raises ``InvalidPointError`` when any row's image is not representable
    in floating point.  ``Hyperboloid.exp_from_base`` is its one-row case.
    """
    r = np.sqrt(_dot(v.T, v.T))
    in_range = r <= _EXP_RADIUS
    # rows within 1e-300 of the apex stay on it, and so do the rows out of
    # range, which fail the check below
    moved = in_range & (r >= 1e-300)
    rm = r[moved]
    out = np.zeros((len(r), v.shape[1] + 1))
    out[:, 0] = 1.0
    out[moved, 0] = np.cosh(rm)
    out[moved, 1:] = (np.sinh(rm) / rm)[:, None] * v[moved]
    # -m(out, out) serves the check and then ``_normalize``'s division
    norm_sq = -_minkowski(out.T, out.T)
    bad = ~(in_range & (np.abs(norm_sq - 1.0) <= 2.0 * HYPERBOLIC_TOL))
    if bad.any():
        raise InvalidPointError(f"exponential map at radius {r[bad][0]:g} "
                                f"is not representable in floating point")
    return out / np.sqrt(norm_sq)[:, None]


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

    def _check_coordinates(self, x):
        super()._check_coordinates(x)
        gap = abs(_minkowski(x, x) + 1.0)
        if gap > ON_MANIFOLD_TOL:
            raise InvalidPointError(
                f"point is off the sheet: |m(v,v)+1| = {gap:.3e}"
            )
        if x[0] <= 0:
            raise InvalidPointError("point must lie on the upper sheet (v[0] > 0)")

    # The loop form is the list of Python floats that the scalar twins compute on.

    def _loop_payload(self, point):
        return point.payload.tolist()

    def _loop_point(self, coords):
        return Point(self, _readonly(coords))

    _loop_distance = staticmethod(_sheet_distance)

    def _loop_interpolate(self, a, b, t):
        return self.payload_interpolate(a, b, t).tolist()

    @staticmethod
    def normalize(v) -> np.ndarray:
        """The timelike ambient vector v scaled onto its sheet: v / sqrt(-m(v, v)).

        Raises ``DomainError`` unless v is a real vector of at least two
        coordinates with -m(v, v) positive and finite.
        """
        w = _ambient(v)
        norm_sq = -_minkowski(w, w)
        if not 0.0 < norm_sq < math.inf:
            raise DomainError(f"vector must be timelike with a finite pairing, "
                              f"got -m(v, v) = {norm_sq!r}")
        return _readonly(_normalized(w))

    # Scalar twin kept: the drivers' Fejer gaps of hyperbolic traces, where a one-row block
    # costs 18x.
    def payload_distance(self, a, b) -> float:
        if a is b:
            return 0.0
        return _sheet_distance(a.tolist(), b.tolist())

    def exp_from_base(self, tangent) -> Point:
        """Exponential map at the apex of a tangent vector in R^dim: one row of ``_exp_rows``."""
        v = _real_vector(tangent, InvalidPointError, "tangent coordinates must be real numbers")
        if v.shape != (self.dim,):
            raise InvalidPointError(f"tangent vector must have {self.dim} coordinates")
        if not np.abs(v).max() <= _EXP_RADIUS:  # past the bound, or NaN: refused before squares
            raise InvalidPointError(f"exponential map at radius {math.hypot(*v):g} "
                                    f"is not representable in floating point")
        return self.row(_exp_rows(v[None]), 0)

    def sample_block(self, rng, n):
        return _exp_rows(rng.standard_normal((n, self.dim)))

    def distances(self, a, b):
        # identical rows read an exact zero, as in payload_distance
        same = np.all(a == b, axis=1)
        return np.where(same, 0.0, np.arccosh(np.maximum(-_minkowski(a.T, b.T), 1.0)))

    def interpolate(self, a, b, t):
        t = np.asarray(t, dtype=float)
        theta = self.distances(a, b)
        # Rows below _TINY_ANGLE keep their start point; a stand-in angle
        # spares them sinh(0) = 0.  Both coefficients are >= 0, so every
        # row stays on the upper sheet's side.
        near = theta < _TINY_ANGLE
        theta = np.where(near, 1.0, theta)
        w = (np.sinh((1.0 - t) * theta)[:, None] * a
             + np.sinh(t * theta)[:, None] * b) / np.sinh(theta)[:, None]
        out = np.where((near | (t == 0.0))[:, None], a, _normalize(w))
        return np.where((t == 1.0)[:, None], b, out)

    def _mean(self, payloads, weights, step_tol):
        # Fixed point of the stationarity condition: the mean satisfies
        # x = normalize(sum_i w_i (theta_i / sinh theta_i) x_i) with
        # theta_i = d(x, x_i).  The map contracts near the mean, so plain
        # iteration from the normalized ambient average converges linearly.
        current = _normalized(_combine(weights, payloads))
        for _ in range(_SWEEP_LIMIT):
            coeffs = []
            for w, q in zip(weights, payloads):
                theta = _sheet_distance(current, q)
                coeffs.append(w * (1.0 if theta < 1e-8 else theta / math.sinh(theta)))
            candidate = _normalized(_combine(coeffs, payloads))
            # ambient gap: the geodesic metric cannot resolve steps below
            # ~1.5e-8, while the ambient norm bounds it near the sheet
            diff = [a - b for a, b in zip(current, candidate)]
            current = candidate
            if math.sqrt(_dot(diff, diff)) <= step_tol:
                self._check_coordinates(current)
                return current
        # the objective is barycenter.frechet_objective at the last iterate
        raise ConvergenceFailureError(
            f"hyperboloid mean did not stabilize in {_SWEEP_LIMIT} iterations",
            last_point=self.point(current),
            objective=math.fsum(w * _sheet_distance(current, q) ** 2
                                for w, q in zip(weights, payloads)),
        )


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

    # Scalar twin kept: the drivers' product means, where a one-row block costs 11x.
    def payload_distance(self, a, b) -> float:
        dl = self.left.payload_distance(a[0].payload, b[0].payload)
        dr = self.right.payload_distance(a[1].payload, b[1].payload)
        return math.hypot(dl, dr)

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

    def concat(self, blocks):
        return (self.left.concat([b[0] for b in blocks]), self.right.concat([b[1] for b in blocks]))

    def _mean(self, payloads, weights, step_tol):
        # the objective separates, so the mean is the pair of factor means
        return tuple(space._loop_point(space._mean([space._loop_payload(p[i]) for p in payloads],
                                                   weights, step_tol))
                     for i, space in enumerate((self.left, self.right)))

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


def _same_space(a: SpaceModel, b: SpaceModel) -> bool:
    """Whether two spaces are one model: one object, or two built alike."""
    # identity first: comparing a tree with itself by == walks its edges
    return a is b or a == b


def check_same_space(*points: Point) -> SpaceModel:
    """Return the shared space of the given points or raise ``SpaceMismatchError``."""
    # the first point passes its own isinstance test before its space is read
    for p in points:
        if not isinstance(p, Point):
            raise SpaceMismatchError(f"{p!r} is not a point")
        if not _same_space(p.space, points[0].space):
            raise SpaceMismatchError(
                f"points live in different spaces: {points[0].space.describe()} vs "
                f"{p.space.describe()}"
            )
    return points[0].space


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
    _check_parameter(t)
    return _geodesic(space, p, q, t)


def _check_parameter(t) -> None:
    """Raise ``DomainError`` unless t is a real number in [0, 1]: a geodesic's parameter."""
    # the rule's float test inline: the trees workload makes 16 calls per query
    if not ((type(t) is float or _is_real(t)) and 0.0 <= t <= 1.0):
        raise DomainError(f"interpolation parameter must be in [0, 1], got {t}")


def _geodesic(space: SpaceModel, p: Point, q: Point, t: float) -> Point:
    """``geodesic_point`` after its checks: p and q in ``space``, t in [0, 1]."""
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
    # geodesic_point raises DomainError for t outside [0, 1]
    return _cat0(distance, x, y, z, geodesic_point(x, y, t), t)


def _cat0(dist, x, y, z, xt, t):
    """The curvature defect through ``dist``, with ``xt`` the geodesic point at t."""
    return (
        (1.0 - t) * dist(x, z) ** 2
        + t * dist(y, z) ** 2
        - t * (1.0 - t) * dist(x, y) ** 2
        - dist(xt, z) ** 2
    )
