"""Closed convex sets with closed-form metric projections.

Each descriptor knows its space, a display name, a membership test, and
the nearest-point projection.  All sets here are closed and geodesically
convex in their model, so the projection is single valued and firmly
nonexpansive.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstructionError, DomainError, SpaceMismatchError
from .geometry import (
    EQ_TOL,
    Euclidean,
    Hyperboloid,
    Point,
    ProductSpace,
    SpaceModel,
    _minkowski,
    _normalize,
    _normalized,
    _pairing,
    _rowdot,
    _same_space,
    check_same_space,
    distance,
)
from .metric_tree import MetricTree

__all__ = [
    "ConvexSet",
    "EuclideanHalfspace",
    "EuclideanHyperplane",
    "HyperbolicHalfspace",
    "GeodesicBall",
    "Subtree",
    "ProductSet",
    "halfspace_residual",
    "projection_defect",
]


class ConvexSet:
    """Base class for closed convex sets with an exact projection.

    Sets compare and hash by identity: two sets built from one
    description are two sets.
    """

    __slots__ = ("space", "name")

    def __init__(self, space: SpaceModel, name: str):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check_point(self, x: Point):
        if not isinstance(x, Point):
            raise SpaceMismatchError(f"{x!r} is not a point")
        if not _same_space(x.space, self.space):
            raise SpaceMismatchError(
                f"point in {x.space.describe()} vs set '{self.name}' in "
                f"{self.space.describe()}"
            )

    def project(self, x: Point) -> Point:
        """The nearest point of the set to x: the one-row case of ``project_block``."""
        # stack raises SpaceMismatchError for x outside the set's space
        return self.space.row(self.project_block(self.space.stack([x])), 0)

    def project_block(self, block):
        """Projections of a block of points of the set's space, rowwise."""
        raise NotImplementedError

    def contains(self, x: Point) -> bool:
        """Membership up to ``EQ_TOL``."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{self.describe()} [{self.name}]"


class EuclideanHalfspace(ConvexSet):
    """{x : <normal, x> <= offset} in a Euclidean model."""

    __slots__ = ("normal", "offset", "_norm_sq")
    # Members have gap <normal, x> - offset in [_lowest_gap, 0].
    kind = "halfspace"
    _relation = "<="
    _lowest_gap = -math.inf

    def __init__(self, space: Euclidean, normal, offset: float, name: str | None = None):
        if not isinstance(space, Euclidean):
            raise ConstructionError(f"{type(self).__name__} requires a Euclidean space")
        super().__init__(space, self.kind if name is None else name)
        try:
            arr = np.array(normal, dtype=float)
            offset = float(offset)
        except (TypeError, ValueError, OverflowError):
            raise ConstructionError(f"{self.kind} normal and offset must be real numbers, "
                                    f"got {normal!r} and {offset!r}") from None
        if arr.shape != (space.dim,):
            raise ConstructionError(f"normal must have {space.dim} coordinates")
        norm_sq = float(arr @ arr)
        if norm_sq <= 0 or not math.isfinite(norm_sq):
            raise ConstructionError(f"{self.kind} normal must be nonzero and finite")
        if not math.isfinite(offset):
            raise ConstructionError(f"{self.kind} offset must be finite, got {offset}")
        arr.setflags(write=False)
        object.__setattr__(self, "normal", arr)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_norm_sq", norm_sq)

    # Scalar twin kept: the drivers' flat runs, where a one-row block costs 2.5x.
    def project(self, x: Point) -> Point:
        self._check_point(x)
        gap = float(self.normal @ x.payload) - self.offset
        if self._lowest_gap <= gap <= 0.0:
            return x
        return self.space._wrap(x.payload - (gap / self._norm_sq) * self.normal)

    def project_block(self, block):
        gap = _rowdot(block, self.normal) - self.offset
        kept = (self._lowest_gap <= gap) & (gap <= 0.0)
        return np.where(kept[:, None], block, block - (gap / self._norm_sq)[:, None] * self.normal)

    def contains(self, x: Point) -> bool:
        self._check_point(x)
        gap = float(self.normal @ x.payload) - self.offset
        bound = EQ_TOL * math.sqrt(self._norm_sq)
        return self._lowest_gap - bound <= gap <= bound

    def describe(self) -> str:
        normal = self.space.format_payload(self.normal)
        return f"{self.kind} <{normal}, x> {self._relation} {self.offset:g}"


class EuclideanHyperplane(EuclideanHalfspace):
    """{x : <normal, x> = offset}: an affine hyperplane (a line in the plane)."""

    __slots__ = ()
    kind = "hyperplane"
    _relation = "="
    _lowest_gap = 0.0


def halfspace_residual(sets):
    """x -> max_k d(x, C_k) as one matrix-vector product, or None.

    Defined when every set is an ``EuclideanHalfspace`` (hyperplanes
    included) of one space; None for any other family.  With gaps
    g = A x - b, the distance to C_k is max(g_k, _lowest_gap_k - g_k) / |a_k|
    clipped at zero, which is the length |gap| / |a| of the step the
    projection takes, without forming the image.
    """
    sets = list(sets)
    if not sets or not all(isinstance(c, EuclideanHalfspace) for c in sets):
        return None
    if any(c.space != sets[0].space for c in sets):
        raise SpaceMismatchError("the halfspaces live in different spaces")
    normals = np.stack([c.normal for c in sets])
    offsets = np.array([c.offset for c in sets])
    lowest = np.array([c._lowest_gap for c in sets])
    norms = np.sqrt([c._norm_sq for c in sets])

    def residual(x: Point) -> float:
        sets[0]._check_point(x)
        gap = normals @ x.payload - offsets
        # fmax: an infinite halfspace gap gives -inf - -inf = nan on the right
        worst = float((np.fmax(gap, lowest - gap) / norms).max())
        # also maps -0.0 (a signed zero on a hyperplane) to +0.0
        return 0.0 if worst <= 0.0 else worst

    return residual


class HyperbolicHalfspace(ConvexSet):
    """{x : m(u, x) <= 0} for a unit spacelike Minkowski normal u.

    The boundary is the totally geodesic hypersurface orthogonal to u;
    the projection of an exterior point subtracts the u-component and
    renormalizes onto the sheet.  A non-unit spacelike normal is
    normalized at construction.
    """

    __slots__ = ("normal", "_coords")

    def __init__(self, space: Hyperboloid, normal, name: str = "hyperbolic-halfspace"):
        if not isinstance(space, Hyperboloid):
            raise ConstructionError("HyperbolicHalfspace requires a Hyperboloid space")
        super().__init__(space, name)
        try:
            arr = np.array(normal, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ConstructionError(f"normal must be real numbers, got {normal!r}") from None
        if arr.shape != (space.dim + 1,):
            raise ConstructionError(f"normal must have {space.dim + 1} ambient coordinates")
        coords = arr.tolist()
        mm = _minkowski(coords, coords)
        if not (math.isfinite(mm) and mm > 0):
            raise ConstructionError("normal must be spacelike: m(u, u) > 0")
        arr = arr / math.sqrt(mm)
        arr.setflags(write=False)
        object.__setattr__(self, "normal", arr)
        # the scalar twins' copy of the normal, as Python floats
        object.__setattr__(self, "_coords", arr.tolist())

    # Scalar twin kept: the drivers' hyperbolic runs, where a one-row block costs 2.6x to 26x.
    def project(self, x: Point) -> Point:
        self._check_point(x)
        p = x.payload.tolist()
        s = _minkowski(self._coords, p)
        if s <= 0.0:
            return x
        moved = _normalized([a - s * u for a, u in zip(p, self._coords)])
        return self.space._wrap(np.array(moved))

    def project_block(self, block):
        s = _pairing(self.normal, block)
        outside = s > 0.0
        # rows inside subtract nothing, so every row stays timelike
        moved = _normalize(block - np.where(outside, s, 0.0)[:, None] * self.normal)
        return np.where(outside[:, None], moved, block)

    def contains(self, x: Point) -> bool:
        self._check_point(x)
        return _minkowski(self._coords, x.payload.tolist()) <= EQ_TOL

    def describe(self) -> str:
        return f"hyperbolic halfspace m({self.space.format_payload(self.normal)}, x) <= 0"


class GeodesicBall(ConvexSet):
    """Closed metric ball; convex in every nonpositively curved model."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Point, radius: float, name: str = "ball"):
        if not isinstance(center, Point):
            raise ConstructionError(f"ball center must be a point, got {center!r}")
        super().__init__(center.space, name)
        try:
            radius = float(radius)
        except (TypeError, ValueError, OverflowError):
            raise ConstructionError(f"ball radius must be a real number, got {radius!r}") from None
        if not (math.isfinite(radius) and radius > 0):
            raise ConstructionError(f"ball radius must be positive, got {radius}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    def project_block(self, block):
        space = self.space
        center = space.repeat(self.center, space.block_len(block))
        d = space.distances(center, block)
        # t = 1 returns the row itself: rows inside the ball stay put
        return space.interpolate(center, block, self.radius / np.maximum(d, self.radius))

    def contains(self, x: Point) -> bool:
        self._check_point(x)
        return distance(self.center, x) <= self.radius + EQ_TOL

    def describe(self) -> str:
        return f"ball(center={self.space.format_payload(self.center.payload)}, r={self.radius:g})"


class Subtree(ConvexSet):
    """The closed subtree induced by a connected vertex subset.

    The set consists of the chosen vertices together with every full edge
    joining two of them.  An exterior point projects to its gate: the
    subtree vertex nearest to it.  With the tree rooted, that is the
    subtree's top vertex for a point outside the top's descendants, and
    otherwise the first member on the way up from the point.
    """

    __slots__ = ("vertex_set", "edge_set", "vertex_order", "_members", "_top", "_member_mask",
                 "_edge_mask")

    def __init__(self, tree: MetricTree, vertices, name: str = "subtree"):
        if not isinstance(tree, MetricTree):
            raise ConstructionError("Subtree requires a MetricTree space")
        super().__init__(tree, name)
        try:
            # a string is iterable, but its characters are not vertex names
            if isinstance(vertices, str):
                raise TypeError
            names = [str(v) for v in vertices]
        except TypeError:
            raise ConstructionError(f"subtree vertices must be a list of names, "
                                    f"got {vertices!r}") from None
        if not names:
            raise ConstructionError("subtree vertex set is empty")
        unknown = [v for v in names if v not in tree._index]
        if unknown:
            raise ConstructionError(f"unknown vertices: {unknown}")
        vset = frozenset(names)
        members = frozenset(tree._index[v] for v in vset)
        # A vertex set of a tree induces one component per member whose
        # parent lies outside the set.
        parent = tree._parent
        tops = [v for v in members if parent[v] not in members]
        if len(tops) != 1:
            raise ConstructionError(
                f"vertex set {sorted(vset)} does not induce a connected subtree"
            )
        top = tops[0]
        eset = frozenset(tree._parent_edge[v] for v in members if v != top)
        object.__setattr__(self, "vertex_set", vset)
        object.__setattr__(self, "edge_set", eset)
        object.__setattr__(self, "vertex_order", tuple(sorted(vset)))
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_top", top)
        member_mask = np.zeros(len(tree.vertices), dtype=bool)
        member_mask[list(members)] = True
        edge_mask = np.zeros(len(tree.edges), dtype=bool)
        edge_mask[list(eset)] = True
        object.__setattr__(self, "_member_mask", member_mask)
        object.__setattr__(self, "_edge_mask", edge_mask)

    def _gate(self, loc) -> Point | None:
        """None for a member location, else the shared point at its gate vertex."""
        tree: MetricTree = self.space
        if loc.edge in self.edge_set:
            return None
        v = tree.location_vertex(loc)
        if v is not None and v in self.vertex_set:
            return None
        c = tree._child[loc.edge]
        top = self._top
        if not top <= c <= tree._last[top]:
            return tree.vertex_point(tree._names[top])
        members, parent = self._members, tree._parent
        while c not in members:
            c = parent[c]
        return tree.vertex_point(tree._names[c])

    # Scalar twin kept: the trees workload's projections, where a one-row block costs 24x.
    def project(self, x: Point) -> Point:
        self._check_point(x)
        gate = self._gate(x.payload)
        return x if gate is None else gate

    def project_block(self, block):
        # _gate on every row: rows on the subtree's edges stay, the rest move
        # to their gate vertex; a row at a member vertex is its own gate
        tree: MetricTree = self.space
        edges, offsets = block
        member, kept = self._member_mask, self._edge_mask[edges]
        c, top = tree._child_arr[edges], self._top
        gate = np.where((top <= c) & (c <= tree._last[top]), c, top)
        climbing = np.flatnonzero(~member[gate])
        while climbing.size:
            gate[climbing] = tree._parent_arr[gate[climbing]]
            climbing = climbing[~member[gate[climbing]]]
        return (np.where(kept, edges, tree._vertex_edge[gate]),
                np.where(kept, offsets, tree._vertex_offset[gate]))

    def contains(self, x: Point) -> bool:
        return distance(x, self.project(x)) <= EQ_TOL

    def describe(self) -> str:
        return f"subtree({', '.join(self.vertex_order)})"


class ProductSet(ConvexSet):
    """Cartesian product of a set in each factor of a product space."""

    __slots__ = ("left", "right")

    def __init__(self, space: ProductSpace, left: ConvexSet, right: ConvexSet,
                 name: str = "product-set"):
        if not isinstance(space, ProductSpace):
            raise ConstructionError("ProductSet requires a ProductSpace")
        if left.space != space.left or right.space != space.right:
            raise ConstructionError("factor sets must live in the product's factors")
        super().__init__(space, name)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def project_block(self, block):
        return self.left.project_block(block[0]), self.right.project_block(block[1])

    def contains(self, x: Point) -> bool:
        self._check_point(x)
        pl, pr = x.payload
        return self.left.contains(pl) and self.right.contains(pr)

    def describe(self) -> str:
        return f"product({self.left.describe()}, {self.right.describe()})"


def projection_defect(c: ConvexSet, x: Point, y: Point) -> float:
    """Slack in d(x, Px)^2 + d(Px, y)^2 <= d(x, y)^2 for y in the set.

    Nonnegative (up to rounding) for every x and every member y; this is
    the variational inequality characterizing the metric projection.
    """
    check_same_space(x, y)
    if not c.contains(y):
        raise DomainError(f"challenge point is not in the set '{c.name}'")
    return _projection(distance, x, y, c.project(x))


def _projection(dist, x, y, px):
    """The projection inequality's defect through ``dist``, with ``px`` the image of x."""
    return dist(x, y) ** 2 - dist(x, px) ** 2 - dist(px, y) ** 2
