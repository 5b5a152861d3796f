"""Closed convex sets with closed-form metric projections.

Each descriptor knows its space, a display name, a membership test, and
the nearest-point projection.  All sets here are closed and geodesically
convex in their model, so the projection is single valued and firmly
nonexpansive.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import ConstructionError, DomainError, SpaceMismatchError
from .geometry import (
    EQ_TOL,
    Euclidean,
    Hyperboloid,
    Point,
    ProductSpace,
    SpaceModel,
    _COORD_LIMIT,
    _bounded,
    _dot,
    _minkowski,
    _normalize,
    _normalized,
    _real,
    _real_vector,
    _require,
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

    def _project_payload(self, p):
        """The projection of a payload of the set's space in its loop form.

        Returns ``p`` itself where ``project`` returns its input, and runs
        the checks ``project`` runs on its image.  A projection run steps
        by it (see ``SpaceModel._loop_payload``).  A set with a scalar twin
        computes it on the payload, and its ``project`` calls it; here it
        is ``project`` on the payload's point.
        """
        space = self.space
        x = space._loop_point(p)
        y = self.project(x)
        return p if y is x else space._loop_payload(y)

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
        what = f"{self.kind} normal and offset must be real numbers"
        arr = _real_vector(normal, ConstructionError, what)
        offset = _real(offset, ConstructionError, what)
        if arr.shape != (space.dim,):
            raise ConstructionError(f"normal must have {space.dim} coordinates")
        # bounded as a point's coordinates are, so that arr @ arr stays finite
        if not _bounded(arr.tolist()):
            raise ConstructionError(f"{self.kind} normal must be finite and at most "
                                    f"{_COORD_LIMIT:g} in magnitude")
        norm_sq = float(arr @ arr)
        if norm_sq <= 0:
            cause = "has a squared norm that underflows to 0" if arr.any() else "must be nonzero"
            raise ConstructionError(f"{self.kind} normal {cause}")
        if not math.isfinite(offset):
            raise ConstructionError(f"{self.kind} offset must be finite, got {offset}")
        self._keep(arr, offset, norm_sq)

    @staticmethod
    def _of_block(space: Euclidean, classes, names, block, offsets) -> list | None:
        """The sets ``cls(space, row, offset, name)`` of a float64 (K, dim) block, or None.

        The block and the offsets are checked once as ``__init__`` checks
        each normal and offset, and each set is built on its checked row
        with ``float(row @ row)`` as its squared norm, so the sets equal
        ``__init__``'s bit for bit.  None at any failed check: the caller
        then builds the sets one by one, and the first bad set raises.
        """
        # NaN fails the bound as infinity does
        if not (np.abs(block).max() <= _COORD_LIMIT and all(map(math.isfinite, offsets))):
            return None
        norm_sqs = [float(row @ row) for row in block]
        if min(norm_sqs) <= 0.0:
            return None
        sets = []
        for cls, name, row, offset, norm_sq in zip(classes, names, block, offsets, norm_sqs):
            c = cls.__new__(cls)
            ConvexSet.__init__(c, space, name)
            c._keep(row, offset, norm_sq)
            sets.append(c)
        return sets

    def _keep(self, normal, offset, norm_sq):
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_norm_sq", norm_sq)

    # Scalar twin kept: projection runs' witness checks and certify's projections, where a
    # one-row block costs 2.5x; the drivers' flat runs step its ``_project_payload``.
    def project(self, x: Point) -> Point:
        self._check_point(x)
        p = self._project_payload(x.payload)
        return x if p is x.payload else self.space._loop_point(p)

    def _project_payload(self, p):
        """The projection of a coordinate array: ``p`` itself when it lies in the set.

        A moved image passes ``_wrap``'s check, the coordinate bound.
        """
        q = self._image(p)
        if q is not p:
            self.space._check_coordinates(q.tolist())
        return q

    def _image(self, p):
        """``_project_payload`` without the check: the steps of the flat shadow solves."""
        gap = float(self.normal @ p) - self.offset
        if self._lowest_gap <= gap <= 0.0:
            return p
        return self._moved(p, gap)

    def _moved(self, p, gap):
        """The image p - (gap / |a|^2) a of a point, or of block rows with a gap column."""
        return p - (gap / self._norm_sq) * self.normal

    def project_block(self, block):
        gap = _dot(block.T, self.normal) - self.offset
        kept = (self._lowest_gap <= gap) & (gap <= 0.0)
        return np.where(kept[:, None], block, self._moved(block, gap[:, None]))

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


class _HalfspaceFamily:
    """A flat family, its normals and offsets stacked once: the run's ``residual``, the
    unchecked ``images`` the flat shadow solves step by, and a composition's ``sweep``."""

    @classmethod
    def of(cls, sets):
        """The family of ``sets``, or None; ``SpaceMismatchError`` for mixed spaces.

        The one test of a flat family: a nonempty list of
        ``EuclideanHalfspace``s (hyperplanes included) of one space, each
        keeping that class's ``project`` (a subclass that overrides it is
        projected through its override).
        """
        sets = list(sets)
        if not sets or not all(isinstance(c, EuclideanHalfspace)
                               and type(c).project is EuclideanHalfspace.project for c in sets):
            return None
        if any(c.space != sets[0].space for c in sets):
            raise SpaceMismatchError("the halfspaces live in different spaces")
        return cls(sets)

    def __init__(self, sets: list):
        self.sets = sets
        self.normals = normals = np.stack([c.normal for c in sets])
        self.offsets = offsets = np.array([c.offset for c in sets])
        self.images = [c._image for c in sets]
        # each row's offset, lowest gap and norm, as Python floats
        self._terms = list(zip(offsets.tolist(), [c._lowest_gap for c in sets],
                               np.sqrt([c._norm_sq for c in sets]).tolist()))
        # the sweep's screen
        l1 = np.abs(normals).sum(axis=1)
        screened = [c._lowest_gap == -math.inf and abs(c.offset) <= 2.0 ** 1021 for c in sets]
        self._weights = np.where(screened, (normals.shape[1] + 1) * 2.0 ** -50 * l1, math.nan)
        self._reach = 2.0 ** 1020 / max(float(l1.max()), 1.0)
        self._none_held = [False] * len(sets)

    def residual(self, p) -> float:
        """max_k d(p, C_k) on a coordinate array, from one matrix-vector product.

        Like ``SpaceModel.payload_distance`` it takes a payload and checks
        none: a caller passes the coordinates of a point of the sets' space.
        With gaps g = A p - b, the distance to C_k is
        max(g_k, _lowest_gap_k - g_k) / |a_k| clipped at zero, which is the
        length |gap| / |a| of the step the projection takes, without forming
        the image.

        After ``A @ p`` the residual runs on Python floats, and equals
        ``max(np.fmax(g, lowest - g) / norms)`` clipped at zero bit for bit:
        Python's ``max(g, lo - g)`` keeps g when the right side is NaN (an
        infinite halfspace gap gives -inf - -inf), as ``np.fmax`` does, and a
        NaN distance wins the maximum, as it does in ``np.max``.
        """
        # starting at +0.0 clips at zero, and maps -0.0 (a signed zero on a
        # hyperplane) to +0.0
        worst = 0.0
        for d, (b, lo, norm) in zip((self.normals @ p).tolist(), self._terms):
            g = d - b
            r = max(g, lo - g) / norm
            if r > worst:
                worst = r
            elif r != r:
                return r
        return worst

    def _screen(self, p) -> list:
        """Whether each row provably holds p; the rows decided by the twin read False."""
        size = math.sqrt(p.dot(p))
        if 2.0 ** -400 <= size <= self._reach:
            return (self.offsets - self.normals.dot(p) >= self._weights * size).tolist()
        return self._none_held

    def sweep(self, x: Point) -> Point:
        """P_K(... P_2(P_1 x)), the projections onto the sets in turn.

        The sweep returns what the loop ``for c in sets: x = c.project(x)``
        returns, bit for bit, the same object when no projection moves x,
        and raises what that loop raises: every projection that runs is
        that scalar twin, and a screen skips only twins that provably
        return their input.

        The screen takes the slacks s = b - A p at p = x.payload in one
        matrix-vector product, and the length v = fl(sqrt(fl(p . p))).  It
        counts a halfspace row r as held when s_r >= fl(w_r v), where
        w_r = fl(c fl(|a_r|_1)), c = 8 (n + 1) u, n is the dimension and
        u = 2^-53.  It runs only while 2^-400 <= v <= 2^1020 / max(1, |a|_1)
        over the rows; a NaN or infinite coordinate fails that too.

        Proof that the twin's gap fl(fl(a_r . p) - b_r) is then <= 0, so
        that the twin returns x.  Let S = sum_k |a_rk p_k| <= |a_r|_1 |p|_2,
        and eta = 2^-1074.  A dot product of length n, summed in any order,
        with or without fused multiply-adds, errs by at most gamma_n S + n eta,
        gamma_n = n u / (1 - n u) (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., ch. 3; under gradual underflow each product
        rounding adds at most eta / 2, and a sum that lands among the
        subnormals is exact).  This holds for the matrix-vector row d and for
        the twin's dot d' alike, so |d - d'| <= 2 gamma_n S + 2 n eta.  The
        slack s_r = (b_r - d)(1 + delta), |delta| <= u, so

            b_r - d' >= s_r / (1 + u) - 2 gamma_n S - 2 n eta.

        Since v >= 2^-400, fl(p . p) >= 2^-801 dwarfs its n eta, so
        |p|_2 <= v (1 + (n + 2) u); |a_r|_1 is a sum of nonnegative terms,
        low by at most a factor 1 - gamma_n; each product loses a factor
        1 - u, the last one eta / 2 more.  So the threshold fl(w_r v) is at
        least half of c |a_r|_1 |p|_2 (1 - (2n + 8) u), which exceeds
        (1 + u) 2 gamma_n S by a factor near 2 while n u <= 2^-20 (any
        dimension below 2^33), plus half of c |a_r|_1 2^-400 (1 - (n + 4) u)
        - eta / 2 >= (n + 1) 2^-990, which exceeds (1 + u) 2 n eta, since a
        positive squared norm needs a square of at least eta / 2, and so
        |a_r|_1 >= 2^-538.  Hence b_r - d' >= 0, the gap rounds d' - b_r <= 0
        to a value <= 0, and the halfspace's lowest gap is -inf.

        The bound needs finite arithmetic.  With v at most the upper limit,
        every partial sum of either dot stays below 2^1021 in magnitude, and
        rows with |b_r| > 2^1021 are never screened, so every slack compared
        is finite.  Hyperplanes are never screened (their w_r is NaN, which
        no slack reaches): the twin decides each of them.

        The slacks cannot stand in for the twin's gaps: a matrix-vector row
        and a one-row dot differ in the last bits on a third to a half of the
        rows of the drivers' wedges, which would move the digits of an image.
        So every factor not proven held runs the twin.  When the twin moves x,
        the screen is taken again at the new point if the last one held a
        later row; otherwise every later twin runs.
        """
        sets = self.sets
        first = sets[0]
        first._check_point(x)
        p = x.payload
        held = self._screen(p)
        for j in range(len(sets)):
            if held[j]:
                continue
            q = sets[j]._project_payload(p)
            if q is not p:
                p = q
                # the new point needs its own screen, taken where the last one held a later row
                held = self._screen(p) if True in held[j + 1:] else self._none_held
        return x if p is x.payload else first.space._loop_point(p)


def halfspace_residual(sets):
    """p -> max_k d(p, C_k) on coordinate arrays, or None: ``_HalfspaceFamily.residual``.

    Defined for a flat family (``_HalfspaceFamily.of``), whose mixed spaces
    raise ``SpaceMismatchError``; None for any other family.
    """
    family = _HalfspaceFamily.of(sets)
    return None if family is None else family.residual


def _payload_projections(sets) -> list:
    """Each set's ``_project_payload``, by which a projection run steps.

    A set whose class overrides ``project`` without ``_project_payload``
    is projected through its override.
    """
    def own(c):
        owner = next(k for k in type(c).__mro__ if "project" in vars(k))
        return "_project_payload" in vars(owner)

    return [c._project_payload if own(c) else partial(ConvexSet._project_payload, c)
            for c in sets]


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
        arr = _real_vector(normal, ConstructionError, "normal must be real numbers")
        if arr.shape != (space.dim + 1,):
            raise ConstructionError(f"normal must have {space.dim + 1} ambient coordinates")
        coords = arr.tolist()
        mm = _minkowski(coords, coords)
        if not (math.isfinite(mm) and mm > 0):
            raise ConstructionError(f"normal {_spacelike_cause(coords, mm)}")
        arr = arr / math.sqrt(mm)
        arr.setflags(write=False)
        object.__setattr__(self, "normal", arr)
        # the scalar twins' copy of the normal, as Python floats
        object.__setattr__(self, "_coords", arr.tolist())

    # Scalar twin kept: projection runs' witness checks, where a one-row block costs 2.6x to
    # 26x; the drivers' hyperbolic runs step its ``_project_payload``.
    def project(self, x: Point) -> Point:
        self._check_point(x)
        p = x.payload.tolist()
        q = self._project_payload(p)
        return x if q is p else self.space._loop_point(q)

    def _project_payload(self, p):
        """The projection of a coordinate list: ``p`` itself when it lies in the set.

        A moved image passes ``_wrap``'s checks: the coordinate bound, the
        sheet gap and the upper sheet.
        """
        s = _minkowski(self._coords, p)
        if s <= 0.0:
            return p
        moved = _normalized([a - s * u for a, u in zip(p, self._coords)])
        self.space._check_coordinates(moved)
        return moved

    def project_block(self, block):
        s = _minkowski(self.normal, block.T)
        outside = s > 0.0
        # rows inside subtract nothing, so every row stays timelike
        moved = _normalize(block - np.where(outside, s, 0.0)[:, None] * self.normal)
        return np.where(outside[:, None], moved, block)

    def contains(self, x: Point) -> bool:
        self._check_point(x)
        return _minkowski(self._coords, x.payload.tolist()) <= EQ_TOL

    def describe(self) -> str:
        return f"hyperbolic halfspace m({self.space.format_payload(self.normal)}, x) <= 0"


def _spacelike_cause(coords, mm) -> str:
    """Why a normal with Minkowski square ``mm`` (not positive and finite) is refused."""
    if not all(map(math.isfinite, coords)):
        return "must be finite"
    if not math.isfinite(mm):
        return "has a Minkowski square m(u, u) that overflows"
    # every square underflowed, so the computed m(u, u) = 0 says nothing
    if any(coords) and _dot(coords, coords) == 0.0:
        return "has a Minkowski square m(u, u) that underflows to 0"
    return "must be spacelike: m(u, u) > 0"


class GeodesicBall(ConvexSet):
    """Closed metric ball; convex in every nonpositively curved model."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Point, radius: float, name: str = "ball"):
        if not isinstance(center, Point):
            raise ConstructionError(f"ball center must be a point, got {center!r}")
        super().__init__(center.space, name)
        radius = _real(radius, ConstructionError, "ball radius must be a real number")
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

    __slots__ = ("vertex_set", "edge_set", "_members", "_top", "_member_mask", "_edge_mask")

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
        members = self._members
        # a location at a member vertex is a member; None, inside an edge, is no member
        if tree._at_vertex(loc.edge, loc.offset) in members:
            return None
        c = tree._child[loc.edge]
        top = self._top
        if not top <= c <= tree._last[top]:
            return tree._vertex(top)
        parent = tree._parent
        while c not in members:
            c = parent[c]
        return tree._vertex(c)

    # Scalar twin kept: the trees workload's projections, where a one-row block costs 24x.
    def project(self, x: Point) -> Point:
        self._check_point(x)
        loc = self._project_payload(x.payload)
        return x if loc is x.payload else self.space._loop_point(loc)

    def _project_payload(self, loc):
        gate = self._gate(loc)
        return loc if gate is None else gate.payload

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
        return f"subtree({', '.join(sorted(self.vertex_set))})"


class ProductSet(ConvexSet):
    """Cartesian product of a set in each factor of a product space."""

    __slots__ = ("left", "right")

    def __init__(self, space: ProductSpace, left: ConvexSet, right: ConvexSet,
                 name: str = "product-set"):
        if not isinstance(space, ProductSpace):
            raise ConstructionError("ProductSet requires a ProductSpace")
        _require(left, ConvexSet, "left factor set")
        _require(right, ConvexSet, "right factor set")
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
    _require(c, ConvexSet, "projection set")
    if not c.contains(y):
        raise DomainError(f"challenge point is not in the set '{c.name}'")
    return _projection(distance, x, y, c.project(x))


def _projection(dist, x, y, px):
    """The projection inequality's defect through ``dist``, with ``px`` the image of x."""
    return dist(x, y) ** 2 - dist(x, px) ** 2 - dist(px, y) ** 2
