"""Finite metric trees: acyclic length spaces with unique vertex paths.

A tree point lives on an edge at an arc-length offset.  Locations are kept
canonical so that equality is well defined: an offset at (or within
snapping distance of) an endpoint is rewritten to a designated vertex
form, namely the smallest incident edge index with the offset measured
from that edge's first vertex.

Internally the tree is rooted at its first vertex and its vertices are
numbered in depth-first preorder, so every subtree is the contiguous id
range ``[v, last[v]]`` and every ancestor has a smaller id than its
descendants.  Each vertex keeps its parent, parent edge and root distance
``r``.  A point on an edge is described by the edge's lower (child)
vertex ``c`` and its own root distance; two points with lowest common
ancestor ``l = lca(c_p, c_q)`` lie ``r_p + r_q - 2 min(r_p, r_q, r[l])``
apart.  The LCA is one range-minimum query over the parent ids in
preorder, answered in O(1) from a sparse table (Bender and Farach-Colton,
"The LCA problem revisited", LATIN 2000): for ids u < v, the smallest
parent id found among ids u+1..v is the LCA's id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, EdgeListError, InvalidPointError
from .geometry import _COORD_LIMIT, Point, SpaceModel, _is_integer, _lines, _real

__all__ = ["TreeEdge", "TreeLocation", "MetricTree", "parse_edge_list"]

# Offsets within this distance of an endpoint snap to the vertex form.
_SNAP = 1e-12


@dataclass(frozen=True, slots=True)
class TreeEdge:
    a: str
    b: str
    length: float


@dataclass(frozen=True, slots=True)
class TreeLocation:
    """Canonical payload: index of the carrying edge plus arc-length offset."""

    edge: int
    offset: float


class MetricTree(SpaceModel):
    """A connected acyclic graph with positive edge lengths as a geodesic space.

    Construction is one iterative depth-first traversal plus a sparse
    table, O(V log V) in time and memory.  Distances cost one O(1) LCA
    query; geodesics walk parent pointers, so they cost time proportional
    to the number of edges on the path.
    """

    __slots__ = (
        "vertices", "edges", "_index", "_names", "_parent", "_parent_edge", "_last",
        "_r", "_child", "_base", "_sign", "_rows", "_r_arr", "_table",
        "_log2", "_ends", "_lengths", "_snap_low", "_snap_high", "_vertex_points",
        "_parent_arr", "_child_arr", "_base_arr", "_sign_arr", "_low_arr", "_high_arr",
        "_vertex_edge", "_vertex_offset",
    )

    def __init__(self, edges):
        edge_objs = []
        names: list[str] = []
        total = 0.0
        for spec in edges:
            try:
                a, b, length = (spec.a, spec.b, spec.length) if isinstance(spec, TreeEdge) else spec
            except (TypeError, ValueError):
                raise ConstructionError(f"edge {spec!r} is not an (a, b, length) triple") from None
            a, b = str(a), str(b)
            length = _real(length, ConstructionError, f"edge ({a}, {b}) needs a numeric length")
            if a == b:
                raise ConstructionError(f"self-loop at vertex '{a}'")
            if not 0.0 < length < math.inf:
                raise ConstructionError(f"edge ({a}, {b}) has nonpositive length {length}")
            edge_objs.append(TreeEdge(a, b, length))
            names += a, b
            total += length
        if not edge_objs:
            raise ConstructionError("a metric tree needs at least one edge")
        # Every distance is at most the total length, so within the
        # coordinate bound the certifier's sums of squared distances stay finite.
        if not total <= _COORD_LIMIT:
            raise ConstructionError(f"edge lengths total {total:g}, above {_COORD_LIMIT:g}: "
                                    f"squared distances overflow")
        vertex_list = list(dict.fromkeys(names))

        object.__setattr__(self, "vertices", tuple(vertex_list))
        object.__setattr__(self, "edges", tuple(edge_objs))

        n, m = len(vertex_list), len(edge_objs)
        declared = dict(zip(vertex_list, range(n)))
        ids = np.array(list(map(declared.__getitem__, names)), dtype=np.int64)
        ia, ib = ids[0::2], ids[1::2]
        lengths = np.array([e.length for e in edge_objs])
        keys = np.minimum(ia, ib) * n + np.maximum(ia, ib)
        by_key = np.argsort(keys, kind="stable")
        repeats = by_key[1:][keys[by_key[1:]] == keys[by_key[:-1]]]
        if repeats.size:
            e = edge_objs[int(repeats.min())]
            raise ConstructionError(f"parallel edge between '{e.a}' and '{e.b}'")
        if m != n - 1:
            raise ConstructionError(f"{n} vertices and {m} edges cannot form a tree")

        # Adjacency in compressed rows: the neighbours of u are entries
        # start[u] to start[u + 1] - 1.
        tail = np.concatenate([ia, ib])
        by_tail = np.argsort(tail, kind="stable")
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail, minlength=n), out=start[1:])
        neighbour = np.concatenate([ib, ia])[by_tail].tolist()

        # Iterative depth-first traversal from vertices[0]: the pop order
        # is a preorder, because a popped vertex's children are pushed on
        # top of everything still waiting.  up[v] >= 0 marks v as reached.
        up = [-1] * n
        up[0] = 0
        order = []
        stack = [0]
        bounds = start.tolist()
        while stack:
            u = stack.pop()
            order.append(u)
            for v in neighbour[bounds[u]:bounds[u + 1]]:
                if up[v] < 0:
                    up[v] = u
                    stack.append(v)
        if len(order) != n:
            raise ConstructionError("edge graph is not connected")

        # Relabel by preorder: ancestors get smaller ids than descendants.
        # Each edge's child is the endpoint reached through it.
        up = np.array(up)
        b_is_child = up[ib] == ia
        order = np.array(order)
        pre = np.empty(n, dtype=np.int64)
        pre[order] = np.arange(n)
        child = pre[np.where(b_is_child, ib, ia)]
        parent_edge_arr = np.zeros(n, dtype=np.int64)
        parent_edge_arr[child] = np.arange(m)
        parent_arr = pre[up[order]]
        parent_arr[0] = -1
        parent = parent_arr.tolist()
        climb = lengths[parent_edge_arr].tolist()
        r = [0.0] * n
        for v in range(1, n):
            r[v] = r[parent[v]] + climb[v]
        last = list(range(n))
        for v in range(n - 1, 0, -1):
            if last[v] > last[parent[v]]:
                last[parent[v]] = last[v]
        r_arr = np.array(r)

        ends = np.stack([pre[ia], pre[ib]], axis=1)
        # A point at offset s on edge e has root distance
        # base[e] + sign[e] * s, where base[e] is the root distance of e.a.
        base = r_arr[ends[:, 0]]
        sign = np.where(b_is_child, 1.0, -1.0)
        # the canonical vertex form lives on the smallest incident edge, at
        # offset 0 from its first vertex or at the full length from its second
        home = np.minimum.reduceat(by_tail % m, start[:-1])[order]
        home_offset = np.where(ends[home, 0] == np.arange(n), 0.0, lengths[home])

        # Sparse table over the parent ids in preorder: row k holds the
        # minimum of 2**k consecutive entries, padded to full width.
        levels = max(1, (n - 1).bit_length())
        table = np.zeros((levels, n), dtype=np.int32)
        table[0, 1:] = parent_arr[1:]
        for k in range(1, levels):
            h = 1 << (k - 1)
            np.minimum(table[k - 1, :n - h], table[k - 1, h:], out=table[k, :n - h])
        table.setflags(write=False)
        log2 = np.zeros(n, dtype=np.int64)
        for k in range(1, levels):
            log2[1 << k:] += 1

        setattr_ = object.__setattr__
        setattr_(self, "_index", dict(zip(vertex_list, pre.tolist())))
        setattr_(self, "_names", [vertex_list[u] for u in order.tolist()])
        setattr_(self, "_parent", parent)
        setattr_(self, "_parent_edge", parent_edge_arr.tolist())
        setattr_(self, "_last", last)
        setattr_(self, "_r", r)
        setattr_(self, "_child", child.tolist())
        setattr_(self, "_base", base.tolist())
        setattr_(self, "_sign", sign.tolist())
        setattr_(self, "_rows", [memoryview(row) for row in table])
        setattr_(self, "_r_arr", r_arr)
        setattr_(self, "_table", table)
        setattr_(self, "_log2", log2)
        setattr_(self, "_ends", ends)
        setattr_(self, "_lengths", lengths)
        # Offsets at most _snap_low[e] or at least _snap_high[e] snap to a vertex.
        snap = _SNAP * np.maximum(1.0, lengths)
        setattr_(self, "_snap_low", snap.tolist())
        high = lengths - snap
        setattr_(self, "_snap_high", high.tolist())
        # the shared vertex points, by preorder id, built on first use
        setattr_(self, "_vertex_points", [None] * n)
        # the same data as arrays, for the block kernels
        setattr_(self, "_parent_arr", parent_arr)
        setattr_(self, "_child_arr", child)
        setattr_(self, "_base_arr", base)
        setattr_(self, "_sign_arr", sign)
        setattr_(self, "_low_arr", snap)
        setattr_(self, "_high_arr", high)
        setattr_(self, "_vertex_edge", home)
        setattr_(self, "_vertex_offset", home_offset)

    # -- rooted structure --------------------------------------------

    def _lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of two preorder ids, in O(1)."""
        if u == v:
            return u
        if u > v:
            u, v = v, u
        u += 1
        k = (v - u + 1).bit_length() - 1
        row = self._rows[k]
        a = row[u]
        b = row[v - (1 << k) + 1]
        return a if a < b else b

    def _lca_many(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise LCA of two broadcastable arrays of preorder ids."""
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        span = hi - lo
        k = self._log2[span]
        start = np.minimum(lo + 1, hi)
        m = np.minimum(self._table[k, start], self._table[k, hi - (1 << k) + 1])
        return np.where(span == 0, lo, m)

    def _anchor(self, loc: TreeLocation) -> tuple[int, float]:
        """The child vertex of the carrying edge and the point's root distance."""
        e = loc.edge
        return self._child[e], self._base[e] + self._sign[e] * loc.offset

    def _locate(self, c: int, rho: float) -> TreeLocation:
        """The point at root distance ``rho`` on the ancestor chain of ``c``."""
        r, parent = self._r, self._parent
        p = parent[c]
        while p > 0 and r[p] > rho:
            c, p = p, parent[p]
        idx = self._parent_edge[c]
        return self._canonical(idx, (rho - self._base[idx]) * self._sign[idx])

    def _vertex_distances(self, locs) -> np.ndarray:
        """Distances from each location (rows) to every vertex (columns by preorder id)."""
        frames = [self._anchor(loc) for loc in locs]
        c = np.array([f[0] for f in frames])[:, None]
        rp = np.array([f[1] for f in frames])[:, None]
        meet = self._r_arr[self._lca_many(c, np.arange(len(self.vertices)))]
        return rp + self._r_arr - 2.0 * np.minimum(rp, meet)

    # -- location helpers --------------------------------------------

    def vertex_location(self, name: str) -> TreeLocation:
        """Canonical location of a named vertex."""
        return self.vertex_point(name).payload

    def vertex_point(self, name: str) -> Point:
        """The point at a named vertex, one shared object per vertex.

        Projections onto subtrees and snapped locations land on vertices,
        so sharing keeps a run's stored iterates from holding a copy each.
        """
        return self._vertex(self._vertex_id(name))

    def _vertex(self, v: int) -> Point:
        """The shared point at the vertex of preorder id ``v``, in its canonical form."""
        point = self._vertex_points[v]
        if point is None:
            point = Point(self, TreeLocation(int(self._vertex_edge[v]),
                                             float(self._vertex_offset[v])))
            self._vertex_points[v] = point
        return point

    def _at_vertex(self, edge: int, offset: float) -> int | None:
        """The preorder id of the vertex at ``offset`` on ``edge``, or None inside the edge."""
        far = offset != 0.0
        if far and offset != self.edges[edge].length:
            return None
        # the edge's child is its second end when the edge points down (sign +1)
        c = self._child[edge]
        return c if (self._sign[edge] > 0) == far else self._parent[c]

    def edge_point(self, edge: int, offset: float) -> Point:
        return self.point((edge, offset))

    def location_vertex(self, loc: TreeLocation) -> str | None:
        """Vertex name if the location sits on one, else None."""
        v = self._at_vertex(loc.edge, loc.offset)
        return None if v is None else self._names[v]

    def _canonical(self, edge: int, offset: float) -> TreeLocation:
        if offset <= self._snap_low[edge]:
            return self._vertex(self._at_vertex(edge, 0.0)).payload
        if offset >= self._snap_high[edge]:
            return self._vertex(self._at_vertex(edge, self.edges[edge].length)).payload
        return TreeLocation(edge, offset)

    def validate_payload(self, payload):
        if isinstance(payload, TreeLocation):
            edge, offset = payload.edge, payload.offset
        else:
            try:
                edge, offset = payload
            except (TypeError, ValueError):
                raise InvalidPointError(
                    "tree payload must be a TreeLocation or an (edge, offset) pair"
                )
        what = "tree payload needs an integer edge and a numeric offset"
        if not _is_integer(edge):
            raise InvalidPointError(f"{what}, got {payload!r}")
        edge, offset = int(edge), _real(offset, InvalidPointError, what)
        if not 0 <= edge < len(self.edges):
            raise InvalidPointError(f"edge index {edge!r} out of range")
        if not 0.0 <= offset <= self.edges[edge].length:
            raise InvalidPointError(
                f"offset {offset} outside [0, {self.edges[edge].length}] on edge {edge}"
            )
        return self._canonical(edge, offset)

    # Scalar twin kept: the trees workload's hot path, where a one-row block costs 43x.
    def payload_distance(self, a: TreeLocation, b: TreeLocation) -> float:
        if a.edge == b.edge:
            return abs(a.offset - b.offset)
        base, sign = self._base, self._sign
        ea, eb = a.edge, b.edge
        ra = base[ea] + sign[ea] * a.offset
        rb = base[eb] + sign[eb] * b.offset
        meet = self._r[self._lca(self._child[ea], self._child[eb])]
        if ra < meet:
            meet = ra
        if rb < meet:
            meet = rb
        return ra + rb - 2.0 * meet

    def _vertex_id(self, name) -> int:
        """The preorder index of a named vertex."""
        try:
            return self._index[str(name)]
        except KeyError:
            raise InvalidPointError(f"unknown vertex '{name}'") from None

    def vertex_distance(self, u: str, v: str) -> float:
        i, j = self._vertex_id(u), self._vertex_id(v)
        r = self._r
        return r[i] + r[j] - 2.0 * r[self._lca(i, j)]

    def vertex_path(self, u: str, v: str) -> list[str]:
        """Unique vertex path from u to v, inclusive."""
        i, j = self._vertex_id(u), self._vertex_id(v)
        top = self._lca(i, j)
        parent = self._parent
        rising, falling = [i], [j]
        while rising[-1] != top:
            rising.append(parent[rising[-1]])
        while falling[-1] != top:
            falling.append(parent[falling[-1]])
        names = self._names
        return [names[w] for w in rising] + [names[w] for w in reversed(falling[:-1])]

    # Scalar twin kept: certify's and the trees workload's geodesic points, where a
    # one-row block costs 12x; ``interpolate`` runs it on its rows.
    def payload_interpolate(self, a: TreeLocation, b: TreeLocation, t: float):
        if a.edge == b.edge:
            step = b.offset - a.offset
            sign = 1.0 if step >= 0 else -1.0
            return self._canonical(a.edge, a.offset + sign * (t * abs(step)))
        # The geodesic climbs from a to the meeting point at root distance
        # ``meet`` and descends to b; walk up from whichever end the
        # target's side belongs to.
        ca, ra = self._anchor(a)
        cb, rb = self._anchor(b)
        meet = min(ra, rb, self._r[self._lca(ca, cb)])
        total = ra + rb - 2.0 * meet
        target = t * total
        if target <= ra - meet:
            return self._locate(ca, ra - target)
        return self._locate(cb, rb - (total - target))

    # -- blocks ------------------------------------------------------
    #
    # A block is a pair of arrays (edges int64, offsets float64) holding
    # canonical locations.  Each kernel repeats the scalar method's float
    # operations in the same order, elementwise, so every row equals the
    # scalar result bit for bit.

    def stack(self, points):
        locs = self._payloads(points)
        return (np.array([p.edge for p in locs], dtype=np.int64),
                np.array([p.offset for p in locs], dtype=float))

    def repeat(self, point, n):
        loc = self._payloads([point])[0]
        return np.full(n, loc.edge, dtype=np.int64), np.full(n, loc.offset)

    def block_len(self, block):
        return len(block[0])

    def row(self, block, i):
        # a row at a vertex is the vertex's shared point, as in _canonical
        edge, offset = int(block[0][i]), float(block[1][i])
        v = self._at_vertex(edge, offset)
        return Point(self, TreeLocation(edge, offset)) if v is None else self._vertex(v)

    def concat(self, blocks):
        return (np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks]))

    def _snap(self, edges, offsets):
        """``_canonical`` on every row: the low bound first, then the high bound."""
        low = offsets <= self._low_arr[edges]
        snapped = low | (offsets >= self._high_arr[edges])
        v = np.where(low, self._ends[edges, 0], self._ends[edges, 1])
        return (np.where(snapped, self._vertex_edge[v], edges),
                np.where(snapped, self._vertex_offset[v], offsets))

    def sample_block(self, rng: np.random.Generator, n: int):
        # Each row draws its edge, then its offset.  ``rng.uniform(0.0, L)``
        # returns ``0.0 + L * rng.random()``, so ``L * rng.random()`` takes
        # the same draw and gives the same double, without uniform's
        # per-call argument handling.
        edges, integers, random, count = self.edges, rng.integers, rng.random, len(self.edges)
        drawn, offsets = [], []
        for _ in range(n):
            e = int(integers(0, count))
            drawn.append(e)
            offsets.append(edges[e].length * random())
        return self._snap(np.array(drawn, dtype=np.int64), np.array(offsets, dtype=float))

    def distances(self, a, b):
        # payload_distance on every row
        (ea, oa), (eb, ob) = a, b
        ra = self._base_arr[ea] + self._sign_arr[ea] * oa
        rb = self._base_arr[eb] + self._sign_arr[eb] * ob
        meet = self._r_arr[self._lca_many(self._child_arr[ea], self._child_arr[eb])]
        meet = np.minimum(np.minimum(meet, ra), rb)
        return np.where(ea == eb, np.abs(oa - ob), ra + rb - 2.0 * meet)

    def interpolate(self, a, b, t):
        # the scalar geodesic point on every row strictly inside its segment
        (ea, oa), (eb, ob) = a, b
        t = np.asarray(t, dtype=float)
        at_b = t == 1.0
        edges, offsets = np.where(at_b, eb, ea), np.where(at_b, ob, oa)
        inside = np.flatnonzero((t != 0.0) & ~at_b)
        rows = zip(ea[inside].tolist(), oa[inside].tolist(), eb[inside].tolist(),
                   ob[inside].tolist(), t[inside].tolist())
        locs = [self.payload_interpolate(TreeLocation(e, s), TreeLocation(f, u), ti)
                for e, s, f, u, ti in rows]
        edges[inside] = [loc.edge for loc in locs]
        offsets[inside] = [loc.offset for loc in locs]
        return edges, offsets

    def _mean(self, locs, weights, step_tol):
        # On each edge, every squared distance is (s - c_i)^2 for a constant
        # c_i, so F restricted to the edge is one quadratic in the offset s,
        # and the global minimizer is found exactly by scanning edges.
        # Rows are points, columns edges; argmin keeps the first minimal edge.
        w = np.array(weights)
        dist = self._vertex_distances(locs)
        da = dist[:, self._ends[:, 0]]
        db = dist[:, self._ends[:, 1]]
        lengths = self._lengths
        centers = np.where(da <= db, -da, lengths + db)
        for i, loc in enumerate(locs):
            centers[i, loc.edge] = loc.offset
        s_star = np.clip(w @ centers, 0.0, lengths)
        values = w @ (s_star - centers) ** 2
        idx = int(np.argmin(values))
        return self._canonical(idx, float(s_star[idx]))

    def _loop_point(self, loc):
        # a location at a vertex is the vertex's shared point, as in ``row``
        v = self._at_vertex(loc.edge, loc.offset)
        return Point(self, loc) if v is None else self._vertex(v)

    def format_payload(self, payload: TreeLocation) -> str:
        v = self.location_vertex(payload)
        if v is not None:
            return f"vertex,{v}"
        return f"edge,{payload.edge},{payload.offset:.17g}"

    def describe(self) -> str:
        return f"MetricTree({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def __eq__(self, other):
        return (
            isinstance(other, MetricTree)
            and other.vertices == self.vertices
            and other.edges == self.edges
        )

    def __hash__(self):
        return hash(("tree", self.vertices, self.edges))


def parse_edge_list(text: str) -> MetricTree:
    """Build a metric tree from plain text, one edge per line.

    Each nonblank line must read "vertexA vertexB length" with arbitrary
    whitespace-free tokens for the vertices.  Malformed lines raise
    ``EdgeListError`` with the 1-based line number.
    """
    if not isinstance(text, str):
        raise EdgeListError(0, f"edge list must be text, got {type(text).__name__}")
    edges = []
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise EdgeListError(line_no, f"expected 'vertexA vertexB length', got {raw!r}")
        a, b, length_token = tokens
        try:
            length = float(length_token)
        except ValueError:
            raise EdgeListError(line_no, f"length {length_token!r} is not a number")
        if not (math.isfinite(length) and length > 0):
            raise EdgeListError(line_no, f"length must be positive, got {length}")
        edges.append((a, b, length))
    if not edges:
        raise EdgeListError(0, "edge list is empty")
    try:
        return MetricTree(edges)
    except ConstructionError as exc:
        raise ConstructionError(f"edge list does not describe a tree: {exc}") from exc
