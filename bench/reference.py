"""Reference distances computed apart from the library, for the correctness gate.

The benchmark compares the library's ``distance`` against these on the
points each operation produced or used.  Flat distances come from
``math.dist``, hyperboloid ones from the Minkowski pairing, tree ones from
``networkx`` shortest-path lengths (root distances plus a lowest common
ancestor, cross-checked against direct Dijkstra queries), and product
ones from the factors.  The tolerances are the benchmark's own and do
not follow the library's settings.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

# |library - reference| allowed per model: absolute plus relative part.
FLAT_TOL = (1e-9, 1e-9)
# arcosh near 1 resolves about 1.5e-8; a tighter distance formula must
# still agree with this reference.
HYPERBOLIC_TOL = (1e-7, 1e-9)


class TreeReference:
    """Vertex distances of one metric tree from networkx, with LCA queries."""

    def __init__(self, tree):
        graph = nx.Graph()
        for e in tree.edges:
            graph.add_edge(e.a, e.b, weight=e.length)
        root = tree.edges[0].a
        self.graph = graph
        self.root_dist = nx.single_source_dijkstra_path_length(graph, root)
        self.parent = dict(nx.bfs_predecessors(graph, root))
        self.depth = {root: 0}
        for child, parent in nx.bfs_predecessors(graph, root):
            self.depth[child] = self.depth[parent] + 1
        self.edges = tree.edges
        self._to_set = {}

    def lca(self, u, v):
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            u, du = self.parent[u], du - 1
        while dv > du:
            v, dv = self.parent[v], dv - 1
        while u != v:
            u, v = self.parent[u], self.parent[v]
        return u

    def vertex_distance(self, u, v):
        return self.root_dist[u] + self.root_dist[v] - 2.0 * self.root_dist[self.lca(u, v)]

    def dijkstra_distance(self, u, v):
        return nx.dijkstra_path_length(self.graph, u, v)

    def _ends(self, loc):
        e = self.edges[loc.edge]
        return ((e.a, loc.offset), (e.b, e.length - loc.offset))

    def distance(self, a, b):
        if a.edge == b.edge:
            return abs(a.offset - b.offset)
        return min(ou + self.vertex_distance(u, v) + ov
                   for u, ou in self._ends(a) for v, ov in self._ends(b))

    def to_vertex(self, loc, v):
        return min(o + self.vertex_distance(u, v) for u, o in self._ends(loc))

    def distance_to_set(self, loc, vertices):
        """Distance from a location to the subtree spanned by ``vertices``."""
        key = frozenset(vertices)
        dist = self._to_set.get(key)
        if dist is None:
            dist = nx.multi_source_dijkstra_path_length(self.graph, set(key))
            self._to_set[key] = dist
        e = self.edges[loc.edge]
        if e.a in key and e.b in key:
            return 0.0
        return min(o + dist[u] for u, o in self._ends(loc))


class Reference:
    """Dispatches reference distances on the space model of the points."""

    def __init__(self, hadamard):
        self.H = hadamard
        self._trees = {}

    def tree(self, tree):
        ref = self._trees.get(id(tree))
        if ref is None or ref[0] is not tree:
            ref = (tree, TreeReference(tree))
            self._trees[id(tree)] = ref
        return ref[1]

    def payload_distance(self, space, a, b):
        H = self.H
        if isinstance(space, H.Euclidean):
            return math.dist(a, b)
        if isinstance(space, H.Hyperboloid):
            if np.array_equal(a, b):
                return 0.0
            c = float(a[0] * b[0] - np.dot(a[1:], b[1:]))
            return math.acosh(max(1.0, c))
        if isinstance(space, H.MetricTree):
            return self.tree(space).distance(a, b)
        if isinstance(space, H.ProductSpace):
            return math.hypot(self.payload_distance(space.left, a[0].payload, b[0].payload),
                              self.payload_distance(space.right, a[1].payload, b[1].payload))
        raise TypeError(f"no reference distance for {space!r}")

    def distance(self, p, q):
        return self.payload_distance(p.space, p.payload, q.payload)

    def tolerance(self, space, value):
        atol, rtol = HYPERBOLIC_TOL if space.involves_hyperboloid else FLAT_TOL
        return atol + rtol * abs(value)

    def check_pair(self, p, q):
        """None when the library distance matches the reference, else a reason."""
        lib = self.H.distance(p, q)
        ref = self.distance(p, q)
        if not math.isfinite(lib) or abs(lib - ref) > self.tolerance(p.space, ref):
            return f"distance {lib!r} differs from reference {ref!r}"
        return None

    def check_points(self, points, limit=6):
        """Compare all pairwise distances among the first ``limit`` points."""
        points = points[:limit]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                reason = self.check_pair(points[i], points[j])
                if reason:
                    return reason
        return None


def points_in(obj, point_type):
    """Every point inside a nested tuple/list witness, in order."""
    if isinstance(obj, point_type):
        return [obj]
    if isinstance(obj, (tuple, list)):
        out = []
        for item in obj:
            out.extend(points_in(item, point_type))
        return out
    return []
