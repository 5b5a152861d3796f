"""Tree construction, edge-list ingestion, geodesics, and canonical forms."""

import math

import networkx as nx
import numpy as np
import pytest

from hadamard import (
    EdgeListError,
    InvalidPointError,
    MetricTree,
    Subtree,
    WeightedPoints,
    cat0_defect,
    distance,
    frechet_mean,
    frechet_objective,
    geodesic_point,
    parse_edge_list,
)
from hadamard.errors import ConstructionError


def random_tree(rng, n_vertices):
    """Random tree: attach each new vertex to an earlier one."""
    edges = []
    for i in range(1, n_vertices):
        j = int(rng.integers(0, i))
        edges.append((f"n{j}", f"n{i}", float(rng.uniform(0.2, 3.0))))
    return MetricTree(edges)


def nx_graph(tree):
    g = nx.Graph()
    for e in tree.edges:
        g.add_edge(e.a, e.b, weight=e.length)
    return g


class TestConstruction:
    def test_vertices_derived_from_edges(self, tripod):
        assert tripod.vertices == ("o", "a", "b", "c")
        assert len(tripod.edges) == 3

    def test_cycle_rejected(self):
        with pytest.raises(ConstructionError):
            MetricTree([("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])

    def test_disconnected_rejected(self):
        with pytest.raises(ConstructionError):
            MetricTree([("a", "b", 1), ("c", "d", 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(ConstructionError):
            MetricTree([("a", "a", 1)])

    def test_parallel_edge_rejected(self):
        with pytest.raises(ConstructionError):
            MetricTree([("a", "b", 1), ("b", "a", 2)])

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ConstructionError):
            MetricTree([("a", "b", 0.0)])

    @pytest.mark.parametrize("edges", [
        [("o", "a", 1e308), ("a", "b", 1e308), ("o", "c", 1.0)],
        [("o", "a", 1e308)],
        [("o", "a", 1.0), ("o", "c", 1e300)],
        [("o", "a", 6e149), ("o", "b", 6e149)],
    ], ids=["sum-overflows", "doubled-overflows", "square-overflows", "total-past-bound"])
    def test_total_length_that_overflows_rejected(self, edges):
        with pytest.raises(ConstructionError, match="above 1e[+]150: squared distances overflow"):
            MetricTree(edges)

    def test_total_length_at_the_bound_keeps_squares_finite(self):
        tree = MetricTree([("o", "a", 5e149), ("o", "b", 5e149)])
        a, b = tree.vertex_point("a"), tree.vertex_point("b")
        assert distance(a, b) == 1e150
        assert math.isfinite(cat0_defect(a, b, tree.vertex_point("o"), 0.5))

    def test_needs_an_edge(self):
        with pytest.raises(ConstructionError):
            MetricTree([])

    def test_structural_equality(self, tripod):
        same = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
        assert same == tripod
        other = MetricTree([("o", "a", 2.0), ("o", "b", 1.0), ("o", "c", 1.0)])
        assert other != tripod


class TestEdgeListParsing:
    def test_round_trip(self):
        tree = parse_edge_list("o a 1\no b 1.5\n\no c 2\n")
        assert tree.vertices == ("o", "a", "b", "c")
        assert tree.edges[1].length == 1.5

    def test_malformed_line_carries_number(self):
        with pytest.raises(EdgeListError) as err:
            parse_edge_list("o a 1\no b\no c 1")
        assert err.value.line_no == 2

    def test_bad_length_token(self):
        with pytest.raises(EdgeListError) as err:
            parse_edge_list("o a one")
        assert err.value.line_no == 1

    def test_nonpositive_length(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("o a -2")

    def test_empty_document(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("\n\n")

    def test_cycle_reported_as_construction_error(self):
        with pytest.raises(ConstructionError):
            parse_edge_list("a b 1\nb c 1\nc a 1")


@pytest.fixture(scope="module")
def tree2000():
    return random_tree(np.random.default_rng(2000), 2000)


class TestCanonicalization:
    def test_vertex_forms_coincide(self, tripod, tree2000):
        # the center is incident to all three edges; offset-0 payloads on
        # any of them must canonicalize to one representative
        via_edge0 = tripod.edge_point(0, 0.0)
        via_edge1 = tripod.edge_point(1, 0.0)
        via_edge2 = tripod.edge_point(2, 0.0)
        assert via_edge0 == via_edge1 == via_edge2 == tripod.vertex_point("o")
        # so does either end of every edge, to the vertex's shared payload
        for tree in (tripod, tree2000):
            for k, e in enumerate(tree.edges):
                for offset, name in ((0.0, e.a), (e.length, e.b)):
                    p = tree.edge_point(k, offset)
                    assert p == tree.vertex_point(name), (k, offset)
                    assert p.payload is tree.vertex_location(name), (k, offset)

    def test_full_offset_snaps_to_far_vertex(self, tripod):
        assert tripod.edge_point(0, 1.0) == tripod.vertex_point("a")

    def test_interior_point_stays(self, tripod):
        p = tripod.edge_point(0, 0.25)
        assert tripod.location_vertex(p.payload) is None
        assert p.payload.offset == 0.25

    def test_offset_range_checked(self, tripod):
        with pytest.raises(InvalidPointError):
            tripod.edge_point(0, 1.5)
        with pytest.raises(InvalidPointError):
            tripod.edge_point(5, 0.5)
        with pytest.raises(InvalidPointError):
            tripod.vertex_point("zz")

    def test_integer_edge_indices(self, tripod):
        """Python and NumPy integers name an edge; bools and fractions raise (test_errors)."""
        for edge in (1, np.int64(1), np.int32(1), np.uint8(1)):
            assert tripod.point((edge, 0.25)) == tripod.edge_point(1, 0.25)

    def test_vertex_points_are_shared(self, tripod, tree2000):
        o = tripod.vertex_point("o")
        assert tripod.vertex_point("o") is o
        assert tripod.vertex_location("o") is o.payload
        assert Subtree(tripod, ["o", "a"]).project(tripod.edge_point(1, 0.5)) is o
        with pytest.raises(InvalidPointError):
            tripod.vertex_location("zz")
        # every vertex row of a block, both snapped ends of every edge and
        # every subtree gate is the one shared point of its vertex
        for tree in (tripod, tree2000):
            names = tree.vertices
            shared = [tree.vertex_point(v) for v in names]
            assert all(tree.vertex_point(v) is p for v, p in zip(names, shared))
            assert all(tree.vertex_location(v) is p.payload for v, p in zip(names, shared))
            block = tree.stack(shared)
            assert all(tree.row(block, i) is p for i, p in enumerate(shared))
            edges = np.repeat(np.arange(len(tree.edges)), 2)
            offsets = np.array([s for e in tree.edges for s in (0.0, e.length)])
            ends = tree._snap(edges, offsets)
            for k, e in enumerate(tree.edges):
                assert tree.row(ends, 2 * k) is tree.vertex_point(e.a), k
                assert tree.row(ends, 2 * k + 1) is tree.vertex_point(e.b), k
            points = shared + [tree.edge_point(k, e.length / 2) for k, e in enumerate(tree.edges)]
            subtrees = [Subtree(tree, tree.vertex_path(names[1], names[-1])),
                        Subtree(tree, [names[len(names) // 2]])]
            for sub in subtrees:
                images = sub.project_block(tree.stack(points))
                moved = 0
                for i, x in enumerate(points):
                    gate = sub.project(x)
                    if gate is not x:
                        want = tree.vertex_point(tree.location_vertex(gate.payload))
                        assert gate is want and tree.row(images, i) is want, (sub.describe(), i)
                        moved += 1
                assert moved, sub.describe()

    def test_snaps_at_the_bounds_of_each_edge(self):
        """Offsets snap to a vertex within 1e-12 * max(1, length) of an end, bounds included."""
        lengths = [5e-13, 0.3, 1.0, 7.25, 1e6]
        tree = MetricTree([(f"v{i}", f"v{i + 1}", L) for i, L in enumerate(lengths)])
        for edge, (e, length) in enumerate(zip(tree.edges, lengths)):
            snap = 1e-12 * max(1.0, length)
            low, high = snap, length - snap
            for offset, want in [(low, e.a), (high, e.b), (np.nextafter(low, 1.0), None),
                                 (np.nextafter(high, 0.0), None)]:
                if not 0.0 <= offset <= length or (want is None and not low < offset < high):
                    continue
                loc = tree.point((edge, float(offset))).payload
                assert tree.location_vertex(loc) == want, (edge, offset)
                if want is not None:
                    assert loc is tree.vertex_location(want)

    def test_format_payload(self, tripod):
        assert tripod.format_payload(tripod.vertex_point("a").payload) == "vertex,a"
        assert tripod.format_payload(tripod.edge_point(1, 0.5).payload) == "edge,1,0.5"


class TestTreeDistance:
    def test_same_edge(self, caterpillar):
        p = caterpillar.edge_point(1, 0.25)
        q = caterpillar.edge_point(1, 1.0)
        assert distance(p, q) == pytest.approx(0.75)

    def test_vertex_distances_match_networkx(self, rng):
        for trial in range(5):
            tree = random_tree(rng, 12)
            g = nx_graph(tree)
            lengths = dict(nx.all_pairs_dijkstra_path_length(g))
            for u in tree.vertices:
                for v in tree.vertices:
                    assert tree.vertex_distance(u, v) == pytest.approx(
                        lengths[u][v], abs=1e-12
                    )

    def test_edge_point_distances_match_networkx_with_split_edges(self, rng):
        """Independent oracle: splice both points into the graph as nodes."""
        for trial in range(20):
            tree = random_tree(rng, 10)
            locs = [tree.sample(rng).payload for _ in range(2)]
            p, q = (tree.point(loc) for loc in locs)
            if locs[0].edge == locs[1].edge:
                expected = abs(locs[0].offset - locs[1].offset)
            else:
                g = nx_graph(tree)
                for tag, loc in zip("pq", locs):
                    e = tree.edges[loc.edge]
                    if g.has_edge(e.a, e.b):
                        g.remove_edge(e.a, e.b)
                    g.add_edge(e.a, tag, weight=loc.offset)
                    g.add_edge(tag, e.b, weight=e.length - loc.offset)
                expected = nx.dijkstra_path_length(g, "p", "q")
            assert distance(p, q) == pytest.approx(expected, abs=1e-12)

    def test_leaf_path_through_center(self, tripod):
        a, c = tripod.vertex_point("a"), tripod.vertex_point("c")
        assert distance(a, c) == 2.0


class TestTreeGeodesics:
    def test_constant_speed(self, caterpillar, rng):
        for _ in range(100):
            p, q = caterpillar.sample(rng), caterpillar.sample(rng)
            t = float(rng.uniform())
            r = geodesic_point(p, q, t)
            d = distance(p, q)
            assert distance(p, r) == pytest.approx(t * d, abs=1e-12)
            assert distance(r, q) == pytest.approx((1 - t) * d, abs=1e-12)

    def test_midpoint_between_leaves(self, tripod):
        a, b = tripod.vertex_point("a"), tripod.vertex_point("b")
        assert geodesic_point(a, b, 0.5) == tripod.vertex_point("o")

    def test_path_crosses_vertices(self, caterpillar):
        # v3 -> v5 passes v2 then v1; quarter point sits on edge (v2, v3)
        p = caterpillar.vertex_point("v3")
        q = caterpillar.vertex_point("v5")
        d = distance(p, q)
        assert d == pytest.approx(3.0)
        r = geodesic_point(p, q, 1.0 / 3.0)
        assert distance(p, r) == pytest.approx(1.0, abs=1e-12)

    def test_sample_invariants(self, caterpillar, rng):
        for _ in range(200):
            loc = caterpillar.sample(rng).payload
            assert 0.0 <= loc.offset <= caterpillar.edges[loc.edge].length


# ---------------------------------------------------------------------
# sample blocks: the scalar sampler's draws, in one loop
# ---------------------------------------------------------------------


@pytest.fixture(scope="module", params=["tripod", "caterpillar", "tree2000", "short-edge"])
def sampled_tree(request):
    if request.param == "tripod":
        return request.getfixturevalue("tripod")
    if request.param == "caterpillar":
        return request.getfixturevalue("caterpillar")
    if request.param == "tree2000":
        return random_tree(np.random.default_rng(2000), 2000)
    # every offset drawn on the middle edge lies within snapping distance of its ends
    return MetricTree([("a", "b", 1.0), ("b", "c", 5e-13), ("c", "d", 2.0)])


def reference_samples(tree, rng, n):
    """The draws the sampler must reproduce: an edge, then a uniform offset on it."""
    out = []
    for _ in range(n):
        e = int(rng.integers(0, len(tree.edges)))
        out.append(tree._canonical(e, float(rng.uniform(0.0, tree.edges[e].length))))
    return out


class CountingRng:
    """Forwards every method call to a generator and counts it by name."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


class TestSampleBlock:
    @pytest.mark.parametrize("n", [0, 1, 7, 4097])
    def test_block_is_the_reference_stream(self, sampled_tree, n):
        rng, ref = np.random.default_rng(31), np.random.default_rng(31)
        block, want = sampled_tree.sample_block(rng, n), reference_samples(sampled_tree, ref, n)
        assert sampled_tree.block_len(block) == n
        rows = [sampled_tree.row(block, i).payload for i in range(n)]
        for got, loc in zip(rows, want):
            assert (got.edge, got.offset.hex()) == (loc.edge, loc.offset.hex())
        assert rng.bit_generator.state == ref.bit_generator.state
        if sampled_tree.edges[1].length < 1e-12:
            # draws on the short edge snap to its ends, b or c, never inside it
            ends = [sampled_tree.location_vertex(loc) in ("b", "c") for loc in rows]
            assert all(end for end, loc in zip(ends, rows) if loc.edge == 1)
            assert n < 7 or any(ends)

    def test_one_draw_of_each_kind_per_row(self, sampled_tree):
        rng = CountingRng(5)
        sampled_tree.sample_block(rng, 7)
        assert rng.calls == {"integers": 7, "random": 7}
        sampled_tree.sample(rng).payload
        assert rng.calls == {"integers": 8, "random": 8}


# ---------------------------------------------------------------------
# trees at scale, against networkx
# ---------------------------------------------------------------------


def recursive_edges(rng, n):
    return [(f"n{int(rng.integers(0, i))}", f"n{i}", float(rng.uniform(0.2, 3.0)))
            for i in range(1, n)]


def path_edges(rng, n):
    return [(f"p{i}", f"p{i + 1}", float(rng.uniform(0.2, 3.0))) for i in range(n - 1)]


def star_edges(rng, n):
    # the first vertex is a leaf, so the hub is not the root
    return [(f"leaf{i}", "hub", float(rng.uniform(0.2, 3.0))) for i in range(n - 1)]


class NxOracle:
    """Point distances from networkx single-source Dijkstra at edge endpoints."""

    def __init__(self, tree):
        self.tree = tree
        self.graph = nx_graph(tree)
        self._from = {}

    def lengths_from(self, v):
        if v not in self._from:
            self._from[v] = nx.single_source_dijkstra_path_length(self.graph, v)
        return self._from[v]

    def distance(self, p, q):
        a, b = p.payload, q.payload
        if a.edge == b.edge:
            return abs(a.offset - b.offset)
        e, f = self.tree.edges[a.edge], self.tree.edges[b.edge]
        return min(
            off_u + self.lengths_from(u)[v] + off_v
            for u, off_u in ((e.a, a.offset), (e.b, e.length - a.offset))
            for v, off_v in ((f.a, b.offset), (f.b, f.length - b.offset))
        )


@pytest.fixture(scope="module")
def big_trees():
    rng = np.random.default_rng(90210)
    return {
        "recursive": MetricTree(recursive_edges(rng, 2000)),
        "path": MetricTree(path_edges(rng, 10_000)),
        "star": MetricTree(star_edges(rng, 2000)),
    }


class TestTreesAtScale:
    @pytest.mark.parametrize("kind", ["recursive", "path", "star"])
    def test_vertex_distances_match_networkx(self, big_trees, kind, rng):
        tree = big_trees[kind]
        oracle = NxOracle(tree)
        names = tree.vertices
        for _ in range(3):
            u = names[int(rng.integers(0, len(names)))]
            lengths = oracle.lengths_from(u)
            for k in rng.integers(0, len(names), 300):
                v = names[int(k)]
                assert tree.vertex_distance(u, v) == pytest.approx(
                    lengths[v], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["recursive", "path", "star"])
    def test_point_distances_and_geodesics_match_networkx(self, big_trees, kind, rng):
        tree = big_trees[kind]
        oracle = NxOracle(tree)
        for _ in range(12):
            p, q = tree.sample(rng), tree.sample(rng)
            d = oracle.distance(p, q)
            assert distance(p, q) == pytest.approx(d, rel=1e-12, abs=1e-12)
            for t in rng.uniform(0.0, 1.0, 3):
                r = geodesic_point(p, q, float(t))
                assert oracle.distance(p, r) == pytest.approx(t * d, rel=1e-12, abs=1e-9)
                assert oracle.distance(r, q) == pytest.approx((1 - t) * d, rel=1e-12, abs=1e-9)

    def test_vertex_path_is_the_networkx_path(self, big_trees, rng):
        for kind in ("recursive", "star"):
            tree = big_trees[kind]
            g = nx_graph(tree)
            names = tree.vertices
            for _ in range(20):
                u, v = (names[int(k)] for k in rng.integers(0, len(names), 2))
                assert tree.vertex_path(u, v) == nx.shortest_path(g, u, v)

    @pytest.mark.parametrize("kind", ["recursive", "path"])
    def test_subtree_gates_match_multi_source_dijkstra(self, big_trees, kind, rng):
        tree = big_trees[kind]
        oracle = NxOracle(tree)
        g = oracle.graph
        root = tree.vertices[0]
        rooted = nx.bfs_tree(g, root)
        from_root = oracle.lengths_from(root)
        above_top = below_top = 0
        for size, downward in ((300, True), (450, True), (600, False)):
            if downward and kind == "recursive":
                # a top below the root, with the subtree grown under it
                tops = [v for v in tree.vertices[1:]
                        if len(nx.descendants(rooted, v)) >= size]
                start = tops[int(rng.integers(0, len(tops)))]
                members = list(nx.bfs_tree(rooted, start))[:size]
            else:
                start = tree.vertices[int(rng.integers(len(tree.vertices) // 2,
                                                       len(tree.vertices)))]
                members = list(nx.bfs_tree(g, start, depth_limit=size))[:size]
            sub = Subtree(tree, members)
            to_set = nx.multi_source_dijkstra_path_length(g, set(members))
            top = min(members, key=from_root.__getitem__)
            under_top = nx.descendants(rooted, top) | {top}
            for _ in range(150):
                x = tree.sample(rng)
                loc = x.payload
                e = tree.edges[loc.edge]
                px = sub.project(x)
                if e.a in sub.vertex_set and e.b in sub.vertex_set:
                    assert px == x
                    continue
                want = min(loc.offset + to_set[e.a], e.length - loc.offset + to_set[e.b])
                if want == 0.0:
                    assert px == x
                    continue
                gate = tree.location_vertex(px.payload)
                assert gate in sub.vertex_set
                from_gate = oracle.lengths_from(gate)
                got = min(loc.offset + from_gate[e.a], e.length - loc.offset + from_gate[e.b])
                assert got == pytest.approx(want, rel=1e-12, abs=1e-9)
                if e.a in under_top and e.b in under_top:
                    below_top += 1
                else:
                    above_top += 1
                    assert gate == top
        assert above_top > 0 and below_top > 0

    def test_mean_objective_matches_brute_force_over_every_edge(self, big_trees, rng):
        tree = big_trees["recursive"]
        oracle = NxOracle(tree)
        lengths = np.array([e.length for e in tree.edges])
        grid = np.linspace(0.0, 1.0, 33)
        for size in (3, 7, 16):
            points = [tree.sample(rng) for _ in range(size)]
            raw = rng.uniform(0.1, 1.0, size)
            weights = raw / raw.sum()
            objective = np.zeros((len(tree.edges), grid.size))
            for w, x in zip(weights, points):
                loc = x.payload
                e = tree.edges[loc.edge]
                from_a, from_b = oracle.lengths_from(e.a), oracle.lengths_from(e.b)
                to_a = np.array([min(loc.offset + from_a[f.a],
                                     e.length - loc.offset + from_b[f.a]) for f in tree.edges])
                to_b = np.array([min(loc.offset + from_a[f.b],
                                     e.length - loc.offset + from_b[f.b]) for f in tree.edges])
                s = grid * lengths[:, None]
                d = np.minimum(to_a[:, None] + s, to_b[:, None] + lengths[:, None] - s)
                d[loc.edge] = np.abs(s[loc.edge] - loc.offset)
                objective += w * d**2
            mean = frechet_mean(WeightedPoints(points, weights))
            at_mean = math.fsum(w * oracle.distance(mean, x) ** 2
                                for w, x in zip(weights, points))
            assert at_mean <= objective.min() + 1e-9 * max(1.0, at_mean)
            assert at_mean == pytest.approx(
                frechet_objective(WeightedPoints(points, weights), mean), rel=1e-12)


class TestLargeConstruction:
    """A 10^5-vertex tree; no timing is asserted."""

    N = 100_000

    @pytest.fixture(scope="class")
    def known(self):
        rng = np.random.default_rng(5)
        parent = [0] + [int(rng.integers(0, i)) for i in range(1, self.N)]
        length = [0.0] + [float(rng.uniform(0.1, 2.0)) for _ in range(1, self.N)]
        edges = [(f"n{parent[i]}", f"n{i}", length[i]) for i in range(1, self.N)]
        return parent, length, edges

    def test_vertex_distances_are_root_distance_sums(self, known, rng):
        parent, length, edges = known
        tree = MetricTree(edges)
        assert len(tree.vertices) == self.N

        def chain(v):
            out = [v]
            while out[-1] != 0:
                out.append(parent[out[-1]])
            return out

        for u, v in rng.integers(0, self.N, (50, 2)):
            up_u, up_v = chain(int(u)), chain(int(v))
            meet = next(w for w in up_u if w in set(up_v))
            want = math.fsum(length[w] for w in up_u[:up_u.index(meet)])
            want += math.fsum(length[w] for w in up_v[:up_v.index(meet)])
            assert tree.vertex_distance(f"n{u}", f"n{v}") == pytest.approx(
                want, rel=1e-12, abs=1e-12)

    def test_malformed_graphs_still_rejected(self, known):
        parent, _, edges = known
        cycle = edges + [("n0", f"n{self.N - 1}", 1.0)]
        with pytest.raises(ConstructionError):
            MetricTree(cycle)
        # cut the subtree under `hub` loose and spend its edge on a cycle
        # through the root, keeping every vertex and N - 1 edges
        hub = next(parent[v] for v in range(1, self.N) if parent[v] != 0)
        cut = set()
        for v in range(1, self.N):
            if v == hub or parent[v] in cut:
                cut.add(v)
        far = next(v for v in range(1, self.N) if v not in cut and parent[v] != 0)
        rewired = [e for i, e in enumerate(edges, start=1) if i != hub]
        rewired.append(("n0", f"n{far}", 1.0))
        with pytest.raises(ConstructionError, match="not connected"):
            MetricTree(rewired)
        parallel = edges[:-1] + [(edges[0][1], edges[0][0], 2.0)]
        with pytest.raises(ConstructionError, match="parallel edge"):
            MetricTree(parallel)
