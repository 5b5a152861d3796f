"""Blocks: each row equals a one-row block bit for bit and agrees with the scalar path.

Every model runs array kernels.  A tree block is a pair of arrays, edges
and offsets, of canonical locations: its samples are drawn in one loop and
snapped at once, its distances and subtree gates repeat the scalar
arithmetic on every row, and interpolation runs the scalar geodesic point
on the rows strictly inside their segment.  Hyperboloid points are
compared with the scalar path in ambient coordinates, since the scalar
``distance`` cannot resolve separations below about 1e-8 there.  Where a model or set
derives a scalar method from its blocks (the seeded sample, the
hyperboloid's exponential map, the flat, hyperbolic and product geodesic
points, the flat mean, the ball and product-set projections, the convex
combination), the two agree bit for bit.  Every other
model's block mean solves each row with the model's own ``_mean``, so
block and scalar means agree bit for bit in every model.  The
hyperboloid's scalar pairing, normalisation and halfspace projection call
the blocks' own sums on coordinate lists and agree with them bit for bit
too; its distance differs only through ``math``'s ``acosh``.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hadamard import (
    Composition,
    Constant,
    ConvexCombination,
    ConvexSet,
    Euclidean,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    Hyperboloid,
    HyperbolicHalfspace,
    Identity,
    InvalidPointError,
    MetricTree,
    Pointwise,
    ProductSet,
    ProductSpace,
    Projection,
    SpaceModel,
    Subtree,
    WeightedPoints,
    distance,
    frechet_mean,
    geodesic_point,
    minkowski,
)
from hadamard.geometry import _dot, _minkowski, _normalize

ROWS = 1000
# Block and scalar kernels round differently, by far less than this.
SCALAR_TOL = 1e-12
# Rows of the mean tests, which solve one scalar mean per row to compare.
MEAN_ROWS = 100


def bits(point):
    """A point's payload with every float spelled exactly (signed zeros included)."""
    payload = point.payload
    if isinstance(payload, np.ndarray):
        return tuple(float(v).hex() for v in payload)
    if isinstance(payload, tuple):
        return tuple(bits(p) for p in payload)
    return payload.edge, float(payload.offset).hex()


@pytest.fixture(scope="module")
def tree2000():
    rng = np.random.default_rng(2000)
    return MetricTree([(f"n{int(rng.integers(0, i))}", f"n{i}", float(rng.uniform(0.1, 2.0)))
                       for i in range(1, 2000)])


@pytest.fixture(scope="module", params=["euclidean3", "hyperbolic2", "tripod", "caterpillar",
                                        "product", "hyperbolic-x-line", "tree2000"])
def case(request, e2, e3, h2, tripod, caterpillar, product, tree2000):
    """A space and convex sets in it; array kernels where the model and set have them."""
    name = request.param
    if name == "euclidean3":
        return e3, [EuclideanHalfspace(e3, [1.0, -2.0, 0.5], 0.3),
                    EuclideanHyperplane(e3, [0.0, 1.0, 1.0], -0.2),
                    GeodesicBall(e3.point([0.5, -0.25, 0.0]), 1.25)]
    if name == "hyperbolic2":
        return h2, [HyperbolicHalfspace(h2, [0.3, 1.0, -0.5]),
                    GeodesicBall(h2.exp_from_base([0.3, -0.2]), 1.0)]
    if name == "hyperbolic-x-line":
        e1 = Euclidean(1)
        space = ProductSpace(h2, e1)
        return space, [ProductSet(space, HyperbolicHalfspace(h2, [0.0, 1.0, 1.0]),
                                  EuclideanHalfspace(e1, [1.0], 0.25)),
                       GeodesicBall(space.point((h2.exp_from_base([-0.5, 0.1]), [0.5])), 0.8)]
    if name == "tripod":
        return tripod, [Subtree(tripod, ["o", "a"]),
                        GeodesicBall(tripod.edge_point(0, 0.5), 0.75)]
    if name == "caterpillar":
        return caterpillar, [Subtree(caterpillar, ["v0", "v1", "v2"]),
                             Subtree(caterpillar, ["v1", "v2", "v4"]),
                             Subtree(caterpillar, ["v3"]),
                             GeodesicBall(caterpillar.vertex_point("v2"), 1.2)]
    if name == "product":
        half = EuclideanHalfspace(e2, [0.0, 1.0], 0.0)
        return product, [ProductSet(product, half, Subtree(tripod, ["o", "a"])),
                         GeodesicBall(product.point(([0.2, -0.1], (1, 0.25))), 1.0)]
    path = tree2000.vertex_path("n7", "n1500")
    return tree2000, [Subtree(tree2000, path),
                      Subtree(tree2000, tree2000.vertex_path("n0", "n1")),
                      GeodesicBall(tree2000.vertex_point("n12"), 1.5)]


@pytest.fixture(scope="module")
def blocks(case):
    space, _ = case
    rng = np.random.default_rng(7)
    a, b = space.sample_block(rng, ROWS), space.sample_block(rng, ROWS)
    t = rng.uniform(size=ROWS)
    t[:3] = 0.0, 1.0, 0.5
    return a, b, t


@pytest.fixture(scope="module")
def instances(case):
    """MEAN_ROWS instances of four points with positive weights, as four blocks."""
    space, _ = case
    rng = np.random.default_rng(9)
    pts = [space.sample_block(rng, MEAN_ROWS) for _ in range(4)]
    raw = rng.uniform(0.05, 1.0, (MEAN_ROWS, 4))
    return pts, raw / raw.sum(axis=1, keepdims=True)


def combination(sets):
    """The identity and each set's projection, at weights 1 : 2 : 3 : ..."""
    raw = np.arange(1.0, len(sets) + 2.0)
    return ConvexCombination(raw / raw.sum(), [Identity()] + [Projection(c) for c in sets])


def one_row(space, block, i):
    return space.stack([space.row(block, i)])


def head(space, block, n=MEAN_ROWS):
    return space.stack([space.row(block, i) for i in range(n)])


def gap(p, q):
    """The distance between two points; on the hyperboloid, the largest ambient
    coordinate difference relative to max(1, |coordinate|).  Product factors
    combine as the product distance does."""
    if isinstance(p.space, ProductSpace):
        return math.hypot(gap(p.payload[0], q.payload[0]), gap(p.payload[1], q.payload[1]))
    if isinstance(p.space, Hyperboloid):
        return float(np.max(np.abs(p.payload - q.payload) / np.maximum(1.0, np.abs(q.payload))))
    return distance(p, q)


def assert_rows_match(space, block, single, rows=ROWS):
    """Row i of ``block`` equals ``single(i)``, a one-row block, bit for bit, at every i."""
    for i in range(rows):
        assert bits(space.row(block, i)) == bits(space.row(single(i), 0)), i


class TestRowsMatchOneRowBlocks:
    def test_distances(self, case, blocks):
        space, _ = case
        a, b, _ = blocks
        d = space.distances(a, b)
        for i in range(ROWS):
            one = space.distances(one_row(space, a, i), one_row(space, b, i))
            assert float(d[i]).hex() == float(one[0]).hex(), i

    def test_interpolate(self, case, blocks):
        space, _ = case
        a, b, t = blocks
        assert_rows_match(space, space.interpolate(a, b, t), lambda i: space.interpolate(
            one_row(space, a, i), one_row(space, b, i), t[i:i + 1]))

    def test_set_projections(self, case, blocks):
        space, sets = case
        a = blocks[0]
        for c in sets:
            assert_rows_match(space, c.project_block(a),
                              lambda i: c.project_block(one_row(space, a, i)))

    def test_projection_and_composition(self, case, blocks):
        space, sets = case
        a = blocks[0]
        composed = Composition([Projection(c) for c in sets])
        assert_rows_match(space, composed.apply_block(space, a),
                          lambda i: composed.apply_block(space, one_row(space, a, i)))

    def test_block_mean(self, case, instances):
        space, _ = case
        pts, w = instances
        assert_rows_match(space, space._block_mean(pts, w, 1e-10), lambda i: space._block_mean(
            [one_row(space, p, i) for p in pts], w[i:i + 1], 1e-10), MEAN_ROWS)

    def test_convex_combination(self, case, blocks):
        space, sets = case
        a, combo = head(space, blocks[0]), combination(sets)
        assert_rows_match(space, combo.apply_block(space, a),
                          lambda i: combo.apply_block(space, one_row(space, a, i)), MEAN_ROWS)


class TestBlocksAgreeWithScalars:
    def test_samples_are_canonical(self, case, blocks):
        space, _ = case
        for i in range(ROWS):
            p = space.row(blocks[0], i)
            assert space.point(p.payload) == p

    def test_distances(self, case, blocks):
        space, _ = case
        a, b, _ = blocks
        d = space.distances(a, b)
        for i in range(ROWS):
            assert abs(d[i] - distance(space.row(a, i), space.row(b, i))) <= SCALAR_TOL

    def test_interpolate(self, case, blocks):
        space, _ = case
        a, b, t = blocks
        m = space.interpolate(a, b, t)
        for i in range(ROWS):
            want = geodesic_point(space.row(a, i), space.row(b, i), float(t[i]))
            assert gap(space.row(m, i), want) <= SCALAR_TOL, i
        assert space.row(m, 0) == space.row(a, 0)
        assert space.row(m, 1) == space.row(b, 1)

    def test_set_projections(self, case, blocks):
        space, sets = case
        a = blocks[0]
        for c in sets:
            images = c.project_block(a)
            # only the flat halfspace twin still rounds through NumPy's dot
            exact = not isinstance(c, EuclideanHalfspace)
            for i in range(ROWS):
                want = c.project(space.row(a, i))
                if exact:
                    assert bits(space.row(images, i)) == bits(want), (c, i)
                else:
                    assert gap(space.row(images, i), want) <= SCALAR_TOL, (c, i)

    def test_composition(self, case, blocks):
        space, sets = case
        a = blocks[0]
        composed = Composition([Projection(c) for c in sets])
        images = composed.apply_block(space, a)
        for i in range(ROWS):
            want = composed.apply(space.row(a, i))
            assert gap(space.row(images, i), want) <= SCALAR_TOL, i

    def test_block_mean(self, case, instances):
        space, _ = case
        pts, w = instances
        means = space._block_mean(pts, w, 1e-10)
        for i in range(MEAN_ROWS):
            want = space._loop_point(space._mean(
                [space._loop_payload(space.row(p, i)) for p in pts], w[i], 1e-10))
            assert bits(space.row(means, i)) == bits(want), i

    def test_convex_combination(self, case, blocks):
        space, sets = case
        a, combo = head(space, blocks[0]), combination(sets)
        images = combo.apply_block(space, a)
        # apply is the one-row block
        for i in range(MEAN_ROWS):
            assert bits(space.row(images, i)) == bits(combo.apply(space.row(a, i))), i


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(["euclidean3", "hyperbolic2", "caterpillar", "euclidean-x-tripod"]),
       raw=st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(any),
       seed=st.integers(0, 2**32 - 1))
def test_combination_block_keeps_frechet_mean_semantics(all_models, model, raw, seed):
    """One, two or more images, zero weights anywhere: rows equal ``apply``."""
    space = all_models[model]
    rng = np.random.default_rng(seed)
    ops = [Identity()] + [Constant(space.sample(rng)) for _ in raw[1:]]
    combo = ConvexCombination(np.array(raw, dtype=float) / sum(raw), ops)
    x = space.sample_block(rng, 6)
    images = combo.apply_block(space, x)
    for i in range(6):
        assert bits(space.row(images, i)) == bits(combo.apply(space.row(x, i))), i


# The scalar methods each model derives from its blocks; it defines the rest
# itself.  ``sample`` and ``payload_interpolate`` are derived in ``SpaceModel``
# for every model that does not define them; ``Euclidean._mean`` is its
# one-row ``_block_mean``.
DERIVED = {"euclidean3": {"sample", "payload_interpolate", "_mean"},
           "hyperbolic2": {"sample", "payload_interpolate"},
           "tripod": {"sample"}, "caterpillar": {"sample"},
           "euclidean-x-tripod": {"sample", "payload_interpolate"}}


@pytest.mark.parametrize("model", sorted(DERIVED))
def test_derived_scalars_are_one_row_blocks(all_models, model):
    space = all_models[model]
    inherited = {m for m in ("sample", "payload_interpolate") if m not in vars(type(space))}
    assert inherited == DERIVED[model] - {"_mean"}
    rng, twin = np.random.default_rng(13), np.random.default_rng(13)
    if "sample" in DERIVED[model]:
        for _ in range(20):
            assert bits(space.sample(rng)) == bits(space.row(space.sample_block(twin, 1), 0))
        assert rng.bit_generator.state == twin.bit_generator.state
    a, b = space.sample_block(rng, 20), space.sample_block(rng, 20)
    if "payload_interpolate" in DERIVED[model]:
        t = rng.uniform(0.01, 0.99, 20)
        assert_rows_match(space, space.stack([geodesic_point(space.row(a, i), space.row(b, i),
                                                             float(t[i])) for i in range(20)]),
                          lambda i: space.interpolate(one_row(space, a, i), one_row(space, b, i),
                                                      t[i:i + 1]), 20)
    if "_mean" in DERIVED[model]:
        pts = [a, b, space.sample_block(rng, 20)]
        raw = rng.uniform(0.05, 1.0, (20, 3))
        w = raw / raw.sum(axis=1, keepdims=True)
        means = [frechet_mean(WeightedPoints([space.row(p, i) for p in pts], w[i]))
                 for i in range(20)]
        assert_rows_match(space, space.stack(means), lambda i: space._block_mean(
            [one_row(space, p, i) for p in pts], w[i:i + 1], 1e-10), 20)


def test_only_the_flat_model_vectorises_its_block_mean():
    """Every other model's block mean is ``SpaceModel``'s loop over its own ``_mean``."""
    models, todo = [], [SpaceModel]
    while todo:
        subclasses = [c for c in todo.pop().__subclasses__()
                      if c.__module__.startswith("hadamard.")]
        models += subclasses
        todo += subclasses
    assert {cls.__name__ for cls in models} == {
        "CoordinateSpace", "Euclidean", "Hyperboloid", "ProductSpace", "MetricTree"}
    assert [cls for cls in models if "_block_mean" in vars(cls)] == [Euclidean]


# The sets whose projection kernel is a one-row ``project_block``; the
# halfspaces (hyperplanes included) and subtrees define their own.
DERIVED_PROJECT = {GeodesicBall, ProductSet}


def test_derived_projections_are_one_row_blocks(case, blocks):
    space, sets = case
    a = blocks[0]
    for c in sets:
        assert type(c).project is ConvexSet.project, c
        derived = type(c)._project_payload is ConvexSet._project_payload
        assert derived == (type(c) in DERIVED_PROJECT), c
        if derived:
            for i in range(ROWS):
                assert bits(c.project(space.row(a, i))) == bits(
                    space.row(c.project_block(one_row(space, a, i)), 0)), (c, i)


class TestHyperboloidBlocks:
    def test_identical_rows_are_exact(self, h2):
        rng = np.random.default_rng(5)
        a, t = h2.sample_block(rng, 50), rng.uniform(size=50)
        assert all(float(v).hex() == "0x0.0p+0" for v in h2.distances(a, a))
        assert np.array_equal(h2.interpolate(a, a, t), a)

    def test_unrepresentable_sample_raises(self, h2):
        class FarRow:
            """Draws finite tangent rows, one of them at radius 800."""

            def standard_normal(self, shape):
                rows = np.full(shape, 0.5)
                rows[3] = 480.0, 640.0
                return rows

        with pytest.raises(InvalidPointError, match="radius 800"):
            h2.sample_block(FarRow(), 8)

    def test_samples_are_the_scalar_draws(self, h2):
        """Each sampled row is ``exp_from_base`` of the normal draw it consumed, bit for bit."""
        block = h2.sample_block(np.random.default_rng(6), 100)
        normals = np.random.default_rng(6).standard_normal((100, 2))
        for i in range(100):
            assert bits(h2.row(block, i)) == bits(h2.exp_from_base(normals[i])), i


    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_one_pairing_keeps_the_bits(self, dim):
        """``_exp_rows`` divides by the root of the pairing its sheet check used.

        Before, ``_normalize`` computed that pairing a second time; the
        samples and ``exp_from_base`` equal that two-pairing map bit for bit.
        """
        space = Hyperboloid(dim)
        tangents = np.random.default_rng(26).standard_normal((200, dim))
        r = np.sqrt(_dot(tangents.T, tangents.T))
        out = np.empty((200, dim + 1))
        out[:, 0] = np.cosh(r)
        out[:, 1:] = (np.sinh(r) / r)[:, None] * tangents
        want = _normalize(out)
        block = space.sample_block(np.random.default_rng(26), 200)
        assert [float(v).hex() for v in block.ravel()] == [float(v).hex() for v in want.ravel()]
        for i in range(200):
            assert bits(space.exp_from_base(tangents[i])) == bits(space.row(want, i)), i


class TestHyperboloidTwins:
    """The scalar twins compute on Python floats through the blocks' own sums."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_pairing_normalize_and_projection_are_one_row_blocks(self, dim):
        space = Hyperboloid(dim)
        rng = np.random.default_rng(dim)
        a, b = space.sample_block(rng, ROWS), space.sample_block(rng, ROWS)
        # spacelike normals, most of them cutting the sampled cloud
        normals = rng.standard_normal((ROWS, dim + 1))
        normals[:, 0] = rng.uniform(-0.5, 0.5, ROWS) * np.linalg.norm(normals[:, 1:], axis=1)
        moved = 0
        for i in range(ROWS):
            u, v = a[i], b[i]
            assert minkowski(u, v).hex() == float(_minkowski(u[None].T, v[None].T)[0]).hex(), i
            w = u + 0.5 * v  # future timelike
            assert np.array_equal(space.normalize(w), _normalize(w[None])[0]), i
            c = HyperbolicHalfspace(space, normals[i])
            x = space.row(a, i)
            got = c.project(x)
            assert bits(got) == bits(space.row(c.project_block(a[i:i + 1]), 0)), i
            moved += got is not x
        assert 0 < moved < ROWS

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([2, 3, 5]),
           radii=st.lists(st.floats(0.0, 7.0), min_size=3, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_outputs_are_valid_points(self, dim, radii, seed):
        """Projections and means of valid points at radii 0 to 7 are valid points."""
        space = Hyperboloid(dim)
        rng = np.random.default_rng(seed)
        points = []
        for r in radii:
            u = rng.standard_normal(dim)
            points.append(space.exp_from_base(r * u / np.linalg.norm(u)))
        # exp_from_base leaves the sheet's tolerance in some directions from
        # radius 7 on; such an input is no valid point to start from
        try:
            points = [space.point(p.payload) for p in points]
        except InvalidPointError:
            assume(False)
        raw = rng.uniform(0.05, 1.0, len(points))
        mean = space._loop_point(space._mean([space._loop_payload(p) for p in points],
                                             tuple(raw / raw.sum()), 1e-10))
        space.validate_payload(mean.payload)
        c = HyperbolicHalfspace(space, [0.0, *rng.standard_normal(dim)])
        for p in points + [mean]:
            space.validate_payload(c.project(p).payload)


# coordinates from subnormals to 1e150, signed zeros included: no sum of
# six products overflows
COORDINATES = st.just(-0.0) | st.floats(-1e150, 1e150)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 64), cols=st.integers(1, 6))
def test_column_sums_are_the_list_sums(data, rows, cols):
    """``_dot`` and ``_minkowski`` on a block's columns give each row's list sum, in hex.

    The block kernels pass ``block.T``, the scalar twins ``tolist()`` rows.
    """
    a, b = data.draw(arrays(float, (2, rows, cols), elements=COORDINATES))
    v = data.draw(arrays(float, cols, elements=COORDINATES))
    sums = [(_dot(a.T, b.T), _dot),
            (_dot(a.T, v), lambda x, _: _dot(x, v.tolist()))]
    if cols > 1:
        sums += [(_dot(a.T, b.T, 1), lambda x, y: _dot(x, y, 1)),
                 (_minkowski(a.T, b.T), _minkowski),
                 (_minkowski(v, a.T), lambda x, _: _minkowski(v.tolist(), x))]
    for got, one in sums:
        for i in range(rows):
            assert float(got[i]).hex() == one(a[i].tolist(), b[i].tolist()).hex(), i


@pytest.mark.parametrize("model", ["e3", "h2"])
def test_rows_share_no_memory_with_their_block(model, request):
    space = request.getfixturevalue(model)
    rng = np.random.default_rng(8)
    for block in (space.sample_block(rng, 10), space.repeat(space.sample(rng), 10)):
        assert not np.shares_memory(space.row(block, 4).payload, block)


class TestSubtreeGate:
    """Subtree blocks move every row as the scalar gate that ``project`` uses does."""

    @pytest.mark.parametrize("model", ["tripod", "caterpillar", "tree2000", "product"])
    def test_rows_are_the_scalar_projections(self, model, e2, tripod, caterpillar, product,
                                             tree2000):
        if model == "tripod":
            tree, subtrees = tripod, [Subtree(tripod, ["o", "a"]), Subtree(tripod, ["b"])]
        elif model == "caterpillar":
            tree, subtrees = caterpillar, [Subtree(caterpillar, ["v0", "v1", "v2"]),
                                           Subtree(caterpillar, ["v1", "v2", "v4"]),
                                           Subtree(caterpillar, ["v3"])]
        elif model == "tree2000":
            tree, subtrees = tree2000, [Subtree(tree2000, tree2000.vertex_path("n7", "n1500")),
                                        Subtree(tree2000, tree2000.vertex_path("n12", "n40")),
                                        Subtree(tree2000, ["n3"])]
        else:
            tree, subtrees = tripod, [Subtree(tripod, ["o", "a"]), Subtree(tripod, ["b"])]
        # a row at every vertex, then sampled rows
        rng = np.random.default_rng(12)
        vertices = tree.stack([tree.vertex_point(v) for v in tree.vertices])
        if model == "product":
            space = product
            half = EuclideanHalfspace(e2, [0.0, 1.0], 0.0)
            sets = [ProductSet(product, half, sub) for sub in subtrees]
            block = product.concat([(e2.sample_block(rng, len(tree.vertices)), vertices),
                                    product.sample_block(rng, 400)])
        else:
            space, sets = tree, subtrees
            block = tree.concat([vertices, tree.sample_block(rng, 400)])
        rows = space.block_len(block)
        climbed = outside = 0
        for c, sub in zip(sets, subtrees):
            images = c.project_block(block)
            moved = 0
            for i in range(rows):
                x = space.row(block, i)
                got, want = space.row(images, i), c.project(x)
                assert bits(got) == bits(want), (c, i)
                if model == "product":
                    x, got, want = x.payload[1], got.payload[1], want.payload[1]
                # members keep their bits; the rest get the shared vertex payload
                if bits(want) != bits(x):
                    assert got.payload is want.payload, (c, i)
                    moved += 1
                    child, top = tree._child[x.payload.edge], sub._top
                    below = top <= child <= tree._last[top]
                    climbed += below
                    outside += not below
            # every set keeps its member vertices and moves some rows
            assert 0 < moved < rows, c
        # gate rows of both kinds: climbed to a member, or outside the top's range
        assert climbed and outside


# ---------------------------------------------------------------------
# tree kernels repeat the scalar arithmetic, bit for bit
# ---------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(["random", "path"]), n=st.integers(2, 400),
       short=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1))
def test_tree_distances_are_the_scalar_distances(shape, n, short, seed):
    """Random and deep path trees, some edges 5e-13 long, edges in both orientations."""
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(1, n):
        j = i - 1 if shape == "path" else int(rng.integers(0, i))
        length = 5e-13 if rng.uniform() < short else float(rng.uniform(0.01, 3.0))
        ends = (f"v{j}", f"v{i}") if rng.uniform() < 0.5 else (f"v{i}", f"v{j}")
        edges.append((*ends, length))
    tree = MetricTree(edges)
    a, b = tree.sample_block(rng, 50), tree.sample_block(rng, 50)
    sampled = [(tree.row(a, i), tree.row(b, i)) for i in range(50)]
    names = tree.vertices
    at_vertices = [(tree.vertex_point(names[int(u)]), tree.vertex_point(names[int(v)]))
                   for u, v in rng.integers(0, len(names), (20, 2))]
    one_edge = []
    for e in rng.integers(0, len(tree.edges), 20).tolist():
        length = tree.edges[e].length
        one_edge.append(tuple(tree.edge_point(e, float(rng.uniform(0.0, length)))
                              for _ in range(2)))
    pairs = (sampled + at_vertices + one_edge + [(p, p) for p, _ in sampled[:10]]
             + [(p, v) for (p, _), (v, _) in zip(sampled, at_vertices)])
    d = tree.distances(tree.stack([p for p, _ in pairs]), tree.stack([q for _, q in pairs]))
    for i, (p, q) in enumerate(pairs):
        assert float(d[i]).hex() == float(tree.payload_distance(p.payload, q.payload)).hex(), i


def test_block_snap_is_canonical_at_the_bounds():
    """``_snap`` picks ``_canonical``'s location within 3 ulps of every snapping bound."""
    lengths = [5e-13, 0.3, 1.0, 7.25, 1e6]
    tree = MetricTree([(f"v{i}", f"v{i + 1}", L) for i, L in enumerate(lengths)])
    edges, offsets = [], []
    for edge, length in enumerate(lengths):
        snap = 1e-12 * max(1.0, length)
        for bound in (0.0, snap, length - snap, length):
            below = above = bound
            near = [bound]
            for _ in range(3):
                below, above = np.nextafter(below, -1.0), np.nextafter(above, 2e6)
                near += [below, above]
            near = [float(s) for s in near if 0.0 <= s <= length]
            edges += [edge] * len(near)
            offsets += near
    block = tree._snap(np.array(edges), np.array(offsets))
    snapped = 0
    for i, (edge, offset) in enumerate(zip(edges, offsets)):
        want = tree._canonical(edge, offset)
        got = tree.row(block, i)
        assert (got.payload.edge, got.payload.offset.hex()) == (want.edge, want.offset.hex()), i
        vertex = tree.location_vertex(want)
        if vertex is not None:
            # a vertex row is the tree's shared point at that vertex
            assert got is tree.vertex_point(vertex)
            snapped += 1
    assert 0 < snapped < len(edges)


class TestRowFallback:
    """Tree kernels give the scalar results; an operator without a kernel runs row by row."""

    def test_tree_rows_are_the_scalar_results(self, caterpillar):
        rng = np.random.default_rng(3)
        a, b = caterpillar.sample_block(rng, 50), caterpillar.sample_block(rng, 50)
        t = rng.uniform(size=50)
        d, m = caterpillar.distances(a, b), caterpillar.interpolate(a, b, t)
        for i in range(50):
            p, q = caterpillar.row(a, i), caterpillar.row(b, i)
            assert d[i] == distance(p, q)
            assert caterpillar.row(m, i) == geodesic_point(p, q, float(t[i]))

    def test_pointwise_operator(self, e2):
        op = Pointwise("swap", lambda x: e2.point(x.payload[::-1]))
        block = e2.sample_block(np.random.default_rng(4), 20)
        images = op.apply_block(e2, block)
        assert np.array_equal(images, block[:, ::-1])
