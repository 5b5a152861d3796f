"""Convex set descriptors: membership, projections, and the projection inequality."""

import ast
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hadamard
from hadamard import (
    DomainError,
    Euclidean,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    Hyperboloid,
    HyperbolicHalfspace,
    MetricTree,
    ProductSet,
    ProductSpace,
    Projection,
    SpaceMismatchError,
    StopRule,
    Subtree,
    TreeLocation,
    cyclic_projections,
    distance,
    discrepancy,
    geodesic_point,
    halfspace_residual,
    minkowski,
    projection_defect,
)
from hadamard.errors import ConstructionError


@pytest.fixture
def families(e2, e3, h2, tripod, caterpillar):
    """Two or more instances per set family, across models."""
    return {
        "euclidean-halfspaces": [
            EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0"),
            EuclideanHalfspace(e3, [1, 2, -1], 0.75, name="slanted"),
        ],
        "hyperbolic-halfspaces": [
            HyperbolicHalfspace(h2, [0, 1, 0], name="m1<=0"),
            HyperbolicHalfspace(h2, [0.25, 1.5, -0.5], name="tilted"),
        ],
        "balls": [
            GeodesicBall(e3.point([0.5, 0, -1]), 1.5, name="ball-e3"),
            GeodesicBall(h2.point([1, 0, 0]), 0.8, name="ball-h2"),
            GeodesicBall(tripod.edge_point(0, 0.5), 0.75, name="ball-tree"),
        ],
        "subtrees": [
            Subtree(tripod, ["o", "b"], name="leg-b"),
            Subtree(caterpillar, ["v1", "v2", "v4"], name="branch"),
        ],
    }


class TestConstruction:
    def test_zero_normal_rejected(self, e2):
        with pytest.raises(ConstructionError):
            EuclideanHalfspace(e2, [0, 0], 1.0)
        with pytest.raises(ConstructionError):
            EuclideanHyperplane(e2, [0, 0], 1.0)

    @pytest.mark.parametrize("cls", [EuclideanHalfspace, EuclideanHyperplane])
    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
    def test_nonfinite_offset_rejected(self, e2, cls, offset):
        with pytest.raises(ConstructionError, match="offset must be finite"):
            cls(e2, [0, 1], offset)

    def test_nonpositive_radius_rejected(self, e2):
        with pytest.raises(ConstructionError):
            GeodesicBall(e2.point([0, 0]), 0.0)

    def test_timelike_normal_rejected(self, h2):
        with pytest.raises(ConstructionError):
            HyperbolicHalfspace(h2, [1, 0, 0])

    def test_normal_is_normalized(self, h2):
        c = HyperbolicHalfspace(h2, [0, 2, 0])
        assert minkowski(c.normal, c.normal) == pytest.approx(1.0, abs=1e-12)

    def test_disconnected_subtree_rejected(self, tripod):
        with pytest.raises(ConstructionError):
            Subtree(tripod, ["a", "b"])  # leaves without the center

    def test_unknown_subtree_vertex(self, tripod):
        with pytest.raises(ConstructionError):
            Subtree(tripod, ["o", "zz"])

    def test_product_factor_space_checked(self, e2, e3, tripod):
        space = ProductSpace(e2, tripod)
        wrong = EuclideanHalfspace(e3, [1, 0, 0], 0.0)
        leg = Subtree(tripod, ["o", "a"])
        with pytest.raises(ConstructionError):
            ProductSet(space, wrong, leg)

    def test_wrong_space_type(self, e2, tripod):
        with pytest.raises(ConstructionError):
            HyperbolicHalfspace(e2, [0, 1])
        with pytest.raises(ConstructionError):
            Subtree(e2, ["a"])


class TestProjectionExamples:
    def test_halfspace_clamps(self, e2):
        c = EuclideanHalfspace(e2, [0, 1], 0.0)
        assert np.allclose(c.project(e2.point([1, 1])).payload, [1, 0])

    def test_member_returned_unchanged(self, e2):
        c = EuclideanHalfspace(e2, [0, 1], 0.0)
        x = e2.point([3, -2])
        assert c.project(x) is x

    def test_hyperplane_projects_both_sides(self, e2):
        c = EuclideanHyperplane(e2, [0, 1], 0.0)
        assert np.allclose(c.project(e2.point([2, 5])).payload, [2, 0])
        assert np.allclose(c.project(e2.point([2, -5])).payload, [2, 0])

    def test_ball_exterior_lands_on_radius(self, all_models, rng):
        """Exterior points project to geodesic_point(c, x, r/D)."""
        for space in all_models.values():
            tol = max(space.defect_tolerance, 1e-9)
            center = space.sample(rng)
            ball = GeodesicBall(center, 0.5)
            for _ in range(20):
                x = space.sample(rng)
                d = distance(center, x)
                if d <= ball.radius:
                    # the one-row block returns an equal copy, not x itself
                    assert ball.project(x) == x
                    continue
                px = ball.project(x)
                expected = geodesic_point(center, x, ball.radius / d)
                assert distance(px, expected) <= tol
                assert distance(center, px) <= ball.radius + tol

    def test_subtree_gate_vertex(self, tripod):
        leg_b = Subtree(tripod, ["o", "b"], name="leg-b")
        x = tripod.edge_point(0, 0.5)  # halfway up leg a
        assert leg_b.project(x) == tripod.vertex_point("o")

    def test_hyperbolic_halfspace_boundary(self, h2, rng):
        c = HyperbolicHalfspace(h2, [0, 1, 0])
        for _ in range(50):
            x = h2.sample(rng)
            px = c.project(x)
            if minkowski(c.normal, x.payload) <= 0:
                assert px is x
            else:
                # exterior points land on the bounding hypersurface
                assert abs(minkowski(c.normal, px.payload)) <= 1e-9

    def test_product_componentwise(self, e2, tripod, rng):
        space = ProductSpace(e2, tripod)
        c = ProductSet(space, EuclideanHalfspace(e2, [0, 1], 0.0),
                       Subtree(tripod, ["o", "a"]))
        x = space.sample(rng)
        px = c.project(x)
        assert px.payload[0] == c.left.project(x.payload[0])
        assert px.payload[1] == c.right.project(x.payload[1])

    def test_space_mismatch(self, e2, e3):
        c = EuclideanHalfspace(e2, [0, 1], 0.0)
        with pytest.raises(SpaceMismatchError):
            c.project(e3.point([0, 0, 0]))


class TestProjectionProperties:
    def test_result_in_set_and_idempotent(self, families, rng):
        for sets in families.values():
            for c in sets:
                # the hyperbolic metric resolves nothing below ~2e-8
                tol = 5e-8 if c.space.involves_hyperboloid else 1e-9
                for _ in range(100):
                    x = c.space.sample(rng)
                    px = c.project(x)
                    assert c.contains(px)
                    assert distance(c.project(px), px) <= tol

    def test_minimizes_distance_among_members(self, families, rng):
        for sets in families.values():
            for c in sets:
                tol = c.space.defect_tolerance
                x = c.space.sample(rng)
                px = c.project(x)
                for _ in range(200):
                    member = c.project(c.space.sample(rng))
                    assert distance(x, px) <= distance(x, member) + tol

    def test_firmness(self, families, rng):
        """d(Px, Py)^2 <= discrepancy: the projection inequality doubled."""
        for sets in families.values():
            for c in sets:
                tol = c.space.defect_tolerance
                op = Projection(c)
                for _ in range(1000):
                    x, y = c.space.sample(rng), c.space.sample(rng)
                    defect = discrepancy(op, x, y) - distance(op.apply(x), op.apply(y)) ** 2
                    assert defect >= -tol

    def test_projection_defect_nonnegative(self, families, rng):
        for sets in families.values():
            for c in sets:
                tol = c.space.defect_tolerance
                for _ in range(500):
                    x = c.space.sample(rng)
                    y = c.project(c.space.sample(rng))
                    assert projection_defect(c, x, y) >= -tol


class TestProjectionDefectExamples:
    def test_member_challenger_pairs(self, e2):
        c = EuclideanHalfspace(e2, [0, 1], 0.0)
        assert projection_defect(c, e2.point([0, 1]), e2.point([0, 0])) == pytest.approx(
            0.0, abs=1e-12
        )
        assert projection_defect(c, e2.point([1, 1]), e2.point([-1, 0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_interior_point_gives_zero(self, e2, rng):
        c = EuclideanHalfspace(e2, [0, 1], 0.0)
        x = e2.point([2, -1])
        y = e2.point([-3, -2])
        assert projection_defect(c, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_outside_challenger_rejected(self, e2):
        c = EuclideanHalfspace(e2, [0, 1], 0.0)
        with pytest.raises(DomainError):
            projection_defect(c, e2.point([0, 1]), e2.point([0, 2]))


TRIPOD = [("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)]


def _product():
    return ProductSpace(Euclidean(2), MetricTree(TRIPOD))


# One set of each family, named "A", with its repr: the description, then the name.
SETS = {
    "halfspace": (lambda: EuclideanHalfspace(Euclidean(2), [0, 1], 0.0, name="A"),
                  "halfspace <(0, 1), x> <= 0 [A]"),
    "hyperplane": (lambda: EuclideanHyperplane(Euclidean(2), [0, 1], 0.0, name="A"),
                   "hyperplane <(0, 1), x> = 0 [A]"),
    "hyperbolic-halfspace": (lambda: HyperbolicHalfspace(Hyperboloid(2), [0, 1, 0], name="A"),
                             "hyperbolic halfspace m((0, 1, 0), x) <= 0 [A]"),
    "ball": (lambda: GeodesicBall(Euclidean(2).point([0, 0]), 1.0, name="A"),
             "ball(center=(0, 0), r=1) [A]"),
    "subtree": (lambda: Subtree(MetricTree(TRIPOD), ["o", "a"], name="A"), "subtree(a, o) [A]"),
    "product": (lambda: ProductSet(_product(), EuclideanHalfspace(Euclidean(2), [0, 1], 0.0),
                                   Subtree(MetricTree(TRIPOD), ["o", "a"]), name="A"),
                "product(halfspace <(0, 1), x> <= 0, subtree(a, o)) [A]"),
}


class TestEqualityContract:
    """Spaces, points and tree locations are values; convex sets are identities."""

    @pytest.mark.parametrize("build", [
        lambda: Euclidean(3),
        lambda: Hyperboloid(2),
        lambda: MetricTree(TRIPOD),
        _product,
        lambda: Euclidean(2).point([1.5, -2.0]),
        lambda: Hyperboloid(2).exp_from_base([0.3, -0.4]),
        lambda: MetricTree(TRIPOD).edge_point(1, 0.25),
        lambda: _product().point((Euclidean(2).point([1, 2]),
                                  MetricTree(TRIPOD).vertex_point("a"))),
        lambda: TreeLocation(1, 0.25),
    ], ids=["euclidean", "hyperboloid", "tree", "product", "euclidean-point",
            "hyperboloid-point", "tree-point", "product-point", "tree-location"])
    def test_equal_values_hash_equal(self, build):
        a, b = build(), build()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("build", [build for build, _ in SETS.values()], ids=list(SETS))
    def test_sets_compare_by_identity(self, build):
        a, b = build(), build()
        assert a == a and hash(a) == hash(a)
        assert a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("build, text", list(SETS.values()), ids=list(SETS))
    def test_repr_is_description_and_name(self, build, text):
        c = build()
        assert repr(c) == text
        assert c.describe() == text.removesuffix(" [A]")


def _flat_family(space, rng, count, plane_share, offset_for):
    """Halfspaces and hyperplanes, normals scaled from 1e-3 to 1e3."""
    sets = []
    for k in range(count):
        normal = rng.standard_normal(space.dim) * 10.0 ** rng.uniform(-3.0, 3.0)
        cls = EuclideanHyperplane if rng.uniform() < plane_share else EuclideanHalfspace
        sets.append(cls(space, normal, offset_for(cls, normal), name=f"C{k}"))
    return sets


FAMILY_SHAPES = dict(count=st.integers(1, 60), dim=st.integers(1, 50),
                     plane_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))


def _fmax_residual(sets, p) -> float:
    """The flat residual as one NumPy formula: max_k fmax(g_k, lowest_k - g_k) / |a_k|, clipped."""
    normals = np.stack([c.normal for c in sets])
    gap = normals @ p - np.array([c.offset for c in sets])
    lowest = np.array([c._lowest_gap for c in sets])
    worst = float((np.fmax(gap, lowest - gap) / np.sqrt([c._norm_sq for c in sets])).max())
    return 0.0 if worst <= 0.0 else worst


class TestHalfspaceResidual:
    """The flat kernel against max_k d(x, P_k x) from the projections."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(1, 60), dim=st.integers(1, 64), plane_share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_is_the_fmax_formula_bit_for_bit(self, count, dim, plane_share, seed, data):
        """On any coordinates, infinite, NaN and huge ones included."""
        space = Euclidean(dim)
        rng = np.random.default_rng(seed)

        def offset_for(cls, normal):
            return float(rng.choice([0.0, -0.0, 1.0])) * float(rng.standard_normal())

        sets = _flat_family(space, rng, count, plane_share, offset_for)
        residual = halfspace_residual(sets)
        payloads = [np.zeros(dim), -np.zeros(dim), rng.standard_normal(dim),
                    sets[0].project(space.point(rng.standard_normal(dim))).payload,
                    data.draw(arrays(np.float64, dim, elements=st.floats(width=64)))]
        with np.errstate(all="ignore"):
            for p in payloads:
                assert residual(p).hex() == _fmax_residual(sets, p).hex()

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_infinite_and_nan_gaps(self, length):
        """Every ordered choice of rows, at points where gaps are +inf, -inf, NaN or finite.

        At (1e300, 1) the first two normals' products overflow to +inf and
        -inf, and the last two gaps are finite; at (+-inf, 1) the third
        normal's gap is 0 * inf = NaN.  Each row is a halfspace (lowest gap
        -inf, so a -inf gap puts -inf - -inf = NaN on the right of the
        fmax) or a hyperplane (lowest gap 0).
        """
        e2 = Euclidean(2)
        normals = [[1e10, 0.0], [-1e10, 0.0], [0.0, 1.0], [1e-150, 0.0]]
        rows = [(cls, normal) for cls in (EuclideanHalfspace, EuclideanHyperplane)
                for normal in normals]
        points = [np.array([1e300, 1.0]), np.array([math.inf, 1.0]), np.array([-math.inf, 1.0])]
        seen = set()
        with np.errstate(all="ignore"):
            for choice in itertools.permutations(rows, length):
                sets = [cls(e2, normal, 0.5) for cls, normal in choice]
                residual = halfspace_residual(sets)
                for p in points:
                    gaps = np.stack([c.normal for c in sets]) @ p - 0.5
                    seen.update(str(g) for g in gaps if not math.isfinite(g))
                    assert residual(p).hex() == _fmax_residual(sets, p).hex()
        assert seen == {"inf", "-inf", "nan"}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**FAMILY_SHAPES)
    def test_matches_projection_distances(self, count, dim, plane_share, seed):
        space = Euclidean(dim)
        rng = np.random.default_rng(seed)
        anchor = 3.0 * rng.standard_normal(dim)

        def offset_for(cls, normal):
            # half the sets pass exactly through the anchor (gap 0.0 as the
            # projection computes it), the rest sit up to 5 away from the origin
            if rng.uniform() < 0.5:
                return float(normal @ anchor)
            return float(np.linalg.norm(normal)) * rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 5.0)

        sets = _flat_family(space, rng, count, plane_share, offset_for)
        residual = halfspace_residual(sets)
        outside = space.point(5.0 * rng.standard_normal(dim))
        points = [space.point(anchor), outside]
        for c in sets[:4]:
            on = c.project(outside)
            unit = c.normal / math.sqrt(c.normal @ c.normal)
            points += [on, space.point(on.payload - rng.uniform(0.1, 1.0) * unit)]
        for x in points:
            want = max(distance(x, c.project(x)) for c in sets)
            got = residual(x.payload)
            assert got >= 0.0
            assert abs(got - want) <= 1e-14 * (1.0 + np.linalg.norm(x.payload))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(**FAMILY_SHAPES)
    def test_point_in_every_set_gives_positive_zero(self, count, dim, plane_share, seed):
        """Hyperplanes through the origin and halfspaces holding it, at +0.0 and -0.0."""
        space = Euclidean(dim)
        rng = np.random.default_rng(seed)

        def offset_for(cls, normal):
            if cls is EuclideanHyperplane:
                return 0.0
            return float(np.linalg.norm(normal)) * rng.uniform(0.1, 5.0)

        residual = halfspace_residual(_flat_family(space, rng, count, plane_share, offset_for))
        for x in (np.zeros(dim), -np.zeros(dim), rng.choice([-0.0, 0.0], dim)):
            got = residual(space.point(x).payload)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_signed_zero_on_a_hyperplane_prints_zero(self):
        e1 = Euclidean(1)
        line = EuclideanHyperplane(e1, [1.0], 0.0, name="origin")
        x = e1.point([-0.0])
        assert math.copysign(1.0, halfspace_residual([line])(x.payload)) == 1.0
        trace = cyclic_projections([line], x, StopRule(max_iter=5))
        out = io.StringIO()
        trace.to_csv(out)
        assert out.getvalue().splitlines()[1] == "0,0,,,"

    def test_other_families_take_the_projection_path(self, e2, h2):
        half = EuclideanHalfspace(e2, [0, 1], 1.0)
        assert halfspace_residual([half, GeodesicBall(e2.point([0, 0]), 1.0)]) is None
        assert halfspace_residual([HyperbolicHalfspace(h2, [0, 1, 0])]) is None
        assert halfspace_residual([]) is None

    def test_halfspaces_of_different_spaces_rejected(self, e2, e3):
        with pytest.raises(SpaceMismatchError):
            halfspace_residual([EuclideanHalfspace(e2, [0, 1], 0.0),
                                EuclideanHalfspace(e3, [0, 1, 0], 0.0)])
        # the residual takes payloads; a run checks its start against the sets on entry
        with pytest.raises(SpaceMismatchError):
            cyclic_projections([EuclideanHalfspace(e2, [0, 1], 0.0)], e3.point([0, 0, 0]),
                               StopRule(max_iter=5))


class TestOneProject:
    """Every set projects through ``ConvexSet.project`` over its payload kernel."""

    def test_only_the_base_class_defines_project(self):
        sources = Path(hadamard.__file__).parent
        owners = [
            f"{path.name}:{node.name}"
            for path in sorted(sources.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef) and item.name == "project"
                    for item in node.body)
        ]
        assert owners == ["convex_sets.py:ConvexSet"]

    @pytest.mark.parametrize("build", [build for build, _ in SETS.values()], ids=list(SETS))
    def test_foreign_points_raise_the_point_check(self, build):
        c = build()
        with pytest.raises(SpaceMismatchError) as info:
            c.project(Euclidean(3).point([0, 0, 0]))
        assert str(info.value) == f"point in Euclidean(3) vs set 'A' in {c.space.describe()}"
        with pytest.raises(SpaceMismatchError) as info:
            c.project("x")
        assert str(info.value) == "'x' is not a point"
