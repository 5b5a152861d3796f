"""Convex set descriptors: membership, projections, and the projection inequality."""

import numpy as np
import pytest

from hadamard import (
    DomainError,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    HyperbolicHalfspace,
    ProductSet,
    ProductSpace,
    Projection,
    SpaceMismatchError,
    Subtree,
    distance,
    discrepancy,
    geodesic_point,
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
                    assert ball.project(x) is x
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
                    assert c.contains(px, tol=1e-8)
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


class TestStructuralEquality:
    def test_equal_descriptors(self, e2, tripod):
        a = EuclideanHalfspace(e2, [0, 1], 0.0, name="A")
        b = EuclideanHalfspace(e2, [0, 1], 0.0, name="B")
        assert a == b  # the name is presentation, not identity
        assert a != EuclideanHalfspace(e2, [0, 1], 1.0)
        assert Subtree(tripod, ["o", "a"]) == Subtree(tripod, ["a", "o"])
        assert Subtree(tripod, ["o", "a"]) != Subtree(tripod, ["o", "b"])
