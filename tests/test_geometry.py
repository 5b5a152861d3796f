"""Distances, geodesics, the metric pairing, and the curvature defect."""

import math
import time
import warnings

import numpy as np
import pytest

from hadamard import (
    DomainError,
    Euclidean,
    EuclideanHalfspace,
    Hyperboloid,
    Identity,
    InvalidPointError,
    ProductSpace,
    SpaceMismatchError,
    WeightedPoints,
    cat0_defect,
    distance,
    geodesic_point,
    quasilinearization,
)
from hadamard import geometry
from hadamard.errors import ConstructionError


class TestDistance:
    def test_euclidean_pythagorean(self, e2):
        assert distance(e2.point([0, 0]), e2.point([3, 4])) == pytest.approx(5.0)

    def test_hyperbolic_along_parametrized_geodesic(self, h2):
        a = h2.point([1, 0, 0])
        b = h2.point([math.cosh(1), math.sinh(1), 0])
        assert distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_tripod_leaf_to_leaf(self, tripod):
        assert distance(tripod.vertex_point("a"), tripod.vertex_point("b")) == 2.0

    def test_symmetry_and_zero_iff_equal(self, all_models, rng):
        for space in all_models.values():
            for _ in range(50):
                p, q = space.sample(rng), space.sample(rng)
                assert distance(p, q) == pytest.approx(distance(q, p), abs=1e-12)
                assert distance(p, p) == 0.0

    def test_triangle_inequality(self, all_models, rng):
        for space in all_models.values():
            for _ in range(100):
                p, q, r = (space.sample(rng) for _ in range(3))
                assert distance(p, q) <= distance(p, r) + distance(r, q) + 1e-9

    def test_space_mismatch(self, e2, e3):
        with pytest.raises(SpaceMismatchError):
            distance(e2.point([0, 0]), e3.point([0, 0, 0]))

    def test_off_manifold_point_rejected(self, h2):
        with pytest.raises(InvalidPointError):
            h2.point([1.0, 0.5, 0.0])

    def test_lower_sheet_rejected(self, h2):
        with pytest.raises(InvalidPointError):
            h2.point([-1.0, 0.0, 0.0])

    def test_coordinates_bounded_so_distances_stay_finite(self, e2):
        p, q = e2.point([1e150, -1e150]), e2.point([-1e150, 1e150])
        assert math.isfinite(distance(p, q))
        for bad in ([1.0000000000000002e150, 0.0], [0.0, -math.inf], [math.nan, 0.0]):
            with pytest.raises(InvalidPointError,
                               match="finite and at most 1e\\+150 in magnitude"):
                e2.point(bad)

    @pytest.mark.parametrize("space", [Euclidean(5), Hyperboloid(4)], ids=["flat", "hyperbolic"])
    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.1e150, -1.1e150])
    def test_bound_holds_at_every_position(self, space, position, bad):
        """A NaN, an infinity or a coordinate past the bound fails wherever it sits.

        Both doors check it: ``point`` for input and ``_wrap`` for kernel
        output.  The bound is tested before the sheet.
        """
        coords = [1.0, 0.0, 0.0, 0.0, 0.0]
        coords[position] = bad
        with pytest.raises(InvalidPointError, match="finite and at most 1e\\+150 in magnitude"):
            space.point(coords)
        with pytest.raises(InvalidPointError, match="finite and at most 1e\\+150 in magnitude"):
            space._wrap(np.array(coords))


class TestGeodesicPoint:
    def test_euclidean_midpoint(self, e2):
        mid = geodesic_point(e2.point([0, 0]), e2.point([2, 0]), 0.5)
        assert np.allclose(mid.payload, [1, 0])

    def test_endpoints_exact(self, all_models, rng):
        for space in all_models.values():
            p, q = space.sample(rng), space.sample(rng)
            assert geodesic_point(p, q, 0.0) is p
            assert geodesic_point(p, q, 1.0) is q

    def test_tripod_midpoint_is_center(self, tripod):
        mid = geodesic_point(tripod.vertex_point("a"), tripod.vertex_point("b"), 0.5)
        assert mid == tripod.vertex_point("o")

    def test_split_ratios(self, all_models, rng):
        for space in all_models.values():
            tol = space.defect_tolerance
            for _ in range(40):
                p, q = space.sample(rng), space.sample(rng)
                t = float(rng.uniform())
                r = geodesic_point(p, q, t)
                d = distance(p, q)
                assert distance(p, r) == pytest.approx(t * d, abs=max(tol, 1e-9))
                assert distance(r, q) == pytest.approx((1 - t) * d, abs=max(tol, 1e-9))

    def test_parameter_domain(self, e2):
        p, q = e2.point([0, 0]), e2.point([1, 0])
        with pytest.raises(DomainError):
            geodesic_point(p, q, 1.5)
        with pytest.raises(DomainError):
            geodesic_point(p, q, -0.1)

    def test_mismatch(self, e2, e3):
        with pytest.raises(SpaceMismatchError):
            geodesic_point(e2.point([0, 0]), e3.point([0, 0, 0]), 0.5)


class TestGeodesicSegment:
    def test_reparametrization(self, all_models, rng):
        """d(gamma(t1), gamma(t2)) = |t1 - t2| * d(p, q) on sampled pairs."""
        for space in all_models.values():
            tol = max(space.defect_tolerance, 1e-9)
            p, q = space.sample(rng), space.sample(rng)
            length = distance(p, q)
            assert geodesic_point(p, q, 0.0) is p and geodesic_point(p, q, 1.0) is q
            for _ in range(25):
                t1, t2 = float(rng.uniform()), float(rng.uniform())
                expected = abs(t1 - t2) * length
                got = distance(geodesic_point(p, q, t1), geodesic_point(p, q, t2))
                assert got == pytest.approx(expected, abs=tol)


class TestQuasilinearization:
    def test_orthogonal_vectors_vanish(self, e2):
        x = e2.point([0, 0])
        z = e2.point([1, 0])
        w = e2.point([0, 1])
        assert quasilinearization(x, z, x, w) == pytest.approx(0.0, abs=1e-12)

    def test_self_pairing_is_squared_distance(self, all_models, rng):
        for space in all_models.values():
            x, y = space.sample(rng), space.sample(rng)
            assert quasilinearization(x, y, x, y) == pytest.approx(
                distance(x, y) ** 2, abs=max(space.defect_tolerance, 1e-9)
            )

    def test_tripod_hand_value(self, tripod):
        # legs a and b of a unit tripod: half of (1 + 1 - 4 - 0)
        a, b, o = (tripod.vertex_point(v) for v in "abo")
        assert quasilinearization(a, o, b, o) == pytest.approx(-1.0, abs=1e-12)

    def test_swap_of_bound_vectors(self, all_models, rng):
        for space in all_models.values():
            x, z, y, w = (space.sample(rng) for _ in range(4))
            assert quasilinearization(x, z, y, w) == pytest.approx(
                quasilinearization(y, w, x, z), abs=1e-12
            )

    def test_matches_euclidean_inner_product(self, e3, rng):
        for _ in range(200):
            x, z, y, w = (e3.sample(rng) for _ in range(4))
            inner = float((z.payload - x.payload) @ (w.payload - y.payload))
            assert quasilinearization(x, z, y, w) == pytest.approx(inner, abs=1e-12)

    def test_cauchy_schwarz(self, all_models, rng):
        """|<xz, yw>| <= d(x,z) d(y,w): the pairing is metrically bounded."""
        for space in all_models.values():
            tol = space.defect_tolerance
            for _ in range(1000):
                x, z, y, w = (space.sample(rng) for _ in range(4))
                bound = distance(x, z) * distance(y, w)
                assert abs(quasilinearization(x, z, y, w)) <= bound + tol


class TestCat0Defect:
    def test_euclidean_midpoint_equality_case(self, e2, rng):
        for _ in range(50):
            x, y, z = (e2.sample(rng) for _ in range(3))
            assert cat0_defect(x, y, z, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_tripod_hand_value(self, tripod):
        a, b, c = (tripod.vertex_point(v) for v in "abc")
        assert cat0_defect(a, b, c, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_t_zero_is_exact_zero(self, all_models, rng):
        for space in all_models.values():
            x, y, z = (space.sample(rng) for _ in range(3))
            assert cat0_defect(x, y, z, 0.0) == 0.0

    def test_nonnegative_in_every_model(self, all_models, rng):
        for space in all_models.values():
            tol = space.defect_tolerance
            for _ in range(1000):
                x, y, z = (space.sample(rng) for _ in range(3))
                t = float(rng.uniform())
                assert cat0_defect(x, y, z, t) >= -tol

    def test_parameter_domain(self, e2, rng):
        x, y, z = (e2.sample(rng) for _ in range(3))
        with pytest.raises(DomainError):
            cat0_defect(x, y, z, 1.0001)


class TestProductSpace:
    def test_squared_distance_splits(self, product, rng):
        for _ in range(200):
            p, q = product.sample(rng), product.sample(rng)
            dl = distance(p.payload[0], q.payload[0])
            dr = distance(p.payload[1], q.payload[1])
            assert distance(p, q) ** 2 == pytest.approx(dl**2 + dr**2, abs=1e-12)

    def test_payload_validation(self, product, e2, e3):
        with pytest.raises(InvalidPointError):
            product.point((e3.point([0, 0, 0]), product.right.vertex_point("a")))
        with pytest.raises(InvalidPointError):
            product.point(e2.point([0, 0]))

    def test_points_spell_both_factors(self, e2, tripod):
        product = ProductSpace(e2, tripod)
        p = product.point((e2.point([1, 2]), tripod.vertex_point("a")))
        assert product.format_payload(p.payload) == "((1, 2); vertex,a)"
        assert repr(p) == "Point(Product(Euclidean(2), MetricTree(4 vertices, 3 edges)), " \
                          "((1, 2); vertex,a))"

    def test_nested_product(self, e2, tripod):
        outer = ProductSpace(ProductSpace(e2, e2), tripod)
        rng = np.random.default_rng(3)
        p, q = outer.sample(rng), outer.sample(rng)
        mid = geodesic_point(p, q, 0.5)
        assert distance(p, mid) == pytest.approx(distance(mid, q), abs=1e-9)


class TestToleranceConfig:
    def test_defaults(self):
        assert geometry.EQ_TOL == 1e-9
        assert geometry.ON_MANIFOLD_TOL == 1e-10
        assert geometry.HYPERBOLIC_TOL == 1e-7

    def test_defect_tolerance_tracks_hyperbolic_factors(self, e2, h2, tripod):
        assert e2.defect_tolerance == 1e-9
        assert h2.defect_tolerance == 1e-7
        assert ProductSpace(e2, tripod).defect_tolerance == 1e-9
        assert ProductSpace(e2, h2).defect_tolerance == 1e-7

    def test_points_are_immutable(self, e2):
        p = e2.point([1, 2])
        with pytest.raises(AttributeError):
            p.payload = None
        with pytest.raises(ValueError):
            p.payload[0] = 5.0

    @pytest.mark.parametrize("build", [
        lambda: Euclidean(2),
        lambda: EuclideanHalfspace(Euclidean(2), [0.0, 1.0], 0.0),
        lambda: Identity(),
        lambda: WeightedPoints([Euclidean(2).point([0.0, 0.0])], [1.0]),
    ], ids=["space", "set", "operator", "weighted-points"])
    def test_library_objects_are_immutable(self, build):
        obj = build()
        with pytest.raises(AttributeError, match="is immutable"):
            obj.name = "changed"

    def test_point_is_never_equal_to_a_non_point(self, e2):
        p = e2.point([1, 2])
        assert p.__eq__((1.0, 2.0)) is NotImplemented
        assert p != (1.0, 2.0)
        assert p != p.payload.tolist()

    def test_hyperboloid_needs_positive_dim(self):
        with pytest.raises(ConstructionError):
            Hyperboloid(0)


class TestExpFromBase:
    @pytest.mark.parametrize("tangent", [[20.0, 0.0], [0.0, -20.0], [30.0, 0.0],
                                         [18.0, 24.0], [1000.0, 0.0]])
    def test_unrepresentable_radius_raises(self, h2, tangent):
        with pytest.raises(InvalidPointError, match="exponential map"):
            h2.exp_from_base(tangent)

    def test_moderate_radius_stays_on_sheet(self, h2):
        p = h2.exp_from_base([3.0, -4.0])
        assert distance(h2.base_point(), p) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("radius", [356.0, 400.0, 700.0])
    def test_square_overflow_raises_without_warnings(self, h2, radius):
        # cosh is finite here but its square is not; no array product may
        # overflow on the way to the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointError, match="exponential map"):
                h2.exp_from_base([0.6 * radius, 0.8 * radius])

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_radius_scan_lands_at_radius_or_raises(self, dim):
        # Where cosh^2 - sinh^2 rounds away from 1, renormalizing moved
        # the point: [180, 240] came back 18.93 from the apex, not 300.
        space = Hyperboloid(dim)
        apex = space.base_point()
        rng = np.random.default_rng(dim)
        for r in np.arange(0.0, 800.0, 0.5):
            for _ in range(3):
                u = rng.standard_normal(dim)
                try:
                    p = space.exp_from_base(r * u / np.linalg.norm(u))
                except InvalidPointError:
                    assert r > 10.0  # nearer radii always come back
                    continue
                assert abs(distance(apex, p) - r) <= geometry.HYPERBOLIC_TOL, r

    def test_radius_five_payload_unchanged(self, h2):
        v = np.array([3.0, -4.0])
        out = np.concatenate([[math.cosh(5.0)], (math.sinh(5.0) / 5.0) * v])
        expected = out / math.sqrt(-geometry.minkowski(out, out))
        assert np.array_equal(h2.exp_from_base(v).payload, expected)


class TestPointHash:
    def test_equal_points_hash_equal(self, all_models, rng):
        for space in all_models.values():
            for _ in range(20):
                p = space.sample(rng)
                twin = space.point(p.payload)
                assert twin == p
                assert hash(twin) == hash(p)

    def test_signed_zero_and_canonical_forms_hash_equal(self, e2, tripod):
        assert hash(e2.point([0.0, -0.0])) == hash(e2.point([0.0, 0.0]))
        assert hash(tripod.edge_point(1, 0.0)) == hash(tripod.vertex_point("o"))

    def test_distinct_points_fill_a_set_quickly(self, all_models, rng):
        for space in all_models.values():
            points = [space.sample(rng) for _ in range(3000)]
            start = time.perf_counter()
            assert len(set(points)) == 3000
            assert time.perf_counter() - start < 0.5
