"""Iteration drivers, Fejer monotonicity, and shadows."""

import io
import math

import numpy as np
import pytest

from hadamard import (
    Composition,
    Constant,
    DomainError,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    Identity,
    IterationTrace,
    NotAFixedPointError,
    Projection,
    SpaceMismatchError,
    StopRule,
    Subtree,
    approximate_shadows,
    averaged_projections,
    cyclic_projections,
    distance,
    fixed_point_iterate,
    project_to_segment,
    shadow_cauchy_worst_defect,
    technical_condition_gaps,
)
from hadamard.errors import ConstructionError
from hadamard.geometry import EQ_TOL


@pytest.fixture
def quadrant_sets(e2):
    return [
        EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0"),
        EuclideanHalfspace(e2, [1, 0], 0.0, name="u<=0"),
    ]


class TestStopRule:
    def test_validation(self):
        with pytest.raises(ConstructionError):
            StopRule(max_iter=0)
        rule = StopRule(max_iter=10)
        assert rule.residual_tol == 1e-8
        assert rule.stall_tol == 1e-12

    @pytest.mark.parametrize("field", ["residual_tol", "stall_tol"])
    @pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
    def test_tolerances_finite_and_nonnegative(self, field, value):
        with pytest.raises(ConstructionError, match=field):
            StopRule(max_iter=10, **{field: value})

    @pytest.mark.parametrize("value", [2.5, 10.0, math.nan, math.inf, True],
                             ids=["fraction", "integral-float", "nan", "inf", "bool"])
    def test_max_iter_must_be_an_integer(self, value):
        with pytest.raises(ConstructionError, match="max_iter must be an integer"):
            StopRule(max_iter=value)

    def test_numpy_integer_max_iter(self, e2, quadrant_sets):
        trace = cyclic_projections(quadrant_sets, e2.point([1, 1]),
                                   StopRule(max_iter=np.int64(1), residual_tol=0.0))
        assert trace.iterations == 1

    def test_zero_tolerances_are_legal(self):
        rule = StopRule(max_iter=10, residual_tol=0.0, stall_tol=0.0)
        assert rule.residual_tol == rule.stall_tol == 0.0


class TestFixedPointIterate:
    def test_identity_converges_immediately(self, e2):
        trace = fixed_point_iterate(Identity(), e2.point([1, 2]), StopRule(max_iter=10))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 1
        assert all(p == trace.points[0] for p in trace.points)

    def test_constant_map(self, e2):
        c = e2.point([5, 5])
        trace = fixed_point_iterate(Constant(c), e2.point([0, 0]), StopRule(max_iter=10))
        assert trace.stop_reason == "converged"
        assert trace.points[1] is c
        assert trace.final_point is c

    def test_composed_projections_reach_intersection(self, e2, quadrant_sets):
        op = Composition([Projection(quadrant_sets[1]), Projection(quadrant_sets[0])])
        trace = fixed_point_iterate(op, e2.point([1, 1]), StopRule(max_iter=10))
        assert trace.stop_reason == "converged"
        assert np.allclose(trace.points[1].payload, [0, 0])
        assert trace.residuals[-1] == 0.0

    def test_max_iter(self, e2):
        shift = Constant(e2.point([1, 0]))
        # a genuinely moving map: rotate around the origin
        import numpy as np

        def rot(p):
            c, s = math.cos(0.5), math.sin(0.5)
            x, y = p.payload
            return e2.point([c * x - s * y, s * x + c * y])

        from hadamard import Pointwise

        trace = fixed_point_iterate(Pointwise("rot", rot), e2.point([1, 0]),
                                    StopRule(max_iter=7))
        assert trace.stop_reason == "maxiter"
        assert trace.iterations == 7

    def test_witness_must_be_fixed(self, e2, quadrant_sets):
        op = Projection(quadrant_sets[0])
        with pytest.raises(NotAFixedPointError):
            fixed_point_iterate(op, e2.point([1, 1]), StopRule(max_iter=5),
                                witness=e2.point([0, 1]))


class TestCyclicProjections:
    def test_start_inside_intersection(self, e2, quadrant_sets):
        trace = cyclic_projections(quadrant_sets, e2.point([-1, -1]), StopRule(max_iter=10))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 0

    def test_quadrant_two_steps(self, e2, quadrant_sets):
        trace = cyclic_projections(quadrant_sets, e2.point([1, 1]), StopRule(max_iter=10))
        assert [tuple(p.payload) for p in trace.points] == [(1, 1), (1, 0), (0, 0)]
        assert trace.stop_reason == "converged"

    def test_two_lines_match_rotation_recursion(self, e2):
        """Classical two-line alternating projections at angle pi/4.

        Landing on line 1 at distance r from the origin, the next landing
        on line 2 is at r cos(theta), and per full cycle r contracts by
        cos^2(theta); iterates stay expressible in closed form.
        """
        theta = math.pi / 4
        l1 = EuclideanHyperplane(e2, [0, 1], 0.0, name="L1")
        l2 = EuclideanHyperplane(e2, [-math.sin(theta), math.cos(theta)], 0.0, name="L2")
        trace = cyclic_projections([l1, l2], e2.point([1, 0]),
                                   StopRule(max_iter=80, residual_tol=1e-12),
                                   witness=e2.point([0, 0]))
        # oracle: x0 already sits on L1, so landing n >= 2 has radius
        # cos(theta)^(n-1), on L2 for even n and back on L1 for odd n
        for n, p in enumerate(trace.points[1:], start=1):
            if n == 1:
                expected = np.array([1.0, 0.0])
            else:
                r = math.cos(theta) ** (n - 1)
                if n % 2 == 0:
                    expected = r * np.array([math.cos(theta), math.sin(theta)])
                else:
                    expected = np.array([r, 0.0])
            assert np.allclose(p.payload, expected, atol=1e-12)
        assert trace.stop_reason == "converged"
        assert distance(trace.final_point, e2.point([0, 0])) <= 1e-6

    def test_subsampled_iterates_match_composed_operator(self, e2, rng):
        """Every N-th cyclic iterate equals one application of P_N...P_1."""
        sets = [
            EuclideanHalfspace(e2, [0, 1], 0.25, name="A"),
            GeodesicBall(e2.point([0.0, -1.0]), 2.0, name="B"),
            EuclideanHalfspace(e2, [1, 1], 0.5, name="C"),
        ]
        composed = Composition([Projection(c) for c in reversed(sets)])
        for _ in range(10):
            x0 = e2.sample(rng)
            trace = cyclic_projections(sets, x0, StopRule(max_iter=12, residual_tol=0.0))
            z = x0
            for k in range(1, len(trace.points) // len(sets) + 1):
                z = composed.apply(z)
                assert distance(trace.points[k * len(sets)], z) <= 1e-12

    def test_subsampled_residuals_nonincreasing(self, e2, quadrant_sets, rng):
        x0 = e2.point([2.0, 3.0])
        trace = cyclic_projections(quadrant_sets, x0, StopRule(max_iter=50))
        per_cycle = trace.residuals[:: len(quadrant_sets)]
        for a, b in zip(per_cycle, per_cycle[1:]):
            assert b <= a + 1e-9

    def test_disjoint_sets_stall(self, e2):
        balls = [
            GeodesicBall(e2.point([-2, 0]), 0.5, name="left"),
            GeodesicBall(e2.point([2, 0]), 0.5, name="right"),
        ]
        trace = cyclic_projections(balls, e2.point([0, 3]), StopRule(max_iter=500))
        assert trace.stop_reason == "stalled"
        assert trace.final_residual > 1.0

    def test_empty_set_list(self, e2):
        with pytest.raises(DomainError):
            cyclic_projections([], e2.point([0, 0]), StopRule(max_iter=5))

    def test_set_from_another_space_rejected(self, e2, e3):
        ball = GeodesicBall(e3.point([0, 0, 0]), 1.0, name="ball-e3")
        with pytest.raises(SpaceMismatchError, match="ball-e3"):
            cyclic_projections([ball], e2.point([0, 0]), StopRule(max_iter=5))

    def test_witness_outside_sets_rejected(self, e2, quadrant_sets):
        with pytest.raises(NotAFixedPointError):
            cyclic_projections(quadrant_sets, e2.point([1, 1]), StopRule(max_iter=5),
                               witness=e2.point([1, 1]))


class TestAveragedProjections:
    def test_quadrant_halving(self, e2, quadrant_sets):
        trace = averaged_projections(quadrant_sets, e2.point([1, 1]),
                                     StopRule(max_iter=30, residual_tol=1e-13),
                                     witness=e2.point([0, 0]))
        for n, p in enumerate(trace.points):
            assert np.allclose(p.payload, [2.0**-n, 2.0**-n], atol=1e-12)

    def test_tripod_one_step(self, tripod):
        legs = [Subtree(tripod, ["o", "a"], name="leg-a"),
                Subtree(tripod, ["o", "b"], name="leg-b")]
        trace = averaged_projections(legs, tripod.vertex_point("c"), StopRule(max_iter=10))
        assert trace.stop_reason == "converged"
        assert trace.iterations == 1
        assert trace.final_point == tripod.vertex_point("o")

    def test_weight_length_mismatch(self, e2, quadrant_sets):
        with pytest.raises(DomainError):
            averaged_projections(quadrant_sets, e2.point([1, 1]),
                                 StopRule(max_iter=5), weights=[1.0])

    def test_start_inside(self, e2, quadrant_sets):
        trace = averaged_projections(quadrant_sets, e2.point([-1, -2]),
                                     StopRule(max_iter=5))
        assert trace.iterations == 0
        assert trace.stop_reason == "converged"

    def test_weights_checked_even_from_inside(self, e2, quadrant_sets):
        with pytest.raises(ConstructionError):
            averaged_projections(quadrant_sets, e2.point([-1, -1]),
                                 StopRule(max_iter=5), weights=[0.7, 0.7])

    def test_set_from_another_space_rejected(self, e2, e3):
        ball = GeodesicBall(e3.point([0, 0, 0]), 1.0, name="ball-e3")
        with pytest.raises(SpaceMismatchError, match="ball-e3"):
            averaged_projections([ball], e2.point([0, 0]), StopRule(max_iter=5))

    def test_disjoint_lines_stall(self, e2):
        lines = [EuclideanHyperplane(e2, [0, 1], 0.0, name="y=0"),
                 EuclideanHyperplane(e2, [0, 1], 1.0, name="y=1")]
        trace = averaged_projections(lines, e2.point([0.3, 0.4]), StopRule(max_iter=200))
        assert trace.stop_reason == "stalled"
        assert trace.final_residual == pytest.approx(0.5)


class TestProjectionCount:
    """No projection is computed twice at one iterate.

    A flat family's residual needs no projection, so a flat cyclic
    iterate costs one; any other family projects each new iterate onto
    all K sets once, and the next step reuses those images.  An iterate
    that a projection returned unchanged keeps its images.
    """

    @pytest.fixture
    def count(self, monkeypatch):
        calls = []
        for cls in (EuclideanHalfspace, GeodesicBall, Subtree):
            original = cls.project

            def counted(self, x, original=original):
                calls.append(self.name)
                return original(self, x)
            monkeypatch.setattr(cls, "project", counted)
        return calls

    @pytest.fixture
    def lines(self, e2):
        return [EuclideanHyperplane(e2, [0, 1], 0.0, name="L1"),
                EuclideanHyperplane(e2, [-math.sin(0.5), math.cos(0.5)], 0.0, name="L2")]

    def test_flat_cyclic_one_per_iterate(self, e2, lines, count):
        trace = cyclic_projections(lines, e2.point([1, 2]), StopRule(max_iter=200))
        assert trace.stop_reason == "converged" and trace.iterations > 10
        assert len(count) == trace.iterations

    def test_subtree_cyclic_k_per_iterate(self, caterpillar, count):
        leaves = [Subtree(caterpillar, ["v3"], name="v3"),
                  Subtree(caterpillar, ["v4"], name="v4")]
        trace = cyclic_projections(leaves, caterpillar.vertex_point("v0"),
                                   StopRule(max_iter=50))
        assert trace.stop_reason == "stalled" and trace.iterations == 4
        assert len(count) == 2 * len(trace.points)

    def test_unchanged_iterate_keeps_its_images(self, tripod, count):
        legs = [Subtree(tripod, ["o", "a"], name="leg-a"),
                Subtree(tripod, ["o", "b"], name="leg-b")]
        trace = cyclic_projections(legs, tripod.point((0, 0.75)), StopRule(max_iter=50))
        # x0 lies on leg a, so the first step returns it; the second reaches o
        assert trace.points[1] is trace.points[0] and trace.steps == [0.0, 0.75]
        assert trace.stop_reason == "converged"
        assert count == ["leg-a", "leg-b", "leg-a", "leg-b"]

    def test_one_ball_takes_the_projection_path(self, e2, count):
        sets = [EuclideanHalfspace(e2, [1, 0], 0.0, name="u<=0"),
                GeodesicBall(e2.point([0, -1]), 2.0, name="ball")]
        trace = cyclic_projections(sets, e2.point([3, 3]), StopRule(max_iter=200))
        assert trace.iterations >= 2
        assert len(count) == 2 * len(trace.points)

    def test_averaged_k_per_iterate(self, e2, lines, tripod, count):
        trace = averaged_projections(lines, e2.point([1, 2]), StopRule(max_iter=200))
        assert trace.iterations > 10
        assert len(count) == 2 * trace.iterations
        count.clear()
        legs = [Subtree(tripod, ["o", "a"], name="leg-a"),
                Subtree(tripod, ["o", "b"], name="leg-b")]
        trace = averaged_projections(legs, tripod.vertex_point("c"), StopRule(max_iter=10))
        assert trace.iterations == 1
        assert len(count) == 2 * len(trace.points)


class TestFejerDiagnostics:
    def test_gaps_nonnegative_with_witness(self, e2, quadrant_sets, rng):
        w = e2.point([0, 0])
        for _ in range(20):
            x0 = e2.sample(rng)
            trace = cyclic_projections(quadrant_sets, x0, StopRule(max_iter=100), witness=w)
            assert all(g >= -1e-10 for g in trace.fejer_gaps)
            assert trace.fejer_violations() == 0
            assert not trace.witness_is_proxy

    def test_proxy_witness_labeled(self, e2, quadrant_sets):
        trace = cyclic_projections(quadrant_sets, e2.point([1, 1]), StopRule(max_iter=100))
        assert trace.witness_is_proxy
        assert trace.witness is trace.final_point

    def test_gaps_computed_on_first_read(self, e2, quadrant_sets):
        trace = averaged_projections(quadrant_sets, e2.point([1, 1]), StopRule(max_iter=30),
                                     witness=e2.point([0, 0]))
        assert "fejer_gaps" not in vars(trace)
        gaps = trace.fejer_gaps
        assert vars(trace)["fejer_gaps"] is gaps
        assert trace.fejer_gaps is gaps

    def test_gaps_are_distance_differences(self, e2):
        points = [e2.point([3.0 - n, 0.5 * n]) for n in range(6)]
        w = e2.point([-1.0, 2.0])
        trace = IterationTrace(points, [1.0] * 6, [1.0] * 5, "maxiter", w)
        expected = [distance(a, w) - distance(b, w) for a, b in zip(points, points[1:])]
        assert trace.fejer_gaps == expected
        assert not trace.witness_is_proxy

    def test_hand_built_trace_gets_proxy_witness(self, e2):
        points = [e2.point([2.0, 0.0]), e2.point([1.0, 0.0]), e2.point([1.0, 1.0])]
        trace = IterationTrace(points, [1.0, 1.0, 0.0], [1.0, 1.0], "converged")
        assert trace.witness_is_proxy
        assert trace.witness is points[-1]
        assert trace.fejer_gaps == [distance(points[0], points[2]) - distance(points[1], points[2]),
                                    distance(points[1], points[2])]


class TestShadows:
    def test_constant_trace_shadows(self, e2, quadrant_sets):
        c = GeodesicBall(e2.point([-1, -1]), 1.0)
        trace = cyclic_projections(quadrant_sets, e2.point([-1, -1]), StopRule(max_iter=5))
        assert all(s == trace.points[0] for s in approximate_shadows(trace, [c]).shadows)

    def test_quadrant_shadows_match_hand_values(self, e2, quadrant_sets):
        trace = averaged_projections(quadrant_sets, e2.point([1, 1]),
                                     StopRule(max_iter=20, residual_tol=1e-11))
        assert approximate_shadows(trace, quadrant_sets) is trace
        assert len(trace.shadows) == len(trace.points)
        for p, s in zip(trace.points, trace.shadows):
            expected = np.minimum(p.payload, 0.0)  # componentwise clamp
            assert np.allclose(s.payload, expected, atol=1e-10)

    def test_shadow_cauchy_inequality(self, e2, quadrant_sets, rng):
        for _ in range(10):
            trace = cyclic_projections(quadrant_sets, e2.sample(rng), StopRule(max_iter=60))
            assert shadow_cauchy_worst_defect(approximate_shadows(trace, quadrant_sets)) >= -1e-9

    def test_shadows_required_for_diagnostics(self, e2, quadrant_sets):
        trace = cyclic_projections(quadrant_sets, e2.point([1, 1]), StopRule(max_iter=5))
        with pytest.raises(DomainError):
            shadow_cauchy_worst_defect(trace)


class TestSegmentProjection:
    def test_euclidean_oracle(self, e3, rng):
        """Clamped inner-product projection is the flat-space answer."""
        for _ in range(50):
            p, q, z = (e3.sample(rng) for _ in range(3))
            seg = q.payload - p.payload
            t = float((z.payload - p.payload) @ seg / (seg @ seg))
            t = min(max(t, 0.0), 1.0)
            expected = p.payload + t * seg
            got = project_to_segment(p, q, z)
            assert np.allclose(got.payload, expected, atol=1e-8)

    def test_degenerate_segment(self, e2):
        p = e2.point([1, 1])
        assert project_to_segment(p, p, e2.point([5, 5])) is p


class TestTechnicalGaps:
    def test_quadrant_run_gap_vanishes_at_termination(self, e2, quadrant_sets):
        trace = averaged_projections(quadrant_sets, e2.point([1, 1]),
                                     StopRule(max_iter=40, residual_tol=1e-11),
                                     witness=e2.point([0, 0]))
        gaps = technical_condition_gaps(approximate_shadows(trace, quadrant_sets))
        assert all(g >= -1e-12 for g in gaps)
        assert max(gaps) <= 1e-6

    def test_spread_shadows_keep_every_probe(self, e2):
        # Shadows pairwise more than EQ_TOL apart: dropping probes of
        # length <= EQ_TOL drops none, so the gaps equal those of the rule
        # that kept every probe of positive length.
        points = [e2.point([0.1 * n, 1.0 + 0.5 * n]) for n in range(12)]
        trace = IterationTrace(points=points, residuals=[1.0] * 12, steps=[0.5] * 11,
                               stop_reason="maxiter", witness=e2.point([-1.0, 0.0]))
        below = EuclideanHalfspace(e2, [0.3, 1.0], 0.0)
        sh = approximate_shadows(trace, [below]).shadows
        assert min(distance(a, b) for i, a in enumerate(sh) for b in sh[i + 1:]) > EQ_TOL
        anchor = sh[-1]
        targets = list(sh[::max(1, len(sh) // 8)]) + [trace.witness]
        probes = [t for t in targets if distance(anchor, t) > 0.0]
        expected = []
        for x, s in zip(points, sh):
            worst = 0.0
            for t in probes:
                worst = max(worst, distance(x, project_to_segment(anchor, t, s)) - distance(x, s))
            expected.append(worst)
        assert technical_condition_gaps(trace) == expected


class TestTraceCsv:
    def test_header_and_blank_cells(self, e2, quadrant_sets):
        trace = cyclic_projections(quadrant_sets, e2.point([1, 1]),
                                   StopRule(max_iter=10), witness=e2.point([0, 0]))
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,residual,fejer_gap,step,shadow_dist"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[2] == "" and first[3] == "" and first[4] == ""

    def test_floats_survive_round_trip(self, e2, quadrant_sets, rng):
        """17 significant digits reproduce the doubles exactly."""
        trace = cyclic_projections(quadrant_sets, e2.sample(rng),
                                   StopRule(max_iter=10), witness=e2.point([0, 0]))
        buf = io.StringIO()
        trace.to_csv(buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        for n, row in enumerate(rows):
            assert float(row[1]) == trace.residuals[n]
            if n >= 1:
                assert float(row[3]) == trace.steps[n - 1]
