"""Weighted Frechet means and the strong-convexity variance bound."""

import math

import numpy as np
import pytest

from hadamard import (
    ConvergenceFailureError,
    ConvexCombination,
    DomainError,
    Euclidean,
    Identity,
    ScenarioError,
    WeightedPoints,
    distance,
    frechet_mean,
    frechet_objective,
    geodesic_point,
    inductive_mean_sweeps,
    parse_scenario,
    variance_defect,
)
from hadamard import geometry
from hadamard.errors import ConstructionError, SpaceMismatchError


def random_instance(space, rng, n):
    pts = [space.sample(rng) for _ in range(n)]
    raw = rng.uniform(0.1, 1.0, n)
    return WeightedPoints(pts, list(raw / raw.sum()))


class TestWeightedPoints:
    def test_weight_sum_checked(self, e2):
        pts = [e2.point([0, 0]), e2.point([1, 0])]
        with pytest.raises(ConstructionError):
            WeightedPoints(pts, [0.5, 0.4])

    def test_negative_weight_rejected(self, e2):
        pts = [e2.point([0, 0]), e2.point([1, 0])]
        with pytest.raises(ConstructionError):
            WeightedPoints(pts, [1.5, -0.5])

    def test_length_mismatch(self, e2):
        with pytest.raises(ConstructionError):
            WeightedPoints([e2.point([0, 0])], [0.5, 0.5])

    def test_mixed_spaces_rejected(self, e2, e3):
        with pytest.raises(SpaceMismatchError):
            WeightedPoints([e2.point([0, 0]), e3.point([0, 0, 0])], [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ConstructionError):
            WeightedPoints([], [])


class TestObjective:
    def test_single_point_at_itself(self, e2):
        p = e2.point([2, 2])
        assert frechet_objective(WeightedPoints([p], [1.0]), p) == 0.0

    def test_two_point_value(self, e2):
        wp = WeightedPoints([e2.point([0, 0]), e2.point([2, 0])], [0.5, 0.5])
        assert frechet_objective(wp, e2.point([1, 0])) == pytest.approx(1.0)

    def test_tripod_center(self, tripod):
        wp = WeightedPoints(
            [tripod.vertex_point(v) for v in "abc"], [1 / 3] * 3
        )
        assert frechet_objective(wp, tripod.vertex_point("o")) == pytest.approx(1.0)


class TestFrechetMean:
    def test_euclidean_closed_form(self, e2):
        wp = WeightedPoints([e2.point([0, 0]), e2.point([4, 0])], [0.25, 0.75])
        assert np.allclose(frechet_mean(wp).payload, [3, 0])

    def test_euclidean_matches_average_oracle(self, rng):
        from hadamard import Euclidean

        for _ in range(100):
            dim = int(rng.integers(1, 5))
            space = Euclidean(dim)
            wp = random_instance(space, rng, int(rng.integers(1, 7)))
            expected = np.average(
                [p.payload for p in wp.points], axis=0, weights=wp.weights
            )
            assert np.allclose(frechet_mean(wp).payload, expected, atol=1e-9)

    def test_two_points_is_geodesic_point(self, all_models, rng):
        for space in all_models.values():
            for _ in range(25):
                p, q = space.sample(rng), space.sample(rng)
                s = float(rng.uniform())
                mean = frechet_mean(WeightedPoints([p, q], [1 - s, s]))
                assert distance(mean, geodesic_point(p, q, s)) <= 1e-9

    def test_tripod_equal_thirds_hits_center(self, tripod):
        wp = WeightedPoints([tripod.vertex_point(v) for v in "abc"], [1 / 3] * 3)
        assert frechet_mean(wp) == tripod.vertex_point("o")

    def test_product_mean_splits(self, product, rng):
        wp = random_instance(product, rng, 4)
        mean = frechet_mean(wp)
        lefts = WeightedPoints([p.payload[0] for p in wp.points], wp.weights)
        rights = WeightedPoints([p.payload[1] for p in wp.points], wp.weights)
        assert mean.payload[0] == frechet_mean(lefts)
        assert mean.payload[1] == frechet_mean(rights)

    def test_hyperboloid_stationarity(self, h2, rng):
        """Independent first-order oracle: the tangent-space pull vanishes."""
        for _ in range(25):
            wp = random_instance(h2, rng, int(rng.integers(3, 6)))
            m = frechet_mean(wp).payload
            pull = np.zeros(3)
            for w, p in zip(wp.weights, wp.points):
                theta = distance(frechet_mean(wp), p)
                if theta < 1e-12:
                    continue
                pull += w * theta * (p.payload - math.cosh(theta) * m) / math.sinh(theta)
            assert np.linalg.norm(pull) <= 1e-8

    def test_hyperboloid_agrees_with_sweep_reference(self, h2, rng):
        for _ in range(5):
            wp = random_instance(h2, rng, 4)
            fast = frechet_mean(wp)
            slow = inductive_mean_sweeps(wp, sweeps=2000)
            assert distance(fast, slow) <= 5e-2
            assert frechet_objective(wp, fast) <= frechet_objective(wp, slow) + 1e-9

    def test_tree_mean_agrees_with_sweep_reference(self, caterpillar, rng):
        for _ in range(5):
            wp = random_instance(caterpillar, rng, 5)
            fast = frechet_mean(wp)
            slow = inductive_mean_sweeps(wp, sweeps=2000)
            assert frechet_objective(wp, fast) <= frechet_objective(wp, slow) + 1e-9

    def test_zero_weight_invariance(self, all_models, rng):
        for space in all_models.values():
            wp = random_instance(space, rng, 3)
            padded = WeightedPoints(
                list(wp.points) + [space.sample(rng)], list(wp.weights) + [0.0]
            )
            assert distance(frechet_mean(wp), frechet_mean(padded)) <= 1e-10

    def test_permutation_invariance(self, all_models, rng):
        for space in all_models.values():
            # the hyperbolic metric cannot resolve below ~2e-8 (arcosh
            # conditioning near 1), so reordering-induced rounding shows
            # up at that floor even when ambient payloads agree to 1e-12
            tol = 5e-8 if space.involves_hyperboloid else 1e-9
            wp = random_instance(space, rng, 4)
            perm = [2, 0, 3, 1]
            shuffled = WeightedPoints(
                [wp.points[i] for i in perm], [wp.weights[i] for i in perm]
            )
            assert distance(frechet_mean(wp), frechet_mean(shuffled)) <= tol

    def test_contraction_of_means(self, all_models, rng):
        """d(mean A, mean B) <= sum_i w_i d(A_i, B_i) on paired instances."""
        for space in all_models.values():
            for _ in range(25):
                n = int(rng.integers(2, 6))
                a = [space.sample(rng) for _ in range(n)]
                b = [space.sample(rng) for _ in range(n)]
                raw = rng.uniform(0.1, 1.0, n)
                w = list(raw / raw.sum())
                lhs = distance(
                    frechet_mean(WeightedPoints(a, w)),
                    frechet_mean(WeightedPoints(b, w)),
                )
                rhs = sum(wi * distance(ai, bi) for wi, ai, bi in zip(w, a, b))
                assert lhs <= rhs + 1e-8

    def test_sweep_limit_failure_carries_state(self, h2, rng, monkeypatch):
        # the cap is read where the hyperboloid solver runs
        monkeypatch.setattr(geometry, "_SWEEP_LIMIT", 1)
        wp = random_instance(h2, rng, 5)
        with pytest.raises(ConvergenceFailureError) as err:
            frechet_mean(wp, step_tol=1e-16)
        assert str(err.value) == "hyperboloid mean did not stabilize in 1 iterations"
        last = err.value.last_point
        assert last.space == h2
        assert err.value.objective == frechet_objective(wp, last)

    def test_block_cap_reports_the_first_unconverged_row(self, h2, rng, monkeypatch):
        monkeypatch.setattr(geometry, "_SWEEP_LIMIT", 1)
        # row 0 holds the apex three times and is fixed after one step
        apex = WeightedPoints([h2.base_point()] * 3, [0.25, 0.25, 0.5])
        rows = [apex, random_instance(h2, rng, 3), random_instance(h2, rng, 3)]
        blocks = [h2.stack([wp.points[j] for wp in rows]) for j in range(3)]
        weights = np.array([wp.weights for wp in rows])
        with pytest.raises(ConvergenceFailureError) as block_err:
            h2._block_mean(blocks, weights, 1e-16)
        with pytest.raises(ConvergenceFailureError) as err:
            h2._mean([h2._loop_payload(p) for p in rows[1].points], rows[1].weights, 1e-16)
        assert str(block_err.value) == str(err.value)
        last = block_err.value.last_point
        assert last == err.value.last_point
        assert block_err.value.objective == frechet_objective(rows[1], last)
        assert block_err.value.objective == err.value.objective


class TestVarianceDefect:
    def test_challenger_at_mean(self, e2):
        wp = WeightedPoints([e2.point([0, 0]), e2.point([2, 0])], [0.5, 0.5])
        m = frechet_mean(wp)
        assert variance_defect(wp, m, m) == 0.0

    def test_euclidean_exact_identity(self, e2):
        wp = WeightedPoints([e2.point([0, 0]), e2.point([2, 0])], [0.5, 0.5])
        assert variance_defect(wp, e2.point([1, 0]), e2.point([0, 0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_tripod_hand_value(self, tripod):
        wp = WeightedPoints([tripod.vertex_point(v) for v in "abc"], [1 / 3] * 3)
        val = variance_defect(wp, tripod.vertex_point("o"), tripod.vertex_point("a"))
        assert val == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_objective_sums_left_to_right(self):
        """F is summed in order on every Python; ``sum`` compensates floats from 3.12 on."""
        e1 = Euclidean(1)
        wp = WeightedPoints([e1.point([2.0 ** 27]), e1.point([2.0]), e1.point([-2.0])],
                            [0.5, 0.25, 0.25])
        x_star, y = e1.point([1.0]), e1.point([0.0])

        def objective(x):
            total = 0.0
            for w, p in zip(wp.weights, wp.points):
                total = total + w * distance(x, p) ** 2
            return total

        # at y the terms are 2^53, 1 and 1, and in order each 1 rounds away
        assert objective(y) == 2.0 ** 53 != math.fsum([2.0 ** 53, 1.0, 1.0])
        assert variance_defect(wp, x_star, y) == objective(y) - objective(x_star) - 1.0

    def test_random_challengers(self, all_models, rng):
        for space in all_models.values():
            tol = 1e-6 if space.involves_hyperboloid else 1e-8
            wp = random_instance(space, rng, 4)
            m = frechet_mean(wp)
            for _ in range(1000):
                y = space.sample(rng)
                assert variance_defect(wp, m, y) >= -tol


class TestInductiveSweeps:
    def test_euclidean_coarse_convergence(self, e2, rng):
        wp = random_instance(e2, rng, 3)
        ref = inductive_mean_sweeps(wp, sweeps=2000)
        exact = frechet_mean(wp)
        assert distance(ref, exact) <= 5e-2

    def test_returns_once_settled_or_after_the_last_sweep(self, e2):
        wp = WeightedPoints([e2.point([0, 0]), e2.point([3, 0]), e2.point([0, 3])],
                            [0.2, 0.3, 0.5])
        # no step meets a zero tolerance, so the sweeps run out; any step
        # meets a loose one, so the first sweep settles
        ran_out = inductive_mean_sweeps(wp, sweeps=1, step_tol=0.0)
        assert inductive_mean_sweeps(wp, sweeps=50, step_tol=10.0) == ran_out
        start = wp.points[2]
        assert frechet_objective(wp, ran_out) < frechet_objective(wp, start)
        assert distance(ran_out, frechet_mean(wp)) < distance(start, frechet_mean(wp))

    def test_single_point_short_circuit(self, e2):
        p = e2.point([1, 1])
        assert inductive_mean_sweeps(WeightedPoints([p], [1.0])) is p

    def test_config_validation(self, e2, rng):
        wp = random_instance(e2, rng, 3)
        with pytest.raises(ConstructionError):
            inductive_mean_sweeps(wp, sweeps=0)
        for bad in (-1e-12, math.nan, math.inf):
            with pytest.raises(DomainError, match="step_tol"):
                inductive_mean_sweeps(wp, step_tol=bad)
            with pytest.raises(DomainError, match="step_tol"):
                frechet_mean(wp, step_tol=bad)

    def test_zero_step_tol_is_legal(self, e2, rng):
        wp = random_instance(e2, rng, 3)
        assert frechet_mean(wp, step_tol=0.0) == frechet_mean(wp)


class TestConvexWeights:
    @pytest.mark.parametrize("weights", [[0.7, 0.7], [-0.5, 1.5], [math.nan, 1.0],
                                         [1.0, math.nan], [math.inf, -math.inf]])
    def test_one_message_for_points_operators_and_scenarios(self, e2, weights):
        with pytest.raises(ConstructionError) as points_err:
            WeightedPoints([e2.point([0, 0]), e2.point([1, 0])], weights)
        with pytest.raises(ConstructionError) as combo_err:
            ConvexCombination(weights, [Identity(), Identity()])
        doc = ("[space]\nkind = euclidean\ndim = 2\n\n[run]\nalgorithm = barycenter\n"
               "point = 0,0\npoint = 1,0\n"
               f"weights = {weights[0]},{weights[1]}\noutput = mean.csv\n")
        with pytest.raises(ScenarioError) as scenario_err:
            parse_scenario(doc)
        message = str(points_err.value)
        assert message.startswith("weights must")
        assert str(combo_err.value) == message
        assert str(scenario_err.value) == f"line 9, key 'weights': {message}"
