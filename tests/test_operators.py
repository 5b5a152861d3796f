"""Operator descriptors, the discrepancy, and the alpha-firm calculus."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard import (
    CheckSpec,
    Composition,
    Constant,
    ConvexCombination,
    DomainError,
    Euclidean,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    HadamardError,
    Identity,
    NotAFixedPointError,
    Point,
    Pointwise,
    Projection,
    SpaceMismatchError,
    Subtree,
    alpha_firm_defect,
    combination_alpha,
    composition_alpha,
    discrepancy,
    distance,
    fixed_point_iterate,
    fold_composition_alpha,
    geodesic_point,
    quasi_firm_defect,
    quasilinearization,
    reevaluate_witness,
    run_check,
)
from hadamard.certifier import (
    COMPOSITION_CONDITION,
    COMPOSITION_THEOREM,
    PROJECTION_FIRM,
    QUASI_FIRM,
)
from hadamard.errors import ConstructionError
from hadamard.iterations import StopRule


@pytest.fixture
def half_v(e2):
    return EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0")


@pytest.fixture
def half_u(e2):
    return EuclideanHalfspace(e2, [1, 0], 0.0, name="u<=0")


def condition_spec(space, s, t, alpha_s=0.5, alpha_t=0.5, samples=1, seed=0):
    """A composition_condition check of S, then T."""
    return CheckSpec(kind=COMPOSITION_CONDITION, space=space, samples=samples, seed=seed,
                     payload={"factors": [(s, alpha_s), (t, alpha_t)]})


def condition(s, t, x, y, alpha_s=0.5, alpha_t=0.5):
    """The composition condition of S, then T, at the pair (x, y)."""
    return reevaluate_witness(condition_spec(x.space, s, t, alpha_s, alpha_t), (x, y))


class TestApply:
    def test_identity_returns_argument(self, e2):
        x = e2.point([2, 3])
        assert Identity().apply(x) is x

    def test_constant(self, e2):
        c = e2.point([5, 5])
        assert Constant(c).apply(e2.point([0, 0])) is c

    def test_projection_drops_coordinate(self, e2, half_v):
        y = Projection(half_v).apply(e2.point([1, 1]))
        assert np.allclose(y.payload, [1, 0])

    def test_composition_applies_right_to_left(self, e2, half_v):
        c = e2.point([2, 3])
        # constant last: the projection never runs
        op1 = Composition([Constant(c), Projection(half_v)])
        assert op1.apply(e2.point([9, 9])) is c
        # constant first: its output gets projected
        op2 = Composition([Projection(half_v), Constant(c)])
        assert np.allclose(op2.apply(e2.point([9, 9])).payload, [2, 0])

    def test_convex_combination_of_projections(self, e2, half_v, half_u):
        op = ConvexCombination([0.5, 0.5], [Projection(half_v), Projection(half_u)])
        out = op.apply(e2.point([1, 1]))
        assert np.allclose(out.payload, [0.5, 0.5])

    def test_combination_weight_validation(self, half_v, half_u):
        with pytest.raises(ConstructionError):
            ConvexCombination([0.5, 0.4], [Projection(half_v), Projection(half_u)])
        with pytest.raises(ConstructionError):
            ConvexCombination([1.5, -0.5], [Projection(half_v), Projection(half_u)])

    def test_empty_composition_rejected(self):
        with pytest.raises(ConstructionError):
            Composition([])

    def test_pointwise_map(self, e2):
        halver = Pointwise("halver", lambda p: e2.point(0.5 * p.payload))
        assert np.allclose(halver.apply(e2.point([2, 4])).payload, [1, 2])

    @pytest.mark.parametrize("build, name", [
        (lambda e2, half: Identity(), "identity"),
        (lambda e2, half: Constant(e2.point([5, 5])), "const((5, 5))"),
        (lambda e2, half: Projection(half), "P[v<=0]"),
        (lambda e2, half: Composition([Projection(half), Identity()]), "(P[v<=0] o identity)"),
        (lambda e2, half: ConvexCombination([0.25, 0.75], [Identity(), Projection(half)]),
         "avg(0.25*identity, 0.75*P[v<=0])"),
        (lambda e2, half: Pointwise("halver", lambda p: p), "halver"),
    ], ids=["identity", "constant", "projection", "composition", "combination", "pointwise"])
    def test_names(self, e2, half_v, build, name):
        op = build(e2, half_v)
        assert op.name == name
        assert repr(op) == name

    @pytest.mark.parametrize("ops, x, match", [
        (lambda e2, h2: [Identity(), Identity()], "x", "is not a point"),
        (lambda e2, h2: [Projection(EuclideanHalfspace(e2, [0, 1], 0.0)), Identity()], None,
         "is not a point"),
        (lambda e2, h2: [Identity(), Constant(h2.base_point())], [1, 1], "different spaces"),
        (lambda e2, h2: [Identity(), Pointwise("away", lambda p: h2.base_point())], [1, 1],
         "different spaces"),
        (lambda e2, h2: [Identity(), Projection(EuclideanHalfspace(Euclidean(3), [0, 1, 0], 0.0))],
         [1, 1], "Euclidean.* vs set"),
    ], ids=["non-point", "non-point-projected", "constant-elsewhere", "map-elsewhere",
            "set-elsewhere"])
    def test_combination_rejects_points_of_other_spaces(self, e2, h2, ops, x, match):
        """A non-point, or an image in another space, raises ``SpaceMismatchError``."""
        combo = ConvexCombination([0.5, 0.5], ops(e2, h2))
        x = e2.point(x) if isinstance(x, list) else x
        with pytest.raises(SpaceMismatchError, match=match):
            combo.apply(x)


class TestDiscrepancy:
    def test_identity_gives_squared_distance(self, all_models, rng):
        for space in all_models.values():
            x, y = space.sample(rng), space.sample(rng)
            assert discrepancy(Identity(), x, y) == pytest.approx(
                distance(x, y) ** 2, abs=max(space.defect_tolerance, 1e-9)
            )

    def test_constant_vanishes(self, all_models, rng):
        for space in all_models.values():
            c = space.sample(rng)
            x, y = space.sample(rng), space.sample(rng)
            assert discrepancy(Constant(c), x, y) == pytest.approx(
                0.0, abs=max(space.defect_tolerance, 1e-9)
            )

    def test_halfplane_hand_value(self, e2, half_v):
        # images (1,0) and (-1,0): <(-2,1),(-2,0)> = 4
        x, y = e2.point([1, 1]), e2.point([-1, 2])
        assert discrepancy(Projection(half_v), x, y) == pytest.approx(4.0, abs=1e-12)

    def test_symmetry(self, e2, half_v, rng):
        op = Projection(half_v)
        for _ in range(100):
            x, y = e2.sample(rng), e2.sample(rng)
            assert discrepancy(op, x, y) == pytest.approx(discrepancy(op, y, x), abs=1e-12)


class TestAlphaFirmDefect:
    def test_identity_always_zero(self, e2, rng):
        for alpha in (0.1, 0.5, 0.9):
            x, y = e2.sample(rng), e2.sample(rng)
            assert alpha_firm_defect(Identity(), alpha, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_constant_at_half(self, e2, rng):
        c = e2.point([1, 1])
        x, y = e2.sample(rng), e2.sample(rng)
        assert alpha_firm_defect(Constant(c), 0.5, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_halfplane_hand_value(self, e2, half_v):
        x, y = e2.point([1, 1]), e2.point([-1, 2])
        assert alpha_firm_defect(Projection(half_v), 0.5, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_alpha_domain(self, e2, rng):
        x, y = e2.sample(rng), e2.sample(rng)
        for bad in (0.0, 1.0, -0.2, 1.7, "x", None, [0.5]):
            with pytest.raises(DomainError):
                alpha_firm_defect(Identity(), bad, x, y)
        # the same constant as a check payload
        for bad in ("half", None, [0.5]):
            spec = CheckSpec(PROJECTION_FIRM, e2, 2, 0, {"op": Identity(), "alpha": bad})
            with pytest.raises(DomainError):
                run_check(spec)

    def test_rearranged_form_equivalence(self, all_models, rng):
        """Defect equals alpha times the Cauchy-Schwarz-residual form."""
        for space in all_models.values():
            ball = GeodesicBall(space.sample(rng), 1.0)
            op = Projection(ball)
            for _ in range(50):
                alpha = float(rng.uniform(0.05, 0.95))
                x, y = space.sample(rng), space.sample(rng)
                tx, ty = op.apply(x), op.apply(y)
                delta = quasilinearization(x, y, tx, ty)
                residual_form = (
                    distance(x, y) ** 2
                    - ((1 - alpha) / alpha)
                    * (distance(x, y) ** 2 - 2 * delta + distance(tx, ty) ** 2)
                    - distance(tx, ty) ** 2
                )
                assert alpha_firm_defect(op, alpha, x, y) == pytest.approx(
                    alpha * residual_form, abs=1e-12
                )

    def test_scaled_contraction_oracle(self, e2, rng):
        # x -> x/2 has discrepancy d^2/2, so the defect is d^2 (alpha - 1/4)
        halver = Pointwise("halver", lambda p: e2.point(0.5 * p.payload))
        x, y = e2.sample(rng), e2.sample(rng)
        d_sq = distance(x, y) ** 2
        assert alpha_firm_defect(halver, 0.3, x, y) == pytest.approx(
            d_sq * (0.3 - 0.25), abs=1e-12
        )
        assert alpha_firm_defect(halver, 0.2, x, y) == pytest.approx(
            d_sq * (0.2 - 0.25), abs=1e-12
        )

    def test_nonexpansive_consequence(self, all_models, rng):
        """Firmly nonexpansive projections never expand sampled pairs."""
        for space in all_models.values():
            tol = space.defect_tolerance
            op = Projection(GeodesicBall(space.sample(rng), 0.8))
            for _ in range(200):
                x, y = space.sample(rng), space.sample(rng)
                assert alpha_firm_defect(op, 0.5, x, y) >= -tol
                assert distance(op.apply(x), op.apply(y)) <= distance(x, y) + tol


class TestQuasiFirmDefect:
    def test_fixed_challenger_is_zero(self, e2, half_v):
        y = e2.point([0, 0])
        assert quasi_firm_defect(Projection(half_v), 0.5, y, y) == 0.0

    def test_halfplane_hand_values(self, e2, half_v):
        y = e2.point([0, 0])
        op = Projection(half_v)
        assert quasi_firm_defect(op, 0.5, e2.point([0, 2]), y) == pytest.approx(0.0, abs=1e-12)
        assert quasi_firm_defect(op, 0.5, e2.point([3, 1]), y) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_moving_point(self, e2, half_v):
        with pytest.raises(NotAFixedPointError):
            quasi_firm_defect(Projection(half_v), 0.5, e2.point([0, 0]), e2.point([1, 1]))


class TestConstantCalculus:
    def test_composition_alpha_values(self):
        assert composition_alpha(0.5, 0.5) == pytest.approx(2.0 / 3.0)
        assert composition_alpha(1.0 / 3.0, 0.5) == pytest.approx(3.0 / 5.0)

    def test_composition_alpha_symmetric_and_in_range(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0.01, 0.99, 2)
            v = composition_alpha(a, b)
            assert v == pytest.approx(composition_alpha(b, a), abs=1e-15)
            assert 0.0 < v < 1.0

    def test_fold(self):
        assert fold_composition_alpha([0.5, 0.5, 0.5]) == pytest.approx(0.75)

    def test_tau_values(self, e2, half_v):
        """tau enters the composition condition through c_S = (1-a_S)/(tau a_S)
        and c_T = (1-a_T)/(tau a_T).

        At x = (1,1), y = 0, P_v then the identity has L = 1 and M = U = 0,
        so the condition reads c_S^2; the identity then P_v has M = 1 and
        L = U = 0, so it reads c_T^2.
        """
        x, y = e2.point([1, 1]), e2.point([0, 0])
        p = Projection(half_v)
        # tau = 2, 3 and 2/9
        for a_s, a_t, c_s, c_t in [(0.5, 0.5, 0.5, 0.5), (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0 / 3.0),
                                   (0.9, 0.9, 0.5, 0.5)]:
            assert condition(p, Identity(), x, y, a_s, a_t) == pytest.approx(c_s**2, abs=1e-12)
            assert condition(Identity(), p, x, y, a_s, a_t) == pytest.approx(c_t**2, abs=1e-12)

    def test_combination_alpha(self):
        assert combination_alpha([0.5, 0.5, 0.5]) == 0.5
        assert combination_alpha([0.3, 0.7]) == 0.7
        assert combination_alpha([0.4]) == 0.4
        with pytest.raises(DomainError):
            combination_alpha([])
        with pytest.raises(DomainError):
            combination_alpha([0.5, 1.2])

    def test_domain_checks(self, e2):
        with pytest.raises(DomainError):
            composition_alpha(0.0, 0.5)
        with pytest.raises(DomainError):
            composition_alpha("x", 0.5)
        x, y = e2.point([1, 1]), e2.point([0, 0])
        for bad in (1.0, "a"):
            with pytest.raises(DomainError):
                condition(Identity(), Identity(), x, y, 0.5, bad)


class TestLMUV:
    """The L, M and U forms of the composition condition, read through the check kind.

    With the identity as T, M = U = 0 and the condition is c_S^2 L; with the
    identity as S, L = U = 0 and it is c_T^2 M.
    """

    def test_identity_factors_vanish(self, all_models):
        # L = M = U = 0 to the last bit: D_id(x, y) is d(x, y)^2 exactly
        for space in all_models.values():
            result = run_check(condition_spec(space, Identity(), Identity(), samples=200))
            assert result.worst_defect == 0.0

    def test_hand_values_projection_identity(self, e2, half_v):
        x, y = e2.point([1, 1]), e2.point([0, 0])
        assert condition(Projection(half_v), Identity(), x, y) == pytest.approx(0.25, abs=1e-12)

    def test_hand_values_projection_twice(self, e2, half_v):
        # P_v fixes its images, so M = U = 0; L = |(x - y) - (Px - Py)|^2 = 9
        x, y = e2.point([1, 3]), e2.point([0, 0])
        p = Projection(half_v)
        assert condition(p, p, x, y) == pytest.approx(9.0 / 4.0, abs=1e-12)

    def test_cauchy_schwarz_keeps_l_m_nonnegative(self, all_models, rng):
        for space in all_models.values():
            tol = space.defect_tolerance
            s = Projection(GeodesicBall(space.sample(rng), 1.0))
            t = Projection(GeodesicBall(space.sample(rng), 1.5))
            for _ in range(100):
                x, y = space.sample(rng), space.sample(rng)
                big_l = 4 * condition(s, Identity(), x, y)
                big_m = 4 * condition(Identity(), t, s.apply(x), s.apply(y))
                assert big_l >= -tol
                assert big_m >= -tol

    def test_common_fixed_point_reduction(self, e2, half_v, half_u, rng):
        """At a common fixed point y: L = d(x,Sx)^2, M = d(Sx,TSx)^2,
        2U = d(x,Sx)^2 + d(Sx,TSx)^2 - d(x,TSx)^2, so at a = 1/2 the
        condition is (L + M + 2U) / 4.  S and T both fix y, so M is T's
        residual at (Sx, y)."""
        s, t = Projection(half_v), Projection(half_u)
        y = e2.point([-1.0, -2.0])  # interior of both halfplanes
        for _ in range(100):
            x = e2.sample(rng)
            sx = s.apply(x)
            tsx = t.apply(sx)
            big_l = 4 * condition(s, Identity(), x, y)
            big_m = 4 * condition(Identity(), t, sx, y)
            big_u = (4 * condition(s, t, x, y) - big_l - big_m) / 2
            assert big_l == pytest.approx(distance(x, sx) ** 2, abs=1e-12)
            assert big_m == pytest.approx(distance(sx, tsx) ** 2, abs=1e-12)
            expected_2u = (
                distance(x, sx) ** 2 + distance(sx, tsx) ** 2 - distance(x, tsx) ** 2
            )
            assert 2 * big_u == pytest.approx(expected_2u, abs=1e-12)


class TestCompositionCondition:
    def test_identities_give_zero(self, e2, rng):
        x, y = e2.sample(rng), e2.sample(rng)
        assert condition(Identity(), Identity(), x, y) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_same_projection(self, e2, half_v):
        x, y = e2.point([1, 1]), e2.point([0, 0])
        p = Projection(half_v)
        assert condition(p, p, x, y) == pytest.approx(0.25, abs=1e-12)

    def test_hand_value_orthogonal_projections(self, e2, half_v, half_u):
        # L = 1, M = 1, U = 0 at x = (1,1), y = 0: (1/4) + (1/4) + 0
        x, y = e2.point([1, 1]), e2.point([0, 0])
        val = condition(Projection(half_v), Projection(half_u), x, y)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_hand_value_coupled_projections(self, e2, half_v):
        """A pair where U is not zero.

        S = P_v, T = the projection onto u + v <= 0, x = (2,1), y = 0:
        Sx = (2,0), TSx = (1,-1), Sy = TSy = 0.  The pairings are
        D_S = <(-2,-1), (-2,0)> = 4, D_T = <(-2,0), (-1,1)> = 2 and
        D_TS = <(-2,-1), (-1,1)> = 1, with d(x,y)^2 = 5, d(Sx,Sy)^2 = 4 and
        d(TSx,TSy)^2 = 2.  So L = 5 - 8 + 4 = 1, M = 4 - 4 + 2 = 2 and
        U = 1 + 4 - 4 - 2 = -1.
        """
        s = Projection(half_v)
        t = Projection(EuclideanHalfspace(e2, [1, 1], 0.0, name="u+v<=0"))
        x, y = e2.point([2, 1]), e2.point([0, 0])
        # a = 1/2: tau = 2, c_S = c_T = 1/2, so (1 + 2 - 2) / 4
        assert condition(s, t, x, y) == pytest.approx(0.25, abs=1e-12)
        # a_S = 1/3, a_T = 1/2: tau = 3, c_S = 2/3, c_T = 1/3, so 4/9 + 2/9 - 4/9
        assert condition(s, t, x, y, 1.0 / 3.0, 0.5) == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_nonnegative_at_sampled_pairs(self, e2, half_v, half_u):
        spec = condition_spec(e2, Projection(half_v), Projection(half_u), samples=500, seed=4)
        result = run_check(spec)
        assert result.passed
        assert result.worst_defect >= -1e-9

    @pytest.mark.parametrize("seed, worst", [(1, -0.0205), (3, -0.0331)])
    def test_fails_for_two_hyperbolic_balls(self, h2, seed, worst):
        """The condition is sufficient, not necessary: it fails for two ball
        projections whose composition theorem check passes."""
        c1, c2 = h2.exp_from_base([0.3, -0.2]), h2.exp_from_base([-0.8, 0.5])
        s, t = Projection(GeodesicBall(c1, 1.0)), Projection(GeodesicBall(c2, 0.6))
        spec = condition_spec(h2, s, t, samples=500, seed=seed)
        result = run_check(spec)
        assert not result.passed
        assert result.worst_defect == pytest.approx(worst, abs=1e-4)
        assert reevaluate_witness(spec, result.witness) == result.worst_defect
        theorem = CheckSpec(kind=COMPOSITION_THEOREM, space=h2, samples=500, seed=seed,
                            payload={"factors": [(s, 0.5), (t, 0.5)],
                                     "witness": geodesic_point(c1, c2, 0.55)})
        assert run_check(theorem).passed


class TestFixedSetAlgebra:
    def test_composition_fixed_points_are_common(self, e2, half_v, half_u, rng):
        """Limits of TS-iterations are fixed by each factor."""
        ts = Composition([Projection(half_u), Projection(half_v)])
        rule = StopRule(max_iter=500, stall_tol=1e-14)
        for _ in range(25):
            trace = fixed_point_iterate(ts, e2.sample(rng), rule)
            limit = trace.final_point
            assert distance(Projection(half_v).apply(limit), limit) <= 1e-9
            assert distance(Projection(half_u).apply(limit), limit) <= 1e-9

    def test_combination_fixes_common_points(self, tripod, rng):
        leg_a = Subtree(tripod, ["o", "a"], name="leg-a")
        leg_b = Subtree(tripod, ["o", "b"], name="leg-b")
        combo = ConvexCombination([0.5, 0.5], [Projection(leg_a), Projection(leg_b)])
        gate = tripod.vertex_point("o")
        assert distance(combo.apply(gate), gate) <= 1e-6


class TestQuasiFirmTheorems:
    def test_composition_constant(self, e2, half_v, half_u, rng):
        """Pairs of half-firm factors compose at constant 2/3."""
        ts = Composition([Projection(half_u), Projection(half_v)])
        alpha = composition_alpha(0.5, 0.5)
        y = e2.point([0, 0])
        for _ in range(1000):
            x = e2.sample(rng)
            assert quasi_firm_defect(ts, alpha, x, y) >= -1e-9

    def test_combination_constant(self, e2, half_v, half_u, rng):
        combo = ConvexCombination([0.5, 0.5], [Projection(half_v), Projection(half_u)])
        alpha = combination_alpha([0.5, 0.5])
        y = e2.point([0, 0])
        for _ in range(1000):
            x = e2.sample(rng)
            assert quasi_firm_defect(combo, alpha, x, y) >= -1e-6


class TestCertificates:
    """The alpha-firm inequality sampled through the certifier."""

    @staticmethod
    def check(kind, space, samples, seed, **payload):
        return run_check(CheckSpec(kind=kind, space=space, samples=samples, seed=seed,
                                   payload=payload))

    def test_projection_full_scope_passes(self, e2, half_v):
        result = self.check(PROJECTION_FIRM, e2, 500, 11, op=Projection(half_v), alpha=0.5)
        assert result.passed
        assert result.worst_defect == -1.7763568394002505e-15
        assert result.text_line().startswith("PASS")

    def test_quasi_scope_with_witness(self, e2, half_v):
        result = self.check(QUASI_FIRM, e2, 300, 11, op=Projection(half_v), alpha=0.5,
                            fixed_points=[e2.point([0, 0])])
        assert result.passed
        assert result.worst_defect == -8.881784197001252e-16

    def test_false_claim_fails(self, e2, half_v):
        result = self.check(PROJECTION_FIRM, e2, 500, 11, op=Projection(half_v), alpha=0.1)
        assert not result.passed
        assert result.worst_defect == -10.15294873962109
        assert result.text_line().startswith("FAIL")

    def test_deterministic_given_seed(self, e2, half_v):
        a = self.check(PROJECTION_FIRM, e2, 200, 4, op=Projection(half_v), alpha=0.5)
        b = self.check(PROJECTION_FIRM, e2, 200, 4, op=Projection(half_v), alpha=0.5)
        assert a.worst_defect == b.worst_defect == -1.7763568394002505e-15

    def test_set_payload_is_projection_at_one_half(self, e2, half_v):
        by_set = self.check(PROJECTION_FIRM, e2, 200, 4, set=half_v)
        by_op = self.check(PROJECTION_FIRM, e2, 200, 4, op=Projection(half_v))
        assert by_set == by_op


# ---------------------------------------------------------------------
# compositions of flat projections: the screen against the factor loop
# ---------------------------------------------------------------------


def factor_loop(comp, x):
    """Composition.apply as the plain loop over its factors."""
    for op in reversed(comp.factors):
        x = op.apply(x)
    return x


def outcome(apply, x):
    """The payload in hex and whether it is x itself, or the error's type and message."""
    try:
        y = apply(x)
    except HadamardError as exc:
        return type(exc), str(exc)
    return [v.hex() for v in y.payload.tolist()], y is x


@contextlib.contextmanager
def twin_calls():
    """Record (set, payload bytes) of every EuclideanHalfspace.project call."""
    calls = []
    project = EuclideanHalfspace.project

    def spy(self, x):
        calls.append((self, x.payload.tobytes()))
        return project(self, x)

    with mock.patch.object(EuclideanHalfspace, "project", spy):
        yield calls


def flat_composition(sets):
    """The composition applying the sets' projections in list order."""
    return Composition([Projection(c) for c in reversed(sets)])


def wedge(rng, dim=42, halfspaces=33):
    """Halfspaces that hold a disc around x0's plane, and two hyperplanes
    through the origin meeting at 0.8 rad in that plane, in a random order."""
    space = Euclidean(dim)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
    v1, v2, w = basis.T
    sets = [EuclideanHyperplane(space, v1, 0.0, name="P"),
            EuclideanHyperplane(space, -np.cos(0.8) * v1 + np.sin(0.8) * v2, 0.0, name="Q")]
    for k in range(halfspaces):
        g = rng.standard_normal(dim)
        a = g - (g @ w - rng.uniform(0.2, 1.0)) * w     # <a, w> in [0.2, 1]
        sets.append(EuclideanHalfspace(space, a, 0.0, name=f"H{k}"))
    order = rng.permutation(len(sets))
    x0 = space.point(-100.0 * w + 1.5 * v1 - 0.5 * v2)
    return [sets[k] for k in order], x0


class TestFlatComposition:
    """A composition of flat projections skips the factors a screen proves held,
    and returns what the factor loop returns, bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(1, 64), count=st.integers(1, 60), plane_share=st.floats(0.0, 1.0),
           log_scale=st.floats(-300.0, 150.0), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_factor_loop(self, dim, count, plane_share, log_scale, seed):
        space = Euclidean(dim)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        p = scale * rng.uniform(-1.0, 1.0, dim)
        sets = []
        for k in range(count):
            normal = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3.0, 3.0)
            cls = EuclideanHyperplane if rng.uniform() < plane_share else EuclideanHalfspace
            kind = rng.uniform()
            if kind < 0.5:
                # the boundary a few ulps from p, as the twin's own dot sees it
                offset = float(normal @ p)
                for _ in range(int(rng.integers(0, 4))):
                    offset = float(np.nextafter(offset, rng.choice([-np.inf, np.inf])))
            elif kind < 0.95:
                offset = float(np.linalg.norm(normal)) * scale * rng.uniform(-2.0, 2.0)
            else:
                # a boundary past the coordinate bound: an image there raises
                offset = float(np.linalg.norm(normal)) * rng.choice([-3e150, 3e150])
            sets.append(cls(space, normal, offset, name=f"C{k}"))
        comp = flat_composition(sets)
        assert comp._sweep is not None
        x = space.point(p)
        for _ in range(2):
            with twin_calls() as calls:
                got = outcome(comp.apply, x)
            assert got == outcome(lambda x: factor_loop(comp, x), x)
            # every twin the screen skipped returns its input
            ran = {(id(c), data) for c, data in calls}
            y = x
            for c in sets:
                try:
                    image = c.project(y)
                except HadamardError:
                    break
                if (id(c), y.payload.tobytes()) not in ran:
                    assert image is y
                y = image
            if isinstance(got[0], type):
                break
            x = comp.apply(x)

    def test_wedge_runs_only_the_hyperplanes(self, rng):
        sets, x0 = wedge(rng)
        comp = flat_composition(sets)
        trace = fixed_point_iterate(comp, x0, StopRule(max_iter=200))
        assert trace.stop_reason == "converged"
        with twin_calls() as calls:
            for x in trace.points:
                comp.apply(x)
        # the factor loop runs all 35 projections at every point
        assert len(calls) == 2 * len(trace.points)
        assert {c.name for c, _ in calls} == {"P", "Q"}

    def test_points_it_cannot_bound_run_the_loops_twins(self, rng):
        sets, _ = wedge(rng, dim=5, halfspaces=6)
        comp = flat_composition(sets)
        space = sets[0].space
        near_origin = space.point(np.full(5, 2.0 ** -410))
        unvalidated = [Point(space, np.array([np.inf, 0, 0, 0, 0])),
                       Point(space, np.array([np.nan, 0, 0, 0, 0]))]
        for x in [near_origin] + unvalidated:
            # the twins warn on the unvalidated coordinates, in either path
            with np.errstate(invalid="ignore"):
                with twin_calls() as loop_calls:
                    want = outcome(lambda x: factor_loop(comp, x), x)
                with twin_calls() as calls:
                    assert outcome(comp.apply, x) == want
            assert calls == loop_calls
        assert len(loop_calls) == 1  # the first twin raises on the NaN coordinate

    def test_errors_are_the_loops(self, e2, e3):
        sets = [EuclideanHalfspace(e2, [0, 1], 0.0, name="low"),
                EuclideanHyperplane(e2, [1, 0], 2e150, name="far")]
        comp = flat_composition(sets)
        # the image on "far" is past the coordinate bound
        for x in (e2.point([1.0, 1.0]), e3.point([0, 0, 0]), "x"):
            want = outcome(lambda x: factor_loop(comp, x), x)
            assert isinstance(want[0], type)
            assert outcome(comp.apply, x) == want

    def test_other_compositions_keep_the_loop(self, e2, e3, half_v):
        ball = GeodesicBall(e2.point([0, 0]), 1.0)

        class Overriding(EuclideanHalfspace):
            __slots__ = ()

            def project(self, x):
                return x

        others = [
            Composition([Projection(ball), Projection(half_v)]),
            Composition([Identity(), Projection(half_v)]),
            flat_composition([half_v, EuclideanHalfspace(e3, [0, 0, 1], 0.0)]),
            flat_composition([half_v, Overriding(e2, [1, 0], 0.0)]),
        ]
        assert all(comp._sweep is None for comp in others)
        with pytest.raises(SpaceMismatchError):
            others[2].apply(e2.point([0, 1]))
