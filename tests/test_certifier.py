"""Seeded property checks: determinism, witnesses, coverage, reports."""

import io
import math

import numpy as np
import pytest

from hadamard import (
    CheckSpec,
    EuclideanHalfspace,
    HyperbolicHalfspace,
    Identity,
    Point,
    Pointwise,
    Projection,
    ProductSet,
    ProductSpace,
    StopRule,
    Subtree,
    default_suite,
    minkowski,
    reevaluate_witness,
    run_check,
    run_suite,
    space_suite,
)
from hadamard.certifier import (
    CAT0,
    CAUCHY_SCHWARZ,
    CHECK_KINDS,
    COMBINATION_THEOREM,
    COMPOSITION_CONDITION,
    COMPOSITION_THEOREM,
    FEJER_RUN,
    FIX_CONVEXITY,
    PROJECTION_FIRM,
    PROJECTION_INEQ,
    QUASI_FIRM,
    VARIANCE_INEQ,
)
from hadamard.certifier import _CHUNK
from hadamard.errors import CheckSpecError, SpaceMismatchError


class TestSampling:
    def test_deterministic_given_seed(self, all_models):
        for space in all_models.values():
            a = space.sample(np.random.default_rng(42))
            b = space.sample(np.random.default_rng(42))
            assert a == b

    def test_hyperboloid_samples_on_sheet(self, h2, rng):
        for _ in range(200):
            p = h2.sample(rng)
            assert abs(minkowski(p.payload, p.payload) + 1.0) <= 1e-10
            assert p.payload[0] >= 1.0 - 1e-10

    def test_tree_samples_within_edges(self, caterpillar, rng):
        for _ in range(200):
            p = caterpillar.sample(rng)
            assert 0.0 <= p.payload.offset <= caterpillar.edges[p.payload.edge].length

    def test_product_samples_componentwise(self, product, rng):
        p = product.sample(rng)
        assert p.payload[0].space == product.left
        assert p.payload[1].space == product.right


class TestRunCheck:
    def test_cat0_euclidean_near_zero_defects(self, e3):
        result = run_check(CheckSpec(kind=CAT0, space=e3, samples=1000, seed=5))
        assert result.passed
        assert result.worst_defect >= -1e-12

    def test_cauchy_schwarz_on_tripod(self, tripod):
        result = run_check(CheckSpec(kind=CAUCHY_SCHWARZ, space=tripod,
                                     samples=1000, seed=5))
        assert result.passed

    def test_quasi_firm_projection(self, e2):
        half = EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0")
        spec = CheckSpec(
            kind=QUASI_FIRM, space=e2, samples=500, seed=5,
            payload={"op": Projection(half), "alpha": 0.5,
                     "fixed_points": [e2.point([0, 0])]},
        )
        result = run_check(spec)
        assert result.passed
        assert result.worst_defect >= -1e-12

    def test_false_claim_fails_with_witness(self, e2):
        half = EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0")
        spec = CheckSpec(
            kind=QUASI_FIRM, space=e2, samples=500, seed=5,
            payload={"op": Projection(half), "alpha": 0.1,
                     "fixed_points": [e2.point([0, 0])]},
        )
        result = run_check(spec)
        assert not result.passed
        assert result.worst_defect < -1e-3
        assert len(result.witness) == 2
        assert reevaluate_witness(spec, result.witness) == result.worst_defect

    def test_witness_reevaluation_matches_everywhere(self):
        for spec in default_suite(seed=99, samples=60):
            result = run_check(spec)
            again = reevaluate_witness(spec, result.witness)
            assert again == result.worst_defect

    @pytest.mark.parametrize("seed", [0, 1, 1009])
    def test_full_suite_witnesses_reproduce(self, seed):
        for spec in default_suite(seed=seed, samples=1000):
            result = run_check(spec)
            assert reevaluate_witness(spec, result.witness) == result.worst_defect, spec.label

    def test_unknown_kind_rejected(self, e2):
        with pytest.raises(CheckSpecError):
            CheckSpec(kind="nonsense", space=e2, samples=10, seed=0)

    def test_missing_payload_key(self, e2):
        spec = CheckSpec(kind=PROJECTION_FIRM, space=e2, samples=10, seed=0)
        with pytest.raises(CheckSpecError):
            run_check(spec)

    def test_sample_count_validated(self, e2):
        with pytest.raises(CheckSpecError):
            CheckSpec(kind=CAT0, space=e2, samples=0, seed=0)

    @pytest.mark.parametrize("samples", [2.5, 10.0, math.inf, math.nan, True])
    def test_samples_must_be_an_integer(self, e2, samples):
        with pytest.raises(CheckSpecError, match="samples must be an integer"):
            CheckSpec(kind=CAT0, space=e2, samples=samples, seed=0)

    @pytest.mark.parametrize("seed", [1.5, math.nan, False])
    def test_seed_must_be_an_integer(self, e2, seed):
        with pytest.raises(CheckSpecError, match="seed must be an integer"):
            CheckSpec(kind=CAT0, space=e2, samples=10, seed=seed)

    def test_space_must_be_a_space_model(self):
        with pytest.raises(CheckSpecError, match="space must be a space model"):
            CheckSpec(kind=CAT0, space="e2", samples=10, seed=0)

    def test_suite_arguments_validated(self):
        with pytest.raises(CheckSpecError, match="seed must be an integer"):
            default_suite(seed=1.5, samples=10)
        with pytest.raises(CheckSpecError, match="samples must be an integer"):
            default_suite(seed=0, samples=10.5)

    def test_numpy_integers_accepted(self, e2):
        spec = CheckSpec(kind=CAT0, space=e2, samples=np.int64(20), seed=np.uint64(3))
        assert run_check(spec) == run_check(CheckSpec(kind=CAT0, space=e2, samples=20, seed=3))

    def test_nan_defect_fails_with_its_witness(self, e2):
        # undefined on the right half-plane, the identity elsewhere
        nan_map = Pointwise("nan", lambda x: Point(e2, np.array([math.nan, 0.0]))
                            if x.payload[0] > 0 else x)
        spec = CheckSpec(kind=PROJECTION_FIRM, space=e2, samples=50, seed=0,
                         payload={"op": nan_map})
        result = run_check(spec)
        assert math.isnan(result.worst_defect)
        assert not result.passed
        assert len(result.witness) == 2
        assert max(p.payload[0] for p in result.witness) > 0
        assert math.isnan(reevaluate_witness(spec, result.witness))
        buf = io.StringIO()
        run_suite([spec]).to_csv(buf)
        assert buf.getvalue().splitlines()[1].endswith(",nan,false")

    def test_witness_from_another_space_rejected(self, e2, e3):
        spec = CheckSpec(kind=CAT0, space=e2, samples=10, seed=0)
        points = [e3.point([0.0, 0.0, 0.0]), e3.point([1.0, 0.0, 0.0]), e3.point([0.0, 1.0, 0.0])]
        with pytest.raises(SpaceMismatchError):
            reevaluate_witness(spec, (*points, 0.5))

    @pytest.mark.parametrize("kind", [PROJECTION_FIRM, PROJECTION_INEQ, FIX_CONVEXITY])
    def test_set_from_another_space_rejected(self, e2, e3, kind):
        spec = CheckSpec(kind=kind, space=e2, samples=10, seed=0,
                         payload={"set": EuclideanHalfspace(e3, [0, 0, 1], 0.0)})
        with pytest.raises(SpaceMismatchError):
            run_check(spec)

    @pytest.mark.parametrize("witness", [(), (0,), None])
    def test_witness_of_wrong_length_rejected(self, e2, witness):
        spec = CheckSpec(kind=CAT0, space=e2, samples=10, seed=0)
        if witness == (0,):
            witness = (e2.point([0.0, 0.0]),)
        with pytest.raises(CheckSpecError, match="witness has 4 entries"):
            reevaluate_witness(spec, witness)

    def test_check_that_draws_nothing_rejected(self, e2, e3):
        empty = [
            CheckSpec(kind=VARIANCE_INEQ, space=e3, samples=2, seed=0,
                      payload={"challengers": 0}),
            CheckSpec(kind=QUASI_FIRM, space=e2, samples=2, seed=0,
                      payload={"op": Projection(EuclideanHalfspace(e2, [0, 1], 0.0)),
                               "alpha": 0.5, "fixed_points": []}),
        ]
        for spec in empty:
            with pytest.raises(CheckSpecError):
                run_check(spec)

    @pytest.mark.parametrize("kind, payload", [
        (VARIANCE_INEQ, {"instance_size": 2.5}),
        (VARIANCE_INEQ, {"challengers": 2.0}),
        (VARIANCE_INEQ, {"challengers": True}),
        (VARIANCE_INEQ, {"instance_size": 0}),
        (COMBINATION_THEOREM, {"alphas": [0.5]}),
        (COMPOSITION_THEOREM, {"factors": ["P1", "P2"]}),
        (COMPOSITION_THEOREM, {"factors": 2}),
        (FEJER_RUN, {"rule": 200}),
        (COMPOSITION_CONDITION, {"factors": ["P1", "P2"]}),
        (COMPOSITION_CONDITION, {"factors": 2}),
        (COMPOSITION_CONDITION, {"factors": [(Identity(), 0.5)]}),
        (COMPOSITION_CONDITION, {"factors": [(Identity(), 0.5)] * 3}),
        (COMPOSITION_CONDITION, {"factors": [(Identity(), 0.5), (0.5, Identity())]}),
    ])
    def test_malformed_payload_rejected(self, e2, kind, payload):
        half_v = EuclideanHalfspace(e2, [0, 1], 0.0)
        half_u = EuclideanHalfspace(e2, [1, 0], 0.0)
        origin = e2.point([0.0, 0.0])
        well_formed = {
            COMPOSITION_CONDITION: {},
            VARIANCE_INEQ: {},
            COMBINATION_THEOREM: {"ops": [Projection(half_v), Projection(half_u)],
                                  "alphas": [0.5, 0.5], "weights": [0.5, 0.5],
                                  "witness": origin},
            COMPOSITION_THEOREM: {"factors": [(Projection(half_v), 0.5),
                                              (Projection(half_u), 0.5)],
                                  "witness": origin},
            FEJER_RUN: {"algorithm": "cyclic", "sets": [half_v, half_u],
                        "witness": origin, "rule": StopRule(max_iter=20)},
        }[kind]
        spec = CheckSpec(kind=kind, space=e2, samples=2, seed=0,
                         payload={**well_formed, **payload})
        with pytest.raises(CheckSpecError):
            run_check(spec)

    def test_combination_applied_to_its_witness_once_per_check(self, e2):
        origin = e2.point([0.0, 0.0])
        at_witness = []

        def counted(name, normal):
            project = Projection(EuclideanHalfspace(e2, normal, 0.0)).apply

            def fn(x):
                if x == origin:
                    at_witness.append(name)
                return project(x)
            return Pointwise(name, fn)

        spec = CheckSpec(kind=COMBINATION_THEOREM, space=e2, samples=40, seed=3,
                         payload={"ops": [counted("v", [0, 1]), counted("u", [1, 0])],
                                  "alphas": [0.5, 0.5], "weights": [0.5, 0.5],
                                  "witness": origin})
        assert run_check(spec).passed
        assert at_witness == ["v", "u"]

    def test_one_sample_beyond_a_chunk(self, tripod):
        spec = CheckSpec(kind=CAT0, space=tripod, samples=_CHUNK + 1, seed=12)
        result = run_check(spec)
        assert result == run_check(spec)
        assert reevaluate_witness(spec, result.witness) == result.worst_defect

    def test_elapsed_time_reported_and_ignored_by_equality(self, e3):
        spec = CheckSpec(kind=CAT0, space=e3, samples=200, seed=3)
        a, b = run_check(spec), run_check(spec)
        assert a.elapsed_s > 0 and b.elapsed_s > 0
        assert a == b
        assert a.text_line().endswith(f"{a.samples_per_s:.3g} samples/s)")

    def test_negative_seed_rejected(self, e2):
        with pytest.raises(CheckSpecError, match="seed must be >= 0"):
            CheckSpec(kind=CAT0, space=e2, samples=10, seed=-1)
        with pytest.raises(CheckSpecError, match="seed must be >= 0"):
            default_suite(seed=-1, samples=10)
        with pytest.raises(CheckSpecError, match="seed must be >= 0"):
            space_suite(e2, {}, None, samples=10, seed=-1)


class TestTolerances:
    def test_model_based(self, e3, h2):
        assert CheckSpec(kind=CAT0, space=e3, samples=1, seed=0).tolerance == 1e-9
        assert CheckSpec(kind=CAT0, space=h2, samples=1, seed=0).tolerance == 1e-7

    def test_barycenter_bound_kinds(self, e3):
        assert CheckSpec(kind=VARIANCE_INEQ, space=e3, samples=1, seed=0).tolerance == 1e-6


class TestSuite:
    def test_default_suite_passes(self):
        report = run_suite(default_suite(seed=123, samples=150), suite_seed=123)
        assert report.passed
        assert report.wall_time > 0

    def test_kind_coverage(self):
        kinds = {s.kind for s in default_suite(seed=0, samples=10)}
        assert kinds == set(CHECK_KINDS)

    @pytest.mark.parametrize("seed", [0, 1, 1009])
    def test_composition_condition_rows_pass(self, seed):
        specs = [s for s in default_suite(seed=seed, samples=1000)
                 if s.kind == COMPOSITION_CONDITION]
        assert [s.label for s in specs] == ["two-euclidean-halfspaces",
                                            "two-hyperbolic-halfspaces", "two-subtrees"]
        for spec in specs:
            result = run_check(spec)
            assert result.passed, spec.label
            assert reevaluate_witness(spec, result.witness) == result.worst_defect

    def test_appended_rows_keep_earlier_seeds(self):
        # the composition_condition rows come last, so the other rows keep their seeds
        specs = default_suite(seed=1, samples=10)
        assert [s.kind for s in specs[-3:]] == [COMPOSITION_CONDITION] * 3
        seeds = np.random.SeedSequence(1).generate_state(len(specs) - 3, dtype=np.uint64)
        assert [s.seed for s in specs[:-3]] == [int(v) for v in seeds]

    def test_deterministic_reports(self):
        a = run_suite(default_suite(seed=7, samples=80), suite_seed=7)
        b = run_suite(default_suite(seed=7, samples=80), suite_seed=7)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.worst_defect == eb.worst_defect
            assert ea.seed == eb.seed
        buf_a, buf_b = io.StringIO(), io.StringIO()
        a.to_csv(buf_a)
        b.to_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_different_seed_changes_streams(self):
        a = run_suite(default_suite(seed=7, samples=80))
        b = run_suite(default_suite(seed=8, samples=80))
        assert any(ea.worst_defect != eb.worst_defect
                   for ea, eb in zip(a.entries, b.entries))

    def test_failing_entry_fails_suite(self, e2):
        half = EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0")
        good = CheckSpec(kind=CAT0, space=e2, samples=50, seed=1)
        bad = CheckSpec(
            kind=QUASI_FIRM, space=e2, samples=200, seed=1,
            payload={"op": Projection(half), "alpha": 0.1,
                     "fixed_points": [e2.point([0, 0])]},
        )
        report = run_suite([good, bad])
        assert not report.passed

    def test_empty_suite_rejected(self):
        with pytest.raises(CheckSpecError):
            run_suite([])

    def test_csv_columns(self, e3):
        report = run_suite([CheckSpec(kind=CAT0, space=e3, samples=20, seed=3)])
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "kind,samples,seed,worst_defect,pass"
        kind, samples, seed, worst, passed = lines[1].split(",")
        assert kind == CAT0 and samples == "20" and seed == "3"
        assert passed in ("true", "false")
        float(worst)

    def test_text_report_mentions_every_entry(self, e3):
        report = run_suite([CheckSpec(kind=CAT0, space=e3, samples=20, seed=3)])
        text = report.to_text()
        assert "cat0" in text and ("PASS" in text or "FAIL" in text)


class TestSpaceSuite:
    def test_builds_projection_checks_per_set(self, e2):
        half_v = EuclideanHalfspace(e2, [0, 1], 0.0, name="V")
        half_u = EuclideanHalfspace(e2, [1, 0], 0.0, name="U")
        specs = space_suite(e2, {"V": half_v, "U": half_u}, e2.point([0, 0]),
                            samples=50, seed=5)
        kinds = [s.kind for s in specs]
        assert kinds.count(PROJECTION_FIRM) == 2
        assert kinds.count(PROJECTION_INEQ) == 2
        assert COMPOSITION_THEOREM in kinds
        assert COMBINATION_THEOREM in kinds
        assert FEJER_RUN in kinds
        # only sufficient: it fails for some pairs whose composition theorem check passes
        assert COMPOSITION_CONDITION not in kinds
        report = run_suite(specs, suite_seed=5)
        assert report.passed

    def test_witnesses_reproduce_on_hyperbolic_and_product_models(self, e2, h2, tripod,
                                                                  product):
        # kernels (h2), and products of a kernel factor with a row-fallback factor
        apex = h2.base_point()
        gate = tripod.vertex_point("o")
        m1 = HyperbolicHalfspace(h2, [0.0, 1.0, 0.0], name="m1")
        m2 = HyperbolicHalfspace(h2, [0.0, 0.0, 1.0], name="m2")
        hyp_tree = ProductSpace(h2, tripod)
        cases = [
            (h2, {"m1": m1, "m2": m2}, apex),
            (product,
             {"VA": ProductSet(product, EuclideanHalfspace(e2, [0, 1], 0.0),
                               Subtree(tripod, ["o", "a"]), name="VA"),
              "UB": ProductSet(product, EuclideanHalfspace(e2, [1, 0], 0.0),
                               Subtree(tripod, ["o", "b"]), name="UB")},
             product.point((e2.point([0.0, 0.0]), gate))),
            (hyp_tree,
             {"MA": ProductSet(hyp_tree, m1, Subtree(tripod, ["o", "a"]), name="MA"),
              "MB": ProductSet(hyp_tree, m2, Subtree(tripod, ["o", "b"]), name="MB")},
             hyp_tree.point((apex, gate))),
        ]
        for space, sets, witness in cases:
            specs = space_suite(space, sets, witness, samples=100, seed=11)
            assert {COMBINATION_THEOREM, VARIANCE_INEQ, FEJER_RUN} <= {s.kind for s in specs}
            for spec in specs:
                result = run_check(spec)
                assert reevaluate_witness(spec, result.witness) == result.worst_defect, spec.kind

    def test_witness_outside_a_set_names_the_sets_it_misses(self, e2):
        sets = {
            "V": EuclideanHalfspace(e2, [0, 1], 0.0, name="V"),
            "U": EuclideanHalfspace(e2, [1, 0], 0.0, name="U"),
            "W": EuclideanHalfspace(e2, [0, 1], -1.0, name="W"),
        }
        with pytest.raises(CheckSpecError, match=r"set\(s\) U, W$"):
            space_suite(e2, sets, e2.point([0.5, -0.5]), samples=10, seed=0)

    def test_claim_requires_known_set(self, e2):
        with pytest.raises(CheckSpecError):
            space_suite(e2, {}, e2.point([0, 0]), samples=10, seed=0,
                        claim_alpha=0.5, claim_set="missing")

    def test_claim_requires_witness(self, e2):
        half = EuclideanHalfspace(e2, [0, 1], 0.0, name="V")
        with pytest.raises(CheckSpecError):
            space_suite(e2, {"V": half}, None, samples=10, seed=0,
                        claim_alpha=0.5, claim_set="V")
