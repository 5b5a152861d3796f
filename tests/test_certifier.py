"""Seeded property checks: determinism, witnesses, coverage, reports."""

import io
import math

import numpy as np
import pytest

from hadamard import (
    CheckSpec,
    Euclidean,
    EuclideanHalfspace,
    Hyperboloid,
    HyperbolicHalfspace,
    Identity,
    MetricTree,
    Point,
    Pointwise,
    Projection,
    ProductSet,
    ProductSpace,
    StopRule,
    Subtree,
    WeightedPoints,
    default_suite,
    distance,
    frechet_mean,
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
from hadamard import certifier
from hadamard.certifier import _CHUNK
from hadamard.errors import CheckSpecError, SpaceMismatchError


# Worst defect (float hex) and witness of each pure-tree row of
# default_suite(seed=1, samples=1000) but variance_ineq and combination_theorem.
TREE_PINS = {
    ("cat0", "tripod"): ("-0x1.0000000000000p-50", "edge,0,0.60077676127325008 "
                         "edge,2,0.65834213657842511 edge,0,0.97440304329385463 0.9917330255768686"),
    ("cauchy_schwarz", "tripod"): ("-0x1.2400000000000p-51", "edge,2,0.97579709629517664 "
                                   "edge,2,0.95449558523737243 edge,2,0.54199726927267011 "
                                   "edge,1,0.9446400481892856"),
    ("cat0", "caterpillar"): ("-0x1.8000000000000p-47", "edge,1,0.1073895020738358 "
                              "edge,4,0.77893231209006197 edge,3,1.77208965700552 "
                              "0.9796879235908852"),
    ("cauchy_schwarz", "caterpillar"): ("-0x1.0000000000000p-48", "edge,4,0.87826480006994712 "
                                        "edge,3,1.8963254736128639 edge,4,0.11726998735208083 "
                                        "edge,3,1.6393955727165774"),
    ("projection_firm", "ball-tripod"): ("-0x1.0000000000004p-54", "edge,2,0.78376022751559793 "
                                         "edge,2,0.52951294993046816"),
    ("projection_ineq", "ball-tripod"): ("-0x1.0000000000001p-51", "edge,1,0.93406816499399115 "
                                         "edge,1,0.25000000000000011"),
    ("projection_firm", "spine"): ("-0x1.a800000000000p-54", "edge,3,1.9759847842888996 "
                                   "edge,2,0.152123371147322"),
    ("projection_ineq", "spine"): ("0x0.0p+0", "edge,2,0.34834026149653186 vertex,v2"),
    ("projection_firm", "branch"): ("-0x1.0000000000000p-54", "edge,4,0.77600235640439941 "
                                    "edge,4,0.87022977979428329"),
    ("projection_ineq", "branch"): ("0x0.0p+0", "edge,3,0.74595850814114728 vertex,v1"),
    ("quasi_firm", "projection-subtree"): ("0x0.0p+0", "edge,0,0.73032213244490374 vertex,o"),
    ("composition_theorem", "two-subtrees"): ("0x0.0p+0",
                                              "edge,1,0.22449155699071804 vertex,v1"),
    ("fix_convexity", "subtree"): ("-0x0.0p+0", "vertex,o vertex,o"),
    ("fejer_run", "cyclic-subtrees"): ("0x0.0p+0", "edge,0,0.49049221742422666"),
    ("composition_condition", "two-subtrees"): ("0x0.0p+0", "edge,1,0.14597390708689456 "
                                                "edge,1,1.1258510298089663"),
}


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

    @pytest.mark.parametrize("payload", [None, [("set", None)]])
    def test_payload_must_be_a_dict(self, e2, payload):
        with pytest.raises(CheckSpecError, match="payload must be a dict"):
            CheckSpec(kind=PROJECTION_FIRM, space=e2, samples=10, seed=0, payload=payload)

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
        (PROJECTION_FIRM, {"op": lambda x: x}),
        (PROJECTION_FIRM, {"set": "v<=0"}),
        (PROJECTION_INEQ, {"set": "v<=0"}),
        (FIX_CONVEXITY, {"set": "v<=0"}),
        (FEJER_RUN, {"witness": "origin"}),
        (FEJER_RUN, {"sets": "uv"}),
        (QUASI_FIRM, {"op": "P"}),
        (QUASI_FIRM, {"fixed_points": None}),
        (QUASI_FIRM, {"fixed_points": [(0.0, 0.0)]}),
        (COMPOSITION_THEOREM, {"witness": (0.0, 0.0)}),
        (COMBINATION_THEOREM, {"alphas": 0.5}),
        (COMBINATION_THEOREM, {"ops": ["P1", "P2"]}),
        (COMBINATION_THEOREM, {"weights": 0.5}),
    ])
    def test_malformed_payload_rejected(self, e2, kind, payload):
        half_v = EuclideanHalfspace(e2, [0, 1], 0.0)
        half_u = EuclideanHalfspace(e2, [1, 0], 0.0)
        origin = e2.point([0.0, 0.0])
        well_formed = {
            COMPOSITION_CONDITION: {},
            VARIANCE_INEQ: {},
            PROJECTION_FIRM: {},  # each case gives the op or the set
            PROJECTION_INEQ: {"set": half_v},
            FIX_CONVEXITY: {"set": half_v},
            QUASI_FIRM: {"op": Projection(half_v), "alpha": 0.5, "fixed_points": [origin]},
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

    def test_payload_key_the_kind_does_not_read_rejected(self, e2):
        half = EuclideanHalfspace(e2, [0, 1], 0.0)
        for kind, payload, match in [
            (PROJECTION_INEQ, {"set": half, "alpha": 0.9, "typo_key": 3},
             "'projection_ineq' does not read payload key 'alpha'"),
            (CAT0, {"set": half}, "'cat0' does not read payload key 'set'"),
            (VARIANCE_INEQ, {"challengers": 5, "samples": 3}, "payload key 'samples'"),
            (PROJECTION_FIRM, {"set": half, "op": Identity(), "alpha": 0.4},
             "takes an 'op' or a 'set', not both"),
        ]:
            with pytest.raises(CheckSpecError, match=match):
                CheckSpec(kind=kind, space=e2, samples=50, seed=1, payload=payload)

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


class TestBlockMeans:
    """The barycenter kinds solve the means of a batch in one block mean.

    The flat block mean is vectorised; every other model's block mean
    solves each row with the model's own ``_mean``.
    """

    def test_scalar_mean_solves(self, monkeypatch):
        calls = []
        for model in (Euclidean, Hyperboloid):
            def counted(self, *args, _mean=model._mean):
                calls.append(self)
                return _mean(self, *args)
            monkeypatch.setattr(model, "_mean", counted)
        picked = {(VARIANCE_INEQ, "euclidean3"), (VARIANCE_INEQ, "hyperbolic2"),
                  (COMBINATION_THEOREM, "three-projections-euclidean")}
        specs = [s for s in default_suite(seed=1, samples=200) if (s.kind, s.label) in picked]
        assert len(specs) == 3
        for spec in specs:
            calls.clear()
            assert run_check(spec).passed
            # the flat samples make no scalar solve, and a theorem check confirms
            # that its witness is fixed through the scalar apply, one mean per
            # check; the hyperbolic block mean solves each of its 4 instances
            if spec.label == "hyperbolic2":
                assert len(calls) == 4
            else:
                assert len(calls) == (spec.kind == COMBINATION_THEOREM)
        calls.clear()
        e3 = Euclidean(3)
        frechet_mean(WeightedPoints([e3.point([0, 0, i]) for i in range(3)], [0.2, 0.3, 0.5]))
        assert len(calls) == 1

    @pytest.mark.parametrize("model", ["e3", "h2", "caterpillar", "product"])
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_batching_changes_no_result(self, model, size, request, monkeypatch):
        spec = CheckSpec(kind=VARIANCE_INEQ, space=request.getfixturevalue(model),
                         samples=7, seed=21, payload={"instance_size": size, "challengers": 10})
        whole = run_check(spec)
        # three instances per batch, so the last batch is partial
        monkeypatch.setattr(certifier, "_CHUNK", 30)
        split = run_check(spec)
        assert split.worst_defect == whole.worst_defect
        assert split.witness == whole.witness
        assert reevaluate_witness(spec, whole.witness) == whole.worst_defect


class TestTreeBlocks:
    """Tree checks sample through the block kernels, with no scalar call per sample."""

    def test_no_scalar_distances_or_gates(self, monkeypatch):
        def tree_part(space):
            return space if isinstance(space, MetricTree) else getattr(space, "right", None)

        kinds = (CAT0, CAUCHY_SCHWARZ, PROJECTION_INEQ)
        specs = [s for s in default_suite(seed=1, samples=200)
                 if s.kind in kinds and isinstance(tree_part(s.space), MetricTree)]
        # tripod, caterpillar and E2 x tripod, and the ball, spine, branch and product-set
        assert len(specs) == 10
        calls = []
        for cls, name in ((MetricTree, "payload_distance"), (Subtree, "_gate")):
            def counted(self, *args, _method=getattr(cls, name), _name=name):
                calls.append(_name)
                return _method(self, *args)
            monkeypatch.setattr(cls, name, counted)
        for spec in specs:
            calls.clear()
            assert run_check(spec).passed
            assert calls == [], (spec.kind, spec.label)
        # the counters see the scalar paths
        tripod = tree_part(specs[0].space)
        p = tripod.edge_point(1, 0.5)
        distance(p, Subtree(tripod, ["o"]).project(p))
        assert calls == ["_gate", "payload_distance"]


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

    def test_tree_rows_pinned(self):
        """Every pure-tree row of the seed-1 suite, as worst defect and witness.

        A change to the tree sampler's draw stream moves these.  The two
        rows whose tree means go through a NumPy matrix product are left
        out, since BLAS builds may round that differently; the others use
        only IEEE arithmetic and min, so they read the same everywhere.
        Witness points are spelled by ``format_payload``.
        """
        got = {}
        for spec in default_suite(seed=1, samples=1000):
            if not isinstance(spec.space, MetricTree) or spec.kind in (VARIANCE_INEQ,
                                                                       COMBINATION_THEOREM):
                continue
            result = run_check(spec)
            assert all(v.space is spec.space for v in result.witness if isinstance(v, Point))
            got[spec.kind, spec.label] = (float(result.worst_defect).hex(), " ".join(
                spec.space.format_payload(v.payload) if isinstance(v, Point) else repr(v)
                for v in result.witness))
        assert got == TREE_PINS

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
