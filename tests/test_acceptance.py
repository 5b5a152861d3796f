"""Acceptance criteria, one test per criterion.

Each test pins the advertised tolerance and runtime budget and prints a
single summary line (visible with ``pytest -s`` or on failure).  The
expected values come from independent oracles computed inline: closed
forms, hand-worked tree distances, the classical two-line recursion, and
the geometric halving of the quadrant example.
"""

import io
import math
import time

import numpy as np
import pytest

from hadamard import (
    Composition,
    ConvexCombination,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    HyperbolicHalfspace,
    Hyperboloid,
    MetricTree,
    Projection,
    StopRule,
    Subtree,
    WeightedPoints,
    approximate_shadows,
    averaged_projections,
    cat0_defect,
    combination_alpha,
    composition_alpha,
    cyclic_projections,
    default_suite,
    distance,
    fold_composition_alpha,
    frechet_mean,
    geodesic_point,
    quasi_firm_defect,
    quasilinearization,
    run_suite,
    shadow_cauchy_worst_defect,
    technical_condition_gaps,
    variance_defect,
)
from hadamard import Euclidean, ProductSpace

SEED = 20240817


def report(name, elapsed, budget, detail):
    print(f"ACCEPTANCE {name}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) -- {detail}")


@pytest.fixture(scope="module")
def models():
    e3 = Euclidean(3)
    h2 = Hyperboloid(2)
    tripod = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
    caterpillar = MetricTree(
        [("v0", "v1", 1.0), ("v1", "v2", 1.5), ("v2", "v3", 0.5),
         ("v2", "v4", 2.0), ("v1", "v5", 1.0)]
    )
    product = ProductSpace(Euclidean(2), tripod)
    return {
        "euclidean3": e3,
        "hyperbolic2": h2,
        "tripod": tripod,
        "caterpillar": caterpillar,
        "euclidean-x-tripod": product,
    }


def model_tol(space):
    return 1e-7 if space.involves_hyperboloid else 1e-9


def test_criterion_01_cat0_defect_suite(models):
    start = time.perf_counter()
    worst = {}
    for name, space in models.items():
        rng = np.random.default_rng(SEED)
        tol = model_tol(space)
        low = math.inf
        for _ in range(10_000):
            x, y, z = (space.sample(rng) for _ in range(3))
            t = float(rng.uniform())
            low = min(low, cat0_defect(x, y, z, t))
        assert low >= -tol, f"{name}: worst defect {low}"
        worst[name] = low
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("1 cat0-defect", elapsed, 10,
           "10k samples/model, worst " + min(worst, key=worst.get) +
           f" {min(worst.values()):.2e}")


def test_criterion_02_cauchy_schwarz_suite(models):
    start = time.perf_counter()
    for name, space in models.items():
        rng = np.random.default_rng(SEED + 1)
        tol = model_tol(space)
        low = math.inf
        for _ in range(10_000):
            x, z, y, w = (space.sample(rng) for _ in range(4))
            defect = distance(x, z) * distance(y, w) - abs(quasilinearization(x, z, y, w))
            low = min(low, defect)
        assert low >= -tol, f"{name}: worst defect {low}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("2 cauchy-schwarz", elapsed, 10, "10k quadruples per model")


def test_criterion_03_projection_firmness(models):
    e3 = models["euclidean3"]
    h2 = models["hyperbolic2"]
    tripod = models["tripod"]
    caterpillar = models["caterpillar"]
    instances = [
        EuclideanHalfspace(e3, [0, 0, 1], 0.0, name="flat-1"),
        EuclideanHalfspace(e3, [1, 2, -1], 0.5, name="flat-2"),
        HyperbolicHalfspace(h2, [0, 1, 0], name="hyp-1"),
        HyperbolicHalfspace(h2, [0.2, 1.3, -0.4], name="hyp-2"),
        GeodesicBall(e3.point([0.5, 0, -1]), 1.5, name="ball-1"),
        GeodesicBall(h2.point([1, 0, 0]), 0.8, name="ball-2"),
        GeodesicBall(tripod.edge_point(0, 0.5), 0.75, name="ball-3"),
        Subtree(tripod, ["o", "b"], name="subtree-1"),
        Subtree(caterpillar, ["v1", "v2", "v4"], name="subtree-2"),
    ]
    start = time.perf_counter()
    for c in instances:
        rng = np.random.default_rng(SEED + 2)
        space = c.space
        op = Projection(c)
        low_firm = math.inf
        for _ in range(5_000):
            x, y = space.sample(rng), space.sample(rng)
            px, py = op.apply(x), op.apply(y)
            delta = quasilinearization(x, y, px, py)
            low_firm = min(low_firm, delta - distance(px, py) ** 2)
        assert low_firm >= -1e-9, f"{c.name}: firmness defect {low_firm}"
        low_proj = math.inf
        for _ in range(2_000):
            x = space.sample(rng)
            y = c.project(space.sample(rng))
            low_proj = min(
                low_proj,
                distance(x, y) ** 2 - distance(x, c.project(x)) ** 2
                - distance(c.project(x), y) ** 2,
            )
        assert low_proj >= -1e-9, f"{c.name}: projection defect {low_proj}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("3 projection-firmness", elapsed, 10,
           f"{len(instances)} instances x (5k firm + 2k projection) pairs")


def test_criterion_04_composition_constant(models):
    e2 = Euclidean(2)
    h2 = models["hyperbolic2"]
    caterpillar = models["caterpillar"]
    settings = {
        "euclidean-halfspaces": (
            e2,
            [EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0"),
             EuclideanHalfspace(e2, [1, 0], 0.0, name="u<=0"),
             EuclideanHalfspace(e2, [1, 1], 0.0, name="diag")],
            e2.point([-1.0, -1.0]),
        ),
        "hyperbolic-halfspaces": (
            h2,
            [HyperbolicHalfspace(h2, [0, 1, 0], name="m1"),
             HyperbolicHalfspace(h2, [0, 0, 1], name="m2"),
             HyperbolicHalfspace(h2, [0, 1, 1], name="m3")],
            h2.point([1, 0, 0]),
        ),
        "subtrees": (
            caterpillar,
            [Subtree(caterpillar, ["v0", "v1", "v2"], name="spine"),
             Subtree(caterpillar, ["v1", "v2", "v4"], name="branch"),
             Subtree(caterpillar, ["v1", "v2"], name="middle")],
            caterpillar.vertex_point("v1"),
        ),
    }
    alpha_two = composition_alpha(0.5, 0.5)
    alpha_three = fold_composition_alpha([0.5, 0.5, 0.5])
    assert alpha_two == pytest.approx(2.0 / 3.0)
    assert alpha_three == pytest.approx(3.0 / 4.0)
    start = time.perf_counter()
    for name, (space, sets, witness) in settings.items():
        two = Composition([Projection(sets[1]), Projection(sets[0])])
        three = Composition([Projection(sets[2]), Projection(sets[1]), Projection(sets[0])])
        rng = np.random.default_rng(SEED + 3)
        low2 = low3 = math.inf
        for _ in range(5_000):
            x = space.sample(rng)
            low2 = min(low2, quasi_firm_defect(two, alpha_two, x, witness))
            low3 = min(low3, quasi_firm_defect(three, alpha_three, x, witness))
        assert low2 >= -1e-8, f"{name}: two-fold defect {low2}"
        assert low3 >= -1e-8, f"{name}: three-fold defect {low3}"
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    report("4 composition-constant", elapsed, 20,
           "3 settings x 5k samples, two- and three-fold")


def test_criterion_05_combination_constant(models):
    e2 = Euclidean(2)
    tripod = models["tripod"]
    h2 = models["hyperbolic2"]
    settings = {
        "euclidean": (
            e2,
            [Projection(EuclideanHalfspace(e2, [0, 1], 0.0, name="v")),
             Projection(EuclideanHalfspace(e2, [1, 0], 0.0, name="u")),
             Projection(EuclideanHalfspace(e2, [1, 1], 0.0, name="d"))],
            e2.point([-0.5, -0.5]),
        ),
        "tripod": (
            tripod,
            [Projection(Subtree(tripod, ["o", "a"], name="leg-a")),
             Projection(Subtree(tripod, ["o", "b"], name="leg-b")),
             Projection(GeodesicBall(tripod.vertex_point("o"), 0.5, name="hub"))],
            tripod.vertex_point("o"),
        ),
        "hyperbolic": (
            h2,
            [Projection(HyperbolicHalfspace(h2, [0, 1, 0], name="m1")),
             Projection(HyperbolicHalfspace(h2, [0, 0, 1], name="m2")),
             Projection(GeodesicBall(h2.point([1, 0, 0]), 1.0, name="hub"))],
            h2.point([1, 0, 0]),
        ),
    }
    alpha = combination_alpha([0.5, 0.5, 0.5])
    assert alpha == 0.5
    start = time.perf_counter()
    for name, (space, ops, witness) in settings.items():
        combo = ConvexCombination([1 / 3] * 3, ops)
        rng = np.random.default_rng(SEED + 4)
        low = math.inf
        for _ in range(2_000):
            x = space.sample(rng)
            low = min(low, quasi_firm_defect(combo, alpha, x, witness))
        assert low >= -1e-6, f"{name}: combination defect {low}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("5 combination-constant", elapsed, 60, "3 models x 2k samples")


def test_criterion_06_barycenter_oracle_equivalence(models):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)

    # closed-form Euclidean oracle
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        space = Euclidean(dim)
        n = int(rng.integers(1, 7))
        pts = [space.sample(rng) for _ in range(n)]
        raw = rng.uniform(0.05, 1.0, n)
        weights = list(raw / raw.sum())
        wp = WeightedPoints(pts, weights)
        oracle = np.average([p.payload for p in pts], axis=0, weights=weights)
        assert np.linalg.norm(frechet_mean(wp).payload - oracle) <= 1e-6

    # two-point instances in every model
    for space in models.values():
        for _ in range(100):
            p, q = space.sample(rng), space.sample(rng)
            s = float(rng.uniform())
            mean = frechet_mean(WeightedPoints([p, q], [1 - s, s]))
            assert distance(mean, geodesic_point(p, q, s)) <= 1e-9

    # the symmetric tree instance lands on the center
    tripod = models["tripod"]
    thirds = WeightedPoints([tripod.vertex_point(v) for v in "abc"], [1 / 3] * 3)
    assert distance(frechet_mean(thirds), tripod.vertex_point("o")) <= 1e-8

    # variance bound against random challengers, per solved instance
    challenger_rng = np.random.default_rng(SEED + 6)
    for space in models.values():
        for _ in range(5):
            n = int(challenger_rng.integers(2, 6))
            pts = [space.sample(challenger_rng) for _ in range(n)]
            raw = challenger_rng.uniform(0.05, 1.0, n)
            wp = WeightedPoints(pts, list(raw / raw.sum()))
            mean = frechet_mean(wp)
            for _ in range(1_000):
                y = space.sample(challenger_rng)
                assert variance_defect(wp, mean, y) >= -1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("6 barycenter-oracles", elapsed, 60,
           "100 flat + 500 two-point instances, 25 variance instances x 1k challengers")


def two_line_setup():
    e2 = Euclidean(2)
    theta = math.pi / 4
    l1 = EuclideanHyperplane(e2, [0, 1], 0.0, name="L1")
    l2 = EuclideanHyperplane(e2, [-math.sin(theta), math.cos(theta)], 0.0, name="L2")
    return e2, theta, l1, l2


def test_criterion_07_cyclic_two_lines():
    start = time.perf_counter()
    e2, theta, l1, l2 = two_line_setup()
    origin = e2.point([0.0, 0.0])
    trace = cyclic_projections([l1, l2], e2.point([1.0, 0.0]),
                               StopRule(max_iter=120, residual_tol=1e-12),
                               witness=origin)
    # independent oracle: radius cos(theta)^(n-1) after landing n >= 2
    for n, p in enumerate(trace.points[1:], start=1):
        r = 1.0 if n == 1 else math.cos(theta) ** (n - 1)
        direction = (np.array([math.cos(theta), math.sin(theta)])
                     if n % 2 == 0 else np.array([1.0, 0.0]))
        if n == 1:
            direction = np.array([1.0, 0.0])
        assert np.allclose(p.payload, r * direction, atol=1e-12)
    cycles = trace.iterations // 2
    assert cycles <= 60
    assert distance(trace.final_point, origin) <= 1e-6
    per_cycle = [r for r in trace.residuals[::2] if r > 1e-13]
    ratios = [b / a for a, b in zip(per_cycle[3:], per_cycle[4:])]
    assert ratios, "need at least one ratio after cycle 3"
    for ratio in ratios:
        assert abs(ratio - 0.5) <= 0.05 * 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("7 cyclic-two-lines", elapsed, 1,
           f"{cycles} cycles, final offset {distance(trace.final_point, origin):.2e}")


def quadrant_setup():
    e2 = Euclidean(2)
    sets = [EuclideanHalfspace(e2, [0, 1], 0.0, name="v<=0"),
            EuclideanHalfspace(e2, [1, 0], 0.0, name="u<=0")]
    return e2, sets


def test_criterion_08_averaged_projections():
    start = time.perf_counter()
    e2, sets = quadrant_setup()
    trace = averaged_projections(sets, e2.point([1.0, 1.0]),
                                 StopRule(max_iter=30, residual_tol=1e-16),
                                 witness=e2.point([0.0, 0.0]))
    assert trace.iterations == 30
    for n, p in enumerate(trace.points):
        assert np.allclose(p.payload, [2.0**-n, 2.0**-n], atol=1e-10), f"iterate {n}"

    tripod = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
    legs = [Subtree(tripod, ["o", "a"], name="leg-a"),
            Subtree(tripod, ["o", "b"], name="leg-b")]
    tree_trace = averaged_projections(legs, tripod.vertex_point("c"), StopRule(max_iter=10))
    assert tree_trace.iterations == 1
    assert tree_trace.final_point == tripod.vertex_point("o")
    assert tree_trace.stop_reason == "converged"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("8 averaged-projections", elapsed, 1,
           "quadrant halving to n=30 at 1e-10; tree gate in 1 step")


def test_criterion_09_fejer_and_shadow_diagnostics():
    start = time.perf_counter()
    e2, theta, l1, l2 = two_line_setup()
    origin = e2.point([0.0, 0.0])
    cyclic_trace = cyclic_projections([l1, l2], e2.point([1.0, 0.0]),
                                      StopRule(max_iter=120, residual_tol=1e-12),
                                      witness=origin)
    _, quadrant_sets = quadrant_setup()
    averaged_trace = averaged_projections(quadrant_sets, e2.point([1.0, 1.0]),
                                          StopRule(max_iter=30, residual_tol=1e-11),
                                          witness=origin)
    tripod = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
    legs = [Subtree(tripod, ["o", "a"], name="leg-a"),
            Subtree(tripod, ["o", "b"], name="leg-b")]
    tree_trace = averaged_projections(legs, tripod.vertex_point("c"),
                                      StopRule(max_iter=10),
                                      witness=tripod.vertex_point("o"))
    runs = [("two-lines", cyclic_trace, [l1, l2]),
            ("quadrant", averaged_trace, quadrant_sets),
            ("tree", tree_trace, legs)]
    for name, trace, sets in runs:
        assert all(g >= -1e-10 for g in trace.fejer_gaps), name
        assert shadow_cauchy_worst_defect(approximate_shadows(trace, sets)) >= -1e-9, name
        gaps = technical_condition_gaps(trace)
        assert max(gaps) <= 1e-6, f"{name}: largest monitored gap {max(gaps)}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("9 fejer-shadow-diagnostics", elapsed, 1,
           "3 traces: gaps >= -1e-10, shadow Cauchy >= -1e-9, every gap <= 1e-6")


def test_criterion_10_determinism():
    start = time.perf_counter()
    outputs = []
    for _ in range(2):
        report_obj = run_suite(default_suite(seed=SEED, samples=400), suite_seed=SEED)
        buf = io.StringIO()
        report_obj.to_csv(buf)
        outputs.append(buf.getvalue().encode())
        assert report_obj.passed
    assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    report("10 determinism", elapsed, 60,
           f"default suite rerun byte-identical ({len(outputs[0])} bytes)")
