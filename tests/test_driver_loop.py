"""The projection drivers check their inputs once, at the boundary.

Inside the loop every point is a projection or a mean that a library
kernel built from checked inputs, so the loop measures payloads and
solves means without repeating the space, point and weight checks.
These tests hold it to the public checked calls bit for bit, show that
the checks are not repeated per iterate, and show that the checks a
kernel output still needs (the coordinate bound) are still made.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadamard.barycenter as barycenter
import hadamard.geometry as geometry
import hadamard.iterations as iterations
from hadamard import (
    ConvergenceFailureError,
    Euclidean,
    EuclideanHalfspace,
    EuclideanHyperplane,
    HyperbolicHalfspace,
    Hyperboloid,
    IterationTrace,
    ProductSet,
    ProductSpace,
    SpaceMismatchError,
    StopRule,
    Subtree,
    WeightedPoints,
    approximate_shadows,
    averaged_projections,
    cyclic_projections,
    distance,
    frechet_mean,
    halfspace_residual,
    parse_scenario,
)
from hadamard.cli import main
from hadamard.errors import InvalidPointError
from hadamard.metric_tree import TreeLocation


def reference_run(sets, x0, rule, weights=None):
    """``_projection_run`` step by step through ``project``, ``distance`` and ``frechet_mean``.

    Returns the points, residuals, steps and stop reason.  Each image is
    projected again rather than reused, and every iterate measures its
    step and residual, also when the projection returned its input; a
    projection is deterministic, so that changes no bit.
    """
    flat = halfspace_residual(sets)

    def measure(x):
        if flat is not None:
            return flat(x.payload)
        return max(distance(x, c.project(x)) for c in sets)

    points, residuals, steps = [x0], [measure(x0)], []
    if residuals[0] <= rule.residual_tol:
        return points, residuals, steps, "converged"
    k = len(sets) if weights is None else 1
    for n in range(1, rule.max_iter + 1):
        x = points[-1]
        if weights is None:
            nxt = sets[(n - 1) % len(sets)].project(x)
        else:
            nxt = frechet_mean(WeightedPoints([c.project(x) for c in sets], weights))
        steps.append(distance(x, nxt))
        points.append(nxt)
        residuals.append(measure(nxt))
        if residuals[-1] <= rule.residual_tol:
            return points, residuals, steps, "converged"
        if n % k == 0:
            moved = steps[-1] if k == 1 else distance(points[-1], points[-1 - k])
            if moved <= rule.stall_tol:
                return points, residuals, steps, "stalled"
    return points, residuals, steps, "maxiter"


def bits(point):
    """A point's payload in a form whose ``==`` compares every bit."""
    payload = point.payload
    if isinstance(payload, np.ndarray):
        return payload.dtype, payload.shape, payload.tobytes()
    if isinstance(payload, TreeLocation):
        return payload.edge, payload.offset.hex()
    return tuple(bits(p) for p in payload)


def hex_list(values):
    return [float(v).hex() for v in values]


def _wedge_h2(h2, theta=1.0):
    """Three halfspaces through the apex; x0 violates the first two."""
    n1 = np.array([0.0, 1.0, 0.0])
    n2 = np.array([0.0, -math.cos(theta), math.sin(theta)])
    sets = [HyperbolicHalfspace(h2, n1, "S1"), HyperbolicHalfspace(h2, n2, "S2"),
            HyperbolicHalfspace(h2, -(0.6 * n1 + 0.4 * n2), "S3")]
    inside = math.pi / 2 - theta / 2
    x0 = h2.exp_from_base([math.cos(inside), math.sin(inside)])
    return sets, x0


@pytest.fixture
def runs(e2, e3, h2, tripod, product):
    """Five runs: (algorithm, sets, x0, witness, rule, weights)."""
    planes = [EuclideanHyperplane(e3, [0, 1, 0], 0.0, name="P1"),
              EuclideanHyperplane(e3, [-math.sin(0.5), math.cos(0.5), 0], 0.0, name="P2"),
              EuclideanHalfspace(e3, [0, 0, 1], 0.0, name="z<=0"),
              EuclideanHalfspace(e3, [1, 1, 1], 0.5, name="sum<=0.5")]
    lines = [EuclideanHyperplane(e2, [0, 1], 0.0, name="L1"),
             EuclideanHyperplane(e2, [-math.sin(0.7), math.cos(0.7)], 0.0, name="L2")]
    h2_sets, h2_x0 = _wedge_h2(h2)
    legs = [Subtree(tripod, ["o", "a"], name="leg-a"), Subtree(tripod, ["o", "b"], name="leg-b")]
    o = tripod.vertex_point("o")
    factors = [(EuclideanHyperplane(e2, [0, 1], 0.0), Subtree(tripod, ["o", "a"])),
               (EuclideanHyperplane(e2, [-math.sin(0.9), math.cos(0.9)], 0.0),
                Subtree(tripod, ["o", "b"])),
               (EuclideanHalfspace(e2, [1, 0], 0.0), Subtree(tripod, ["o", "a", "c"]))]
    product_sets = [ProductSet(product, left, right) for left, right in factors]
    return {
        "e3-halfspaces-cyclic": ("cyclic", planes, e3.point([2.0, 1.5, 1.0]),
                                 e3.point([0, 0, 0]), StopRule(max_iter=500), None),
        "e2-lines-averaged": ("averaged", lines, e2.point([1.0, 2.0]), e2.point([0, 0]),
                              StopRule(max_iter=500, residual_tol=1e-10), (0.3, 0.7)),
        "h2-halfspaces-averaged": ("averaged", h2_sets, h2_x0, h2.base_point(),
                                   StopRule(max_iter=500, residual_tol=1e-6), (0.25, 0.25, 0.5)),
        "tripod-subtrees-cyclic": ("cyclic", legs, tripod.point((0, 0.75)), o,
                                   StopRule(max_iter=50), None),
        "product-sets-averaged": ("averaged", product_sets,
                                  product.point((e2.point([1.5, 0.5]), tripod.point((0, 0.8)))),
                                  product.point((e2.point([0, 0]), o)),
                                  StopRule(max_iter=500), (0.5, 0.25, 0.25)),
    }


def _run(algorithm, sets, x0, witness, rule, weights):
    if algorithm == "cyclic":
        return cyclic_projections(sets, x0, rule, witness=witness)
    return averaged_projections(sets, x0, rule, weights=weights, witness=witness)


class TestCheckedReference:
    """Every number of a run equals the public checked calls' bit for bit."""

    @pytest.mark.parametrize("case", ["e3-halfspaces-cyclic", "e2-lines-averaged",
                                      "h2-halfspaces-averaged", "tripod-subtrees-cyclic",
                                      "product-sets-averaged"])
    def test_run_is_the_checked_reference(self, runs, case):
        algorithm, sets, x0, witness, rule, weights = runs[case]
        trace = _run(algorithm, sets, x0, witness, rule, weights)
        # the tripod run stops after a zero step and a step to the centre
        assert trace.iterations >= 2
        points, residuals, steps, stop_reason = reference_run(sets, x0, rule, weights)
        assert trace.stop_reason == stop_reason
        assert [bits(p) for p in trace.points] == [bits(p) for p in points]
        assert hex_list(trace.residuals) == hex_list(residuals)
        assert hex_list(trace.steps) == hex_list(steps)
        dists = [distance(x, witness) for x in points]
        assert hex_list(trace.fejer_gaps) == hex_list(
            [dists[n - 1] - dists[n] for n in range(1, len(dists))])

        approximate_shadows(trace, sets)
        inner_rule = StopRule(max_iter=100000, residual_tol=1e-10)
        shadows = [reference_run(sets, x, inner_rule)[0][-1] for x in points]
        assert [bits(s) for s in trace.shadows] == [bits(s) for s in shadows]
        assert hex_list(trace.shadow_distances()) == hex_list(
            [distance(x, s) for x, s in zip(points, shadows)])


class TestChecksOnce:
    """Counters show that no check runs once per iterate."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"point": 0, "check_same_space": 0, "convex_weights": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(geometry.SpaceModel, "point",
                            counted("point", geometry.SpaceModel.point))
        # the functions are bound by name in each module that imports them
        modules = [m for n, m in sys.modules.items() if n.startswith("hadamard.")]
        for name, original in (("check_same_space", geometry.check_same_space),
                               ("convex_weights", barycenter.convex_weights)):
            wrapper = counted(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, wrapper)
        return counts

    @pytest.fixture
    def flat(self, e2):
        lines = [EuclideanHyperplane(e2, [0, 1], 0.0, name="L1"),
                 EuclideanHyperplane(e2, [-math.sin(0.5), math.cos(0.5)], 0.0, name="L2")]
        return cyclic_projections, lines, e2.point([1, 2]), e2.point([0, 0])

    @pytest.fixture
    def hyperbolic(self, h2):
        sets, x0 = _wedge_h2(h2)
        return averaged_projections, sets, x0, h2.base_point()

    @pytest.mark.parametrize("run", ["flat", "hyperbolic"])
    def test_no_check_per_iterate(self, run, counts, request):
        driver, sets, x0, witness = request.getfixturevalue(run)
        seen = []
        for max_iter in (3, 500):
            for key in counts:
                counts[key] = 0
            trace = driver(sets, x0, StopRule(max_iter=max_iter, residual_tol=1e-6),
                           witness=witness)
            trace.fejer_gaps
            seen.append(dict(counts))
        assert trace.stop_reason == "converged" and trace.iterations > 10
        # a long run makes the same checks as a 3-iterate one
        assert seen[0] == seen[1]
        assert seen[1]["point"] == 0
        assert seen[1]["convex_weights"] == (driver is averaged_projections)
        # the witness against x0, the witness fixed by each projection, the gaps
        assert seen[1]["check_same_space"] <= 2 + len(sets)


class TestKernelOutputBound:
    """A kernel output past the coordinate bound still raises, as a checked point did."""

    @pytest.fixture
    def far(self):
        e2 = Euclidean(2)
        return ([EuclideanHyperplane(e2, [1, 0], 1e200, name="far"),
                 EuclideanHyperplane(e2, [0, 1], 0.0, name="axis")], e2.point([0.0, 1.0]))

    @pytest.mark.parametrize("driver", [cyclic_projections, averaged_projections])
    def test_drivers_raise(self, far, driver):
        sets, x0 = far
        with pytest.raises(InvalidPointError, match="at most 1e[+]150"):
            driver(sets, x0, StopRule(max_iter=10))

    def test_cli_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        scn = tmp_path / "far.scn"
        scn.write_text("[space]\nkind = euclidean\ndim = 2\n\n"
                       "[set far]\nkind = hyperplane\nnormal = 1,0\noffset = 1e200\n\n"
                       "[set axis]\nkind = hyperplane\nnormal = 0,1\noffset = 0\n\n"
                       "[run]\nalgorithm = cyclic\nsets = far,axis\nx0 = 0,1\n"
                       "max_iter = 10\noutput = far.csv\n", encoding="utf-8")
        assert main(["run", str(scn)]) == 2
        assert "at most 1e+150" in capsys.readouterr().err
        assert not (tmp_path / "far.csv").exists()


def _family(kind, rng, caterpillar, tripod):
    """Sets and a start of one family; many sets hold the start or later iterates.

    Flat: halfspaces that mostly hold the origin, and hyperplanes through
    it.  Hyperbolic: halfspaces whose boundaries pass near the apex.
    Subtrees: connected vertex sets of the caterpillar.  Products: a flat
    halfspace times a tripod leg, whose projection never returns its input.
    """
    if kind == "flat":
        space = Euclidean(int(rng.integers(2, 5)))
        sets = []
        for k in range(int(rng.integers(1, 5))):
            normal = rng.standard_normal(space.dim)
            if rng.uniform() < 0.4:
                sets.append(EuclideanHyperplane(space, normal, 0.0, name=f"P{k}"))
            else:
                sets.append(EuclideanHalfspace(space, normal, rng.uniform(-0.5, 2.0),
                                               name=f"H{k}"))
        return sets, space.point(2.0 * rng.standard_normal(space.dim))
    if kind == "hyperbolic":
        space = Hyperboloid(int(rng.integers(2, 4)))
        sets = []
        for k in range(int(rng.integers(1, 4))):
            u = rng.standard_normal(space.dim)
            u /= np.linalg.norm(u)
            sets.append(HyperbolicHalfspace(space, [rng.uniform(-0.3, 0.8), *u], name=f"S{k}"))
        return sets, space.exp_from_base(rng.standard_normal(space.dim))
    if kind == "subtree":
        tree = caterpillar
        choices = [["v0", "v1"], ["v1", "v2", "v4"], ["v2", "v3"], ["v1", "v5"], ["v2"],
                   ["v0", "v1", "v2", "v3"], ["v4"]]
        picks = rng.choice(len(choices), size=int(rng.integers(1, 4)), replace=False)
        sets = [Subtree(tree, choices[i], name=f"T{i}") for i in picks]
        return sets, tree.sample(rng)
    flat = Euclidean(2)
    space = ProductSpace(flat, tripod)
    legs = [["o", "a"], ["o", "b"], ["o", "a", "c"]]
    sets = [ProductSet(space, EuclideanHalfspace(flat, rng.standard_normal(2), rng.uniform(0, 1)),
                       Subtree(tripod, legs[k % 3]), name=f"Q{k}")
            for k in range(int(rng.integers(1, 4)))]
    return sets, space.point((flat.point(rng.standard_normal(2)), tripod.sample(rng)))


class TestUnchangedInput:
    """A projection that returns its input costs no step and no residual.

    The loop then records a step of exactly 0.0, which ``distance(x, x)``
    is in every model, and keeps the residual and images it has; the
    traces equal a reference that measures every iterate.
    """

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["flat", "hyperbolic", "subtree", "product"]),
           algorithm=st.sampled_from(["cyclic", "averaged"]), seed=st.integers(0, 2**32 - 1))
    def test_trace_is_the_reference(self, caterpillar, tripod, kind, algorithm, seed):
        rng = np.random.default_rng(seed)
        sets, x0 = _family(kind, rng, caterpillar, tripod)
        rule = StopRule(max_iter=int(rng.integers(1, 60)),
                        residual_tol=float(rng.choice([0.0, 1e-9, 1e-6])),
                        stall_tol=float(rng.choice([0.0, 1e-12, 1e-4])))
        weights = None
        if algorithm == "averaged":
            raw = rng.uniform(0.1, 1.0, len(sets))
            weights = tuple((raw / raw.sum()).tolist())
        try:
            trace = _run(algorithm, sets, x0, None, rule, weights)
        except ConvergenceFailureError:
            # a hyperbolic mean at its sweep cap fails the reference too
            with pytest.raises(ConvergenceFailureError):
                reference_run(sets, x0, rule, weights)
            return
        points, residuals, steps, stop_reason = reference_run(sets, x0, rule, weights)
        assert trace.stop_reason == stop_reason
        assert [bits(p) for p in trace.points] == [bits(p) for p in points]
        assert hex_list(trace.residuals) == hex_list(residuals)
        assert hex_list(trace.steps) == hex_list(steps)

    @pytest.fixture
    def wedge(self):
        """Two planes through the origin of E4 and three halfspaces holding a ball around it."""
        e4 = Euclidean(4)
        rng = np.random.default_rng(26)
        planes = [EuclideanHyperplane(e4, [0, 1, 0, 0], 0.0, name="P1"),
                  EuclideanHyperplane(e4, [-math.sin(0.8), math.cos(0.8), 0, 0], 0.0, name="P2")]
        halves = [EuclideanHalfspace(e4, rng.standard_normal(4), 50.0, name=f"H{k}")
                  for k in range(3)]
        return [planes[0], halves[0], halves[1], planes[1], halves[2]], e4.point([1, 2, 0.5, 0])

    def test_unchanged_iterates_skip_the_residual_and_step(self, wedge, monkeypatch):
        sets, x0 = wedge
        counts = {"residual": 0, "distance": 0}

        def counted_residual(family):
            residual = halfspace_residual(family)

            def wrapper(x):
                counts["residual"] += 1
                return residual(x)
            return wrapper

        def counted_distance(self, a, b, original=Euclidean.payload_distance):
            counts["distance"] += 1
            return original(self, a, b)

        monkeypatch.setattr(iterations, "halfspace_residual", counted_residual)
        monkeypatch.setattr(Euclidean, "payload_distance", counted_distance)
        trace = cyclic_projections(sets, x0, StopRule(max_iter=2000))
        assert trace.stop_reason == "converged"
        moved = sum(1 for a, b in zip(trace.points, trace.points[1:]) if b is not a)
        # three of every five iterates already lie in their set
        assert trace.steps.count(0.0) == trace.iterations - moved > trace.iterations // 2
        assert counts["residual"] == 1 + moved
        # one step per moved iterate, and one displacement per full cycle
        # but the converged last one
        cycles = trace.iterations // len(sets) - (trace.iterations % len(sets) == 0)
        assert counts["distance"] == moved + cycles

        points, residuals, steps, stop_reason = reference_run(sets, x0, StopRule(max_iter=2000))
        assert [bits(p) for p in trace.points] == [bits(p) for p in points]
        assert hex_list(trace.residuals) == hex_list(residuals)
        assert hex_list(trace.steps) == hex_list(steps)


class TestShadowSolves:
    """Shadow solves run the drivers' loop once per iterate, checking the sets once per trace."""

    @pytest.mark.parametrize("case", ["e3-halfspaces-cyclic", "e2-lines-averaged",
                                      "h2-halfspaces-averaged", "tripod-subtrees-cyclic",
                                      "product-sets-averaged"])
    def test_shadow_is_the_cyclic_run_from_the_iterate(self, runs, case):
        algorithm, sets, x0, witness, rule, weights = runs[case]
        trace = approximate_shadows(_run(algorithm, sets, x0, witness, rule, weights), sets)
        inner_rule = StopRule(max_iter=100000, residual_tol=1e-10)
        for x, shadow in zip(trace.points, trace.shadows):
            assert bits(shadow) == bits(cyclic_projections(sets, x, inner_rule).final_point)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unrecorded_flat_run_is_the_cyclic_run(self, seed):
        """As ``approximate_shadows`` calls it: the same last point, stop reason and residual.

        The run steps payloads: no set's ``project`` runs, and it makes at
        most one point, its last iterate.
        """
        rng = np.random.default_rng(seed)
        sets, x0 = _family("flat", rng, None, None)
        if rng.uniform() < 0.2:
            # parallel hyperplanes 1 apart: the run stalls or hits the cap
            normal = rng.standard_normal(x0.space.dim)
            sets = [EuclideanHyperplane(x0.space, normal, c * np.linalg.norm(normal))
                    for c in (0.0, 1.0)]
        rule = StopRule(max_iter=int(rng.integers(1, 300)),
                        residual_tol=float(rng.choice([0.0, 1e-10, 1e-6])),
                        stall_tol=float(rng.choice([0.0, 1e-12, 1e-4])))
        want = cyclic_projections(sets, x0, rule)
        calls = {"project": 0, "_wrap": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EuclideanHalfspace, "project",
                          counted("project", EuclideanHalfspace.project))
            patch.setattr(geometry.CoordinateSpace, "_wrap",
                          counted("_wrap", geometry.CoordinateSpace._wrap))
            last, residuals, steps, stop_reason = iterations._iterate(
                sets, halfspace_residual(sets), x0, rule, None, False)
        assert stop_reason == want.stop_reason
        assert len(last) == 1 and bits(last[0]) == bits(want.final_point)
        assert hex_list(residuals) == hex_list([want.final_residual])
        assert steps == []
        assert calls["project"] == 0 and calls["_wrap"] <= 1

    def test_narrow_lines_shadows_are_the_cyclic_runs(self):
        """The shipped scenario whose shadow solves run up to about 200 iterates."""
        path = Path(__file__).resolve().parents[1] / "scenarios" / "cyclic_two_lines_narrow.scn"
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        sets = [scenario.sets[n] for n in scenario.run_sets]
        trace = cyclic_projections(sets, scenario.x0, scenario.stop)
        assert trace.iterations > 200
        approximate_shadows(trace, sets)
        inner_rule = StopRule(max_iter=100000, residual_tol=1e-10)
        for x, shadow in zip(trace.points[::10], trace.shadows[::10]):
            assert bits(shadow) == bits(cyclic_projections(sets, x, inner_rule).final_point)

    def test_one_check_and_one_residual_per_trace(self, runs, monkeypatch):
        algorithm, sets, x0, witness, rule, weights = runs["e2-lines-averaged"]
        trace = _run(algorithm, sets, x0, witness, rule, weights)
        calls = {"cyclic_projections": 0, "_run_sets": 0, "halfspace_residual": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(iterations, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(iterations, name, counted)
        approximate_shadows(trace, sets)
        assert trace.iterations > 10
        assert calls == {"cyclic_projections": 0, "_run_sets": 1, "halfspace_residual": 1}

    def test_inner_solve_that_stalls_raises(self, e2):
        """Disjoint lines: the inner solve stalls, and the error carries its last point."""
        lines = [EuclideanHyperplane(e2, [0, 1], 0.0), EuclideanHyperplane(e2, [0, 1], 1.0)]
        trace = IterationTrace([e2.point([0.0, 3.0])], [0.0], [], "converged")
        with pytest.raises(ConvergenceFailureError, match="stopped with 'stalled' at residual "
                                                          "1.000e[+]00") as info:
            approximate_shadows(trace, lines)
        assert info.value.last_point == e2.point([0.0, 1.0])
        assert trace.shadows is None

    def test_points_of_another_space_rejected(self, e2, e3):
        half = EuclideanHalfspace(e2, [0, 1], 0.0)
        trace = IterationTrace([e2.point([0, 0]), e3.point([0, 0, 0])], [0.0, 0.0], [0.0],
                               "converged")
        with pytest.raises(SpaceMismatchError):
            approximate_shadows(trace, [half])
