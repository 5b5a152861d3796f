"""Typed errors: malformed inputs and out-of-scope arguments raise a ``HadamardError``.

Each table row names the error type and a fragment of its message.  The
first table holds inputs whose conversion or comparison used to end in a
bare ``ValueError``, ``TypeError``, ``OverflowError``, ``AttributeError`` or
``KeyError``, or that used to be accepted as another type (a bool as a
number, an array or a ``Decimal`` as a tolerance); the second
holds typed branches that no other test reaches, and the
hyperbolic halfspace's space check beside its flat twin.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import hadamard.geometry as geometry
from hadamard import (
    CheckSpec,
    Composition,
    ConvexCombination,
    Euclidean,
    EuclideanHalfspace,
    GeodesicBall,
    HyperbolicHalfspace,
    Hyperboloid,
    Identity,
    IterationTrace,
    MetricTree,
    Pointwise,
    ProductSet,
    ProductSpace,
    Projection,
    StopRule,
    Subtree,
    TreeEdge,
    WeightedPoints,
    alpha_firm_defect,
    approximate_shadows,
    averaged_projections,
    cat0_defect,
    combination_alpha,
    composition_alpha,
    cyclic_projections,
    discrepancy,
    distance,
    fixed_point_iterate,
    fold_composition_alpha,
    frechet_mean,
    frechet_objective,
    geodesic_point,
    inductive_mean_sweeps,
    minkowski,
    parse_edge_list,
    parse_scenario,
    projection_defect,
    quasi_firm_defect,
    reevaluate_witness,
    run_check,
    run_suite,
    shadow_cauchy_worst_defect,
    technical_condition_gaps,
)
from hadamard.certifier import CAT0, FEJER_RUN, PROJECTION_INEQ, space_suite
from hadamard.errors import (
    CheckSpecError,
    ConstructionError,
    ConvergenceFailureError,
    DomainError,
    EdgeListError,
    InvalidPointError,
    ScenarioError,
    SpaceMismatchError,
)
from hadamard.geometry import Point, SpaceModel
from hadamard.scenario import parse_point_spec, point_spec

E2 = Euclidean(2)
H2 = Hyperboloid(2)
TRIPOD = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
P, Q = E2.point([0.0, 0.0]), E2.point([1.0, 0.0])
HALF = EuclideanHalfspace(E2, [0.0, 1.0], 0.0)
PQ = WeightedPoints([P, Q], [0.5, 0.5])


class Opaque(SpaceModel):
    """A space model that the scenario format has no point syntax for."""

    __slots__ = ()

    def describe(self):
        return "Opaque"


MALFORMED = {
    "stoprule-tol-text": (ConstructionError, "residual_tol",
                          lambda: StopRule(max_iter=5, residual_tol="1e-3")),
    "stoprule-tol-none": (ConstructionError, "residual_tol",
                          lambda: StopRule(max_iter=5, residual_tol=None)),
    "euclidean-dim-none": (ConstructionError, "dimension", lambda: Euclidean(None)),
    "euclidean-dim-inf": (ConstructionError, "dimension", lambda: Euclidean(float("inf"))),
    "tree-length-text": (ConstructionError, "numeric length",
                         lambda: MetricTree([("a", "b", "x")])),
    "tree-edge-pair": (ConstructionError, "triple", lambda: MetricTree([("a", "b")])),
    "halfspace-normal-text": (ConstructionError, "real numbers",
                              lambda: EuclideanHalfspace(E2, ["a", 1], 0)),
    "halfspace-offset-text": (ConstructionError, "real numbers",
                              lambda: EuclideanHalfspace(E2, [0, 1], "x")),
    # the normal's squared norm overflowed, with a RuntimeWarning, before its check
    "halfspace-normal-overflow": (ConstructionError, "at most 1e+150 in magnitude",
                                  lambda: EuclideanHalfspace(E2, [1e160, 1e160], 0)),
    "hyperbolic-normal-text": (ConstructionError, "real numbers",
                               lambda: HyperbolicHalfspace(H2, ["a", 0, 1])),
    # a normal whose squared norm rounds to 0 or overflows was called zero or not spacelike
    "halfspace-normal-underflow": (ConstructionError, "squared norm that underflows to 0",
                                   lambda: EuclideanHalfspace(E2, [1e-300, 1e-300], 1)),
    "hyperbolic-normal-overflow": (ConstructionError, "m(u, u) that overflows",
                                   lambda: HyperbolicHalfspace(H2, [0, 1e200, 0])),
    "hyperbolic-normal-underflow": (ConstructionError, "m(u, u) that underflows to 0",
                                    lambda: HyperbolicHalfspace(H2, [0, 1e-200, 0])),
    "hyperbolic-normal-nan": (ConstructionError, "normal must be finite",
                              lambda: HyperbolicHalfspace(H2, [0, math.nan, 1])),
    # and the causes those messages still name
    "halfspace-normal-zero": (ConstructionError, "normal must be nonzero",
                              lambda: EuclideanHalfspace(E2, [0.0, -0.0], 1)),
    "hyperbolic-normal-lightlike": (ConstructionError, "must be spacelike",
                                    lambda: HyperbolicHalfspace(H2, [1, 1, 0])),
    "ball-radius-text": (ConstructionError, "radius", lambda: GeodesicBall(P, "abc")),
    "subtree-vertices-int": (ConstructionError, "list of names", lambda: Subtree(TRIPOD, 5)),
    "subtree-vertices-str": (ConstructionError, "list of names", lambda: Subtree(TRIPOD, "oa")),
    "weights-text": (ConstructionError, "weights", lambda: WeightedPoints([P], ["a"])),
    "combination-weights-text": (ConstructionError, "weights",
                                 lambda: ConvexCombination(["a"], [Identity()])),
    "euclidean-point-text": (InvalidPointError, "real numbers", lambda: E2.point(["a", 1])),
    "euclidean-point-huge-int": (InvalidPointError, "real numbers",
                                 lambda: E2.point([10**400, 1])),
    "tree-offset-text": (InvalidPointError, "numeric offset", lambda: TRIPOD.point((0, "a"))),
    "tree-edge-none": (InvalidPointError, "integer edge", lambda: TRIPOD.point((None, 0.5))),
    "tree-edge-fraction": (InvalidPointError, "integer edge", lambda: TRIPOD.point((1.5, 0.2))),
    "tree-edge-bool": (InvalidPointError, "integer edge", lambda: TRIPOD.point((True, 0.2))),
    "tangent-text": (InvalidPointError, "real numbers", lambda: H2.exp_from_base(["a", 1])),
    "geodesic-t-text": (DomainError, "[0, 1]", lambda: geodesic_point(P, Q, "a")),
    "cat0-t-text": (DomainError, "[0, 1]", lambda: cat0_defect(P, Q, P, "a")),
    "step-tol-text": (DomainError, "step_tol",
                      lambda: frechet_mean(WeightedPoints([P, Q], [0.5, 0.5]), "x")),
    "edge-list-none": (EdgeListError, "must be text", lambda: parse_edge_list(None)),
    "ball-center-text": (ConstructionError, "center must be a point",
                         lambda: GeodesicBall("x", 1.0)),
    "weighted-point-text": (SpaceMismatchError, "not a point", lambda: WeightedPoints(["a"], [1.0])),
    "distance-point-text": (SpaceMismatchError, "not a point", lambda: distance(P, "a")),
    "geodesic-point-text": (SpaceMismatchError, "not a point", lambda: geodesic_point(P, "a", 0.5)),
    "project-point-text": (SpaceMismatchError, "not a point", lambda: HALF.project("a")),
    "cyclic-start-text": (SpaceMismatchError, "not a point", lambda: cyclic_projections(
        [HALF], "a", StopRule(max_iter=5))),
    "cyclic-set-text": (ConstructionError, "of type ConvexSet", lambda: cyclic_projections(
        [HALF, "b"], P, StopRule(max_iter=5))),
    "cyclic-sets-int": (ConstructionError, "list of convex sets", lambda: cyclic_projections(
        5, P, StopRule(max_iter=5))),
    "cyclic-rule-int": (ConstructionError, "of type StopRule",
                        lambda: cyclic_projections([HALF], P, 10)),
    # a NaN residual passed the check, and steps went unchecked: to_csv wrote them
    "trace-nan-residual": (ConstructionError, "residuals must be nonnegative, got nan",
                           lambda: IterationTrace([P, P], [math.nan, 0.0], [0.0], "converged")),
    "trace-negative-step": (ConstructionError, "steps must be nonnegative, got -1.0",
                            lambda: IterationTrace([P, P], [0.0, 0.0], [-1.0], "converged")),
    "trace-nan-step": (ConstructionError, "steps must be nonnegative, got nan",
                       lambda: IterationTrace([P, P], [0.0, 0.0], [math.nan], "converged")),
    "shadow-set-text": (ConstructionError, "of type ConvexSet", lambda: approximate_shadows(
        IterationTrace([P], [0.0], [], "converged"), ["s"])),
    "fixed-point-op-text": (ConstructionError, "of type Operator",
                            lambda: fixed_point_iterate("op", P, StopRule(max_iter=5))),
    "mean-of-list": (ConstructionError, "WeightedPoints", lambda: frechet_mean([P])),
    "averaged-weights-str": (ConstructionError, "weights", lambda: averaged_projections(
        [HALF], P, StopRule(max_iter=5), weights="1")),
    "weights-str": (ConstructionError, "weights", lambda: WeightedPoints([P], "1")),
    "weights-int": (ConstructionError, "weights", lambda: WeightedPoints([P], 1)),
    "combination-weights-str": (ConstructionError, "weights",
                                lambda: ConvexCombination("1", [Identity()])),
    "combination-weights-int": (ConstructionError, "weights",
                                lambda: ConvexCombination(1, [Identity()])),
    "normalize-spacelike": (DomainError, "timelike", lambda: H2.normalize([0.0, 1.0, 0.0])),
    "minkowski-lengths": (DomainError, "one length",
                          lambda: minkowski([1.0, 0.0, 0.0], [1.0, 0.0])),
    # a bool is not a number argument, nor a float a dimension
    "euclidean-dim-bool": (ConstructionError, "dimension", lambda: Euclidean(True)),
    "euclidean-dim-numpy-bool": (ConstructionError, "dimension", lambda: Euclidean(np.True_)),
    "euclidean-dim-float": (ConstructionError, "dimension", lambda: Euclidean(2.0)),
    "hyperboloid-dim-bool": (ConstructionError, "dimension", lambda: Hyperboloid(True)),
    "stoprule-residual-tol-bool": (ConstructionError, "residual_tol",
                                   lambda: StopRule(max_iter=3, residual_tol=True)),
    "stoprule-stall-tol-bool": (ConstructionError, "stall_tol",
                                lambda: StopRule(max_iter=3, stall_tol=False)),
    "step-tol-bool": (DomainError, "step_tol", lambda: frechet_mean(
        WeightedPoints([P, Q], [0.5, 0.5]), step_tol=True)),
    "weights-bool": (ConstructionError, "weights",
                     lambda: WeightedPoints([P, Q], [True, False])),
    "weights-numpy-bool": (ConstructionError, "weights",
                           lambda: WeightedPoints([P, Q], [np.True_, np.False_])),
    "combination-weights-bool": (ConstructionError, "weights", lambda: ConvexCombination(
        [True, False], [Identity(), Identity()])),
    # a tolerance is one real number, not an array or a Decimal
    "stoprule-tol-array": (ConstructionError, "residual_tol", lambda: StopRule(
        max_iter=3, residual_tol=np.array([1e-3, 1e-3]))),
    "stoprule-tol-0d-array": (ConstructionError, "residual_tol",
                              lambda: StopRule(max_iter=3, residual_tol=np.array(1e-3))),
    "stoprule-tol-decimal": (ConstructionError, "residual_tol",
                             lambda: StopRule(max_iter=3, residual_tol=Decimal("1e-3"))),
    "step-tol-array": (DomainError, "step_tol",
                       lambda: frechet_mean(PQ, np.array([1e-3, 1e-3]))),
    "sweeps-text": (ConstructionError, "sweeps", lambda: inductive_mean_sweeps(PQ, sweeps="3")),
    "sweeps-fraction": (ConstructionError, "sweeps",
                        lambda: inductive_mean_sweeps(PQ, sweeps=2.5)),
    "sweeps-nan": (ConstructionError, "sweeps",
                   lambda: inductive_mean_sweeps(PQ, sweeps=math.nan)),
    "sweeps-bool": (ConstructionError, "sweeps", lambda: inductive_mean_sweeps(PQ, sweeps=True)),
    "vertex-distance-unknown": (InvalidPointError, "unknown vertex 'zz'",
                                lambda: TRIPOD.vertex_distance("o", "zz")),
    "vertex-path-unknown": (InvalidPointError, "unknown vertex 'zz'",
                            lambda: TRIPOD.vertex_path("o", "zz")),
    "averaged-weights-int": (ConstructionError, "weights", lambda: averaged_projections(
        [HALF], P, StopRule(max_iter=5), weights=5)),
    "composition-factor-int": (ConstructionError, "of type Operator", lambda: Composition([1])),
    "composition-factors-none": (ConstructionError, "list of operators",
                                 lambda: Composition(None)),
    "combination-operator-int": (ConstructionError, "of type Operator",
                                 lambda: ConvexCombination([1.0], [1])),
    "projection-set-text": (ConstructionError, "of type ConvexSet", lambda: Projection("x")),
    # one rule for every number: a real number is never a bool, a string, a
    # Decimal, a complex or an array, and a real vector holds only real numbers.
    # Each of these was accepted, or ended in a bare exception or warning.
    "tree-geodesic-t-decimal": (DomainError, "[0, 1]", lambda: geodesic_point(
        TRIPOD.vertex_point("a"), TRIPOD.vertex_point("b"), Decimal("0.5"))),
    "tree-cat0-t-decimal": (DomainError, "[0, 1]", lambda: cat0_defect(
        TRIPOD.vertex_point("a"), TRIPOD.vertex_point("b"), TRIPOD.vertex_point("a"),
        Decimal("0.5"))),
    "geodesic-t-array": (DomainError, "[0, 1]", lambda: geodesic_point(P, Q, np.array([0.5]))),
    "euclidean-point-complex": (InvalidPointError, "real numbers",
                                lambda: E2.point(np.array([1 + 0j, 0]))),
    "ball-radius-str": (ConstructionError, "radius", lambda: GeodesicBall(P, "1.5")),
    "ball-radius-bool": (ConstructionError, "radius", lambda: GeodesicBall(P, True)),
    "halfspace-offset-str": (ConstructionError, "real numbers",
                             lambda: EuclideanHalfspace(E2, [0, 1], "2")),
    "euclidean-point-str": (InvalidPointError, "real numbers", lambda: E2.point(["1", "2"])),
    "euclidean-point-bool": (InvalidPointError, "real numbers", lambda: E2.point([True, False])),
    "tree-length-str": (ConstructionError, "numeric length",
                        lambda: MetricTree([("a", "b", "2")])),
    "tree-offset-str": (InvalidPointError, "numeric offset", lambda: TRIPOD.point((0, "0.5"))),
    "weights-str-entry": (ConstructionError, "weights", lambda: WeightedPoints([P], ["1"])),
    "tangent-str": (InvalidPointError, "real numbers", lambda: H2.exp_from_base(["0.1", "0.2"])),
    "euclidean-point-bool-array": (InvalidPointError, "real numbers",
                                   lambda: E2.point(np.array([True, False]))),
    "halfspace-normal-bool": (ConstructionError, "real numbers",
                              lambda: EuclideanHalfspace(E2, [True, False], 0)),
    "hyperbolic-normal-str": (ConstructionError, "real numbers",
                              lambda: HyperbolicHalfspace(H2, ["0", "1", "0"])),
    "minkowski-bool": (DomainError, "real numbers", lambda: minkowski([True, False], [1, 0])),
    "tree-length-bool": (ConstructionError, "numeric length",
                         lambda: MetricTree([("a", "b", True)])),
    "alpha-huge-int": (DomainError, "real number", lambda: composition_alpha(10**400, 0.5)),
    "combination-alpha-scalar": (DomainError, "constants must be real numbers",
                                 lambda: combination_alpha(0.5)),
    "fold-alpha-bools": (DomainError, "constants must be real numbers",
                         lambda: fold_composition_alpha([True, 0.5])),
    "witness-t-bool": (CheckSpecError, "needs a number", lambda: reevaluate_witness(
        CheckSpec(kind=CAT0, space=E2, samples=1, seed=0), (P, Q, P, True))),
    # a tangent coordinate past the radius bound overflowed, with a
    # RuntimeWarning, in the squared radius before its typed error
    "tangent-overflow": (InvalidPointError, "radius 1e+200 is not representable",
                         lambda: H2.exp_from_base([1e200, 0.0])),
    # an argument of the wrong type ended in a bare AttributeError or TypeError
    "product-set-factor-text": (ConstructionError, "left factor set must be of type ConvexSet",
                                lambda: ProductSet(ProductSpace(E2, E2), "a", HALF)),
    "alpha-firm-op-text": (ConstructionError, "of type Operator",
                           lambda: alpha_firm_defect("op", 0.5, P, Q)),
    "quasi-firm-op-text": (ConstructionError, "of type Operator",
                           lambda: quasi_firm_defect("op", 0.5, P, Q)),
    "discrepancy-op-text": (ConstructionError, "of type Operator",
                            lambda: discrepancy("op", P, Q)),
    "projection-defect-set-text": (ConstructionError, "of type ConvexSet",
                                   lambda: projection_defect("c", P, Q)),
    "shadow-trace-text": (ConstructionError, "of type IterationTrace",
                          lambda: approximate_shadows("t", [HALF])),
    "shadow-cauchy-trace-text": (ConstructionError, "of type IterationTrace",
                                 lambda: shadow_cauchy_worst_defect("t")),
    "technical-gaps-trace-text": (ConstructionError, "of type IterationTrace",
                                  lambda: technical_condition_gaps("t")),
    "suite-entry-text": (CheckSpecError, "must be a CheckSpec", lambda: run_suite(["x"])),
    "witness-spec-text": (CheckSpecError, "must be a CheckSpec",
                          lambda: reevaluate_witness("x", (P, Q, P, 0.5))),
    "space-suite-sets-list": (CheckSpecError, "sets must be a dict",
                              lambda: space_suite(E2, [HALF], None, 10, 0)),
    "point-spec-text": (SpaceMismatchError, "not a point", lambda: point_spec("x")),
    "scenario-bytes": (ScenarioError, "scenario must be text, got bytes",
                       lambda: parse_scenario(b"[space]")),
    # a bytes edge list was read, with vertex names that no str lookup finds
    "edge-list-bytes": (EdgeListError, "must be text, got bytes",
                        lambda: parse_edge_list(b"a b 1")),
}


def assert_raises(error, fragment, call):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_typed_error(case):
    assert_raises(*MALFORMED[case])


REAL = [0, 2, 0.5, -0.0, math.inf, Fraction(1, 3), np.float16(0.5), np.float32(0.1),
        np.float64(0.25), np.int8(-3), np.int64(7), np.uint64(2**63)]
NOT_REAL = [True, False, np.True_, "1", Decimal("0.5"), 1j, np.complex128(1), None,
            np.array(0.5), np.array([0.5]), [0.5], 10**400]


@pytest.mark.parametrize("value", REAL, ids=repr)
def test_real_numbers_convert_to_their_float(value):
    assert geometry._is_real(value)
    x = geometry._real(value, DomainError, "t must be a real number")
    assert x == float(value) and type(x) is float
    vector = geometry._real_vector([value, value], DomainError, "v must be real numbers")
    assert vector.dtype == np.float64 and vector.tolist() == [x, x]


@pytest.mark.parametrize("value", NOT_REAL, ids=lambda v: type(v).__name__)
def test_other_values_are_not_real(value):
    # a too large int is a real number, but no float
    assert geometry._is_real(value) == (type(value) is int)
    assert_raises(DomainError, "t must be a real number, got",
                  lambda: geometry._real(value, DomainError, "t must be a real number"))
    assert_raises(DomainError, "v must be real numbers, got", lambda: geometry._real_vector(
        [0.5, value], DomainError, "v must be real numbers"))


def test_fractions_numpy_scalars_and_integer_arrays_are_accepted():
    """Every site takes each real number and real vector, as the bits of its float form."""
    half = Fraction(1, 2)
    a, b = TRIPOD.vertex_point("a"), TRIPOD.vertex_point("b")
    assert geodesic_point(P, Q, half) == geodesic_point(P, Q, np.float64(0.5)) == Q.space.point(
        [0.5, 0.0])
    assert geodesic_point(a, b, half) == geodesic_point(a, b, 0.5)
    assert cat0_defect(a, b, a, half) == cat0_defect(a, b, a, 0.5)
    assert TRIPOD.point((np.int64(1), half)) == TRIPOD.point((1, 0.5))
    assert E2.point(np.array([1, 2])) == E2.point((Fraction(1), np.int32(2))) == E2.point(
        [1.0, 2.0])
    assert E2.point(np.array([0.5, 2], dtype=np.float32)).payload.dtype == np.float64
    half_plane = EuclideanHalfspace(E2, np.array([0, 2], dtype=np.int16), np.int64(3))
    assert half_plane.normal.tolist() == [0.0, 2.0] and type(half_plane.offset) is float
    assert half_plane.offset == 3.0
    assert np.array_equal(HyperbolicHalfspace(H2, (0, np.uint8(1), half)).normal,
                          HyperbolicHalfspace(H2, [0.0, 1.0, 0.5]).normal)
    ball = GeodesicBall(P, Fraction(3, 2))
    assert type(ball.radius) is float and ball.radius == 1.5
    tree = MetricTree([("a", "b", half), ("b", "c", np.int64(2))])
    assert tree.edges == MetricTree([("a", "b", 0.5), ("b", "c", 2.0)]).edges
    assert WeightedPoints([P, Q], [Fraction(1, 4), np.float32(0.75)]).weights == (0.25, 0.75)
    assert H2.exp_from_base(np.array([1, 0])) == H2.exp_from_base([1.0, 0.0])
    assert minkowski(np.array([1, 0]), (half, 0)) == -0.5
    assert composition_alpha(half, np.float64(0.5)) == composition_alpha(0.5, 0.5)
    spec = CheckSpec(kind=CAT0, space=E2, samples=1, seed=0)
    assert reevaluate_witness(spec, (P, Q, P, half)) == reevaluate_witness(spec, (P, Q, P, 0.5))


def _capped_averaged_run():
    """An averaged run of three hyperbolic balls whose first mean solve hits its sweep cap."""
    balls = [GeodesicBall(H2.exp_from_base(c), 0.3) for c in ([0.5, 0.0], [0.0, 0.5], [-0.5, 0.0])]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_SWEEP_LIMIT", 1)
        averaged_projections(balls, H2.exp_from_base([2.0, 1.5]), StopRule(max_iter=5))


def _scenario(space_lines):
    return parse_scenario("[space]\n" + space_lines + "\n[run]\nalgorithm = cyclic\n")


UNREACHED = {
    # iterations
    "averaged-mean-capped": (ConvergenceFailureError, "iteration 1 failed", _capped_averaged_run),
    "trace-lengths": (ConstructionError, "lengths are inconsistent",
                      lambda: IterationTrace([P], [0.0, 1.0], [], "converged")),
    "trace-negative-residual": (ConstructionError, "nonnegative",
                                lambda: IterationTrace([P], [-1.0], [], "converged")),
    "gaps-without-shadows": (DomainError, "no shadows", lambda: technical_condition_gaps(
        IterationTrace([P], [0.0], [], "converged"))),
    # certifier
    "fejer-unknown-algorithm": (CheckSpecError, "unknown fejer algorithm", lambda: run_check(
        CheckSpec(kind=FEJER_RUN, space=E2, samples=1, seed=0,
                  payload={"algorithm": "random", "sets": [HALF], "witness": P,
                           "rule": StopRule(max_iter=5)}))),
    "witness-t-text": (CheckSpecError, "needs a number", lambda: reevaluate_witness(
        CheckSpec(kind=CAT0, space=E2, samples=1, seed=0), (P, Q, P, "a"))),
    "witness-t-outside": (DomainError, "must be in", lambda: reevaluate_witness(
        CheckSpec(kind=CAT0, space=E2, samples=1, seed=0), (P, Q, P, 1.5))),
    "witness-challenge-outside": (DomainError, "not in the set", lambda: reevaluate_witness(
        CheckSpec(kind=PROJECTION_INEQ, space=E2, samples=1, seed=0, payload={"set": HALF}),
        (Q, E2.point([0.0, 5.0])))),
    # scenario parser
    "line-without-equals": (ScenarioError, "expected 'key = value'",
                            lambda: _scenario("kind euclidean")),
    "product-without-right": (ScenarioError, "needs left.* and right.* keys", lambda: _scenario(
        "kind = product\nleft.kind = euclidean\nleft.dim = 2")),
    "product-unknown-key": (ScenarioError, "unknown key", lambda: _scenario(
        "kind = product\nleft.kind = euclidean\nleft.dim = 2\n"
        "right.kind = euclidean\nright.dim = 1\nmiddle.dim = 3")),
    "product-point-without-semicolon": (ScenarioError, "needs 'left;right'", lambda: (
        parse_point_spec(ProductSpace(E2, TRIPOD), "1,1"))),
    "tree-point-malformed": (ScenarioError, "tree point must be",
                             lambda: parse_point_spec(TRIPOD, "vertex")),
    "point-text-unknown-model": (ScenarioError, "no point syntax for space Opaque",
                                 lambda: parse_point_spec(Opaque(), "1")),
    "point-spec-unknown-model": (ScenarioError, "no point syntax for space Opaque",
                                 lambda: point_spec(Point(Opaque(), 1.0))),
    # constructors
    "halfspace-space": (ConstructionError, "requires a Euclidean space",
                        lambda: EuclideanHalfspace(H2, [1.0, 0.0], 0.0)),
    "hyperbolic-halfspace-space": (ConstructionError, "requires a Hyperboloid space",
                                   lambda: HyperbolicHalfspace(E2, [0.0, 1.0])),
    "halfspace-normal-length": (ConstructionError, "must have 2 coordinates",
                                lambda: EuclideanHalfspace(E2, [1.0, 0.0, 0.0], 0.0)),
    "hyperbolic-normal-length": (ConstructionError, "must have 3 ambient coordinates",
                                 lambda: HyperbolicHalfspace(H2, [0.0, 1.0])),
    "subtree-empty": (ConstructionError, "vertex set is empty", lambda: Subtree(TRIPOD, [])),
    "product-set-space": (ConstructionError, "requires a ProductSpace",
                          lambda: ProductSet(E2, HALF, HALF)),
    "combination-mismatch": (ConstructionError, "matching, nonempty",
                             lambda: ConvexCombination([0.5, 0.5], [Identity()])),
    "fold-empty": (DomainError, "at least one constant", lambda: fold_composition_alpha([])),
    "pointwise-non-point": (SpaceMismatchError, "did not return a Point",
                            lambda: Pointwise("bad", lambda x: 1.0).apply(P)),
    "tangent-length": (InvalidPointError, "must have 2 coordinates",
                       lambda: H2.exp_from_base([1.0, 2.0, 3.0])),
    "minkowski-short": (DomainError, "at least 2 coordinates",
                        lambda: minkowski([1.0], [1.0])),
    "minkowski-text": (DomainError, "real numbers", lambda: minkowski(["a", 0], [1, 0])),
    "tree-point-scalar": (InvalidPointError, "TreeLocation or an (edge, offset) pair",
                          lambda: TRIPOD.point(5)),
    "product-factor": (ConstructionError, "must be space models",
                       lambda: ProductSpace(E2, "tripod")),
    "objective-space": (SpaceMismatchError, "different space", lambda: frechet_objective(
        WeightedPoints([P, Q], [0.5, 0.5]), H2.base_point())),
}


@pytest.mark.parametrize("case", sorted(UNREACHED))
def test_typed_error_branch(case):
    assert_raises(*UNREACHED[case])


def test_tree_from_edge_records():
    """``TreeEdge`` records build the tree their ``(a, b, length)`` triples build."""
    edges = [TreeEdge("o", "a", 1.0), TreeEdge("o", "b", 1.0), TreeEdge("o", "c", 1.0)]
    tree = MetricTree(edges)
    assert tree.edges == TRIPOD.edges
    assert tree.vertices == TRIPOD.vertices
    assert distance(tree.vertex_point("a"), tree.edge_point(1, 0.25)) == 1.25
