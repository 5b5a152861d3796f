"""Randomized property suite for the package's metric inequalities.

Each check kind samples one inequality (curvature defect,
Cauchy-Schwarz, projection firmness, the quasi-firm theorems, ...) at
seeded random inputs, records the worst defect together with the inputs
achieving it, and passes when that defect clears the model's tolerance.
Streams derive from per-check seeds (PCG64 via ``SeedSequence``), so
reports are deterministic and independent of any execution order, and a
recorded witness can always be re-evaluated to reproduce its defect.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .barycenter import WeightedPoints, frechet_mean, variance_defect
from .convex_sets import ConvexSet, projection_defect
from .errors import CheckSpecError
from .geometry import Point, SpaceModel, cat0_defect, distance, geodesic_point, quasilinearization
from .iterations import (
    StopRule,
    approximate_shadows,
    attach_shadows,
    averaged_projections,
    cyclic_projections,
    shadow_cauchy_worst_defect,
)
from .operators import (
    Composition,
    ConvexCombination,
    Projection,
    alpha_firm_defect,
    combination_alpha,
    fold_composition_alpha,
    quasi_firm_defect,
)

__all__ = [
    "CAT0",
    "CAUCHY_SCHWARZ",
    "PROJECTION_FIRM",
    "PROJECTION_INEQ",
    "QUASI_FIRM",
    "COMPOSITION_THEOREM",
    "COMBINATION_THEOREM",
    "FIX_CONVEXITY",
    "VARIANCE_INEQ",
    "FEJER_RUN",
    "CHECK_KINDS",
    "CheckSpec",
    "CheckResult",
    "CertificateReport",
    "run_check",
    "run_suite",
    "reevaluate_witness",
    "default_suite",
    "space_suite",
]

CAT0 = "cat0"
CAUCHY_SCHWARZ = "cauchy_schwarz"
PROJECTION_FIRM = "projection_firm"
PROJECTION_INEQ = "projection_ineq"
QUASI_FIRM = "quasi_firm"
COMPOSITION_THEOREM = "composition_theorem"
COMBINATION_THEOREM = "combination_theorem"
FIX_CONVEXITY = "fix_convexity"
VARIANCE_INEQ = "variance_ineq"
FEJER_RUN = "fejer_run"

CHECK_KINDS = (
    CAT0,
    CAUCHY_SCHWARZ,
    PROJECTION_FIRM,
    PROJECTION_INEQ,
    QUASI_FIRM,
    COMPOSITION_THEOREM,
    COMBINATION_THEOREM,
    FIX_CONVEXITY,
    VARIANCE_INEQ,
    FEJER_RUN,
)

# Checks whose inputs pass through an iterative barycenter solve get the
# looser tolerance; everything else uses the model's own.
_BARYCENTER_BOUND_KINDS = {COMBINATION_THEOREM, VARIANCE_INEQ}
_BARYCENTER_TOL = 1e-6


@dataclass(frozen=True)
class CheckSpec:
    """One randomized check: a kind, a space, subjects, samples, a seed."""

    kind: str
    space: SpaceModel
    samples: int
    seed: int
    payload: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if self.kind not in CHECK_KINDS:
            raise CheckSpecError(f"unknown check kind '{self.kind}'")
        if self.samples < 1:
            raise CheckSpecError("samples must be >= 1")

    @property
    def tolerance(self) -> float:
        if self.kind in _BARYCENTER_BOUND_KINDS:
            return max(_BARYCENTER_TOL, self.space.defect_tolerance)
        return self.space.defect_tolerance


@dataclass(frozen=True)
class CheckResult:
    kind: str
    label: str
    space: str
    samples: int
    seed: int
    worst_defect: float
    witness: tuple
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_defect >= -self.tolerance

    def text_line(self) -> str:
        tag = f"{self.kind}" + (f"[{self.label}]" if self.label else "")
        return (
            f"{'PASS' if self.passed else 'FAIL'} {tag} on {self.space}: "
            f"worst defect {self.worst_defect:.6e} at tolerance {self.tolerance:g} "
            f"({self.samples} samples, seed {self.seed})"
        )


@dataclass(frozen=True)
class CertificateReport:
    entries: tuple[CheckResult, ...]
    suite_seed: int | None
    wall_time: float
    model_summary: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_text(self) -> str:
        lines = [
            f"certificate suite: {len(self.entries)} checks, "
            f"{'all passed' if self.passed else 'FAILURES present'}",
            f"models: {', '.join(self.model_summary)}",
            f"suite seed: {self.suite_seed}",
            f"wall time: {self.wall_time:.3f} s",
        ]
        lines.extend(e.text_line() for e in self.entries)
        return "\n".join(lines) + "\n"

    def to_csv(self, stream) -> None:
        stream.write("kind,samples,seed,worst_defect,pass\n")
        for e in self.entries:
            stream.write(
                f"{e.kind},{e.samples},{e.seed},{e.worst_defect:.17g},"
                f"{'true' if e.passed else 'false'}\n"
            )


def _payload(spec: CheckSpec, key: str):
    if key not in spec.payload:
        raise CheckSpecError(f"check '{spec.kind}' needs payload key '{key}'")
    return spec.payload[key]


def _op_and_alphas(spec: CheckSpec):
    factors = _payload(spec, "factors")
    if len(factors) < 2:
        raise CheckSpecError("composition check needs at least two factors")
    ops = [op for op, _ in factors]
    alphas = [a for _, a in factors]
    composed = Composition(tuple(reversed(ops)))
    return composed, fold_composition_alpha(alphas)


def _combination_subjects(spec: CheckSpec):
    ops = _payload(spec, "ops")
    alphas = _payload(spec, "alphas")
    weights = _payload(spec, "weights")
    combo = ConvexCombination(weights, ops)
    return combo, combination_alpha(alphas)


def _defect(spec: CheckSpec):
    """The check's defect as a function of one witness tuple.

    Nonnegative (up to the check's tolerance) wherever the sampled
    inequality holds; ``_draws`` yields the tuples it is evaluated at.
    """
    kind = spec.kind
    if kind == CAT0:
        return cat0_defect
    if kind == CAUCHY_SCHWARZ:
        return lambda x, z, y, w: (
            distance(x, z) * distance(y, w) - abs(quasilinearization(x, z, y, w)))
    if kind == PROJECTION_FIRM:
        return partial(alpha_firm_defect, Projection(_payload(spec, "set")), 0.5)
    if kind == PROJECTION_INEQ:
        return partial(projection_defect, _payload(spec, "set"))
    if kind == QUASI_FIRM:
        return partial(quasi_firm_defect, _payload(spec, "op"), _payload(spec, "alpha"))
    if kind == COMPOSITION_THEOREM:
        return partial(quasi_firm_defect, *_op_and_alphas(spec))
    if kind == COMBINATION_THEOREM:
        return partial(quasi_firm_defect, *_combination_subjects(spec))
    if kind == FIX_CONVEXITY:
        c = _payload(spec, "set")

        def fix_defect(y1, y2):
            mid = geodesic_point(y1, y2, 0.5)
            return -distance(c.project(mid), mid)
        return fix_defect
    if kind == VARIANCE_INEQ:
        # One mean per drawn instance: its challengers share the points tuple.
        solved = [None, None, None, None]

        def variance(pts, weights, y):
            if solved[0] is not pts or solved[1] is not weights:
                wp = WeightedPoints(pts, weights)
                solved[:] = pts, weights, wp, frechet_mean(wp)
            return variance_defect(solved[2], solved[3], y)
        return variance
    if kind == FEJER_RUN:
        sets = _payload(spec, "sets")
        witness = _payload(spec, "witness")
        rule = _payload(spec, "rule")
        algorithm = _payload(spec, "algorithm")
        runs = {"cyclic": cyclic_projections, "averaged": averaged_projections}
        if algorithm not in runs:
            raise CheckSpecError(f"unknown fejer algorithm '{algorithm}'")

        def fejer(x0):
            trace = runs[algorithm](sets, x0, rule, witness=witness)
            worst = min(trace.fejer_gaps) if trace.fejer_gaps else 0.0
            attach_shadows(trace, approximate_shadows(trace, sets), approximate=True)
            return min(worst, shadow_cauchy_worst_defect(trace))
        return fejer
    raise CheckSpecError(f"unknown check kind '{kind}'")  # pragma: no cover


def _draws(spec: CheckSpec, rng: np.random.Generator):
    """Yield the check's witness tuples, consuming ``rng`` in a fixed order."""
    space = spec.space
    kind = spec.kind
    samples = range(spec.samples)
    if kind == CAT0:
        for _ in samples:
            x, y, z = (space.sample(rng) for _ in range(3))
            yield x, y, z, float(rng.uniform())
    elif kind == CAUCHY_SCHWARZ:
        for _ in samples:
            yield tuple(space.sample(rng) for _ in range(4))
    elif kind == PROJECTION_FIRM:
        for _ in samples:
            yield space.sample(rng), space.sample(rng)
    elif kind == PROJECTION_INEQ:
        c = _payload(spec, "set")
        for _ in samples:
            yield space.sample(rng), c.project(space.sample(rng))
    elif kind in (QUASI_FIRM, COMPOSITION_THEOREM, COMBINATION_THEOREM):
        fixed = (_payload(spec, "fixed_points") if kind == QUASI_FIRM
                 else [_payload(spec, "witness")])
        for _ in samples:
            x = space.sample(rng)
            for y in fixed:
                yield x, y
    elif kind == FIX_CONVEXITY:
        c = _payload(spec, "set")
        for _ in samples:
            yield c.project(space.sample(rng)), c.project(space.sample(rng))
    elif kind == VARIANCE_INEQ:
        size = spec.payload.get("instance_size", 4)
        challengers = spec.payload.get("challengers", 50)
        for _ in samples:
            pts = tuple(space.sample(rng) for _ in range(size))
            raw = rng.uniform(0.05, 1.0, size)
            weights = tuple(float(v) for v in raw / raw.sum())
            for _ in range(challengers):
                yield pts, weights, space.sample(rng)
    elif kind == FEJER_RUN:
        for _ in samples:
            yield (space.sample(rng),)


def run_check(spec: CheckSpec) -> CheckResult:
    """Evaluate one check; the result records the worst sampled defect."""
    defect = _defect(spec)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    worst = math.inf
    worst_witness: tuple = ()
    for witness in _draws(spec, rng):
        value = defect(*witness)
        if value < worst:
            worst = value
            worst_witness = witness
    return CheckResult(
        kind=spec.kind,
        label=spec.label,
        space=spec.space.describe(),
        samples=spec.samples,
        seed=spec.seed,
        worst_defect=worst,
        witness=worst_witness,
        tolerance=spec.tolerance,
    )


def reevaluate_witness(spec: CheckSpec, witness: tuple) -> float:
    """Recompute the defect of a recorded witness for its check.

    Reproduces the recorded worst defect exactly, since every check's
    defect is a deterministic function of its inputs.
    """
    return _defect(spec)(*witness)


def run_suite(specs, suite_seed: int | None = None) -> CertificateReport:
    """Run every check and aggregate; the suite passes iff all entries pass."""
    specs = list(specs)
    if not specs:
        raise CheckSpecError("suite needs at least one check")
    start = time.perf_counter()
    entries = tuple(run_check(s) for s in specs)
    elapsed = time.perf_counter() - start
    models = []
    for s in specs:
        desc = s.space.describe()
        if desc not in models:
            models.append(desc)
    return CertificateReport(
        entries=entries,
        suite_seed=suite_seed,
        wall_time=elapsed,
        model_summary=tuple(models),
    )


def _seeded_specs(rows, suite_seed: int) -> list[CheckSpec]:
    """One spec per (kind, space, samples, payload, label) row, seeded in order.

    Each row's seed is a child of ``suite_seed``, so adding a row never
    changes the seeds of the rows before it.
    """
    seeds = np.random.SeedSequence(suite_seed).generate_state(len(rows), dtype=np.uint64)
    return [
        CheckSpec(kind=kind, space=space, samples=n, seed=int(child),
                  payload=payload or {}, label=label)
        for (kind, space, n, payload, label), child in zip(rows, seeds)
    ]


def space_suite(
    space: SpaceModel,
    sets: dict[str, ConvexSet],
    witness: Point | None,
    samples: int,
    seed: int,
    claim_alpha: float | None = None,
    claim_set: str | None = None,
) -> list[CheckSpec]:
    """Checks for one user-declared space and its named sets.

    Always samples the curvature and Cauchy-Schwarz inequalities plus
    the variance bound; each set contributes projection checks; a
    witness inside the sets unlocks the quasi-firm, composition,
    combination, and Fejer checks.  A claimed constant adds one
    quasi-firm check for the named set's projection at that constant.
    """
    rows = []

    def add(kind, n, payload=None, label=""):
        rows.append((kind, space, n, payload, label))

    add(CAT0, samples)
    add(CAUCHY_SCHWARZ, samples)
    add(VARIANCE_INEQ, max(1, samples // 50), {"instance_size": 3, "challengers": 25})
    for name, c in sets.items():
        add(PROJECTION_FIRM, max(1, samples // 2), {"set": c}, name)
        add(PROJECTION_INEQ, max(1, samples // 2), {"set": c}, name)
        add(FIX_CONVEXITY, max(1, samples // 4), {"set": c}, name)
    if witness is not None:
        fixed_sets = {n: c for n, c in sets.items() if c.contains(witness)}
        for name, c in fixed_sets.items():
            add(QUASI_FIRM, max(1, samples // 2),
                {"op": Projection(c), "alpha": 0.5, "fixed_points": [witness]},
                name)
        if len(fixed_sets) >= 2:
            factors = [(Projection(c), 0.5) for c in fixed_sets.values()]
            add(COMPOSITION_THEOREM, max(1, samples // 2),
                {"factors": factors, "witness": witness}, "declared-sets")
            n = len(fixed_sets)
            add(COMBINATION_THEOREM, max(1, samples // 4),
                {"ops": [Projection(c) for c in fixed_sets.values()],
                 "alphas": [0.5] * n, "weights": [1.0 / n] * n,
                 "witness": witness}, "declared-sets")
            add(FEJER_RUN, 2,
                {"algorithm": "cyclic", "sets": list(fixed_sets.values()),
                 "witness": witness, "rule": StopRule(max_iter=500)},
                "declared-sets")
    if claim_alpha is not None:
        if claim_set not in sets:
            raise CheckSpecError(f"claimed set '{claim_set}' is not declared")
        if witness is None:
            raise CheckSpecError("a claimed constant needs a witness fixed point")
        add(QUASI_FIRM, max(1, samples // 2),
            {"op": Projection(sets[claim_set]), "alpha": claim_alpha,
             "fixed_points": [witness]},
            f"claimed-{claim_set}")
    return _seeded_specs(rows, seed)


def default_suite(seed: int = 0, samples: int = 1000) -> list[CheckSpec]:
    """The shipped cross-model suite: one check per asserted inequality.

    Covers the curvature and Cauchy-Schwarz inequalities on five models
    (flat 3-space, the hyperbolic plane, two trees, a flat-by-tree
    product), projection firmness and the projection inequality per set
    family, the quasi-firm certificates for projections, the composition
    and convex-combination theorems, fixed-set convexity, the
    strong-convexity variance bound, and Fejer/shadow diagnostics for
    cyclic and averaged runs.
    """
    from .metric_tree import MetricTree
    from .geometry import Euclidean, Hyperboloid, ProductSpace
    from .convex_sets import (
        EuclideanHalfspace,
        GeodesicBall,
        HyperbolicHalfspace,
        ProductSet,
        Subtree,
    )

    e2 = Euclidean(2)
    e3 = Euclidean(3)
    h2 = Hyperboloid(2)
    tripod = MetricTree([("o", "a", 1.0), ("o", "b", 1.0), ("o", "c", 1.0)])
    caterpillar = MetricTree(
        [("v0", "v1", 1.0), ("v1", "v2", 1.5), ("v2", "v3", 0.5),
         ("v2", "v4", 2.0), ("v1", "v5", 1.0)]
    )
    product = ProductSpace(e2, tripod)

    origin2 = e2.point([0.0, 0.0])
    apex = h2.base_point()
    gate = tripod.vertex_point("o")

    half_v = EuclideanHalfspace(e2, [0.0, 1.0], 0.0, name="v<=0")
    half_u = EuclideanHalfspace(e2, [1.0, 0.0], 0.0, name="u<=0")
    half_diag = EuclideanHalfspace(e2, [1.0, 1.0], 0.0, name="u+v<=0")
    ball_e3 = GeodesicBall(e3.point([0.5, -0.25, 0.0]), 1.25, name="ball-e3")
    ball_h2 = GeodesicBall(h2.exp_from_base([0.3, -0.2]), 1.0, name="ball-h2")
    ball_tree = GeodesicBall(tripod.edge_point(0, 0.5), 0.75, name="ball-tripod")
    hyp_half_1 = HyperbolicHalfspace(h2, [0.0, 1.0, 0.0], name="m1<=0")
    hyp_half_2 = HyperbolicHalfspace(h2, [0.0, 0.0, 1.0], name="m2<=0")
    leg_a = Subtree(tripod, ["o", "a"], name="leg-a")
    leg_b = Subtree(tripod, ["o", "b"], name="leg-b")
    spine = Subtree(caterpillar, ["v0", "v1", "v2"], name="spine")
    branch = Subtree(caterpillar, ["v1", "v2", "v4"], name="branch")
    prod_set = ProductSet(product, half_v, leg_a, name="halfspace-x-leg")

    rows = []

    def add(kind, space, n, payload=None, label=""):
        rows.append((kind, space, n, payload, label))

    for space, label in [
        (e3, "euclidean3"),
        (h2, "hyperbolic2"),
        (tripod, "tripod"),
        (caterpillar, "caterpillar"),
        (product, "euclidean-x-tripod"),
    ]:
        add(CAT0, space, samples, label=label)
        add(CAUCHY_SCHWARZ, space, samples, label=label)

    for c, label in [
        (half_v, "halfspace-v"),
        (half_diag, "halfspace-diag"),
        (hyp_half_1, "hyp-halfspace-1"),
        (ball_e3, "ball-e3"),
        (ball_h2, "ball-h2"),
        (ball_tree, "ball-tripod"),
        (spine, "spine"),
        (branch, "branch"),
        (prod_set, "product-set"),
    ]:
        add(PROJECTION_FIRM, c.space, max(1, samples // 2), {"set": c}, label)
        add(PROJECTION_INEQ, c.space, max(1, samples // 2), {"set": c}, label)

    add(QUASI_FIRM, e2, max(1, samples // 2),
        {"op": Projection(half_v), "alpha": 0.5, "fixed_points": [origin2]},
        "projection-halfspace")
    add(QUASI_FIRM, tripod, max(1, samples // 2),
        {"op": Projection(leg_a), "alpha": 0.5, "fixed_points": [gate]},
        "projection-subtree")

    add(COMPOSITION_THEOREM, e2, max(1, samples // 2),
        {"factors": [(Projection(half_v), 0.5), (Projection(half_u), 0.5)],
         "witness": origin2},
        "two-euclidean-halfspaces")
    add(COMPOSITION_THEOREM, h2, max(1, samples // 2),
        {"factors": [(Projection(hyp_half_1), 0.5), (Projection(hyp_half_2), 0.5)],
         "witness": apex},
        "two-hyperbolic-halfspaces")
    add(COMPOSITION_THEOREM, caterpillar, max(1, samples // 2),
        {"factors": [(Projection(spine), 0.5), (Projection(branch), 0.5)],
         "witness": caterpillar.vertex_point("v1")},
        "two-subtrees")
    add(COMPOSITION_THEOREM, e2, max(1, samples // 2),
        {"factors": [(Projection(half_v), 0.5), (Projection(half_u), 0.5),
                     (Projection(half_diag), 0.5)],
         "witness": origin2},
        "three-euclidean-halfspaces")

    add(COMBINATION_THEOREM, e2, max(1, samples // 4),
        {"ops": [Projection(half_v), Projection(half_u), Projection(half_diag)],
         "alphas": [0.5, 0.5, 0.5],
         "weights": [1.0 / 3.0] * 3,
         "witness": origin2},
        "three-projections-euclidean")
    add(COMBINATION_THEOREM, tripod, max(1, samples // 4),
        {"ops": [Projection(leg_a), Projection(leg_b)],
         "alphas": [0.5, 0.5],
         "weights": [0.5, 0.5],
         "witness": gate},
        "two-subtree-projections")

    add(FIX_CONVEXITY, e2, max(1, samples // 2), {"set": half_v}, "halfspace")
    add(FIX_CONVEXITY, tripod, max(1, samples // 2), {"set": leg_a}, "subtree")

    for space, label in [(e3, "euclidean3"), (h2, "hyperbolic2"), (tripod, "tripod")]:
        add(VARIANCE_INEQ, space, max(1, samples // 50),
            {"instance_size": 4, "challengers": 50}, label)

    add(FEJER_RUN, e2, 3,
        {"algorithm": "cyclic", "sets": [half_v, half_u], "witness": origin2,
         "rule": StopRule(max_iter=400)},
        "cyclic-halfspaces")
    add(FEJER_RUN, e2, 3,
        {"algorithm": "averaged", "sets": [half_v, half_u], "witness": origin2,
         "rule": StopRule(max_iter=200)},
        "averaged-halfspaces")
    add(FEJER_RUN, tripod, 3,
        {"algorithm": "cyclic", "sets": [leg_a, leg_b], "witness": gate,
         "rule": StopRule(max_iter=200)},
        "cyclic-subtrees")

    return _seeded_specs(rows, seed)
