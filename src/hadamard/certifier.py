"""Randomized property suite for the package's metric inequalities.

Each check kind samples one inequality (curvature defect,
Cauchy-Schwarz, projection firmness, the quasi-firm theorems, ...) at
seeded random inputs, records the worst defect together with the inputs
achieving it, and passes when that defect clears the model's tolerance.
Every kind draws and evaluates its samples in blocks through one kernel
(``_block_kernel``).  Every model computes a block's distances, and
every set projects a whole block, at once.  Tree geodesic points, and
operators without array kernels, run their scalar methods row by row
inside the block interface; the flat block mean is vectorised, and every
other model's block mean solves each row with the model's own ``_mean``.
Streams derive from per-check seeds (PCG64 via ``SeedSequence``), so
reports are deterministic and independent of any execution order, and a
recorded witness can always be re-evaluated to reproduce its defect.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .barycenter import _frechet_means, _variance
from .convex_sets import ConvexSet, _projection
from .errors import CheckSpecError, DomainError
from .geometry import (
    Point,
    SpaceModel,
    _cat0,
    _check_parameter,
    _is_integer,
    _quasilinear,
    _real,
    _real_vector,
)
from .iterations import (
    StopRule,
    approximate_shadows,
    averaged_projections,
    cyclic_projections,
    shadow_cauchy_worst_defect,
)
from .operators import (
    Composition,
    ConvexCombination,
    Operator,
    Projection,
    _alpha_firm,
    _check_alpha,
    _composition_condition,
    _quasi_firm,
    _require_fixed,
    combination_alpha,
    fold_composition_alpha,
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
    "COMPOSITION_CONDITION",
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
COMPOSITION_CONDITION = "composition_condition"

# The tolerance floor of a kind whose inputs pass through a barycenter solve.
_BARYCENTER_TOL = 1e-6


class _Kind(NamedTuple):
    """One check kind, as the certifier reads it.

    ``witness`` has one letter per witness entry: "p" a point of the
    check's space, "t" a number, "-" anything else.  Unless the kind draws
    its own, a sample is one ``sample_block`` per "p" and one ``uniform``
    per "t", in this order.  ``payload_keys`` are the payload keys the
    kind reads; a projection_firm check takes "op" or "set".  A
    ``barycenter`` kind's inputs pass through an iterative barycenter
    solve, so it gets the looser tolerance; every other kind uses the
    model's own.
    """

    witness: str
    payload_keys: tuple[str, ...] = ()
    barycenter: bool = False


_KINDS = {
    CAT0: _Kind("pppt"),
    CAUCHY_SCHWARZ: _Kind("pppp"),
    PROJECTION_FIRM: _Kind("pp", ("op", "set", "alpha")),
    PROJECTION_INEQ: _Kind("pp", ("set",)),
    QUASI_FIRM: _Kind("pp", ("op", "alpha", "fixed_points")),
    COMPOSITION_THEOREM: _Kind("pp", ("factors", "witness")),
    COMBINATION_THEOREM: _Kind("pp", ("ops", "alphas", "weights", "witness"), True),
    FIX_CONVEXITY: _Kind("pp", ("set",)),
    VARIANCE_INEQ: _Kind("--p", ("instance_size", "challengers"), True),
    FEJER_RUN: _Kind("p", ("algorithm", "sets", "witness", "rule")),
    COMPOSITION_CONDITION: _Kind("pp", ("factors",)),
}
CHECK_KINDS = tuple(_KINDS)

# Samples drawn and evaluated at once, which bounds a check's memory.
_CHUNK = 4096


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
        if not isinstance(self.space, SpaceModel):
            raise CheckSpecError(f"space must be a space model, got {self.space!r}")
        _check_count("samples", self.samples)
        _check_seed(self.seed)
        if not isinstance(self.payload, dict):
            raise CheckSpecError(f"payload must be a dict, got {self.payload!r}")
        for key in self.payload:
            if key not in _KINDS[self.kind].payload_keys:
                raise CheckSpecError(f"check '{self.kind}' does not read payload key {key!r}")
        if "op" in self.payload and "set" in self.payload:
            raise CheckSpecError(f"check '{self.kind}' takes an 'op' or a 'set', not both")

    @property
    def tolerance(self) -> float:
        if _KINDS[self.kind].barycenter:
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
    elapsed_s: float = field(compare=False)

    @property
    def passed(self) -> bool:
        return self.worst_defect >= -self.tolerance

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.elapsed_s if self.elapsed_s > 0 else math.inf

    def text_line(self) -> str:
        tag = f"{self.kind}" + (f"[{self.label}]" if self.label else "")
        return (
            f"{'PASS' if self.passed else 'FAIL'} {tag} on {self.space}: "
            f"worst defect {self.worst_defect:.6e} at tolerance {self.tolerance:g} "
            f"({self.samples} samples, seed {self.seed}; "
            f"{self.elapsed_s:.3g} s, {self.samples_per_s:.3g} samples/s)"
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


def _payload(spec: CheckSpec, key: str, expected=object, many=False):
    """The payload entry ``key``: an ``expected``, or with ``many`` a list or tuple of them."""
    if key not in spec.payload:
        raise CheckSpecError(f"check '{spec.kind}' needs payload key '{key}'")
    value = spec.payload[key]
    if many:
        ok = isinstance(value, (list, tuple)) and all(isinstance(v, expected) for v in value)
    else:
        ok = isinstance(value, expected)
    if not ok:
        raise CheckSpecError(f"check '{spec.kind}' payload '{key}' must be "
                             f"{'a list of ' if many else ''}{expected.__name__}, got {value!r}")
    return value


def _factors(spec: CheckSpec):
    """A composition check's ``(operator, alpha)`` pairs, the first applied first."""
    factors = _payload(spec, "factors")
    if not isinstance(factors, (tuple, list)) or not all(
            isinstance(f, (tuple, list)) and len(f) == 2 and isinstance(f[0], Operator)
            for f in factors):
        raise CheckSpecError(f"composition factors must be (operator, alpha) pairs, "
                             f"got {factors!r}")
    if len(factors) < 2:
        raise CheckSpecError("composition check needs at least two factors")
    return factors


def _theorem_subjects(spec: CheckSpec):
    """The composed or combined operator of a theorem check and its certified constant."""
    if spec.kind == COMBINATION_THEOREM:
        ops = _payload(spec, "ops", Operator, True)
        alphas, weights = (_real_vector(_payload(spec, key), CheckSpecError,
                                        f"combination payload '{key}' must be real numbers")
                           for key in ("alphas", "weights"))
        if len(alphas) != len(ops):
            raise CheckSpecError(
                f"combination check has {len(ops)} operators but {len(alphas)} constants")
        return ConvexCombination(weights, ops), combination_alpha(alphas)
    factors = _factors(spec)
    composed = Composition(tuple(reversed([op for op, _ in factors])))
    return composed, fold_composition_alpha([a for _, a in factors])


def _check_seed(seed) -> None:
    if not _is_integer(seed):
        raise CheckSpecError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise CheckSpecError(f"seed must be >= 0, got {seed}")


def _check_count(name: str, value):
    if not _is_integer(value) or value < 1:
        raise CheckSpecError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def _block_kernel(spec: CheckSpec):
    """``(draw, defect, admit)`` for the check's kind.

    ``draw(rng, n)`` returns or yields the witness columns of n samples as
    batches, consuming ``rng`` in a fixed order; unless the kind defines
    its own, it draws them as the kind's witness layout says.
    ``defect(*columns)`` returns one defect per row, nonnegative (up to
    the check's tolerance) wherever the sampled inequality holds.
    ``admit(witness)`` raises for a witness outside the inequality's
    scope: a challenge point outside the set, a point the operator moves,
    or t outside [0, 1].

    A column of "p" entries is a block of the check's space; a column of
    "-" entries is a list.  The barycenters of a batch are solved in one
    block mean inside ``defect``: the convex combination's through its
    ``apply_block``, ``variance_ineq``'s once per drawn instance for a
    batch of whole instances.  The flat block mean is vectorised; every
    other model's solves its rows one ``_mean`` at a time.  ``fejer_run``
    runs once per start.
    """
    space = spec.space
    kind = spec.kind
    dist = space.distances
    sample = space.sample_block
    layout = _KINDS[kind].witness

    def draw(rng, n):
        return [tuple(sample(rng, n) if entry == "p" else rng.uniform(size=n)
                      for entry in layout)]

    def admit(witness):
        pass

    if kind == CAT0:
        def defect(x, y, z, t):
            return _cat0(dist, x, y, z, space.interpolate(x, y, t), t)

        def admit(witness):
            _check_parameter(witness[3])
    elif kind == CAUCHY_SCHWARZ:
        def defect(x, z, y, w):
            return dist(x, z) * dist(y, w) - np.abs(_quasilinear(dist, x, z, y, w))
    elif kind == PROJECTION_FIRM:
        # P_C at alpha 1/2 for a "set", or any "op" at an optional "alpha"
        op = (_payload(spec, "op", Operator) if "op" in spec.payload
              else Projection(_payload(spec, "set", ConvexSet)))
        alpha = _check_alpha(spec.payload.get("alpha", 0.5))

        def defect(x, y):
            return _alpha_firm(dist, alpha, x, y, op.apply_block(space, x),
                               op.apply_block(space, y))
    elif kind == PROJECTION_INEQ:
        c = _payload(spec, "set", ConvexSet)
        project = partial(Projection(c).apply_block, space)

        def draw(rng, n):
            return [(sample(rng, n), project(sample(rng, n)))]

        def defect(x, y):
            return _projection(dist, x, y, project(x))

        def admit(witness):
            if not c.contains(witness[1]):
                raise DomainError(f"challenge point is not in the set '{c.name}'")
    elif kind in (QUASI_FIRM, COMPOSITION_THEOREM, COMBINATION_THEOREM):
        if kind == QUASI_FIRM:
            op, alpha = _payload(spec, "op", Operator), _check_alpha(_payload(spec, "alpha"))
            fixed = list(_payload(spec, "fixed_points", Point, True))
            if not fixed:
                raise CheckSpecError("a quasi_firm check needs at least one fixed point")
        else:
            op, alpha = _theorem_subjects(spec)
            fixed = [_payload(spec, "witness", Point)]
        for y in fixed:
            _require_fixed(op, y)

        def draw(rng, n):
            x = sample(rng, n)
            return [(x, space.repeat(y, n)) for y in fixed]

        def defect(x, y):
            return _quasi_firm(dist, alpha, x, y, op.apply_block(space, x))

        def admit(witness):
            _require_fixed(op, witness[1])
    elif kind == COMPOSITION_CONDITION:
        factors = _factors(spec)
        if len(factors) != 2:
            raise CheckSpecError(f"a composition_condition check needs exactly two factors, "
                                 f"got {len(factors)}")
        (s, a_s), (t, a_t) = factors
        a_s, a_t = _check_alpha(a_s, "alpha_s"), _check_alpha(a_t, "alpha_t")

        def defect(x, y):
            sx, sy = s.apply_block(space, x), s.apply_block(space, y)
            return _composition_condition(dist, a_s, a_t, x, y, sx, sy,
                                          t.apply_block(space, sx), t.apply_block(space, sy))
    elif kind == FIX_CONVEXITY:
        project = partial(Projection(_payload(spec, "set", ConvexSet)).apply_block, space)

        def draw(rng, n):
            return [(project(sample(rng, n)), project(sample(rng, n)))]

        def defect(y1, y2):
            mid = space.interpolate(y1, y2, np.full(space.block_len(y1), 0.5))
            return -dist(project(mid), mid)
    elif kind == VARIANCE_INEQ:
        size = _check_count("instance_size", spec.payload.get("instance_size", 4))
        challengers = _check_count("challengers", spec.payload.get("challengers", 50))
        per_batch = max(1, _CHUNK // challengers)

        def draw(rng, n):
            # each instance draws its points, weights and challengers in turn;
            # a batch holds whole instances, at most _CHUNK rows where it can
            for start in range(0, n, per_batch):
                pts, weights, ys = [], [], []
                for _ in range(min(per_batch, n - start)):
                    block = sample(rng, size)
                    instance = tuple(space.row(block, j) for j in range(size))
                    raw = rng.uniform(0.05, 1.0, size)
                    pts += [instance] * challengers
                    weights += [tuple(float(v) for v in raw / raw.sum())] * challengers
                    ys.append(sample(rng, challengers))
                yield pts, weights, space.concat(ys)

        def defect(pts, weights, y):
            # one mean per instance, whose challenger rows are consecutive
            firsts = list(range(0, len(pts), challengers))
            counts = np.diff(firsts + [len(pts)])
            w = np.array([weights[i] for i in firsts])
            blocks = [space.stack([pts[i][j] for i in firsts]) for j in range(len(pts[0]))]
            means = _frechet_means(space, blocks, w)

            def per_row(block):
                return space.concat([space.repeat(space.row(block, g), c)
                                     for g, c in enumerate(counts)])

            return _variance(dist, [per_row(b) for b in blocks],
                             np.repeat(w, counts, axis=0).T, per_row(means), y)
    else:  # FEJER_RUN
        sets = _payload(spec, "sets", ConvexSet, True)
        witness = _payload(spec, "witness", Point)
        rule = _payload(spec, "rule", StopRule)
        algorithm = _payload(spec, "algorithm", str)
        runs = {"cyclic": cyclic_projections, "averaged": averaged_projections}
        if algorithm not in runs:
            raise CheckSpecError(f"unknown fejer algorithm '{algorithm}'")

        def fejer(x0):
            trace = runs[algorithm](sets, x0, rule, witness=witness)
            worst = min(trace.fejer_gaps, default=0.0)
            return min(worst, shadow_cauchy_worst_defect(approximate_shadows(trace, sets)))

        def defect(x0):
            return np.array([fejer(space.row(x0, i)) for i in range(space.block_len(x0))],
                            dtype=float)
    return draw, defect, admit


def _batches(spec: CheckSpec, rng: np.random.Generator):
    """Yield ``(defects, witness_at)`` for successive batches of at most ``_CHUNK`` samples."""
    draw, defect, _ = _block_kernel(spec)
    space, layout = spec.space, _KINDS[spec.kind].witness

    def witness_at(columns, i):
        return tuple(space.row(col, i) if entry == "p" else
                     float(col[i]) if entry == "t" else col[i]
                     for entry, col in zip(layout, columns))

    for start in range(0, spec.samples, _CHUNK):
        for columns in draw(rng, min(_CHUNK, spec.samples - start)):
            yield defect(*columns), partial(witness_at, columns)


def run_check(spec: CheckSpec) -> CheckResult:
    """Evaluate one check; the result records the worst sampled defect.

    The worst defect is the first smallest one in draw order, or the
    first NaN, so that a check whose defect is undefined fails.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    worst = None
    for defects, witness_at in _batches(spec, rng):
        i = int(np.argmin(defects))
        value = float(defects[i])
        if worst is None or value < worst[0] or (math.isnan(value) and not math.isnan(worst[0])):
            worst = (value, witness_at(i))
    return CheckResult(
        kind=spec.kind,
        label=spec.label,
        space=spec.space.describe(),
        samples=spec.samples,
        seed=spec.seed,
        worst_defect=worst[0],
        witness=worst[1],
        tolerance=spec.tolerance,
        elapsed_s=time.perf_counter() - start,
    )


def _one_row(spec: CheckSpec, witness) -> list:
    """The witness as columns of one row, after checking its length and points."""
    layout = _KINDS[spec.kind].witness
    if not isinstance(witness, (tuple, list)) or len(witness) != len(layout):
        raise CheckSpecError(
            f"a '{spec.kind}' witness has {len(layout)} entries, got {witness!r}")
    columns = []
    for entry, value in zip(layout, witness):
        if entry == "p":
            value = spec.space.stack([value])
        elif entry == "t":
            what = f"a '{spec.kind}' witness needs a number"
            value = np.array([_real(value, CheckSpecError, what)])
        else:
            value = [value]
        columns.append(value)
    return columns


def reevaluate_witness(spec: CheckSpec, witness: tuple) -> float:
    """Recompute the defect of a recorded witness for its check.

    Reproduces the recorded worst defect exactly: the witness is
    evaluated as a one-row block, and each row of a block kernel depends
    on that row's inputs alone.  A point outside the check's space raises
    ``SpaceMismatchError``, a witness of the wrong length ``CheckSpecError``.
    """
    columns = _one_row(spec, witness)
    _, defect, admit = _block_kernel(spec)
    admit(witness)
    return float(defect(*columns)[0])


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
    _check_seed(suite_seed)
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
    the variance bound; each set contributes projection checks.  A
    witness must lie in every declared set; it adds the quasi-firm
    checks and, with two or more sets, the composition, combination and
    Fejer checks.  A claimed constant adds one quasi-firm check for the
    named set's projection at that constant.  The composition condition
    is left out: it is only sufficient, and it fails for some pairs of sets
    whose composition theorem check passes (two balls in the hyperbolic
    plane).
    """
    missed = [n for n, c in sets.items() if witness is not None and not c.contains(witness)]
    if missed:
        raise CheckSpecError(f"witness lies outside the declared set(s) {', '.join(missed)}")
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
        for name, c in sets.items():
            add(QUASI_FIRM, max(1, samples // 2),
                {"op": Projection(c), "alpha": 0.5, "fixed_points": [witness]},
                name)
        if len(sets) >= 2:
            factors = [(Projection(c), 0.5) for c in sets.values()]
            add(COMPOSITION_THEOREM, max(1, samples // 2),
                {"factors": factors, "witness": witness}, "declared-sets")
            n = len(sets)
            add(COMBINATION_THEOREM, max(1, samples // 4),
                {"ops": [Projection(c) for c in sets.values()],
                 "alphas": [0.5] * n, "weights": [1.0 / n] * n,
                 "witness": witness}, "declared-sets")
            add(FEJER_RUN, 2,
                {"algorithm": "cyclic", "sets": list(sets.values()),
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
    strong-convexity variance bound, Fejer/shadow diagnostics for cyclic
    and averaged runs, and the composition condition for three pairs of
    projections.
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

    # appended last, so that every earlier row keeps its seed
    for s, t, label in [(half_v, half_u, "two-euclidean-halfspaces"),
                        (hyp_half_1, hyp_half_2, "two-hyperbolic-halfspaces"),
                        (spine, branch, "two-subtrees")]:
        add(COMPOSITION_CONDITION, s.space, max(1, samples // 2),
            {"factors": [(Projection(s), 0.5), (Projection(t), 0.5)]}, label)

    return _seeded_specs(rows, seed)
