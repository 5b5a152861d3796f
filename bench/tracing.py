"""Span tracer that wraps the library's public functions and methods from outside.

Nothing inside ``hadamard`` changes.  ``Tracer.install`` replaces each
target function with a timing wrapper in every ``hadamard.*`` module that
bound it (so ``certifier.distance`` is traced as well as
``geometry.distance``) and each target method on its class;
``uninstall`` puts the originals back.

Two kinds of target:

* spans (drivers, suite checks, CLI calls, means, tree builds) keep one
  record per call: id, name, start, end, parent span, operation id and
  self time;
* primitives (distances, geodesic points, projections, ...), called
  millions of times per certifier suite, keep only an aggregate count,
  total time and self time per (name, enclosing span).

Self time is a call's duration minus the time of the traced calls
nested directly inside it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN = "span"
PRIM = "prim"


def _moved(args, out):
    x = args[1]
    return out is not x and out != x


def _n_sets(args):
    try:
        return len(args[0])
    except TypeError:
        return 0


def _check_info(args, out):
    spec = args[0]
    per_sample = 1
    if spec.kind == "quasi_firm":
        per_sample = len(spec.payload.get("fixed_points", ()))
    elif spec.kind == "variance_ineq":
        per_sample = spec.payload.get("challengers", 50)
    return {"kind": spec.kind, "evals": spec.samples * per_sample}


def _driver_info(args, out):
    return {"iterates": out.iterations, "n_sets": _n_sets(args)}


_DRIVERS = ("cyclic_projections", "averaged_projections", "fixed_point_iterate")
_SPACE_LAYERS = {"Euclidean": "euclidean", "Hyperboloid": "hyperboloid",
                 "ProductSpace": "product"}


def _subclasses(base, method):
    """Every package class derived from ``base`` that defines ``method`` itself."""
    found = {}
    for mod in hadamard_modules():
        for value in vars(mod).values():
            if (isinstance(value, type) and issubclass(value, base)
                    and method in value.__dict__):
                found[value.__qualname__] = value
    return [found[k] for k in sorted(found)]


def _targets():
    """(traced name, kind, info hook, [(owner class or module, attribute)])."""
    import hadamard.barycenter as barycenter
    import hadamard.certifier as certifier
    import hadamard.cli as cli
    import hadamard.geometry as geometry
    import hadamard.iterations as iterations
    import hadamard.metric_tree as metric_tree
    import hadamard.operators as operators
    import hadamard.scenario as scenario
    from hadamard.convex_sets import ConvexSet

    def fn(module, attr):
        return [(module, attr)]

    def methods(base, attr):
        return [(cls, attr) for cls in _subclasses(base, attr)]

    t = [
        ("geometry.distance", PRIM, None, fn(geometry, "distance")),
        ("geometry.geodesic_point", PRIM, None, fn(geometry, "geodesic_point")),
        ("geometry.validate_payload", PRIM, None,
         methods(geometry.SpaceModel, "validate_payload")),
        # layer-table only: keeps the certifier's self time to its own code
        ("geometry.sample_payload", PRIM, None, methods(geometry.SpaceModel, "sample_payload")),
        ("geometry.cat0_defect", PRIM, None, fn(geometry, "cat0_defect")),
        ("geometry.quasilinearization", PRIM, None, fn(geometry, "quasilinearization")),
        ("metric_tree.build", SPAN, None, [(metric_tree.MetricTree, "__init__")]),
        ("metric_tree.parse_edge_list", SPAN, None, fn(metric_tree, "parse_edge_list")),
        ("convex_sets.project", PRIM, _moved, methods(ConvexSet, "project")),
        ("convex_sets.contains", PRIM, None, methods(ConvexSet, "contains")),
        ("operators.apply", PRIM, None, methods(operators.Operator, "apply")),
        ("operators.quasi_firm_defect", PRIM, None, fn(operators, "quasi_firm_defect")),
        ("barycenter.frechet_mean", SPAN, None, fn(barycenter, "frechet_mean")),
        ("barycenter.variance_defect", PRIM, None, fn(barycenter, "variance_defect")),
        ("iterations.approximate_shadows", SPAN, None, fn(iterations, "approximate_shadows")),
        ("iterations.technical_condition_gaps", SPAN, None,
         fn(iterations, "technical_condition_gaps")),
        ("iterations.shadow_cauchy_worst_defect", SPAN, None,
         fn(iterations, "shadow_cauchy_worst_defect")),
        ("certifier.run_check", SPAN, _check_info, fn(certifier, "run_check")),
        ("scenario.parse", SPAN, None, fn(scenario, "parse_scenario")),
        ("cli.main", SPAN, None, fn(cli, "main")),
    ]
    for cls_name, layer in _SPACE_LAYERS.items():
        cls = getattr(geometry, cls_name, None)
        for m in ("payload_distance", "payload_interpolate"):
            t.append((f"geometry.{layer}.{m}", PRIM, None, [(cls, m)]))
    for m in ("payload_distance", "payload_interpolate", "vertex_path", "distance_to_vertex"):
        t.append((f"metric_tree.{m}", PRIM, None, [(metric_tree.MetricTree, m)]))
    for name in _DRIVERS:
        t.append((f"iterations.{name}", SPAN, _driver_info, fn(iterations, name)))
    return t


def hadamard_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "hadamard" or n.startswith("hadamard."))]


def rebind(original, replacement):
    """Replace every module-level binding of ``original`` in the package."""
    for mod in hadamard_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.frames = [[0.0]]       # child-time accumulators, innermost last
        self.span_stack = [0]       # ids of enclosing spans; 0 is the root
        self.agg = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, hits
        self.spans = []             # (id, name, start, end, parent, op, self, info)
        self.op = None
        self._next_id = 1
        self._installed = []
        self.missing = []

    # -- wrappers ---------------------------------------------------

    def _prim(self, name, fn, observe):
        frames, span_stack, agg, perf = self.frames, self.span_stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                frames.pop()
                frames[-1][0] += dur
                entry = agg[(name, span_stack[-1])]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
            if observe is not None and observe(args, out):
                entry[3] += 1
            return out

        return wrapper

    def _span(self, name, fn, info):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as extra:
                out = fn(*args, **kwargs)
                if info is not None:
                    extra.update(info(args, out))
                return out

        return wrapper

    @contextmanager
    def span(self, name, op=None):
        """Record one span; ``op`` starts a new operation id."""
        span_id = self._next_id
        self._next_id += 1
        parent = self.span_stack[-1]
        previous_op = self.op
        if op is not None:
            self.op = op
        frame = [0.0]
        extra = {}
        self.frames.append(frame)
        self.span_stack.append(span_id)
        t0 = time.perf_counter()
        try:
            yield extra
        finally:
            t1 = time.perf_counter()
            self.span_stack.pop()
            self.frames.pop()
            self.frames[-1][0] += t1 - t0
            self.spans.append((span_id, name, t0, t1, parent, self.op,
                               t1 - t0 - frame[0], extra))
            self.op = previous_op

    # -- install / uninstall ----------------------------------------

    def install(self):
        """Wrap every target; names whose function or method is gone are listed."""
        self.missing = []
        for name, kind, hook, owners in _targets():
            found = False
            for owner, attr in owners:
                original = None
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr)
                elif owner is not None:
                    original = getattr(owner, attr, None)
                if original is None:
                    continue
                found = True
                wrapped = (self._prim(name, original, hook) if kind == PRIM
                           else self._span(name, original, hook))
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                else:
                    rebind(original, wrapped)
                self._installed.append((owner, attr, original, wrapped))
            if not found:
                self.missing.append(name)

    def uninstall(self):
        for owner, attr, original, wrapped in reversed(self._installed):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                rebind(wrapped, original)
        self._installed.clear()

    # -- output -----------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, self_s, extra in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "self_s": self_s,
                                     **extra}) + "\n")
            for (name, parent), (calls, total, self_s, hits) in sorted(self.agg.items()):
                fh.write(json.dumps({"aggregate": name, "parent": parent, "calls": calls,
                                     "total_s": total, "self_s": self_s, "hits": hits}) + "\n")


# ---------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------

# Written out rather than read from hadamard.certifier, so that the metric
# names stay those listed in BENCHMARK.json whatever the library defines.
CHECK_KINDS = ("cat0", "cauchy_schwarz", "projection_firm", "projection_ineq", "quasi_firm",
               "composition_theorem", "combination_theorem", "fix_convexity",
               "variance_ineq", "fejer_run")

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "geometry.distance.calls": "count",
    "geometry.distance.self_s": "s",
    "geometry.geodesic_point.calls": "count",
    "geometry.geodesic_point.self_s": "s",
    "geometry.euclidean.self_s": "s",
    "geometry.hyperboloid.self_s": "s",
    "geometry.product.self_s": "s",
    "geometry.point_validations": "count",
    "metric_tree.build_s": "s",
    "metric_tree.payload_distance.calls": "count",
    "metric_tree.payload_distance.self_s": "s",
    "metric_tree.payload_interpolate.calls": "count",
    "metric_tree.payload_interpolate.self_s": "s",
    "metric_tree.vertex_path.calls": "count",
    "metric_tree.vertex_path.self_s": "s",
    "metric_tree.distance_to_vertex.calls": "count",
    "convex_sets.project.calls": "count",
    "convex_sets.project.self_s": "s",
    "convex_sets.contains.calls": "count",
    "convex_sets.contains.self_s": "s",
    "convex_sets.project.moved_ratio": "moved/calls",
    "operators.apply.calls": "count",
    "operators.apply.self_s": "s",
    "operators.quasi_firm_defect.calls": "count",
    "operators.quasi_firm_defect.self_s": "s",
    "barycenter.frechet_mean.calls": "count",
    "barycenter.frechet_mean.self_s": "s",
    "barycenter.variance_defect.self_s": "s",
    "barycenter.frechet_mean.distances_per_call": "dist/call",
    "iterations.driver_runs": "count",
    "iterations.iterates": "count",
    "iterations.driver.self_s": "s",
    "iterations.projections_per_iterate": "proj/iterate",
    "iterations.cyclic.projections_over_1pN": "ratio",
    "iterations.shadow.inner_runs": "count",
    "iterations.shadow.inner_iterates": "count",
    "iterations.shadow.total_s": "s",
    "iterations.gaps.total_s": "s",
    "certifier.run_check.calls": "count",
    "certifier.evals": "count",
    "certifier.evals_per_s": "1/s",
    **{f"certifier.kind.{k}.total_s": "s" for k in CHECK_KINDS},
    "scenario.parse.calls": "count",
    "scenario.parse.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

_DRIVER_NAMES = {f"iterations.{name}" for name in _DRIVERS}
_DISTANCE_PRIMS = {"geometry.euclidean.payload_distance", "geometry.hyperboloid.payload_distance",
                   "geometry.product.payload_distance", "metric_tree.payload_distance",
                   "metric_tree.distance_to_vertex"}


def totals(tracer):
    """name -> [calls, total_s, self_s, hits] over spans and aggregates."""
    out = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for (name, _), (calls, total, self_s, hits) in tracer.agg.items():
        entry = out[name]
        entry[0] += calls
        entry[1] += total
        entry[2] += self_s
        entry[3] += hits
    for _, name, t0, t1, _, _, self_s, _ in tracer.spans:
        if name.startswith("op."):
            continue
        entry = out[name]
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += self_s
    return out


def layer_metrics(tracer, setup_tracer, untraced_s, traced_s, artifact_bytes):
    t = totals(tracer)
    setup = totals(setup_tracer) if setup_tracer is not None else {}
    spans = {s[0]: s for s in tracer.spans}

    def calls(name):
        return t[name][0] if name in t else 0

    def self_s(*names):
        return sum(t[n][2] for n in names if n in t)

    def total_s(*names):
        return sum(t[n][1] for n in names if n in t)

    def under(span_id, name):
        while span_id:
            span = spans[span_id]
            if span[1] == name:
                return True
            span_id = span[4]
        return False

    m = {}
    for name in ("geometry.distance", "geometry.geodesic_point"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for layer in _SPACE_LAYERS.values():
        m[f"geometry.{layer}.self_s"] = self_s(f"geometry.{layer}.payload_distance",
                                               f"geometry.{layer}.payload_interpolate")
    m["geometry.point_validations"] = calls("geometry.validate_payload")

    m["metric_tree.build_s"] = total_s("metric_tree.build") + (
        setup["metric_tree.build"][1] if "metric_tree.build" in setup else 0.0)
    for name in ("payload_distance", "payload_interpolate", "vertex_path"):
        m[f"metric_tree.{name}.calls"] = calls(f"metric_tree.{name}")
        m[f"metric_tree.{name}.self_s"] = self_s(f"metric_tree.{name}")
    m["metric_tree.distance_to_vertex.calls"] = calls("metric_tree.distance_to_vertex")

    for name in ("project", "contains"):
        m[f"convex_sets.{name}.calls"] = calls(f"convex_sets.{name}")
        m[f"convex_sets.{name}.self_s"] = self_s(f"convex_sets.{name}")
    projections = calls("convex_sets.project")
    moved = t["convex_sets.project"][3] if projections else 0
    m["convex_sets.project.moved_ratio"] = moved / projections if projections else 0.0

    for name in ("apply", "quasi_firm_defect"):
        m[f"operators.{name}.calls"] = calls(f"operators.{name}")
        m[f"operators.{name}.self_s"] = self_s(f"operators.{name}")

    means = calls("barycenter.frechet_mean")
    mean_ids = {s[0] for s in tracer.spans if s[1] == "barycenter.frechet_mean"}
    mean_distances = sum(e[0] for (name, parent), e in tracer.agg.items()
                         if parent in mean_ids and name in _DISTANCE_PRIMS)
    m["barycenter.frechet_mean.calls"] = means
    m["barycenter.frechet_mean.self_s"] = self_s("barycenter.frechet_mean")
    m["barycenter.variance_defect.self_s"] = self_s("barycenter.variance_defect")
    m["barycenter.frechet_mean.distances_per_call"] = mean_distances / means if means else 0.0

    outer, inner = [], []
    for span in tracer.spans:
        if span[1] in _DRIVER_NAMES:
            (inner if under(span[4], "iterations.approximate_shadows") else outer).append(span)
    projections_under = defaultdict(int)
    for (name, parent), e in tracer.agg.items():
        if name == "convex_sets.project":
            projections_under[parent] += e[0]
    iterates = sum(s[7].get("iterates", 0) for s in outer)
    m["iterations.driver_runs"] = len(outer)
    m["iterations.iterates"] = iterates
    m["iterations.driver.self_s"] = sum(s[6] for s in outer)
    m["iterations.projections_per_iterate"] = (
        sum(projections_under[s[0]] for s in outer) / iterates if iterates else 0.0)
    cyclic = [s for s in outer if s[1] == "iterations.cyclic_projections"]
    expected = sum(s[7]["iterates"] * (1 + s[7]["n_sets"]) for s in cyclic)
    m["iterations.cyclic.projections_over_1pN"] = (
        sum(projections_under[s[0]] for s in cyclic) / expected if expected else 0.0)
    m["iterations.shadow.inner_runs"] = len(inner)
    m["iterations.shadow.inner_iterates"] = sum(s[7].get("iterates", 0) for s in inner)
    m["iterations.shadow.total_s"] = total_s("iterations.approximate_shadows")
    m["iterations.gaps.total_s"] = total_s("iterations.technical_condition_gaps",
                                           "iterations.shadow_cauchy_worst_defect")

    checks = [s for s in tracer.spans if s[1] == "certifier.run_check"]
    check_s = sum(s[3] - s[2] for s in checks)
    overhead = traced_s / untraced_s if untraced_s > 0 else 0.0
    evals = sum(s[7].get("evals", 0) for s in checks)
    m["certifier.run_check.calls"] = len(checks)
    m["certifier.evals"] = evals
    # run_check time with the tracing overhead taken out
    m["certifier.evals_per_s"] = evals * overhead / check_s if check_s > 0 else 0.0
    for kind in CHECK_KINDS:
        m[f"certifier.kind.{kind}.total_s"] = sum(
            s[3] - s[2] for s in checks if s[7].get("kind") == kind)

    m["scenario.parse.calls"] = calls("scenario.parse")
    m["scenario.parse.self_s"] = self_s("scenario.parse")
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.artifact_bytes"] = artifact_bytes
    m["trace.overhead_ratio"] = overhead
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def layer_table(tracer):
    """Calls, self time and share of operation time for every traced name."""
    op_s = sum(s[3] - s[2] for s in tracer.spans if s[1].startswith("op."))
    rows = sorted(totals(tracer).items(), key=lambda kv: -kv[1][2])
    lines = [f"{'layer function':44s} {'calls':>10s} {'self_s':>10s} {'share':>7s}"]
    for name, (calls, _, self_s, _) in rows:
        share = self_s / op_s if op_s > 0 else 0.0
        lines.append(f"{name:44s} {calls:10d} {self_s:10.4f} {share:7.1%}")
    own = sum(s[6] for s in tracer.spans if s[1].startswith("op."))
    lines.append(f"{'(benchmark code inside operations)':44s} {'':10s} {own:10.4f} "
                 f"{own / op_s if op_s > 0 else 0.0:7.1%}")
    return lines
