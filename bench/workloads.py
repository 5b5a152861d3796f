"""The three benchmark workloads: inputs from a seed, one operation, verification.

Each workload class is built from the ``hadamard`` module, a seed and a
size (``"full"`` or ``"tiny"`` for the self-tests).  ``setup`` makes every
input from the seed alone and builds the library objects the operations
use; ``ops`` is one pass, the fixed list of operations the closed loop
runs in order, pass after pass; ``run(op)`` performs one operation through
public library calls and returns what it produced; ``verify(op, output)``
returns ``None`` or the reason the output is wrong.  ``digest`` hashes the
generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from reference import Reference, points_in


def _strata(rng, count):
    """One seeded value near the middle of each of ``count`` equal strata of [0, 1).

    Each pass then covers every parameter range evenly.  The seed moves a
    value by at most a sixteenth of its stratum, so the cost of a pass
    (some costs, such as the shadow diagnostics of a two-line run, rise
    steeply across a range) varies little from seed to seed.
    """
    return [(j + 0.5 + 0.125 * (float(rng.uniform()) - 0.5)) / count for j in range(count)]


def _lerp(lo, hi, u):
    return lo + (hi - lo) * u


def _vec(values):
    return ",".join(f"{float(v):.17g}" for v in values)


@dataclass
class Op:
    index: int
    kind: str
    data: dict = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, H, seed, size="full"):
        self.H = H
        self.seed = int(seed)
        self.tiny = size == "tiny"
        self.rng = np.random.default_rng(np.random.SeedSequence([self.seed, self._salt()]))
        self.ref = Reference(H)
        self.ops: list[Op] = []
        self.digest = ""

    def _salt(self):
        return int.from_bytes(self.name.encode(), "little") % (2**32)

    def spot_check(self):
        """None, or the reason a whole-run check of the reference failed."""
        return None

    def _weights(self, count):
        """Seeded convex weights that sum to 1 to the last bit."""
        raw = self.rng.uniform(0.1, 1.0, count)
        w = raw / raw.sum()
        w[-1] = 1.0 - float(np.sum(w[:-1]))
        return [float(x) for x in w]


# ---------------------------------------------------------------------
# certify: one run_check per default-suite spec
# ---------------------------------------------------------------------


class Certify(Workload):
    name = "certify"

    def setup(self):
        H = self.H
        suites = 1 if self.tiny else 3
        samples = 20 if self.tiny else 1000
        seeds = [int(s) for s in np.random.SeedSequence(self.seed).generate_state(
            suites, dtype=np.uint64)]
        for suite_seed in seeds:
            for spec in H.default_suite(seed=suite_seed, samples=samples):
                self.ops.append(Op(len(self.ops), spec.kind, {"spec": spec,
                                                               "suite": suite_seed}))
        self.digest = hashlib.sha256(json.dumps(
            {"suite_seeds": seeds, "samples": samples}).encode()).hexdigest()

    def run(self, op):
        return self.H.run_check(op.data["spec"])

    def verify(self, op, result):
        H = self.H
        spec = op.data["spec"]
        if not math.isfinite(result.worst_defect):
            return f"non-finite worst defect {result.worst_defect!r}"
        if not result.passed:
            return (f"{spec.kind}[{spec.label}] worst defect {result.worst_defect:.3e} "
                    f"below -{result.tolerance:g}")
        again = H.reevaluate_witness(spec, result.witness)
        if again != result.worst_defect:
            return (f"{spec.kind}[{spec.label}] witness re-evaluates to {again!r}, "
                    f"recorded {result.worst_defect!r}")
        return self.ref.check_points(points_in(result.witness, H.Point))


# ---------------------------------------------------------------------
# drivers: hadamard.cli.main on generated scenario files
# ---------------------------------------------------------------------

# Scenarios per pass.  The 20 long runs make the top fifth of latencies,
# so p90 falls inside them; p50 falls inside the fixed-point runs.
DRIVER_PASS = {"cyclic": 5, "averaged-hyperbolic": 5, "two-lines-cyclic": 5,
               "two-lines-averaged": 5, "fixedpoint": 40, "mean-hyperbolic": 20,
               "mean-product": 20}

# Big cyclic/fixed-point runs: the hyperplane pair meets at an angle in
# this range, which makes every cyclic run longer than the CLI's 400-point
# shadow limit (at least 20 sets, 22 or more sweeps to 1e-9).
WEDGE_ANGLE = (0.75, 0.88)
# Two-line runs converge to 1e-10 within 400 iterates from these angles up.
TWO_LINE_ANGLE = {"cyclic": (0.45, 1.5), "averaged": (0.6, 1.5)}
HYPERBOLIC_TOL = 1e-6
# Averaged hyperbolic runs: seeded target lengths in iterates, all above
# the 400-point shadow limit (see _hyperbolic_averaged).
HYPERBOLIC_ITERATES = (550, 900)
FLAT_TOL = 1e-9
TWO_LINE_TOL = 1e-10
FEJER_TOL = 1e-9


class Drivers(Workload):
    name = "drivers"

    def __init__(self, H, seed, size="full", workdir=None):
        super().__init__(H, seed, size)
        self.workdir = workdir

    def setup(self):
        counts = {k: 1 if self.tiny else n for k, n in DRIVER_PASS.items()}
        slots = []
        for kind, n in counts.items():
            us, vs = _strata(self.rng, n), _strata(self.rng, n)
            self.rng.shuffle(vs)
            slots += [((j + 0.5) / n, kind, j, us[j], vs[j]) for j in range(n)]
        digest = hashlib.sha256()
        # kinds interleave in proportion through the pass
        for i, (_, kind, j, u, v) in enumerate(sorted(slots)):
            if kind in ("cyclic", "fixedpoint"):
                op = self._wedge(kind, u, v)
            elif kind == "averaged-hyperbolic":
                op = self._hyperbolic_averaged(j, u, v)
            elif kind.startswith("two-lines"):
                op = self._two_lines(kind.split("-")[-1], u)
            elif kind == "mean-hyperbolic":
                op = self._hyperbolic_mean(u, v)
            else:
                op = self._product_mean(j, u, v)
            op.index = i
            op.data["file"] = f"s{i:04d}.scn"
            op.data["output"] = f"s{i:04d}.csv"
            text = op.data["text"].replace("@OUTPUT@", op.data["output"])
            op.data["text"] = text
            digest.update(text.encode())
            self.ops.append(op)
        self.digest = digest.hexdigest()
        for op in self.ops:
            with open(os.path.join(self.workdir, op.data["file"]), "w",
                      encoding="utf-8") as fh:
                fh.write(op.data["text"])

    # -- scenario generators ----------------------------------------

    def _wedge(self, algorithm, u, v):
        """N-2 random halfspaces plus two hyperplanes meeting at angle theta."""
        rng = self.rng
        n_sets = 4 if self.tiny else int(round(_lerp(20, 50, u)))
        dim = int(rng.integers(n_sets, 51)) if not self.tiny else n_sets
        theta = _lerp(*WEDGE_ANGLE, v)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, 3)))
        v1, v2, w = basis[:, 0], basis[:, 1], basis[:, 2]
        planes = [v1, -math.cos(theta) * v1 + math.sin(theta) * v2]
        radius = _lerp(0.5, 2.0, rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        p0 = radius * (math.cos(phi) * v1 + math.sin(phi) * v2)
        halfspaces = []
        reach = 0.0
        for _ in range(n_sets - 2):
            g = rng.standard_normal(dim)
            c = _lerp(0.2, 1.0, rng.uniform())
            a = g - (g @ w - c) * w            # <a, w> = c > 0
            halfspaces.append(a)
            in_plane = math.hypot(a @ v1, a @ v2)
            reach = max(reach, in_plane / c)
        # x0 = s + p0 with s = -sigma*w: every halfspace holds s plus the
        # whole disc of radius |p0| in the plane of v1, v2, so only the
        # hyperplanes ever move the iterate.
        sigma = 2.0 * reach * radius + 1.0
        x0 = -sigma * w + p0
        order = rng.permutation(n_sets)
        sets = [("hyperplane", planes[0]), ("hyperplane", planes[1])] + \
            [("halfspace", a) for a in halfspaces]
        sets = [sets[k] for k in order]
        lines = ["[space]", "kind = euclidean", f"dim = {dim}", ""]
        names = []
        for k, (kind, normal) in enumerate(sets):
            names.append(f"C{k}")
            lines += [f"[set C{k}]", f"kind = {kind}", f"normal = {_vec(normal)}",
                      "offset = 0", ""]
        lines += ["[run]", f"algorithm = {algorithm}", f"sets = {','.join(names)}",
                  f"x0 = {_vec(x0)}", f"witness = {_vec(np.zeros(dim))}",
                  "max_iter = 20000"]
        if algorithm == "cyclic":
            lines.append(f"residual_tol = {FLAT_TOL:g}")
        lines.append("output = @OUTPUT@")
        # fixedpoint stops on a stalled step today; 1e-8 is the default
        # residual target a fixed-point run may honour instead
        check = {"sets": sets, "x0": x0, "space": "euclidean",
                 "tol": FLAT_TOL if algorithm == "cyclic" else 1e-8}
        return Op(0, algorithm, {"text": "\n".join(lines) + "\n", "cmd": "run",
                                 "check": check})

    def _hyperbolic_averaged(self, j, u, v):
        """Two halfspaces through the apex meeting at angle theta, plus N-2 more.

        x0 lies in the thin sector where both of the pair are violated; the
        averaged iterates stay there and approach the apex by a factor
        1 - (1 - cos theta)/N per iterate.  The other N-2 halfspaces hold
        that whole sector, so their projections return the iterate and
        every iterate is a Frechet mean of N points, 3 of them distinct.
        theta is set from a seeded target length, longer than the CLI's
        400-point shadow limit.
        """
        rng = self.rng
        dim = int(round(_lerp(2, 5, u)))
        n_sets = 3 + j % 3
        target = 60 if self.tiny else _lerp(*HYPERBOLIC_ITERATES, v)
        theta = math.acos(1.0 - n_sets * math.log(0.2 / HYPERBOLIC_TOL) / target)
        basis, _ = np.linalg.qr(rng.standard_normal((dim, 2)))
        v1, v2 = basis[:, 0], basis[:, 1]
        n1, n2 = v1, -math.cos(theta) * v1 + math.sin(theta) * v2
        normals = [n1, n2]
        for _ in range(n_sets - 2):
            alpha, beta = rng.uniform(0.2, 1.0, 2)
            normals.append(-(alpha * n1 + beta * n2))
        order = rng.permutation(n_sets)
        normals = [normals[k] for k in order]
        # the bisector of the sector {<n1, x> >= 0, <n2, x> >= 0}, tilted inside it
        inside = math.pi / 2 - theta / 2 + theta * _lerp(-0.3, 0.3, rng.uniform())
        direction = math.cos(inside) * v1 + math.sin(inside) * v2
        tangent = _lerp(0.5, 2.0, rng.uniform()) * direction
        lines = ["[space]", "kind = hyperboloid", f"dim = {dim}", ""]
        names = []
        for k, a in enumerate(normals):
            names.append(f"S{k}")
            lines += [f"[set S{k}]", "kind = hyperbolic-halfspace",
                      f"normal = 0,{_vec(a)}", ""]
        lines += ["[run]", "algorithm = averaged", f"sets = {','.join(names)}",
                  f"x0 = exp:{_vec(tangent)}", f"witness = {_vec([1.0] + [0.0] * dim)}",
                  "max_iter = 5000", f"residual_tol = {HYPERBOLIC_TOL:g}",
                  "output = @OUTPUT@"]
        check = {"sets": [("hyperbolic-halfspace", a) for a in normals],
                 "x0": _exp(tangent), "space": "hyperboloid", "tol": HYPERBOLIC_TOL}
        return Op(0, "averaged-hyperbolic", {"text": "\n".join(lines) + "\n",
                                             "cmd": "run", "check": check})

    def _two_lines(self, algorithm, u):
        rng = self.rng
        theta = _lerp(*TWO_LINE_ANGLE[algorithm], u)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r = _lerp(0.5, 2.0, rng.uniform())
        x0 = [r * math.cos(phi), r * math.sin(phi)]
        normals = [np.array([0.0, 1.0]), np.array([-math.sin(theta), math.cos(theta)])]
        lines = ["[space]", "kind = euclidean", "dim = 2", "",
                 "[set L1]", "kind = hyperplane", f"normal = {_vec(normals[0])}",
                 "offset = 0", "",
                 "[set L2]", "kind = hyperplane", f"normal = {_vec(normals[1])}",
                 "offset = 0", "",
                 "[run]", f"algorithm = {algorithm}", "sets = L1,L2",
                 f"x0 = {_vec(x0)}", "witness = 0,0", "max_iter = 400",
                 f"residual_tol = {TWO_LINE_TOL:g}", "output = @OUTPUT@"]
        check = {"sets": [("hyperplane", a) for a in normals], "x0": np.array(x0),
                 "space": "euclidean", "tol": TWO_LINE_TOL}
        return Op(0, f"two-lines-{algorithm}", {"text": "\n".join(lines) + "\n",
                                                "cmd": "run", "check": check})

    def _hyperbolic_mean(self, u, v):
        rng = self.rng
        dim = int(round(_lerp(2, 5, u)))
        count = int(round(_lerp(3, 16, v)))
        spread = _lerp(0.3, 1.5, rng.uniform())
        tangents = [spread * rng.standard_normal(dim) for _ in range(count)]
        weights = self._weights(count)
        lines = ["[space]", "kind = hyperboloid", f"dim = {dim}", "", "[run]",
                 "algorithm = barycenter"]
        lines += [f"point = exp:{_vec(t)}" for t in tangents]
        lines += [f"weights = {_vec(weights)}", "output = @OUTPUT@"]
        return Op(0, "mean-hyperbolic", {"text": "\n".join(lines) + "\n", "cmd": "mean"})

    def _product_mean(self, j, u, v):
        rng = self.rng
        count = int(round(_lerp(3, 16, v)))
        weights = self._weights(count)
        hdim = int(round(_lerp(2, 4, u)))
        if j % 2 == 0:
            edim = int(rng.integers(1, 5))
            space = ["kind = product", "left.kind = euclidean", f"left.dim = {edim}",
                     "right.kind = hyperboloid", f"right.dim = {hdim}"]
            points = [f"({_vec(rng.standard_normal(edim))});"
                      f"(exp:{_vec(0.8 * rng.standard_normal(hdim))})"
                      for _ in range(count)]
        else:
            n_vertices = int(rng.integers(4, 9))
            edges = [(f"t{int(rng.integers(0, k))}", f"t{k}", _lerp(0.5, 2.0, rng.uniform()))
                     for k in range(1, n_vertices)]
            space = ["kind = product", "left.kind = hyperboloid", f"left.dim = {hdim}",
                     "right.kind = tree"]
            space += [f"right.edge = {a},{b},{length:.17g}" for a, b, length in edges]
            points = []
            for _ in range(count):
                e = int(rng.integers(0, len(edges)))
                offset = _lerp(0.05, 0.95, rng.uniform()) * edges[e][2]
                points.append(f"(exp:{_vec(0.8 * rng.standard_normal(hdim))});"
                              f"(edge,{e},{offset:.17g})")
        lines = ["[space]"] + space + ["", "[run]", "algorithm = barycenter"]
        lines += [f"point = {p}" for p in points]
        lines += [f"weights = {_vec(weights)}", "output = @OUTPUT@"]
        return Op(0, "mean-product", {"text": "\n".join(lines) + "\n", "cmd": "mean"})

    # -- operation and verification ---------------------------------

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = self.H.cli.main([op.data["cmd"], op.data["file"]])
            except SystemExit as exc:
                status = exc.code
        if status != 0:
            raise RuntimeError(f"exit code {status}: {err.getvalue().strip()[-300:]}")
        with open(op.data["output"], "rb") as fh:
            return fh.read()

    def verify(self, op, output):
        rows = list(csv.reader(io.StringIO(output.decode("utf-8"))))
        header, body = rows[0], rows[1:]
        if not body:
            return "CSV has no data rows"
        if op.data["cmd"] == "mean":
            return self._verify_mean(op, header, body)
        for row in body:
            for cell in row:
                if cell and not math.isfinite(float(cell)):
                    return f"non-finite cell {cell!r}"
        col = {name: k for k, name in enumerate(header)}
        check = op.data["check"]
        final = float(body[-1][col["residual"]])
        if final > check["tol"]:
            return f"final residual {final:.3e} above tolerance {check['tol']:g}"
        for row in body[1:]:
            gap = row[col["fejer_gap"]]
            if gap and float(gap) < -FEJER_TOL:
                return f"Fejer gap {gap} below -{FEJER_TOL:g} at n = {row[0]}"
        first = float(body[0][col["residual"]])
        expected = _reference_residual(op.kind, check)
        atol = 1e-7 if check["space"] == "hyperboloid" else 1e-9
        if abs(first - expected) > atol + 1e-9 * expected:
            return f"initial residual {first!r}, reference {expected!r}"
        return None

    def _verify_mean(self, op, header, body):
        H = self.H
        if header != ["point", "objective"] or len(body) != 1:
            return f"unexpected mean CSV layout {header}"
        point_text, objective_text = body[0]
        objective = float(objective_text)
        if not math.isfinite(objective):
            return f"non-finite objective {objective_text!r}"
        scenario = H.parse_scenario(op.data["text"])
        try:
            mean = H.scenario.parse_point_spec(scenario.space, point_text)
        except H.HadamardError as exc:
            return f"mean point {point_text!r} does not parse: {exc}"
        points = scenario.mean_points
        weights = scenario.weights

        def objective_at(x):
            return math.fsum(w * self.ref.distance(x, p) ** 2
                             for w, p in zip(weights, points))

        at_mean = objective_at(mean)
        tol = self.ref.tolerance(scenario.space, at_mean) * max(1.0, 4.0 * at_mean)
        if abs(at_mean - objective) > tol:
            return f"objective {objective!r}, reference {at_mean!r}"
        best_input = min(objective_at(p) for p in points)
        if at_mean > best_input + tol:
            return f"objective at the mean {at_mean!r} exceeds {best_input!r} at an input"
        return None


def _exp(tangent):
    r = float(np.linalg.norm(tangent))
    out = np.zeros(len(tangent) + 1)
    out[0] = math.cosh(r)
    out[1:] = (math.sinh(r) / r) * np.asarray(tangent) if r > 0 else 0.0
    return out


def _flat_distance_to(kind, normal, x):
    gap = float(normal @ x) / float(np.linalg.norm(normal))
    return abs(gap) if kind == "hyperplane" else max(gap, 0.0)


def _flat_project(kind, normal, x):
    gap = float(normal @ x)
    if kind == "halfspace" and gap <= 0.0:
        return x
    return x - (gap / float(normal @ normal)) * normal


def _reference_residual(kind, check):
    """Residual of x0 from closed forms: max set distance, or d(x0, T x0)."""
    x0, sets = check["x0"], check["sets"]
    if check["space"] == "hyperboloid":
        # distance to {m(u, x) <= 0} for a unit spacelike u is asinh(max(0, m(u, x)))
        return max(math.asinh(max(0.0, float(a @ x0[1:]) / float(np.linalg.norm(a))))
                   for _, a in sets)
    if kind == "fixedpoint":
        x = x0
        for set_kind, normal in sets:
            x = _flat_project(set_kind, normal, x)
        return float(np.linalg.norm(x - x0))
    return max(_flat_distance_to(set_kind, normal, x0) for set_kind, normal in sets)


# ---------------------------------------------------------------------
# trees: queries, projections, means and runs on one large metric tree
# ---------------------------------------------------------------------

TREE_TASKS = ("queries", "project", "mean", "cyclic", "cat0")


class Trees(Workload):
    name = "trees"

    def setup(self):
        H, rng = self.H, self.rng
        n = 40 if self.tiny else 2000
        lines, adjacency = [], {f"v{0}": []}
        for k in range(1, n):
            parent = f"v{int(rng.integers(0, k))}"
            length = _lerp(0.1, 2.0, rng.uniform())
            lines.append(f"{parent} v{k} {length:.17g}")
            adjacency[f"v{k}"] = [parent]
            adjacency[parent].append(f"v{k}")
        text = "\n".join(lines) + "\n"
        digest = hashlib.sha256(text.encode())
        self.tree = tree = H.parse_edge_list(text)

        def grow(start, size):
            seen, frontier = [start], [start]
            member = {start}
            while frontier and len(seen) < size:
                nxt = []
                for x in frontier:
                    for y in adjacency[x]:
                        if y not in member and len(seen) < size:
                            member.add(y)
                            seen.append(y)
                            nxt.append(y)
                frontier = nxt
            return seen

        def vertex():
            return f"v{int(rng.integers(0, n))}"

        big = (10, 20) if self.tiny else (300, 600)
        mid = (4, 10) if self.tiny else (30, 200)
        self.large = [H.Subtree(tree, grow(vertex(), int(_lerp(*big, u))), name=f"L{i}")
                      for i, u in enumerate(_strata(rng, 4))]
        self.small = [H.Subtree(tree, grow(vertex(), int(rng.integers(5, 21))), name=f"s{i}")
                      for i in range(4)]
        self.pairs = []
        for i in range(4):
            first = grow(vertex(), int(rng.integers(*mid)))
            shared = first[int(rng.integers(0, len(first)))]
            second = grow(shared, int(rng.integers(*mid)))
            self.pairs.append((H.Subtree(tree, first, name=f"A{i}"),
                               H.Subtree(tree, second, name=f"B{i}"), shared))

        def point():
            e = int(rng.integers(0, len(tree.edges)))
            return tree.edge_point(e, float(rng.uniform(0.0, tree.edges[e].length)))

        count = 1 if self.tiny else 20
        mean_sizes = [int(_lerp(4, 17, u)) for u in _strata(rng, count)]
        for c in range(count):
            for task in TREE_TASKS:
                data = {}
                if task == "queries":
                    data["pairs"] = [(point(), point(), float(rng.uniform()))
                                     for _ in range(16)]
                elif task == "project":
                    data["large"] = self.large[c % 4]
                    data["small"] = self.small[c % 4]
                    data["points"] = [point() for _ in range(8)]
                elif task == "mean":
                    k = mean_sizes[c]
                    data["points"] = [point() for _ in range(k)]
                    data["weights"] = self._weights(k)
                elif task == "cyclic":
                    data["pair"] = self.pairs[c % 4]
                    data["x0"] = point()
                else:
                    data["spec"] = H.CheckSpec(kind="cat0", space=tree,
                                               samples=8 if self.tiny else 64,
                                               seed=int(rng.integers(0, 2**63)))
                self.ops.append(Op(len(self.ops), task, data))
        digest.update(repr([(op.kind, _describe(op.data)) for op in self.ops]).encode())
        self.digest = digest.hexdigest()

    def run(self, op):
        H, d = self.H, op.data
        if op.kind == "queries":
            return [(H.distance(p, q), H.geodesic_point(p, q, t)) for p, q, t in d["pairs"]]
        if op.kind == "project":
            return ([d["large"].project(x) for x in d["points"]],
                    [d["small"].project(x) for x in d["points"]])
        if op.kind == "mean":
            return H.frechet_mean(H.WeightedPoints(d["points"], d["weights"]))
        if op.kind == "cyclic":
            first, second, shared = d["pair"]
            return H.cyclic_projections([first, second], d["x0"], H.StopRule(max_iter=200),
                                        witness=self.tree.vertex_point(shared))
        return H.run_check(d["spec"])

    def verify(self, op, out):
        H, d = self.H, op.data
        ref = self.ref.tree(self.tree)
        tol = 1e-9
        if op.kind == "queries":
            for (p, q, t), (dist, r) in zip(d["pairs"], out):
                want = ref.distance(p.payload, q.payload)
                if not math.isfinite(dist) or abs(dist - want) > tol * max(1.0, want):
                    return f"distance {dist!r}, networkx {want!r}"
                to_r = ref.distance(p.payload, r.payload)
                from_r = ref.distance(r.payload, q.payload)
                if (abs(to_r - t * want) > tol * max(1.0, want)
                        or abs(from_r - (1.0 - t) * want) > tol * max(1.0, want)):
                    return f"geodesic point at t={t} is {to_r!r} from p on a {want!r} segment"
            return None
        if op.kind == "project":
            for sub, images in ((d["large"], out[0]), (d["small"], out[1])):
                for x, px in zip(d["points"], images):
                    if ref.distance_to_set(px.payload, sub.vertex_set) > tol:
                        return f"projection onto {sub.name} lies outside the subtree"
                    want = ref.distance_to_set(x.payload, sub.vertex_set)
                    got = ref.distance(x.payload, px.payload)
                    if abs(got - want) > tol * max(1.0, want):
                        return f"projection onto {sub.name} at {got!r}, nearest is {want!r}"
            return None
        if op.kind == "mean":
            def objective(x):
                return math.fsum(w * ref.distance(x.payload, p.payload) ** 2
                                 for w, p in zip(d["weights"], d["points"]))
            at_mean = objective(out)
            best = min(objective(p) for p in d["points"])
            if at_mean > best + tol * max(1.0, best):
                return f"objective at the mean {at_mean!r} exceeds {best!r} at an input"
            return None
        if op.kind == "cyclic":
            first, second, _ = d["pair"]
            if out.stop_reason != "converged":
                return f"cyclic run stopped with '{out.stop_reason}'"
            if not all(math.isfinite(r) for r in out.residuals):
                return "non-finite residual"
            if min(out.fejer_gaps, default=0.0) < -FEJER_TOL:
                return f"Fejer gap {min(out.fejer_gaps)!r} below -{FEJER_TOL:g}"
            final = out.final_point.payload
            if max(ref.distance_to_set(final, s.vertex_set) for s in (first, second)) > tol:
                return "final iterate lies outside the intersection"
            return None
        spec = d["spec"]
        if not out.passed:
            return f"cat0 worst defect {out.worst_defect:.3e} below -{out.tolerance:g}"
        if H.reevaluate_witness(spec, out.witness) != out.worst_defect:
            return "cat0 witness does not reproduce its defect"
        return self.ref.check_points(points_in(out.witness, H.Point))

    def spot_check(self, pairs=16):
        """Cross-check the reference itself against direct networkx Dijkstra."""
        ref = self.ref.tree(self.tree)
        rng = np.random.default_rng(self.seed)
        names = self.tree.vertices
        for _ in range(pairs):
            u, v = (names[int(k)] for k in rng.integers(0, len(names), 2))
            a, b = ref.vertex_distance(u, v), ref.dijkstra_distance(u, v)
            if abs(a - b) > 1e-9 * max(1.0, b):
                return f"reference distance {a!r} vs networkx Dijkstra {b!r}"
        return None


def _describe(data):
    out = {}
    for key, value in data.items():
        if key in ("large", "small"):
            out[key] = value.name
        elif key == "pair":
            out[key] = (value[0].name, value[1].name, value[2])
        elif key == "spec":
            out[key] = (value.kind, value.samples, value.seed)
        else:
            out[key] = repr(value)
    return out


WORKLOADS = {"certify": Certify, "drivers": Drivers, "trees": Trees}
