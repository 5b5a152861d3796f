"""Scenario documents: flat sectioned key-value descriptions of a run.

A scenario declares a space, named convex sets, and one run in a plain
text format that is trivially diffable::

    [space]
    kind = euclidean
    dim = 2

    [set A]
    kind = halfspace
    normal = 0,1
    offset = 0

    [run]
    algorithm = cyclic
    sets = A,B
    x0 = 1,1
    max_iter = 100
    output = trace.csv

Vectors are comma-separated reals; tree points read ``vertex,NAME`` or
``edge,INDEX,OFFSET``; hyperboloid points are ambient coordinates or
``exp:`` plus tangent coordinates at the apex; product points join the
factor specs with ``;``.  Unknown sections or keys are hard errors, as
are repeated keys, unresolved set references and weight lists that do
not sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .barycenter import _STEP_TOL, _check_step_tol, convex_weights
from .certifier import _check_count, _check_seed
from .convex_sets import (
    ConvexSet,
    EuclideanHalfspace,
    EuclideanHyperplane,
    GeodesicBall,
    HyperbolicHalfspace,
    ProductSet,
    Subtree,
)
from .errors import (
    ConstructionError,
    HadamardError,
    InvalidPointError,
    ScenarioError,
    SpaceMismatchError,
)
from .geometry import Euclidean, Hyperboloid, Point, ProductSpace, SpaceModel
from .geometry import _EXP_RADIUS, _exp_rows, _lines
from .iterations import StopRule
from .metric_tree import MetricTree
from .operators import _check_alpha

__all__ = ["Scenario", "parse_scenario", "parse_point_spec", "point_spec"]


@dataclass(eq=False)
class Scenario:
    """A parsed and fully validated scenario document."""

    space: SpaceModel
    sets: dict[str, ConvexSet]
    algorithm: str
    run_sets: list[str]
    output_path: str
    x0: Point | None = None
    witness: Point | None = None
    weights: list[float] | None = None
    stop: StopRule | None = None
    seed: int = 0
    samples: int = 1000
    claim_alpha: float | None = None
    claim_set: str | None = None
    mean_points: list[Point] = field(default_factory=list)
    step_tol: float = _STEP_TOL


# ---------------------------------------------------------------------
# low-level document structure
# ---------------------------------------------------------------------


class _Section:
    def __init__(self, header: str, line_no: int):
        self.header = header
        self.line_no = line_no
        self.items: list[tuple[str, str, int]] = []
        self._by_key: dict[str, list[tuple[str, int | str]]] | None = None

    def get(self, key: str):
        hits = self.get_all(key)
        if not hits:
            return None
        if len(hits) > 1:
            raise ScenarioError(f"key repeats {len(hits)} times", line_no=hits[1][1], key=key)
        return hits[0]

    def get_all(self, key: str):
        if self._by_key is None:  # indexed at the first lookup, once the items are read
            self._by_key = {}
            for k, v, ln in self.items:
                self._by_key.setdefault(k, []).append((v, ln))
        return self._by_key.get(key, [])

    def override(self, key: str, value: str, flag: str) -> None:
        """Give an allowed ``key`` a command-line ``flag``'s value, in place of its first line."""
        self._by_key[key] = [(value, flag)] + self.get_all(key)[1:]

    def require(self, key: str):
        hit = self.get(key)
        if hit is None:
            raise ScenarioError("missing mandatory key", line_no=self.line_no, key=key)
        return hit

    def only(self, allowed) -> None:
        for k, _, ln in self.items:
            if k not in allowed:
                raise ScenarioError("unknown key", line_no=ln, key=k)

    def factors(self, what: str, kind_ln: int) -> tuple[_Section, _Section]:
        """Split a product's ``left.``/``right.`` keys into two sub-sections."""
        left, right = _Section(self.header, self.line_no), _Section(self.header, self.line_no)
        for key, value, ln in self.items:
            if key.startswith("left."):
                left.items.append((key[5:], value, ln))
            elif key.startswith("right."):
                right.items.append((key[6:], value, ln))
            elif key != "kind":
                raise ScenarioError("unknown key", line_no=ln, key=key)
        if not left.items or not right.items:
            raise ScenarioError(f"{what} needs left.* and right.* keys", line_no=kind_ln)
        return left, right


def _split_document(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for line_no, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            current = _Section(line[1:-1].strip(), line_no)
            sections.append(current)
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ScenarioError(f"expected 'key = value', got {raw!r}", line_no=line_no)
        if current is None:
            raise ScenarioError("key outside any section", line_no=line_no)
        current.items.append((key.strip(), value.strip(), line_no))
    return sections


def _error(message: str, at, key: str | None) -> ScenarioError:
    """The error of a value at line ``at``, or given by the command-line flag ``at``."""
    if isinstance(at, str):
        return ScenarioError(f"flag {at}: {message}")
    return ScenarioError(message, line_no=at, key=key)


def _checked(at, key: str | None, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its library error reported at the value's line or flag."""
    try:
        return check(*args, **kwargs)
    except HadamardError as exc:
        raise _error(str(exc), at, key)


def _floats(value: str, line_no: int, key: str) -> np.ndarray:
    try:
        return np.array(list(map(float, value.split(","))))
    except ValueError:
        raise ScenarioError(f"expected comma-separated reals, got {value!r}",
                            line_no=line_no, key=key)


def _int(value: str, at, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _error(f"expected an integer, got {value!r}", at, key)


def _float(value: str, at, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise _error(f"expected a real, got {value!r}", at, key)


# ---------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------


def _build_space(sec: _Section) -> SpaceModel:
    kind, kind_ln = sec.require("kind")
    if kind == "euclidean" or kind == "hyperboloid":
        sec.only({"kind", "dim"})
        dim_v, dim_ln = sec.require("dim")
        model = Euclidean if kind == "euclidean" else Hyperboloid
        return _checked(dim_ln, "dim", model, _int(dim_v, dim_ln, "dim"))
    if kind == "tree":
        sec.only({"kind", "edge"})
        edges = []
        for v, ln in sec.get_all("edge"):
            parts = [p.strip() for p in v.split(",")]
            if len(parts) != 3:
                raise ScenarioError(f"expected 'A,B,length', got {v!r}", line_no=ln, key="edge")
            edges.append((parts[0], parts[1], _float(parts[2], ln, "edge")))
        return _checked(sec.line_no, None, MetricTree, edges)
    if kind == "product":
        left, right = sec.factors("product space", kind_ln)
        return ProductSpace(_build_space(left), _build_space(right))
    raise ScenarioError(f"unknown space kind {kind!r}", line_no=kind_ln, key="kind")


# ---------------------------------------------------------------------
# points
# ---------------------------------------------------------------------


def _split_product_spec(text: str, line_no: int, key: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            return text[:i], text[i + 1:]
    raise ScenarioError(f"product point needs 'left;right', got {text!r}",
                        line_no=line_no, key=key)


def _strip_parens(text: str) -> str:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return text[1:-1].strip()
    return text


def parse_point_spec(space: SpaceModel, text: str, line_no: int = 0, key: str = "point") -> Point:
    """Parse a textual point in the conventions of the given space."""
    text = text.strip()
    try:
        if isinstance(space, Euclidean):
            return space.point(_floats(text, line_no, key))
        if isinstance(space, Hyperboloid):
            if text.startswith("exp:"):
                return space.exp_from_base(_floats(text[4:], line_no, key))
            return space.point(_floats(text, line_no, key))
        if isinstance(space, MetricTree):
            parts = [p.strip() for p in text.split(",")]
            if parts[0] == "vertex" and len(parts) == 2:
                return space.vertex_point(parts[1])
            if parts[0] == "edge" and len(parts) == 3:
                return space.edge_point(_int(parts[1], line_no, key),
                                        _float(parts[2], line_no, key))
            raise ScenarioError(
                f"tree point must be 'vertex,NAME' or 'edge,INDEX,OFFSET', got {text!r}",
                line_no=line_no, key=key)
        if isinstance(space, ProductSpace):
            left_text, right_text = _split_product_spec(text, line_no, key)
            pl = parse_point_spec(space.left, _strip_parens(left_text), line_no, key)
            pr = parse_point_spec(space.right, _strip_parens(right_text), line_no, key)
            return space.point((pl, pr))
    except (InvalidPointError, ConstructionError) as exc:
        raise ScenarioError(str(exc), line_no=line_no, key=key)
    raise ScenarioError(f"no point syntax for space {space.describe()}",
                        line_no=line_no, key=key)


def _parse_points(space: SpaceModel, items) -> list[Point]:
    """``parse_point_spec`` of each (text, line) item, in order, with one exp block.

    The ``exp:`` tangents of a hyperboloid, or of a product's hyperboloid
    factor, go through one ``_exp_rows`` call, whose rows equal
    ``exp_from_base`` bit for bit.  If anything fails, the items are
    parsed one by one, so that the error names the first bad line.
    """
    try:
        return _block_points(space, items)
    except (HadamardError, ValueError):
        return [parse_point_spec(space, text, line_no, "point") for text, line_no in items]


def _block_points(space: SpaceModel, items) -> list[Point]:
    """The points of ``_parse_points``, raising at any bad item."""
    if isinstance(space, ProductSpace):
        halves = [(_split_product_spec(text.strip(), ln, "point"), ln) for text, ln in items]
        left = _block_points(space.left, [(_strip_parens(a), ln) for (a, _), ln in halves])
        right = _block_points(space.right, [(_strip_parens(b), ln) for (_, b), ln in halves])
        return [space.point(pair) for pair in zip(left, right)]
    # the tangent text of each exp: item, by its position
    exps = {i: text.strip()[4:] for i, (text, _) in enumerate(items)
            if isinstance(space, Hyperboloid) and text.strip().startswith("exp:")}
    points = [None if i in exps else parse_point_spec(space, text, ln, "point")
              for i, (text, ln) in enumerate(items)]
    if exps:
        # a bad token or a ragged list raises ValueError, and so do a wrong width and a
        # coordinate that ``exp_from_base`` refuses before its squares can overflow
        tangents = np.array([[float(tok) for tok in t.split(",")] for t in exps.values()])
        if tangents.shape[1] != space.dim or not np.abs(tangents).max() <= _EXP_RADIUS:
            raise ValueError(f"tangents need {space.dim} coordinates within the radius bound")
        block = _exp_rows(tangents)
        for k, i in enumerate(exps):
            points[i] = space.row(block, k)
    return points


def point_spec(point: Point) -> str:
    """Full-precision textual form of a point, inverse to parse_point_spec."""
    if not isinstance(point, Point):
        raise SpaceMismatchError(f"{point!r} is not a point")
    space = point.space
    if isinstance(space, (Euclidean, Hyperboloid)):
        return ",".join(f"{v:.17g}" for v in point.payload)
    if isinstance(space, MetricTree):
        return space.format_payload(point.payload)
    if isinstance(space, ProductSpace):
        pl, pr = point.payload
        return f"({point_spec(pl)});({point_spec(pr)})"
    raise ScenarioError(f"no point syntax for space {space.describe()}")


# ---------------------------------------------------------------------
# sets
# ---------------------------------------------------------------------


def _build_set(space: SpaceModel, name: str, sec: _Section) -> ConvexSet:
    kind, kind_ln = sec.require("kind")
    try:
        if kind == "halfspace" or kind == "hyperplane":
            sec.only({"kind", "normal", "offset"})
            normal_v, normal_ln = sec.require("normal")
            offset_v, offset_ln = sec.require("offset")
            cls = EuclideanHalfspace if kind == "halfspace" else EuclideanHyperplane
            return cls(space, _floats(normal_v, normal_ln, "normal"),
                       _float(offset_v, offset_ln, "offset"), name=name)
        if kind == "hyperbolic-halfspace":
            sec.only({"kind", "normal"})
            normal_v, normal_ln = sec.require("normal")
            return HyperbolicHalfspace(space, _floats(normal_v, normal_ln, "normal"),
                                       name=name)
        if kind == "ball":
            sec.only({"kind", "center", "radius"})
            center_v, center_ln = sec.require("center")
            radius_v, radius_ln = sec.require("radius")
            return GeodesicBall(parse_point_spec(space, center_v, center_ln, "center"),
                                _float(radius_v, radius_ln, "radius"), name=name)
        if kind == "subtree":
            sec.only({"kind", "vertices"})
            verts_v, _ = sec.require("vertices")
            return Subtree(space, [v.strip() for v in verts_v.split(",")], name=name)
        if kind == "product":
            if not isinstance(space, ProductSpace):
                raise ScenarioError("product set needs a product space",
                                    line_no=kind_ln, key="kind")
            left, right = sec.factors("product set", kind_ln)
            return ProductSet(space,
                              _build_set(space.left, f"{name}.left", left),
                              _build_set(space.right, f"{name}.right", right),
                              name=name)
    except ConstructionError as exc:
        raise ScenarioError(str(exc), line_no=kind_ln)
    raise ScenarioError(f"unknown set kind {kind!r}", line_no=kind_ln, key="kind")


# The sets of a flat family by kind, and the keys each of its sections gives once.
_FLAT_SETS = {"halfspace": EuclideanHalfspace, "hyperplane": EuclideanHyperplane}
_FLAT_KEYS = {"kind", "normal", "offset"}


def _flat_family(space: SpaceModel, sections: list[_Section]) -> dict[str, ConvexSet] | None:
    """The sets of a flat family built as one block, or None.

    A family is flat when the space is Euclidean and every set section is a
    ``halfspace`` or ``hyperplane`` that gives ``kind``, ``normal`` and
    ``offset`` once each.  Its normals are converted into one (K, d) block,
    which ``EuclideanHalfspace._of_block`` checks and builds the sets on, so
    the sets equal ``_build_set``'s bit for bit.  None for any other family
    and at any failed check: the caller then builds the sets one by one,
    and the first bad set raises its error.
    """
    if not (isinstance(space, Euclidean) and sections):
        return None
    classes, names, normals, offsets = [], [], [], []
    for sec in sections:
        fields = {key: value for key, value, _ in sec.items}
        if len(sec.items) != 3 or fields.keys() != _FLAT_KEYS:
            return None
        cls = _FLAT_SETS.get(fields["kind"])
        if cls is None:
            return None
        classes.append(cls)
        names.append(sec.header[4:].strip())
        normals.append(fields["normal"])
        offsets.append(fields["offset"])
    dim = space.dim
    rows = [value.split(",") for value in normals]
    # every row's length first, so that the block below is never ragged
    if len(set(names)) != len(names) or any(len(row) != dim for row in rows):
        return None
    try:
        # float() of each token, as ``_floats`` takes it, row after row
        block = np.fromiter(map(float, chain.from_iterable(rows)), float,
                            count=len(rows) * dim).reshape(-1, dim)
        offsets = list(map(float, offsets))
    except ValueError:
        return None
    sets = EuclideanHalfspace._of_block(space, classes, names, block, offsets)
    return None if sets is None else dict(zip(names, sets))


# ---------------------------------------------------------------------
# the run section and whole-document assembly
# ---------------------------------------------------------------------

# The [run] keys each algorithm reads; the algorithms that read ``sets`` iterate.
_ITERATION_KEYS = {"algorithm", "sets", "x0", "witness", "max_iter", "residual_tol",
                   "stall_tol", "output"}
_RUN_KEYS = {
    "cyclic": _ITERATION_KEYS,
    "averaged": _ITERATION_KEYS | {"weights"},
    "fixedpoint": _ITERATION_KEYS,
    "certify": {"algorithm", "samples", "seed", "witness",
                "claim_alpha", "claim_set", "output"},
    "barycenter": {"algorithm", "point", "weights", "step_tol", "output"},
}

# The command-line flags: the [run] keys each may stand for, and its help.
# A flag sets the first of its keys that the scenario's algorithm reads.
_FLAGS = {
    "--seed": (("seed",), "override the scenario seed (certify)"),
    "--max-iter": (("max_iter",),
                   "override the iteration cap (cyclic, averaged, fixedpoint)"),
    "--tol": (("residual_tol", "step_tol"),
              "override the residual tolerance (cyclic, averaged, fixedpoint) "
              "or the step tolerance (barycenter)"),
}


def _parse_weights(hit, count: int, what: str) -> list[float]:
    """The convex weights of a ``weights`` line, one for each of ``count`` ``what``."""
    value, line_no = hit
    weights = list(_checked(line_no, "weights", convex_weights,
                            _floats(value, line_no, "weights")))
    if len(weights) != count:
        raise ScenarioError(f"{count} {what} but {len(weights)} weights",
                            line_no=line_no, key="weights")
    return weights


def parse_scenario(text: str, overrides: dict[str, str] | None = None) -> Scenario:
    """Parse and validate a scenario document (see module docstring).

    ``overrides`` maps command-line flags (``--seed``, ``--max-iter``,
    ``--tol``) to value text.  Each flag sets the [run] key it stands for
    (``--tol`` is ``residual_tol``, or ``step_tol`` for a barycenter)
    before any validation, so its value is parsed and checked as that key
    written in the document would be.  A flag the scenario's algorithm does
    not read is an error, and so is a flag's bad value; both name the flag.
    """
    if not isinstance(text, str):
        raise ScenarioError(f"scenario must be text, got {type(text).__name__}")
    # an editor's UTF-8 byte-order mark decodes to one leading U+FEFF
    sections = _split_document(text.removeprefix("\ufeff"))
    space_sections = [s for s in sections if s.header == "space"]
    run_sections = [s for s in sections if s.header == "run"]
    set_sections = [s for s in sections if s.header.startswith("set ")]
    known = set(space_sections) | set(run_sections) | set(set_sections)
    for s in sections:
        if s not in known:
            raise ScenarioError(f"unknown section [{s.header}]", line_no=s.line_no)
    if len(space_sections) != 1:
        raise ScenarioError(f"need exactly one [space] section, found {len(space_sections)}")
    if len(run_sections) != 1:
        raise ScenarioError(f"need exactly one [run] section, found {len(run_sections)}")

    space = _build_space(space_sections[0])

    sets = _flat_family(space, set_sections)
    if sets is None:
        sets = {}
        for sec in set_sections:
            name = sec.header[4:].strip()
            if name in sets:
                raise ScenarioError(f"duplicate set name '{name}'", line_no=sec.line_no)
            sets[name] = _build_set(space, name, sec)

    run = run_sections[0]
    algorithm_v, algorithm_ln = run.require("algorithm")
    if algorithm_v not in _RUN_KEYS:
        raise ScenarioError(f"unknown algorithm {algorithm_v!r}",
                            line_no=algorithm_ln, key="algorithm")
    allowed = _RUN_KEYS[algorithm_v]
    for flag, value in (overrides or {}).items():
        if flag not in _FLAGS:
            raise ScenarioError(f"unknown flag {flag}")
        key = next((k for k in _FLAGS[flag][0] if k in allowed), None)
        if key is None:
            raise ScenarioError(f"flag {flag} does not apply to algorithm '{algorithm_v}'")
        run.override(key, str(value), flag)
    run.only(allowed)

    output_v, _ = run.require("output")
    scenario = Scenario(space=space, sets=sets, algorithm=algorithm_v,
                        run_sets=[], output_path=output_v)

    if "sets" in allowed:
        sets_v, sets_ln = run.require("sets")
        names = [n.strip() for n in sets_v.split(",") if n.strip()]
        if not names:
            raise ScenarioError("empty set list", line_no=sets_ln, key="sets")
        for n in names:
            if n not in sets:
                raise ScenarioError(f"unresolved set reference '{n}'",
                                    line_no=sets_ln, key="sets")
        scenario.run_sets = names
        x0_v, x0_ln = run.require("x0")
        scenario.x0 = parse_point_spec(space, x0_v, x0_ln, "x0")
        # Adding one key at a time pins a StopRule error on that key's line.
        stop = {}
        for key, parse in (("max_iter", _int), ("residual_tol", _float), ("stall_tol", _float)):
            hit = run.require(key) if key == "max_iter" else run.get(key)
            if hit is None:
                continue
            stop[key] = parse(*hit, key)
            scenario.stop = _checked(hit[1], key, StopRule, **stop)
        if algorithm_v == "averaged":
            weights = run.get("weights")
            if weights is not None:
                scenario.weights = _parse_weights(weights, len(names), "sets")
    elif algorithm_v == "certify":
        samples = run.get("samples")
        if samples is not None:
            scenario.samples = _checked(samples[1], "samples", _check_count, "samples",
                                        _int(*samples, "samples"))
        seed = run.get("seed")
        if seed is not None:
            scenario.seed = _int(*seed, "seed")
            _checked(seed[1], "seed", _check_seed, scenario.seed)
        claim_alpha = run.get("claim_alpha")
        claim_set = run.get("claim_set")
        if (claim_alpha is None) != (claim_set is None):
            raise ScenarioError("claim_alpha and claim_set must appear together",
                                line_no=run.line_no)
        if claim_alpha is not None:
            scenario.claim_alpha = _checked(claim_alpha[1], "claim_alpha", _check_alpha,
                                            _float(*claim_alpha, "claim_alpha"), "claim_alpha")
            scenario.claim_set = claim_set[0]
            if scenario.claim_set not in sets:
                raise ScenarioError(f"unresolved set reference '{scenario.claim_set}'",
                                    line_no=claim_set[1], key="claim_set")
    elif algorithm_v == "barycenter":
        point_items = run.get_all("point")
        if not point_items:
            raise ScenarioError("barycenter needs at least one 'point' line",
                                line_no=run.line_no, key="point")
        scenario.mean_points = _parse_points(space, point_items)
        weights = run.get("weights")
        if weights is not None:
            scenario.weights = _parse_weights(weights, len(scenario.mean_points), "points")
        step_tol = run.get("step_tol")
        if step_tol is not None:
            scenario.step_tol = _float(*step_tol, "step_tol")
            _checked(step_tol[1], "step_tol", _check_step_tol, scenario.step_tol)

    witness = run.get("witness")
    if witness is not None:
        scenario.witness = parse_point_spec(space, witness[0], witness[1], "witness")
    return scenario
