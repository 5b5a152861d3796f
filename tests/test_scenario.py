"""Scenario parsing, validation errors, and the point-spec round trip."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard import (
    Euclidean,
    EuclideanHalfspace,
    GeodesicBall,
    Hyperboloid,
    ScenarioError,
    parse_scenario,
    run_scenario,
)
from hadamard import scenario
from hadamard.scenario import parse_point_spec, point_spec

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

CYCLIC_DOC = """
[space]
kind = euclidean
dim = 2

[set A]
kind = halfspace
normal = 0,1
offset = 0

[set B]
kind = halfspace
normal = 1,0
offset = 0

[run]
algorithm = cyclic
sets = A,B
x0 = 1,1
witness = 0,0
max_iter = 100
output = trace.csv
"""

TREE_CERTIFY_DOC = """
[space]
kind = tree
edge = o,a,1
edge = o,b,1
edge = o,c,1

[set LA]
kind = subtree
vertices = o,a

[run]
algorithm = certify
samples = 250
seed = 11
witness = vertex,o
output = report.csv
"""

PRODUCT_DOC = """
[space]
kind = product
left.kind = euclidean
left.dim = 2
right.kind = tree
right.edge = o,a,1
right.edge = o,b,1

[set PS]
kind = product
left.kind = halfspace
left.normal = 0,1
left.offset = 0
right.kind = subtree
right.vertices = o,a

[run]
algorithm = averaged
sets = PS
x0 = (0.5,0.5);(vertex,b)
weights = 1
max_iter = 50
output = out.csv
"""

MEAN_DOC = """
[space]
kind = hyperboloid
dim = 2

[run]
algorithm = barycenter
point = exp:0.3,0.1
point = exp:-0.2,0.4
point = 1,0,0
weights = 0.25,0.25,0.5
output = mean.csv
"""

BALL_DOC = """
[space]
kind = euclidean
dim = 2

[set D]
kind = ball
center = 0.5,0
radius = 1

[set H]
kind = halfspace
normal = 0,1
offset = 0

[run]
algorithm = cyclic
sets = D,H
x0 = 3,2
witness = 0.5,0
max_iter = 200
output = ball_trace.csv
"""


class TestParsing:
    def test_minimal_cyclic(self):
        s = parse_scenario(CYCLIC_DOC)
        assert s.algorithm == "cyclic"
        assert list(s.sets) == ["A", "B"]
        assert s.run_sets == ["A", "B"]
        assert s.stop.max_iter == 100
        assert s.x0.space == Euclidean(2)

    def test_tree_certify(self):
        s = parse_scenario(TREE_CERTIFY_DOC)
        assert s.algorithm == "certify"
        assert s.samples == 250 and s.seed == 11
        assert s.witness == s.space.vertex_point("o")

    def test_product_space_and_set(self):
        s = parse_scenario(PRODUCT_DOC)
        assert s.space.left == Euclidean(2)
        assert s.x0.payload[1] == s.space.right.vertex_point("b")

    def test_ball_and_halfspace_cyclic_runs(self, tmp_path, monkeypatch, capsys):
        s = parse_scenario(BALL_DOC)
        ball = s.sets["D"]
        assert isinstance(ball, GeodesicBall)
        assert ball.radius == 1.0 and ball.center == Euclidean(2).point([0.5, 0.0])
        monkeypatch.chdir(tmp_path)
        assert run_scenario(s) == 0
        rows = (tmp_path / "ball_trace.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "n,residual,fejer_gap,step,shadow_dist"
        assert len(rows) > 2

    def test_barycenter_points(self):
        s = parse_scenario(MEAN_DOC)
        assert s.space == Hyperboloid(2)
        assert len(s.mean_points) == 3
        assert s.weights == [0.25, 0.25, 0.5]


# str.splitlines() breaks a line at each of these; a document breaks only at \n, \r\n and \r
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def parsed(doc: str) -> tuple:
    """What a cyclic scenario parses to, in comparable form."""
    s = parse_scenario(doc)
    return (s.space.describe(), [(name, repr(c)) for name, c in s.sets.items()], s.run_sets,
            point_spec(s.x0), point_spec(s.witness), s.stop, s.output_path)


def error_line(doc: str) -> int:
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    return err.value.line_no


class TestLineBreaks:
    """A scenario breaks lines as a text-mode ``open`` does, so that line numbers match."""

    COMMENTED = CYCLIC_DOC.replace("[set B]", "# note page\n[set B]")

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=ascii)
    def test_inside_a_comment(self, char):
        doc = self.COMMENTED.replace("note page", f"note{char} page")
        assert parsed(doc) == parsed(self.COMMENTED)
        bad = "max_iter = ten"
        assert (error_line(doc.replace("max_iter = 100", bad))
                == error_line(self.COMMENTED.replace("max_iter = 100", bad))
                == self.COMMENTED.splitlines().index("max_iter = 100") + 1)

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=ascii)
    def test_inside_a_value(self, char):
        doc = CYCLIC_DOC.replace("output = trace.csv", f"output = tr{char}ace.csv")
        want = parsed(CYCLIC_DOC)[:-1] + (f"tr{char}ace.csv",)
        assert parsed(doc) == want

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_documents_read_as_lf(self, newline):
        doc = self.COMMENTED.replace("note page", "note\x0c page")
        assert parsed(doc.replace("\n", newline)) == parsed(self.COMMENTED)
        bad = doc.replace("max_iter = 100", "max_iter = ten")
        assert error_line(bad.replace("\n", newline)) == error_line(bad)


class TestValidationErrors:
    def test_weights_must_sum_to_one(self):
        doc = MEAN_DOC.replace("0.25,0.25,0.5", "0.25,0.25,0.4")
        with pytest.raises(ScenarioError, match="weights must sum to 1"):
            parse_scenario(doc)

    def test_unresolved_set_reference(self):
        doc = CYCLIC_DOC.replace("sets = A,B", "sets = A,NOPE")
        with pytest.raises(ScenarioError, match="unresolved set reference"):
            parse_scenario(doc)

    def test_unknown_key_is_hard_error(self):
        doc = CYCLIC_DOC.replace("max_iter = 100", "max_iter = 100\nfrobnicate = 3")
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(doc)

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario(CYCLIC_DOC + "\n[plotting]\nstyle = fancy\n")

    def test_missing_mandatory_key(self):
        doc = CYCLIC_DOC.replace("max_iter = 100\n", "")
        with pytest.raises(ScenarioError, match="max_iter"):
            parse_scenario(doc)

    def test_error_carries_line_number(self):
        doc = CYCLIC_DOC.replace("sets = A,B", "sets = A,NOPE")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.line_no is not None

    def test_duplicate_set_name(self):
        doc = CYCLIC_DOC.replace("[set B]", "[set A]")
        with pytest.raises(ScenarioError, match="duplicate set name"):
            parse_scenario(doc)

    def test_unknown_algorithm(self):
        doc = CYCLIC_DOC.replace("algorithm = cyclic", "algorithm = teleport")
        with pytest.raises(ScenarioError, match="unknown algorithm"):
            parse_scenario(doc)

    def test_bad_point_dimension(self):
        doc = CYCLIC_DOC.replace("x0 = 1,1", "x0 = 1,1,1")
        with pytest.raises(ScenarioError):
            parse_scenario(doc)

    def test_claim_needs_both_keys(self):
        doc = TREE_CERTIFY_DOC.replace("seed = 11", "seed = 11\nclaim_alpha = 0.5")
        with pytest.raises(ScenarioError, match="claim_alpha and claim_set"):
            parse_scenario(doc)

    def test_key_outside_section(self):
        with pytest.raises(ScenarioError, match="outside any section"):
            parse_scenario("kind = euclidean\n")

    @pytest.mark.parametrize("key, value", [
        ("residual_tol", "nan"), ("residual_tol", "-1"), ("stall_tol", "inf"),
        ("stall_tol", "-1e-12"),
    ])
    def test_bad_tolerance_reported_on_its_line(self, key, value):
        doc, line = repeat_line(CYCLIC_DOC, "max_iter = 100", f"{key} = {value}")
        with pytest.raises(ScenarioError, match="finite and >= 0") as err:
            parse_scenario(doc)
        assert (err.value.line_no, err.value.key) == (line, key)

    def test_zero_tolerance_is_legal(self):
        doc, _ = repeat_line(CYCLIC_DOC, "max_iter = 100", "residual_tol = 0")
        assert parse_scenario(doc).stop.residual_tol == 0.0

    def test_negative_seed_reported_on_its_line(self):
        doc = TREE_CERTIFY_DOC.replace("seed = 11", "seed = -1")
        with pytest.raises(ScenarioError, match="seed must be >= 0") as err:
            parse_scenario(doc)
        assert err.value.key == "seed"
        assert doc.splitlines()[err.value.line_no - 1] == "seed = -1"

    @pytest.mark.parametrize("value, match", [
        ("nan", "finite and >= 0"), ("-1", "finite and >= 0"), ("inf", "finite and >= 0"),
        ("small", "expected a real"),
    ])
    def test_bad_step_tol_reported_on_its_line(self, value, match):
        doc, line = repeat_line(MEAN_DOC, "weights = 0.25,0.25,0.5", f"step_tol = {value}")
        with pytest.raises(ScenarioError, match=match) as err:
            parse_scenario(doc)
        assert (err.value.line_no, err.value.key) == (line, "step_tol")

    def test_weights_length_checked_against_sets(self):
        doc = PRODUCT_DOC.replace("weights = 1", "weights = 0.5,0.5")
        with pytest.raises(ScenarioError, match="1 sets but 2 weights"):
            parse_scenario(doc)


class TestOverrides:
    """Command-line flags set the [run] keys they stand for."""

    def test_flags_set_their_keys(self):
        s = parse_scenario(CYCLIC_DOC, {"--max-iter": "7", "--tol": "0.25"})
        assert (s.stop.max_iter, s.stop.residual_tol) == (7, 0.25)
        assert parse_scenario(TREE_CERTIFY_DOC, {"--seed": "3"}).seed == 3
        assert parse_scenario(MEAN_DOC, {"--tol": "1e-6"}).step_tol == 1e-6

    @pytest.mark.parametrize("doc, flags, match", [
        (CYCLIC_DOC, {"--seed": "1"}, "flag --seed does not apply to algorithm 'cyclic'"),
        (MEAN_DOC, {"--max-iter": "5"},
         "flag --max-iter does not apply to algorithm 'barycenter'"),
        (CYCLIC_DOC, {"--verbose": "1"}, "unknown flag --verbose"),
        (CYCLIC_DOC, {"--max-iter": "ten"}, "flag --max-iter: expected an integer"),
        (TREE_CERTIFY_DOC, {"--seed": "-2"}, "flag --seed: seed must be >= 0"),
        (MEAN_DOC, {"--tol": "-1"}, "flag --tol: step_tol must be finite and >= 0"),
    ], ids=["cyclic-seed", "mean-max-iter", "unknown", "max-iter-text", "seed-negative",
            "mean-tol-negative"])
    def test_bad_flag_is_named(self, doc, flags, match):
        with pytest.raises(ScenarioError, match=match) as err:
            parse_scenario(doc, flags)
        assert err.value.line_no is None

    def test_repeated_key_still_reported_under_a_flag(self):
        doc, line = repeat_line(CYCLIC_DOC, "max_iter = 100", "max_iter = 50")
        with pytest.raises(ScenarioError, match="repeats") as err:
            parse_scenario(doc, {"--max-iter": "7"})
        assert (err.value.line_no, err.value.key) == (line, "max_iter")


def broken(doc: str, old: str, new: str, at: str | None, key: str | None, match: str):
    """``doc`` with ``old`` replaced by ``new``, the line the error names (the
    first line reading ``at``, or none), the key it names and its message."""
    text = doc.replace(old, new, 1)
    assert text != doc
    line = None if at is None else text.splitlines().index(at) + 1
    return pytest.param(text, line, key, match, id=f"{key or 'document'}: {new.strip()}")


class TestScenarioErrors:
    """Each rejected document names the line and key at fault."""

    @pytest.mark.parametrize("doc, line, key, match", [
        broken(CYCLIC_DOC, "normal = 0,1", "normal = 0,up", "normal = 0,up", "normal",
               "expected comma-separated reals"),
        broken(CYCLIC_DOC, "max_iter = 100", "max_iter = ten", "max_iter = ten", "max_iter",
               "expected an integer"),
        broken(CYCLIC_DOC, "offset = 0", "offset = zero", "offset = zero", "offset",
               "expected a real"),
        broken(TREE_CERTIFY_DOC, "edge = o,c,1", "edge = o,c,long", "edge = o,c,long", "edge",
               "expected a real"),
        broken(CYCLIC_DOC, "dim = 2", "dim = 0", "dim = 0", "dim",
               "dimension must be a positive integer"),
        broken(TREE_CERTIFY_DOC, "edge = o,c,1", "edge = o,c", "edge = o,c", "edge",
               "expected 'A,B,length'"),
        broken(TREE_CERTIFY_DOC, "edge = o,c,1", "edge = a,b,1", "[space]", None,
               "cannot form a tree"),
        broken(CYCLIC_DOC, "kind = euclidean", "kind = sphere", "kind = sphere", "kind",
               "unknown space kind"),
        broken(CYCLIC_DOC, "kind = halfspace", "kind = cone", "kind = cone", "kind",
               "unknown set kind"),
        broken(CYCLIC_DOC, "kind = halfspace", "kind = product", "kind = product", "kind",
               "product set needs a product space"),
        broken(CYCLIC_DOC, "output = trace.csv", "output = trace.csv\n[run]\nalgorithm = cyclic",
               None, None,
               "exactly one \\[run\\]"),
        broken(CYCLIC_DOC, "[set B]", "[set ]", "[set ]", None,
               "unknown section \\[set\\]"),
        broken(CYCLIC_DOC, "sets = A,B", "sets = ,", "sets = ,", "sets",
               "empty set list"),
        broken(TREE_CERTIFY_DOC, "samples = 250", "samples = 0", "samples = 0", "samples",
               "samples must be an integer >= 1"),
        broken(TREE_CERTIFY_DOC, "seed = 11", "seed = 11\nclaim_alpha = nan\nclaim_set = LA",
               "claim_alpha = nan", "claim_alpha",
               "claim_alpha must lie in"),
        broken(TREE_CERTIFY_DOC, "seed = 11", "seed = 11\nclaim_alpha = 0.5\nclaim_set = LB",
               "claim_set = LB", "claim_set",
               "unresolved set reference"),
        broken(MEAN_DOC, "point = exp:0.3,0.1\npoint = exp:-0.2,0.4\npoint = 1,0,0\n", "",
               "[run]", "point",
               "barycenter needs at least one 'point'"),
        broken(MEAN_DOC, "weights = 0.25,0.25,0.5", "weights = 0.5,0.5",
               "weights = 0.5,0.5", "weights",
               "3 points but 2 weights"),
    ])
    def test_error_names_its_line_and_key(self, doc, line, key, match):
        with pytest.raises(ScenarioError, match=match) as err:
            parse_scenario(doc)
        assert (err.value.line_no, err.value.key) == (line, key)


def repeat_line(doc: str, line: str, again: str) -> tuple[str, int]:
    """Insert ``again`` after the first ``line``; return the text and its line number."""
    lines = doc.splitlines()
    at = lines.index(line) + 1
    lines.insert(at, again)
    return "\n".join(lines) + "\n", at + 1


class TestRepeatedKeys:
    """A key given twice is an error in every section, at its second line."""

    @pytest.mark.parametrize("doc, line, again, key", [
        (CYCLIC_DOC, "dim = 2", "dim = 3", "dim"),
        (CYCLIC_DOC, "kind = euclidean", "kind = hyperboloid", "kind"),
        (CYCLIC_DOC, "kind = halfspace", "kind = hyperplane", "kind"),
        (CYCLIC_DOC, "normal = 0,1", "normal = 1,0", "normal"),
        (CYCLIC_DOC, "offset = 0", "offset = 1", "offset"),
        (PRODUCT_DOC, "left.kind = euclidean", "left.kind = euclidean", "kind"),
        (PRODUCT_DOC, "left.dim = 2", "left.dim = 3", "dim"),
        (PRODUCT_DOC, "left.kind = halfspace", "left.kind = hyperplane", "kind"),
        (PRODUCT_DOC, "left.normal = 0,1", "left.normal = 1,0", "normal"),
        (PRODUCT_DOC, "left.offset = 0", "left.offset = 2", "offset"),
    ], ids=["space-dim", "space-kind", "set-kind", "set-normal", "set-offset",
            "product-space-kind", "product-space-dim", "product-set-kind",
            "product-set-normal", "product-set-offset"])
    def test_repeat_is_reported_at_second_occurrence(self, doc, line, again, key):
        text, line_no = repeat_line(doc, line, again)
        with pytest.raises(ScenarioError, match="key repeats 2 times") as err:
            parse_scenario(text)
        assert err.value.line_no == line_no
        assert err.value.key == key


class TestRoundTrip:
    def test_point_spec_round_trip(self, all_models, rng):
        for space in all_models.values():
            for _ in range(25):
                p = space.sample(rng)
                assert parse_point_spec(space, point_spec(p)) == p

    def test_product_factors_without_parentheses(self, product):
        p = parse_point_spec(product, "0.5,-1;vertex,a")
        assert p == parse_point_spec(product, "(0.5,-1);(vertex,a)")
        assert point_spec(p) == "(0.5,-1);(vertex,a)"


def mean_doc(space: str, points: list[str]) -> str:
    """A barycenter document over ``space`` (its [space] lines) with these point texts."""
    return ("[space]\n" + space + "\n\n[run]\nalgorithm = barycenter\n"
            + "".join(f"point = {p}\n" for p in points) + "output = mean.csv\n")


def bits(point) -> list:
    """The payload of a point, or of each factor of a product point, floats in hex."""
    if isinstance(point.payload, tuple):
        return [h for part in point.payload for h in bits(part)]
    if isinstance(point.payload, np.ndarray):
        return [v.hex() for v in point.payload.tolist()]
    return [point.payload]


H2 = "kind = hyperboloid\ndim = 2"
E2_H2 = ("kind = product\nleft.kind = euclidean\nleft.dim = 2\n"
         "right.kind = hyperboloid\nright.dim = 2")
H3_TREE = ("kind = product\nleft.kind = hyperboloid\nleft.dim = 3\n"
           "right.kind = tree\nright.edge = o,a,1\nright.edge = o,b,2")


def tangents(rng, count, dim):
    return ["exp:" + ",".join(f"{v:.17g}" for v in 0.8 * rng.standard_normal(dim))
            for _ in range(count)]


class TestMeanPoints:
    """A barycenter's exp: points are one exp block, and a bad one still names its line."""

    def test_block_rows_equal_exp_from_base(self, rng):
        hyperbolic = tangents(rng, 14, 2) + ["1,0,0"]
        flat_first = [f"(0.5,{k});({t})" for k, t in enumerate(tangents(rng, 9, 2))]
        flat_first.insert(4, "(0.5,-1);(1,0,0)")
        tree_second = [f"({t});(edge,{k % 2},0.5)" for k, t in enumerate(tangents(rng, 9, 3))]
        for space, points in ((H2, hyperbolic), (E2_H2, flat_first), (H3_TREE, tree_second)):
            # the block path makes no per-point call
            with mock.patch.object(Hyperboloid, "exp_from_base", side_effect=AssertionError):
                scenario = parse_scenario(mean_doc(space, points))
            assert len(scenario.mean_points) == len(points)
            for point, text in zip(scenario.mean_points, points):
                # parse_point_spec maps each tangent through exp_from_base on its own
                assert bits(point) == bits(parse_point_spec(scenario.space, text))

    @pytest.mark.parametrize("space, bad, match", [
        (H2, "exp:0.3", "tangent vector must have 2 coordinates"),
        (H2, "exp:800,0.4", "exponential map at radius 800 is not representable"),
        (H2, "exp:nan,0.4", "exponential map at radius nan is not representable"),
        (H2, "exp:0.3,zero", "expected comma-separated reals"),
        (H2, "exp:", "expected comma-separated reals"),
        (H2, "1,0", "expected 3 coordinates"),
        (E2_H2, "(0,0);(exp:0.3,0.1,0.2)", "tangent vector must have 2 coordinates"),
        (E2_H2, "(0,0),(exp:0.3,0.1)", "product point needs 'left;right'"),
        (H3_TREE, "(exp:900,0,0);(edge,0,0.5)", "exponential map at radius 900"),
    ], ids=["width", "radius", "nan", "token", "empty", "ambient", "product-width",
            "product-split", "product-radius"])
    def test_bad_point_names_its_line(self, rng, space, bad, match):
        good = tangents(rng, 5, 3 if space == H3_TREE else 2)
        if space == E2_H2:
            good = [f"(1,2);({t})" for t in good]
        elif space == H3_TREE:
            good = [f"({t});(vertex,a)" for t in good]
        doc = mean_doc(space, good[:3] + [bad] + good[3:])
        with pytest.raises(ScenarioError, match=match) as err:
            parse_scenario(doc)
        assert (err.value.line_no, err.value.key) == (doc.splitlines().index(f"point = {bad}") + 1,
                                                      "point")

    def test_first_bad_line_is_named(self):
        for points, first in ((["exp:0.1,0.2", "1,0", "exp:900,0"], 2),
                              (["exp:0.1,0.2", "exp:900,0", "1,0"], 2),
                              (["exp:0.1", "exp:0.1,0.2,0.3"], 1)):
            doc = mean_doc(H2, points)
            with pytest.raises(ScenarioError) as err:
                parse_scenario(doc)
            assert err.value.line_no == doc.splitlines().index(f"point = {points[first - 1]}") + 1


# Spellings of a seeded coordinate that float() accepts, and a few fixed tokens, all
# finite and within the bound; a row of only zeros or 1e-300s is refused.
GOOD_SPELLINGS = (
    lambda v: f"{v:.17g}",
    repr,
    lambda v: f"{v:.3E}",
    lambda v: f" {v:+.6f} ",
    lambda v: f"{int(v * 1000):_}",
)
FIXED_TOKENS = ("-0.0", "+0", "0", ".5", "5.", "1e-300", "-1E-300", "1_0.2_5", "1E+2", "\t7")
# A bad row: how the set at its position breaks, each with a few spellings
BAD_ROWS = ("length", "token", "huge", "zero", "underflow", "offset", "repeat", "unknown",
            "missing", "name", "kind")


def flat_doc(dim, count, seed, bad, at, ball):
    """A Euclidean document of ``count`` halfspaces and hyperplanes in R^dim, with the
    bad row ``bad`` (or None) at set index ``at`` and a ball set after the first set if
    ``ball``; every other token is a good spelling of a seeded coordinate."""
    r = np.random.default_rng(seed)

    def token():
        if r.random() < 0.05:
            return FIXED_TOKENS[r.integers(len(FIXED_TOKENS))]
        v = float(r.standard_normal() * 10.0 ** r.integers(-3, 4))
        return GOOD_SPELLINGS[r.integers(len(GOOD_SPELLINGS))](v)

    lines = ["[space]", "kind = euclidean", f"dim = {dim}", ""]
    names = []
    for k in range(count):
        name, kind = f"S{k}", ["halfspace", "hyperplane"][r.integers(2)]
        tokens = [token() for _ in range(dim)]
        keys = [("kind", kind), ("normal", None), ("offset", token())]
        if k == at:
            wrong = r.integers(3)
            if bad == "length":
                tokens = tokens[:-1] if wrong and dim > 1 else tokens + ["1"]
            elif bad == "token":
                tokens[r.integers(dim)] = ["abc", "", "1..2", "0x10", "1,5"][r.integers(5)]
            elif bad == "huge":
                tokens[r.integers(dim)] = ["1e300", "-2e150", "inf", "-inf", "nan",
                                           "1e400"][r.integers(6)]
            elif bad == "zero":
                tokens = [["0", "-0.0", "0e5"][r.integers(3)] for _ in range(dim)]
            elif bad == "underflow":
                tokens = ["1e-200"] * dim
            elif bad == "offset":
                keys[2] = ("offset", ["inf", "-inf", "nan", "1e400", "zero"][r.integers(5)])
            elif bad == "repeat":
                keys.insert(r.integers(1, 4), keys[wrong])
            elif bad == "unknown":
                keys[wrong:wrong + r.integers(2)] = [("radius", "1")]
            elif bad == "missing":
                del keys[wrong]
            elif bad == "name" and k > 0:
                name = f"S{r.integers(k)}"
            elif bad == "kind":
                keys[0] = ("kind", ["cone", "ball", "hyperbolic-halfspace"][wrong])
        lines.append(f"[set {name}]")
        lines += [f"{key} = {','.join(tokens) if value is None else value}"
                  for key, value in keys]
        lines.append("")
        names.append(name)
        if ball and k == 0:
            lines += ["[set B]", "kind = ball", f"center = {','.join(['0'] * dim)}",
                      "radius = 1", ""]
    lines += ["[run]", "algorithm = cyclic", f"sets = {','.join(names)}",
              f"x0 = {','.join(['1'] * dim)}", "max_iter = 10", "output = t.csv"]
    return "\n".join(lines) + "\n"


def set_bits(sets) -> list:
    """Each set's class and name, and for a flat set its normal, offset and squared norm
    in hex."""
    out = []
    for name, c in sets.items():
        out.append((name, type(c).__name__, c.name))
        if isinstance(c, EuclideanHalfspace):
            out.append(([v.hex() for v in c.normal.tolist()], c.offset.hex(),
                        c._norm_sq.hex(), c.normal.flags.writeable))
    return out


class TestFlatFamily:
    """An all-flat family is built as one block, with the sets and errors of the loop."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dim=st.integers(1, 50), count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           where=st.sampled_from(["start", "middle", "end"]), ball=st.booleans())
    def test_block_equals_set_by_set(self, dim, count, seed, where, ball):
        # the seed picks the bad row's kind, so that every kind is drawn about as often
        bad = ((None,) + BAD_ROWS)[seed % (len(BAD_ROWS) + 1)]
        at = {"start": 0, "middle": count // 2, "end": count - 1}[where]
        doc = flat_doc(dim, count, seed, bad, at, ball)
        # the reference builds every set through _build_set
        with mock.patch.object(scenario, "_flat_family", return_value=None):
            try:
                expected = parse_scenario(doc)
            except ScenarioError as exc:
                expected = exc
        with mock.patch.object(scenario, "_build_set", wraps=scenario._build_set) as loop:
            try:
                got = parse_scenario(doc)
            except ScenarioError as exc:
                got = exc
        if isinstance(expected, ScenarioError):
            assert isinstance(got, ScenarioError), doc
            assert (str(got), got.line_no, got.key) == (str(expected), expected.line_no,
                                                        expected.key)
            return
        assert set_bits(got.sets) == set_bits(expected.sets)
        assert bits(got.x0) == bits(expected.x0)
        # a valid all-flat family never falls back to the loop
        assert loop.call_count == (0 if not ball else len(got.sets))

    def test_shipped_wide_wedge_is_one_block(self):
        doc = (SCENARIO_DIR / "fixedpoint_wedge_wide.scn").read_text(encoding="utf-8")
        with mock.patch.object(scenario, "_build_set", side_effect=AssertionError):
            got = parse_scenario(doc)
        with mock.patch.object(scenario, "_flat_family", return_value=None):
            expected = parse_scenario(doc)
        assert len(got.sets) == 37
        assert set_bits(got.sets) == set_bits(expected.sets)
