"""Command-line behavior: subcommands, outputs on disk, exit codes."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hadamard
from hadamard import cli, parse_scenario, run_scenario
from hadamard.cli import main

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
max_iter = 200
output = {out}
"""

CERTIFY_DOC = """
[space]
kind = tree
edge = o,a,1
edge = o,b,1
edge = o,c,1

[set LA]
kind = subtree
vertices = o,a

[set LB]
kind = subtree
vertices = o,b

[run]
algorithm = certify
samples = 200
seed = 9
witness = vertex,o
output = {out}
"""

HALFSPACE_CERTIFY_DOC = """
[space]
kind = euclidean
dim = 2

[set H]
kind = halfspace
normal = 0,1
offset = 0

[run]
algorithm = certify
samples = 100
witness = 5,5
output = {out}
"""

MEAN_DOC = """
[space]
kind = tree
edge = o,a,1
edge = o,b,1
edge = o,c,1

[run]
algorithm = barycenter
point = vertex,a
point = vertex,b
point = vertex,c
output = {out}
"""


# Alternating projections onto two lines 0.1 rad apart: each composed
# step shrinks by about cos(0.1)^2, so a 1e-8 target needs ~1800 steps.
FIXEDPOINT_DOC = """
[space]
kind = euclidean
dim = 2

[set L1]
kind = hyperplane
normal = 0,1
offset = 0

[set L2]
kind = hyperplane
normal = -0.099833416646828155,0.99500416527802582
offset = 0

[run]
algorithm = fixedpoint
sets = L1,L2
x0 = 1,1
witness = 0,0
max_iter = 300
{tol}output = {out}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestRun:
    def test_cyclic_scenario_converges(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        scn = write(tmp_path, "s.scn", CYCLIC_DOC.format(out=out))
        assert main(["run", scn]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,residual,fejer_gap,step,shadow_dist"
        final_residual = float(lines[-1].split(",")[1])
        assert final_residual <= 1e-8
        report = capsys.readouterr().out
        assert "converged" in report
        assert "Fejer violations: 0" in report

    def test_max_iter_override_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        scn = write(tmp_path, "s.scn", CYCLIC_DOC.format(out=out))
        assert main(["run", scn, "--max-iter", "1"]) == 3
        assert "maxiter" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, capsys):
        assert main(["run", "/does/not/exist.scn"]) == 5

    def test_parse_error(self, tmp_path, capsys):
        scn = write(tmp_path, "bad.scn", "[run]\nalgorithm = cyclic\n")
        assert main(["run", scn]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        doc = CYCLIC_DOC.format(out="/nonexistent-dir/trace.csv")
        scn = write(tmp_path, "s.scn", doc)
        assert main(["run", scn]) == 5

    def test_run_dispatches_certify_scenarios(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        scn = write(tmp_path, "c.scn", CERTIFY_DOC.format(out=out))
        assert main(["run", scn]) == 0
        assert out.exists()

    def test_trace_reruns_are_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(["run", write(tmp_path, "a.scn", CYCLIC_DOC.format(out=out1))]) == 0
        assert main(["run", write(tmp_path, "b.scn", CYCLIC_DOC.format(out=out2))]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_run_scenario_api(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        scenario = parse_scenario(CYCLIC_DOC.format(out=out))
        assert run_scenario(scenario) == 0
        assert out.exists()

    def test_tree_whose_distances_overflow_is_parse_error(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        doc = ("[space]\nkind = tree\nedge = o,a,1e308\nedge = a,b,1e308\nedge = o,c,1\n"
               "[set A]\nkind = subtree\nvertices = o,a\n"
               "[set C]\nkind = subtree\nvertices = o,c\n"
               "[run]\nalgorithm = cyclic\nsets = A,C\nx0 = vertex,b\nmax_iter = 50\n"
               f"output = {out}\n")
        assert main(["run", write(tmp_path, "t.scn", doc)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "distances overflow" in err

    def test_run_scenario_takes_only_the_scenario(self):
        assert list(inspect.signature(run_scenario).parameters) == ["scenario"]


class TestFixedPoint:
    def test_residual_tol_stops_run(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        doc = FIXEDPOINT_DOC.format(tol="residual_tol = 0.5\n", out=out)
        assert main(["run", write(tmp_path, "f.scn", doc)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert 2 <= len(rows) <= 10
        assert float(rows[-1].split(",")[1]) <= 0.5
        assert "converged" in capsys.readouterr().out

    def test_tol_flag_overrides_default(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        scn = write(tmp_path, "f.scn", FIXEDPOINT_DOC.format(tol="", out=out))
        assert main(["run", scn]) == 3
        assert len(out.read_text().splitlines()) == 302
        assert main(["run", scn, "--tol", "0.5"]) == 0
        assert len(out.read_text().splitlines()) <= 11


class TestCertify:
    def test_tripod_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        scn = write(tmp_path, "c.scn", CERTIFY_DOC.format(out=out))
        assert main(["certify", scn]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,samples,seed,worst_defect,pass"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        scn1 = write(tmp_path, "c1.scn", CERTIFY_DOC.format(out=out1))
        scn2 = write(tmp_path, "c2.scn", CERTIFY_DOC.format(out=out2))
        assert main(["certify", scn1]) == 0
        assert main(["certify", scn2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        scn1 = write(tmp_path, "c1.scn", CERTIFY_DOC.format(out=out1))
        scn2 = write(tmp_path, "c2.scn", CERTIFY_DOC.format(out=out2))
        assert main(["certify", scn1]) == 0
        assert main(["certify", scn2, "--seed", "77"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_false_claim_fails_suite(self, tmp_path, capsys):
        doc = CERTIFY_DOC.replace(
            "witness = vertex,o",
            "witness = vertex,o\nclaim_alpha = 0.05\nclaim_set = LA",
        )
        out = tmp_path / "report.csv"
        scn = write(tmp_path, "c.scn", doc.format(out=out))
        assert main(["certify", scn]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_wrong_algorithm_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        scn = write(tmp_path, "s.scn", CYCLIC_DOC.format(out=out))
        assert main(["certify", scn]) == 2

    def test_claim_set_without_witness_is_error(self, tmp_path, capsys):
        doc = CERTIFY_DOC.replace(
            "witness = vertex,o",
            "witness = vertex,a\nclaim_alpha = 0.5\nclaim_set = LB",
        )
        out = tmp_path / "report.csv"
        scn = write(tmp_path, "c.scn", doc.format(out=out))
        assert main(["certify", scn]) == 2
        assert not out.exists()
        assert "error: witness lies outside the declared set(s) LB" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, missed", [
        (HALFSPACE_CERTIFY_DOC, "H"),
        (CERTIFY_DOC.replace("witness = vertex,o", "witness = edge,0,0.5"), "LB"),
    ], ids=["one-set", "one-of-two-sets"])
    def test_witness_outside_a_declared_set_is_error(self, tmp_path, capsys, doc, missed):
        out = tmp_path / "report.csv"
        scn = write(tmp_path, "c.scn", doc.format(out=out))
        assert main(["certify", scn]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: witness lies outside the declared set(s) {missed}\n")

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        scn = write(tmp_path, "c.scn", CERTIFY_DOC.format(out="/nonexistent-dir/report.csv"))
        assert main(["certify", scn]) == 5
        assert "cannot write" in capsys.readouterr().err


class TestMean:
    def test_tripod_mean(self, tmp_path, capsys):
        out = tmp_path / "mean.csv"
        scn = write(tmp_path, "m.scn", MEAN_DOC.format(out=out))
        assert main(["mean", scn]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "point,objective"
        assert "vertex,o" in lines[1]
        objective = float(lines[1].rsplit(",", 1)[1])
        assert objective == pytest.approx(1.0)

    def test_wrong_algorithm_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        scn = write(tmp_path, "s.scn", CYCLIC_DOC.format(out=out))
        assert main(["mean", scn]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        scn = write(tmp_path, "m.scn", MEAN_DOC.format(out="/nonexistent-dir/mean.csv"))
        assert main(["mean", scn]) == 5
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [20, 30])
    def test_point_far_out_on_hyperboloid_is_parse_error(self, tmp_path, capsys, radius):
        out = tmp_path / "mean.csv"
        doc = (f"[space]\nkind = hyperboloid\ndim = 2\n\n[run]\nalgorithm = barycenter\n"
               f"point = exp:{radius},0\noutput = {out}\n")
        assert main(["mean", write(tmp_path, "m.scn", doc)]) == 2
        assert not out.exists()
        assert "exponential map" in capsys.readouterr().err


class TestUnusedFlags:
    @pytest.mark.parametrize("command, doc, flags, named", [
        ("certify", CERTIFY_DOC, ["--max-iter", "1", "--tol", "0.5"], "--max-iter"),
        ("run", CYCLIC_DOC, ["--seed", "5"], "--seed"),
        ("mean", MEAN_DOC, ["--seed", "3"], "--seed"),
        ("mean", MEAN_DOC, ["--max-iter", "2"], "--max-iter"),
    ], ids=["certify-max-iter-tol", "cyclic-seed", "mean-seed", "mean-max-iter"])
    def test_flag_the_algorithm_ignores_is_rejected(self, tmp_path, capsys,
                                                     command, doc, flags, named):
        out = tmp_path / "out.csv"
        scn = write(tmp_path, "s.scn", doc.format(out=out))
        assert main([command, scn, *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert named in err
        assert parse_scenario(doc.format(out=out)).algorithm in err

    def test_tol_applies_to_mean(self, tmp_path, capsys):
        out = tmp_path / "mean.csv"
        scn = write(tmp_path, "m.scn", MEAN_DOC.format(out=out))
        assert main(["mean", scn, "--tol", "1e-9"]) == 0
        assert out.exists()


HYPERBOLIC_MEAN_DOC = """
[space]
kind = hyperboloid
dim = 2

[run]
algorithm = barycenter
point = exp:1.5,0.2
point = exp:-0.4,1.1
point = exp:0.3,-1.3
output = {out}
"""


def with_key(doc: str, key: str, value: str) -> str:
    """``doc`` with its [run] ``key`` line, added before ``output`` if absent, set to ``value``."""
    lines = [ln for ln in doc.splitlines() if not ln.startswith(f"{key} =")]
    lines.insert(next(i for i, ln in enumerate(lines) if ln.startswith("output =")),
                 f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestFlagsAreKeys:
    """A flag and the [run] key it stands for, given the same value, run the same."""

    @pytest.mark.parametrize("command, doc, flag, key, value", [
        ("certify", CERTIFY_DOC, "--seed", "seed", "5"),
        ("run", CYCLIC_DOC, "--max-iter", "max_iter", "1"),
        ("run", CYCLIC_DOC.replace("cyclic", "averaged"), "--max-iter", "max_iter", "3"),
        ("run", FIXEDPOINT_DOC.replace("{tol}", ""), "--max-iter", "max_iter", "40"),
        ("run", CYCLIC_DOC, "--tol", "residual_tol", "1.5"),
        ("run", CYCLIC_DOC.replace("cyclic", "averaged"), "--tol", "residual_tol", "1e-3"),
        ("run", FIXEDPOINT_DOC.replace("{tol}", ""), "--tol", "residual_tol", "1e-3"),
        ("mean", HYPERBOLIC_MEAN_DOC, "--tol", "step_tol", "1e-3"),
    ], ids=["certify-seed", "cyclic-max-iter", "averaged-max-iter", "fixedpoint-max-iter",
            "cyclic-tol", "averaged-tol", "fixedpoint-tol", "barycenter-tol"])
    def test_flag_matches_key(self, tmp_path, capsys, command, doc, flag, key, value):
        out = tmp_path / "out.csv"
        doc = doc.format(out=out)
        status = main([command, write(tmp_path, "flag.scn", doc), flag, value])
        by_flag = out.read_bytes()
        out.unlink()
        assert main([command, write(tmp_path, "key.scn", with_key(doc, key, value))]) == status
        assert out.read_bytes() == by_flag
        out.unlink()
        assert main([command, write(tmp_path, "plain.scn", doc)]) in (0, 3)
        assert out.read_bytes() != by_flag

    @pytest.mark.parametrize("flags", [["--seed", "five"], ["--seed", "2.5"]])
    def test_malformed_flag_value_names_the_flag(self, tmp_path, capsys, flags):
        out = tmp_path / "out.csv"
        assert main(["certify", write(tmp_path, "s.scn", CERTIFY_DOC.format(out=out)),
                     *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "flag --seed: expected an integer" in err


class TestInvalidValues:
    """Bad overrides, seeds and tolerances exit 2 with one error line."""

    @pytest.mark.parametrize("command, doc, flags, message", [
        ("run", CYCLIC_DOC, ["--max-iter", "0"], "max_iter must be >= 1"),
        ("run", CYCLIC_DOC, ["--tol", "-1"], "residual_tol must be finite and >= 0"),
        ("run", CYCLIC_DOC, ["--tol", "nan"], "residual_tol must be finite and >= 0"),
        ("certify", CERTIFY_DOC, ["--seed", "-1"], "seed must be >= 0"),
        ("mean", MEAN_DOC, ["--tol", "nan"], "step_tol must be finite and >= 0"),
        ("mean", MEAN_DOC, ["--tol", "-1"], "step_tol must be finite and >= 0"),
        ("run", CYCLIC_DOC.replace("max_iter = 200", "max_iter = 200\nresidual_tol = nan"),
         [], "key 'residual_tol': residual_tol must be finite and >= 0"),
        ("certify", CERTIFY_DOC.replace("seed = 9", "seed = -1"), [],
         "key 'seed': seed must be >= 0"),
        ("mean", MEAN_DOC.replace("point = vertex,c\n", "point = vertex,c\nweights = nan,0.5,0.5\n"),
         [], "key 'weights': weights must be finite and nonnegative"),
        ("run", CYCLIC_DOC.replace("cyclic", "averaged").replace("x0 =", "weights = nan,1\nx0 ="),
         [], "key 'weights': weights must be finite and nonnegative"),
        ("run", CYCLIC_DOC.replace("offset = 0\n\n[set B]", "offset = nan\n\n[set B]"), [],
         "halfspace offset must be finite, got nan"),
        ("run", CYCLIC_DOC.replace("x0 = 1,1", "x0 = 1e200,1e200"), [],
         "key 'x0': coordinates must be finite and at most 1e+150 in magnitude"),
        ("run", CYCLIC_DOC.replace("normal = 0,1", "normal = 1e160,1e160"), [],
         "halfspace normal must be finite and at most 1e+150 in magnitude"),
        ("certify", CERTIFY_DOC.replace("edge = o,c,1", "edge = o,c,1e300"), [],
         "edge lengths total 1e+300, above 1e+150: squared distances overflow"),
        # the suite turns warnings into errors, as CI's scenario step does: the
        # tangent's square used to overflow with a RuntimeWarning
        ("mean", HYPERBOLIC_MEAN_DOC.replace("exp:-0.4,1.1", "exp:1e200,0"), [],
         "key 'point': exponential map at radius 1e+200 is not representable"),
    ], ids=["max-iter-0", "tol-negative", "tol-nan", "seed-negative", "mean-tol-nan",
            "mean-tol-negative", "scenario-residual-tol-nan", "scenario-seed-negative",
            "mean-weights-nan", "averaged-weights-nan", "halfspace-offset-nan",
            "x0-overflows-distances", "normal-overflows-norm", "tree-squares-overflow",
            "exp-tangent-overflows"])
    def test_exit_2_without_artifact(self, tmp_path, capsys, command, doc, flags, message):
        out = tmp_path / "out.csv"
        scn = write(tmp_path, "s.scn", doc.format(out=out))
        assert main([command, scn, *flags]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestParserReuse:
    def test_consecutive_calls_keep_no_state(self, tmp_path, capsys):
        trace, mean = tmp_path / "trace.csv", tmp_path / "mean.csv"
        cyclic = write(tmp_path, "c.scn", CYCLIC_DOC.format(out=trace))
        bary = write(tmp_path, "m.scn", MEAN_DOC.format(out=mean))
        assert main(["run", cyclic, "--max-iter", "1"]) == 3
        assert len(trace.read_text().splitlines()) == 3
        with pytest.raises(SystemExit) as exc:
            main(["run", cyclic, "--bogus"])
        assert exc.value.code == 2
        # no override carries over: the scenario's own max_iter and tolerance hold
        assert main(["run", cyclic]) == 0
        assert main(["mean", bary, "--tol", "1e-9"]) == 0
        with pytest.raises(SystemExit):
            main(["mean", bary, "--tol"])
        assert main(["mean", bary]) == 0
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "maxiter" in out and "converged" in out and out.count("barycenter of 3") == 2
        assert cli._build_parser() is cli._build_parser()


# A cyclic run between two lines 0.05 rad apart: 500 iterations fall
# short of the 1e-12 tolerance.
LONG_DOC = """
[space]
kind = euclidean
dim = 2

[set L1]
kind = hyperplane
normal = 0,1
offset = 0

[set L2]
kind = hyperplane
normal = -0.05,1
offset = 0

[run]
algorithm = cyclic
sets = L1,L2
x0 = 1,0
witness = 0,0
max_iter = 500
residual_tol = 1e-12
output = {out}
"""


class TestShadowDiagnostics:
    """A skipped shadow diagnostic is named on stdout with its reason."""

    def test_computed_for_a_short_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["run", write(tmp_path, "s.scn", CYCLIC_DOC.format(out=out))]) == 0
        report = capsys.readouterr().out
        assert "largest monitored shadow gap" in report
        assert "skipped" not in report

    def test_prints_the_largest_gap_of_the_run(self, tmp_path, capsys):
        # skewed halfspaces: some gaps are positive, but the last is only the
        # segment search's residue
        doc = (CYCLIC_DOC.replace("normal = 1,0", "normal = 1,1")
               .replace("algorithm = cyclic", "algorithm = averaged")
               .replace("x0 = 1,1\nwitness = 0,0", "x0 = 2,1\nwitness = -1,-1\n"
                        "residual_tol = 1e-12"))
        out = tmp_path / "trace.csv"
        assert main(["run", write(tmp_path, "s.scn", doc.format(out=out))]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "shadow" in ln]
        scenario = parse_scenario(doc.format(out=out))
        sets = [scenario.sets[n] for n in scenario.run_sets]
        trace = hadamard.averaged_projections(sets, scenario.x0, scenario.stop,
                                              witness=scenario.witness)
        gaps = hadamard.technical_condition_gaps(hadamard.approximate_shadows(trace, sets))
        assert gaps[-1] < max(gaps)
        assert lines == [f"  largest monitored shadow gap: {max(gaps):.3e} "
                         f"at iterate {gaps.index(max(gaps))}"]

    def test_long_trace_names_the_limit(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        assert main(["run", write(tmp_path, "s.scn", LONG_DOC.format(out=out))]) == 3
        assert len(out.read_text().splitlines()) == 502
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "shadow" in ln]
        assert lines == ["  shadow diagnostics skipped: 501 trace points exceed the limit "
                         f"of {cli._SHADOW_LIMIT}"]

    def test_disjoint_halfspaces_name_the_inner_failure(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        doc = (CYCLIC_DOC.replace("normal = 1,0\noffset = 0", "normal = 0,-1\noffset = -1")
               .replace("witness = 0,0\n", ""))
        assert main(["run", write(tmp_path, "s.scn", doc.format(out=out))]) == 3
        assert out.exists()
        lines = [ln for ln in capsys.readouterr().out.splitlines() if "shadow" in ln]
        assert len(lines) == 1
        assert lines[0].startswith("  shadow diagnostics skipped: inner solve failed: ")
        assert "stalled" in lines[0]


class TestShippedScenarios:
    """Every file under scenarios/ runs, writes its CSV, and reruns byte for byte."""

    # The command and CSV header for each algorithm; the iterative ones use `run`.
    COMMANDS = {"certify": ("certify", "kind,samples,seed,worst_defect,pass"),
                "barycenter": ("mean", "point,objective")}
    TRACE = ("run", "n,residual,fejer_gap,step,shadow_dist")

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.name)
    def test_runs_and_reruns_identically(self, path, tmp_path, monkeypatch, capsys):
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        command, header = self.COMMANDS.get(scenario.algorithm, self.TRACE)
        monkeypatch.chdir(tmp_path)
        out = Path(scenario.output_path)
        assert main([command, str(path)]) == 0
        first = out.read_bytes()
        assert first.decode("utf-8").split("\n", 1)[0] == header
        out.unlink()
        assert main([command, str(path)]) == 0
        assert out.read_bytes() == first

    def test_byte_order_mark_is_read(self, tmp_path, monkeypatch):
        """A file saved with a UTF-8 byte-order mark runs as the file without it."""
        path = SCENARIO_DIR / "cyclic_halfspaces.scn"
        marked = tmp_path / "marked.scn"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        text = marked.read_text(encoding="utf-8")
        assert text.startswith("\ufeff")
        scenario = parse_scenario(text)
        assert scenario.run_sets == parse_scenario(text[1:]).run_sets
        monkeypatch.chdir(tmp_path)
        out = Path(scenario.output_path)
        assert main(["run", str(path)]) == 0
        plain = out.read_bytes()
        out.unlink()
        assert main(["run", str(marked)]) == 0
        assert out.read_bytes() == plain

    def test_skewed_halfspaces_reach_the_shadow_probes(self):
        # a gap is positive only where a segment probe of
        # technical_condition_gaps ran, which orthogonal normals never need
        scenario = parse_scenario(
            (SCENARIO_DIR / "averaged_skewed_halfspaces.scn").read_text(encoding="utf-8"))
        sets = [scenario.sets[n] for n in scenario.run_sets]
        trace = hadamard.averaged_projections(sets, scenario.x0, scenario.stop,
                                              witness=scenario.witness)
        gaps = hadamard.technical_condition_gaps(hadamard.approximate_shadows(trace, sets))
        assert max(gaps) > 0.0


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert "hadamard" in capsys.readouterr().out

    def test_module_entry_point_runs_without_warnings(self):
        src = str(Path(hadamard.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run([sys.executable, "-W", "error", "-m", "hadamard", "version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout == f"hadamard {hadamard.__version__}\n"
        assert done.stderr == ""
