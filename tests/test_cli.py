"""Command-line behavior: subcommands, outputs on disk, exit codes."""

import pytest

from hadamard import parse_scenario, run_scenario
from hadamard.cli import main

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
        assert "error: P[LB] moves the supplied point" in capsys.readouterr().err

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


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert "hadamard" in capsys.readouterr().out
