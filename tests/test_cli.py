"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covbound.cli as cli
from covbound.cli import main
from covbound.simulate import MCEstimate

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(argv, capsys):
    """Invoke the CLI in process, capturing argparse exits too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_design(path, X, a, beta, sigma, q=1):
    n, p = X.shape
    tokens = [str(n), str(p), str(q)]
    tokens += [repr(float(v)) for v in X.ravel()]
    tokens += [repr(float(v)) for v in a]
    tokens += [repr(float(v)) for v in beta]
    tokens.append(repr(float(sigma)))
    path.write_text(" ".join(tokens) + "\n")
    return path


@pytest.fixture
def design_file(tmp_path):
    X = np.vstack([np.eye(3), np.zeros((12, 3))])
    return write_design(tmp_path / "design.txt", X,
                        a=[0.6, 0.0, 0.8], beta=[1.0, 1.0, 2.0], sigma=2.0)


class TestBound:
    def test_json_record(self, capsys):
        code, out, err = run(["bound", "--method", "cp", "--m", "20",
                              "--rho", "0.8"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["method"] == "cp" and rec["m"] == 20
        assert rec["bound"] < 0.95
        assert rec["gamma_star"] > 0.0
        assert rec["quad_err"] < 1e-6

    def test_uncorrelated_bound_at_nominal(self, capsys):
        code, out, _ = run(["bound", "--method", "cp", "--m", "5",
                            "--rho", "0"], capsys)
        assert code == 0
        assert json.loads(out)["bound"] <= 0.95 + 1e-6

    def test_csv_format_has_quad_err(self, capsys):
        code, out, _ = run(["bound", "--method", "adjr2", "--m", "5",
                            "--rho", "0.5", "--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "method,alpha,p,m,rho,bound,gamma_star,quad_err"
        assert row.startswith("adjr2,0.05,2,5,0.5,")

    def test_requires_rho(self, capsys):
        code, _, err = run(["bound", "--method", "cp", "--m", "5"], capsys)
        assert code == 2
        assert "--rho is required" in err

    def test_rejects_negative_rho(self, capsys):
        code, _, err = run(["bound", "--method", "cp", "--m", "5",
                            "--rho", "-0.5"], capsys)
        assert code == 2
        assert "even" in err

    def test_rejects_m_list(self, capsys):
        code, _, err = run(["bound", "--method", "cp", "--m", "5,20",
                            "--rho", "0.5"], capsys)
        assert code == 2
        assert "single --m" in err

    def test_rejects_bad_method_and_alpha(self, capsys):
        assert run(["bound", "--method", "sic", "--m", "5", "--rho", "0.5"],
                   capsys)[0] == 2
        assert run(["bound", "--method", "cp", "--alpha", "1.5", "--m", "5",
                    "--rho", "0.5"], capsys)[0] == 2

    def test_ttest_size_handling(self, capsys):
        assert run(["bound", "--method", "ttest", "--m", "5", "--rho", "0.5"],
                   capsys)[0] == 2
        assert run(["bound", "--method", "cp", "--test-size", "0.1",
                    "--m", "5", "--rho", "0.5"], capsys)[0] == 2
        code, out, _ = run(["bound", "--method", "ttest", "--test-size",
                            "0.1", "--m", "5", "--rho", "0.5"], capsys)
        assert code == 0
        assert 0.0 < json.loads(out)["bound"] <= 0.96


class TestLimit:
    def test_equals_bound_with_infinite_m(self, capsys):
        code1, out1, _ = run(["limit", "--method", "cp", "--rho", "0.6"],
                             capsys)
        code2, out2, _ = run(["bound", "--method", "cp", "--m", "inf",
                              "--rho", "0.6"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_perfect_correlation_limit_value(self, capsys):
        code, out, _ = run(["limit", "--method", "cp", "--rho", "1.0"],
                           capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["bound"] == pytest.approx(0.1072992070502854, abs=1e-12)
        assert np.isnan(rec["gamma_star"])

    def test_no_limit_for_bic_or_ttest(self, capsys):
        code, _, err = run(["limit", "--method", "bic", "--rho", "0.5"],
                           capsys)
        assert code == 2
        assert "large-sample" in err
        code, _, err = run(["limit", "--method", "ttest", "--test-size",
                            "0.05", "--rho", "0.5"], capsys)
        assert code == 2


class TestCurve:
    def test_header_and_shape(self, capsys):
        code, out, _ = run(["curve", "--method", "cp", "--m", "5,inf",
                            "--rho", "0.6"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "method,alpha,p,m,rho,bound,gamma_star"
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "5"
        assert lines[2].split(",")[3] == "inf"

    def test_deterministic_and_round_trip(self, capsys, tmp_path):
        args = ["curve", "--method", "cp", "--m", "5",
                "--rho-grid", "0:0.45:0.9"]
        code, out1, _ = run(args, capsys)
        assert code == 0
        _, out2, _ = run(args, capsys)
        assert out1 == out2
        # parse every cell and re-emit with repr: the text must reproduce
        lines = out1.strip().split("\n")
        rebuilt = [lines[0]]
        for row in lines[1:]:
            meth, alpha, p, m, rho, bound, gstar = row.split(",")
            rebuilt.append(",".join([
                meth, repr(float(alpha)), str(int(p)), m,
                repr(float(rho)), repr(float(bound)), repr(float(gstar))]))
        assert "\n".join(rebuilt) + "\n" == out1

    def test_bound_nonincreasing_in_rho(self, capsys):
        code, out, _ = run(["curve", "--method", "cp", "--m", "5",
                            "--rho-grid", "0:0.3:0.9"], capsys)
        assert code == 0
        bounds = [float(r.split(",")[5]) for r in out.strip().split("\n")[1:]]
        assert all(b2 <= b1 + 1e-6 for b1, b2 in zip(bounds, bounds[1:]))

    def test_includes_perfect_correlation_endpoint(self, capsys):
        code, out, _ = run(["curve", "--method", "cp", "--m", "5",
                            "--rho-grid", "0.9:0.05:1.0"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3
        last = rows[-1].split(",")
        assert last[4] == "1.0" and last[6] == "nan"

    def test_json_format(self, capsys):
        code, out, _ = run(["curve", "--method", "cp", "--m", "5",
                            "--rho", "0.3", "--format", "json"], capsys)
        assert code == 0
        recs = json.loads(out)
        assert len(recs) == 1 and recs[0]["rho"] == 0.3

    def test_invalid_grid_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, _, err = run(["curve", "--method", "cp", "--m", "5",
                            "--rho-grid", "0.9:0.1:0.1",
                            "--out", str(out_path)], capsys)
        assert code == 2
        assert not out_path.exists()

    def test_parallel_matches_serial(self, capsys):
        args = ["curve", "--method", "adjr2", "--m", "5",
                "--rho-grid", "0:0.45:0.9"]
        _, serial, _ = run(args + ["--jobs", "1"], capsys)
        _, parallel, _ = run(args + ["--jobs", "2"], capsys)
        assert serial == parallel

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        code, out, _ = run(["curve", "--method", "cp", "--m", "5",
                            "--rho", "0.5", "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("method,")

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, err = run(["curve", "--method", "cp", "--m", "5",
                            "--rho", "0.5",
                            "--out", str(tmp_path / "no" / "dir.csv")],
                           capsys)
        assert code == 1
        assert "cannot write" in err


class TestVerify:
    ARGS = ["verify", "--method", "cp", "--m", "5", "--rho", "0.5",
            "--gamma", "1", "--reps", "10000", "--seed", "99"]

    def test_passing_report(self, capsys):
        code, out, err = run(self.ARGS, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["n_points"] == 1
        assert report["n_failures"] == 0
        point = report["points"][0]
        assert point["pass"] is True
        assert point["gap"] <= 3.0 * point["std_err"]

    def test_deterministic(self, capsys):
        _, out1, _ = run(self.ARGS, capsys)
        _, out2, _ = run(self.ARGS, capsys)
        assert out1 == out2

    def test_forced_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mc_coverage",
                            lambda *a, **k: MCEstimate(0.5, 1e-9))
        code, out, err = run(self.ARGS, capsys)
        assert code == 3
        assert json.loads(out)["n_failures"] == 1
        assert "FAIL cp" in err

    def test_input_validation(self, capsys):
        assert run(["verify", "--format", "csv"], capsys)[0] == 2
        assert run(["verify", "--reps", "100"], capsys)[0] == 2
        assert run(self.ARGS[:-4] + ["--rho", "1.0"], capsys)[0] == 2
        assert run(self.ARGS[:-4] + ["--m", "inf"], capsys)[0] == 2


class TestSimulate:
    def test_csv_schema_and_determinism(self, capsys, design_file):
        args = ["simulate", "--design", str(design_file), "--method", "cp",
                "--reps", "2000", "--beta-last", "0,2", "--seed", "5"]
        code, out, _ = run(args, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("method,family,alpha,n,p,q,beta_1,beta_2,beta_3,"
                            "reps,coverage,std_err,seed")
        assert len(lines) == 5  # 2 beta values x {full, pair}
        families = [r.split(",")[1] for r in lines[1:]]
        assert families == ["full", "pair", "full", "pair"]
        for row in lines[1:]:
            cov = float(row.split(",")[10])
            assert 0.0 <= cov <= 1.0
        _, out2, _ = run(args, capsys)
        assert out == out2

    def test_json_format(self, capsys, design_file):
        code, out, _ = run(["simulate", "--design", str(design_file),
                            "--reps", "1000", "--format", "json"], capsys)
        assert code == 0
        recs = json.loads(out)
        assert len(recs) == 2
        assert {r["family"] for r in recs} == {"full", "pair"}
        assert recs[0]["beta_3"] == 2.0

    def test_missing_design(self, capsys, tmp_path):
        code, _, err = run(["simulate", "--design",
                            str(tmp_path / "absent.txt")], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_malformed_design(self, capsys, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("15 3 1 1.0 2.0\n")
        code, _, err = run(["simulate", "--design", str(short)], capsys)
        assert code == 2
        assert "malformed" in err

    def test_trailing_values_rejected(self, capsys, design_file, tmp_path):
        bad = tmp_path / "trailing.txt"
        bad.write_text(design_file.read_text().strip() + " 7.0\n")
        code, _, err = run(["simulate", "--design", str(bad)], capsys)
        assert code == 2
        assert "trailing" in err

    def test_rank_deficient_design(self, capsys, tmp_path):
        X = np.ones((10, 2))
        path = write_design(tmp_path / "bad.txt", X, a=[1.0, 0.0],
                            beta=[0.0, 0.0], sigma=1.0)
        code, _, err = run(["simulate", "--design", str(path)], capsys)
        assert code == 2
        assert "invalid design" in err

    def test_design_flag_required(self, capsys):
        code, _, _ = run(["simulate"], capsys)
        assert code == 2


class TestFlagScope:
    @pytest.mark.parametrize("argv", [
        ["bound", "--method", "cp", "--m", "5", "--rho", "0.5", "--jobs", "2"],
        ["limit", "--method", "cp", "--rho", "0.5", "--jobs", "2"],
        ["verify", "--jobs", "2"],
        ["bound", "--method", "cp", "--m", "5", "--rho", "0.5", "--reps", "10"],
        ["curve", "--method", "cp", "--m", "5", "--rho", "0.5", "--seed", "1"],
        ["limit", "--method", "cp", "--rho", "0.5", "--seed", "1"],
        ["bound", "--method", "cp", "--m", "5", "--rho", "0.5", "--gamma", "1"],
        ["curve", "--method", "cp", "--m", "5", "--rho", "0.5", "--gamma", "1"],
    ], ids=["bound-jobs", "limit-jobs", "verify-jobs", "bound-reps",
            "curve-seed", "limit-seed", "bound-gamma", "curve-gamma"])
    def test_flag_rejected_where_unread(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_simulate_rejects_gamma(self, capsys, design_file):
        code, _, err = run(["simulate", "--design", str(design_file),
                            "--method", "aic", "--gamma", "1"], capsys)
        assert code == 2
        assert "unrecognized arguments" in err


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        """The declared ``covbound`` console script runs and lists subcommands.

        The target comes from ``[project.scripts]`` in ``pyproject.toml``,
        and the wrapper is the one an installer writes into ``bin/`` for it,
        so the check holds whether or not the package is installed.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["covbound"]
        module, _, func = target.partition(":")
        script = tmp_path / "covbound"
        script.write_text(f"#!{sys.executable}\n"
                          "import sys\n"
                          f"from {module} import {func}\n"
                          "if __name__ == '__main__':\n"
                          f"    sys.exit({func}())\n")
        script.chmod(0o755)
        path = os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")])
        exe = shutil.which("covbound", path=path)
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                              env={**os.environ, "PATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: covbound")
        assert "bound" in proc.stdout and "simulate" in proc.stdout
        usage = proc.stdout.splitlines()[0]
        listed = set(usage[usage.index("{") + 1:usage.index("}")].split(","))
        assert listed >= {"bound", "limit", "curve", "verify", "simulate"}

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "covbound.cli",
                               "bound", "--method", "adjr2", "--m", "5",
                               "--rho", "0.4"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "adjr2"
