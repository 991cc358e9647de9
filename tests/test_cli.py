"""Command-line interface: subcommands, formats, exit codes."""

import concurrent.futures
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covbound
import covbound.cli as cli
import covbound.simulate as simulate
from covbound import coverage, quadrature
from covbound.cli import main
from covbound.coverage import coverage_probability, minimum_coverage
from covbound.optimize import BoundResult
from covbound.rules import BoundProblem, SelectionMethod
from covbound.simulate import MCEstimate, mc_coverage

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env(**extra):
    """The environment for a child Python that must import the covbound
    imported here, installed or not (pytest's ``pythonpath`` setting does
    not reach subprocesses)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


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

    def test_perfect_correlation_quad_err(self, capsys):
        code, out, _ = run(["bound", "--method", "cp", "--m", "5",
                            "--rho", "1"], capsys)
        assert code == 0
        rec = json.loads(out)
        want = minimum_coverage(SelectionMethod("cp"), 0.05, 2, 5, 1.0)
        assert rec["bound"] == want.bound
        assert rec["bound"] == pytest.approx(0.1664372292696845, abs=1e-10)
        assert 0.0 < rec["quad_err"] <= 1e-8

    def test_near_perfect_correlation_computes_that_rho(self):
        # no rho is altered, so nothing is written to stderr
        proc = subprocess.run([sys.executable, "-m", "covbound.cli", "bound",
                               "--method", "cp", "--m", "5",
                               "--rho", "0.9999999"],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        want = minimum_coverage(SelectionMethod("cp"), 0.05, 2, 5, 0.9999999)
        assert json.loads(proc.stdout)["bound"] == want.bound

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
        for p in ("1", "0"):
            code, _, err = run(["bound", "--method", "cp", "--p", p, "--m", "5",
                                "--rho", "0.5"], capsys)
            assert code == 2 and "--p" in err

    def test_ttest_size_handling(self, capsys):
        assert run(["bound", "--method", "ttest", "--m", "5", "--rho", "0.5"],
                   capsys)[0] == 2
        assert run(["bound", "--method", "cp", "--test-size", "0.1",
                    "--m", "5", "--rho", "0.5"], capsys)[0] == 2
        code, out, _ = run(["bound", "--method", "ttest", "--test-size",
                            "0.1", "--m", "5", "--rho", "0.5"], capsys)
        assert code == 0
        assert 0.0 < json.loads(out)["bound"] <= 0.96

    def test_library_value_error_exits_2(self, capsys, monkeypatch):
        # input the library rejects is invalid input (exit 2), reported on
        # one line; exit 1 is reserved for output I/O failures
        def reject(*args, **kwargs):
            raise ValueError("boom")
        monkeypatch.setattr(cli, "minimum_coverage", reject)
        code, out, err = run(["bound", "--method", "cp", "--m", "5",
                              "--rho", "0.5"], capsys)
        assert (code, out, err) == (cli.EXIT_INPUT, "", "error: boom\n")

    @pytest.mark.parametrize("name", ["TTEST", "TTest", " ttest "])
    def test_method_name_is_case_insensitive(self, capsys, name):
        # the name is read as SelectionMethod.from_name reads it, so an
        # upper-case ttest still takes --test-size
        args = ["--test-size", "0.1", "--m", "5", "--rho", "0.5"]
        want = run(["bound", "--method", "ttest"] + args, capsys)
        assert want[0] == 0
        assert run(["bound", "--method", name] + args, capsys) == want


class TestLimit:
    def test_equals_bound_with_infinite_m(self, capsys):
        code1, out1, _ = run(["limit", "--method", "cp", "--rho", "0.6"],
                             capsys)
        code2, out2, _ = run(["bound", "--method", "cp", "--m", "inf",
                              "--rho", "0.6"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_quad_err_is_the_search_error(self, capsys):
        code, out, _ = run(["limit", "--method", "cp", "--rho", "0.6"], capsys)
        assert code == 0
        rec = json.loads(out)
        res = minimum_coverage(SelectionMethod("cp"), 0.05, 2, math.inf, 0.6)
        assert rec["gamma_star"] == res.gamma_star
        assert rec["quad_err"] == res.quad_err
        assert rec["quad_err"] != 1e-10

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
        assert "large-sample" in err
        assert "only for aic, cp and adjr2" in err


class TestCurve:
    def test_no_limit_fails_before_any_point(self, capsys, monkeypatch):
        def no_bound(*args, **kwargs):
            raise AssertionError("a point was computed")
        monkeypatch.setattr(cli, "minimum_coverage", no_bound)
        code, out, err = run(["curve", "--method", "bic", "--m", "5,inf",
                              "--rho", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "large-sample" in err

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
        code, _, err = run(["curve", "--method", "cp", "--p", "0", "--m", "5",
                            "--rho", "0.5", "--out", str(out_path)], capsys)
        assert code == 2 and "--p" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("grid", ["0:nan:1", "nan:0.5:1", "0:0.5:inf"])
    def test_rejects_nonfinite_grid(self, capsys, grid):
        # an input error (exit 2), not a traceback from the grid arithmetic
        code, out, err = run(["curve", "--method", "cp", "--m", "5",
                              "--rho-grid", grid], capsys)
        assert code == 2 and "finite" in err and out == ""

    def test_rejects_grid_of_too_many_points(self, capsys):
        # a step that underflows the point count is an input error, not an
        # OverflowError traceback
        code, out, err = run(["curve", "--method", "cp", "--m", "5",
                              "--rho-grid", "0:5e-324:1"], capsys)
        assert code == 2 and "--rho-grid" in err and out == ""

    def test_grid_point_cap(self):
        # the count is checked before the grid is built, so a step of 1e-9
        # is refused without allocating 10^9 points
        for spec in ("0:1e-9:1", "0:1:1000000"):
            with pytest.raises(cli.CliError, match="--rho-grid"):
                cli._parse_rho_grid(spec)
        assert len(cli._parse_rho_grid("0:1:999999")) == 10**6

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_rejects_nonpositive_jobs(self, capsys, jobs):
        code, out, err = run(["curve", "--method", "cp", "--m", "5",
                              "--rho", "0.5", "--jobs", jobs], capsys)
        assert code == 2 and "--jobs" in err and out == ""

    @pytest.mark.parametrize("jobs,grid,cores,workers", [
        (10_000, "0.5:0.1:0.5", 2, None),  # one point: in process
        (10_000, "0:0.1:0.9", 4, 4),
        (3, "0:0.1:0.9", 8, 3),
        (8, "0:0.5:0.5", 8, 2),
        (8, "0:0.1:0.9", None, None),  # unknown core count: in process
    ])
    def test_workers_bounded_by_points_and_cores(self, capsys, monkeypatch,
                                                 jobs, grid, cores, workers):
        # the pool forks all its workers at the first submit, so --jobs
        # alone must not decide how many processes start
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.setattr(cli, "minimum_coverage",
                            lambda *args: BoundResult(0.9, 1.0, 1, (0.9, 1.1), 1e-9))
        code, out, _ = run(["curve", "--method", "cp", "--m", "5",
                            "--rho-grid", grid, "--jobs", str(jobs)], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + len(cli._parse_rho_grid(grid))
        assert started == ([] if workers is None else [workers])

    def test_import_leaves_out_the_process_pool(self):
        # only a parallel curve needs the pool, so no other command pays
        # for importing it
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, covbound.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures'} "
             "& set(sys.modules)))"],
            capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

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
        # one estimate per requested cell, far from the quadrature
        monkeypatch.setattr(cli, "mc_coverage", lambda cells, *a, **k:
                            [MCEstimate(0.5, 1e-9)] * len(cells))
        code, out, err = run(self.ARGS, capsys)
        assert code == 3
        assert json.loads(out)["n_failures"] == 1
        assert "FAIL cp" in err

    @pytest.mark.parametrize("ms, streams", [("5", 1), ("5,20", 2), ("20,5,20", 2)])
    def test_one_draw_stream_per_m(self, capsys, monkeypatch, ms, streams):
        # one mc_coverage call, and one stream of draws per distinct m: at
        # 10,000 reps a stream is a single chunk, one _standard_draws call
        calls, drawn = [], []
        real_mc, real_draws = cli.mc_coverage, simulate._standard_draws

        def counting_mc(cells, *args, **kwargs):
            calls.append(len(cells))
            return real_mc(cells, *args, **kwargs)

        def counting_draws(m, n_draws, rng):
            drawn.append(m)
            return real_draws(m, n_draws, rng)

        monkeypatch.setattr(cli, "mc_coverage", counting_mc)
        monkeypatch.setattr(simulate, "_standard_draws", counting_draws)
        args = ["verify", "--method", "all", "--m", ms, "--rho", "0.5",
                "--gamma", "0,1", "--reps", "10000", "--seed", "4"]
        code, out, _ = run(args, capsys)
        assert code in (0, 3)
        n_points = 5 * len(ms.split(",")) * 2
        assert calls == [n_points] and json.loads(out)["n_points"] == n_points
        assert len(drawn) == streams
        assert sorted(drawn) == sorted({int(m) for m in ms.split(",")})

    def test_near_perfect_correlation_computes_that_rho(self):
        # the quadrature runs at the rho the Monte Carlo draws at and the
        # report prints, and nothing is written to stderr
        proc = subprocess.run([sys.executable, "-m", "covbound.cli", "verify",
                               "--method", "cp", "--m", "5",
                               "--rho", "0.9999999", "--gamma", "0.5",
                               "--reps", "10000"],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        point = json.loads(proc.stdout)["points"][0]
        prob = BoundProblem.from_m(0.05, 10, 5, 0.9999999)
        want = coverage_probability(prob, SelectionMethod("cp"), 0.5)
        assert (point["rho"], point["quadrature"]) == (0.9999999, want.value)

    def test_report_equals_per_point_route(self, capsys):
        # the one Monte Carlo call must leave the report byte for byte as
        # one quadrature and one one-cell mc_coverage call per point gives
        code, out, err = run(["verify", "--method", "all", "--m", "5,20",
                              "--reps", "10000", "--seed", "3"], capsys)
        methods = [SelectionMethod("cp"), SelectionMethod("adjr2"),
                   SelectionMethod("aic"), SelectionMethod("bic"),
                   SelectionMethod("ttest", 0.05)]
        points, failures = [], 0
        for method in methods:
            for m in (5, 20):
                for rho in (0.0, 0.5, 0.9):
                    for gamma in (0.0, 1.0, 3.0):
                        prob = BoundProblem.from_m(0.05, 10, m, rho)
                        quad = coverage_probability(prob, method, gamma)
                        mc = mc_coverage([(prob, method, gamma)], 10000, 3)[0]
                        gap = abs(quad.value - mc.estimate)
                        ok = bool(gap <= 3.0 * mc.std_err)
                        failures += not ok
                        points.append({
                            "method": method.kind, "alpha": 0.05, "p": 10,
                            "m": m, "rho": rho, "gamma": gamma,
                            "quadrature": quad.value,
                            "mc_estimate": mc.estimate, "std_err": mc.std_err,
                            "gap": gap, "pass": ok})
        report = {"reps": 10000, "seed": 3, "n_points": len(points),
                  "n_failures": failures, "points": points}
        assert out == json.dumps(report, indent=2) + "\n"
        assert code == (3 if failures else 0)
        assert err.count("FAIL ") == failures

    @pytest.mark.parametrize("size", ["1.5", "0"])
    def test_default_grid_checks_test_size(self, capsys, size):
        # --method all builds its t test from --test-size: out of (0, 1)
        # is an input error, never a traceback or a silent 0.05
        args = ["verify", "--m", "5", "--rho", "0.5", "--gamma", "1",
                "--reps", "10000", "--test-size", size]
        code, out, err = run(args, capsys)
        assert code == 2 and "test_size" in err and out == ""

    @pytest.mark.parametrize("name", ["ALL", " All "])
    def test_method_all_is_case_insensitive(self, capsys, name):
        args = ["--m", "5", "--rho", "0.5", "--gamma", "1", "--reps", "10000"]
        want = run(["verify", "--method", "all"] + args, capsys)
        assert json.loads(want[1])["n_points"] == 5
        assert run(["verify", "--method", name] + args, capsys) == want

    def test_input_validation(self, capsys):
        assert run(["verify", "--format", "csv"], capsys)[0] == 2
        assert run(["verify", "--reps", "100"], capsys)[0] == 2
        assert run(self.ARGS[:-4] + ["--rho", "1.0"], capsys)[0] == 2
        assert run(self.ARGS[:-4] + ["--m", "inf"], capsys)[0] == 2
        for flag, bad in (("--p", "0"), ("--p", "1"), ("--seed", "-1")):
            code, out, err = run(self.ARGS + [flag, bad], capsys)
            assert code == 2 and flag in err and out == ""
        at = self.ARGS.index("--gamma") + 1
        # an empty value is an error too, not the default gammas
        for bad in ("abc", "nan", "inf", ",", ""):
            code, _, err = run(self.ARGS[:at] + [bad] + self.ARGS[at + 1:], capsys)
            assert code == 2 and "--gamma" in err
        # empty entries are skipped, as in --m
        code, out, _ = run(self.ARGS[:at] + ["1,,2"] + self.ARGS[at + 1:], capsys)
        assert code in (0, 3)
        assert [p["gamma"] for p in json.loads(out)["points"]] == [1.0, 2.0]

    @pytest.mark.parametrize("text, gammas", [("-1,2", [-1.0, 2.0]),
                                              ("-.5", [-0.5]),
                                              ("-1e-1,-2", [-0.1, -2.0])])
    def test_gamma_list_may_start_negative(self, capsys, text, gammas):
        # `--gamma -1,2` is read as the flag's value, the same report as
        # the `--gamma=-1,2` spelling
        at = self.ARGS.index("--gamma")
        rest = self.ARGS[at + 2:]
        code, out, err = run(self.ARGS[:at] + ["--gamma", text] + rest, capsys)
        assert code in (0, 3), err
        assert [p["gamma"] for p in json.loads(out)["points"]] == gammas
        assert run(self.ARGS[:at] + [f"--gamma={text}"] + rest, capsys)[1] == out

    def test_negative_gamma_list_still_validated(self, capsys):
        at = self.ARGS.index("--gamma") + 1
        code, out, err = run(self.ARGS[:at] + ["-inf,1"] + self.ARGS[at + 1:],
                             capsys)
        assert code == 2 and "--gamma" in err and "finite" in err and out == ""


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
        # too few values, and headers with a negative n or p
        for k, text in enumerate(("15 3 1 1.0 2.0\n", "-1 2 1\n1 2 3\n",
                                  "-2 -3 1\n1\n")):
            bad = tmp_path / f"malformed{k}.txt"
            bad.write_text(text)
            code, out, err = run(["simulate", "--design", str(bad)], capsys)
            assert code == 2 and out == ""
            assert "malformed" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("beta,sigma", [((1.0, math.nan, 2.0), 2.0),
                                            ((1.0, 1.0, 2.0), math.inf)])
    def test_nonfinite_design_rejected(self, capsys, tmp_path, beta, sigma):
        X = np.vstack([np.eye(3), np.zeros((12, 3))])
        path = write_design(tmp_path / "bad.txt", X, a=[0.6, 0.0, 0.8],
                            beta=beta, sigma=sigma)
        code, out, err = run(["simulate", "--design", str(path)], capsys)
        assert code == 2 and "invalid design" in err and out == ""

    @pytest.mark.parametrize("lasts", ["nan,inf", "0,inf", "1,-inf"])
    def test_nonfinite_beta_last_rejected(self, capsys, design_file, lasts):
        code, out, err = run(["simulate", "--design", str(design_file),
                              "--reps", "100", "--beta-last", lasts], capsys)
        assert code == 2 and "--beta-last" in err and out == ""

    def test_beta_last_may_start_negative(self, capsys, design_file):
        base = ["simulate", "--design", str(design_file), "--method", "cp",
                "--reps", "500", "--seed", "5"]
        code, out, err = run(base + ["--beta-last", "-1,2"], capsys)
        assert code == 0, err
        assert [float(r.split(",")[8]) for r in out.strip().split("\n")[1:]] \
            == [-1.0, -1.0, 2.0, 2.0]
        assert run(base + ["--beta-last=-1,2"], capsys)[1] == out

    def test_beta_last_skips_empty_entries(self, capsys, design_file):
        # as in --m and --gamma
        base = ["simulate", "--design", str(design_file), "--method", "cp",
                "--reps", "500", "--seed", "5", "--beta-last"]
        code, out, err = run(base + ["1,,2"], capsys)
        assert code == 0, err
        assert run(base + ["1,2"], capsys)[1] == out
        for empty in (",", ""):  # not the design's beta
            code, out, err = run(base + [empty], capsys)
            assert code == 2 and "--beta-last list is empty" in err and out == ""

    def test_design_flag_required(self, capsys, design_file):
        code, _, _ = run(["simulate"], capsys)
        assert code == 2
        code, out, err = run(["simulate", "--design", str(design_file),
                              "--seed", "-1"], capsys)
        assert code == 2 and "--seed" in err and out == ""


class TestNumericalFailure:
    """A quadrature or special function that does not converge exits 4
    with one error line, not a traceback."""

    @pytest.fixture
    def start_mesh_budget(self, monkeypatch):
        # budgets of the two start meshes alone, so any split exhausts
        # them; a forked pool worker inherits the patch
        monkeypatch.setattr(quadrature, "_MAX_PANELS",
                            (coverage._FULL_MESH, math.prod(coverage._SUB_MESH)))

    def test_bound_panel_budget(self, capsys, start_mesh_budget):
        code, out, err = run(["bound", "--m", "20", "--rho", "0.99"], capsys)
        assert (code, out) == (cli.EXIT_NUMERIC, "")
        assert err.startswith("error: ") and "panel budget" in err
        assert err.count("\n") == 1
        # a bound whose every evaluation stops on the start meshes computes
        assert run(["bound", "--m", "5", "--rho", "0.5"], capsys)[0] == 0

    @pytest.mark.parametrize("m, message", [
        ("1000000000000", "incomplete gamma series did not converge"),
    ])
    def test_bound(self, capsys, m, message):
        code, out, err = run(["bound", "--m", m, "--rho", "0.5"], capsys)
        assert (code, out) == (cli.EXIT_NUMERIC, "")
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_curve_worker_failure_reaches_the_parent(self, capsys, monkeypatch,
                                                     start_mesh_budget):
        # the worker's QuadratureError crosses the pool intact, so the
        # parent reports it rather than a broken pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, out, err = run(["curve", "--m", "20", "--rho-grid",
                              "0.98:0.01:0.99", "--jobs", "2"], capsys)
        assert (code, out) == (cli.EXIT_NUMERIC, "")
        assert err.startswith("error: quadrature did not converge within "
                              "the panel budget")
        assert err.count("\n") == 1


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
        ["limit", "--method", "cp", "--m", "5", "--rho", "0.5"],
        ["bound", "--method", "cp", "--m", "5", "--rho", "0.5",
         "--rho-grid", "0:0.1:0.9"],
        ["limit", "--method", "cp", "--rho-grid", "0:0.1:0.9"],
    ], ids=["bound-jobs", "limit-jobs", "verify-jobs", "bound-reps",
            "curve-seed", "limit-seed", "bound-gamma", "curve-gamma",
            "limit-m", "bound-rho-grid", "limit-rho-grid"])
    def test_flag_rejected_where_unread(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["curve", "verify"])
    def test_rho_and_rho_grid_exclusive(self, command, capsys, tmp_path):
        out_path = tmp_path / "out.txt"
        code, out, err = run([command, "--method", "cp", "--m", "5",
                              "--rho", "0.5", "--rho-grid", "0:0.1:0.1",
                              "--out", str(out_path)], capsys)
        assert code == 2
        assert out == ""
        assert "not allowed with argument --rho" in err
        assert not out_path.exists()

    BASE = {"bound": ["bound", "--m", "5", "--rho", "0.5"],
            "curve": ["curve", "--m", "5"],
            "verify": ["verify", "--m", "5", "--rho", "0.5", "--gamma", "1",
                       "--reps", "10000"],
            "simulate": ["simulate", "--reps", "100"]}

    BAD_VALUES = [
        ("simulate", "--seed", "-1", "--seed must be >= 0, got -1", "int"),
        ("simulate", "--reps", "0", "--reps must be positive", "int"),
        ("verify", "--reps", "9999",
         "verify needs --reps >= 10000 for a meaningful SE", "int"),
        ("curve", "--jobs", "0", "--jobs must be >= 1, got 0", "int"),
        ("bound", "--alpha", "1", "alpha must be in (0, 1), got 1.0", "float"),
        ("bound", "--p", "1", "--p must be >= 2, got 1", "int"),
        ("bound", "--m", "0",
         "bad --m entry '0': expected an integer >= 1 or 'inf'", None),
        ("verify", "--gamma", "nan",
         "bad --gamma entry 'nan': expected a finite number", None),
        ("simulate", "--beta-last", "inf",
         "bad --beta-last entry 'inf': expected a finite number", None),
        ("bound", "--rho", "-0.1", "rho value -0.1 outside [0, 1]; negative "
         "rho is redundant because the bound is even in rho", "float"),
        ("curve", "--rho-grid", "0.9:0.1:0.1",
         "--rho-grid needs step > 0 and hi >= lo", None),
    ]

    @pytest.mark.parametrize("command, flag, bad, message, kind", BAD_VALUES,
                             ids=[f"{c}{f}={b}" for c, f, b, *_ in BAD_VALUES])
    def test_bad_value_is_the_flags_usage_error(self, command, flag, bad,
                                                message, kind, capsys,
                                                tmp_path, design_file):
        # a value out of range fails where the flag is parsed, as a
        # malformed number does: exit 2 on argparse's `argument --flag:`
        # line, before anything is computed or written
        out_path = tmp_path / "out.txt"
        base = self.BASE[command] + ["--out", str(out_path)]
        if command == "simulate":
            base += ["--design", str(design_file)]
        code, out, err = run(base + [flag, bad], capsys)
        assert (code, out) == (2, "") and not out_path.exists()
        prefix = f"covbound {command}: error: argument {flag}: "
        assert err.splitlines()[-1] == prefix + message
        if kind is not None:  # argparse's own wording for a malformed number
            code, out, err = run(base + [flag, "x"], capsys)
            assert (code, out) == (2, "") and not out_path.exists()
            assert err.splitlines()[-1] == prefix + f"invalid {kind} value: 'x'"

    def test_simulate_rejects_gamma(self, capsys, design_file):
        code, _, err = run(["simulate", "--design", str(design_file),
                            "--method", "aic", "--gamma", "1"], capsys)
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("flag", [["--p", "0"], ["--m", "7"],
                                      ["--rho", "0.3"],
                                      ["--rho-grid", "0:0.1:0.9"]],
                             ids=lambda f: f[0])
    def test_simulate_rejects_problem_flags(self, flag, capsys, design_file):
        # n, p and q come from the design file
        code, out, err = run(["simulate", "--design", str(design_file),
                              "--method", "aic", "--reps", "100"] + flag,
                             capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


class TestSharedParser:
    """``main`` parses with one parser per process, built on its first call."""

    CALLS = (["curve", "--m", "inf", "--rho-grid", "0:0.45:0.9"],
             ["limit", "--method", "adjr2", "--rho", "0.8"],
             ["bound", "--m", "5", "--rho", "0.5", "--format", "csv"])

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_repeated_calls_print_what_a_fresh_parser_prints(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            fresh.append(run(argv, capsys))
        cli._parser.cache_clear()
        shared = [run(argv, capsys) for argv in self.CALLS + self.CALLS[:1]]
        assert shared == fresh + fresh[:1]
        assert all(code == 0 and out for code, out, _ in shared)
        assert cli._parser.cache_info().misses == 1

    @pytest.mark.parametrize("bad", [["limit", "--rho", "0.2", "--p", "1"],
                                     ["curve", "--m", "inf", "--rho", "2"],
                                     ["bound", "--rho", "0.5", "--bogus"]])
    def test_usage_error_leaves_the_next_call_unchanged(self, bad, capsys):
        before = run(self.CALLS[1], capsys)
        code, out, _ = run(bad, capsys)
        assert (code, out) == (2, "")
        assert run(self.CALLS[1], capsys) == before

    def test_patched_bound_after_the_first_call_takes_effect(self, capsys,
                                                             monkeypatch):
        run(self.CALLS[1], capsys)
        fake = BoundResult(0.125, 1.5, 1, (1.4, 1.6), 0.0)
        monkeypatch.setattr(cli, "minimum_coverage", lambda *a, **k: fake)
        code, out, _ = run(self.CALLS[1], capsys)
        assert code == 0
        assert json.loads(out)["bound"] == 0.125

    def test_shared_defaults_unchanged(self, capsys):
        rhos = list(cli._CURVE_RHOS)
        for argv in self.CALLS + (["curve", "--m", "inf", "--method", "aic",
                                   "--rho-grid", "0.9:0.05:1"],):
            run(argv, capsys)
        assert cli._CURVE_RHOS == rhos
        parse = cli._parser().parse_args
        assert parse(["limit", "--rho", "0.5"]).m == ["inf"]
        assert parse(["curve"]).rhos == rhos
        assert parse(["verify"]).rhos == [0.0, 0.5, 0.9]


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
                              env=child_env(PATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: covbound")
        assert "bound" in proc.stdout and "simulate" in proc.stdout
        usage = proc.stdout.splitlines()[0]
        listed = set(usage[usage.index("{") + 1:usage.index("}")].split(","))
        assert listed >= {"bound", "limit", "curve", "verify", "simulate"}

    def test_public_surface(self):
        # the per-(h, w) and per-replicate forms live in tests/reference.py
        removed = {"full_interval_endpoints", "submodel_interval_endpoints",
                   "cover_given_full", "cover_given_submodel",
                   "gauss_interval_prob", "reg_inc_beta", "reg_lower_gamma",
                   "CanonicalSample", "draw_canonical", "SubsetState",
                   "rss_subset", "naive_interval", "select_model",
                   "NotApplicable", "NOT_APPLICABLE",
                   "perfect_corr_bound", "asymptotic_problem",
                   "Tolerance", "DEFAULT_TOL", "SearchConfig",
                   "DEFAULT_SEARCH"}
        assert not removed & set(covbound.__all__)
        assert all(hasattr(covbound, name) for name in covbound.__all__)
        # the gamma grid, the Monte Carlo chunk sizes and the panel budgets
        # are fixed
        for name in covbound.__all__:
            obj = getattr(covbound, name)
            if callable(obj):
                params = inspect.signature(obj).parameters
                assert not {"search", "config", "chunk_size",
                            "max_panels"} & set(params), name
        # the search takes its tail; a bound carries the error it reports
        params = inspect.signature(covbound.minimize_over_gamma).parameters
        assert all(p.default is inspect.Parameter.empty for p in params.values())
        quad_err = inspect.signature(covbound.BoundResult).parameters["quad_err"]
        assert quad_err.default is inspect.Parameter.empty

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "covbound.cli",
                               "bound", "--method", "adjr2", "--m", "5",
                               "--rho", "0.4"], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["method"] == "adjr2"
