"""The benchmark's own checks: golden gate, failure counting, seeded
generators and the tracing harness."""

import json
import time
from pathlib import Path

import pytest

import covbound.cli as cli
from covbound.coverage import coverage_probability
from covbound.quadrature import QuadratureError
from hostspeed import NOMINAL_S, SpeedProbe
from run import percentile, tail_percentile
from spans import Tracer, instrument, layer_metrics, layer_self_seconds
from worker import run_op, run_rounds, ticking
from workloads import (GATE_GAP_SE, GOLDEN_DIR, CurveWorkload, LimitWorkload,
                       Op, Outcome, SimulateWorkload, VerifyWorkload,
                       design_text, load_golden, make_design, num_diff)

REPO = Path(__file__).resolve().parents[2]


def plain(index, main, argv):
    return main(argv)


def curve_outcome(wl, row, bound=None):
    text = ("method,alpha,p,m,rho,bound,gamma_star\n"
            f"{row.method},{row.alpha},{row.p},{row.m},{row.rho},"
            f"{bound or row.bound},{row.gamma_star}\n")
    return Outcome(wl._op(row), 0, text, "", None, 0.1)


class TestGoldenGate:
    def test_golden_copy_matches_demos(self):
        demos = REPO / "demos" / "output"
        if not demos.is_dir():
            pytest.skip("no demos/output in this checkout")
        for path in GOLDEN_DIR.glob("bound_curve_*.csv"):
            assert path.read_bytes() == (demos / path.name).read_bytes()

    def test_four_hundred_rows(self):
        golden = load_golden()
        assert len(golden) == 400
        assert sum(k[1] == "inf" for k in golden) == 60

    def test_exact_row_passes(self, tmp_path):
        wl = CurveWorkload(1, tmp_path)
        row = wl.golden[("aic", "20", "0.5")]
        tally = wl.check([curve_outcome(wl, row)])
        assert (tally.attempted, tally.failed, tally.max_abs_dbound) == (1, 0, 0.0)

    def test_perturbed_row_fails(self, tmp_path):
        wl = CurveWorkload(1, tmp_path)
        row = wl.golden[("aic", "20", "0.5")]
        bumped = repr(float(row.bound) + 1e-8)
        tally = wl.check([curve_outcome(wl, row, bumped)])
        assert tally.failed == 1 and tally.fail_frac == 1.0
        assert tally.max_abs_dbound == pytest.approx(1e-8, rel=1e-3)

    def test_inf_equals_inf(self):
        assert num_diff("inf", "inf") == 0.0
        assert num_diff("nan", "nan") == 0.0
        assert num_diff("inf", "1.0") == float("inf")

    def test_cli_reproduces_a_golden_row(self, tmp_path):
        wl = LimitWorkload(1, tmp_path)
        op = wl.round(0)[0]
        tally = wl.check([run_op(plain, cli.main, op, 0)])
        assert (tally.attempted, tally.failed, tally.max_abs_dbound) == (1, 0, 0.0)


class TestFailureCounting:
    def test_raised_quadrature_error_is_a_failure(self, tmp_path):
        def raising(argv):
            raise QuadratureError("panel budget", 0.9, 1e-3, 40000)

        wl = CurveWorkload(1, tmp_path)
        oc = run_op(plain, raising, wl.round(0)[0], 0)
        assert oc.error.startswith("QuadratureError")
        ok = curve_outcome(wl, wl.golden[("cp", "5", "0.0")])
        tally = wl.check([oc, ok])
        assert (tally.attempted, tally.failed, tally.fail_frac) == (2, 1, 0.5)

    def test_bad_exit_code_is_a_failure(self, tmp_path):
        wl = LimitWorkload(1, tmp_path)
        op = Op(("curve", "--method", "bic", "--m", "inf", "--rho", "0.5"), 1, 1)
        tally = wl.check([run_op(plain, cli.main, op, 0)])
        assert tally.failed == 1

    VERIFY = ("verify", "--method", "cp", "--m", "5", "--rho", "0.5",
              "--gamma", "1.0", "--reps", "20000", "--seed", "5")

    def test_confirmed_gap_is_a_failure(self, tmp_path, monkeypatch):
        # a quadrature off by 0.02 (about 12 SE at 20000 draws) fails at
        # the call's seed and again at the confirmation seed
        def shifted(*args, **kwargs):
            res = coverage_probability(*args, **kwargs)
            return res.__class__(res.value + 0.02, res.quad_err, res.panels)

        monkeypatch.setattr(cli, "coverage_probability", shifted)
        wl = VerifyWorkload(5, tmp_path)
        oc = run_op(plain, cli.main, Op(self.VERIFY, 1, 1), 0)
        assert oc.code == 3
        tally = wl.check([oc])
        assert tally.failed == 1 and tally.max_gap_se > 10

    def test_gap_within_gate_passes(self, tmp_path):
        wl = VerifyWorkload(5, tmp_path)
        oc = run_op(plain, cli.main, Op(self.VERIFY, 1, 1), 0)
        tally = wl.check([oc])
        assert tally.failed == 0 and 0.0 < tally.max_gap_se <= GATE_GAP_SE

    def test_unconfirmed_gap_passes(self, tmp_path):
        # a gap the confirmation run at another seed does not reproduce
        wl = VerifyWorkload(5, tmp_path)
        oc = run_op(plain, cli.main, Op(self.VERIFY, 1, 1), 0)
        report = json.loads(oc.stdout)
        pt = report["points"][0]
        pt["mc_estimate"] = pt["quadrature"] + 4 * pt["std_err"]
        tally = wl.check([Outcome(oc.op, 0, json.dumps(report), "", None, 1.0)])
        assert tally.failed == 0 and tally.max_gap_se == pytest.approx(4.0)

    def test_simulate_gap_is_a_failure(self, tmp_path, monkeypatch):
        import covbound.simulate

        def shifted(*args, **kwargs):
            rows = covbound.simulate.empirical_min_coverage(*args, **kwargs)
            return [r.__class__(r.beta, r.reps, r.coverage_full, r.std_err_full,
                                r.coverage_pair - 0.03, r.std_err_pair) for r in rows]

        wl = SimulateWorkload(2, tmp_path)
        argv = list(wl.ops[0].argv)
        argv[argv.index("--reps") + 1] = "20000"
        argv[argv.index("--beta-last") + 1] = repr(wl.grid[2])
        op = Op(tuple(argv), 1, 1)
        good = wl.check([run_op(plain, cli.main, op, 0)])
        monkeypatch.setattr(cli, "empirical_min_coverage", shifted)
        bad = wl.check([run_op(plain, cli.main, op, 0)])
        assert good.failed == 0 and good.max_gap_se <= GATE_GAP_SE
        assert bad.failed == 1 and bad.max_gap_se > 10


class TestGenerators:
    @staticmethod
    def arg(op, flag):
        return op.argv[op.argv.index(flag) + 1]

    def test_rounds_replay_the_seeded_calls(self, tmp_path):
        for cls in (CurveWorkload, LimitWorkload):
            a, b, c = (cls(s, tmp_path) for s in (7, 7, 8))
            assert a.ops == b.ops and a.round(1) == b.round(1)
            assert a.ops != c.ops or cls is LimitWorkload
            assert a.round(0) != a.round(1) and sorted(a.round(0), key=str) == sorted(a.ops, key=str)

    def test_curve_calls_are_balanced(self, tmp_path):
        for seed in range(20):
            wl = CurveWorkload(seed, tmp_path)
            rhos = [self.arg(op, "--rho") for op in wl.ops]
            assert sorted(rhos, key=float) == sorted({k[2] for k in wl.golden}, key=float)
            fams = [self.arg(op, "--method") for op in wl.ops]
            assert all(fams.count(f) == 5 for f in ("cp", "adjr2", "aic", "bic"))
            ms = {(self.arg(op, "--method"), self.arg(op, "--m")) for op in wl.ops}
            assert len(ms) == 17 and ("bic", "10000") in ms
            assert all(m != "inf" for _, m in ms)

    def test_limit_calls_are_the_inf_rows(self, tmp_path):
        ops = LimitWorkload(3, tmp_path).ops
        assert len(ops) == len(set(ops)) == 60
        assert {self.arg(op, "--m") for op in ops} == {"inf"}

    def test_simulate_order_is_fixed(self, tmp_path):
        wl = SimulateWorkload(4, tmp_path)
        assert [self.arg(op, "--method") for op in wl.round(3)] == ["aic", "ttest"]
        assert wl.round(0) == wl.round(1) == wl.ops

    def test_verify_is_the_bare_command(self, tmp_path):
        wl = VerifyWorkload(3, tmp_path)
        assert wl.ops == [Op(("verify", "--seed", "3"), 90, 90)]

    def test_design_is_seeded_and_readable(self, tmp_path):
        one = design_text(*make_design(4)[:4])
        assert one == design_text(*make_design(4)[:4])
        assert one != design_text(*make_design(5)[:4])
        assert "np.float64" not in one
        wl = SimulateWorkload(4, tmp_path)
        assert wl.design_path.read_text() == one
        design = cli._read_design(str(wl.design_path))
        assert (design.n, design.p, design.q) == (40, 4, 1)
        assert -0.9 < wl.canonical(0.0)[0] < -0.3


class TestTracing:
    ROW = ("curve", "--method", "cp", "--alpha", "0.05", "--p", "2",
           "--m", "inf", "--rho", "0.5", "--jobs", "1")

    def test_counts_outputs_and_self_time(self, tmp_path):
        wl = LimitWorkload(1, tmp_path)
        ops = [Op(self.ROW, 1, 1), Op(("bound", "--m", "5", "--rho", "0.3"), 1, 1)]
        t0 = time.perf_counter()
        plain_out = [run_op(plain, cli.main, op, i) for i, op in enumerate(ops)]
        untraced = time.perf_counter() - t0
        tracer = Tracer("test")
        original = cli.coverage_bound
        with instrument(tracer):
            assert cli.coverage_bound is not original
            t0 = time.perf_counter()
            traced_out = [run_op(tracer.call, cli.main, op, i) for i, op in enumerate(ops)]
            traced = time.perf_counter() - t0
        assert cli.coverage_bound is original
        assert [o.stdout for o in traced_out] == [o.stdout for o in plain_out]
        assert wl.check(traced_out[:1]).failed == 0

        m = {k: v for k, (v, _) in layer_metrics(tracer).items()}
        assert m["optimize.scan_evals"] == 2 * 301
        assert m["quadrature.quad1d.calls"] == m["asymptotic.asymptotic_coverage.calls"]
        assert m["coverage.coverage_bound.calls"] == 1
        assert m["cli.coverage_probability.calls"] == 1
        assert m["quadrature.quad2d.panels"] >= 32 * m["quadrature.quad2d.calls"]
        assert 0.0 < m["quadrature.quad2d.accept_ratio"] <= 1.0
        assert m["special.erfc.elements"] > m["special.erfc.calls"] > 0

        overhead = traced / untraced - 1.0
        self_total = sum(layer_self_seconds(tracer.summary()).values())
        assert abs(self_total / traced - 1.0) <= max(abs(overhead), 0.01)

    def test_spans_are_written_once(self, tmp_path):
        import numpy as np

        tracer = Tracer("limit")
        with instrument(tracer):
            run_op(tracer.call, cli.main, Op(self.ROW, 1, 1), 0)
        tracer.dump(tmp_path / "spans.npz")
        data = np.load(tmp_path / "spans.npz")
        assert str(data["workload"]) == "limit"
        assert len(data["name"]) == len(tracer.name) > 1000
        assert (data["end_ns"] >= data["start_ns"]).all()
        assert data["parent"][0] == -1 and (data["op"] == 0).all()


class TestHostSpeed:
    def test_scale_is_nominal_over_mean_reading(self):
        probe = SpeedProbe("small")
        probe.readings = [2 * NOMINAL_S["small"], 4 * NOMINAL_S["small"], 1.0]
        assert probe.scale(0, 1) == pytest.approx(1 / 3)
        assert probe.scale(2, 2) == pytest.approx(NOMINAL_S["small"])

    def test_readings_are_bracketed_and_excluded(self, tmp_path):
        probe = SpeedProbe("small")

        def slow_main(argv):
            time.sleep(0.02)
            probe.tick()  # as a tick inside a long call would
            return cli.main(argv)

        wl = LimitWorkload(1, tmp_path)
        wl.ops = wl.ops[:3]
        outcomes, k, windows = run_rounds(plain, slow_main, wl, 0.0, 1, probe)
        assert (k, len(outcomes)) == (1, 3)
        # before each call, one inside it, and one after the last
        assert len(probe.readings) == 7
        assert windows == [(0, 2), (2, 4), (4, 6)]
        assert all(oc.seconds > 0.02 for oc in outcomes)
        assert wl.check(outcomes).failed == 0

    def test_ticking_wraps_and_restores(self):
        probe = SpeedProbe("small")
        original = cli.mc_coverage
        with ticking(cli, "mc_coverage", probe):
            assert cli.mc_coverage is not original
            cli.main(["verify", "--method", "cp", "--m", "5", "--rho", "0.5",
                      "--gamma", "1.0", "--reps", "10000", "--seed", "1"])
        assert cli.mc_coverage is original and len(probe.readings) == 1
        with ticking(cli, None, probe):
            assert cli.mc_coverage is original


def test_tail_percentile():
    assert tail_percentile([float(i) for i in range(120)], 120) == (91, 109.0)
    # the percentile follows the calls in one round, not the rounds run
    assert tail_percentile([float(i) for i in range(240)], 120) == (91, 218.0)
    assert tail_percentile([float(i) for i in range(20)], 20) == (50, 9.0)
    assert tail_percentile([float(i) for i in range(40)], 20) == (50, 19.0)
    assert percentile([float(i) for i in range(20)], 50) == 9.0
    assert tail_percentile([3.0], 1) == (50, 3.0)
