"""Scan plus polish minimization over the nonnegative half line.

The polish is Brent's method at every m.  scipy's bounded Brent serves as
its oracle; the package itself never imports scipy.
"""

import math

import pytest
from scipy.optimize import minimize_scalar

from covbound.asymptotic import AsymptoticProblem, asymptotic_coverage
from covbound.optimize import (SCAN_GRID, BoundResult, additive_tail_slack,
                               block_objective, minimize_over_gamma)


def _no_bound(g):
    # "no bound known" at every g: the scan never stops early
    return math.inf


def _minimize(f, tail_value=math.inf, tail_slack=_no_bound):
    """The search on a scalar objective reported with error 0.0; with no
    tail by default (an infinite tail value never wins)."""
    return minimize_over_gamma(lambda g: (f(g), 0.0), tail_value, tail_slack)


class TestSearchConfig:
    """The one search: a scan of gamma = 0, 0.1, ..., 30, then Brent's
    polish to a bracket of width at most 1e-6."""

    def test_defaults(self):
        # a minimum between the last two grid points is reached and polished;
        # Brent stops once both bracket ends lie within 0.5e-6 of its best point
        res = _minimize(lambda g: (g - 29.95) ** 2)
        assert res.gamma_star == pytest.approx(29.95, abs=1e-6)
        lo, hi = res.bracket
        assert 29.8 <= lo <= res.gamma_star <= hi <= 30.0
        assert max(res.gamma_star - lo, hi - res.gamma_star) <= 0.5e-6


class TestMinimizeOverGamma:
    def test_constant_objective_ties_to_zero(self):
        res = _minimize(lambda g: 3.5)
        assert res.bound == 3.5
        assert res.gamma_star == 0.0

    def test_quadratic_minimum_located(self):
        res = _minimize(lambda g: (g - 1.37) ** 2 + 0.25)
        assert res.gamma_star == pytest.approx(1.37, abs=1e-6)
        assert res.bound == pytest.approx(0.25, abs=1e-10)

    def test_global_minimum_of_bimodal_curve(self):
        # local dip at 2, deeper dip at 11: the scan must not get stuck
        def f(g):
            return (1.0 - 0.5 * math.exp(-((g - 2.0) ** 2))
                    - 0.8 * math.exp(-((g - 11.0) ** 2)))

        res = _minimize(f)
        assert res.gamma_star == pytest.approx(11.0, abs=1e-5)
        assert res.bound == pytest.approx(0.2, abs=1e-9)

    def test_never_above_scan_grid_minimum(self):
        def f(g):
            return math.cos(3.0 * g) + 0.01 * g

        res = _minimize(f)
        grid_min = min(f(i * 0.1) for i in range(301))
        assert res.bound <= grid_min

    def test_tail_value_wins_when_smaller(self):
        res = _minimize(lambda g: 1.0 / (1.0 + g), tail_value=0.0)
        assert res.bound == 0.0
        assert res.gamma_star == math.inf

    def test_tail_value_loses_ties(self):
        res = _minimize(lambda g: 2.0, tail_value=2.0)
        assert res.bound == 2.0
        assert res.gamma_star == 0.0

    def test_minimum_at_origin(self):
        res = _minimize(lambda g: g * g + 1.0)
        assert res.gamma_star == pytest.approx(0.0, abs=1e-6)
        assert res.bound == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self):
        def f(g):
            return math.sin(g) + 0.1 * g

        assert _minimize(f) == _minimize(f)

    def test_bookkeeping(self):
        res = _minimize(lambda g: (g - 0.5) ** 2)
        assert isinstance(res, BoundResult)
        assert res.evaluations > 300  # 301 scan points plus refinement
        lo, hi = res.bracket
        assert 0.0 <= lo <= res.gamma_star <= hi
        assert hi - lo <= 1e-6


def _bimodal(g):
    return (1.0 - 0.5 * math.exp(-((g - 2.0) ** 2))
            - 0.8 * math.exp(-((g - 11.0) ** 2)))


def _bimodal_slack(g):
    # both dips are decreasing in |g' - centre| past 11; 2x covers rounding
    return 2.0 * 1.3 * math.exp(-((g - 11.0) ** 2)) if g > 11.0 else math.inf


def _capped_quadratic(g):
    return min((g - 1.37) ** 2 + 0.25, 1.0)


def _capped_quadratic_slack(g):
    return 0.0 if g >= 1.37 + math.sqrt(0.75) + 1e-9 else math.inf


def _damped_cos(g):
    return math.cos(3.0 * g) * math.exp(-g / 4.0)


def _damped_cos_slack(g):
    return 2.0 * math.exp(-g / 4.0)


class TestTailSlackEarlyExit:
    @pytest.mark.parametrize("f,tail,slack", [
        (_bimodal, 1.0, _bimodal_slack),
        (_capped_quadratic, 1.0, _capped_quadratic_slack),
        (_damped_cos, 0.0, _damped_cos_slack),
    ], ids=["bimodal", "quadratic", "cos"])
    def test_identical_to_full_scan(self, f, tail, slack):
        full = _minimize(f, tail_value=tail)
        fast = _minimize(f, tail_value=tail, tail_slack=slack)
        assert (fast.bound, fast.gamma_star, fast.bracket) \
            == (full.bound, full.gamma_star, full.bracket)
        assert fast.evaluations < full.evaluations

    def test_bimodal_scan_passes_the_shallow_dip(self):
        res = _minimize(_bimodal, tail_value=1.0, tail_slack=_bimodal_slack)
        assert res.gamma_star == pytest.approx(11.0, abs=1e-5)

    def test_later_dip_deeper_by_a_hair_is_found(self):
        # dips to 0.5 at 2 and to 0.5 - 1e-13 at 11, with a tight envelope:
        # the exit must wait for the strict inequality, not a near-tie
        def f(g):
            return (1.0 - 0.5 * math.exp(-((g - 2.0) ** 2))
                    - (0.5 + 1e-13) * math.exp(-((g - 11.0) ** 2)))

        def slack(g):
            first = 0.5 * math.exp(-(max(g - 2.0, 0.0) ** 2))
            second = (0.5 + 1e-13) * math.exp(-(max(g - 11.0, 0.0) ** 2))
            return first + second + 1e-15

        full = _minimize(f, tail_value=1.0)
        fast = _minimize(f, tail_value=1.0, tail_slack=slack)
        assert fast.gamma_star == full.gamma_star == pytest.approx(11.0, abs=1e-5)
        assert fast.bound == full.bound < 0.5

    def test_exact_tail_keeps_smallest_gamma_tie(self):
        # >= tail_value everywhere and exactly tail_value from gamma = 2 on:
        # the first grid point reaching the tail wins every later tie
        def f(g):
            return 0.5 + max(0.0, 2.0 - g) ** 2

        def slack(g):
            return 0.0 if g >= 2.0 else math.inf

        full = _minimize(f, tail_value=0.5)
        fast = _minimize(f, tail_value=0.5, tail_slack=slack)
        assert fast.bound == full.bound == 0.5
        assert fast.gamma_star == full.gamma_star == 2.0
        assert fast.evaluations < full.evaluations

    def test_tail_value_still_wins_above_tail(self):
        # the objective never reaches the tail: the slack never certifies
        # an exit, so the full scan runs and the tail candidate wins
        def slack(g):
            return 2.0 / (1.0 + g)

        full = _minimize(lambda g: 1.0 / (1.0 + g), tail_value=0.0)
        fast = _minimize(lambda g: 1.0 / (1.0 + g), tail_value=0.0,
                         tail_slack=slack)
        assert fast == full
        assert fast.gamma_star == math.inf

    def test_envelope_only_read_at_scan_points(self):
        calls = []

        def slack(g):
            calls.append(g)
            return math.inf

        res = _minimize(lambda g: (g - 0.5) ** 2, tail_value=1.0,
                        tail_slack=slack)
        assert res == _minimize(lambda g: (g - 0.5) ** 2, tail_value=1.0)
        assert calls == [i * 0.1 for i in range(1, 301)]

    def test_no_envelope_scans_whole_grid(self):
        # an objective flat at its tail value, but no envelope: no early exit
        gammas = []

        def f(g):
            gammas.append(g)
            return 2.0

        res = _minimize(f, tail_value=2.0)
        assert gammas[:301] == [i * 0.1 for i in range(301)]
        assert res.gamma_star == 0.0


class TestReportedError:
    """The search returns the objective's error at gamma_star."""

    def test_error_at_the_minimum(self):
        # the error reported with each value is g + 1, so the error at the
        # minimum names the gamma it came from
        res = minimize_over_gamma(lambda g: ((g - 1.37) ** 2, g + 1.0),
                                  math.inf, _no_bound)
        assert res.quad_err == res.gamma_star + 1.0

    def test_error_of_repeated_minimum_from_smallest_gamma(self):
        res = minimize_over_gamma(lambda g: (2.0, g + 1.0), math.inf,
                                  _no_bound)
        assert (res.gamma_star, res.quad_err) == (0.0, 1.0)

    def test_exact_tail_reports_zero_error(self):
        res = minimize_over_gamma(lambda g: (1.0 / (1.0 + g), 0.5), 0.0,
                                  _no_bound)
        assert (res.bound, res.gamma_star, res.quad_err) == (0.0, math.inf, 0.0)


class TestAdditiveTailSlack:
    @pytest.mark.parametrize("tail", [0.95, 0.5, 1.0 - 0.999, 0.25])
    def test_exact_zero_below_quarter_ulp(self, tail):
        q = 0.25 * math.ulp(tail)
        slack = additive_tail_slack(tail, lambda g: q * (1.0 - 1e-3))
        assert slack(1.0) == 0.0
        # the certificate: corrections that small round back to tail
        for c in (q * (1.0 - 1e-3), -q * (1.0 - 1e-3)):
            assert tail + c == tail
            assert (tail + c) - c == tail

    def test_ulp_scaled_not_fixed(self):
        # a fixed 2^-60 floor would certify 1 - 0.999 = 0.001 as exact
        # where a correction below it still moves the sum
        tail = 1.0 - 0.999
        assert tail + 2.0 ** -61 != tail
        assert additive_tail_slack(tail, lambda g: 2.0 ** -61)(1.0) > 0.0

    def test_adds_rounding_above_threshold(self):
        slack = additive_tail_slack(0.95, lambda g: 1e-3)
        assert slack(1.0) == 1e-3 + 2.0 * math.ulp(0.95)
        assert additive_tail_slack(0.95, lambda g: math.inf)(1.0) == math.inf


class TestBlockObjective:
    def test_grid_misses_bring_the_next_block_and_polish_comes_alone(self):
        calls = []

        def evaluate(gammas):
            calls.append(list(gammas))
            return [(g * g, g) for g in gammas]

        objective = block_objective(evaluate, 8)
        grid = SCAN_GRID
        for g in (grid[0], grid[1], grid[7], grid[8], 0.25, 0.25, grid[295]):
            assert objective(g) == (g * g, g)
        assert calls == [list(SCAN_GRID[:8]), list(SCAN_GRID[8:16]), [0.25],
                         list(SCAN_GRID[295:])]

    def test_search_result_does_not_depend_on_the_block(self):
        def evaluate(gammas):
            return [(_bimodal(g), 0.0) for g in gammas]

        results = {minimize_over_gamma(block_objective(evaluate, block),
                                       1.0, _bimodal_slack)
                   for block in (1, 8, len(SCAN_GRID))}
        assert len(results) == 1


def _flat(g):
    return 2.0


def _near_end(g):
    return (g - 29.95) ** 2


def _quadratic(g):
    return (g - 1.37) ** 2 + 0.25


def _origin(g):
    return g * g + 1.0


def _asymptotic(g):
    # a large-sample coverage curve, cp's d' = sqrt(2) at rho 0.6
    return asymptotic_coverage(AsymptoticProblem(0.05, 0.6, math.sqrt(2.0)), g)


class TestBrentOracle:
    """The Brent polish against scipy's bounded Brent on the bracket the scan
    hands it, [best grid point - 0.1, best grid point + 0.1] within [0, 30].
    The polish starts from the best grid point, scipy from the bracket's
    golden point."""

    @pytest.mark.parametrize("f", [_quadratic, _bimodal, _origin, _near_end,
                                   _flat, _asymptotic],
                             ids=["quadratic", "bimodal", "origin", "near-end",
                                  "flat", "asymptotic"])
    def test_matches_scipy_bounded(self, f):
        reads = []

        def objective(g):
            reads.append(g)
            return f(g), 0.0

        res = minimize_over_gamma(objective, math.inf, _no_bound)
        assert reads[:len(SCAN_GRID)] == list(SCAN_GRID)
        polish = reads[len(SCAN_GRID):]
        best = min(SCAN_GRID, key=lambda g: (f(g), g))
        lo, hi = max(0.0, best - 0.1), min(30.0, best + 0.1)
        oracle = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                 options={"xatol": 1e-6})
        # Brent's minimizer: its best point, the latest of equal values, from
        # the scan's best point on, whose value it already has
        points = [best] + polish
        values = [f(g) for g in points]
        x = points[max(i for i, v in enumerate(values) if v == min(values))]
        assert abs(x - oracle.x) <= 1e-6
        assert f(x) <= oracle.fun
        a, b = res.bracket
        assert lo <= a <= x <= b <= hi
        assert b - a <= 1e-6
