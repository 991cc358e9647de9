"""Scan plus golden-section minimization over the nonnegative half line."""

import math

import pytest

from covbound import optimize
from covbound.optimize import (INV_PHI, SCAN_GRID, BoundResult,
                               additive_tail_slack, block_objective,
                               minimize_over_gamma)


def _no_bound(g):
    # "no bound known" at every g: the scan never stops early
    return math.inf


def _minimize(f, tail_value=math.inf, tail_slack=_no_bound):
    """The search on a scalar objective reported with error 0.0; with no
    tail by default (an infinite tail value never wins)."""
    return minimize_over_gamma(lambda g: (f(g), 0.0), tail_value, tail_slack,
                               None)


class TestSearchConfig:
    """The one search: a scan of gamma = 0, 0.1, ..., 30, then
    golden-section polish to a bracket of width 1e-6."""

    def test_defaults(self):
        # a minimum between the last two grid points is reached and polished
        res = _minimize(lambda g: (g - 29.95) ** 2)
        assert res.gamma_star == pytest.approx(29.95, abs=1e-6)
        lo, hi = res.bracket
        assert 29.8 <= lo <= res.gamma_star <= hi <= 30.0
        assert 0.5e-6 < hi - lo <= 1e-6


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
                                  math.inf, _no_bound, None)
        assert res.quad_err == res.gamma_star + 1.0

    def test_error_of_repeated_minimum_from_smallest_gamma(self):
        res = minimize_over_gamma(lambda g: (2.0, g + 1.0), math.inf,
                                  _no_bound, None)
        assert (res.gamma_star, res.quad_err) == (0.0, 1.0)

    def test_exact_tail_reports_zero_error(self):
        res = minimize_over_gamma(lambda g: (1.0 / (1.0 + g), 0.5), 0.0,
                                  _no_bound, None)
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

        objective, _ = block_objective(evaluate, 8)
        grid = SCAN_GRID
        for g in (grid[0], grid[1], grid[7], grid[8], 0.25, 0.25, grid[295]):
            assert objective(g) == (g * g, g)
        assert calls == [list(SCAN_GRID[:8]), list(SCAN_GRID[8:16]), [0.25],
                         list(SCAN_GRID[295:])]

    def test_search_result_does_not_depend_on_the_block(self):
        def evaluate(gammas):
            return [(_bimodal(g), 0.0) for g in gammas]

        results = {minimize_over_gamma(block_objective(evaluate, block)[0],
                                       1.0, _bimodal_slack, None)
                   for block in (1, 8, len(SCAN_GRID))}
        assert len(results) == 1


def _flat(g):
    return 2.0


def _increasing(g):
    return g


def _decreasing(g):
    return -g


def _near_end(g):
    return (g - 29.95) ** 2


class TestLookAhead:
    """The polish computes its next steps' candidate points ahead of their
    reads; the search reads what it reads without the look-ahead."""

    @pytest.mark.parametrize("f,tail,slack", [
        (_bimodal, math.inf, _no_bound),
        (_bimodal, 1.0, _bimodal_slack),
        (_flat, math.inf, _no_bound),         # every comparison a tie
        (_increasing, math.inf, _no_bound),   # minimum at the edge 0
        (_decreasing, math.inf, _no_bound),   # minimum at the edge 30
        (_near_end, math.inf, _no_bound),
        (_damped_cos, 0.0, _damped_cos_slack),
    ], ids=["bimodal", "bimodal-slack", "flat", "increasing", "decreasing",
            "near-end", "cos"])
    def test_equals_the_search_without_look_ahead(self, f, tail, slack):
        calls, fills = [], []

        def evaluate(gammas):
            calls.append(list(gammas))
            return [(f(g), 0.0) for g in gammas]

        objective, fill = block_objective(evaluate, len(SCAN_GRID))

        def counted_fill(gammas):
            fills.append(list(gammas))
            fill(gammas)

        reads = []

        def read(g):
            reads.append(g)
            return objective(g)

        res = minimize_over_gamma(read, tail, slack, counted_fill)
        assert res == _minimize(f, tail, slack)
        # each fill computes, beginning with the point read next; no polish
        # read misses the memo, so the objective computes nothing on its own
        assert [call[0] for call in calls[1:]] == [gs[0] for gs in fills]
        steps = len(reads) - reads.index(fills[0][0]) - 2
        assert 1 <= len(fills) <= 1 + steps // optimize._LOOKAHEAD

    def test_candidates_are_the_loops_points(self):
        # the points the next steps could read are those of _golden_step,
        # both outcomes of each comparison, stopping where the loop stops
        a, b = 1.2, 1.4
        state = (a, b, b - (b - a) * INV_PHI, a + (b - a) * INV_PHI)
        (_, _, c, _), g = optimize._golden_step(*state, True)
        (_, _, _, d), h = optimize._golden_step(*state, False)
        assert (g, h) == (c, d)
        assert optimize._golden_reads(state, 1) == [g, h]
        assert len(optimize._golden_reads(state, 3)) == 2 + 4 + 8
        assert optimize._golden_reads((0.0, 1e-6, 0.3e-6, 0.6e-6), 3) == []
