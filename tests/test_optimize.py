"""Scan plus golden-section minimization over the nonnegative half line."""

import math

import pytest

from covbound.optimize import (BoundResult, SearchConfig, additive_tail_slack,
                              minimize_over_gamma)


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.gamma_max == 30.0
        assert cfg.step == 0.1
        assert cfg.refine_tol == 1e-6

    @pytest.mark.parametrize("kwargs", [
        dict(gamma_max=0.0),
        dict(gamma_max=-1.0),
        dict(step=0.0),
        dict(step=-0.1),
        dict(step=31.0),           # step larger than the range
        dict(refine_tol=0.0),
        dict(refine_tol=1.0),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestMinimizeOverGamma:
    def test_constant_objective_ties_to_zero(self):
        res = minimize_over_gamma(lambda g: 3.5)
        assert res.bound == 3.5
        assert res.gamma_star == 0.0

    def test_quadratic_minimum_located(self):
        res = minimize_over_gamma(lambda g: (g - 1.37) ** 2 + 0.25)
        assert res.gamma_star == pytest.approx(1.37, abs=1e-6)
        assert res.bound == pytest.approx(0.25, abs=1e-10)

    def test_global_minimum_of_bimodal_curve(self):
        # local dip at 2, deeper dip at 11: the scan must not get stuck
        def f(g):
            return (1.0 - 0.5 * math.exp(-((g - 2.0) ** 2))
                    - 0.8 * math.exp(-((g - 11.0) ** 2)))

        res = minimize_over_gamma(f)
        assert res.gamma_star == pytest.approx(11.0, abs=1e-5)
        assert res.bound == pytest.approx(0.2, abs=1e-9)

    def test_never_above_scan_grid_minimum(self):
        def f(g):
            return math.cos(3.0 * g) + 0.01 * g

        cfg = SearchConfig(gamma_max=10.0, step=0.25)
        res = minimize_over_gamma(f, cfg)
        n = int(round(cfg.gamma_max / cfg.step))
        grid_min = min(f(i * cfg.step) for i in range(n + 1))
        assert res.bound <= grid_min

    def test_tail_value_wins_when_smaller(self):
        res = minimize_over_gamma(lambda g: 1.0 / (1.0 + g), tail_value=0.0)
        assert res.bound == 0.0
        assert res.gamma_star == math.inf

    def test_tail_value_loses_ties(self):
        res = minimize_over_gamma(lambda g: 2.0, tail_value=2.0)
        assert res.bound == 2.0
        assert res.gamma_star == 0.0

    def test_minimum_at_origin(self):
        res = minimize_over_gamma(lambda g: g * g + 1.0)
        assert res.gamma_star == pytest.approx(0.0, abs=1e-6)
        assert res.bound == pytest.approx(1.0, abs=1e-10)

    def test_step_refinement_stable(self):
        def f(g):
            return -math.exp(-((g - 4.321) ** 2) / 2.0)

        a = minimize_over_gamma(f, SearchConfig(step=0.1))
        b = minimize_over_gamma(f, SearchConfig(step=0.05))
        assert abs(a.bound - b.bound) <= 1e-6

    def test_deterministic(self):
        def f(g):
            return math.sin(g) + 0.1 * g

        assert minimize_over_gamma(f) == minimize_over_gamma(f)

    def test_bookkeeping(self):
        res = minimize_over_gamma(lambda g: (g - 0.5) ** 2)
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
    @pytest.mark.parametrize("f,tail,slack,cfg", [
        (_bimodal, 1.0, _bimodal_slack, None),
        (_capped_quadratic, 1.0, _capped_quadratic_slack, None),
        (_damped_cos, 0.0, _damped_cos_slack,
         SearchConfig(gamma_max=10.0, step=0.25)),
    ], ids=["bimodal", "quadratic", "cos"])
    def test_identical_to_full_scan(self, f, tail, slack, cfg):
        full = minimize_over_gamma(f, cfg, tail_value=tail)
        fast = minimize_over_gamma(f, cfg, tail_value=tail, tail_slack=slack)
        assert (fast.bound, fast.gamma_star, fast.bracket) \
            == (full.bound, full.gamma_star, full.bracket)
        assert fast.evaluations < full.evaluations

    def test_bimodal_scan_passes_the_shallow_dip(self):
        res = minimize_over_gamma(_bimodal, tail_value=1.0,
                                  tail_slack=_bimodal_slack)
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

        full = minimize_over_gamma(f, tail_value=1.0)
        fast = minimize_over_gamma(f, tail_value=1.0, tail_slack=slack)
        assert fast.gamma_star == full.gamma_star == pytest.approx(11.0, abs=1e-5)
        assert fast.bound == full.bound < 0.5

    def test_exact_tail_keeps_smallest_gamma_tie(self):
        # >= tail_value everywhere and exactly tail_value from gamma = 2 on:
        # the first grid point reaching the tail wins every later tie
        def f(g):
            return 0.5 + max(0.0, 2.0 - g) ** 2

        def slack(g):
            return 0.0 if g >= 2.0 else math.inf

        full = minimize_over_gamma(f, tail_value=0.5)
        fast = minimize_over_gamma(f, tail_value=0.5, tail_slack=slack)
        assert fast.bound == full.bound == 0.5
        assert fast.gamma_star == full.gamma_star == 2.0
        assert fast.evaluations < full.evaluations

    def test_tail_value_still_wins_above_tail(self):
        # the objective never reaches the tail: the slack never certifies
        # an exit, so the full scan runs and the tail candidate wins
        def slack(g):
            return 2.0 / (1.0 + g)

        full = minimize_over_gamma(lambda g: 1.0 / (1.0 + g), tail_value=0.0)
        fast = minimize_over_gamma(lambda g: 1.0 / (1.0 + g), tail_value=0.0,
                                   tail_slack=slack)
        assert fast == full
        assert fast.gamma_star == math.inf

    def test_envelope_only_read_at_scan_points(self):
        calls = []

        def slack(g):
            calls.append(g)
            return math.inf

        res = minimize_over_gamma(lambda g: (g - 0.5) ** 2, tail_value=1.0,
                                  tail_slack=slack)
        assert res == minimize_over_gamma(lambda g: (g - 0.5) ** 2,
                                          tail_value=1.0)
        assert calls == [i * 0.1 for i in range(1, 301)]

    def test_no_envelope_scans_whole_grid(self):
        # an objective flat at its tail value, but no envelope: no early exit
        gammas = []

        def f(g):
            gammas.append(g)
            return 2.0

        res = minimize_over_gamma(f, tail_value=2.0)
        assert gammas[:301] == [i * 0.1 for i in range(301)]
        assert res.gamma_star == 0.0

    def test_slack_needs_tail_value(self):
        with pytest.raises(ValueError, match="tail_value"):
            minimize_over_gamma(lambda g: g, tail_slack=lambda g: math.inf)


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
