"""Coverage probability of the naive post-selection interval."""

import math
import warnings

import numpy as np
import pytest

from covbound import coverage
from covbound.coverage import (CoverageResult, cover_given_full,
                               cover_given_submodel, coverage_bound,
                               coverage_probability,
                               coverage_tail_slack, full_interval_endpoints,
                               perfect_corr_bound, submodel_interval_endpoints)
from covbound.optimize import SearchConfig, minimize_over_gamma
from covbound.rules import BoundProblem, SelectionMethod, selection_threshold
from covbound.simulate import mc_coverage
from covbound.special import (Tolerance, norm_cdf, norm_two_sided_quantile,
                              residual_scale_interval, symmetric_interval_prob,
                              t_quantile)

CP = SelectionMethod("cp")


def prob(m, rho, alpha=0.05, p=2):
    return BoundProblem.from_m(alpha, p, m, rho)


class TestIntervalEndpoints:
    def test_full_model_values(self):
        lo, hi = full_interval_endpoints(1.0, 5, 0.05)
        assert hi == pytest.approx(2.570582, abs=1e-5)
        assert lo == -hi

    def test_full_model_scales_linearly(self):
        lo1, hi1 = full_interval_endpoints(0.7, 5, 0.05)
        lo2, hi2 = full_interval_endpoints(1.4, 5, 0.05)
        assert hi2 == pytest.approx(2.0 * hi1, rel=1e-15)
        assert lo2 == pytest.approx(2.0 * lo1, rel=1e-15)

    def test_submodel_known_value(self):
        # rho = 0, h = 0, w = 1, m = 5: endpoints are
        # +- t_{6}(0.05) * sqrt(5/6) (reference: mpmath)
        lo, hi = submodel_interval_endpoints(0.0, 1.0, 0.0, 5, 0.05)
        assert hi == pytest.approx(2.2337146951647055, abs=1e-9)
        assert lo == -hi

    def test_submodel_degenerate_at_perfect_correlation(self):
        lo, hi = submodel_interval_endpoints(1.7, 0.9, 1.0, 5, 0.05)
        assert lo == hi == pytest.approx(1.7)
        lo, hi = submodel_interval_endpoints(1.7, 0.9, -1.0, 5, 0.05)
        assert lo == hi == pytest.approx(-1.7)

    def test_submodel_midpoint_is_scaled_estimate(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h = rng.uniform(-3, 3)
            w = rng.uniform(0.2, 2.0)
            rho = rng.uniform(-0.99, 0.99)
            lo, hi = submodel_interval_endpoints(h, w, rho, 8, 0.1)
            assert 0.5 * (lo + hi) == pytest.approx(rho * h, abs=1e-12)


class TestConditionalCoverage:
    def test_full_model_independent_of_h_when_uncorrelated(self):
        a = cover_given_full(0.3, 1.1, 0.7, 0.0, 5, 0.05)
        b = cover_given_full(2.6, 1.1, -0.4, 0.0, 5, 0.05)
        assert a == pytest.approx(b, abs=1e-15)
        want = norm_cdf(t_quantile(5, 0.05) * 1.1) - norm_cdf(-t_quantile(5, 0.05) * 1.1)
        assert a == pytest.approx(want, abs=1e-14)

    def test_full_model_reflection_symmetry(self):
        a = cover_given_full(1.3, 0.9, 0.4, 0.6, 7, 0.05)
        b = cover_given_full(2 * 0.4 - 1.3, 0.9, 0.4, -0.6, 7, 0.05)
        assert a == pytest.approx(b, abs=1e-14)

    def test_submodel_matches_centered_form_at_gamma_equal_h(self):
        # when gamma = h the conditional coverage reduces to a symmetric
        # normal probability around the scaled estimate
        for h, w, rho, m in [(0.5, 1.0, 0.6, 5), (-1.2, 0.8, 0.3, 20)]:
            got = cover_given_submodel(h, w, h, rho, m, 0.05)
            s = math.sqrt(1 - rho * rho)
            half = (t_quantile(m + 1, 0.05)
                    * math.sqrt((m * w * w + h * h) / (m + 1)) * s)
            want = symmetric_interval_prob(rho * h / s, half / s)
            assert got == pytest.approx(want, abs=1e-13)

    def test_probability_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            h = rng.uniform(-4, 4)
            w = rng.uniform(0.1, 3.0)
            g = rng.uniform(-4, 4)
            rho = rng.uniform(-0.95, 0.95)
            for fn in (cover_given_full, cover_given_submodel):
                v = fn(h, w, g, rho, 6, 0.05)
                assert 0.0 <= v <= 1.0


class TestCoverageProbability:
    def test_matches_monte_carlo_reference_point(self):
        res = coverage_probability(prob(20, 0.8), CP, 1.0)
        mc = mc_coverage(prob(20, 0.8), CP, 1.0, 2_000_000, seed=1207)
        assert abs(res.value - mc.estimate) <= 3.0 * mc.std_err

    def test_in_unit_interval(self):
        for gamma in (0.0, 1.0, 5.0):
            res = coverage_probability(prob(5, 0.9), CP, gamma)
            assert 0.0 <= res.value <= 1.0

    def test_even_in_gamma_and_rho(self):
        tight = Tolerance(rel_err=1e-12, abs_err=1e-10)
        base = coverage_probability(prob(20, 0.6), CP, 1.3, tight).value
        neg_g = coverage_probability(prob(20, 0.6), CP, -1.3, tight).value
        neg_r = coverage_probability(prob(20, -0.6), CP, 1.3, tight).value
        assert abs(base - neg_g) <= 1e-9
        assert abs(base - neg_r) <= 1e-9

    def test_nominal_recovered_at_large_gamma(self):
        for method in (CP, SelectionMethod("aic"), SelectionMethod("bic"),
                       SelectionMethod("adjr2"), SelectionMethod("ttest", 0.05)):
            res = coverage_probability(prob(20, 0.8), method, 30.0)
            assert abs(res.value - 0.95) <= 1e-6

    def test_vanishing_cutoff_recovers_nominal(self):
        # a t test of size -> 1 never keeps the submodel
        method = SelectionMethod("ttest", 1.0 - 1e-12)
        res = coverage_probability(prob(10, 0.7), method, 1.0)
        assert abs(res.value - 0.95) <= 1e-8

    def test_deterministic(self):
        a = coverage_probability(prob(5, 0.9), CP, 0.7)
        b = coverage_probability(prob(5, 0.9), CP, 0.7)
        assert a == b

    def test_quad_err_accounts_for_truncation(self):
        res = coverage_probability(prob(5, 0.5), CP, 1.0)
        assert res.quad_err >= 1e-12
        assert res.panels >= 32

    def test_rejects_perfect_correlation(self):
        with pytest.raises(ValueError, match="perfect_corr_bound"):
            coverage_probability(prob(5, 1.0), CP, 0.5)

    def test_clamps_near_perfect_correlation(self):
        with pytest.warns(UserWarning, match="clamped"):
            res = coverage_probability(prob(5, 1.0 - 1e-8), CP, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = coverage_probability(prob(5, 1.0 - 1e-6), CP, 1.0)
        assert res.value == pytest.approx(ref.value, abs=1e-12)

    def test_rejects_nonfinite_gamma(self):
        with pytest.raises(ValueError):
            coverage_probability(prob(5, 0.5), CP, math.inf)

    def test_convergence_under_refinement(self):
        loose = coverage_probability(prob(20, 0.8), CP, 1.0,
                                     Tolerance(rel_err=1e-12, abs_err=1e-6))
        tight = coverage_probability(prob(20, 0.8), CP, 1.0,
                                     Tolerance(rel_err=1e-12, abs_err=1e-10))
        assert abs(loose.value - tight.value) <= 1e-6
        assert tight.panels >= loose.panels


class TestPerfectCorrBound:
    def test_zero_when_cutoff_dominates(self):
        # m = 60, alpha = 0.17: t critical 1.387 < sqrt(2), so the
        # selection event swallows the whole interval
        assert t_quantile(60, 0.17) < math.sqrt(2.0)
        assert perfect_corr_bound(prob(60, 1.0, alpha=0.17), CP) == 0.0

    def test_monte_carlo_expectation(self):
        # 2 E[Phi(t_m W) - Phi(d W)] by direct sampling of W
        m = 5
        t1 = t_quantile(m, 0.05)
        rng = np.random.default_rng(99)
        w = np.sqrt(rng.chisquare(m, 10_000_000) / m)
        draws = 2.0 * (norm_cdf(t1 * w) - norm_cdf(math.sqrt(2.0) * w))
        est = float(draws.mean())
        se = float(draws.std(ddof=1)) / math.sqrt(len(draws))
        got = perfect_corr_bound(prob(5, 1.0), CP)
        assert abs(got - est) <= 3.0 * se

    def test_frozen_value(self):
        got = perfect_corr_bound(prob(5, 1.0), CP)
        assert got == pytest.approx(0.1664372292696845, abs=1e-10)

    def test_degenerate_scale_limit(self):
        z = norm_two_sided_quantile(0.05)
        want = 2.0 * (norm_cdf(z) - norm_cdf(math.sqrt(2.0)))
        got = perfect_corr_bound(prob(100_000, 1.0), CP)
        assert abs(got - want) <= 1e-3


class TestCoverageBound:
    def test_below_nominal_plus_slack(self):
        res = coverage_bound(prob(20, 0.9), CP)
        assert res.bound <= 0.95 + 1e-8
        assert res.bound < 0.95  # strictly below at high correlation

    def test_gamma_star_nonnegative(self):
        # the certified early exit must reproduce the full scan exactly
        pr = prob(5, 0.7)
        res = coverage_bound(pr, CP)
        full = minimize_over_gamma(
            lambda g: coverage_probability(pr, CP, g).value,
            tail_value=1 - pr.alpha)
        assert res.gamma_star >= 0.0
        assert res.bound == full.bound
        assert res.gamma_star == full.gamma_star
        assert res.evaluations < full.evaluations

    def test_quad_err_is_that_at_gamma_star(self):
        pr = prob(20, 0.8)
        res = coverage_bound(pr, CP)
        assert res.quad_err == coverage_probability(pr, CP, res.gamma_star).quad_err

    def test_quad_err_zero_when_tail_wins(self, monkeypatch):
        # an objective above the nominal level everywhere: the tail value
        # wins at gamma_star = inf, where the coverage is exact
        def above_nominal(problem, method, gamma, tol=None):
            return CoverageResult(value=0.95 + 1e-3 / (1.0 + gamma),
                                  quad_err=1e-9, panels=32)

        monkeypatch.setattr(coverage, "coverage_probability", above_nominal)
        res = coverage_bound(prob(5, 0.7), CP)
        assert res.bound == 0.95
        assert res.gamma_star == math.inf
        assert res.quad_err == 0.0

    def test_regression_pin(self):
        # frozen from this implementation as a change detector
        res = coverage_bound(prob(5, 0.7), CP)
        assert res.bound == pytest.approx(0.880623406089455, abs=1e-9)
        assert res.gamma_star == pytest.approx(1.62595, abs=1e-3)

    def test_rejects_perfect_correlation(self):
        with pytest.raises(ValueError, match="perfect_corr_bound"):
            coverage_bound(prob(5, 1.0), CP)


# corners of the early-exit certificate: m in {1, 2} (w_hi ~ 7 and 5),
# m = 10000 (w_hi ~ 1.1), rho at 0, 0.9 and clamped to 1 - 1e-6; a t test
# whose d w_hi exceeds gamma_max (no exit possible), and alpha = 0.999,
# whose 1 - alpha has a 512x finer ulp than 0.95.  The exit rule does not
# depend on the grid, so a coarser one keeps the reference scans cheap.
_CORNER_SEARCH = SearchConfig(step=0.2, refine_tol=1e-4)
_CORNERS = ([(SelectionMethod(k), 0.05, m, rho) for k in ("aic", "bic")
             for m in (1, 2, 10_000) for rho in (0.0, 0.9, 1.0 - 1e-8)]
            + [(SelectionMethod("adjr2"), 0.05, 1, 0.9),
               (SelectionMethod("ttest", 0.01), 0.05, 1, 0.9),
               (SelectionMethod("aic"), 0.999, 2, 0.9)])


def _corner_id(case):
    method, alpha, m, rho = case
    return f"{method.kind}-a{alpha}-m{m}-rho{rho}"


def _edge(pr, method):
    """d w_hi: every integrand node has |h| below it."""
    return (selection_threshold(method, pr.n, pr.p)
            * residual_scale_interval(pr.m)[1])


@pytest.mark.filterwarnings("ignore:rho=.*clamped")
@pytest.mark.parametrize("case", _CORNERS, ids=_corner_id)
class TestTailCertificate:
    def test_identical_to_full_scan(self, case):
        method, alpha, m, rho = case
        pr = BoundProblem.from_m(alpha, 10, m, rho)
        res = coverage_bound(pr, method, search=_CORNER_SEARCH)
        full = minimize_over_gamma(
            lambda g: coverage_probability(pr, method, g).value,
            _CORNER_SEARCH, tail_value=1.0 - alpha)
        assert (res.bound, res.gamma_star, res.bracket) \
            == (full.bound, full.gamma_star, full.bracket)
        if _edge(pr, method) >= _CORNER_SEARCH.gamma_max:
            assert res.evaluations == full.evaluations
        else:
            assert res.evaluations < full.evaluations

    def test_slack_bounds_computed_coverage(self, case):
        method, alpha, m, rho = case
        pr = BoundProblem.from_m(alpha, 10, m, rho)
        slack = coverage_tail_slack(pr, method)
        edge = _edge(pr, method)
        assert slack(edge) == math.inf
        for x in (0.05, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
            value = coverage_probability(pr, method, edge + x).value
            s = slack(edge + x)
            assert abs(value - (1.0 - alpha)) <= s
            if s == 0.0:
                assert value == 1.0 - alpha
        assert slack(edge + 12.0) == 0.0
