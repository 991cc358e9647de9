"""Large-sample coverage: two integral forms, bound, MC cross-check."""

import math

import numpy as np
import pytest

from covbound.asymptotic import (AsymptoticProblem, asymptotic_bound,
                                 asymptotic_coverage,
                                 asymptotic_coverage_bivariate,
                                 asymptotic_problem, asymptotic_tail_slack)
from covbound.optimize import minimize_over_gamma
from covbound.rules import NOT_APPLICABLE, NotApplicable, SelectionMethod
from covbound.special import norm_cdf, norm_two_sided_quantile

CP = SelectionMethod("cp")


class TestProblemConstruction:
    def test_limits_exist_for_scale_free_criteria(self):
        pr = asymptotic_problem(CP, 0.05, 0.5)
        assert isinstance(pr, AsymptoticProblem)
        assert pr.d_prime == math.sqrt(2.0)
        assert asymptotic_problem(SelectionMethod("aic"), 0.05, 0.5).d_prime \
            == math.sqrt(2.0)
        assert asymptotic_problem(SelectionMethod("adjr2"), 0.05, 0.5).d_prime \
            == 1.0

    @pytest.mark.parametrize("method", [SelectionMethod("bic"),
                                        SelectionMethod("ttest", 0.05)])
    def test_no_limit_for_consistent_or_fixed_size_rules(self, method):
        out = asymptotic_problem(method, 0.05, 0.5)
        assert isinstance(out, NotApplicable)
        assert out is NOT_APPLICABLE
        assert not out

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0, rho=0.5, d_prime=1.0),
        dict(alpha=1.0, rho=0.5, d_prime=1.0),
        dict(alpha=0.05, rho=1.0, d_prime=1.0),
        dict(alpha=0.05, rho=-1.0, d_prime=1.0),
        dict(alpha=0.05, rho=0.5, d_prime=0.0),
        dict(alpha=0.05, rho=0.5, d_prime=-2.0),
    ])
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            AsymptoticProblem(**kwargs)


class TestCoverageForms:
    def test_uncorrelated_gives_nominal(self):
        pr = AsymptoticProblem(0.05, 0.0, math.sqrt(2.0))
        for gamma in (0.0, 0.7, 2.5):
            assert asymptotic_coverage(pr, gamma) \
                == pytest.approx(0.95, abs=2e-10)
            assert asymptotic_coverage_bivariate(pr, gamma) \
                == pytest.approx(0.95, abs=2e-10)

    def test_nominal_recovered_at_large_gamma(self):
        pr = AsymptoticProblem(0.05, 0.8, math.sqrt(2.0))
        assert asymptotic_coverage(pr, 30.0) == pytest.approx(0.95, abs=1e-9)

    def test_forms_agree(self):
        for rho in (0.2, 0.6, 0.9):
            pr = AsymptoticProblem(0.05, rho, math.sqrt(2.0))
            for gamma in (0.0, 0.8, 1.6, 3.0):
                a = asymptotic_coverage(pr, gamma)
                b = asymptotic_coverage_bivariate(pr, gamma)
                assert abs(a - b) <= 1e-8

    def test_even_in_gamma(self):
        pr = AsymptoticProblem(0.05, 0.7, 1.0)
        assert asymptotic_coverage(pr, 1.4) \
            == pytest.approx(asymptotic_coverage(pr, -1.4), abs=1e-9)
        assert asymptotic_coverage_bivariate(pr, 1.4) \
            == pytest.approx(asymptotic_coverage_bivariate(pr, -1.4), abs=1e-9)

    def test_even_in_rho(self):
        a = asymptotic_coverage(AsymptoticProblem(0.05, 0.7, 1.0), 1.4)
        b = asymptotic_coverage(AsymptoticProblem(0.05, -0.7, 1.0), 1.4)
        assert a == pytest.approx(b, abs=1e-9)

    def test_rejects_nonfinite_gamma(self):
        pr = AsymptoticProblem(0.05, 0.5, 1.0)
        with pytest.raises(ValueError):
            asymptotic_coverage(pr, math.inf)

    def test_monte_carlo_cross_check(self):
        # known-variance selection simulated directly: h = gamma + z1,
        # g = rho z1 + sqrt(1-rho^2) z2; keep the submodel iff |h| < d'
        pr = AsymptoticProblem(0.05, 0.75, math.sqrt(2.0))
        gamma, rho, s = 1.0, pr.rho, math.sqrt(1 - 0.75 ** 2)
        z = norm_two_sided_quantile(0.05)
        rng = np.random.default_rng(424242)
        n = 400_000
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        h = gamma + z1
        g = rho * z1 + s * z2
        keep_sub = np.abs(h) < pr.d_prime
        covered = np.where(keep_sub,
                           np.abs(g - rho * h) <= z * s,
                           np.abs(g) <= z)
        est = covered.mean()
        se = math.sqrt(est * (1 - est) / n)
        assert abs(asymptotic_coverage(pr, gamma) - est) <= 4.0 * se


class TestAsymptoticBound:
    def test_never_exceeds_nominal(self):
        for rho in (0.0, 0.4, 0.8, 0.95):
            res = asymptotic_bound(asymptotic_problem(CP, 0.05, rho))
            assert res.bound <= 0.95 + 1e-9

    def test_uncorrelated_bound_is_nominal(self):
        res = asymptotic_bound(asymptotic_problem(CP, 0.05, 0.0))
        assert res.bound == pytest.approx(0.95, abs=1e-9)

    @pytest.mark.parametrize("rho,expected", [
        (0.3, 0.9380683352408667),
        (0.6, 0.8771958074170567),
        (0.9, 0.5561097781398971),
        (0.95, 0.40182349926976124),
    ])
    def test_regression_pins(self, rho, expected):
        res = asymptotic_bound(asymptotic_problem(CP, 0.05, rho))
        assert res.bound == pytest.approx(expected, abs=1e-9)

    def test_small_near_perfect_correlation(self):
        res = asymptotic_bound(asymptotic_problem(CP, 0.05, 0.999))
        limit = 2.0 * (norm_cdf(norm_two_sided_quantile(0.05))
                       - norm_cdf(math.sqrt(2.0)))
        assert res.bound < 0.2
        assert res.bound > limit  # still above the rho -> 1 limit

    def test_nonincreasing_in_rho(self):
        bounds = [asymptotic_bound(asymptotic_problem(CP, 0.05, r)).bound
                  for r in np.arange(0.0, 0.96, 0.19)]
        diffs = np.diff(bounds)
        assert np.all(diffs <= 1e-6)

    def test_deterministic(self):
        a = asymptotic_bound(asymptotic_problem(CP, 0.05, 0.6))
        b = asymptotic_bound(asymptotic_problem(CP, 0.05, 0.6))
        assert a == b


@pytest.mark.parametrize("method", [CP, SelectionMethod("adjr2")],
                         ids=lambda m: m.kind)
@pytest.mark.parametrize("alpha", [0.05, 0.999])
@pytest.mark.parametrize("rho", [0.0, 0.9, 0.9999])
class TestTailCertificate:
    def test_identical_to_full_scan(self, method, alpha, rho):
        pr = asymptotic_problem(method, alpha, rho)
        res = asymptotic_bound(pr)
        full = minimize_over_gamma(lambda g: asymptotic_coverage(pr, g),
                                   tail_value=1.0 - alpha)
        assert (res.bound, res.gamma_star, res.bracket) \
            == (full.bound, full.gamma_star, full.bracket)
        assert res.evaluations < full.evaluations

    def test_slack_bounds_computed_coverage(self, method, alpha, rho):
        pr = asymptotic_problem(method, alpha, rho)
        slack = asymptotic_tail_slack(pr)
        assert slack(pr.d_prime) == math.inf
        for x in (0.05, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 8.5, 9.0, 12.0):
            value = asymptotic_coverage(pr, pr.d_prime + x)
            s = slack(pr.d_prime + x)
            assert abs(value - (1.0 - alpha)) <= s
            if s == 0.0:
                assert value == 1.0 - alpha
        assert slack(pr.d_prime + 12.0) == 0.0


def test_slack_carries_cancellation_at_small_cutoff():
    # with d' = 1e-3 the Gaussian tail bound drops below the rounding of
    # Phi(gamma + d') - Phi(gamma - d') near 1 before both round to 1.0
    pr = AsymptoticProblem(0.05, 0.0, 1e-3)
    slack = asymptotic_tail_slack(pr)
    for x in np.arange(7.5, 9.0, 0.01):
        g = pr.d_prime + x
        assert abs(asymptotic_coverage(pr, g) - 0.95) <= slack(g)
