"""Coverage probability of the naive post-selection interval."""

import math
import warnings

import numpy as np
import pytest

from covbound import coverage, special
from covbound.asymptotic import AsymptoticProblem, asymptotic_bound
from covbound.coverage import (CoverageResult, coverage_bound,
                               coverage_probability, minimum_coverage)
from covbound.optimize import SearchConfig, minimize_over_gamma
from covbound.rules import (BoundProblem, SelectionMethod,
                            asymptotic_threshold, selection_threshold)
from covbound.simulate import mc_coverage
from covbound.special import (norm_cdf, norm_pdf, norm_two_sided_quantile,
                              residual_scale_interval, symmetric_interval_prob,
                              t_quantile)

from .oracles import coverage_dblquad
from .reference import (cover_given_full, cover_given_submodel,
                        full_interval_endpoints, submodel_interval_endpoints)

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
        mc = mc_coverage([(prob(20, 0.8), CP, 1.0)], 2_000_000, seed=1207)[0]
        assert abs(res.value - mc.estimate) <= 3.0 * mc.std_err

    def test_in_unit_interval(self):
        for gamma in (0.0, 1.0, 5.0):
            res = coverage_probability(prob(5, 0.9), CP, gamma)
            assert 0.0 <= res.value <= 1.0

    def test_even_in_gamma_and_rho(self):
        tight = 1e-10
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
        with pytest.raises(ValueError, match="minimum_coverage"):
            coverage_probability(prob(5, 1.0), CP, 0.5)

    def test_computes_the_rho_it_is_given(self):
        # no rho is altered, and no warning is raised, however close to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = coverage_probability(prob(5, 1.0 - 1e-8), CP, 1.0)
            near = coverage_probability(prob(5, 1.0 - 1e-6), CP, 1.0)
        assert res.value != near.value

    def test_rejects_nonfinite_gamma(self):
        with pytest.raises(ValueError):
            coverage_probability(prob(5, 0.5), CP, math.inf)

    def test_convergence_under_refinement(self):
        loose = coverage_probability(prob(20, 0.8), CP, 1.0, abs_err=1e-6)
        tight = coverage_probability(prob(20, 0.8), CP, 1.0, abs_err=1e-10)
        assert abs(loose.value - tight.value) <= 1e-6
        assert tight.panels >= loose.panels


# the split form (2-D submodel term minus the 1-D integral of
# bivariate-normal rectangles) against scipy dblquad of the original
# combined integrand (k_sub - k_full) phi w f_W
_SPLIT_CASES = [(SelectionMethod(k), p, m, rho, gamma)
                for k, p in (("aic", 10), ("cp", 2), ("bic", 10))
                for m in (5, 20, 1000) for rho in (0.0, 0.5, 0.9)
                for gamma in (0.0, 1.0, 3.0)]
# m in {1, 2} with rho -> 1, where the combined 2-D integrand has features
# of width sqrt(1 - rho^2) / w that its start mesh did not resolve
_SPLIT_CORNERS = [(SelectionMethod(k), 10, m, rho, gamma)
                  for k in ("aic", "bic") for m in (1, 2)
                  for rho in (0.999, 0.9999) for gamma in (0.0, 5.0)]


def _split_id(case):
    method, p, m, rho, gamma = case
    return f"{method.kind}-m{m}-rho{rho}-g{gamma}"


@pytest.mark.parametrize("case", _SPLIT_CASES + _SPLIT_CORNERS, ids=_split_id)
def test_split_form_within_quad_err_of_combined_integrand(case):
    pytest.importorskip("scipy")
    method, p, m, rho, gamma = case
    pr = BoundProblem.from_m(0.05, p, m, rho)
    res = coverage_probability(pr, method, gamma)
    want = coverage_dblquad(0.05, m, rho,
                            selection_threshold(method, pr.n, pr.p), gamma)
    assert abs(res.value - want) <= res.quad_err


# corners where both quadratures refine past their start meshes (32 2-D
# plus 8 1-D panels); the t test's cutoff d is large at m = 1
_PLAN_CORNERS = ([(SelectionMethod(k), m, rho) for k in ("aic", "bic")
                  for m in (1, 2) for rho in (0.999, 0.9999)]
                 + [(SelectionMethod("ttest", 0.01), 1, 0.9)])


@pytest.mark.parametrize("case", _PLAN_CORNERS,
                         ids=lambda c: f"{c[0].kind}-m{c[1]}-rho{c[2]}")
def test_plan_reused_across_gammas_matches_fresh_evaluations(case):
    # one plan serves every gamma of a bound: no evaluation may change
    # the cached start-mesh factors that a later one reads
    method, m, rho = case
    pr = BoundProblem.from_m(0.05, 10, m, rho)
    fresh = {g: coverage_probability(pr, method, g) for g in (0.0, 5.0)}
    assert all(r.panels > 40 for r in fresh.values())
    plan = coverage._CoveragePlan(pr, method)
    shuffled = np.random.default_rng(3).permutation([0.0, 5.0] * 3)
    for g in [0.0, 5.0] + [float(g) for g in shuffled]:
        assert plan.evaluate(g) == fresh[g]


# the plan corners, and the golden row cp p 2 m 5 rho 0.6, whose 7,200
# start nodes carry 3,739 distinct half-widths, the most of the 340 finite-m
# golden rows
_GOLDEN_START = (CP, 2, 5, 0.6)
_START_CASES = ([(method, 10, m, rho) for method, m, rho in _PLAN_CORNERS]
                + [_GOLDEN_START])
_START_GAMMAS = (0.0, 0.7, 2.5, 5.0)


def _start_plan(case):
    method, p, m, rho = case
    return coverage._CoveragePlan(BoundProblem.from_m(0.05, p, m, rho), method)


def _start_id(case):
    method, p, m, rho = case
    return f"{method.kind}-p{p}-m{m}-rho{rho}"


@pytest.mark.parametrize("case", _START_CASES, ids=_start_id)
def test_start_values_are_the_integrand_on_the_start_mesh(case, monkeypatch):
    # D computed once per distinct half-width and mapped back gives the
    # bits of D computed node by node
    plan = _start_plan(case)
    seen = []
    quad_2d = coverage.adaptive_quad_2d

    def capture(*args, start_values, **kwargs):
        seen.append(start_values)
        return quad_2d(*args, start_values=start_values, **kwargs)

    monkeypatch.setattr(coverage, "adaptive_quad_2d", capture)
    h, q, w, f_w = plan.sub_start
    for g in _START_GAMMAS:
        plan.evaluate(g)
        c = -abs(plan.rho * g) / plan.sd
        assert np.array_equal(
            seen[-1], symmetric_interval_prob(c, q) * norm_pdf(h - g) * w * f_w)


@pytest.mark.parametrize("case", _START_CASES, ids=_start_id)
def test_start_mesh_d_sees_each_half_width_once(case, monkeypatch):
    # the two Phi of D on the start mesh see at most 0.55 x its nodes
    plan = _start_plan(case)
    d_calls = []  # per D call, the sizes of its erfc calls
    erfc = special.erfc

    def counted_erfc(x):
        d_calls[-1].append(np.size(x))
        return erfc(x)

    def counted_d(c, q):
        d_calls.append([])
        with monkeypatch.context() as patch:
            patch.setattr(special, "erfc", counted_erfc)
            return symmetric_interval_prob(c, q)

    monkeypatch.setattr(coverage, "symmetric_interval_prob", counted_d)
    q = plan.sub_start[1]
    n = np.unique(q).size
    assert q.size == 7200 and n <= 0.55 * q.size
    if case == _GOLDEN_START:
        assert n > 3600
    for g in _START_GAMMAS:
        d_calls.clear()
        plan.evaluate(g)
        # the start mesh's D call comes first, refined panels' after it
        assert d_calls[0] == [n, n]


class TestPerfectCorrBound:
    def test_zero_when_cutoff_dominates(self):
        # m = 60, alpha = 0.17: t critical 1.387 < sqrt(2), so the
        # selection event swallows the whole interval
        assert t_quantile(60, 0.17) < math.sqrt(2.0)
        res = minimum_coverage(CP, 0.17, 2, 60, 1.0)
        assert (res.bound, res.quad_err, res.evaluations) == (0.0, 0.0, 0)

    def test_monte_carlo_expectation(self):
        # 2 E[Phi(t_m W) - Phi(d W)] by direct sampling of W
        m = 5
        t1 = t_quantile(m, 0.05)
        rng = np.random.default_rng(99)
        w = np.sqrt(rng.chisquare(m, 10_000_000) / m)
        draws = 2.0 * (norm_cdf(t1 * w) - norm_cdf(math.sqrt(2.0) * w))
        est = float(draws.mean())
        se = float(draws.std(ddof=1)) / math.sqrt(len(draws))
        got = minimum_coverage(CP, 0.05, 2, 5, 1.0).bound
        assert abs(got - est) <= 3.0 * se

    def test_frozen_value(self):
        got = minimum_coverage(CP, 0.05, 2, 5, 1.0).bound
        assert got == pytest.approx(0.1664372292696845, abs=1e-10)

    def test_degenerate_scale_limit(self):
        z = norm_two_sided_quantile(0.05)
        want = 2.0 * (norm_cdf(z) - norm_cdf(math.sqrt(2.0)))
        got = minimum_coverage(CP, 0.05, 2, 100_000, 1.0).bound
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
        def above_nominal(plan, gamma):
            return CoverageResult(value=0.95 + 1e-3 / (1.0 + gamma),
                                  quad_err=1e-9, panels=32)

        monkeypatch.setattr(coverage._CoveragePlan, "evaluate", above_nominal)
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
        with pytest.raises(ValueError, match="minimum_coverage"):
            coverage_bound(prob(5, 1.0), CP)


class TestMinimumCoverage:
    """``minimum_coverage`` gives the bits of the formula it picks in each
    of its four (m, |rho|) cases, and the same bits at rho = -1 as at
    rho = 1."""

    # the CLI's values for cp at rho = 1, m = 5 and m = inf
    PERFECT = {5: 0.16643722926968446, math.inf: 0.1072992070502854}

    @pytest.mark.parametrize("m,rho", [(5, 0.7), (math.inf, 0.7),
                                       (5, 1.0), (math.inf, 1.0)],
                             ids=("finite", "limit", "finite-perfect",
                                  "limit-perfect"))
    def test_picks_the_formula(self, m, rho):
        res = minimum_coverage(CP, 0.05, 2, m, rho)
        if rho < 1.0 and m == math.inf:
            want = asymptotic_bound(
                AsymptoticProblem(0.05, rho, asymptotic_threshold(CP)))
            assert res == want
        elif rho < 1.0:
            assert res == coverage_bound(prob(m, rho), CP)
        else:
            assert (res.bound, res.evaluations) == (self.PERFECT[m], 0)
            assert math.isnan(res.gamma_star)
            neg = minimum_coverage(CP, 0.05, 2, m, -1.0)
            assert (neg.bound, neg.quad_err, neg.evaluations) \
                == (res.bound, res.quad_err, 0)

    @pytest.mark.parametrize("kind,p,m", [("cp", 2, 5), ("aic", 10, 20),
                                          ("bic", 10, 2)])
    def test_continuous_into_perfect_correlation(self, kind, p, m):
        # every rho below 1 is computed as given, so the gap to the
        # rho = 1 closed form shrinks with 1 - rho down to one ulp
        method = SelectionMethod(kind)
        perfect = minimum_coverage(method, 0.05, p, m, 1.0).bound
        gaps = [abs(minimum_coverage(method, 0.05, p, m, rho).bound - perfect)
                for rho in (1.0 - 1e-6, 1.0 - 1e-8, 1.0 - 1e-12,
                            math.nextafter(1.0, 0.0))]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 1e-9

    @pytest.mark.parametrize("method", [SelectionMethod("bic"),
                                        SelectionMethod("ttest", 0.05)],
                             ids=lambda m: m.kind)
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_no_limit_for_bic_and_ttest(self, method, rho):
        with pytest.raises(ValueError, match="large-sample"):
            minimum_coverage(method, 0.05, 2, math.inf, rho)


# corners of the early-exit certificate: m in {1, 2} (w_hi ~ 7 and 5),
# m = 10000 (w_hi ~ 1.1), rho at 0, 0.9 and 1 - 1e-8; a t test
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
        # from gamma = 0 through the old edge d w_hi and past it, the
        # envelope is nonincreasing and bounds the computed correction
        method, alpha, m, rho = case
        pr = BoundProblem.from_m(alpha, 10, m, rho)
        slack = coverage._CoveragePlan(pr, method).tail_slack()
        edge = _edge(pr, method)
        previous = math.inf
        for x in (-edge, -0.75 * edge, -0.5 * edge, -0.25 * edge, 0.0,
                  0.05, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
            value = coverage_probability(pr, method, edge + x).value
            s = slack(edge + x)
            assert s <= previous
            assert abs(value - (1.0 - alpha)) <= s
            if s == 0.0:
                assert value == 1.0 - alpha
            previous = s
        assert slack(edge + 12.0) == 0.0


# refined evaluations: every node stays in its start cell, so the
# envelope built on the start meshes bounds them too
_REFINED_CASES = [(SelectionMethod("aic"), 10, 5, 0.95),
                  (CP, 2, 20, 0.6),
                  (SelectionMethod("aic"), 10, 1, 0.9),
                  (SelectionMethod("bic"), 10, 2, 0.0)]


@pytest.mark.parametrize("case", _REFINED_CASES,
                         ids=lambda c: f"{c[0].kind}-m{c[2]}-rho{c[3]}")
def test_slack_bounds_refined_coverage(case):
    method, p, m, rho = case
    pr = BoundProblem.from_m(0.05, p, m, rho)
    slack = coverage._CoveragePlan(pr, method).tail_slack()
    panels = 0
    for gamma in 0.25 * np.arange(60):
        res = coverage_probability(pr, method, float(gamma), abs_err=1e-13)
        panels = max(panels, res.panels)
        assert abs(res.value - 0.95) <= slack(float(gamma))
    assert panels > 40  # past the 32 + 8 start panels


# the default search: the result is the full scan's, bit for bit, at a
# ceiling on evaluations (a regression guard on the envelope's sharpness)
@pytest.mark.parametrize("case, ceiling",
                         [((CP, 2, 20, 0.6), 80),
                          ((SelectionMethod("aic"), 10, 5, 0.95), 75)],
                         ids=["cp-m20-rho0.6", "aic-m5-rho0.95"])
def test_default_search_identical_to_full_scan(case, ceiling):
    method, p, m, rho = case
    pr = BoundProblem.from_m(0.05, p, m, rho)
    res = coverage_bound(pr, method)
    full = minimize_over_gamma(
        lambda g: coverage_probability(pr, method, g).value,
        tail_value=1.0 - pr.alpha)
    assert (res.bound, res.gamma_star, res.bracket) \
        == (full.bound, full.gamma_star, full.bracket)
    assert res.evaluations <= ceiling
