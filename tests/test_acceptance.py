"""Acceptance gate: the end-to-end guarantees the package ships under.

Every tolerance below is pinned; Monte Carlo comparisons run at frozen
seeds so each assertion is deterministic.  The quadrature-versus-
simulation grid covers all five selection methods over correlations,
signal sizes, and degrees of freedom; the remaining suites pin symmetry,
the nominal-level ceiling, curve shape, the perfect-correlation and
large-sample limits, the closed-form large-sample coverage against an
independent scipy integral, the regression simulator, and the
special-function floor.
"""

import math
from itertools import product

import numpy as np
import pytest

from covbound.asymptotic import AsymptoticProblem, asymptotic_coverage
from covbound.coverage import (coverage_bound, coverage_probability,
                               minimum_coverage)
from covbound.quadrature import adaptive_quad
from covbound.rules import (BoundProblem, SelectionMethod,
                            selection_threshold)
from covbound.simulate import (SimDesign, all_deletion_subsets,
                               empirical_min_coverage, mc_coverage)
from covbound.special import (norm_cdf, norm_two_sided_quantile,
                              residual_scale_density,
                              residual_scale_interval, t_quantile)

from .oracles import asymptotic_coverage_bivariate, t_quantile_bisect
from .reference import rss_subset

ALPHA = 0.05
MC_REPS = 2_000_000
SEED_BASE = 20090418

METHODS = [SelectionMethod("cp"), SelectionMethod("adjr2"),
           SelectionMethod("aic"), SelectionMethod("bic"),
           SelectionMethod("ttest", 0.05)]

GRID_MS = (5, 20)
GRID_RHOS = (0.0, 0.5, 0.9)
GRID_GAMMAS = (0.0, 1.0, 3.0)

MC_GRID = [(method, m, rho, gamma)
           for method in METHODS
           for m in GRID_MS
           for rho in GRID_RHOS
           for gamma in GRID_GAMMAS]

MC_IDS = [f"{meth.kind}-m{m}-rho{rho}-gamma{gamma}"
          for meth, m, rho, gamma in MC_GRID]


def _method_id(method: SelectionMethod) -> str:
    return method.kind


class TestQuadratureMatchesSimulation:
    """Two independent routes to the coverage probability agree: adaptive
    quadrature of the exact double integral versus direct Monte Carlo on
    the standardized triple, two million draws per point, |gap| <= 3 SE."""

    @pytest.mark.parametrize("method,m,rho,gamma", MC_GRID, ids=MC_IDS)
    def test_grid_point(self, method, m, rho, gamma):
        prob = BoundProblem.from_m(ALPHA, 10, m, rho)
        quad = coverage_probability(prob, method, gamma)
        seed = SEED_BASE + MC_GRID.index((method, m, rho, gamma))
        mc = mc_coverage([(prob, method, gamma)], MC_REPS, seed=seed)[0]
        assert abs(quad.value - mc.estimate) <= 3.0 * mc.std_err


class TestCoverageEvenness:
    """Coverage is even in the signal and even in the correlation."""

    GAMMAS = (0.5, 1.0, 2.0, 3.0)
    RHOS = (0.2, 0.5, 0.7, 0.9)
    TIGHT = 1e-10

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("rho", RHOS)
    def test_even(self, gamma, rho):
        method = SelectionMethod("cp")
        base = coverage_probability(BoundProblem.from_m(ALPHA, 2, 20, rho),
                                    method, gamma, self.TIGHT).value
        neg_gamma = coverage_probability(
            BoundProblem.from_m(ALPHA, 2, 20, rho), method, -gamma,
            self.TIGHT).value
        neg_rho = coverage_probability(
            BoundProblem.from_m(ALPHA, 2, 20, -rho), method, gamma,
            self.TIGHT).value
        assert abs(base - neg_gamma) <= 1e-9
        assert abs(base - neg_rho) <= 1e-9


class TestBoundCeiling:
    """The minimized bound never exceeds the nominal level."""

    @pytest.mark.parametrize("method", METHODS, ids=_method_id)
    @pytest.mark.parametrize("m", GRID_MS)
    @pytest.mark.parametrize("rho", GRID_RHOS)
    def test_bound_at_most_nominal(self, method, m, rho):
        res = coverage_bound(BoundProblem.from_m(ALPHA, 10, m, rho), method)
        assert res.bound <= (1.0 - ALPHA) + 1e-8


FIGURE_CONFIGS = [
    ("cp", 2, (5, 20, 50, 1000, math.inf)),
    ("adjr2", 2, (5, 20, 50, 1000, math.inf)),
    ("aic", 10, (5, 20, 50, 1000, math.inf)),
    ("bic", 10, (5, 20, 50, 1000, 10000)),
]


class TestBoundCurveShape:
    """Each published curve family is nonincreasing in the correlation and
    collapses far below the nominal level as the correlation approaches
    one: bound(0.95) <= 0.9 (1 - alpha)."""

    RHOS = [round(0.05 * i, 2) for i in range(20)]  # 0, 0.05, ..., 0.95

    @pytest.mark.parametrize("name,p,ms", FIGURE_CONFIGS,
                             ids=[c[0] for c in FIGURE_CONFIGS])
    def test_curves(self, name, p, ms):
        method = SelectionMethod.from_name(name)
        for m in ms:
            bounds = [minimum_coverage(method, ALPHA, p, m, rho).bound
                      for rho in self.RHOS]
            drops = np.diff(bounds)
            assert np.all(drops <= 1e-6), (m, bounds)
            assert bounds[-1] <= 0.9 * (1.0 - ALPHA), (m, bounds[-1])


class TestPerfectCorrelationLimit:
    """The bound is continuous into rho = 1 and its closed form obeys the
    degenerate-scale limit and the exact-zero regime."""

    @pytest.mark.parametrize("m", (5, 20))
    def test_near_one_approaches_closed_form(self, m):
        method = SelectionMethod("cp")
        near = coverage_bound(BoundProblem.from_m(ALPHA, 2, m, 0.9995),
                              method)
        exact = minimum_coverage(method, ALPHA, 2, m, 1.0).bound
        assert abs(near.bound - exact) <= 0.01

    def test_large_m_limit(self):
        got = minimum_coverage(SelectionMethod("cp"), ALPHA, 2, 100_000,
                               1.0).bound
        z = norm_two_sided_quantile(ALPHA)
        want = 2.0 * (norm_cdf(z) - norm_cdf(math.sqrt(2.0)))
        assert abs(got - want) <= 1e-3

    @pytest.mark.parametrize("method,m,alpha", [
        (SelectionMethod("cp"), 60, 0.17),
        (SelectionMethod("adjr2"), 5, 0.4),
        (SelectionMethod("ttest", 0.05), 10, 0.1),
    ], ids=("cp", "adjr2", "ttest"))
    def test_exact_zero_when_cutoff_dominates(self, method, m, alpha):
        prob = BoundProblem.from_m(alpha, 2, m, 1.0)
        assert selection_threshold(method, prob.n, prob.p) \
            >= t_quantile(m, alpha)
        assert minimum_coverage(method, alpha, 2, m, 1.0).bound == 0.0


class TestLargeSampleConvergence:
    """Finite-m bounds converge to the asymptotic bound for the
    scale-free criteria."""

    @pytest.mark.parametrize("name", ("cp", "adjr2"))
    @pytest.mark.parametrize("rho", (0.3, 0.6, 0.9))
    def test_finite_m_near_asymptote(self, name, rho):
        method = SelectionMethod.from_name(name)
        finite = coverage_bound(BoundProblem.from_m(ALPHA, 2, 10_000, rho),
                                method)
        asym = minimum_coverage(method, ALPHA, 2, math.inf, rho)
        assert abs(finite.bound - asym.bound) <= 0.005


class TestAsymptoticFormsAgree:
    """The closed-form large-sample coverage (one bivariate-normal
    rectangle) equals the oracle in ``tests/oracles.py``, which integrates
    the rectangle identity with scipy ``quad``."""

    RHOS = (0.0, 0.2, 0.45, 0.7, 0.9)
    GAMMAS = (0.0, 0.5, 1.0, 2.0, 4.0)

    @pytest.mark.parametrize("rho,gamma", list(product(RHOS, GAMMAS)))
    def test_forms_agree(self, rho, gamma):
        pr = AsymptoticProblem(ALPHA, rho, math.sqrt(2.0))
        a = asymptotic_coverage(pr, gamma)
        b = asymptotic_coverage_bivariate(pr, gamma)
        assert abs(a - b) <= 1e-8


class TestSimulatorFidelity:
    """The brute-force regression simulator is internally consistent and
    reproduces the analytic coverage in the scalar-selection case."""

    def test_rss_identity_on_random_problems(self):
        # restricted-fit RSS agrees with the full-fit quadratic-form
        # identity to 1e-10 relative on 100 random (X, y, K)
        rng = np.random.default_rng(271828)
        checked = 0
        while checked < 100:
            n = int(rng.integers(8, 40))
            p = int(rng.integers(3, min(n - 2, 9)))
            q = int(rng.integers(1, p))
            X = rng.standard_normal((n, p))
            a = rng.standard_normal(p)
            if not np.any(a):
                continue
            design = SimDesign(X=X, a=a, q=q, beta=rng.standard_normal(p),
                               sigma=float(rng.uniform(0.5, 2.0)))
            y = design.X @ design.beta \
                + design.sigma * rng.standard_normal(n)
            subsets = all_deletion_subsets(q, p)
            K = subsets[int(rng.integers(len(subsets)))]
            assert rss_subset(design, y, K).identity_gap <= 1e-10
            checked += 1

    def test_full_family_minimum_below_pair_coverage(self):
        # searching over every deletion subset cannot push the minimum
        # coverage above what the keep-or-drop-last reduction yields:
        # min over the grid of full-family coverage stays below each
        # pair-family point within 3 combined standard errors
        rng = np.random.default_rng(314159)
        X = rng.standard_normal((15, 3))
        sigma = 1.3
        C = np.linalg.inv(X.T @ X)
        scale = sigma * math.sqrt(C[2, 2])
        grid = [(1.0, -0.5, g * scale)
                for g in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
        design = SimDesign(X=X, a=np.array([1.0, 0.5, -0.7]), q=1,
                           beta=np.array(grid[0]), sigma=sigma)
        rows = empirical_min_coverage(design, SelectionMethod("cp"), ALPHA,
                                      grid, 100_000, seed=8675309)
        worst = min(rows, key=lambda r: r.coverage_full)
        for row in rows:
            se = math.sqrt(worst.std_err_full ** 2 + row.std_err_pair ** 2)
            assert worst.coverage_full <= row.coverage_pair + 3.0 * se

    @pytest.mark.parametrize("beta_last,gamma", [(0.0, 0.0), (2.0, 1.0),
                                                 (6.0, 3.0)])
    def test_scalar_selection_matches_quadrature(self, beta_last, gamma):
        # with one free column the simulator targets exactly the analytic
        # problem: orthonormal design, rho = 0.8, gamma = beta_3 / sigma
        X = np.vstack([np.eye(3), np.zeros((12, 3))])
        design = SimDesign(X=X, a=np.array([0.6, 0.0, 0.8]), q=2,
                           beta=np.array([1.0, 1.0, beta_last]), sigma=2.0)
        method = SelectionMethod("cp")
        row = empirical_min_coverage(design, method, ALPHA,
                                     [design.beta], 100_000, seed=24601)[0]
        want = coverage_probability(BoundProblem.from_m(ALPHA, 3, 12, 0.8),
                                    method, gamma).value
        assert abs(row.coverage_pair - want) <= 3.0 * row.std_err_pair
        assert abs(row.coverage_full - want) <= 3.0 * row.std_err_full


class TestSpecialFunctionFloor:
    """The hand-rolled special functions meet the accuracy the engine
    above assumes."""

    @pytest.mark.parametrize("df", (1, 5, 20, 1000))
    @pytest.mark.parametrize("alpha", (0.1, 0.05, 0.02))
    def test_t_quantile_against_bisection(self, df, alpha):
        assert abs(t_quantile(df, alpha)
                   - t_quantile_bisect(df, alpha)) <= 1e-6

    def test_normal_cdf_reflection(self):
        rng = np.random.default_rng(161803)
        x = rng.uniform(-8.0, 8.0, 10_000)
        gap = np.abs(norm_cdf(x) + norm_cdf(-x) - 1.0)
        assert float(gap.max()) <= 1e-14

    @pytest.mark.parametrize("m", (1, 5, 50, 1000))
    def test_scale_density_integrates_to_one(self, m):
        lo, hi = residual_scale_interval(m)
        res = adaptive_quad(lambda w: residual_scale_density(w, m), lo, hi,
                            abs_err=1e-12)
        assert abs(res.value - 1.0) <= 1e-10
