"""Large-sample coverage: closed form against an independent quadrature
oracle, bound, MC cross-check."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from covbound import asymptotic, optimize
from covbound.asymptotic import (AsymptoticProblem, asymptotic_bound,
                                 asymptotic_coverage)
from covbound.coverage import minimum_coverage
from covbound.optimize import SCAN_GRID, minimize_over_gamma
from covbound.rules import SelectionMethod, asymptotic_threshold
from covbound.special import (BVN_RECTANGLE_ERR, norm_cdf,
                              norm_two_sided_quantile)

from .oracles import asymptotic_coverage_bivariate

CP = SelectionMethod("cp")
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def problem(rho, method=CP, alpha=0.05):
    return AsymptoticProblem(alpha, rho, asymptotic_threshold(method))


class TestProblemConstruction:
    def test_limits_exist_for_scale_free_criteria(self):
        assert asymptotic_threshold(CP) == math.sqrt(2.0)
        assert asymptotic_threshold(SelectionMethod("aic")) == math.sqrt(2.0)
        assert asymptotic_threshold(SelectionMethod("adjr2")) == 1.0

    @pytest.mark.parametrize("method", [SelectionMethod("bic"),
                                        SelectionMethod("ttest", 0.05)])
    def test_no_limit_for_consistent_or_fixed_size_rules(self, method):
        with pytest.raises(ValueError, match="large-sample"):
            asymptotic_threshold(method)
        with pytest.raises(ValueError, match="large-sample"):
            minimum_coverage(method, 0.05, 2, math.inf, 0.5)

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

    @pytest.mark.parametrize("d_prime", [math.sqrt(2.0), 1.0, 1e-3])
    @pytest.mark.parametrize("alpha", [0.05, 0.999])
    @pytest.mark.parametrize("rho", [0.0, 0.9, 0.95, 0.9999, -0.7, -0.9999])
    def test_closed_form_matches_quad_oracle(self, d_prime, alpha, rho):
        # both sides of Genz's rho = 0.925 branch, both signs of rho, and
        # gamma past the cutoff on both sides of 0
        pr = AsymptoticProblem(alpha, rho, d_prime)
        for gamma in (-3.0, -0.5, 0.0, 0.3, 1.0, 1.4, 2.0, 3.0, 5.0, 8.0):
            assert abs(asymptotic_coverage(pr, gamma)
                       - asymptotic_coverage_bivariate(pr, gamma)) <= 1e-12

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
            res = asymptotic_bound(problem(rho))
            assert res.bound <= 0.95 + 1e-9

    def test_uncorrelated_bound_is_nominal(self):
        res = asymptotic_bound(problem(0.0))
        assert res.bound == pytest.approx(0.95, abs=1e-9)

    @pytest.mark.parametrize("rho,expected", [
        (0.3, 0.9380683352408667),
        (0.6, 0.8771958074170567),
        (0.9, 0.5561097781398971),
        (0.95, 0.40182349926976124),
    ])
    def test_regression_pins(self, rho, expected):
        res = asymptotic_bound(problem(rho))
        assert res.bound == pytest.approx(expected, abs=1e-9)

    def test_small_near_perfect_correlation(self):
        res = asymptotic_bound(problem(0.999))
        limit = 2.0 * (norm_cdf(norm_two_sided_quantile(0.05))
                       - norm_cdf(math.sqrt(2.0)))
        assert res.bound < 0.2
        assert res.bound > limit  # still above the rho -> 1 limit

    def test_nonincreasing_in_rho(self):
        bounds = [asymptotic_bound(problem(r)).bound
                  for r in np.arange(0.0, 0.96, 0.19)]
        diffs = np.diff(bounds)
        assert np.all(diffs <= 1e-6)

    @pytest.mark.parametrize("rho", [0.3, 0.9])
    def test_quad_err_is_that_at_gamma_star(self, rho):
        # the bound is the closed form at gamma_star, reported with the
        # rectangle's error bound
        pr = problem(rho)
        res = asymptotic_bound(pr)
        assert math.isfinite(res.gamma_star)
        assert res.bound == asymptotic_coverage(pr, res.gamma_star)
        assert res.quad_err == BVN_RECTANGLE_ERR

    def test_quad_err_zero_when_tail_wins(self, monkeypatch):
        # a curve above the nominal level everywhere: the tail value wins
        # at gamma_star = inf, where the coverage is exact
        monkeypatch.setattr(asymptotic, "asymptotic_coverage",
                            lambda problem, gamma: 0.95 + 1e-3 / (1.0 + gamma))
        res = asymptotic_bound(problem(0.6))
        assert (res.bound, res.gamma_star, res.quad_err) == (0.95, math.inf, 0.0)

    def test_deterministic(self):
        a = asymptotic_bound(problem(0.6))
        b = asymptotic_bound(problem(0.6))
        assert a == b


def _no_prefetch(gammas):
    # a prefetch that computes nothing: the golden-section polish that
    # ``asymptotic_bound`` uses, without its look-ahead
    return None


def _full_scan(pr):
    """The gamma search with "no bound known" for the tail: every grid
    point is evaluated, then golden section polishes."""
    return minimize_over_gamma(lambda g: (asymptotic_coverage(pr, g), 0.0),
                               1.0 - pr.alpha, lambda g: math.inf, _no_prefetch)


@pytest.mark.parametrize("method", [CP, SelectionMethod("adjr2")],
                         ids=lambda m: m.kind)
@pytest.mark.parametrize("alpha", [0.05, 0.999])
@pytest.mark.parametrize("rho", [0.0, 0.9, 0.9999])
class TestTailCertificate:
    def test_identical_to_full_scan(self, method, alpha, rho):
        # the m = inf bound takes no tail certificate: it is the full scan,
        # evaluation count included
        pr = problem(rho, method, alpha)
        res = asymptotic_bound(pr)
        full = _full_scan(pr)
        assert (res.bound, res.gamma_star, res.bracket, res.evaluations) \
            == (full.bound, full.gamma_star, full.bracket, full.evaluations)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("alpha", [0.05, 0.999])
@pytest.mark.parametrize("rho", [0.0, 0.29, 0.5, 0.8, 0.925, 0.95, 0.9999,
                                 -0.6, -0.97])
def test_array_equals_scalar_bit_for_bit(rho, alpha):
    # every bvn_rectangle branch (6-, 12- and 20-point rules, Genz, both
    # signs of rho) over the whole scan grid, as the search evaluates it
    grid = np.array(SCAN_GRID)
    for d_prime in (1e-3, 1.0, math.sqrt(2.0), 3.0):
        pr = AsymptoticProblem(alpha, rho, d_prime)
        scalars = [asymptotic_coverage(pr, g) for g in SCAN_GRID]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(_bits(asymptotic_coverage(pr, grid)),
                              _bits(scalars))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_array_with_nonfinite_gamma_raises(bad):
    pr = AsymptoticProblem(0.05, 0.5, 1.0)
    with pytest.raises(ValueError, match="finite"):
        asymptotic_coverage(pr, np.array([0.0, 1.0, bad]))


def _traced_asymptotic_bound(pr, monkeypatch):
    """``asymptotic_bound`` with the gammas of each closed-form call, each
    with the number of objective calls made before it, and the arguments
    of its search's objective calls."""
    blocks, reads = [], []
    coverage, search = asymptotic.asymptotic_coverage, asymptotic.minimize_over_gamma

    def traced_coverage(problem, gamma):
        blocks.append((len(reads), np.atleast_1d(gamma).tolist()))
        return coverage(problem, gamma)

    def traced_search(objective, *args):
        def read(g):
            reads.append(g)
            return objective(g)
        return search(read, *args)

    monkeypatch.setattr(asymptotic, "asymptotic_coverage", traced_coverage)
    monkeypatch.setattr(asymptotic, "minimize_over_gamma", traced_search)
    return asymptotic_bound(pr), blocks, reads


@pytest.mark.parametrize("case", [(CP, 0.05, 0.6), (CP, 0.05, 0.0),
                                  (SelectionMethod("adjr2"), 0.999, 0.9999),
                                  (SelectionMethod("aic"), 0.05, -0.95)],
                         ids=lambda c: f"{c[0].kind}-a{c[1]}-rho{c[2]}")
def test_search_contract_at_infinite_m(case, monkeypatch):
    # the search reads one float per counted evaluation; the scan grid is
    # one block, the first call; every later call begins with the point the
    # search reads next and carries the look-ahead; no gamma is computed
    # twice, every gamma read was computed, and the golden steps after the
    # first polish call need at most one call per _LOOKAHEAD of them
    method, alpha, rho = case
    res, blocks, reads = _traced_asymptotic_bound(problem(rho, method, alpha),
                                                  monkeypatch)
    assert len(reads) == res.evaluations
    assert all(type(g) is float for g in reads)
    assert blocks[0] == (1, list(SCAN_GRID))  # the first read brings it
    assert all(block[0] == reads[n] for n, block in blocks[1:])
    computed = [g for _, block in blocks for g in block]
    assert len(set(computed)) == len(computed)
    assert set(reads) <= set(computed)
    steps = res.evaluations - len(SCAN_GRID) - 2
    assert len(blocks) <= 2 + steps // optimize._LOOKAHEAD


def _golden_inf_rows():
    rows = []
    for path in sorted(GOLDEN_DIR.glob("bound_curve_*.csv")):
        with open(path, newline="") as fh:
            rows += [r for r in csv.DictReader(fh) if r["m"] == "inf"]
    return rows


def test_golden_rows_equal_the_scalar_search():
    # the block search gives the scalar search's result, field for field,
    # on every m = inf golden row; both polish by golden section
    rows = _golden_inf_rows()
    assert len(rows) == 60
    for row in rows:
        method = SelectionMethod.from_name(row["method"])
        pr = problem(float(row["rho"]), method, float(row["alpha"]))
        scalar = minimize_over_gamma(
            lambda g: (asymptotic_coverage(pr, g), BVN_RECTANGLE_ERR),
            1.0 - pr.alpha, lambda g: math.inf, _no_prefetch)
        assert asymptotic_bound(pr) == scalar, row


def _closed_form_calls(monkeypatch, wrap_objective=False):
    """The number of ``asymptotic_coverage`` calls over the m = inf golden
    rows; with ``wrap_objective`` the search's objective goes in as a plain
    function of one float, as a span tracer passes it."""
    calls = []
    coverage, search = asymptotic.asymptotic_coverage, asymptotic.minimize_over_gamma

    def counted(problem, gamma):
        calls.append(1)
        return coverage(problem, gamma)

    monkeypatch.setattr(asymptotic, "asymptotic_coverage", counted)
    if wrap_objective:
        monkeypatch.setattr(asymptotic, "minimize_over_gamma",
                            lambda objective, *args: search(
                                lambda g: objective(g), *args))
    for row in _golden_inf_rows():
        method = SelectionMethod.from_name(row["method"])
        asymptotic_bound(problem(float(row["rho"]), method, float(row["alpha"])))
    return len(calls)


def test_golden_rows_call_count(monkeypatch):
    # the polish look-ahead at depth 5 makes 6-7 closed-form calls per
    # bound (404 in all) where scalar polish points made 29 (1,740)
    assert _closed_form_calls(monkeypatch) <= 404


def test_look_ahead_survives_a_wrapped_objective(monkeypatch):
    # the look-ahead reaches the memo past a wrapper of the objective
    plain = _closed_form_calls(monkeypatch)
    monkeypatch.undo()
    assert _closed_form_calls(monkeypatch, wrap_objective=True) == plain
