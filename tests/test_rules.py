"""Selection methods, cutoffs, and problem containers."""

import math

import numpy as np
import pytest

from covbound.rules import (METHOD_NAMES, BoundProblem, SelectionMethod,
                            asymptotic_threshold, selection_threshold)
from covbound.special import t_quantile


class TestSelectionMethod:
    def test_from_name_round_trip(self):
        for name in ("aic", "bic", "cp", "adjr2"):
            assert SelectionMethod.from_name(name).kind == name
        assert SelectionMethod.from_name("CP").kind == "cp"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            SelectionMethod.from_name("lasso")

    def test_ttest_needs_size(self):
        with pytest.raises(ValueError):
            SelectionMethod("ttest")
        with pytest.raises(ValueError):
            SelectionMethod("ttest", 1.0)
        assert SelectionMethod("ttest", 0.05).test_size == 0.05

    def test_others_reject_size(self):
        with pytest.raises(ValueError):
            SelectionMethod("cp", 0.05)

    def test_method_names_constant(self):
        assert set(METHOD_NAMES) == {"aic", "bic", "cp", "adjr2", "ttest"}


class TestThresholds:
    def test_cp_is_sqrt_two(self):
        assert selection_threshold(SelectionMethod("cp"), 30, 10) == math.sqrt(2.0)

    def test_adjusted_r2_is_one(self):
        assert selection_threshold(SelectionMethod("adjr2"), 30, 10) == 1.0

    def test_aic_formula(self):
        d = selection_threshold(SelectionMethod("aic"), 30, 10)
        want = math.sqrt((math.exp(2.0 / 30.0) - 1.0) * 20.0)
        assert abs(d - want) < 1e-15
        assert abs(d - 1.174215531725299) < 1e-12

    def test_bic_formula(self):
        d = selection_threshold(SelectionMethod("bic"), 30, 10)
        want = math.sqrt((math.exp(math.log(30.0) / 30.0) - 1.0) * 20.0)
        assert abs(d - want) < 1e-15

    def test_aic_increases_toward_sqrt_two(self):
        # the penalized-fit cutoff climbs with sample size and levels
        # off at the fixed-penalty value sqrt(2)
        ds = [selection_threshold(SelectionMethod("aic"), n, 10)
              for n in (20, 50, 200, 10_000)]
        assert all(a < b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < math.sqrt(2.0)
        assert math.sqrt(2.0) - ds[-1] < 1e-3

    def test_bic_exceeds_aic_for_moderate_n(self):
        for n in (20, 50, 1000):
            aic = selection_threshold(SelectionMethod("aic"), n, 10)
            bic = selection_threshold(SelectionMethod("bic"), n, 10)
            assert bic > aic  # log(n)/2 > 1 once n > e^2

    def test_bic_grows_without_bound(self):
        d1 = selection_threshold(SelectionMethod("bic"), 100, 2)
        d2 = selection_threshold(SelectionMethod("bic"), 10_000, 2)
        d3 = selection_threshold(SelectionMethod("bic"), 100_000_000, 2)
        assert d1 < d2 < d3
        assert d3 > 4.0

    def test_ttest_threshold_is_t_critical(self):
        d = selection_threshold(SelectionMethod("ttest", 0.05), 30, 10)
        assert d == t_quantile(20, 0.05)

    def test_asymptotic_values(self):
        assert asymptotic_threshold(SelectionMethod("aic")) == math.sqrt(2.0)
        assert asymptotic_threshold(SelectionMethod("cp")) == math.sqrt(2.0)
        assert asymptotic_threshold(SelectionMethod("adjr2")) == 1.0

    def test_asymptotic_not_applicable(self):
        for method in (SelectionMethod("bic"), SelectionMethod("ttest", 0.05)):
            with pytest.raises(ValueError, match="large-sample"):
                asymptotic_threshold(method)


class TestBoundProblem:
    def test_m_property(self):
        prob = BoundProblem(alpha=0.05, p=10, n=30, rho=0.5)
        assert prob.m == 20

    def test_from_m(self):
        prob = BoundProblem.from_m(0.05, 10, 20, 0.5)
        assert prob.n == 30
        assert prob.m == 20

    def test_from_m_accepts_integral_values(self):
        want = BoundProblem.from_m(0.05, 2, 20, 0.5)
        for p, m in [(2.0, 20.0), (np.int64(2), np.int64(20))]:
            assert BoundProblem.from_m(0.05, p, m, 0.5) == want

    @pytest.mark.parametrize("p, m", [(2, 2.5), (2.7, 20), (2, math.inf)])
    def test_from_m_rejects_non_integral(self, p, m):
        # int() would truncate the finite ones to another problem
        with pytest.raises(ValueError, match="integers"):
            BoundProblem.from_m(0.05, p, m, 0.5)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0, "p": 10, "n": 30, "rho": 0.5},
        {"alpha": 1.0, "p": 10, "n": 30, "rho": 0.5},
        {"alpha": 0.05, "p": 1, "n": 30, "rho": 0.5},
        {"alpha": 0.05, "p": 10, "n": 10, "rho": 0.5},
        {"alpha": 0.05, "p": 10, "n": 30, "rho": 1.5},
        {"alpha": 0.05, "p": 10, "n": 30, "rho": -1.0001},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BoundProblem(**kwargs)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_rejects_nonfinite_n(self, n):
        # int(n) alone would raise OverflowError for inf, and for NaN a
        # ValueError with int's own message
        with pytest.raises(ValueError, match="n must be an integer > p"):
            BoundProblem(alpha=0.05, p=2, n=n, rho=0.5)

    def test_rho_one_is_constructible(self):
        # |rho| = 1 is a legal problem; only the smooth evaluator rejects it
        prob = BoundProblem.from_m(0.05, 2, 5, 1.0)
        assert prob.rho == 1.0

    def test_frozen(self):
        prob = BoundProblem.from_m(0.05, 2, 5, 0.3)
        with pytest.raises(AttributeError):
            prob.rho = 0.4
