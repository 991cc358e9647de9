"""Special-function layer: accuracy against independent references."""

import inspect
import math
import platform
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covbound.special import (BVN_RECTANGLE_ERR, bvn_rectangle, erfc,
                              norm_cdf, norm_pdf, norm_two_sided_quantile,
                              residual_scale_density, residual_scale_interval,
                              symmetric_interval_prob, t_quantile,
                              t_two_sided_tail)
from covbound import special
from covbound.coverage import (coverage_bound, coverage_probability,
                               minimum_coverage)
from covbound.quadrature import adaptive_quad
from covbound.rules import BoundProblem, SelectionMethod

from .oracles import (bvn_rectangle_mpmath, norm_cdf_oracle, t_central_prob,
                      t_quantile_bisect)
from .reference import gauss_interval_prob, reg_inc_beta, reg_lower_gamma

# Two-sided t critical values, precomputed with mpmath at 40 digits
# (regularized incomplete beta inverted by root finding).
T_REFERENCE = {
    (1, 0.32): 1.8189932472810663,
    (1, 0.1): 6.3137515146750431,
    (1, 0.05): 12.706204736174705,
    (1, 0.01): 63.656741162871581,
    (1, 0.001): 636.61924876871962,
    (2, 0.32): 1.3115784746777812,
    (2, 0.1): 2.9199855803537257,
    (2, 0.05): 4.3026527297494639,
    (2, 0.01): 9.9248432009182931,
    (2, 0.001): 31.599054576443621,
    (3, 0.32): 1.1889286364770172,
    (3, 0.1): 2.3533634348018239,
    (3, 0.05): 3.1824463052837096,
    (3, 0.01): 5.8409093097333573,
    (3, 0.001): 12.923978636687483,
    (4, 0.32): 1.1343966379740465,
    (4, 0.1): 2.1318467863266503,
    (4, 0.05): 2.7764451051977944,
    (4, 0.01): 4.6040948713499932,
    (4, 0.001): 8.6103015813792751,
    (5, 0.32): 1.1036682729560625,
    (5, 0.1): 2.0150483733330242,
    (5, 0.05): 2.5705818356363155,
    (5, 0.01): 4.0321429835552281,
    (5, 0.001): 6.8688266258811102,
    (6, 0.32): 1.0839756791279643,
    (6, 0.1): 1.9431802805153032,
    (6, 0.05): 2.44691185114497,
    (6, 0.01): 3.7074280213247798,
    (6, 0.001): 5.9588161788187596,
    (7, 0.32): 1.0702873962742888,
    (7, 0.1): 1.8945786050900074,
    (7, 0.05): 2.3646242515927853,
    (7, 0.01): 3.4994832973504939,
    (7, 0.001): 5.4078825208617252,
    (8, 0.32): 1.0602240025299017,
    (8, 0.1): 1.8595480375308984,
    (8, 0.05): 2.3060041352041667,
    (8, 0.01): 3.3553873313333955,
    (8, 0.001): 5.0413054333733674,
    (9, 0.32): 1.0525154890958138,
    (9, 0.1): 1.8331129326562372,
    (9, 0.05): 2.2621571627982055,
    (9, 0.01): 3.2498355415921263,
    (9, 0.001): 4.7809125859311391,
    (10, 0.32): 1.0464226104979647,
    (10, 0.1): 1.8124611228116764,
    (10, 0.05): 2.2281388519862747,
    (10, 0.01): 3.1692726726169512,
    (10, 0.001): 4.5868938587026359,
    (20, 0.32): 1.0198035541153146,
    (20, 0.1): 1.7247182429207873,
    (20, 0.05): 2.0859634472658648,
    (20, 0.01): 2.8453397097861085,
    (20, 0.001): 3.8495162749308272,
    (50, 0.32): 1.0044462400499285,
    (50, 0.1): 1.6759050251630976,
    (50, 0.05): 2.0085591121007611,
    (50, 0.01): 2.6777932709408442,
    (50, 0.001): 3.4960128818111393,
    (100, 0.32): 0.99942731662579135,
    (100, 0.1): 1.6602343260853396,
    (100, 0.05): 1.9839715185235523,
    (100, 0.01): 2.6258905214380179,
    (100, 0.001): 3.3904913111642299,
    (1000, 0.32): 0.99495260979075358,
    (1000, 0.1): 1.6463788172854647,
    (1000, 0.05): 1.9623390808264085,
    (1000, 0.01): 2.5807546980659511,
    (1000, 0.001): 3.3002826484239129,
    (1000000, 0.32): 0.99445837769087576,
    (1000000, 0.1): 1.6448551507220405,
    (1000000, 0.05): 1.959966356814107,
    (1000000, 0.01): 2.5758342201053342,
    (1000000, 0.001): 3.2905364612486911,
}
EPS = 2.0 ** -52  # one ulp at 1


class TestTolerance:
    """The quadratures' absolute error budget ``abs_err``: a plain float,
    checked where the coverage layer reads it."""

    CP = SelectionMethod("cp")
    PROBLEM = BoundProblem.from_m(0.05, 2, 5, 0.5)

    def test_defaults(self):
        for f in (coverage_probability, coverage_bound, minimum_coverage):
            assert inspect.signature(f).parameters["abs_err"].default == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"abs_err": 0.0},
        {"abs_err": -1.0},
        {"abs_err": math.nan},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError, match="abs_err"):
            coverage_probability(self.PROBLEM, self.CP, 1.0, **kwargs)
        with pytest.raises(ValueError, match="abs_err"):
            coverage_bound(self.PROBLEM, self.CP, **kwargs)
        for m, rho in ((5, 1.0), (math.inf, 0.5)):
            with pytest.raises(ValueError, match="abs_err"):
                minimum_coverage(self.CP, 0.05, 2, m, rho, **kwargs)

    def test_has_no_relative_budget(self):
        with pytest.raises(TypeError):
            coverage_probability(self.PROBLEM, self.CP, 1.0, rel_err=1e-12)


# erfc's error bound in ulps of the result.  glibc 2.36 reaches 3.91 ulps
# at x = 1.2268845585688397, the worst of 2M random points on [1.1, 1.35];
# on the regular grids below its worst is 2.43 ulps.
ERFC_ULPS = 4.0


def _erfc_worst_ulps(x):
    """(worst ulps of erfc against 40-digit mpmath, where) on the array x."""
    mp = pytest.importorskip("mpmath")
    got = erfc(x)
    with mp.workdps(40):
        exact = [mp.erfc(v) for v in x.tolist()]
        ulps = np.array([float(abs(mp.mpf(g) - e)) / math.ulp(float(e))
                         for g, e in zip(got.tolist(), exact)])
    worst = int(np.argmax(ulps))
    return ulps[worst], (f"{ulps[worst]:.2f} ulps at x = {float(x[worst])!r} "
                         f"({platform.libc_ver()})")


class TestErfcAndNormCdf:
    def test_erfc_against_libm(self):
        # arrays, short arrays and scalars all give math.erfc's bits
        x = np.concatenate([np.linspace(-6.0, 6.0, 4001),
                            np.linspace(-27.3, 27.3, 6001)])
        ref = np.array([math.erfc(v) for v in x.tolist()])
        assert np.array_equal(erfc(x), ref)
        assert np.array_equal(erfc(x[:3]), ref[:3])
        assert all(erfc(v) == r for v, r in zip(x[::97].tolist(), ref[::97]))

    def test_erfc_against_mpmath(self):
        # from erfc ~ 2 to the underflow to 0 near 27.3, with glibc's
        # worst point; the last bits are the platform libm's
        x = np.concatenate([np.linspace(-6.0, 6.0, 4001),
                            np.linspace(-27.3, 27.3, 6001),
                            [1.2268845585688397]])
        worst, where = _erfc_worst_ulps(x)
        assert worst <= ERFC_ULPS, where

    def test_erfc_deep_tail_relative(self):
        # stays within ERFC_ULPS in relative terms down to 1e-307 at 26.5
        worst, where = _erfc_worst_ulps(np.linspace(8.0, 26.5, 371))
        assert worst <= ERFC_ULPS, where

    def test_norm_cdf_absolute_floor(self):
        x = np.linspace(-10.0, 10.0, 2001)
        ref = np.array([norm_cdf_oracle(v) for v in x])
        assert np.max(np.abs(norm_cdf(x) - ref)) <= 1e-14

    def test_reflection_identity(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-8.0, 8.0, 10_000)
        gap = np.abs(norm_cdf(x) + norm_cdf(-x) - 1.0)
        assert np.max(gap) <= 1e-14

    def test_scalar_in_scalar_out(self):
        assert isinstance(norm_cdf(0.3), float)
        assert isinstance(erfc(0.3), float)

    def test_pdf_matches_formula(self):
        x = np.linspace(-5, 5, 101)
        ref = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        assert_allclose(norm_pdf(x), ref, rtol=1e-15)

    def test_scalar_path_matches_array_path(self):
        # a scalar gives the bits of the same value inside an array, on
        # both sides of each point here
        edges = [0.0, 0.46875, 4.0, 27.3, 40.0]
        x = np.concatenate([np.linspace(-30.0, 30.0, 6001)]
                           + [[s * np.nextafter(e, t), s * e]
                              for e in edges for s in (-1.0, 1.0)
                              for t in (-np.inf, np.inf)])
        got = np.array([erfc(float(v)) for v in x])
        assert np.array_equal(got, erfc(x))

    @pytest.mark.parametrize("shape", [(0,), (1,), (6,), (2, 8), (17,)])
    def test_few_element_arrays_match_array_route(self, shape):
        # short and empty arrays keep their shape and dtype and give the
        # bits of the same values inside a long array, non-finite included
        rng = np.random.default_rng(11)
        x = rng.uniform(-30.0, 30.0, shape)
        x.flat[:3] = [np.nan, np.inf, -np.inf][:x.size]
        long = np.concatenate([x.ravel(), np.linspace(-30.0, 30.0, 64)])
        got = erfc(x)
        assert got.shape == shape and got.dtype == float
        assert np.array_equal(got.ravel(), erfc(long)[:x.size], equal_nan=True)

    def test_nonfinite_arrays(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = erfc(np.array([np.nan, np.nan, 1.0, np.inf, -np.inf,
                                 1e300, -1e300]))
            cdf = norm_cdf(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(got[:2]).all()
        assert got[2] == erfc(1.0)
        assert list(got[3:]) == [0.0, 2.0, 0.0, 2.0]
        assert np.isnan(cdf[0]) and list(cdf[1:]) == [1.0, 0.0]

    def test_nonfinite_scalars(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(erfc(math.nan))
            assert erfc(math.inf) == 0.0
            assert erfc(-math.inf) == 2.0
            assert math.isnan(norm_cdf(math.nan))
            assert norm_cdf(math.inf) == 1.0
            assert norm_cdf(-math.inf) == 0.0
            assert gauss_interval_prob(-math.inf, math.inf, 0.0, 1.0) == 1.0


# (lo1, hi1, lo2, hi2): central, off-center, narrow, and deep-tail boxes
# where the four orthant probabilities sit within 1e-16 of 0 or 1
_BOXES = [(-1.0, 1.0, -1.0, 1.0), (-1.96, 1.96, -4.2, -1.4),
          (0.3, 0.4, 0.31, 0.5), (-2.0, 2.0, -9.0, -5.0),
          (-0.5, 0.5, -8.5, -6.5), (5.0, 9.0, 5.0, 9.0), (-9.0, -5.0, 5.0, 9.0),
          (-10.0, 10.0, -10.0, 10.0)]
_BVN_RHOS = [0.0, 0.3, -0.3, 0.9, -0.9, 0.925, -0.925, 0.95, -0.95,
             1.0 - 1e-6, -(1.0 - 1e-6)]


@pytest.mark.parametrize("rho", _BVN_RHOS)
class TestBvnRectangle:
    def test_against_mpmath(self, rho):
        pytest.importorskip("mpmath")
        for box in _BOXES:
            want = bvn_rectangle_mpmath(*box, rho)
            assert abs(bvn_rectangle(*box, rho) - want) <= 1e-14

    def test_against_scipy(self, rho):
        stats = pytest.importorskip("scipy.stats")
        law = stats.multivariate_normal(mean=[0.0, 0.0],
                                        cov=[[1.0, rho], [rho, 1.0]])
        for lo1, hi1, lo2, hi2 in _BOXES:
            want = law.cdf([hi1, hi2], lower_limit=[lo1, lo2])
            assert abs(bvn_rectangle(lo1, hi1, lo2, hi2, rho) - want) <= 1e-14

    def test_far_out_is_tiny_or_zero(self, rho):
        # never above the computed tail probability of either interval,
        # and exactly 0 once that underflows; an upper-tail box gives its
        # mirror image's value, not the rounding noise of 1 - 1
        for k in (6.0, 9.0, 12.0, 20.0):
            got = bvn_rectangle(-3.0, 3.0, -k - 2.0, -k, rho)
            assert 0.0 <= got <= norm_cdf(-k)
            assert bvn_rectangle(-3.0, 3.0, k, k + 2.0, rho) \
                == pytest.approx(got, rel=1e-12, abs=0.0)
        assert bvn_rectangle(-3.0, 3.0, -60.0, -40.0, rho) == 0.0
        assert bvn_rectangle(40.0, 50.0, -3.0, 3.0, rho) == 0.0

    def test_vectorized_matches_scalar_calls(self, rho):
        lo2 = np.linspace(-6.0, 1.0, 12).reshape(3, 4)
        got = bvn_rectangle(-1.5, 2.0, lo2, lo2 + 1.5, rho)
        assert got.shape == (3, 4)
        want = [bvn_rectangle(-1.5, 2.0, v, v + 1.5, rho) for v in lo2.ravel()]
        assert np.array_equal(got.ravel(), want)
        assert isinstance(want[0], float)

    def test_infinite_limits(self, rho):
        assert abs(bvn_rectangle(-np.inf, np.inf, -np.inf, np.inf, rho)
                   - 1.0) <= BVN_RECTANGLE_ERR
        band = bvn_rectangle(-np.inf, np.inf, -0.7, 1.3, rho)
        assert abs(band - (norm_cdf(1.3) - norm_cdf(-0.7))) <= BVN_RECTANGLE_ERR


class TestBvnRectangleEdges:
    def test_perfect_correlation(self):
        # X = Y: the overlap of the intervals; X = -Y: of I1 and -I2
        assert bvn_rectangle(-1.0, 2.0, 0.5, 3.0, 1.0) == pytest.approx(
            norm_cdf(2.0) - norm_cdf(0.5), abs=1e-15)
        assert bvn_rectangle(-1.0, 2.0, 0.5, 3.0, -1.0) == pytest.approx(
            norm_cdf(-0.5) - norm_cdf(-1.0), abs=1e-15)
        assert bvn_rectangle(-1.0, 0.0, 0.5, 3.0, 1.0) == 0.0

    def test_independence_is_a_product(self):
        got = bvn_rectangle(-1.0, 2.0, 0.5, 3.0, 0.0)
        want = ((norm_cdf(2.0) - norm_cdf(-1.0))
                * (norm_cdf(3.0) - norm_cdf(0.5)))
        assert got == pytest.approx(want, abs=1e-16)

    def test_validation(self):
        with pytest.raises(ValueError):
            bvn_rectangle(1.0, 0.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            bvn_rectangle(0.0, 1.0, 0.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            bvn_rectangle(0.0, 1.0, 0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            bvn_rectangle(0.0, 1.0, 0.0, 1.0, math.nan)


class TestNormQuantile:
    def test_round_trip(self):
        for alpha in [0.5, 0.32, 0.1, 0.05, 0.01, 1e-3, 1e-6]:
            z = norm_two_sided_quantile(alpha)
            assert abs((norm_cdf(z) - norm_cdf(-z)) - (1 - alpha)) < 1e-14

    def test_frozen_value(self):
        # mpmath: sqrt(2) * erfinv(0.95) = 1.9599639845400542...; these bits
        # are what every m = inf golden row was computed with
        assert norm_two_sided_quantile(0.05) == 1.959963984540055

    def test_validation(self):
        for bad in [0.0, 1.0, -0.1, 1.5]:
            with pytest.raises(ValueError):
                norm_two_sided_quantile(bad)


class TestIntervalProbability:
    def test_matches_cdf_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(-4, 4, 2))
            mean = rng.uniform(-2, 2)
            var = rng.uniform(0.1, 4.0)
            got = gauss_interval_prob(lo, hi, mean, var)
            s = math.sqrt(var)
            want = norm_cdf_oracle((hi - mean) / s) - norm_cdf_oracle((lo - mean) / s)
            assert abs(got - want) < 1e-13

    def test_degenerate_variance_is_indicator(self):
        assert gauss_interval_prob(-1.0, 1.0, 0.5, 0.0) == 1.0
        assert gauss_interval_prob(-1.0, 1.0, 1.5, 0.0) == 0.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            gauss_interval_prob(1.0, -1.0, 0.0, 1.0)

    def test_symmetric_form(self):
        got = symmetric_interval_prob(0.7, 1.3)
        want = norm_cdf(0.7 + 1.3) - norm_cdf(0.7 - 1.3)
        assert abs(got - want) < 1e-15


class TestStudentTail:
    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 7, 10, 20, 50, 1000])
    def test_against_trig_closed_form(self, df):
        # the 2e-14 floor is the oracle's own roundoff: its trig series
        # accumulates absolute error ~1e-14 at the longest lengths
        for t in [0.05, 0.3, 1.0, 2.0, 5.0, 20.0]:
            got = t_two_sided_tail(t, df)
            want = 1.0 - t_central_prob(t, df)
            assert abs(got - want) <= 1e-12 * want + 2e-14

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            t_two_sided_tail(-2.5, 7)

    def test_at_zero(self):
        assert t_two_sided_tail(0.0, 5) == 1.0


class TestStudentQuantile:
    def test_frozen_reference_grid(self):
        for (df, alpha), ref in T_REFERENCE.items():
            got = t_quantile(df, alpha)
            assert abs(got - ref) <= 1e-12 * ref, (df, alpha, got, ref)

    def test_against_bisection_oracle(self):
        for df in [1, 5, 20, 1000]:
            for alpha in [0.1, 0.05, 0.02]:
                got = t_quantile(df, alpha)
                want = t_quantile_bisect(df, alpha)
                assert abs(got - want) <= 1e-6

    def test_cauchy_closed_form(self):
        # df = 1: the critical value is tan(pi (1 - alpha) / 2)
        for alpha in [0.5, 0.1, 0.05, 0.01]:
            want = math.tan(math.pi * (1.0 - alpha) / 2.0)
            assert abs(t_quantile(1, alpha) - want) <= 1e-12 * want

    def test_continuity_at_large_df_switchover(self):
        # the implementation changes series near df = 50000; both sides
        # must sit on the same curve
        lo = t_quantile(49999, 0.05)
        hi = t_quantile(50001, 0.05)
        assert lo > hi  # decreasing in df
        assert abs(lo - hi) < 1e-8

    def test_decreasing_in_df_toward_normal(self):
        z = norm_two_sided_quantile(0.05)
        qs = [t_quantile(df, 0.05) for df in (1, 2, 5, 20, 100, 10000)]
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert qs[-1] > z

    def test_validation(self):
        with pytest.raises(ValueError):
            t_quantile(0, 0.05)
        with pytest.raises(ValueError):
            t_quantile(5, 0.0)
        with pytest.raises(ValueError):
            t_quantile(5, 1.0)


class TestResidualScaleDensity:
    def test_matches_scipy_chi(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for m in [1, 2, 5, 20, 1000]:
            w = np.linspace(0.05, 3.0, 50)
            ref = scipy_stats.chi.pdf(w * math.sqrt(m), m) * math.sqrt(m)
            assert_allclose(residual_scale_density(w, m), ref,
                            rtol=1e-10, atol=1e-300)

    @pytest.mark.parametrize("m", [1, 5, 50, 1000])
    def test_integrates_to_one(self, m):
        lo, hi = residual_scale_interval(m, 1e-14)
        res = adaptive_quad(lambda w: residual_scale_density(w, m), lo, hi,
                            abs_err=1e-12)
        assert abs(res.value - 1.0) <= 1e-10

    def test_zero_for_nonpositive(self):
        assert residual_scale_density(0.0, 5) == 0.0
        assert residual_scale_density(-1.0, 5) == 0.0

    def test_zero_where_w_squared_rounds_away(self):
        # w^2 - 1 rounds to -1 here: the density underflows, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = residual_scale_density([1e-9, 1e-200], 100)
        assert got.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("m", [40, 100, 10**4, 10**6, 10**8, 5 * 10**8])
    def test_relative_accuracy_at_large_df(self, m):
        # the bulk w in 1 +- 7/sqrt(2m), against 40-digit mpmath
        mp = pytest.importorskip("mpmath")
        w = 1.0 + np.linspace(-7.0, 7.0, 29) / math.sqrt(2.0 * m)
        got = residual_scale_density(w, m)
        with mp.workdps(40):
            a = mp.mpf(m) / 2
            for g, x in zip(got, w):
                x = mp.mpf(x)
                ref = mp.exp(mp.log(2) + a * mp.log(a) - mp.loggamma(a)
                             + (m - 1) * mp.log(x) - a * x * x)
                assert abs(g - ref) <= 1e-11 * ref

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_w_against_mpmath(self, m):
        # far below the bulk, down to w = 1e-300, where w^2 - 1 rounds
        # to -1: relative error a few ulps of the log, against 40 digits
        mp = pytest.importorskip("mpmath")
        w = np.geomspace(1e-300, 1e-3, 150)
        got = residual_scale_density(w, m)
        with mp.workdps(40):
            a = mp.mpf(m) / 2
            for g, x in zip(got, w):
                x = mp.mpf(x)
                ref = mp.exp(mp.log(2) + a * mp.log(a) - mp.loggamma(a)
                             + (m - 1) * mp.log(x) - a * x * x)
                tol = 4 * EPS * (1 + abs(mp.log(ref))) * ref + 1e-322
                assert abs(g - ref) <= tol, (m, float(x))

    def test_mass_interval_brackets_one(self):
        for m in [1, 5, 50, 1000]:
            lo, hi = residual_scale_interval(m, 1e-12)
            assert 0.0 <= lo < 1.0 < hi

    def test_requires_integer_df(self):
        with pytest.raises(ValueError):
            residual_scale_density(1.0, 0)

    @pytest.mark.parametrize("m", [1, 2, 5, 20, 1000, 10000])
    def test_each_tail_holds_half_of_eps(self, m):
        # W^2 m is chi2 with m degrees of freedom; each tail is solved on
        # its own side, never as a complement near 1
        chi2 = pytest.importorskip("scipy.stats").chi2
        lo, hi = residual_scale_interval(m, 1e-12)
        assert chi2.cdf(m * lo * lo, m) == pytest.approx(5e-13, rel=1e-9, abs=0.0)
        assert chi2.sf(m * hi * hi, m) == pytest.approx(5e-13, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("m", [40, 1000, 10**4, 10**5, 10**6])
    def test_each_tail_holds_half_of_eps_at_large_df(self, m):
        # against 40-digit mpmath; the incomplete gamma's prefactor in
        # Stirling form keeps both tails within 1.1e-12 of eps/2 up to 10^6
        mp = pytest.importorskip("mpmath")
        lo, hi = residual_scale_interval(m, 1e-12)
        with mp.workdps(40):
            a = mp.mpf(m) / 2
            tails = (mp.gammainc(a, 0, a * mp.mpf(lo) ** 2, regularized=True),
                     mp.gammainc(a, a * mp.mpf(hi) ** 2, mp.inf, regularized=True))
        for tail in tails:
            assert float(tail) == pytest.approx(5e-13, rel=1e-11, abs=0.0)

    def test_huge_df_window(self):
        # W is close to 1 + N(0, 1)/sqrt(2 df) here.  At w = 1 the series
        # needs about 9 sqrt(df / 2) terms, more than _ITMAX at 10^11: the
        # solves start in the tails and never go there
        z = norm_two_sided_quantile(1e-12)
        for m in (10**8, 10**11):
            lo, hi = residual_scale_interval(m, 1e-12)
            assert (1.0 - lo) * math.sqrt(2 * m) == pytest.approx(z, rel=1e-2)
            assert (hi - 1.0) * math.sqrt(2 * m) == pytest.approx(z, rel=1e-2)


class TestIncompleteFunctions:
    def test_reg_inc_beta_against_scipy(self):
        sp = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = rng.uniform(0.5, 50.0)
            b = rng.uniform(0.5, 50.0)
            x = rng.uniform(0.0, 1.0)
            got = reg_inc_beta(a, b, x)
            want = sp.betainc(a, b, x)
            assert abs(got - want) <= 1e-12 * max(want, 1e-15) + 1e-15

    def test_reg_lower_gamma_against_scipy(self):
        sp = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(4)
        for _ in range(300):
            a = rng.uniform(0.5, 500.0)
            x = rng.uniform(0.0, 2.0) * a
            got = reg_lower_gamma(a, x)
            want = sp.gammainc(a, x)
            assert abs(got - want) <= 1e-12 * max(want, 1e-15) + 1e-15

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0, 19.5, 20.0, 20.5,
                                   100.0, 1000.0, 5000.0])
    def test_gamma_direct_side_against_mpmath(self, a):
        # near the W window, x/a in 0.9-1.1, where the prefactor comes
        # from the W density at w = sqrt(x/a); the error of u - log1p(u)
        # grows like sqrt(a) ulps
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(int(10 * a))
        for r in np.concatenate([np.linspace(0.9, 1.1, 21),
                                 rng.uniform(0.9, 1.1, 20)]):
            x = a * r
            side = 0 if x < a + 1.0 else 1  # the series, else the fraction
            got = special._gamma_pq(a, x)[side]
            with mp.workdps(40):
                ref = (mp.gammainc(a, 0, x, regularized=True) if side == 0
                       else mp.gammainc(a, x, mp.inf, regularized=True))
            assert abs(got - ref) <= EPS * (32 + 3 * math.sqrt(a)) * ref, (a, x)

    @pytest.mark.parametrize("call", [
        lambda: t_two_sided_tail(2.0, 5),
        lambda: special._gamma_pq(5.0, 2.0),   # series, x < a + 1
        lambda: special._gamma_pq(5.0, 20.0),  # continued fraction
    ], ids=["beta-fraction", "gamma-series", "gamma-fraction"])
    def test_unconverged_expansion_raises(self, monkeypatch, call):
        # two terms converge for none of these: a typed error, not a value
        monkeypatch.setattr(special, "_ITMAX", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            call()

    def test_edge_values(self):
        assert reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 3.0, 1.0) == 1.0
        assert reg_lower_gamma(2.0, 0.0) == 0.0
        assert reg_lower_gamma(30.0, 1e-300) == 0.0
