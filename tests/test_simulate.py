"""Monte Carlo layer: canonical draws, subset refits, selection, coverage."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from covbound.coverage import coverage_probability
from covbound.rules import BoundProblem, SelectionMethod, selection_threshold
from covbound.simulate import (EmpiricalCoverage, MCEstimate, SimDesign,
                               all_deletion_subsets, empirical_min_coverage,
                               mc_coverage)
from covbound.special import t_quantile

from .reference import draw_canonical, naive_interval, rss_subset, select_model

CP = SelectionMethod("cp")


def toy_design(n=15, p=3, q=1, beta=(1.0, 1.0, 2.0), sigma=2.0,
               a=(0.6, 0.0, 0.8), seed=7):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    return SimDesign(X=X, a=np.asarray(a), q=q,
                     beta=np.asarray(beta, dtype=float), sigma=sigma)


def orthonormal_design(beta=(1.0, 1.0, 2.0), sigma=2.0):
    # (X'X) = I, so a = (0.6, 0, 0.8) gives Corr(a'bhat, bhat_2) = 0.8
    # and gamma = beta_2 / sigma exactly
    X = np.vstack([np.eye(3), np.zeros((12, 3))])
    return SimDesign(X=X, a=np.array([0.6, 0.0, 0.8]), q=1,
                     beta=np.asarray(beta, dtype=float), sigma=sigma)


def reference_select(d, y, method, candidates=None):
    """Selected K by direct refits of every candidate: the textbook
    criteria with ties to the smaller |K|, then lexicographic; or, for the
    t-test, the columns of the candidates whose full-model |t| < t_crit."""
    cands = all_deletion_subsets(d.q, d.p) if candidates is None else candidates
    n, p, m = d.n, d.p, d.n - d.p
    rss_full = rss_subset(d, y, ()).rss
    if method.kind == "ttest":
        b, _, _, _ = np.linalg.lstsq(d.X, y, rcond=None)
        C = np.linalg.inv(d.X.T @ d.X)
        s, tcrit = math.sqrt(rss_full / m), t_quantile(m, method.test_size)
        return tuple(j for j in sorted(set().union(*cands))
                     if abs(b[j]) / (s * math.sqrt(C[j, j])) < tcrit)

    def criterion(K):
        rss, k = rss_subset(d, y, K).rss, p - len(K)
        return {"aic": n * math.log(rss) + 2 * k,
                "bic": n * math.log(rss) + math.log(n) * k,
                "cp": rss / (rss_full / m) - n + 2 * k,
                "adjr2": rss / (n - k)}[method.kind]
    return min(cands, key=lambda K: (criterion(K), len(K), K))


def canonical_chunks(gamma, rho, m, n_draws, seed, chunk_size):
    """The (g, h, w) chunks mc_coverage draws, by the seeding it documents:
    one Philox child of SeedSequence(seed) per chunk."""
    n_chunks = -(-n_draws // chunk_size)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        rng = np.random.Generator(np.random.Philox(child))
        yield draw_canonical(gamma, rho, m, min(chunk_size, n_draws - chunk_size * i), rng)


def model_hits(pr, g, h, w):
    """Per-draw (submodel covers, full model covers), written out."""
    m, rho = pr.m, pr.rho
    t1, t2 = t_quantile(m, pr.alpha), t_quantile(m + 1, pr.alpha)
    half = t2 * np.sqrt((m * w * w + h * h) / (m + 1.0)) * math.sqrt(1.0 - rho * rho)
    return np.abs(g - rho * h) <= half, np.abs(g) <= t1 * w


def direct_estimate(pr, cut, gamma, n_draws, seed, chunk_size):
    """Coverage by the per-draw formula: the submodel's hit where
    |h|/w < d, the full model's hit elsewhere."""
    d = cut if isinstance(cut, float) else selection_threshold(cut, pr.n, pr.p)
    covered = 0
    for g, h, w in canonical_chunks(gamma, pr.rho, pr.m, n_draws, seed, chunk_size):
        sub, full = model_hits(pr, g, h, w)
        covered += int(np.where(np.abs(h) / w < d, sub, full).sum())
    return covered / n_draws


class TestDrawCanonical:
    def test_moments(self):
        rng = np.random.default_rng(11)
        gamma, rho, m, n = 1.5, 0.7, 8, 200_000
        s = draw_canonical(gamma, rho, m, n, rng)
        tol = 4.0 / math.sqrt(n)
        assert abs(s.g.mean()) <= tol
        assert abs(s.h.mean() - gamma) <= tol
        assert abs(s.g.std(ddof=1) - 1.0) <= tol
        assert abs(s.h.std(ddof=1) - 1.0) <= tol
        assert abs(np.corrcoef(s.g, s.h)[0, 1] - rho) <= 2.0 * tol
        # w^2 is a mean-one chi-square average
        assert abs((s.w ** 2).mean() - 1.0) <= 4.0 * math.sqrt(2.0 / m / n)

    def test_w_independent_of_g(self):
        rng = np.random.default_rng(12)
        s = draw_canonical(0.0, 0.9, 5, 100_000, rng)
        assert abs(np.corrcoef(s.g, s.w)[0, 1]) <= 0.02


class TestMcCoverage:
    def test_zero_cutoff_gives_nominal(self):
        # d = 0 never keeps the submodel, so the naive interval is the
        # honest full-model interval
        pr = BoundProblem.from_m(0.05, 2, 10, 0.8)
        est = mc_coverage([(pr, 0.0, 1.0)], 400_000, seed=3)[0]
        assert abs(est.estimate - 0.95) <= 3.0 * est.std_err

    def test_matches_quadrature(self):
        pr = BoundProblem.from_m(0.05, 2, 5, 0.5)
        method = SelectionMethod("adjr2")
        est = mc_coverage([(pr, method, 0.5)], 400_000, seed=4)[0]
        want = coverage_probability(pr, method, 0.5).value
        assert abs(est.estimate - want) <= 3.5 * est.std_err

    def test_deterministic_given_seed_and_chunking(self):
        pr = BoundProblem.from_m(0.05, 2, 5, 0.5)
        a = mc_coverage([(pr, CP, 1.0)], 300_000, seed=17)
        b = mc_coverage([(pr, CP, 1.0)], 300_000, seed=17)
        assert a == b

    def test_chunking_covers_remainder(self):
        pr = BoundProblem.from_m(0.05, 2, 5, 0.5)
        est = mc_coverage([(pr, CP, 1.0)], 1000, seed=5, chunk_size=300)[0]
        assert 0.0 < est.estimate < 1.0

    def test_method_route_equals_raw_cutoff_route(self):
        pr = BoundProblem.from_m(0.05, 2, 20, 0.6)
        d = math.sqrt(2.0)
        a = mc_coverage([(pr, CP, 1.0)], 100_000, seed=6)
        b = mc_coverage([(pr, d, 1.0)], 100_000, seed=6)
        assert a == b

    def test_rejects_bad_inputs(self):
        pr = BoundProblem.from_m(0.05, 2, 5, 0.5)
        with pytest.raises(ValueError):
            mc_coverage([(pr, -0.5, 1.0)], 100, seed=1)
        with pytest.raises(ValueError):
            mc_coverage([(pr, CP, 1.0)], 0, seed=1)

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_rejects_nonpositive_chunk_size(self, chunk_size):
        pr = BoundProblem.from_m(0.05, 2, 5, 0.5)
        with pytest.raises(ValueError, match="chunk_size"):
            mc_coverage([(pr, CP, 1.0)], 100, seed=1, chunk_size=chunk_size)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_gamma(self, gamma):
        pr = BoundProblem.from_m(0.05, 2, 5, 0.5)
        with pytest.raises(ValueError, match="finite"):
            mc_coverage([(pr, CP, gamma)], 100, seed=1)
        with pytest.raises(ValueError, match="finite"):
            mc_coverage([(pr, CP, 1.0), (pr, CP, gamma)], 100, seed=1)


class TestMcCoverageBatched:
    # mixed cutoffs: a selection method, a raw zero cutoff and a t-test
    CUTOFFS = (CP, 0.0, SelectionMethod("ttest", 0.05))
    RHOS = (-0.7, 0.0, 0.9, 1.0)
    GAMMAS = (0.0, 0.5, 3.0)

    def grid(self, m=5, alpha=0.05):
        return [(BoundProblem.from_m(alpha, 4, m, rho), c, g)
                for c in self.CUTOFFS for rho in self.RHOS for g in self.GAMMAS]

    def test_grid_equals_per_point_calls(self):
        # n_draws = 1000 in chunks of 300 ends on a partial chunk
        cells = self.grid()
        batched = mc_coverage(cells, 1000, seed=8, chunk_size=300)
        single = [mc_coverage([cell], 1000, seed=8, chunk_size=300)[0]
                  for cell in cells]
        assert isinstance(batched, list) and len(batched) == len(cells)
        assert all(isinstance(e, MCEstimate) for e in batched)
        assert batched == single
        # the estimates differ across cells, so order mix-ups would show
        assert len({e.estimate for e in batched}) > len(cells) // 2

    def test_grid_equals_direct_per_point_formula(self):
        # the per-draw coverage written out on draw_canonical samples, one
        # point at a time, with the chunk seeding mc_coverage documents
        cells = self.grid(m=3, alpha=0.1)
        batched = mc_coverage(cells, 1000, seed=9, chunk_size=300)
        for (pr, cut, gamma), est in zip(cells, batched):
            assert est.estimate == direct_estimate(pr, cut, gamma, 1000, 9, 300)

    def test_empty_batch(self):
        assert mc_coverage([], 100, seed=1) == []

    def test_mixed_alpha_m_equals_per_group_calls(self):
        # cells of several (alpha, m), interleaved: each (alpha, m) draws
        # its own stream, exactly as a call with that group alone does
        cells = [cell for m in (2, 5) for alpha in (0.05, 0.1)
                 for cell in self.grid(m, alpha)[::5]]
        cells = cells[::2] + cells[1::2]
        mixed = mc_coverage(cells, 1000, seed=8, chunk_size=300)
        for key in {(pr.alpha, pr.m) for pr, _, _ in cells}:
            members = [k for k, (pr, _, _) in enumerate(cells)
                       if (pr.alpha, pr.m) == key]
            alone = mc_coverage([cells[k] for k in members], 1000, seed=8,
                                chunk_size=300)
            assert [mixed[k] for k in members] == alone
        a = BoundProblem.from_m(0.05, 2, 5, 0.5)
        with pytest.raises(ValueError):
            mc_coverage([(a, CP, 1.0), (a, -0.5, 1.0)], 100, seed=1)


class TestDiscordantCounting:
    """mc_coverage counts each cutoff on the draws where exactly one model
    covers; every count must equal the per-draw formula's.  All calls use
    1000 draws in chunks of 300, so each ends on a partial chunk."""

    N, SEED, CHUNK = 1000, 11, 300

    def check(self, cells):
        got = mc_coverage(cells, self.N, self.SEED, self.CHUNK)
        want = [direct_estimate(pr, c, g, self.N, self.SEED, self.CHUNK)
                for pr, c, g in cells]
        assert [e.estimate for e in got] == want
        return want

    def discordant_share(self, pr, gamma):
        hits = [model_hits(pr, *draws) for draws in canonical_chunks(
            gamma, pr.rho, pr.m, self.N, self.SEED, self.CHUNK)]
        return sum(int(np.count_nonzero(s != f)) for s, f in hits) / self.N

    def test_zero_and_infinite_cutoffs(self):
        # d = 0 always keeps the full model, d = inf always the submodel
        pr = BoundProblem.from_m(0.05, 3, 5, 0.6)
        zero, inf = self.check([(pr, 0.0, 1.0), (pr, math.inf, 1.0)])
        full = sub = 0
        for draws in canonical_chunks(1.0, 0.6, 5, self.N, self.SEED, self.CHUNK):
            s, f = model_hits(pr, *draws)
            sub, full = sub + int(s.sum()), full + int(f.sum())
        assert (zero, inf) == (full / self.N, sub / self.N)
        assert zero != inf

    @pytest.mark.parametrize("sub_covers", [True, False])
    def test_cutoff_at_a_draws_ratio_is_strict(self, sub_covers):
        # d equal to the |h|/w of a draw only one model covers: that draw
        # keeps the full model at d and switches to the submodel above d
        pr = BoundProblem.from_m(0.05, 3, 5, 0.6)
        g, h, w = next(canonical_chunks(1.0, 0.6, 5, self.N, self.SEED, self.CHUNK))
        sub, full = model_hits(pr, g, h, w)
        ratio = np.abs(h) / w
        j = int(np.flatnonzero((sub != full) & (sub == sub_covers))[0])
        d = float(ratio[j])
        assert np.count_nonzero(ratio == d) == 1
        at, above = self.check([(pr, d, 1.0), (pr, math.nextafter(d, math.inf), 1.0)])
        assert round((above - at) * self.N) == (1 if sub_covers else -1)

    def test_cells_sharing_a_cutoff_in_one_group(self):
        pr = BoundProblem.from_m(0.05, 3, 5, 0.6)
        a, b, c = self.check([(pr, CP, 1.0), (pr, 0.5, 1.0), (pr, CP, 1.0)])
        assert a == c != b

    @pytest.mark.parametrize("rho", [-1.0, 1.0])
    def test_perfect_correlation(self, rho):
        # sd = 0: the submodel interval is the single point rho h
        pr = BoundProblem.from_m(0.05, 3, 5, rho)
        self.check([(pr, c, g) for c in (CP, 0.0, math.inf) for g in (0.0, 1.0, 3.0)])

    def test_groups_with_no_and_nearly_all_draws_discordant(self):
        # at alpha = 0.01 both models cover every draw at rho = 0, gamma = 0,
        # while at rho = 1, gamma = 3 the submodel misses nearly every draw
        # the full model covers
        none, few, most = (BoundProblem.from_m(0.01, 3, 20, rho)
                           for rho in (0.0, 0.5, 1.0))
        assert self.discordant_share(none, 0.0) == 0.0
        assert 0.0 < self.discordant_share(few, 0.0) < 0.1
        assert self.discordant_share(most, 3.0) > 0.9
        self.check([(pr, c, g) for pr, g in ((none, 0.0), (few, 0.0), (most, 3.0))
                    for c in (CP, 0.5, math.inf)])


class TestSimDesign:
    def test_properties(self):
        d = orthonormal_design()
        assert d.n == 15 and d.p == 3

    @pytest.mark.parametrize("mutate", [
        dict(q=0),
        dict(q=3),
        dict(sigma=0.0),
        dict(sigma=-1.0),
        dict(a=np.zeros(3)),
        dict(a=np.ones(4)),
        dict(beta=np.ones(2)),
    ])
    def test_rejects_invalid(self, mutate):
        base = dict(X=np.vstack([np.eye(3), np.zeros((12, 3))]),
                    a=np.array([0.6, 0.0, 0.8]), q=1,
                    beta=np.array([1.0, 1.0, 2.0]), sigma=2.0)
        base.update(mutate)
        with pytest.raises(ValueError):
            SimDesign(**base)

    @pytest.mark.parametrize("field,value", [
        ("X", np.vstack([np.eye(3), np.full((12, 3), math.nan)])),
        ("a", np.array([0.6, math.inf, 0.8])),
        ("beta", np.array([1.0, math.nan, 2.0])),
        ("beta", np.array([1.0, 1.0, -math.inf])),
        ("sigma", math.inf),
        ("sigma", math.nan),
    ])
    def test_rejects_nonfinite(self, field, value):
        base = dict(X=np.vstack([np.eye(3), np.zeros((12, 3))]),
                    a=np.array([0.6, 0.0, 0.8]), q=1,
                    beta=np.array([1.0, 1.0, 2.0]), sigma=2.0)
        base[field] = value
        with pytest.raises(ValueError, match="finite"):
            SimDesign(**base)

    def test_rejects_rank_deficient(self):
        X = np.ones((10, 2))
        with pytest.raises(ValueError, match="rank"):
            SimDesign(X=X, a=np.array([1.0, 0.0]), q=1,
                      beta=np.zeros(2), sigma=1.0)

    def test_rejects_oversized_enumeration(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 20))
        with pytest.raises(ValueError, match="p - q"):
            SimDesign(X=X, a=np.eye(20)[0], q=1, beta=np.zeros(20), sigma=1.0)


class TestAllDeletionSubsets:
    def test_order_and_content(self):
        got = all_deletion_subsets(1, 4)
        assert got == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
                       (1, 2, 3)]

    def test_protected_columns_never_deleted(self):
        for K in all_deletion_subsets(2, 5):
            assert all(j >= 2 for j in K)


class TestRssSubset:
    def test_empty_subset_is_full_fit(self):
        d = toy_design()
        rng = np.random.default_rng(21)
        y = d.X @ d.beta + d.sigma * rng.standard_normal(d.n)
        st = rss_subset(d, y, ())
        beta_full, _, _, _ = np.linalg.lstsq(d.X, y, rcond=None)
        assert_allclose(st.beta_hat, beta_full, rtol=1e-12)
        assert st.identity_gap == 0.0
        assert st.s2 == pytest.approx(st.rss / (d.n - d.p), rel=1e-15)

    def test_identity_gap_small_on_random_problems(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(8, 30))
            p = int(rng.integers(3, min(n - 2, 8)))
            q = int(rng.integers(1, p))
            X = rng.standard_normal((n, p))
            d = SimDesign(X=X, a=rng.standard_normal(p), q=q,
                          beta=rng.standard_normal(p), sigma=1.0)
            y = d.X @ d.beta + rng.standard_normal(n)
            for K in all_deletion_subsets(q, p):
                assert rss_subset(d, y, K).identity_gap <= 1e-10

    def test_constrained_coefficients_are_zero(self):
        d = toy_design(p=4, a=(1.0, 0, 0, 1.0), beta=(1, 1, 1, 1))
        rng = np.random.default_rng(23)
        y = d.X @ d.beta + rng.standard_normal(d.n)
        st = rss_subset(d, y, (1, 3))
        assert st.subset == (1, 3)
        assert st.beta_hat[1] == 0.0 and st.beta_hat[3] == 0.0

    def test_nested_monotonicity(self):
        d = toy_design(p=4, a=(1.0, 0, 0, 1.0), beta=(1, 1, 1, 1))
        rng = np.random.default_rng(24)
        y = d.X @ d.beta + rng.standard_normal(d.n)
        rss = {K: rss_subset(d, y, K).rss for K in all_deletion_subsets(1, 4)}
        for K1, v1 in rss.items():
            for K2, v2 in rss.items():
                if set(K1) <= set(K2):
                    assert v1 <= v2 * (1 + 1e-12)

    def test_rejects_bad_subsets(self):
        d = toy_design()
        y = np.zeros(d.n)
        with pytest.raises(ValueError):
            rss_subset(d, y, (0,))      # protected column
        with pytest.raises(ValueError):
            rss_subset(d, y, (3,))      # out of range
        with pytest.raises(ValueError):
            rss_subset(d, y, (2, 2))    # duplicate

    def test_rss_increment_is_noncentral_chisquare(self):
        # (RSS_K - RSS_full) / sigma^2 for fixed K follows a noncentral
        # chi-square with |K| degrees of freedom and noncentrality
        # beta_K' (C_KK)^{-1} beta_K / sigma^2
        d = orthonormal_design(beta=(1.0, 0.5, 1.2), sigma=1.0)
        K = (2,)
        C = np.linalg.inv(d.X.T @ d.X)
        lam = float(d.beta[list(K)]
                    @ np.linalg.solve(C[np.ix_(K, K)], d.beta[list(K)]))
        rng = np.random.default_rng(25)
        n_rep = 10_000
        vals = np.empty(n_rep)
        mean = d.X @ d.beta
        for r in range(n_rep):
            y = mean + rng.standard_normal(d.n)
            vals[r] = rss_subset(d, y, K).rss - rss_subset(d, y, ()).rss
        ks = stats.kstest(vals, stats.ncx2(df=len(K), nc=lam).cdf)
        assert ks.statistic <= 0.02


class TestNaiveInterval:
    def test_full_model_matches_textbook(self):
        d = toy_design()
        rng = np.random.default_rng(31)
        y = d.X @ d.beta + d.sigma * rng.standard_normal(d.n)
        lo, hi = naive_interval(d, y, (), 0.05)
        beta_hat, _, _, _ = np.linalg.lstsq(d.X, y, rcond=None)
        resid = y - d.X @ beta_hat
        s2 = float(resid @ resid) / (d.n - d.p)
        C = np.linalg.inv(d.X.T @ d.X)
        half = t_quantile(d.n - d.p, 0.05) * math.sqrt(s2 * float(d.a @ C @ d.a))
        center = float(d.a @ beta_hat)
        assert lo == pytest.approx(center - half, rel=1e-12)
        assert hi == pytest.approx(center + half, rel=1e-12)

    def test_translation_equivariance(self):
        # adding X delta with delta zero on K shifts the interval by
        # a' delta and leaves its width unchanged
        d = toy_design(p=4, a=(1.0, 0, 0, 1.0), beta=(1, 1, 1, 1))
        rng = np.random.default_rng(32)
        y = d.X @ d.beta + rng.standard_normal(d.n)
        K = (2,)
        delta = np.array([0.5, -1.0, 0.0, 2.0])
        lo1, hi1 = naive_interval(d, y, K, 0.05)
        lo2, hi2 = naive_interval(d, y + d.X @ delta, K, 0.05)
        shift = float(d.a @ delta)
        assert lo2 - lo1 == pytest.approx(shift, abs=1e-9)
        assert hi2 - hi1 == pytest.approx(shift, abs=1e-9)


class TestSelectModel:
    def test_keeps_full_model_for_huge_coefficients(self):
        d = toy_design(beta=(5.0, 5e3, 8e3), sigma=1.0)
        rng = np.random.default_rng(41)
        mean = d.X @ d.beta
        for _ in range(300):
            y = mean + rng.standard_normal(d.n)
            assert select_model(d, y, CP) == ()

    def test_single_candidate(self):
        d = toy_design()
        y = np.arange(d.n, dtype=float)
        assert select_model(d, y, CP, candidates=[()]) == ()

    def test_deterministic(self):
        d = toy_design(beta=(1.0, 0.1, 0.2), sigma=1.0)
        rng = np.random.default_rng(42)
        y = d.X @ d.beta + rng.standard_normal(d.n)
        assert select_model(d, y, CP) == select_model(d, y, CP)

    def test_candidate_validation(self):
        d = toy_design()
        y = np.zeros(d.n)
        with pytest.raises(ValueError, match="duplicate"):
            select_model(d, y, CP, candidates=[(), (1,), (1,)])
        with pytest.raises(ValueError, match="free columns"):
            select_model(d, y, CP, candidates=[(0,)])
        with pytest.raises(ValueError, match="at least one"):
            select_model(d, y, CP, candidates=[])

    def test_ttest_matches_manual_statistics(self):
        d = toy_design(p=4, a=(1.0, 0, 0, 1.0), beta=(1.0, 0.3, 0.0, 0.5),
                       sigma=1.0)
        method = SelectionMethod("ttest", 0.05)
        tcrit = t_quantile(d.n - d.p, 0.05)
        C = np.linalg.inv(d.X.T @ d.X)
        rng = np.random.default_rng(43)
        mean = d.X @ d.beta
        for _ in range(50):
            y = mean + rng.standard_normal(d.n)
            beta_hat, _, _, _ = np.linalg.lstsq(d.X, y, rcond=None)
            resid = y - d.X @ beta_hat
            s = math.sqrt(float(resid @ resid) / (d.n - d.p))
            K_manual = tuple(j for j in range(d.q, d.p)
                             if abs(beta_hat[j]) / (s * math.sqrt(C[j, j]))
                             < tcrit)
            assert select_model(d, y, method) == K_manual

    def test_ttest_outside_candidates_rejected(self):
        # both tested coefficients are truly zero, so the accepted pattern
        # is {1, 3} with high probability, which is not a candidate here
        d = toy_design(p=4, a=(1.0, 0, 0, 1.0), beta=(1.0, 0.0, 5.0, 0.0),
                       sigma=1.0)
        method = SelectionMethod("ttest", 0.05)
        rng = np.random.default_rng(44)
        y = d.X @ d.beta + 0.01 * rng.standard_normal(d.n)
        with pytest.raises(ValueError, match="candidate"):
            select_model(d, y, method, candidates=[(1,), (3,)])


class TestEmpiricalMinCoverage:
    def test_zero_reps_gives_empty_table(self):
        d = orthonormal_design()
        assert empirical_min_coverage(d, CP, 0.05, [d.beta], 0, seed=1) == []

    def test_negative_reps_rejected(self):
        d = orthonormal_design()
        with pytest.raises(ValueError):
            empirical_min_coverage(d, CP, 0.05, [d.beta], -1, seed=1)

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_rejects_nonpositive_chunk_size(self, chunk_size):
        d = orthonormal_design()
        with pytest.raises(ValueError, match="chunk_size"):
            empirical_min_coverage(d, CP, 0.05, [d.beta], 100, seed=1,
                                   chunk_size=chunk_size)

    def test_beta_length_checked(self):
        d = orthonormal_design()
        with pytest.raises(ValueError, match="length p"):
            empirical_min_coverage(d, CP, 0.05, [(1.0, 2.0)], 100, seed=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_beta_rejected(self, bad):
        # a NaN or infinite mean would score every interval as a miss
        d = orthonormal_design()
        with pytest.raises(ValueError, match="finite"):
            empirical_min_coverage(d, CP, 0.05, [d.beta, (1.0, 1.0, bad)],
                                   100, seed=1)

    def test_deterministic(self):
        d = orthonormal_design()
        a = empirical_min_coverage(d, CP, 0.05, [d.beta], 5000, seed=9)
        b = empirical_min_coverage(d, CP, 0.05, [d.beta], 5000, seed=9)
        assert a == b

    def test_exact_scale_equivariance(self):
        # doubling beta and sigma rescales y by a power of two, which is
        # exact in floating point, so Cp selection and coverage indicators
        # reproduce bit for bit under the same seed
        d1 = orthonormal_design(beta=(1.0, 1.0, 2.0), sigma=2.0)
        d2 = orthonormal_design(beta=(2.0, 2.0, 4.0), sigma=4.0)
        r1 = empirical_min_coverage(d1, CP, 0.05, [d1.beta], 20_000, seed=10)
        r2 = empirical_min_coverage(d2, CP, 0.05, [d2.beta], 20_000, seed=10)
        assert r1[0].coverage_full == r2[0].coverage_full
        assert r1[0].coverage_pair == r2[0].coverage_pair

    def test_pair_family_matches_quadrature(self):
        # the orthonormal design realizes rho = 0.8 and gamma = beta_2 /
        # sigma exactly, so the pair-family simulation targets the same
        # number as the quadrature engine
        d = orthonormal_design(beta=(1.0, 1.0, 2.0), sigma=2.0)
        pr = BoundProblem.from_m(0.05, d.p, d.n - d.p, 0.8)
        want = coverage_probability(pr, CP, 1.0).value
        res = empirical_min_coverage(d, CP, 0.05, [d.beta], 40_000, seed=12)[0]
        assert abs(res.coverage_pair - want) <= 3.0 * res.std_err_pair

    @pytest.mark.parametrize("kind", ["aic", "bic", "cp", "adjr2", "ttest"])
    def test_counts_equal_per_replicate_reference(self, kind):
        # regenerate the draws of empirical_min_coverage (one seed subtree
        # per grid point, one Philox stream per chunk, the last chunk
        # partial) and recount coverage one replicate at a time: selection
        # by direct refits, checked against select_model, and the refit
        # interval of naive_interval, for both families
        method = SelectionMethod(kind, 0.2) if kind == "ttest" else SelectionMethod(kind)
        rng = np.random.default_rng(51)
        d = SimDesign(X=rng.standard_normal((14, 5)),
                      a=np.array([0.0, 1.0, 0.5, -0.4, 0.7]), q=2,
                      beta=np.array([1.0, -0.5, 0.3, 0.15, -0.25]), sigma=1.0)
        grid = [d.beta, d.beta * np.array([1, 1, 0, 1, 2])]
        families = {"full": None, "pair": [(), (d.p - 1,)]}
        reps, chunk, alpha, seed = 300, 128, 0.1, 17
        res = empirical_min_coverage(d, method, alpha, grid, reps, seed,
                                     chunk_size=chunk)
        root = np.random.SeedSequence(seed)
        for bi, beta in enumerate(grid):
            point_seq = np.random.SeedSequence(entropy=root.entropy, spawn_key=(bi,))
            counts = {"full": 0, "pair": 0}
            for ci, cseq in enumerate(point_seq.spawn(3)):
                size = min(chunk, reps - ci * chunk)
                draw = np.random.Generator(np.random.Philox(cseq))
                Y = (d.X @ beta)[:, None] + d.sigma * draw.standard_normal((d.n, size))
                for y in Y.T:
                    for fam, cands in families.items():
                        K = reference_select(d, y, method, cands)
                        assert select_model(d, y, method, candidates=cands) == K
                        lo, hi = naive_interval(d, y, K, alpha)
                        counts[fam] += lo <= float(d.a @ beta) <= hi
            assert res[bi].coverage_full == counts["full"] / reps
            assert res[bi].coverage_pair == counts["pair"] / reps

    def test_result_schema(self):
        d = orthonormal_design()
        res = empirical_min_coverage(d, CP, 0.05, [d.beta, 2 * d.beta],
                                     2000, seed=13)
        assert len(res) == 2
        for r in res:
            assert isinstance(r, EmpiricalCoverage)
            assert r.reps == 2000
            assert 0.0 <= r.coverage_full <= 1.0
            assert 0.0 <= r.coverage_pair <= 1.0
            assert r.std_err_full > 0.0
        assert res[1].beta == tuple(2 * d.beta)
