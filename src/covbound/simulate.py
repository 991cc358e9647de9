"""Monte Carlo checks: canonical-form coverage and a brute-force regression
simulator.

``mc_coverage`` estimates the coverage probability of each
(problem, cutoff, gamma) cell from the canonical triple (g, h, w)
directly -- the same reduction the quadrature engine integrates, sampled
instead of integrated -- so quadrature and simulation form two
independent routes to one number.

``empirical_min_coverage`` simulates the full regression pipeline: draw
y, enumerate candidate subsets, apply the selection rule, and check
whether the naive t interval of the selected model covers the target.
Subsets K list the 0-based column indices whose coefficients are set to
zero; the first q columns are protected and never deleted.  One engine
fits each chunk of responses once and derives every candidate's
estimate, RSS and selection from that fit; the pair family {(), (p-1,)}
is two rows of the full family, so both families are scored on the same
fit.

Randomness: streams are derived via SeedSequence(seed).spawn(...), one
child per fixed-size chunk, each driving a counter-based Philox generator.
``mc_coverage`` draws one such stream per (alpha, m) among its cells, and
``empirical_min_coverage`` one per point of its beta grid.  Results
therefore depend only on (seed, chunk layout), not on how chunks are
scheduled or which cells share a call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .coverage import _submodel_half_width
from .rules import BoundProblem, SelectionMethod, selection_threshold
from .special import t_quantile

__all__ = [
    "MCEstimate",
    "SimDesign",
    "EmpiricalCoverage",
    "mc_coverage",
    "all_deletion_subsets",
    "empirical_min_coverage",
]

_MAX_FREE = 12  # enumeration cap on p - q (2^(p-q) candidate subsets)
_DEFAULT_CHUNK = 1 << 18


class MCEstimate(NamedTuple):
    estimate: float
    std_err: float


def _standard_draws(m: int, n_draws: int,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # (z1, z2, w) in the one fixed draw order: z1, z2, then chi2_m
    z1 = rng.standard_normal(n_draws)
    z2 = rng.standard_normal(n_draws)
    w = np.sqrt(rng.chisquare(m, n_draws) / m)
    return z1, z2, w


def _coefficient(gamma: float, rho: float, z1: np.ndarray,
                 z2: np.ndarray) -> np.ndarray:
    # h: mean gamma, unit variance, correlation rho with g = z1
    return gamma + rho * z1 + math.sqrt(1.0 - rho * rho) * z2


def _cutoff_value(problem: BoundProblem, cutoff: SelectionMethod | float) -> float:
    if isinstance(cutoff, SelectionMethod):
        return selection_threshold(cutoff, problem.n, problem.p)
    d = float(cutoff)
    if not d >= 0.0:
        raise ValueError("cutoff d must be nonnegative")
    return d


def _chunk_streams(seq: np.random.SeedSequence, total: int, chunk_size: int):
    """(size, generator) per chunk of ``total`` draws: one child of ``seq``
    per chunk of ``chunk_size`` (the last one shorter), each driving a
    Philox generator."""
    n_chunks = (total + chunk_size - 1) // chunk_size
    for i, child in enumerate(seq.spawn(n_chunks)):
        yield (min(chunk_size, total - i * chunk_size),
               np.random.Generator(np.random.Philox(child)))


def _proportion(hits: int, n: int) -> MCEstimate:
    est = hits / n
    return MCEstimate(est, math.sqrt(est * (1.0 - est) / n))


def mc_coverage(cells: Sequence[tuple[BoundProblem, SelectionMethod | float, float]],
                n_draws: int, seed: int,
                chunk_size: int = _DEFAULT_CHUNK) -> list[MCEstimate]:
    """Monte Carlo coverage estimates from the canonical construction, one
    per ``(problem, cutoff, gamma)`` cell, in input order.

    ``cutoff`` is a selection method (its threshold is derived from the
    problem dimensions) or a raw cutoff d >= 0.  |rho| = 1 is allowed.

    Cells of any alpha and m may share a call.  The cells that share
    (alpha, m) share one stream of n_draws (z1, z2, chi2_m) draws from
    ``SeedSequence(seed)`` (common random numbers): per chunk, w, the
    full-model hits and their count are computed once, and h and the
    submodel hits once per (rho, gamma).  A cutoff d changes the count
    only on the discordant draws, where exactly one model covers, so |h|/w
    is computed on those draws alone and a cell's count is the full-model
    count, plus the discordant draws with |h|/w < d that only the submodel
    covers, minus those with |h|/w < d that only the full model covers.  A
    cell's estimate depends only on (seed, chunk_size), not on which cells
    share the call, so a one-cell call returns exactly the same estimate.
    """
    cells = list(cells)
    ds = [_cutoff_value(p, c) for p, c, _ in cells]
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if not all(math.isfinite(g) for _, _, g in cells):
        raise ValueError("gamma must be finite")
    # cells sharing (alpha, m) share a stream; within it, cells sharing
    # (rho, gamma) share h and the submodel hit
    streams: dict[tuple[float, int], dict[tuple[float, float], list[int]]] = {}
    for k, (p, _, g) in enumerate(cells):
        streams.setdefault((p.alpha, p.m), {}).setdefault((p.rho, g), []).append(k)

    covered = [0] * len(cells)
    for (alpha, m), groups in streams.items():
        t1, t2 = t_quantile(m, alpha), t_quantile(m + 1, alpha)
        for size, rng in _chunk_streams(np.random.SeedSequence(seed), n_draws,
                                        chunk_size):
            z1, z2, w = _standard_draws(m, size, rng)
            mww = m * w * w
            full = np.abs(z1) <= t1 * w
            base = int(np.count_nonzero(full))
            for (rho, g), group in groups.items():
                h = _coefficient(g, rho, z1, z2)
                half = _submodel_half_width(t2, mww, h, m, math.sqrt(1.0 - rho * rho))
                sub = np.abs(z1 - rho * h) <= half
                # d moves the count only where exactly one model covers
                idx = np.flatnonzero(sub != full)
                ratio = np.abs(h[idx]) / w[idx]
                only_sub = sub[idx]
                gain, loss = ratio[only_sub], ratio[~only_sub]
                for k in group:
                    covered[k] += (base + int(np.count_nonzero(gain < ds[k]))
                                   - int(np.count_nonzero(loss < ds[k])))
                del h, half, sub, idx, ratio, only_sub, gain, loss  # one group at a time
    return [_proportion(c, n_draws) for c in covered]


# ----------------------------------------------------------------------
# regression designs and candidate subsets
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimDesign:
    """Fixed design X (n x p), target weights a, first q columns protected,
    true coefficients beta, noise standard deviation sigma."""

    X: np.ndarray
    a: np.ndarray
    q: int
    beta: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        a = np.asarray(self.a, dtype=float)
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "beta", beta)
        if not all(np.isfinite(v).all() for v in (X, a, beta, self.sigma)):
            raise ValueError("X, a, beta and sigma must be finite")
        n, p = X.shape
        if not (2 <= p < n):
            raise ValueError("need n > p >= 2")
        if a.shape != (p,) or beta.shape != (p,):
            raise ValueError("a and beta must have length p")
        if not np.any(a):
            raise ValueError("a must be nonzero")
        if not 1 <= self.q < p:
            raise ValueError("q must satisfy 1 <= q < p")
        if p - self.q > _MAX_FREE:
            raise ValueError(f"p - q > {_MAX_FREE}: candidate enumeration "
                             "would be too large")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if np.linalg.matrix_rank(X) < p:
            raise ValueError("design matrix must have full column rank")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def all_deletion_subsets(q: int, p: int) -> list[tuple[int, ...]]:
    """All K within the free columns {q..p-1}, ordered by (|K|, lex)."""
    free = range(q, p)
    out: list[tuple[int, ...]] = []
    for size in range(0, p - q + 1):
        out.extend(combinations(free, size))
    return out


# ----------------------------------------------------------------------
# the fit-and-select engine
# ----------------------------------------------------------------------

class _Fit(NamedTuple):
    """One fit of a chunk of responses (columns = replicates)."""

    beta_hat: np.ndarray   # p x R full-model estimates
    rss_full: np.ndarray   # R
    est: np.ndarray        # candidates x R: a' beta_hat_K
    rss: np.ndarray        # candidates x R: RSS_K


class _Engine:
    """Fit-and-select for one design over a fixed list of candidates K.

    The per-design constants are built once: C = (X'X)^{-1} and, per
    candidate, G = (C_KK)^{-1}, the weights a_corr = a' C_{.K} G, the
    variance scale v = Var(a' beta_hat_K) / sigma^2 and the degrees of
    freedom.  ``fit`` fits a chunk once and derives every candidate from
    that fit: a' beta_hat_K = a' beta_hat - a_corr b_K and
    RSS_K = RSS + b_K' G b_K with b = beta_hat.  ``pick`` selects one
    candidate per replicate, from all candidates or from a subset of them.
    """

    def __init__(self, design: SimDesign, cands: Sequence[tuple[int, ...]]) -> None:
        X, a = design.X, design.a
        n, p = X.shape
        self.design, self.cands = design, list(cands)
        self.C = np.linalg.inv(X.T @ X)
        self.A = self.C @ X.T
        self.sizes = np.array([len(K) for K in self.cands])
        self.df = (n - p) + self.sizes
        self.G, self.a_corr, v = [], [], []
        for K in self.cands:
            keep = [j for j in range(p) if j not in K]
            Z, ak = X[:, keep], a[keep]
            v.append(float(ak @ np.linalg.solve(Z.T @ Z, ak)))
            G = np.linalg.inv(self.C[np.ix_(K, K)])
            self.G.append(G)
            self.a_corr.append(a @ (self.C[:, list(K)] @ G))
        self.v = np.array(v)

    def fit(self, Y: np.ndarray) -> _Fit:
        beta_hat = self.A @ Y
        rss_full = np.sum((Y - self.design.X @ beta_hat) ** 2, axis=0)
        est = np.empty((len(self.cands), Y.shape[1]))
        rss = np.empty_like(est)
        ab = self.design.a @ beta_hat
        for i, K in enumerate(self.cands):
            bk = beta_hat[list(K), :]
            est[i] = ab - self.a_corr[i] @ bk
            rss[i] = rss_full + np.einsum("kr,kl,lr->r", bk, self.G[i], bk)
        return _Fit(beta_hat, rss_full, est, rss)

    def pick(self, method: SelectionMethod, fit: _Fit,
             rows: slice | Sequence[int] = slice(None)) -> np.ndarray:
        """Index of the selected candidate per replicate, choosing among
        the candidates ``rows`` (default all)."""
        idx = np.arange(len(self.cands))[rows]
        n, p = self.design.X.shape
        m = n - p
        if method.kind == "ttest":
            # K collects the tested coefficients whose |t| stays below the
            # critical value; a bitmask over them indexes the candidates
            cands = [self.cands[i] for i in idx]
            testable = sorted(set().union(*cands))
            bit = {j: 1 << b for b, j in enumerate(testable)}
            table = np.full(1 << len(testable), -1)
            for i, K in enumerate(cands):
                table[sum(bit[j] for j in K)] = i
            tcrit = t_quantile(m, method.test_size)
            s = np.sqrt(fit.rss_full / m)
            mask = np.zeros(fit.rss_full.shape, dtype=np.intp)
            for j in testable:
                t = fit.beta_hat[j, :] / (s * math.sqrt(self.C[j, j]))
                mask += (np.abs(t) < tcrit) * bit[j]
            local = table[mask]
            if np.any(local < 0):
                raise ValueError("t-test selection landed outside the "
                                 "candidate family")
            return idx[local]
        rss, size = fit.rss[rows], self.sizes[rows][:, None]
        if method.kind in ("aic", "bic"):
            fn = 1.0 if method.kind == "aic" else 0.5 * math.log(n)
            crit = n * np.log(rss) + 2.0 * (p - size) * fn
        elif method.kind == "cp":
            crit = rss / (fit.rss_full / m) - n + 2.0 * (p - size)
        else:
            crit = rss / (m + size)
        return idx[np.argmin(crit, axis=0)]  # first minimum = (|K|, lex) order


# ----------------------------------------------------------------------
# empirical coverage over a grid of true coefficient vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalCoverage:
    """Coverage of the naive interval under two candidate families:
    ``full`` enumerates every deletion subset, ``pair`` only {} and
    {p-1} (keep-all versus drop-last)."""

    beta: tuple[float, ...]
    reps: int
    coverage_full: float
    std_err_full: float
    coverage_pair: float
    std_err_pair: float


def empirical_min_coverage(design: SimDesign, method: SelectionMethod,
                           alpha: float, beta_grid: Sequence[Sequence[float]],
                           reps: int, seed: int,
                           chunk_size: int = 1 << 16) -> list[EmpiricalCoverage]:
    """Empirical naive-interval coverage at each beta on the grid, under
    both the full deletion family and the pair family {} / {p-1}."""
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if reps == 0:
        return []
    full = all_deletion_subsets(design.q, design.p)
    engine = _Engine(design, full)
    # the pair family {(), (p-1,)} is two rows of the full family
    families = (slice(None), [0, full.index((design.p - 1,))])
    dfs, inverse = np.unique(engine.df, return_inverse=True)
    tcrit = np.array([t_quantile(int(d), alpha) for d in dfs])[inverse]
    root = np.random.SeedSequence(seed)
    out = []
    for bi, beta in enumerate(beta_grid):
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (design.p,):
            raise ValueError("each beta must have length p")
        if not np.isfinite(beta).all():
            raise ValueError("each beta must be finite")
        theta = float(design.a @ beta)
        mean = design.X @ beta
        # one subtree per grid point, split further into chunks
        point_seq = np.random.SeedSequence(entropy=root.entropy,
                                           spawn_key=(bi,))
        covered = [0, 0]
        for size, rng in _chunk_streams(point_seq, reps, chunk_size):
            fit = engine.fit(mean[:, None]
                             + design.sigma * rng.standard_normal((design.n, size)))
            cols = np.arange(size)
            for f, rows in enumerate(families):
                pick = engine.pick(method, fit, rows)
                half = tcrit[pick] * np.sqrt(fit.rss[pick, cols] / engine.df[pick]
                                             * engine.v[pick])
                covered[f] += int(np.sum(np.abs(fit.est[pick, cols] - theta) <= half))
            del fit  # hold one chunk's arrays at a time
        full_est, pair_est = (_proportion(c, reps) for c in covered)
        out.append(EmpiricalCoverage(tuple(float(b) for b in beta), reps,
                                     *full_est, *pair_est))
    return out
