"""Monte Carlo checks: canonical-form draws and a brute-force regression
simulator.

``mc_coverage`` estimates the coverage probability from the canonical
triple (g, h, w) directly -- the same reduction the quadrature engine
integrates, sampled instead of integrated -- so quadrature and simulation
form two independent routes to one number.

The rest of the module simulates the full regression pipeline with no
shortcuts: draw y, enumerate candidate subsets, apply the selection rule,
refit, and check whether the naive t interval of the selected model covers
the target.  Subsets K list the 0-based column indices whose coefficients
are set to zero; the first q columns are protected and never deleted.

Randomness: streams are derived via SeedSequence(seed).spawn(...), one
child per fixed-size chunk, each driving a counter-based Philox generator.
Results therefore depend only on (seed, chunk layout), not on how chunks
are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .rules import BoundProblem, SelectionMethod, selection_threshold
from .special import t_quantile

__all__ = [
    "CanonicalSample",
    "MCEstimate",
    "SimDesign",
    "SubsetState",
    "EmpiricalCoverage",
    "draw_canonical",
    "mc_coverage",
    "all_deletion_subsets",
    "rss_subset",
    "select_model",
    "naive_interval",
    "empirical_min_coverage",
]

_MAX_FREE = 12  # enumeration cap on p - q (2^(p-q) candidate subsets)
_DEFAULT_CHUNK = 1 << 18


class CanonicalSample(NamedTuple):
    """Standardized draws: target error g, coefficient estimate h, scale w."""

    g: np.ndarray
    h: np.ndarray
    w: np.ndarray


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


def draw_canonical(gamma: float, rho: float, m: int, n_draws: int,
                   rng: np.random.Generator) -> CanonicalSample:
    """Sample (g, h, w): g, h unit-variance normals with correlation rho,
    means 0 and gamma, independent of w = sqrt(chi2_m / m)."""
    z1, z2, w = _standard_draws(m, n_draws, rng)
    return CanonicalSample(z1, _coefficient(gamma, rho, z1, z2), w)


def _cutoff_value(problem: BoundProblem, cutoff: SelectionMethod | float) -> float:
    if isinstance(cutoff, SelectionMethod):
        return selection_threshold(cutoff, problem.n, problem.p)
    d = float(cutoff)
    if not d >= 0.0:
        raise ValueError("cutoff d must be nonnegative")
    return d


def mc_coverage(problem: BoundProblem | Sequence[BoundProblem],
                cutoff: SelectionMethod | float | Sequence[SelectionMethod | float],
                gamma: float | Sequence[float], n_draws: int, seed: int,
                chunk_size: int = _DEFAULT_CHUNK) -> MCEstimate | list[MCEstimate]:
    """Monte Carlo coverage estimate from the canonical construction.

    ``cutoff`` is a selection method (its threshold is derived from the
    problem dimensions) or a raw cutoff d >= 0.  |rho| = 1 is allowed.

    Batched form: equal-length sequences of problems, cutoffs and gammas
    give one cell each and return a list of estimates in input order.  All
    problems must share alpha and m.  One (seed, m) stream of n_draws
    (z1, z2, chi2_m) draws serves every cell (common random numbers):
    per chunk, w and the full-model hit are computed once, h and the
    submodel hit once per (rho, gamma), and only the choice between the
    two hits runs per cutoff.  A cell's estimate depends only on (seed,
    chunk_size), not on which cells share the call, so the scalar call
    (the one-cell case) returns exactly the same estimate.
    """
    scalar = isinstance(problem, BoundProblem)
    if scalar:
        problems, cutoffs, gammas = [problem], [cutoff], [gamma]
    else:
        problems, cutoffs, gammas = list(problem), list(cutoff), list(gamma)
        if not len(problems) == len(cutoffs) == len(gammas):
            raise ValueError("problem, cutoff and gamma sequences must have "
                             "equal lengths")
    ds = [_cutoff_value(p, c) for p, c in zip(problems, cutoffs)]
    if n_draws < 1:
        raise ValueError("n_draws must be positive")
    if not problems:
        return []
    m, alpha = problems[0].m, problems[0].alpha
    if any(p.m != m or p.alpha != alpha for p in problems):
        raise ValueError("batched problems must share alpha and m")
    t1 = t_quantile(m, alpha)
    t2 = t_quantile(m + 1, alpha)
    # cells sharing (rho, gamma) share h and the submodel hit
    groups: dict[tuple[float, float], list[int]] = {}
    for k, (p, g) in enumerate(zip(problems, gammas)):
        groups.setdefault((p.rho, g), []).append(k)

    covered = [0] * len(problems)
    n_chunks = (n_draws + chunk_size - 1) // chunk_size
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    for i, child in enumerate(children):
        size = min(chunk_size, n_draws - i * chunk_size)
        rng = np.random.Generator(np.random.Philox(child))
        z1, z2, w = _standard_draws(m, size, rng)
        mww = m * w * w
        full = np.abs(z1) <= t1 * w
        for (rho, g), cells in groups.items():
            h = _coefficient(g, rho, z1, z2)
            half = t2 * np.sqrt((mww + h * h) / (m + 1.0)) * math.sqrt(1.0 - rho * rho)
            sub = np.abs(z1 - rho * h) <= half
            ratio = np.abs(h) / w
            for k in cells:
                covered[k] += int(np.where(ratio < ds[k], sub, full).sum())
            del h, half, sub, ratio  # hold one (rho, gamma)'s arrays at a time
    out = []
    for c in covered:
        est = c / n_draws
        out.append(MCEstimate(est, math.sqrt(est * (1.0 - est) / n_draws)))
    return out[0] if scalar else out


# ----------------------------------------------------------------------
# regression designs and subset refits
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

    @property
    def theta(self) -> float:
        return float(self.a @ self.beta)


class SubsetState(NamedTuple):
    """Refit of the submodel that zeroes the columns in ``subset``."""

    subset: tuple[int, ...]
    rss: float
    beta_hat: np.ndarray
    s2: float
    var_scale: float      # Var(a' beta_hat_K) / sigma^2
    identity_gap: float   # relative gap between refit RSS and the
                          # full-fit quadratic-form identity for it


def all_deletion_subsets(q: int, p: int) -> list[tuple[int, ...]]:
    """All K within the free columns {q..p-1}, ordered by (|K|, lex)."""
    free = range(q, p)
    out: list[tuple[int, ...]] = []
    for size in range(0, p - q + 1):
        out.extend(combinations(free, size))
    return out


def rss_subset(design: SimDesign, y: np.ndarray, K: Sequence[int]) -> SubsetState:
    """Refit with the coefficients in K constrained to zero.

    The residual sum of squares is computed twice: by direct refit on the
    reduced design, and through the full-fit identity
    RSS_K = RSS + b_K' (C_KK)^{-1} b_K with b = beta_hat and C = (X'X)^{-1};
    the relative gap between the two is recorded.
    """
    K = tuple(sorted(int(j) for j in K))
    X, a = design.X, design.a
    n, p = X.shape
    if any(j < design.q or j >= p for j in K) or len(set(K)) != len(K):
        raise ValueError("K must be distinct free-column indices")
    keep = [j for j in range(p) if j not in K]

    beta_full, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    rss_full = float(np.sum((y - X @ beta_full) ** 2))

    Z = X[:, keep]
    coef, _, _, _ = np.linalg.lstsq(Z, y, rcond=None)
    beta_hat = np.zeros(p)
    beta_hat[keep] = coef
    rss = float(np.sum((y - Z @ coef) ** 2))

    if K:
        C = np.linalg.inv(X.T @ X)
        G = np.linalg.inv(C[np.ix_(K, K)])
        bk = beta_full[list(K)]
        rss_ident = rss_full + float(bk @ G @ bk)
    else:
        rss_ident = rss_full
    gap = abs(rss - rss_ident) / max(rss, 1e-300)

    df = (n - p) + len(K)
    s2 = rss / df
    ak = a[keep]
    var_scale = float(ak @ np.linalg.solve(Z.T @ Z, ak))
    return SubsetState(K, rss, beta_hat, s2, var_scale, gap)


def naive_interval(design: SimDesign, y: np.ndarray, K: Sequence[int],
                   alpha: float) -> tuple[float, float]:
    """Standard t interval for a'beta computed in the submodel K,
    as if K had been fixed in advance."""
    state = rss_subset(design, y, K)
    df = (design.n - design.p) + len(state.subset)
    center = float(design.a @ state.beta_hat)
    half = t_quantile(df, alpha) * math.sqrt(state.s2 * state.var_scale)
    return center - half, center + half


# ----------------------------------------------------------------------
# selection rules on data
# ----------------------------------------------------------------------

def _criterion_constants(design: SimDesign, K: tuple[int, ...]):
    # per-subset constants reused across replications
    X, a = design.X, design.a
    n, p = X.shape
    keep = [j for j in range(p) if j not in K]
    Z = X[:, keep]
    ak = a[keep]
    v = float(ak @ np.linalg.solve(Z.T @ Z, ak))
    if K:
        C = np.linalg.inv(X.T @ X)
        G = np.linalg.inv(C[np.ix_(K, K)])
        proj = C[:, list(K)] @ G          # p x |K|
        a_corr = a @ proj                 # weights on beta_hat[K]
    else:
        G = np.zeros((0, 0))
        a_corr = np.zeros(0)
    return {"K": K, "keep": keep, "G": G, "a_corr": a_corr, "v": v,
            "df": (n - p) + len(K)}


def _criterion_rows(consts, design: SimDesign, method: SelectionMethod,
                    beta_hat: np.ndarray, rss_full: np.ndarray) -> np.ndarray:
    # stack of criterion values, one row per candidate, columns = reps
    n, p = design.n, design.p
    m = n - p
    rows = []
    for c in consts:
        K = c["K"]
        if K:
            bk = beta_hat[list(K), :]
            quad = np.einsum("kr,kl,lr->r", bk, c["G"], bk)
        else:
            quad = 0.0
        rss_k = rss_full + quad
        size = len(K)
        if method.kind in ("aic", "bic"):
            fn = 1.0 if method.kind == "aic" else 0.5 * math.log(n)
            rows.append(n * np.log(rss_k) + 2.0 * (p - size) * fn)
        elif method.kind == "cp":
            rows.append(rss_k / (rss_full / m) - n + 2.0 * (p - size))
        elif method.kind == "adjr2":
            rows.append(rss_k / (m + size))
        else:
            raise AssertionError("t-test selection is pattern-based")
    return np.asarray(rows)


def select_model(design: SimDesign, y: np.ndarray, method: SelectionMethod,
                 candidates: Sequence[Sequence[int]] | None = None) -> tuple[int, ...]:
    """Selected deletion set K for one response vector.

    Candidates default to every subset of the free columns.  Criterion
    ties resolve toward the larger model (smaller |K|), then
    lexicographically.  For t-test selection K collects exactly the free
    coefficients whose full-model |t| statistic stays below the critical
    value; the result must be one of the candidates.
    """
    sel = _select_bulk(design, method,
                       np.asarray(y, dtype=float).reshape(-1, 1), candidates)
    return sel[0]


def _normalize_candidates(design: SimDesign,
                          candidates: Sequence[Sequence[int]] | None):
    if candidates is None:
        cands = all_deletion_subsets(design.q, design.p)
    else:
        cands = [tuple(sorted(int(j) for j in K)) for K in candidates]
        seen = set()
        for K in cands:
            if K in seen:
                raise ValueError("duplicate candidate subset")
            seen.add(K)
            if any(j < design.q or j >= design.p for j in K):
                raise ValueError("candidate subsets must use free columns only")
        cands.sort(key=lambda K: (len(K), K))
    if not cands:
        raise ValueError("need at least one candidate subset")
    return cands


def _select_bulk(design: SimDesign, method: SelectionMethod,
                 Y: np.ndarray, candidates=None) -> list[tuple[int, ...]]:
    cands = _normalize_candidates(design, candidates)
    X = design.X
    n, p = X.shape
    m = n - p
    XtX_inv = np.linalg.inv(X.T @ X)
    A = XtX_inv @ X.T
    beta_hat = A @ Y
    rss_full = np.sum((Y - X @ beta_hat) ** 2, axis=0)
    if method.kind == "ttest":
        testable = sorted(set().union(*map(set, cands))) if any(cands) else []
        tcrit = t_quantile(m, method.test_size)
        s = np.sqrt(rss_full / m)
        idx = {K: i for i, K in enumerate(cands)}
        accept = {}
        for j in testable:
            tj = beta_hat[j, :] / (s * math.sqrt(XtX_inv[j, j]))
            accept[j] = np.abs(tj) < tcrit
        chosen = []
        for r in range(Y.shape[1]):
            K = tuple(j for j in testable if accept[j][r])
            if K not in idx:
                raise ValueError("t-test selection landed outside the "
                                 "candidate family")
            chosen.append(K)
        return chosen
    consts = [_criterion_constants(design, K) for K in cands]
    crit = _criterion_rows(consts, design, method, beta_hat, rss_full)
    picks = np.argmin(crit, axis=0)  # first minimum = (|K|, lex) order
    return [cands[i] for i in picks]


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


def _coverage_once(design: SimDesign, method: SelectionMethod, alpha: float,
                   cands, consts, Y: np.ndarray, theta: float) -> int:
    X = design.X
    n, p = X.shape
    m = n - p
    XtX_inv = np.linalg.inv(X.T @ X)
    A = XtX_inv @ X.T
    beta_hat = A @ Y
    rss_full = np.sum((Y - X @ beta_hat) ** 2, axis=0)
    R = Y.shape[1]

    if method.kind == "ttest":
        chosen = _select_bulk(design, method, Y, cands)
        idx = {K: i for i, K in enumerate(cands)}
        pick = np.array([idx[K] for K in chosen])
    else:
        crit = _criterion_rows(consts, design, method, beta_hat, rss_full)
        pick = np.argmin(crit, axis=0)

    theta_rows = np.empty((len(cands), R))
    rss_rows = np.empty((len(cands), R))
    a = design.a
    for i, c in enumerate(consts):
        K = c["K"]
        if K:
            bk = beta_hat[list(K), :]
            theta_rows[i] = a @ beta_hat - c["a_corr"] @ bk
            rss_rows[i] = rss_full + np.einsum("kr,kl,lr->r", bk, c["G"], bk)
        else:
            theta_rows[i] = a @ beta_hat
            rss_rows[i] = rss_full
    cols = np.arange(R)
    th = theta_rows[pick, cols]
    rs = rss_rows[pick, cols]
    dfs = np.array([c["df"] for c in consts])[pick]
    vs = np.array([c["v"] for c in consts])[pick]
    tq = np.array([t_quantile(d, alpha) for d in np.unique(dfs)])
    tmap = dict(zip(np.unique(dfs), tq))
    tcrit = np.array([tmap[d] for d in dfs])
    half = tcrit * np.sqrt(rs / dfs * vs)
    return int(np.sum(np.abs(th - theta) <= half))


def empirical_min_coverage(design: SimDesign, method: SelectionMethod,
                           alpha: float, beta_grid: Sequence[Sequence[float]],
                           reps: int, seed: int,
                           chunk_size: int = 1 << 16) -> list[EmpiricalCoverage]:
    """Empirical naive-interval coverage at each beta on the grid, under
    both the full deletion family and the pair family {} / {p-1}."""
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    if reps == 0:
        return []
    full = all_deletion_subsets(design.q, design.p)
    pair = [(), (design.p - 1,)]
    consts_full = [_criterion_constants(design, K) for K in full]
    consts_pair = [_criterion_constants(design, K) for K in pair]
    root = np.random.SeedSequence(seed)
    out = []
    for bi, beta in enumerate(beta_grid):
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (design.p,):
            raise ValueError("each beta must have length p")
        d = SimDesign(design.X, design.a, design.q, beta, design.sigma)
        theta = d.theta
        mean = d.X @ beta
        # one subtree per grid point, split further into chunks
        point_seq = np.random.SeedSequence(entropy=root.entropy,
                                           spawn_key=(bi,))
        n_chunks = (reps + chunk_size - 1) // chunk_size
        cov_f = cov_p = 0
        for ci, cseq in enumerate(point_seq.spawn(n_chunks)):
            size = min(chunk_size, reps - ci * chunk_size)
            rng = np.random.Generator(np.random.Philox(cseq))
            Y = mean[:, None] + d.sigma * rng.standard_normal((d.n, size))
            cov_f += _coverage_once(d, method, alpha, full, consts_full, Y, theta)
            cov_p += _coverage_once(d, method, alpha, pair, consts_pair, Y, theta)
        pf, pp = cov_f / reps, cov_p / reps
        out.append(EmpiricalCoverage(
            beta=tuple(float(b) for b in beta), reps=reps,
            coverage_full=pf, std_err_full=math.sqrt(pf * (1 - pf) / reps),
            coverage_pair=pp, std_err_pair=math.sqrt(pp * (1 - pp) / reps)))
    return out
