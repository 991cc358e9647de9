"""Per-case reference forms the tests check the package against.

Unlike ``oracles``, these are not independent of the package's numerics:
each writes one (h, w) point, one sample or one replicate out on the
private helper that production runs in bulk (``coverage.
_submodel_half_width``, ``simulate._standard_draws`` and
``_coefficient``, ``simulate._Engine``, ``special._lbeta`` and
``_betacf``, ``special._gamma_pq``).  An assertion against them therefore
exercises the production arithmetic one case at a time.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from covbound.coverage import _submodel_half_width
from covbound.rules import SelectionMethod
from covbound.simulate import (SimDesign, _coefficient, _Engine,
                               _standard_draws, all_deletion_subsets)
from covbound.special import _betacf, _gamma_pq, _lbeta, norm_cdf, t_quantile

# ----------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------

def gauss_interval_prob(lo, hi, mean, var):
    """P(lo <= Z <= hi) for Z ~ N(mean, var), var >= 0.

    var = 0 is the point mass at ``mean``: the result is the indicator of
    lo <= mean <= hi.  Rejects lo > hi and var < 0.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    if np.any(lo > hi):
        raise ValueError("interval endpoints must satisfy lo <= hi")
    if np.any(var < 0.0):
        raise ValueError("variance must be nonnegative")
    scalar = max(lo.ndim, hi.ndim, mean.ndim, var.ndim) == 0
    safe = np.where(var > 0.0, var, 1.0)
    s = np.sqrt(safe)
    smooth = norm_cdf((hi - mean) / s) - norm_cdf((lo - mean) / s)
    point = ((lo <= mean) & (mean <= hi)).astype(float)
    val = np.where(var > 0.0, smooth, point)
    return float(val) if scalar else val


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for scalar 0 <= x <= 1, by
    the continued fraction ``t_two_sided_tail`` uses at (df/2, 1/2)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    bt = math.exp(-_lbeta(a, b) + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    return _gamma_pq(a, x)[0]


# ----------------------------------------------------------------------
# conditional coverage given (h, w)
# ----------------------------------------------------------------------

def full_interval_endpoints(w, m: int, alpha: float):
    """Endpoints (-t_m w, t_m w) of the standardized full-model interval."""
    t1 = t_quantile(m, alpha)
    w = np.asarray(w, dtype=float)
    lo, hi = -t1 * w, t1 * w
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def submodel_interval_endpoints(h, w, rho: float, m: int, alpha: float):
    """Endpoints rho h -+ t_{m+1} sqrt((m w^2 + h^2)/(m+1)) sqrt(1 - rho^2)
    of the standardized submodel interval given (h, w)."""
    t2 = t_quantile(m + 1, alpha)
    h = np.asarray(h, dtype=float)
    w = np.asarray(w, dtype=float)
    half = _submodel_half_width(t2, m * w * w, h, m, math.sqrt(1.0 - rho * rho))
    lo, hi = rho * h - half, rho * h + half
    if np.ndim(lo) == 0:
        return float(lo), float(hi)
    return lo, hi


def cover_given_full(h, w, gamma: float, rho: float, m: int, alpha: float):
    """k_full: P(full-model interval covers | h), g given h being normal
    with mean rho (h - gamma) and variance 1 - rho^2."""
    lo, hi = full_interval_endpoints(w, m, alpha)
    h = np.asarray(h, dtype=float)
    return gauss_interval_prob(lo, hi, rho * (h - gamma), 1.0 - rho * rho)


def cover_given_submodel(h, w, gamma: float, rho: float, m: int, alpha: float):
    """k_sub: the same conditional law over the submodel endpoints."""
    lo, hi = submodel_interval_endpoints(h, w, rho, m, alpha)
    h = np.asarray(h, dtype=float)
    return gauss_interval_prob(lo, hi, rho * (h - gamma), 1.0 - rho * rho)


# ----------------------------------------------------------------------
# canonical draws and one-replicate regression
# ----------------------------------------------------------------------

class CanonicalSample(NamedTuple):
    """Standardized draws: target error g, coefficient estimate h, scale w."""

    g: np.ndarray
    h: np.ndarray
    w: np.ndarray


def draw_canonical(gamma: float, rho: float, m: int, n_draws: int,
                   rng: np.random.Generator) -> CanonicalSample:
    """Sample (g, h, w) in ``mc_coverage``'s draw order: g, h unit-variance
    normals with correlation rho, means 0 and gamma, independent of
    w = sqrt(chi2_m / m)."""
    z1, z2, w = _standard_draws(m, n_draws, rng)
    return CanonicalSample(z1, _coefficient(gamma, rho, z1, z2), w)


class SubsetState(NamedTuple):
    """Refit of the submodel that zeroes the columns in ``subset``."""

    subset: tuple[int, ...]
    rss: float
    beta_hat: np.ndarray
    s2: float
    var_scale: float      # Var(a' beta_hat_K) / sigma^2
    identity_gap: float   # relative gap between refit RSS and the
                          # full-fit quadratic-form identity for it


def rss_subset(design: SimDesign, y: np.ndarray, K: Sequence[int]) -> SubsetState:
    """Refit with the coefficients in K constrained to zero.

    The residual sum of squares is computed twice: by direct refit on the
    reduced design, and by the fit-and-select engine through the full-fit
    identity RSS_K = RSS + b_K' (C_KK)^{-1} b_K with b = beta_hat and
    C = (X'X)^{-1}; the relative gap between the two is recorded (0 for
    K = (), where the identity is trivial).
    """
    K = tuple(sorted(int(j) for j in K))
    X, a = design.X, design.a
    n, p = X.shape
    if any(j < design.q or j >= p for j in K) or len(set(K)) != len(K):
        raise ValueError("K must be distinct free-column indices")
    keep = [j for j in range(p) if j not in K]

    Z = X[:, keep]
    coef, _, _, _ = np.linalg.lstsq(Z, y, rcond=None)
    beta_hat = np.zeros(p)
    beta_hat[keep] = coef
    rss = float(np.sum((y - Z @ coef) ** 2))

    y_col = np.asarray(y, dtype=float).reshape(-1, 1)
    rss_ident = float(_Engine(design, [K]).fit(y_col).rss[0, 0]) if K else rss
    gap = abs(rss - rss_ident) / max(rss, 1e-300)

    s2 = rss / ((n - p) + len(K))
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


def select_model(design: SimDesign, y: np.ndarray, method: SelectionMethod,
                 candidates: Sequence[Sequence[int]] | None = None) -> tuple[int, ...]:
    """Deletion set K that ``_Engine.pick`` selects for one response vector.

    Candidates default to every subset of the free columns.  Criterion
    ties resolve toward the larger model (smaller |K|), then
    lexicographically.  For t-test selection K collects exactly the free
    coefficients whose full-model |t| statistic stays below the critical
    value; the result must be one of the candidates.
    """
    if candidates is None:
        cands = all_deletion_subsets(design.q, design.p)
    else:
        cands = [tuple(sorted(int(j) for j in K)) for K in candidates]
        if len(set(cands)) < len(cands):
            raise ValueError("duplicate candidate subset")
        if any(j < design.q or j >= design.p for K in cands for j in K):
            raise ValueError("candidate subsets must use free columns only")
        if not cands:
            raise ValueError("need at least one candidate subset")
        cands.sort(key=lambda K: (len(K), K))
    engine = _Engine(design, cands)
    fit = engine.fit(np.asarray(y, dtype=float).reshape(-1, 1))
    return cands[engine.pick(method, fit)[0]]
