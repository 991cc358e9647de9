"""Exact coverage probability of the naive interval after model selection.

Setting: Gaussian linear regression with p regressors and m = n - p error
degrees of freedom.  A data-driven rule decides between the full model and
the submodel that drops the last coefficient; the reported interval is the
standard t interval of the selected model, at nominal level 1 - alpha,
treating the selection as if it had been fixed in advance.

Everything is reduced to four standardized quantities: the estimation
error g of the target (unit variance), the scaled last-coefficient
estimate h (mean gamma, unit variance, correlation rho with g), and the
scaled residual standard deviation w with density
``residual_scale_density``.  The selection rule keeps the submodel iff
|h|/w < d with d from ``selection_threshold``.  Conditioning on (h, w),
the coverage indicator averages to a normal interval probability:

  cover_given_full(h, w)      -- full-model interval, endpoints -t_m w, t_m w
  cover_given_submodel(h, w)  -- submodel interval, endpoints
                                 rho h -+ t_{m+1} sqrt((m w^2 + h^2)/(m+1)) sqrt(1-rho^2)

and the unconditional coverage equals

  (1 - alpha) + int_0^inf int_{-d}^{d} [k(wx) - k_full(wx)] phi(wx - gamma)
                                        w f_W(w) dx dw,

a correction to the nominal level carried entirely by the event
|h|/w < d.  The double integral is evaluated by adaptive Gauss-Kronrod
panels on [w_lo, w_hi] x [-d, d], where [w_lo, w_hi] holds all but 1e-12
of the mass of w.  Every node has |h| <= d w_hi, so past gamma = d w_hi
the computed correction is pinned below a Gaussian tail in gamma - d w_hi;
``coverage_bound`` uses that to stop its gamma scan early.

At |rho| = 1 this representation degenerates; ``perfect_corr_bound``
computes the minimum coverage there in closed integral form: it is
2 int (Phi(t_m w) - Phi(d w)) f_W(w) dw when d < t_m and exactly 0 when
d >= t_m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .optimize import (BoundResult, SearchConfig, additive_tail_slack,
                       minimize_over_gamma)
from .quadrature import adaptive_quad, adaptive_quad_2d
from .rules import BoundProblem, SelectionMethod, selection_threshold
from .special import (DEFAULT_TOL, Tolerance, gauss_interval_prob, norm_cdf,
                      norm_pdf, residual_scale_density,
                      residual_scale_interval, t_quantile)

__all__ = [
    "CoverageResult",
    "full_interval_endpoints",
    "submodel_interval_endpoints",
    "cover_given_full",
    "cover_given_submodel",
    "coverage_probability",
    "coverage_tail_slack",
    "coverage_bound",
    "perfect_corr_bound",
]

_W_MASS_EPS = 1e-12
_RHO_CLAMP = 1e-6


@dataclass(frozen=True)
class CoverageResult:
    """Coverage value with the quadrature error estimate and panel count."""

    value: float
    quad_err: float
    panels: int


def full_interval_endpoints(w, m: int, alpha: float):
    """Endpoints (-t_m w, t_m w) of the standardized full-model interval."""
    t1 = t_quantile(m, alpha)
    w = np.asarray(w, dtype=float)
    lo, hi = -t1 * w, t1 * w
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def _submodel_half_width(t2: float, mww, h, m: int, sd: float):
    """Submodel half-width t_{m+1} sqrt((m w^2 + h^2)/(m+1)) sqrt(1 - rho^2),
    from t2 = t_{m+1}, mww = m w^2 and sd = sqrt(1 - rho^2)."""
    return t2 * np.sqrt((mww + h * h) / (m + 1.0)) * sd


def submodel_interval_endpoints(h, w, rho: float, m: int, alpha: float):
    """Endpoints of the standardized submodel interval given (h, w).

    Centered at rho h with halfwidth
    t_{m+1} sqrt((m w^2 + h^2)/(m+1)) sqrt(1 - rho^2): the submodel pools
    h^2 into the variance estimate and has one more degree of freedom.
    """
    t2 = t_quantile(m + 1, alpha)
    h = np.asarray(h, dtype=float)
    w = np.asarray(w, dtype=float)
    half = _submodel_half_width(t2, m * w * w, h, m, math.sqrt(1.0 - rho * rho))
    lo, hi = rho * h - half, rho * h + half
    if np.ndim(lo) == 0:
        return float(lo), float(hi)
    return lo, hi


def cover_given_full(h, w, gamma: float, rho: float, m: int, alpha: float):
    """P(full-model interval covers | h): normal with mean rho(h - gamma),
    variance 1 - rho^2, over the full-model endpoints."""
    lo, hi = full_interval_endpoints(w, m, alpha)
    h = np.asarray(h, dtype=float)
    return gauss_interval_prob(lo, hi, rho * (h - gamma), 1.0 - rho * rho)


def cover_given_submodel(h, w, gamma: float, rho: float, m: int, alpha: float):
    """P(submodel interval covers | h, w): same conditional law as
    ``cover_given_full`` over the submodel endpoints."""
    lo, hi = submodel_interval_endpoints(h, w, rho, m, alpha)
    h = np.asarray(h, dtype=float)
    return gauss_interval_prob(lo, hi, rho * (h - gamma), 1.0 - rho * rho)


def _check_rho(rho: float) -> float:
    if abs(rho) == 1.0:
        raise ValueError("|rho| = 1 is degenerate here; use "
                         "perfect_corr_bound for the minimum coverage")
    if abs(rho) > 1.0 - _RHO_CLAMP:
        clamped = math.copysign(1.0 - _RHO_CLAMP, rho)
        warnings.warn(f"rho={rho!r} is within {_RHO_CLAMP} of a perfect "
                      f"correlation; clamped to {clamped!r}", stacklevel=3)
        return clamped
    return rho


def coverage_probability(problem: BoundProblem, method: SelectionMethod,
                         gamma: float, tol: Tolerance | None = None) -> CoverageResult:
    """Coverage probability of the naive post-selection interval.

    Deterministic: identical inputs produce bit-identical results.  The
    reported ``quad_err`` adds the 1e-12 truncation allowance of the w
    integration window to the panel error estimate.
    """
    tol = tol or DEFAULT_TOL
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    rho = _check_rho(problem.rho)
    m = problem.m
    alpha = problem.alpha
    d = selection_threshold(method, problem.n, problem.p)
    t1 = t_quantile(m, alpha)
    t2 = t_quantile(m + 1, alpha)
    w_lo, w_hi = residual_scale_interval(m, _W_MASS_EPS)
    sd = math.sqrt(1.0 - rho * rho)
    var = 1.0 - rho * rho

    def integrand(w, x):
        h = w * x
        mean = rho * (h - gamma)
        k_full = (norm_cdf((t1 * w - mean) / sd)
                  - norm_cdf((-t1 * w - mean) / sd))
        half = _submodel_half_width(t2, m * w * w, h, m, sd)
        ctr = rho * h
        k_sub = (norm_cdf((ctr + half - mean) / sd)
                 - norm_cdf((ctr - half - mean) / sd))
        return (k_sub - k_full) * norm_pdf(h - gamma) * w * residual_scale_density(w, m)

    res = adaptive_quad_2d(integrand, w_lo, w_hi, -d, d,
                           abs_err=0.9 * tol.abs_err, rel_err=0.0)
    value = (1.0 - alpha) + res.value
    return CoverageResult(value=value, quad_err=res.err + _W_MASS_EPS,
                          panels=res.panels)


def coverage_tail_slack(problem: BoundProblem, method: SelectionMethod):
    """Certified ``tail_slack(gamma)`` for the gamma search: a bound on
    |coverage_probability(gamma').value - (1 - alpha)| for every
    gamma' >= gamma, inf up to gamma = d w_hi and exactly 0 once the
    computed value must equal 1 - alpha (see ``additive_tail_slack``).

    Every integrand node has |x| <= d and w <= w_hi, so |h - gamma'| >=
    gamma - d w_hi once gamma > d w_hi; with |k_sub - k_full| <= 1 the
    integrand is at most w_hi max f_W phi(gamma - d w_hi).  The Kronrod
    weights are positive and sum to the domain area 2 d (w_hi - w_lo)
    whatever the refinement, which bounds the panel sum.  The factor 2
    absorbs the few-ulp relative rounding of every factor and of the sum.
    """
    m = problem.m
    d = selection_threshold(method, problem.n, problem.p)
    w_lo, w_hi = residual_scale_interval(m, _W_MASS_EPS)
    # f_W is unimodal with its mode at sqrt((m - 1)/m) (decreasing for m = 1)
    f_max = residual_scale_density(
        min(max(math.sqrt((m - 1.0) / m), w_lo), w_hi), m)
    scale = 2.0 * (2.0 * d * (w_hi - w_lo)) * w_hi * f_max
    edge = d * w_hi

    def correction_bound(gamma: float) -> float:
        return scale * norm_pdf(gamma - edge) if gamma > edge else math.inf
    return additive_tail_slack(1.0 - problem.alpha, correction_bound)


def coverage_bound(problem: BoundProblem, method: SelectionMethod,
                   tol: Tolerance | None = None,
                   search: SearchConfig | None = None) -> BoundResult:
    """Upper bound on the minimum coverage probability: the coverage
    minimized over the standardized coefficient gamma >= 0.

    The large-gamma limit of the coverage is the nominal level, so
    1 - alpha enters the minimization as the tail value; a bound equal to
    1 - alpha reports gamma_star = inf.  The gamma scan stops as soon as
    the certified tail envelope ``coverage_tail_slack`` proves that no
    later grid point can win, so the result equals the full scan's.
    ``quad_err`` on the result is the quadrature error at gamma_star
    (0.0 when the tail value wins).
    """
    if abs(problem.rho) == 1.0:
        raise ValueError("|rho| = 1 is degenerate here; use "
                         "perfect_corr_bound for the minimum coverage")
    results: dict[float, CoverageResult] = {}

    def objective(g: float) -> float:
        results[g] = coverage_probability(problem, method, g, tol)
        return results[g].value

    res = minimize_over_gamma(objective, config=search,
                              tail_value=1.0 - problem.alpha,
                              tail_slack=coverage_tail_slack(problem, method))
    err = 0.0 if math.isinf(res.gamma_star) else results[res.gamma_star].quad_err
    return replace(res, quad_err=err)


def perfect_corr_bound(problem: BoundProblem, method: SelectionMethod,
                       tol: Tolerance | None = None) -> float:
    """Minimum coverage over gamma when |rho| = 1.

    Exactly 0 when the cutoff d reaches the full-model critical value t_m;
    otherwise 2 int (Phi(t_m w) - Phi(d w)) f_W(w) dw, attained in the
    limit of a large true coefficient.
    """
    tol = tol or DEFAULT_TOL
    m = problem.m
    d = selection_threshold(method, problem.n, problem.p)
    t1 = t_quantile(m, problem.alpha)
    if d >= t1:
        return 0.0
    w_lo, w_hi = residual_scale_interval(m, _W_MASS_EPS)

    def integrand(w):
        return 2.0 * (norm_cdf(t1 * w) - norm_cdf(d * w)) * residual_scale_density(w, m)

    res = adaptive_quad(integrand, w_lo, w_hi, abs_err=tol.abs_err)
    return res.value
