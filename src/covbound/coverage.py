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

  (1 - alpha) + int_0^inf int_{-d}^{d} [k_sub(wx) - k_full(wx)] phi(wx - gamma)
                                        w f_W(w) dx dw,

a correction to the nominal level carried entirely by the event
|h|/w < d (k_sub, k_full: the two conditional coverages at h = wx).  It
is evaluated in two terms, over [w_lo, w_hi], which holds all but 1e-12
of the mass of w:

  submodel term    int int_{-d}^{d} D(rho gamma / s, q(w, wx)) phi(wx - gamma)
                                    w f_W(w) dx dw,
  full-model term  int f_W(w) P(|G| <= t_m w, |H| <= d w) dw,

and the coverage is (1 - alpha) + submodel term - full-model term.  Here
D(c, q) = Phi(c + q) - Phi(c - q) = k_sub with s = sqrt(1 - rho^2) and
q = t_{m+1} sqrt((m w^2 + h^2)/(m+1)), the submodel half-width in units of
s; (G, H) is bivariate normal with G ~ N(0, 1), H ~ N(gamma, 1) and
correlation rho.  The full-model term is the k_full part integrated over
x in closed form: a bivariate-normal rectangle (``bvn_rectangle``) under a
1-D adaptive Gauss-Kronrod integral in w.  The submodel term is a 2-D
adaptive Gauss-Kronrod integral over [w_lo, w_hi] x [-d, d], two Phi per
node.  Past gamma = d w_hi both terms are pinned below a Gaussian tail in
gamma - d w_hi; ``coverage_bound`` uses that to stop its gamma scan early.

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
from .quadrature import adaptive_quad, adaptive_quad_2d, start_nodes
from .rules import BoundProblem, SelectionMethod, selection_threshold
from .special import (BVN_RECTANGLE_ERR, DEFAULT_TOL, Tolerance,
                      bvn_rectangle, gauss_interval_prob, norm_cdf, norm_pdf,
                      residual_scale_density, residual_scale_interval,
                      t_quantile)

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
# shares of the absolute error budget: the 2-D submodel term, the 1-D
# full-model term; the rest covers the rectangle and w-window allowances
_SUB_SHARE = 0.8
_FULL_SHARE = 0.1
# start meshes of the 2-D (w, x) and 1-D (w) quadratures, in panels
_SUB_MESH, _FULL_MESH = (8, 4), 8
_RHO_CLAMP = 1e-6


@dataclass(frozen=True)
class CoverageResult:
    """Coverage value with its error estimate and the panels of both
    quadratures (2-D submodel term and 1-D full-model term)."""

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
                      f"correlation; clamped to {clamped!r}", stacklevel=4)
        return clamped
    return rho


class _CoveragePlan:
    """``coverage_probability`` for one (problem, method, tol): the scalars
    and, read-only on both start meshes, the gamma-independent integrand
    factors.  Refined panels compute them by the same arithmetic, so each
    ``evaluate`` gives the bits of a fresh evaluation."""

    def __init__(self, problem: BoundProblem, method: SelectionMethod,
                 tol: Tolerance | None = None) -> None:
        self.tol = tol or DEFAULT_TOL
        self.rho = _check_rho(problem.rho)
        self.m, self.alpha = problem.m, problem.alpha
        self.d = selection_threshold(method, problem.n, problem.p)
        self.t1, self.t2 = (t_quantile(df, self.alpha) for df in (self.m, self.m + 1))
        self.w_lo, self.w_hi = residual_scale_interval(self.m, _W_MASS_EPS)
        self.sd = math.sqrt(1.0 - self.rho * self.rho)
        self.sub_start = self._sub_factors(*start_nodes(
            self.w_lo, self.w_hi, -self.d, self.d, initial=_SUB_MESH))
        self.full_start = self._full_factors(*start_nodes(
            self.w_lo, self.w_hi, initial=_FULL_MESH))
        for z in self.sub_start + self.full_start:
            z.flags.writeable = False

    def _sub_factors(self, w, x):
        # h = w x, the submodel half-width q in units of sd, w and f_W(w)
        h = w * x
        q = _submodel_half_width(self.t2, self.m * w * w, h, self.m, 1.0)
        return h, q, w, residual_scale_density(w, self.m)

    def _full_factors(self, w):
        # f_W(w) and the rectangle limits before the shift by gamma
        return (residual_scale_density(w, self.m), -self.t1 * w, self.t1 * w,
                -self.d * w, self.d * w)

    def evaluate(self, gamma: float) -> CoverageResult:
        if not math.isfinite(gamma):
            raise ValueError("gamma must be finite")
        # D(c, q) = Phi(c + q) - Phi(c - q) is even in c; c <= 0 keeps both
        # Phi on the lower tail
        c = -abs(self.rho * gamma) / self.sd

        def sub_values(h, q, w, f_w):
            k_sub = norm_cdf(c + q) - norm_cdf(c - q)
            return k_sub * norm_pdf(h - gamma) * w * f_w

        def full_values(f_w, lo1, hi1, lo2, hi2):
            return f_w * bvn_rectangle(lo1, hi1, lo2 - gamma, hi2 - gamma, self.rho)

        sub = adaptive_quad_2d(
            lambda w, x: sub_values(*self._sub_factors(w, x)), self.w_lo,
            self.w_hi, -self.d, self.d, abs_err=_SUB_SHARE * self.tol.abs_err,
            initial=_SUB_MESH, start_values=sub_values(*self.sub_start))
        full = adaptive_quad(
            lambda w: full_values(*self._full_factors(w)), self.w_lo, self.w_hi,
            abs_err=_FULL_SHARE * self.tol.abs_err, initial=_FULL_MESH,
            start_values=full_values(*self.full_start))
        return CoverageResult(
            value=((1.0 - self.alpha) + sub.value) - full.value,
            quad_err=sub.err + full.err + BVN_RECTANGLE_ERR + _W_MASS_EPS,
            panels=sub.panels + full.panels)


def coverage_probability(problem: BoundProblem, method: SelectionMethod,
                         gamma: float, tol: Tolerance | None = None) -> CoverageResult:
    """Coverage probability of the naive post-selection interval.

    Deterministic: identical inputs produce bit-identical results.  The
    reported ``quad_err`` adds the error estimates of both quadratures,
    the rectangle's own error bound ``BVN_RECTANGLE_ERR`` and the 1e-12
    truncation allowance of the w integration window; ``panels`` counts
    the panels of both.
    """
    return _CoveragePlan(problem, method, tol).evaluate(gamma)


def coverage_tail_slack(problem: BoundProblem, method: SelectionMethod):
    """Certified ``tail_slack(gamma)`` for the gamma search: a bound on
    |coverage_probability(gamma').value - (1 - alpha)| for every
    gamma' >= gamma, inf up to gamma = d w_hi and exactly 0 once the
    computed value must equal 1 - alpha (see ``additive_tail_slack``).

    The value is (1 - alpha) plus the submodel term minus the full-model
    term.  With x = gamma - d w_hi > 0:

    * submodel term: every node has |x'| <= d and w <= w_hi, so
      |h - gamma'| >= x; with |k_sub| <= 1 the integrand is at most
      w_hi max f_W phi(x), and the positive Kronrod weights sum to the
      domain area 2 d (w_hi - w_lo) whatever the refinement;
    * full-model term: ``bvn_rectangle`` never exceeds its computed
      Phi(d w - gamma') - Phi(-d w - gamma') <= Phi(-x) <= phi(x)/x, and
      the 1-D weights sum to w_hi - w_lo.

    The factor 2 absorbs the few-ulp relative rounding of every factor
    and of the sums.
    """
    m = problem.m
    d = selection_threshold(method, problem.n, problem.p)
    w_lo, w_hi = residual_scale_interval(m, _W_MASS_EPS)
    # f_W is unimodal with its mode at sqrt((m - 1)/m) (decreasing for m = 1)
    f_max = residual_scale_density(
        min(max(math.sqrt((m - 1.0) / m), w_lo), w_hi), m)
    sub_scale = 2.0 * d * (w_hi - w_lo) * w_hi * f_max
    full_scale = (w_hi - w_lo) * f_max
    edge = d * w_hi

    def correction_bound(gamma: float) -> float:
        if not gamma > edge:
            return math.inf
        x = gamma - edge
        return 2.0 * (sub_scale + full_scale / x) * norm_pdf(x)
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
    later grid point can win, so the result equals the full scan's.  All
    evaluations share one ``_CoveragePlan``.
    ``quad_err`` on the result is the quadrature error at gamma_star
    (0.0 when the tail value wins).
    """
    plan = _CoveragePlan(problem, method, tol)
    results: dict[float, CoverageResult] = {}

    def objective(g: float) -> float:
        results[g] = plan.evaluate(g)
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
