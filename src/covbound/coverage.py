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
|h|/w < d with d from ``selection_threshold``.  Given (h, w), g is
normal with mean rho (h - gamma) and variance s^2 = 1 - rho^2.  The
full-model interval is [-t_m w, t_m w]; the submodel interval is centered
at rho h with half-width s q, q = t_{m+1} sqrt((m w^2 + h^2)/(m+1)), as
it pools h^2 into the variance estimate and has one more degree of
freedom.  So each model's coverage indicator averages to a normal
interval probability:

  k_full(h, w) = P(|g| <= t_m w | h),
  k_sub(h, w)  = P(|g - rho h| <= s q | h) = D(rho gamma / s, q),

with D(c, q) = Phi(c + q) - Phi(c - q) (``symmetric_interval_prob``),
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
(G, H) is bivariate normal with G ~ N(0, 1), H ~ N(gamma, 1) and
correlation rho.  The full-model term is the k_full part integrated over
x in closed form: a bivariate-normal rectangle (``bvn_rectangle``) under a
1-D adaptive Gauss-Kronrod integral in w.  The submodel term is a 2-D
adaptive Gauss-Kronrod integral over [w_lo, w_hi] x [-d, d], two Phi per
node, except that on the start mesh D runs once per distinct half-width:
q is even in x and that mesh is symmetric about x = 0, so its nodes carry
about half as many distinct q.  On each start cell of the two quadratures
both terms are pinned below a Gaussian tail in gamma minus the largest h
on the cell; ``coverage_bound`` uses that to stop its gamma scan early.

At |rho| = 1 this representation degenerates, and the minimum coverage
is 2 int (Phi(t_m w) - Phi(d w)) f_W(w) dw when d < t_m and exactly 0
when d >= t_m.  ``minimum_coverage`` gives the bound at any (m, rho).  No
rho is altered: every |rho| < 1 is computed as given, however close to 1,
and the bound runs continuously into the |rho| = 1 closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .asymptotic import AsymptoticProblem, asymptotic_bound
from .optimize import (BoundResult, SearchConfig, additive_tail_slack,
                       minimize_over_gamma)
from .quadrature import (adaptive_quad, adaptive_quad_2d, start_mesh,
                         start_nodes)
from .rules import (BoundProblem, SelectionMethod, asymptotic_threshold,
                    selection_threshold)
from .special import (BVN_RECTANGLE_ERR, bvn_rectangle, norm_cdf, norm_pdf,
                      norm_two_sided_quantile, residual_scale_density,
                      residual_scale_interval, symmetric_interval_prob,
                      t_quantile)

__all__ = [
    "CoverageResult",
    "coverage_probability",
    "coverage_bound",
    "minimum_coverage",
]

_W_MASS_EPS = 1e-12
# shares of the absolute error budget: the 2-D submodel term, the 1-D
# full-model term; the rest covers the rectangle and w-window allowances
_SUB_SHARE = 0.8
_FULL_SHARE = 0.1
# start meshes of the 2-D (w, x) and 1-D (w) quadratures, in panels
_SUB_MESH, _FULL_MESH = (8, 4), 8


@dataclass(frozen=True)
class CoverageResult:
    """Coverage value with its error estimate and the panels of both
    quadratures (2-D submodel term and 1-D full-model term)."""

    value: float
    quad_err: float
    panels: int


def _submodel_half_width(t2: float, mww, h, m: int, sd: float):
    """Submodel half-width t_{m+1} sqrt((m w^2 + h^2)/(m+1)) sqrt(1 - rho^2),
    from t2 = t_{m+1}, mww = m w^2 and sd = sqrt(1 - rho^2)."""
    return t2 * np.sqrt((mww + h * h) / (m + 1.0)) * sd


def _check_abs_err(abs_err: float) -> float:
    if not abs_err > 0.0:
        raise ValueError("abs_err must be strictly positive")
    return abs_err


class _CoveragePlan:
    """``coverage_probability`` for one (problem, method, abs_err): the scalars
    and, read-only on both start meshes, the gamma-independent integrand
    factors.  On the 2-D start mesh these include the distinct half-widths
    ``q_distinct`` and the index ``q_index`` that maps them back to the
    nodes, so D(c, q) runs once per distinct q; refined panels compute D
    and the factors node by node, by the same arithmetic, so each
    ``evaluate`` gives the bits of a fresh evaluation."""

    def __init__(self, problem: BoundProblem, method: SelectionMethod,
                 abs_err: float = 1e-8) -> None:
        if abs(problem.rho) == 1.0:
            raise ValueError("|rho| = 1 is degenerate here; use "
                             "minimum_coverage for the minimum coverage")
        self.abs_err = _check_abs_err(abs_err)
        self.rho, self.m, self.alpha = problem.rho, problem.m, problem.alpha
        self.d = selection_threshold(method, problem.n, problem.p)
        self.t1, self.t2 = (t_quantile(df, self.alpha) for df in (self.m, self.m + 1))
        self.w_lo, self.w_hi = residual_scale_interval(self.m, _W_MASS_EPS)
        self.sd = math.sqrt(1.0 - self.rho * self.rho)
        self.sub_start = self._sub_factors(*start_nodes(
            self.w_lo, self.w_hi, -self.d, self.d, initial=_SUB_MESH))
        self.full_start = self._full_factors(*start_nodes(
            self.w_lo, self.w_hi, initial=_FULL_MESH))
        self.q_distinct, self.q_index = np.unique(self.sub_start[1],
                                                  return_inverse=True)
        for z in (*self.sub_start, *self.full_start, self.q_distinct,
                  self.q_index):
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

    def tail_slack(self):
        """Certified ``tail_slack(gamma)`` for the gamma search: a bound on
        |evaluate(gamma').value - (1 - alpha)| for every gamma' >= gamma,
        finite and nonincreasing from gamma = 0 on and exactly 0 once the
        computed value must equal 1 - alpha (see ``additive_tail_slack``).

        The value is (1 - alpha) plus the submodel term minus the
        full-model term, and it is bounded cell by cell over the start
        meshes of the two quadratures (``start_mesh``).  Refinement only
        halves panels, so the positive Kronrod weights of the nodes inside
        one start cell sum to the cell's area however far it refines.  On
        a cell with top corner (w_top, x_top):

        * submodel term: |k_sub| <= 1, w <= w_top, f_W is at most its
          largest value on the cell's w panel, and h = w x <= u =
          w_top max(x_top, 0), so the integrand is at most
          w_top max f_W phi(gamma' - u) when gamma' > u and
          w_top max f_W / sqrt(2 pi) otherwise;
        * full-model term: ``bvn_rectangle`` never exceeds its computed
          Phi(d w - gamma') - Phi(-d w - gamma') <= min(Phi(-x), 1) with
          x = gamma' - d w_top, and Phi(-x) <= phi(x)/x for x > 0.

        Each cell's bound is nonincreasing in gamma', so its value at
        gamma covers every gamma' >= gamma.  The factor 2 absorbs the
        few-ulp relative rounding of every factor and of the sums.
        """
        m, d = self.m, self.d
        # f_W is unimodal with its mode at sqrt((m - 1)/m) (decreasing for m = 1)
        mode = math.sqrt((m - 1.0) / m)

        def cells(*limits, initial):
            # every start cell's top corner, its area times the largest f_W
            # on its w panel
            c, h = start_mesh(*limits, initial=initial)
            top = c + h
            f_max = residual_scale_density(np.clip(mode, c[0] - h[0], top[0]), m)
            return top, np.prod(2.0 * h, axis=0) * f_max

        (w_sub, x_sub), sub_mass = cells(self.w_lo, self.w_hi, -d, d, initial=_SUB_MESH)
        sub_scale, sub_edge = sub_mass * w_sub, w_sub * np.maximum(x_sub, 0.0)
        (w_full,), full_scale = cells(self.w_lo, self.w_hi, initial=_FULL_MESH)
        full_edge = d * w_full

        def correction_bound(gamma: float) -> float:
            sub = norm_pdf(np.maximum(gamma - sub_edge, 0.0))
            # min(phi(x)/x, 1) for x > 0, and 1 for x <= 0
            x = np.maximum(gamma - full_edge, 0.0)
            q = norm_pdf(x)
            full = q / np.maximum(x, q)
            return 2.0 * float(np.sum(sub_scale * sub) + np.sum(full_scale * full))
        return additive_tail_slack(1.0 - self.alpha, correction_bound)

    def evaluate(self, gamma: float) -> CoverageResult:
        if not math.isfinite(gamma):
            raise ValueError("gamma must be finite")
        # D(c, q) is even in c; c <= 0 keeps both Phi on the lower tail
        c = -abs(self.rho * gamma) / self.sd

        def sub_values(d_cq, h, w, f_w):
            # the submodel integrand from D(c, q) at the same nodes
            return d_cq * norm_pdf(h - gamma) * w * f_w

        def sub_refined(w, x):
            h, q, w, f_w = self._sub_factors(w, x)
            return sub_values(symmetric_interval_prob(c, q), h, w, f_w)

        def full_values(f_w, lo1, hi1, lo2, hi2):
            return f_w * bvn_rectangle(lo1, hi1, lo2 - gamma, hi2 - gamma, self.rho)

        h, _, w, f_w = self.sub_start
        d_start = symmetric_interval_prob(c, self.q_distinct)[self.q_index]
        sub = adaptive_quad_2d(
            sub_refined, self.w_lo, self.w_hi, -self.d, self.d,
            abs_err=_SUB_SHARE * self.abs_err, initial=_SUB_MESH,
            start_values=sub_values(d_start, h, w, f_w))
        full = adaptive_quad(
            lambda w: full_values(*self._full_factors(w)), self.w_lo, self.w_hi,
            abs_err=_FULL_SHARE * self.abs_err, initial=_FULL_MESH,
            start_values=full_values(*self.full_start))
        return CoverageResult(
            value=((1.0 - self.alpha) + sub.value) - full.value,
            quad_err=sub.err + full.err + BVN_RECTANGLE_ERR + _W_MASS_EPS,
            panels=sub.panels + full.panels)


def coverage_probability(problem: BoundProblem, method: SelectionMethod,
                         gamma: float, abs_err: float = 1e-8) -> CoverageResult:
    """Coverage probability of the naive post-selection interval.

    Deterministic: identical inputs produce bit-identical results.
    ``abs_err`` is the absolute error budget of the two quadratures.  The
    reported ``quad_err`` adds the error estimates of both quadratures,
    the rectangle's own error bound ``BVN_RECTANGLE_ERR`` and the 1e-12
    truncation allowance of the w integration window; ``panels`` counts
    the panels of both.
    """
    return _CoveragePlan(problem, method, abs_err).evaluate(gamma)


def coverage_bound(problem: BoundProblem, method: SelectionMethod,
                   abs_err: float = 1e-8,
                   search: SearchConfig | None = None) -> BoundResult:
    """Upper bound on the minimum coverage probability: the coverage
    minimized over the standardized coefficient gamma >= 0.

    The large-gamma limit of the coverage is the nominal level, so
    1 - alpha enters the minimization as the tail value; a bound equal to
    1 - alpha reports gamma_star = inf.  The gamma scan stops as soon as
    the certified tail envelope ``_CoveragePlan.tail_slack`` proves that no
    later grid point can win, so the result equals the full scan's.  All
    evaluations share one ``_CoveragePlan``.
    ``quad_err`` on the result is the quadrature error at gamma_star
    (0.0 when the tail value wins).
    """
    plan = _CoveragePlan(problem, method, abs_err)
    results: dict[float, CoverageResult] = {}

    def objective(g: float) -> float:
        results[g] = plan.evaluate(g)
        return results[g].value

    res = minimize_over_gamma(objective, config=search,
                              tail_value=1.0 - problem.alpha,
                              tail_slack=plan.tail_slack())
    err = 0.0 if math.isinf(res.gamma_star) else results[res.gamma_star].quad_err
    return replace(res, quad_err=err)


def _perfect_corr_bound(t: float, d: float, m: int | float,
                        abs_err: float) -> tuple[float, float]:
    """Minimum coverage over gamma at |rho| = 1 and its error, from the
    critical value t and the cutoff d: 0 when d >= t, else 2 int (Phi(t w)
    - Phi(d w)) f_W(w) dw (w = 1 at m = inf), attained as gamma -> inf; the
    error adds the w window's 1e-12 allowance to the quadrature's."""
    if d >= t:
        return 0.0, 0.0
    if m == math.inf:
        return 2.0 * (norm_cdf(t) - norm_cdf(d)), 0.0
    w_lo, w_hi = residual_scale_interval(m, _W_MASS_EPS)

    def integrand(w):
        return 2.0 * (norm_cdf(t * w) - norm_cdf(d * w)) * residual_scale_density(w, m)

    res = adaptive_quad(integrand, w_lo, w_hi, abs_err=abs_err)
    return res.value, res.err + _W_MASS_EPS


def minimum_coverage(method: SelectionMethod, alpha: float, p: int,
                     m: int | float, rho: float, abs_err: float = 1e-8,
                     search: SearchConfig | None = None) -> BoundResult:
    """Upper bound on the minimum coverage probability at level 1 - alpha,
    p regressors, m error degrees of freedom (an integer >= 1 or
    ``math.inf``) and correlation rho, even in rho.  For |rho| < 1 it is
    ``coverage_bound``, or at m = inf ``asymptotic_bound``, which needs no
    ``abs_err``; at |rho| = 1 a closed form with no search (``gamma_star``
    nan, ``evaluations`` 0).  No rho is altered, and as |rho| -> 1 the
    bound runs continuously into the closed form.  bic and ttest raise
    ``ValueError`` at m = inf."""
    _check_abs_err(abs_err)
    if m == math.inf:
        d = asymptotic_threshold(method)
        if abs(rho) != 1.0:
            return asymptotic_bound(AsymptoticProblem(alpha, rho, d), search)
        t = norm_two_sided_quantile(alpha)
    else:
        problem = BoundProblem.from_m(alpha, p, m, rho)
        if abs(rho) != 1.0:
            return coverage_bound(problem, method, abs_err, search)
        m = problem.m
        d, t = selection_threshold(method, problem.n, problem.p), t_quantile(m, alpha)
    bound, err = _perfect_corr_bound(t, d, m, abs_err)
    return BoundResult(bound, math.nan, 0, (math.nan, math.nan), quad_err=err)
