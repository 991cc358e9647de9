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
is evaluated in two terms.  The submodel term is the k_sub part folded
onto x >= 0, as q depends on x only through x^2, and written in the polar
coordinates h = r sin(theta), sqrt(m) w = r cos(theta).  There the
half-width is q = t_{m+1} r / sqrt(m + 1), a function of r alone, and the
event |h|/w < d is the sector 0 <= theta <= theta_d = atan(d / sqrt(m)):

  submodel term    int_{r_lo}^{r_hi} int_0^{theta_d} D(rho gamma / s, q(r))
                       (phi(h - gamma) + phi(h + gamma)) f_W(w) r / sqrt(m)
                       dtheta dr,
  full-model term  int f_W(w) P(|G| <= t_m w, |H| <= d w) dw,

and the coverage is (1 - alpha) + submodel term - full-model term.  Here
(G, H) is bivariate normal with G ~ N(0, 1), H ~ N(gamma, 1) and
correlation rho.  The full-model term runs over [w_lo, w_hi], which holds
all but 1e-12 of the mass of w; the submodel term over the polar
rectangle r_lo = sqrt(m) w_lo, r_hi = sqrt(m + d^2) w_hi, which covers the
image of [w_lo, w_hi] x [0, d] and adds only mass with w outside the
window, inside the same 1e-12.  The full-model term is the k_full part
integrated over x in closed form: a bivariate-normal rectangle
(``bvn_rectangle``) under a 1-D adaptive Gauss-Kronrod integral in w.  The
submodel term is a 2-D adaptive Gauss-Kronrod integral over (r, theta),
with D, two Phi, once per radius of its start mesh.  On each start cell
of the two quadratures both terms are pinned below a Gaussian tail in
gamma minus the largest h on the cell; ``coverage_bound`` uses that to
stop its gamma scan early.

At |rho| = 1 this representation degenerates.  The minimum coverage,
attained as gamma -> inf, is 2 int (Phi(t_m w) - Phi(d w)) f_W(w) dw =
P(d W < |Z| <= t_m W) for standard normal Z independent of W, and as
P(|Z| <= t_m W) = 1 - alpha it is P(|T_m| > d) - alpha, T_m = Z / W, or 0
when that is not positive: the finite-m form of P(|Z| > d') - alpha.
``minimum_coverage`` gives the bound at any (m, rho) and alters no rho;
the bound runs continuously from |rho| < 1 into that closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .asymptotic import AsymptoticProblem, asymptotic_bound
from .optimize import (BoundResult, additive_tail_slack, block_objective,
                       minimize_over_gamma)
from .quadrature import NODES, adaptive_quad_batch, start_mesh, start_nodes
from .rules import (BoundProblem, SelectionMethod, asymptotic_threshold,
                    selection_threshold)
from .special import (BVN_RECTANGLE_ERR, SQRT2, bvn_rectangle, erfc, norm_pdf,
                      residual_scale_density, residual_scale_interval,
                      symmetric_interval_prob, t_quantile, t_two_sided_tail)

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
# start meshes of the 2-D (r, theta) and 1-D (w) quadratures, in panels
_SUB_MESH, _FULL_MESH = (8, 2), 8
# sub-cells per axis of each 2-D start cell in ``tail_slack``
_SLACK_SPLIT = 8
# scan grid points per ``coverage_bound`` block evaluation
_SCAN_BLOCK = 8
_PERFECT_CORR_ERR = 1e-14
"""Absolute error bound of the |rho| = 1 closed form; against 40-digit
mpmath on the grid of ``test_perfect_correlation_matches_mpmath`` the
largest error is 6.1e-15, a t-test's, which is the error of its cutoff."""


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
    factors.  The submodel term runs over (r, theta), h = r sin(theta) and
    sqrt(m) w = r cos(theta), where its half-width depends on r alone, so
    D is computed once per start-mesh radius.  ``evaluate`` takes a block
    of gammas and computes the start values of the whole block in one
    vectorized pass; each gamma then refines on its own.  Refined panels
    compute the factors, and D per node, by the same arithmetic, so every
    result has the bits of a fresh evaluation of its gamma alone."""

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
        # the polar image of [w_lo, w_hi] x [0, d]: the sector |h|/w < d
        # is theta <= atan(d / sqrt(m)) at any r
        self.root_m = math.sqrt(self.m)
        self.sub_limits = (self.root_m * self.w_lo,
                           math.sqrt(self.m + self.d * self.d) * self.w_hi,
                           0.0, math.atan(self.d / self.root_m))
        # the start mesh's radii (they are its 2-D nodes' r, bit for bit),
        # and its factors in (r panel, theta panel, r slot, theta slot) order
        n_r, n_theta = _SUB_MESH
        (radii,) = start_nodes(*self.sub_limits[:2], initial=n_r)
        self.q_start = self._half_width(radii).reshape(n_r, 1, NODES.size, 1)
        self.sub_start = tuple(z.reshape(n_r, n_theta, NODES.size, NODES.size)
                               for z in self._polar_factors(*start_nodes(
                                   *self.sub_limits, initial=_SUB_MESH)))
        # the w start nodes as one row: for a block of one gamma the four
        # rectangle limits then share one shape, which numpy broadcasts free
        self.full_start = tuple(z.reshape(1, -1) for z in self._full_factors(
            *start_nodes(self.w_lo, self.w_hi, initial=_FULL_MESH)))
        for z in (self.q_start, *self.sub_start, *self.full_start):
            z.flags.writeable = False

    def _half_width(self, r):
        # the submodel half-width in units of sd: t_{m+1} r / sqrt(m + 1)
        return _submodel_half_width(self.t2, r * r, 0.0, self.m, 1.0)

    def _polar_factors(self, r, theta):
        # h and the mass f_W(w) r / sqrt(m) at w = r cos(theta) / sqrt(m)
        mass = residual_scale_density(r * np.cos(theta) / self.root_m, self.m)
        return r * np.sin(theta), mass * r / self.root_m

    def _full_factors(self, w):
        # f_W(w) and the rectangle limits before the shift by gamma
        return (residual_scale_density(w, self.m), -self.t1 * w, self.t1 * w,
                -self.d * w, self.d * w)

    def _f_w_max(self, lo, hi):
        # the largest f_W over [lo, hi]: f_W is unimodal with its mode at
        # sqrt((m - 1)/m) (decreasing for m = 1)
        mode = math.sqrt((self.m - 1.0) / self.m)
        return residual_scale_density(np.clip(mode, lo, hi), self.m)

    def _sub_cell_bound(self):
        """(area, bound): the area of each 2-D start cell and ``bound(gammas)``,
        per start cell a bound on the folded submodel integrand over the
        cell at every gamma' >= gamma (the first case of
        ``_correction_bound``), for one gamma or, one row per gamma, for an
        array of them."""
        root_m = self.root_m
        (r_c, t_c), (r_h, t_h) = start_mesh(*self.sub_limits, initial=_SUB_MESH)
        # the sub-cell edges of each start cell, one row per start cell
        split = np.linspace(-1.0, 1.0, _SLACK_SPLIT + 1)
        r = r_c[:, None] + r_h[:, None] * split
        theta = t_c[:, None] + t_h[:, None] * split
        r_bot, r_top = r[:, :-1, None], r[:, 1:, None]
        t_bot, t_top = theta[:, None, :-1], theta[:, None, 1:]
        scale = r_top / root_m * self._f_w_max(r_bot * np.cos(t_top) / root_m,
                                               r_top * np.cos(t_bot) / root_m)
        edge = r_top * np.sin(t_top)

        def bound(gammas):
            # one row of start cells per gamma
            g = np.asarray(gammas, dtype=float)[..., None, None, None]
            return (scale * (norm_pdf(np.maximum(g - edge, 0.0))
                             + norm_pdf(np.maximum(g, 0.0)))).max(axis=(-2, -1))
        return 4.0 * r_h * t_h, bound

    def _correction_bound(self):
        """``bound(gammas)``: at one gamma, or at each of an array of gammas,
        a bound on the summed magnitudes of the two computed terms, the
        corrections to 1 - alpha, at every gamma' >= gamma (what
        ``additive_tail_slack`` needs).

        The value is (1 - alpha) plus the submodel term minus the
        full-model term, and it is bounded cell by cell over the start
        meshes of the two quadratures (``start_mesh``).  Refinement only
        halves panels, so the positive Kronrod weights of the nodes inside
        one start cell sum to the cell's area however far it refines.

        * Submodel term, on a cell [r_bot, r_top] x [theta_bot, theta_top]:
          |k_sub| <= 1, the mass factor r / sqrt(m) is at most
          r_top / sqrt(m), f_W is at most its largest value over the
          cell's w range [r_bot cos(theta_top), r_top cos(theta_bot)] /
          sqrt(m), and h = r sin(theta) lies in [0, u], u = r_top
          sin(theta_top), so phi(h - gamma') <= phi(max(gamma' - u, 0))
          and the mirror term phi(h + gamma') <= phi(max(gamma', 0)),
          which is phi(gamma') in the search.  The largest u is r_hi
          sin(theta_d) = d w_hi.  The cell's
          bound is the largest product of these factors over a grid of
          sub-cells, as the largest edge and the largest f_W sit on
          different sub-cells where theta_d is wide.
        * Full-model term, on a w panel with top w_top: ``bvn_rectangle``
          never exceeds its computed Phi(d w - gamma') - Phi(-d w -
          gamma') <= min(Phi(-x), 1) with x = gamma' - d w_top, and
          Phi(-x) <= phi(x)/x for x > 0.

        Each cell's bound is nonincreasing in gamma', so its value at
        gamma covers every gamma' >= gamma.  The factor 2 absorbs the
        few-ulp relative rounding of every factor and of the sums.  Every
        operation is elementwise along the gammas, so each bound of an
        array has the bits of its gamma alone.
        """
        sub_area, sub_bound = self._sub_cell_bound()
        (w_c,), (w_h,) = start_mesh(self.w_lo, self.w_hi, initial=_FULL_MESH)
        full_scale = 2.0 * w_h * self._f_w_max(w_c - w_h, w_c + w_h)
        full_edge = self.d * (w_c + w_h)

        def bound(gammas):
            # min(phi(x)/x, 1) for x > 0, and 1 for x <= 0, per w panel
            x = np.maximum(np.asarray(gammas, dtype=float)[..., None]
                           - full_edge, 0.0)
            q = norm_pdf(x)
            full = q / np.maximum(x, q)
            return (2.0 * (np.sum(sub_area * sub_bound(gammas), axis=-1)
                           + np.sum(full_scale * full, axis=-1))).tolist()
        return bound

    def tail_slack(self):
        """Certified ``tail_slack(gamma)`` for the gamma search: a bound on
        |evaluate(gamma').value - (1 - alpha)| for every gamma' >= gamma,
        finite and nonincreasing from gamma = 0 on and exactly 0 once the
        computed value must equal 1 - alpha: ``additive_tail_slack`` of
        ``_correction_bound``.  Through ``block_objective`` a scan grid
        point's bound comes with those of the next ``_SCAN_BLOCK - 1`` grid
        points, in one call, so the scan asks once per block."""
        bound = block_objective(self._correction_bound(), _SCAN_BLOCK)
        return additive_tail_slack(1.0 - self.alpha, bound)

    def evaluate(self, gammas) -> list[CoverageResult]:
        """The coverage at each of ``gammas``, in order.  The start values of
        the whole block come from one pass: one D call over its radii, the
        normal densities over its 2-D start nodes and one ``bvn_rectangle``
        call over its w nodes; so do the start-mesh rules of each term, from
        one ``adaptive_quad_batch`` call.  A gamma whose start error meets
        its budget is done; any other refines its own quadratures, so its
        result does not depend on its block."""
        gammas = [float(g) for g in gammas]
        if not all(map(math.isfinite, gammas)):
            raise ValueError("gamma must be finite")
        # D(c, q) is even in c; c <= 0 keeps both Phi on the lower tail
        cs = [-abs(self.rho * g) / self.sd for g in gammas]
        # the block runs along a leading axis of the start factors; the
        # rectangles go first, as their temporaries set the memory peak
        block = np.array(gammas)
        full_start = self._full_values(block[:, None], *self.full_start)
        col = (-1,) + (1,) * self.q_start.ndim
        sub_start = self._sub_values(np.reshape(cs, col), block.reshape(col),
                                     self.q_start, *self.sub_start)
        subs = adaptive_quad_batch(
            [partial(self._sub_integrand, c, g) for c, g in zip(cs, gammas)],
            *self.sub_limits, abs_err=_SUB_SHARE * self.abs_err,
            initial=_SUB_MESH, start_values=sub_start)
        fulls = adaptive_quad_batch(
            [partial(self._full_integrand, g) for g in gammas],
            self.w_lo, self.w_hi, abs_err=_FULL_SHARE * self.abs_err,
            initial=_FULL_MESH, start_values=full_start)
        # each gamma's two terms refine in turn, as a gamma alone would
        return [CoverageResult(
            value=((1.0 - self.alpha) + sub.value) - full.value,
            quad_err=sub.err + full.err + BVN_RECTANGLE_ERR + _W_MASS_EPS,
            panels=sub.panels + full.panels) for sub, full in zip(subs, fulls)]

    @staticmethod
    def _sub_values(c, gamma, q, h, mass):
        # the folded submodel integrand: D(c, q) at h and at -h
        return (symmetric_interval_prob(c, q)
                * (norm_pdf(h - gamma) + norm_pdf(h + gamma)) * mass)

    def _full_values(self, gamma, f_w, lo1, hi1, lo2, hi2):
        return f_w * bvn_rectangle(lo1, hi1, lo2 - gamma, hi2 - gamma, self.rho)

    def _sub_integrand(self, c: float, gamma: float, r, theta):
        # the submodel term's integrand at one gamma, for refined panels
        return self._sub_values(c, gamma, self._half_width(r),
                                *self._polar_factors(r, theta))

    def _full_integrand(self, gamma: float, w):
        # the full-model term's integrand at one gamma, for refined panels
        return self._full_values(gamma, *self._full_factors(w))


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
    return _CoveragePlan(problem, method, abs_err).evaluate([gamma])[0]


def coverage_bound(problem: BoundProblem, method: SelectionMethod,
                   abs_err: float = 1e-8) -> BoundResult:
    """Upper bound on the minimum coverage probability: the coverage
    minimized over the standardized coefficient gamma >= 0.

    The large-gamma limit of the coverage is the nominal level, so
    1 - alpha enters the minimization as the tail value; a bound equal to
    1 - alpha reports gamma_star = inf.  The gamma scan stops as soon as
    the certified tail envelope ``_CoveragePlan.tail_slack`` proves that no
    later grid point can win, so the result equals the full scan's.  All
    evaluations share one ``_CoveragePlan``.  Through ``block_objective``,
    the memo the m = inf bound shares, the scan computes ``_SCAN_BLOCK``
    grid points at a time and polish points one by one; past the stop at
    most ``_SCAN_BLOCK - 1`` go unread.  A block is one batched start pass:
    its start values, the start-mesh rules of both quadratures
    (``adaptive_quad_batch``) and, through the same memo, the tail
    certificate of its grid points are each one call; only a gamma that
    misses its error budget on the start meshes refines alone.  Neither
    the result nor its evaluation count depends on ``_SCAN_BLOCK``.  Brent's
    method polishes, in about 7.5 evaluations on the golden rows.
    ``quad_err`` on the result is the quadrature error at gamma_star
    (0.0 when the tail value wins).
    """
    plan = _CoveragePlan(problem, method, abs_err)
    objective = block_objective(lambda gammas: [
        (res.value, res.quad_err) for res in plan.evaluate(gammas)], _SCAN_BLOCK)
    return minimize_over_gamma(objective, 1.0 - problem.alpha,
                               plan.tail_slack())


def minimum_coverage(method: SelectionMethod, alpha: float, p: int,
                     m: int | float, rho: float,
                     abs_err: float = 1e-8) -> BoundResult:
    """Upper bound on the minimum coverage probability at level 1 - alpha,
    p regressors, m error degrees of freedom (an integer >= 1 or
    ``math.inf``) and correlation rho, even in rho.  For |rho| < 1 it is
    ``coverage_bound``, or at m = inf ``asymptotic_bound``, which needs no
    ``abs_err``; at |rho| = 1 the closed form P(|T_m| > d) - alpha, or
    P(|Z| > d') - alpha at m = inf, and 0 with ``quad_err`` 0 where that is
    not positive, with no search (``gamma_star`` nan, ``evaluations`` 0).
    No rho is altered, and as |rho| -> 1 the bound runs continuously into
    the closed form.  bic and ttest raise ``ValueError`` at m = inf."""
    _check_abs_err(abs_err)
    if m == math.inf:
        d = asymptotic_threshold(method)
        if abs(rho) != 1.0:
            return asymptotic_bound(AsymptoticProblem(alpha, rho, d))
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        tail = erfc(d / SQRT2)
    else:
        problem = BoundProblem.from_m(alpha, p, m, rho)
        if abs(rho) != 1.0:
            return coverage_bound(problem, method, abs_err)
        # the t-test's d is t_m(size), so its tail is the size exactly
        tail = method.test_size if method.kind == "ttest" else t_two_sided_tail(
            selection_threshold(method, problem.n, problem.p), problem.m)
    bound, err = (tail - alpha, _PERFECT_CORR_ERR) if tail > alpha else (0.0, 0.0)
    return BoundResult(bound, math.nan, 0, (math.nan, math.nan), err)
