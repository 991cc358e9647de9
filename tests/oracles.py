"""Independent oracles used by the test suite.

Everything here deliberately avoids the package's own numerics: the
normal CDF goes through the C library's erfc, the t distribution through
closed-form trigonometric sums valid at integer degrees of freedom, and
quantiles through plain bisection on those forms.  scipy appears as a
second opinion for chi-square tails and, with mpmath, in the three
integral oracles at the end: the original combined coverage integrand by
scipy ``dblquad``, bivariate-normal rectangles as a 1-D mpmath integral,
and the large-sample coverage as a 1-D scipy ``quad``.  Each imports its
library on first use.

One oracle is the exception: ``folded_submodel_term`` runs the package's
own quadrature and special functions over the (w, x) parametrization of
the submodel term, so it checks the (r, theta) change of variables of
``coverage._CoveragePlan``, not the numerics, and needs no scipy.
"""

from __future__ import annotations

import math


def norm_cdf_oracle(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def t_central_prob(t: float, df: int) -> float:
    """P(|T| <= t) for integer df via the classical trigonometric sums.

    With theta = arctan(t / sqrt(df)) and c = cos(theta):

      df odd:  (2/pi) * (theta + sin(theta) * [c + 2/3 c^3 + 8/15 c^5 + ...])
      df even: sin(theta) * [1 + 1/2 c^2 + 3/8 c^4 + ...]

    each series having (df - 1) // 2 polynomial terms.
    """
    if df < 1 or df != int(df):
        raise ValueError("df must be a positive integer")
    if t < 0:
        raise ValueError("t must be nonnegative")
    theta = math.atan2(t, math.sqrt(df))
    c2 = math.cos(theta) ** 2
    if df % 2 == 1:
        # terms c, (2/3)c^3, (2*4)/(3*5) c^5, ...
        acc = 0.0
        if df > 1:
            term = math.cos(theta)
            acc = term
            for j in range(1, (df - 1) // 2):
                term *= c2 * (2.0 * j) / (2.0 * j + 1.0)
                acc += term
        return (2.0 / math.pi) * (theta + math.sin(theta) * acc)
    # terms 1, (1/2)c^2, (1*3)/(2*4) c^4, ...
    term = 1.0
    acc = term
    for j in range(1, df // 2):
        term *= c2 * (2.0 * j - 1.0) / (2.0 * j)
        acc += term
    return math.sin(theta) * acc


def t_quantile_bisect(df: int, alpha: float, tol: float = 1e-13) -> float:
    """Two-sided t critical value by bisection on t_central_prob."""
    target = 1.0 - alpha
    lo, hi = 0.0, 2.0
    while t_central_prob(hi, df) < target:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if t_central_prob(mid, df) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def norm_quantile_bisect(alpha: float, tol: float = 1e-14) -> float:
    """z with P(-z <= Z <= z) = 1 - alpha, by bisection on erfc."""
    target = 1.0 - alpha
    lo, hi = 0.0, 2.0

    def central(z: float) -> float:
        return norm_cdf_oracle(z) - norm_cdf_oracle(-z)

    while central(hi) < target:
        hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if central(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def coverage_dblquad(alpha: float, m: int, rho: float, d: float,
                     gamma: float) -> float:
    """Coverage from the combined integrand, by scipy ``dblquad``:

      (1 - alpha) + int int [k_sub(w x) - k_full(w x)] phi(w x - gamma)
                            w f_W(w) dx dw

    over x in [-d, d] and w over all but 2e-15 of the mass of
    W = sqrt(chi2_m / m).  k_full and k_sub are the full-model and
    submodel conditional coverages, written out with scipy's ``ndtr``
    and t quantiles from ``scipy.stats.t``.
    """
    from scipy import integrate, special, stats

    t1 = stats.t.isf(0.5 * alpha, m)
    t2 = stats.t.isf(0.5 * alpha, m + 1)
    sd = math.sqrt(1.0 - rho * rho)
    chi = stats.chi(m, scale=1.0 / math.sqrt(m))
    w_lo, w_hi = chi.ppf(1e-15), chi.isf(1e-15)
    log_norm = (math.log(2.0) + 0.5 * m * math.log(0.5 * m)
                - math.lgamma(0.5 * m))

    def f(x: float, w: float) -> float:
        h = w * x
        mean = rho * (h - gamma)
        k_full = (special.ndtr((t1 * w - mean) / sd)
                  - special.ndtr((-t1 * w - mean) / sd))
        half = t2 * math.sqrt((m * w * w + h * h) / (m + 1.0)) * sd
        k_sub = (special.ndtr((rho * h + half - mean) / sd)
                 - special.ndtr((rho * h - half - mean) / sd))
        f_w = math.exp(log_norm + (m - 1) * math.log(w) - 0.5 * m * w * w)
        phi = math.exp(-0.5 * (h - gamma) ** 2) / math.sqrt(2.0 * math.pi)
        return (k_sub - k_full) * phi * w * f_w

    val, _ = integrate.dblquad(f, w_lo, w_hi, -d, d, epsabs=1e-13, epsrel=0.0)
    return (1.0 - alpha) + val


def folded_submodel_term(alpha: float, m: int, rho: float, d: float,
                         gamma: float, abs_err: float = 1e-13):
    """The submodel term of the coverage over (w, x), as a ``QuadResult``:

      int_{w_lo}^{w_hi} int_0^d D(c, q(w, w x)) (phi(w x - gamma)
                                 + phi(w x + gamma)) w f_W(w) dx dw

    with c = -|rho gamma| / s, q the submodel half-width in units of
    s = sqrt(1 - rho^2), and [w_lo, w_hi] all but 1e-12 of the mass of w,
    by ``adaptive_quad_2d`` from a start mesh of (8, 2) panels.
    """
    from covbound.coverage import _submodel_half_width
    from covbound.quadrature import adaptive_quad_2d
    from covbound.special import (norm_pdf, residual_scale_density,
                                  residual_scale_interval,
                                  symmetric_interval_prob, t_quantile)

    t2 = t_quantile(m + 1, alpha)
    w_lo, w_hi = residual_scale_interval(m, 1e-12)
    c = -abs(rho * gamma) / math.sqrt(1.0 - rho * rho)

    def f(w, x):
        h = w * x
        q = _submodel_half_width(t2, m * w * w, h, m, 1.0)
        return (symmetric_interval_prob(c, q)
                * (norm_pdf(h - gamma) + norm_pdf(h + gamma))
                * w * residual_scale_density(w, m))

    return adaptive_quad_2d(f, w_lo, w_hi, 0.0, d, abs_err=abs_err,
                            initial=(8, 2))


def bvn_rectangle_mpmath(lo1: float, hi1: float, lo2: float, hi2: float,
                         rho: float, dps: int = 20) -> float:
    """P(lo1 <= X <= hi1, lo2 <= Y <= hi2), standard bivariate normal
    with correlation |rho| < 1, as the 1-D mpmath integral

      int_{lo1}^{hi1} phi(x) [Phi((hi2 - rho x)/s) - Phi((lo2 - rho x)/s)] dx

    with s = sqrt(1 - rho^2), split where the inner steps of width s sit.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lo1, hi1, lo2, hi2, r = (mp.mpf(v) for v in (lo1, hi1, lo2, hi2, rho))
        s = mp.sqrt(1 - r * r)

        def f(x):
            return mp.npdf(x) * (mp.ncdf((hi2 - r * x) / s)
                                 - mp.ncdf((lo2 - r * x) / s))

        points = {lo1, hi1}
        if r != 0:
            for edge in (lo2, hi2):
                for off in (-8, -1, 0, 1, 8):
                    c = edge / r + off * s / abs(r)
                    if lo1 < c < hi1:
                        points.add(c)
        return float(mp.quad(f, sorted(points)))


def asymptotic_coverage_bivariate(problem, gamma: float) -> float:
    """Large-sample coverage through the bivariate rectangle identity

      P(|A| <= z, |B| <= d') = int_{-z}^{z} D((gamma + rho h)/s, d'/s) phi(h) dh

    with D(a, b) = Phi(a + b) - Phi(a - b), s = sqrt(1 - rho^2), (A, B)
    bivariate normal with means (0, gamma) and correlation rho.  scipy
    ``quad`` integrates it, split where the inner steps of width s/|rho|
    sit; Phi is ``norm_cdf_oracle`` and z is ``norm_quantile_bisect``.
    """
    from scipy import integrate

    alpha, rho, dp = problem.alpha, problem.rho, problem.d_prime
    s = math.sqrt(1.0 - rho * rho)
    z = norm_quantile_bisect(alpha)

    def interval(a: float, b: float) -> float:
        # D is even in a; -|a| keeps both Phi on the lower tail
        a = -abs(a)
        return norm_cdf_oracle(a + b) - norm_cdf_oracle(a - b)

    def f(h: float) -> float:
        return (interval((gamma + rho * h) / s, dp / s)
                * math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi))

    points = set()
    if rho != 0.0:
        for edge in (-dp, dp):
            for off in (-8, -1, 0, 1, 8):
                c = (edge - gamma + off * s) / rho
                if -z < c < z:
                    points.add(c)
    val, _ = integrate.quad(f, -z, z, points=sorted(points) or None,
                            epsabs=1e-13, epsrel=0.0, limit=200)
    return ((1.0 - alpha) + interval(rho * gamma / s, z)
            * interval(gamma, dp)) - val
