"""Scalar and vectorized special functions for Gaussian/Student-t machinery.

Self-contained layer: everything here is built from `math`/`numpy`
primitives (no scipy).  The pieces are

* ``erfc`` / ``norm_pdf`` / ``norm_cdf`` -- the complementary error
  function of the C library (``math.erfc``, within 4 ulps) and the
  normal density and distribution function built on it,
* ``symmetric_interval_prob`` -- D(c, q) = Phi(c + q) - Phi(c - q), the
  normal probability of an interval of half-width q about c,
* ``bvn_rectangle`` -- rectangle probabilities of the standard bivariate
  normal (Drezner & Wesolowsky 1990; Genz 2004),
* ``t_quantile`` -- two-sided Student-t quantile by safeguarded
  Newton/bisection inversion of the regularized incomplete beta function,
* ``residual_scale_density`` / ``residual_scale_interval`` -- density and
  essential support of W = sqrt(chi2_m / m), the scaled residual standard
  deviation of a Gaussian linear model with m error degrees of freedom.

Array arguments are accepted wherever the quadrature engine needs
vectorized evaluation; scalar input yields a Python float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "erfc",
    "norm_pdf",
    "norm_cdf",
    "norm_two_sided_quantile",
    "symmetric_interval_prob",
    "BVN_RECTANGLE_ERR",
    "bvn_rectangle",
    "t_quantile",
    "t_two_sided_tail",
    "residual_scale_density",
    "residual_scale_interval",
]

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_EPS = 1e-16
_FPMIN = 1e-300
# term cap of the series and continued fractions: near x = a the incomplete
# gamma needs about 9 sqrt(a) terms, so this serves df up to about 10^10
_ITMAX = 10**6


def erfc(x):
    """Complementary error function: the C library's ``math.erfc``.

    Within 4 ulps of the exact value (checked against 40-digit mpmath on
    |x| <= 27.3 by ``tests/test_special.py``; glibc 2.36 reaches 3.9 ulps
    near x = 1.23).  The last bits follow the platform's libm.
    erfc(+inf) = 0, erfc(-inf) = 2 and NaN gives NaN, without warnings.
    An array is evaluated element by element.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return math.erfc(float(x))
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float,
                       count=x.size).reshape(x.shape)


def norm_pdf(x):
    """Standard normal density; underflows to 0.0 far in the tails."""
    x = np.asarray(x, dtype=float)
    val = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(val) if val.ndim == 0 else val


def norm_cdf(x):
    """Standard normal distribution function via erfc(-x/sqrt(2))/2."""
    val = erfc(np.asarray(x, dtype=float) / -SQRT2)
    val *= 0.5  # a float for a 0-d x, else the array in place
    return val


def _solve(f, slope, x: float, hi: float) -> float:
    # root of f, increasing on x > 0, with derivative slope: hi doubles
    # until f(hi) >= 0, then Newton runs from x inside the bracket and
    # bisects whenever a step leaves it.  f > 0 moves hi and anything else
    # moves lo (no early exit at f == 0): that tie rule is what pins the
    # golden quantiles to their bits.
    lo = 0.0
    while f(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e300:
            raise RuntimeError("root bracket expansion failed")
    x = min(max(x, lo), hi)
    for _ in range(200):
        fx = f(x)
        if fx > 0.0:
            hi = x
        else:
            lo = x
        d = slope(x)
        x_new = x - fx / d if d > _FPMIN else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-16 * max(1.0, abs(x)):
            return x_new
        x = x_new
    return x


@lru_cache(maxsize=None)
def norm_two_sided_quantile(alpha: float) -> float:
    """z > 0 with P(-z <= Z <= z) = 1 - alpha for standard normal Z."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    target = 1.0 - 0.5 * alpha
    return _solve(lambda z: norm_cdf(z) - target, norm_pdf, 1.0, 50.0)


# ----------------------------------------------------------------------
# normal interval probabilities
# ----------------------------------------------------------------------

def symmetric_interval_prob(center, halfwidth):
    """Phi(center + halfwidth) - Phi(center - halfwidth).

    Equals P(center - halfwidth <= Z <= center + halfwidth) for
    halfwidth >= 0; even in ``center`` and odd in ``halfwidth``.
    """
    center = np.asarray(center, dtype=float)
    halfwidth = np.asarray(halfwidth, dtype=float)
    return norm_cdf(center + halfwidth) - norm_cdf(center - halfwidth)


# ----------------------------------------------------------------------
# bivariate normal rectangles (Drezner & Wesolowsky 1990; Genz 2004)
# ----------------------------------------------------------------------

# Genz's Gauss-Legendre rules on [-1, 1]: 6 points for |rho| < 0.3, 12
# below 0.75, 20 above; the positive nodes and their weights
_GL_HALF = (
    ((0.2386191860831969, 0.6612093864662645, 0.932469514203152),
     (0.46791393457269104, 0.3607615730481386, 0.17132449237917036)),
    ((0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
      0.7699026741943047, 0.9041172563704749, 0.9815606342467192),
     (0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
      0.16007832854334622, 0.10693932599531843, 0.04717533638651183)),
    ((0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
      0.5108670019508271, 0.636053680726515, 0.7463319064601508,
      0.8391169718222188, 0.912234428251326, 0.9639719272779138,
      0.9931285991850949),
     (0.15275338713072584, 0.14917298647260374, 0.14209610931838204,
      0.13168863844917664, 0.11819453196151841, 0.10193011981724044,
      0.08327674157670475, 0.06267204833410907, 0.04060142980038694,
      0.017614007139152118)),
)
_BVN_RULES = tuple((np.concatenate([np.negative(x), x]), np.concatenate([w, w]))
                   for x, w in _GL_HALF)
# Phi(-40) underflows to 0.0, so limits are clipped there; infinite limits
# then need no special case
_BVN_CLIP = 40.0
# inclusion-exclusion signs of the corners (lo1, lo2), (hi1, lo2),
# (lo1, hi2), (hi1, hi2)
_BVN_SIGN = np.array([1.0, -1.0, -1.0, 1.0])
BVN_RECTANGLE_ERR = 1e-14
"""Absolute error bound of ``bvn_rectangle``; the largest difference from
a 40-digit mpmath quadrature over the boxes and correlations of the tests
is 1.9e-16."""


def bvn_rectangle(lo1, hi1, lo2, hi2, rho: float):
    """P(lo1 <= X <= hi1, lo2 <= Y <= hi2) for standard normal X, Y with
    correlation rho, |rho| <= 1.  Limits broadcast and may be infinite;
    each interval must have lo <= hi.

    The rectangle is built from small terms, never from differences of
    orthant probabilities near 1.  Write P1, P2 for the two marginal
    interval probabilities and sum the corner terms over (h, k) in
    {lo1, hi1} x {lo2, hi2} with sign +1 at (lo1, lo2) and (hi1, hi2),
    -1 at the other two.  For rho < 0.925 (Drezner & Wesolowsky),

      P = P1 P2 + sum +-(1/2pi) int_0^asin(rho)
                     exp(-(h^2 + k^2 - 2 h k sin t) / (2 cos^2 t)) dt,

    by 6-, 12- or 20-point Gauss-Legendre in t.  From 0.925 up it is
    Genz's (2004) expansion about the perfectly correlated law: the
    probability Pc that X = Y lands in both intervals, minus the summed
    corner corrections of ``_genz_correction``; only that branch computes
    Pc.  Negative rho reflects Y.
    Every interval probability is a difference of two Phi on the
    interval's tail side, and the result is clipped into
    [0, min(P1, P2)]: far out it is small or exactly 0.  Absolute error
    below ``BVN_RECTANGLE_ERR``.
    """
    if not abs(rho) <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    lims = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for v in (lo1, hi1, lo2, hi2)))
    shape = lims[0].shape
    lims = np.clip(np.stack(lims).reshape(4, -1), -_BVN_CLIP, _BVN_CLIP)
    if np.any(lims[0::2] > lims[1::2]):
        raise ValueError("interval endpoints must satisfy lo <= hi")
    if rho < 0.0:
        # (X, -Y) has correlation -rho
        lims[2:] = -lims[3:1:-1]
        rho = -rho
    lo1, hi1, lo2, hi2 = lims
    h = lims[[0, 1, 0, 1]]
    k = lims[[2, 2, 3, 3]]
    # one Phi call: P1, P2 and, on Genz's branch only, Pc = P(Z in both
    # intervals) and Phi(-b/a)
    lo, hi = [lo1, lo2], [hi1, hi2]
    genz = rho >= 0.925
    if genz:
        lo.append(np.maximum(lo1, lo2))
        hi.append(np.maximum(lo[2], np.minimum(hi1, hi2)))
    lo, hi, n = np.stack(lo), np.stack(hi), len(lo)
    flip = lo + hi > 0.0
    ends = np.stack([np.where(flip, -lo, hi),
                     np.where(flip, -hi, lo)]).reshape(2 * n, -1)
    if genz and rho < 1.0:
        bs = (h - k) ** 2
        b = np.sqrt(bs)
        ends = np.concatenate([ends, -b / math.sqrt((1.0 - rho) * (1.0 + rho))])
    cdf = norm_cdf(ends)
    p = cdf[:n] - cdf[n:2 * n]
    p1, p2 = p[:2]
    x, w = _BVN_RULES[0 if rho < 0.3 else 1 if rho < 0.75 else 2]
    if not genz:
        asr = math.asin(rho)
        sn = np.sin(0.5 * asr * (x + 1.0))[:, None, None]
        terms = np.exp((sn * (h * k) - 0.5 * (h * h + k * k)) / (1.0 - sn * sn))
        val = p1 * p2 + asr / (4.0 * math.pi) * (_BVN_SIGN @ _rule_sum(w, terms))
    elif rho < 1.0:
        val = p[2] - _BVN_SIGN @ _genz_correction(h, k, bs, b, cdf[6:], rho, x, w)
    else:
        val = p[2]
    val = np.maximum(np.minimum(val, np.minimum(p1, p2)), 0.0).reshape(shape)
    return float(val) if val.ndim == 0 else val


def _rule_sum(w, terms):
    # sum_j w_j terms[j] for terms shaped (nodes, corner, point)
    return (w @ terms.reshape(len(w), -1)).reshape(terms.shape[1:])


def _genz_correction(h, k, bs, b, cdf_ba, rho, x, w):
    # Phi(-max(h, k)) - P(X > h, Y > k) for 0.925 <= rho < 1 (Genz 2004,
    # BVND): a series in 1 - rho^2 plus a Gauss-Legendre remainder over
    # the nodes x with weights w; h, k, bs = (h - k)^2, b = sqrt(bs) and
    # cdf_ba = Phi(-b/a) are (corner, point) arrays
    as_ = (1.0 - rho) * (1.0 + rho)
    a = math.sqrt(as_)
    hk = h * k
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    val = a * np.exp(-0.5 * (bs / as_ + hk)) * (
        1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0
        + c * d * as_ * as_ / 5.0)
    # Genz drops exp(-hk/2) Phi(-b/a) for hk <= -100, where b/a > 50 and
    # Phi(-b/a) is 0.0; capping hk keeps exp finite there
    val = val - (np.exp(-0.5 * np.maximum(hk, -100.0)) * math.sqrt(2.0 * math.pi)
                 * cdf_ba * b
                 * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
    half = 0.5 * a
    xs = ((half * (x + 1.0)) ** 2)[:, None, None]
    rs = np.sqrt(1.0 - xs)
    # terms = exp(-(bs/xs + hk)/2) (exp(-hk (1 - rs)/(2 (1 + rs)))/rs
    # - (1 + c xs (1 + d xs))), operation by operation as written, in two
    # (node, corner, point) buffers: the remainder's memory peak
    poly = d * xs
    poly += 1.0
    terms = c * xs
    terms *= poly
    terms += 1.0
    ratio = np.multiply(-hk, 1.0 - rs, out=poly)
    ratio /= 2.0 * (1.0 + rs)
    np.exp(ratio, out=ratio)
    ratio /= rs
    ratio -= terms
    np.divide(bs, xs, out=terms)
    terms += hk
    terms *= -0.5
    np.exp(terms, out=terms)
    terms *= ratio
    val = val + half * _rule_sum(w, terms)
    return val / (2.0 * math.pi)


# ----------------------------------------------------------------------
# regularized incomplete beta, Student-t quantiles
# ----------------------------------------------------------------------

def _lentz(c: float, d: float, terms) -> float:
    # modified Lentz evaluation (Numerical Recipes 5.2) of a continued
    # fraction, resumed from the state C = c, D = 1/d, value 1/d over its
    # remaining terms (a_j, b_j): each multiplies the value by C_j D_j,
    # C_j = b_j + a_j/C_{j-1} and D_j = 1/(b_j + a_j D_{j-1}).  Done once
    # a factor is within _EPS of 1; running out of terms raises.
    if abs(d) < _FPMIN:
        d = _FPMIN
    h = d = 1.0 / d
    for a, b in terms:
        d = b + a * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + a / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        de = d * c
        h *= de
        if abs(de - 1.0) < _EPS:
            return h
    raise RuntimeError("continued fraction did not converge")


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz's continued fraction for the incomplete beta, NR-style
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0

    def terms():
        for m in range(1, _ITMAX + 1):
            m2 = 2 * m
            yield m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0
            yield -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0

    return _lentz(1.0, 1.0 - qab * x / qap, terms())


def _stirling_tail(z: float) -> float:
    # remainder S(z) in lnGamma(z) = (z-1/2)ln z - z + ln(2 pi)/2 + S(z)
    zz = z * z
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0
            - (1.0 / 1680.0 - 1.0 / (1188.0 * zz)) / zz) / zz) / zz) / z


def _lbeta(a: float, b: float) -> float:
    """ln B(a, b) without the catastrophic lgamma cancellation at large a."""
    if a < b:
        a, b = b, a
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # lnGamma(a+b) - lnGamma(a) by Stirling differences; exact in the
    # O(b ln a) leading terms, so no big-minus-big subtraction happens.
    ratio = ((a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
             + _stirling_tail(a + b) - _stirling_tail(a))
    return math.lgamma(b) - ratio


def t_two_sided_tail(t: float, df: int) -> float:
    """P(|T| > t) for T Student-t with df degrees of freedom, t >= 0.

    Equals I_x(df/2, 1/2) at x = df/(df + t^2), but parametrized by t so
    the logs of x and 1-x come from log1p rather than from a rounded x
    (for large df, x sits within a few ulps of 1).
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 1.0
    a = 0.5 * df
    b = 0.5
    tt = t * t
    x = df / (df + tt)
    y = tt / (df + tt)
    bt = math.exp(_t_ln_prefactor(t, df))
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, y) / b


def _t_ln_prefactor(t: float, df: int) -> float:
    # ln(x^a (1-x)^b / B(a, b)) at x = df/(df + t^2), a = df/2, b = 1/2,
    # the prefactor of ``t_two_sided_tail``: t times the t density at t
    tt = t * t
    return (-_lbeta(0.5 * df, 0.5) - 0.5 * df * math.log1p(tt / df)
            + 0.5 * (math.log(tt) - math.log(df + tt)))


@lru_cache(maxsize=None)
def t_quantile(df: int, alpha: float) -> float:
    """Two-sided Student-t quantile: t with P(|T| > t) = alpha.

    Safeguarded Newton on the monotone tail function, bisection fallback
    whenever a Newton step leaves the current bracket.  Relative accuracy
    a few ulps (the tail itself is computed to ~1e-15).
    """
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    df = int(df)
    z = norm_two_sided_quantile(alpha)
    if df >= 50000 and z <= 10.0:
        # Large-df expansion in powers of 1/df (Hill-style); its truncation
        # error at df >= 5e4 is far below the double-rounding noise that
        # the incomplete-beta route picks up from x = df/(df+t^2) ~ 1.
        z2 = z * z
        g1 = z * (z2 + 1.0) / 4.0
        g2 = z * (5.0 * z2 * z2 + 16.0 * z2 + 3.0) / 96.0
        g3 = z * (3.0 * z2 ** 3 + 19.0 * z2 * z2 + 17.0 * z2 - 15.0) / 384.0
        g4 = z * (79.0 * z2 ** 4 + 776.0 * z2 ** 3 + 1482.0 * z2 * z2
                  - 1920.0 * z2 - 945.0) / 92160.0
        nu = float(df)
        return z + g1 / nu + g2 / nu ** 2 + g3 / nu ** 3 + g4 / nu ** 4
    return _solve(lambda t: alpha - t_two_sided_tail(t, df),
                  lambda t: 2.0 * math.exp(_t_ln_prefactor(t, df)) / t, z, 2.0)


# ----------------------------------------------------------------------
# regularized incomplete gamma, scaled-chi density and essential support
# ----------------------------------------------------------------------

def _gamma_pq(a: float, x: float) -> tuple[float, float]:
    # (P, Q) regularized lower/upper incomplete gamma; the side that is
    # numerically direct (series below the transition, Lentz continued
    # fraction above) is computed, the other is its complement.
    if x < 0.0 or a <= 0.0:
        raise ValueError("require x >= 0 and a > 0")
    if x == 0.0:
        return 0.0, 1.0
    # scale = x^a e^-x / Gamma(a) = (w/2) f(w) at w = sqrt(x/a), f the
    # density of W = sqrt(chi2_2a / 2a).  a w^2 misses x by a relative
    # few ulps, which move ln(x^a e^-x) by (a - x) times as much
    w = math.sqrt(x) / math.sqrt(a)
    miss = float(1 - Fraction(a) * Fraction(w) ** 2 / Fraction(x))
    scale = 0.5 * w * math.exp(_ln_scale_density(w, a) + miss * (a - x))
    if x < a + 1.0:
        ap = a
        total = 1.0 / a
        term = total
        for _ in range(_ITMAX):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                p = total * scale
                return p, 1.0 - p
        raise RuntimeError("incomplete gamma series did not converge")

    def terms(b):
        for i in range(1, _ITMAX + 1):
            b += 2.0
            yield -i * (i - a), b

    b = x + 1.0 - a
    q = scale * _lentz(1.0 / _FPMIN, b, terms(b))
    return 1.0 - q, q


def _ln_scale_density(w, a: float):
    # ln of ``residual_scale_density`` at w for real a = df/2; w <= 0 gives
    # -inf or nan, and in Stirling form u = -1 below w ~ 1e-8 gives -inf
    with np.errstate(divide="ignore", invalid="ignore"):
        if a < 20.0:
            return (math.log(2.0) + a * math.log(a) - math.lgamma(a)
                    + (2.0 * a - 1.0) * np.log(w) - a * w * w)
        u = (w - 1.0) * (w + 1.0)
        return (math.log(2.0) + 0.5 * math.log(a / (2.0 * math.pi))
                - _stirling_tail(a) - a * (u - np.log1p(u)) - np.log(w))


def residual_scale_density(w, df: int):
    """Density of W = sqrt(chi2_df / df) at w (0 for w <= 0).

    Evaluated in log space: 2 a^a w^(df-1) exp(-a w^2) / Gamma(a), a = df/2,
    from a = 20 on with lnGamma(a) in Stirling form (as in ``_lbeta``), so
    that no terms of size df ln df cancel.
    """
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    w = np.asarray(w, dtype=float)
    out = np.where(w > 0.0, np.exp(_ln_scale_density(w, 0.5 * df)), 0.0)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def residual_scale_interval(df: int, eps: float = 1e-12) -> tuple[float, float]:
    """(w_lo, w_hi) leaving probability mass eps outside, eps/2 per tail."""
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    tail = 0.5 * eps
    half = 0.5 * df
    density = partial(residual_scale_density, df=df)
    # P(W <= w) = P(half, half w^2), each tail solved on its own side,
    # from where W ~ 1 + N(0, 1)/sqrt(2 df) puts it
    step = norm_two_sided_quantile(eps) / math.sqrt(2.0 * df)
    w_lo = _solve(lambda w: _gamma_pq(half, half * w * w)[0] - tail,
                  density, 1.0 - step, 2.0)
    w_hi = _solve(lambda w: tail - _gamma_pq(half, half * w * w)[1],
                  density, 1.0 + step, 2.0)
    return w_lo, w_hi
