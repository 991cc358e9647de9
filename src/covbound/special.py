"""Scalar and vectorized special functions for Gaussian/Student-t machinery.

Self-contained layer: everything here is built from `math`/`numpy`
primitives (no scipy).  The pieces are

* ``erfc`` / ``norm_pdf`` / ``norm_cdf`` -- Cody-style rational
  approximations for the complementary error function, accurate to a few
  ulps over the whole real line,
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
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

_EPS = 1e-16
_FPMIN = 1e-300
# term cap of the series and continued fractions: near x = a the incomplete
# gamma needs about 9 sqrt(a) terms, so this serves df up to about 10^10
_ITMAX = 10**6


# ----------------------------------------------------------------------
# complementary error function, Cody rational approximations
# ----------------------------------------------------------------------

# |x| <= 0.46875: erf(x) = x * P1(x^2)/Q1(x^2)
_ERF_A = (3.16112374387056560e0, 1.13864154151050156e2,
          3.77485237685302021e2, 3.20937758913846947e3,
          1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e1, 2.44024637934444173e2,
          1.28261652607737228e3, 2.84423683343917062e3)
# 0.46875 < x <= 4: erfc(x) = exp(-x^2) * P2(x)/Q2(x)
_ERF_C = (5.64188496988670089e-1, 8.88314979438837594e0,
          6.61191906371416295e1, 2.98635138197400131e2,
          8.81952221241769090e2, 1.71204761263407058e3,
          2.05107837782607147e3, 1.23033935479799725e3,
          2.15311535474403846e-8)
_ERF_D = (1.57449261107098347e1, 1.17693950891312499e2,
          5.37181101862009858e2, 1.62138957456669019e3,
          3.29079923573345963e3, 4.36261909014324716e3,
          3.43936767414372164e3, 1.23033935480374942e3)
# x > 4: erfc(x) = exp(-x^2)/x * (1/sqrt(pi) - P3(1/x^2)/Q3(1/x^2)/x^2)
_ERF_P = (3.05326634961232344e-1, 3.60344899949804439e-1,
          1.25781726111229246e-1, 1.60837851487422766e-2,
          6.58749161529837803e-4, 1.63153871373020978e-2)
_ERF_Q = (2.56852019228982242e0, 1.87295284992346047e0,
          5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3)


# erfc(x) is exactly 0.0 in double precision from x ~ 27.3 on; clipping
# |x| here keeps +inf and huge finite x finite (0.0, not NaN or warnings).
_ERFC_CLIP = 40.0
# up to this many elements the scalar route (about 4 us each) is cheaper
# than the array route's fixed cost of about 50 numpy calls (40-80 us)
_ERFC_FEW = 16


def _exp_nxx(y):
    # exp(-y*y) with the split exp(-ysq^2)*exp(-(y-ysq)(y+ysq)) to keep
    # relative accuracy for large arguments (ysq has an exact square).
    ysq = np.floor(y * 16.0) / 16.0
    return np.exp(-ysq * ysq) * np.exp(-(y - ysq) * (y + ysq))


# The three branches below take a float or an array.  Each keeps the
# operation order of Cody's evaluation, so a float and an array element
# give the same bits.

def _erfc_small(x):
    # |x| <= 0.46875: erf(x) = x * P1(x^2)/Q1(x^2)
    z = x * x
    num = _ERF_A[4] * z
    den = z
    for i in range(3):
        num = (num + _ERF_A[i]) * z
        den = (den + _ERF_B[i]) * z
    return 1.0 - x * (num + _ERF_A[3]) / (den + _ERF_B[3])


def _erfc_mid(y, e):
    # 0.46875 < y <= 4: erfc(y) = exp(-y^2) * P2(y)/Q2(y), e = exp(-y^2);
    # Horner in place when y is an array
    num = y * _ERF_C[8]
    den = y + _ERF_D[0]
    den *= y
    for i in range(7):
        num += _ERF_C[i]
        num *= y
    for i in range(1, 7):
        den += _ERF_D[i]
        den *= y
    num += _ERF_C[7]
    den += _ERF_D[7]
    num *= e
    num /= den
    return num


def _erfc_big(y, e):
    # y > 4: erfc(y) = exp(-y^2)/y * (1/sqrt(pi) - P3(1/y^2)/Q3(1/y^2)/y^2)
    z = 1.0 / (y * y)
    num = _ERF_P[5] * z
    den = z
    for i in range(4):
        num = (num + _ERF_P[i]) * z
        den = (den + _ERF_Q[i]) * z
    r = z * (num + _ERF_P[4]) / (den + _ERF_Q[4])
    return e * (INV_SQRT_PI - r) / y


def _erfc_float(v: float) -> float:
    y = abs(v)
    if y <= 0.46875:
        return float(_erfc_small(v))
    y = min(y, _ERFC_CLIP)  # NaN stays NaN
    e = _exp_nxx(y)
    out = float(_erfc_mid(y, e) if y <= 4.0 else _erfc_big(y, e))
    return 2.0 - out if v < -0.46875 else out


def erfc(x):
    """Complementary error function, a few-ulp rational approximation.

    erfc(+inf) = 0, erfc(-inf) = 2 and NaN gives NaN, without warnings.
    On arrays the middle branch (0.46875 < |x| <= 4) runs over every
    element, without a mask; only the elements of the two outer branches
    are gathered and overwritten.  Arrays of at most ``_ERFC_FEW``
    elements take the scalar route per element instead, which gives the
    same bits without the array route's fixed cost.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return _erfc_float(float(x))
    if x.size <= _ERFC_FEW:
        return np.array([_erfc_float(v) for v in x.ravel().tolist()]).reshape(x.shape)
    y = np.abs(x)
    np.minimum(y, _ERFC_CLIP, out=y)  # NaN stays NaN
    e = _exp_nxx(y)
    out = _erfc_mid(y, e)
    big = y > 4.0
    if np.count_nonzero(big):
        out[big] = _erfc_big(y[big], e[big])
    small = y <= 0.46875
    if np.count_nonzero(small):
        out[small] = _erfc_small(x[small])
    return np.where(x < -0.46875, 2.0 - out, out)


def norm_pdf(x):
    """Standard normal density; underflows to 0.0 far in the tails."""
    x = np.asarray(x, dtype=float)
    val = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return float(val) if val.ndim == 0 else val


def norm_cdf(x):
    """Standard normal distribution function via erfc(-x/sqrt(2))/2."""
    val = erfc(np.asarray(x, dtype=float) / -SQRT2)
    if np.ndim(val) == 0:
        return 0.5 * val
    val *= 0.5
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
    val = norm_cdf(center + halfwidth) - norm_cdf(center - halfwidth)
    return float(val) if np.ndim(val) == 0 else val


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
    corner corrections of ``_genz_correction``.  Negative rho reflects Y.
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
    # one Phi call: P1, P2, Pc = P(Z in both intervals), and Genz's Phi(-b/a)
    lo = np.stack([lo1, lo2, np.maximum(lo1, lo2)])
    hi = np.stack([hi1, hi2, np.maximum(lo[2], np.minimum(hi1, hi2))])
    flip = lo + hi > 0.0
    ends = np.stack([np.where(flip, -lo, hi), np.where(flip, -hi, lo)]).reshape(6, -1)
    if 0.925 <= rho < 1.0:
        bs = (h - k) ** 2
        b = np.sqrt(bs)
        ends = np.concatenate([ends, -b / math.sqrt((1.0 - rho) * (1.0 + rho))])
    cdf = norm_cdf(ends)
    p1, p2, pc = cdf[0:3] - cdf[3:6]
    x, w = _BVN_RULES[0 if rho < 0.3 else 1 if rho < 0.75 else 2]
    if rho < 0.925:
        asr = math.asin(rho)
        sn = np.sin(0.5 * asr * (x + 1.0))[:, None, None]
        terms = np.exp((sn * (h * k) - 0.5 * (h * h + k * k)) / (1.0 - sn * sn))
        val = p1 * p2 + asr / (4.0 * math.pi) * (_BVN_SIGN @ _rule_sum(w, terms))
    elif rho < 1.0:
        val = pc - _BVN_SIGN @ _genz_correction(h, k, bs, b, cdf[6:], rho, x, w)
    else:
        val = pc
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
    terms = np.exp(-0.5 * (bs / xs + hk)) * (
        np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        - (1.0 + c * xs * (1.0 + d * xs)))
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
    ln_bt = (-_lbeta(a, b) - a * math.log1p(tt / df)
             + b * (math.log(tt) - math.log(df + tt)))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, y) / b


def _t_pdf(t: float, df: int) -> float:
    ln = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
          - 0.5 * math.log(df * math.pi)
          - 0.5 * (df + 1) * math.log1p(t * t / df))
    return math.exp(ln)


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
                  lambda t: 2.0 * _t_pdf(t, df), z, 2.0)


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
    scale = math.exp(-x + a * math.log(x) - math.lgamma(a))
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


def residual_scale_density(w, df: int):
    """Density of W = sqrt(chi2_df / df) at w (0 for w <= 0).

    Evaluated in log space: 2 (df/2)^(df/2) w^(df-1) exp(-df w^2/2) / Gamma(df/2).
    """
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    df = int(df)
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros_like(w)
    pos = w > 0.0
    if pos.any():
        ww = w[pos]
        half = 0.5 * df
        lg = (math.log(2.0) + half * math.log(half) - math.lgamma(half)
              + (df - 1) * np.log(ww) - half * ww * ww)
        out[pos] = np.exp(lg)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def residual_scale_interval(df: int, eps: float = 1e-12) -> tuple[float, float]:
    """(w_lo, w_hi) leaving probability mass eps outside, eps/2 per tail."""
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a positive integer")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    df = int(df)
    tail = 0.5 * eps
    half = 0.5 * df
    density = partial(residual_scale_density, df=df)
    # P(W <= w) = P(half, half w^2), each tail solved on its own side
    w_lo = _solve(lambda w: _gamma_pq(half, half * w * w)[0] - tail,
                  density, 1.0, 2.0)
    w_hi = _solve(lambda w: tail - _gamma_pq(half, half * w * w)[1],
                  density, 1.0, 2.0)
    return w_lo, w_hi
