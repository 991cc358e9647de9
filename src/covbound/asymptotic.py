"""Large-sample (m -> infinity) coverage of the naive interval.

With the residual scale known (w == 1 in the finite-sample picture), the
coverage probability of the naive post-selection interval is a closed
form.  Writing D(a, b) = Phi(a + b) - Phi(a - b), z for the two-sided
normal critical value, s = sqrt(1 - rho^2), and d' for the limiting
selection cutoff (``asymptotic_threshold``, defined for AIC, Cp and
adjusted R^2 only):

  coverage(gamma) = 1 - alpha + D(rho gamma / s, z) D(gamma, d')
                    - P(|A| <= z, |B| <= d'),

where (A, B) is bivariate normal with means (0, gamma), unit variances
and correlation rho.  The last term is the bivariate-normal rectangle
``bvn_rectangle(-z, z, -d' - gamma, d' - gamma, rho)``: the w = 1 case of
the full-model term in ``coverage``.  ``asymptotic_bound`` minimizes over
gamma, stopping its scan once a certified Gaussian tail bound in
gamma - d' shows that no later gamma can win.  Its scan grid is evaluated
in one vectorized call, whose values equal scalar evaluations bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import (SCAN_GRID, BoundResult, additive_tail_slack,
                       block_objective, minimize_over_gamma)
from .special import (BVN_RECTANGLE_ERR, bvn_rectangle, norm_pdf,
                      norm_two_sided_quantile, symmetric_interval_prob)

__all__ = [
    "AsymptoticProblem",
    "asymptotic_coverage",
    "asymptotic_tail_slack",
    "asymptotic_bound",
]


@dataclass(frozen=True)
class AsymptoticProblem:
    """Level 1-alpha, correlation rho (|rho| < 1), limiting cutoff d' > 0."""

    alpha: float
    rho: float
    d_prime: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not abs(self.rho) < 1.0:
            raise ValueError("require |rho| < 1 in the large-sample form")
        if not self.d_prime > 0.0:
            raise ValueError("d_prime must be positive")


def asymptotic_coverage(problem: AsymptoticProblem, gamma):
    """Large-sample coverage at gamma, or bit for bit at each of an array of
    gammas, in closed form; error below ``BVN_RECTANGLE_ERR`` plus rounding."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(np.isfinite(gamma)):
        raise ValueError("gamma must be finite")
    alpha, rho, dp = problem.alpha, problem.rho, problem.d_prime
    z = norm_two_sided_quantile(alpha)
    term = (symmetric_interval_prob(rho * gamma / math.sqrt(1.0 - rho * rho), z)
            * symmetric_interval_prob(gamma, dp))
    return ((1.0 - alpha) + term
            - bvn_rectangle(-z, z, -dp - gamma, dp - gamma, rho))


def asymptotic_tail_slack(problem: AsymptoticProblem):
    """Certified ``tail_slack(gamma)`` for the gamma search: a bound on
    |asymptotic_coverage(gamma') - (1 - alpha)| for every gamma' >= gamma,
    inf up to gamma = d' and exactly 0 once the computed value must equal
    1 - alpha (see ``additive_tail_slack``).

    With x = gamma' - d' > 0, P(|B| <= d') = D(gamma', d') is at most
    2 d' phi(x), and at most Phi(-x) <= phi(x)/x (Mills' ratio), so
    D(gamma', d') <= min(2 d', 1/x) phi(x), nonincreasing in gamma'.
    ``bvn_rectangle`` clips the rectangle to its computed tail-side
    Phi(d' - gamma') - Phi(-d' - gamma'), which is that probability, and
    the product term is at most D(gamma', d') too.  Both D(gamma', d')
    endpoints Phi(gamma' -+ d') of the product term round to 1.0 exactly
    once erfc(x / sqrt 2) <= 2 phi(x)/x falls to 2^-54, half the rounding
    threshold of 2 - erfc, making the term exactly 0; before that it
    carries up to 2^-52 of cancellation.  The factor 2 absorbs the rounding
    of the rest: each erfc is within 4 ulps (``special.erfc``), and the
    sums add a few more.
    """
    dp = problem.d_prime

    def correction_bound(gamma: float) -> float:
        x = gamma - dp
        if not x > 0.0:
            return math.inf
        q = norm_pdf(x)
        cancellation = 0.0 if 2.0 * q / x <= 2.0 ** -54 else 2.0 ** -52
        return 2.0 * (2.0 * min(2.0 * dp, 1.0 / x) * q) + cancellation
    return additive_tail_slack(1.0 - problem.alpha, correction_bound)


def asymptotic_bound(problem: AsymptoticProblem) -> BoundResult:
    """Minimum large-sample coverage over gamma >= 0.

    The scan stops as soon as the certified tail envelope
    ``asymptotic_tail_slack`` proves that no later grid point can win, so
    the result equals the full scan's.  It evaluates the grid in one
    vectorized call, bit for bit as scalar calls, and a polish point as a
    scalar; ``quad_err`` is ``BVN_RECTANGLE_ERR`` (0.0 if the exact tail wins).
    """
    return minimize_over_gamma(block_objective(lambda gammas: [
        (v, BVN_RECTANGLE_ERR) for v in np.ravel(asymptotic_coverage(
            problem, np.squeeze(gammas))).tolist()], len(SCAN_GRID)),
        1.0 - problem.alpha, asymptotic_tail_slack(problem))
