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
gamma.  Its scan grid is evaluated in one vectorized call, whose values
equal scalar evaluations bit for bit, and the scan reads all of them: with
every grid value computed up front, a certificate to stop the scan early
would save no work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import (SCAN_GRID, BoundResult, block_objective,
                       minimize_over_gamma)
from .special import (BVN_RECTANGLE_ERR, bvn_rectangle,
                      norm_two_sided_quantile, symmetric_interval_prob)

__all__ = [
    "AsymptoticProblem",
    "asymptotic_coverage",
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


def asymptotic_bound(problem: AsymptoticProblem) -> BoundResult:
    """Minimum large-sample coverage over gamma >= 0.

    The whole scan grid is computed in one vectorized call, bit for bit as
    scalar calls, before the scan reads any of it.  So the scan takes no
    tail certificate ("no bound known") and reads every grid value.  Brent's
    polish then reads its points one call each, so a golden-row bound makes
    about 9.3 calls and reads about 309.3 values, all of them computed.
    ``quad_err`` is ``BVN_RECTANGLE_ERR`` (0.0 if the exact tail wins).
    """
    objective = block_objective(lambda gammas: [
        (v, BVN_RECTANGLE_ERR) for v in np.ravel(asymptotic_coverage(
            problem, np.squeeze(gammas))).tolist()], len(SCAN_GRID))
    return minimize_over_gamma(objective, 1.0 - problem.alpha,
                               lambda gamma: math.inf)
