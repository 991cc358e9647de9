"""Large-sample (m -> infinity) coverage of the naive interval.

With the residual scale known (w == 1 in the finite-sample picture), the
coverage probability of the naive post-selection interval collapses to a
single integral.  Writing D(a, b) = Phi(a + b) - Phi(a - b), z for the
two-sided normal critical value, and d' for the limiting selection cutoff
(``asymptotic_threshold``; only AIC, Cp, adjusted R^2 have one):

  coverage(gamma) = 1 - alpha
                    + D(rho gamma / s, z) D(gamma, d')
                    - int_{-d'}^{d'} D(rho (h - gamma) / s, z / s) phi(h - gamma) dh

with s = sqrt(1 - rho^2).  ``asymptotic_coverage`` evaluates exactly that.
``asymptotic_coverage_bivariate`` evaluates the same quantity through an
equivalent bivariate-normal rectangle identity,

  int_{-d'}^{d'} D(...) phi(h - gamma) dh
      = P(|A| <= z, |B| <= d')         (A, B) ~ N((0, gamma), corr rho)
      = int_{-z}^{z} D((gamma + rho h) / s, d' / s) phi(h) dh,

which exercises a genuinely different integrand; the two must agree to
quadrature accuracy.  ``asymptotic_bound`` minimizes over gamma, stopping
its scan once a certified Gaussian tail bound in gamma - d' shows that no
later gamma can win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optimize import (BoundResult, SearchConfig, additive_tail_slack,
                       minimize_over_gamma)
from .quadrature import adaptive_quad
from .rules import NOT_APPLICABLE, NotApplicable, SelectionMethod, asymptotic_threshold
from .special import norm_pdf, norm_two_sided_quantile, symmetric_interval_prob

__all__ = [
    "AsymptoticProblem",
    "asymptotic_problem",
    "asymptotic_coverage",
    "asymptotic_coverage_bivariate",
    "asymptotic_tail_slack",
    "asymptotic_bound",
]

_QUAD_ABS = 1e-10


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


def asymptotic_problem(method: SelectionMethod, alpha: float,
                       rho: float) -> AsymptoticProblem | NotApplicable:
    """Build the large-sample problem, or NOT_APPLICABLE for BIC/t-tests."""
    d_prime = asymptotic_threshold(method)
    if isinstance(d_prime, NotApplicable):
        return NOT_APPLICABLE
    return AsymptoticProblem(alpha=alpha, rho=rho, d_prime=d_prime)


def asymptotic_coverage(problem: AsymptoticProblem, gamma: float,
                        abs_err: float = _QUAD_ABS) -> float:
    """Large-sample coverage at gamma (primary single-integral form)."""
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    alpha, rho, dp = problem.alpha, problem.rho, problem.d_prime
    s = math.sqrt(1.0 - rho * rho)
    z = norm_two_sided_quantile(alpha)
    term = (symmetric_interval_prob(rho * gamma / s, z)
            * symmetric_interval_prob(gamma, dp))

    def integrand(h):
        return (symmetric_interval_prob(rho * (h - gamma) / s, z / s)
                * norm_pdf(h - gamma))

    res = adaptive_quad(integrand, -dp, dp, abs_err=abs_err)
    return (1.0 - alpha) + term - res.value


def asymptotic_coverage_bivariate(problem: AsymptoticProblem, gamma: float,
                                  abs_err: float = _QUAD_ABS) -> float:
    """Same quantity via the bivariate rectangle identity (cross-check)."""
    alpha, rho, dp = problem.alpha, problem.rho, problem.d_prime
    s = math.sqrt(1.0 - rho * rho)
    z = norm_two_sided_quantile(alpha)
    term = (symmetric_interval_prob(rho * gamma / s, z)
            * symmetric_interval_prob(gamma, dp))

    def integrand(h):
        return (symmetric_interval_prob((gamma + rho * h) / s, dp / s)
                * norm_pdf(h))

    res = adaptive_quad(integrand, -z, z, abs_err=abs_err)
    return (1.0 - alpha) + term - res.value


def asymptotic_tail_slack(problem: AsymptoticProblem):
    """Certified ``tail_slack(gamma)`` for the gamma search: a bound on
    |asymptotic_coverage(gamma') - (1 - alpha)| for every gamma' >= gamma,
    inf up to gamma = d' and exactly 0 once the computed value must equal
    1 - alpha (see ``additive_tail_slack``).

    With x = gamma - d' > 0: the integral has |D| <= 1, phi(h - gamma')
    <= phi(x) on [-d', d'] and positive Kronrod weights summing to 2 d';
    the product term is at most D(gamma', d') <= 2 d' phi(x).  Both
    D(gamma', d') endpoints Phi(gamma' -+ d') round to 1.0 exactly once
    erfc(x / sqrt 2) <= 2 phi(x)/x falls to 2^-54, half the rounding
    threshold of 2 - erfc, making the term exactly 0; before that it
    carries up to 2^-52 of cancellation.  The factor 2 absorbs the few-ulp
    relative rounding of the rest.
    """
    dp = problem.d_prime

    def correction_bound(gamma: float) -> float:
        x = gamma - dp
        if not x > 0.0:
            return math.inf
        q = norm_pdf(x)
        cancellation = 0.0 if 2.0 * q / x <= 2.0 ** -54 else 2.0 ** -52
        return 2.0 * (4.0 * dp * q) + cancellation
    return additive_tail_slack(1.0 - problem.alpha, correction_bound)


def asymptotic_bound(problem: AsymptoticProblem,
                     config: SearchConfig | None = None) -> BoundResult:
    """Minimum large-sample coverage over gamma >= 0.

    The scan stops as soon as the certified tail envelope
    ``asymptotic_tail_slack`` proves that no later grid point can win, so
    the result equals the full scan's.
    """
    return minimize_over_gamma(lambda g: asymptotic_coverage(problem, g),
                               config=config, tail_value=1.0 - problem.alpha,
                               tail_slack=asymptotic_tail_slack(problem))
