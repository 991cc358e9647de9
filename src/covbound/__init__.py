"""Coverage bounds for naive confidence intervals after model selection.

In Gaussian linear regression, practitioners often select a model with
AIC, BIC, Mallows' Cp, adjusted R-squared, or t tests, and then report
the standard t interval of the selected model as if no selection had
happened.  This package computes the exact coverage probability of that
naive interval when the selection is between the full model and the
submodel dropping the last coefficient, and minimizes it over the
unknown standardized coefficient to produce an upper bound on the
minimum coverage probability.  Companion pieces: the large-sample
(known-variance) limit, the closed form at perfect correlation, a Monte
Carlo oracle for the same probability, and a brute-force regression
simulator that selects over all coefficient subsets.

The computation depends on the problem only through (alpha, m, rho, d):
the nominal level, the error degrees of freedom m = n - p, the
correlation rho between the full-model estimates of the target and of
the last coefficient, and the method's selection cutoff d.
"""

from .asymptotic import (AsymptoticProblem, asymptotic_bound,
                         asymptotic_coverage)
from .coverage import (CoverageResult, coverage_bound, coverage_probability,
                       minimum_coverage)
from .optimize import (DEFAULT_SEARCH, BoundResult, SearchConfig,
                       minimize_over_gamma)
from .quadrature import (QuadratureError, QuadResult, adaptive_quad,
                         adaptive_quad_2d)
from .rules import (METHOD_NAMES, BoundProblem, SelectionMethod,
                    asymptotic_threshold, selection_threshold)
from .simulate import (EmpiricalCoverage, MCEstimate, SimDesign,
                       all_deletion_subsets, empirical_min_coverage,
                       mc_coverage)
from .special import (bvn_rectangle, erfc, norm_cdf, norm_pdf,
                      norm_two_sided_quantile, residual_scale_density,
                      residual_scale_interval, symmetric_interval_prob,
                      t_quantile, t_two_sided_tail)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticProblem",
    "BoundProblem",
    "BoundResult",
    "CoverageResult",
    "DEFAULT_SEARCH",
    "EmpiricalCoverage",
    "MCEstimate",
    "METHOD_NAMES",
    "QuadResult",
    "QuadratureError",
    "SearchConfig",
    "SelectionMethod",
    "SimDesign",
    "adaptive_quad",
    "adaptive_quad_2d",
    "all_deletion_subsets",
    "asymptotic_bound",
    "asymptotic_coverage",
    "asymptotic_threshold",
    "bvn_rectangle",
    "coverage_bound",
    "coverage_probability",
    "empirical_min_coverage",
    "erfc",
    "mc_coverage",
    "minimize_over_gamma",
    "minimum_coverage",
    "norm_cdf",
    "norm_pdf",
    "norm_two_sided_quantile",
    "residual_scale_density",
    "residual_scale_interval",
    "selection_threshold",
    "symmetric_interval_prob",
    "t_quantile",
    "t_two_sided_tail",
]
