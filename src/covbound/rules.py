"""Selection methods, their cutoff constants, and the problem container.

Each selection method (AIC, BIC, Mallows Cp, adjusted R^2, marginal
t-tests) is equivalent, for deciding between the full model and the
single-coefficient submodel, to the rule

    keep the submodel  iff  |T| < d,

where T is the t statistic of the last coefficient and d a method-specific
cutoff.  ``selection_threshold`` returns d for finite samples;
``asymptotic_threshold`` returns the large-n limit d' for the methods
with an m = inf bound (AIC and Cp give sqrt(2), adjusted R^2 gives 1).  It
raises ``ValueError`` for the other two: BIC's cutoff grows without bound,
and the t-test's cutoff tends to the normal critical value of the test
size, but the m = inf bound is defined here only for AIC, Cp and adjusted
R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special import t_quantile

__all__ = [
    "SelectionMethod",
    "BoundProblem",
    "METHOD_NAMES",
    "selection_threshold",
    "asymptotic_threshold",
]

METHOD_NAMES = ("aic", "bic", "cp", "adjr2", "ttest")


@dataclass(frozen=True)
class SelectionMethod:
    """A model-selection rule; ``test_size`` only applies to ``ttest``."""

    kind: str
    test_size: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.kind!r}; "
                             f"expected one of {METHOD_NAMES}")
        if self.kind == "ttest":
            if self.test_size is None or not 0.0 < self.test_size < 1.0:
                raise ValueError("ttest requires test_size in (0, 1)")
        elif self.test_size is not None:
            raise ValueError(f"{self.kind} does not take a test_size")

    @classmethod
    def from_name(cls, name: str, test_size: float | None = None) -> "SelectionMethod":
        kind = name.strip().lower()
        if kind == "ttest" and test_size is None:
            raise ValueError("ttest requires an explicit test_size")
        return cls(kind, test_size if kind == "ttest" else None)


@dataclass(frozen=True)
class BoundProblem:
    """Coverage problem: nominal level 1-alpha, p regressors, n observations,
    rho the correlation between the target estimator and the last
    coefficient estimator.  m = n - p error degrees of freedom.
    """

    alpha: float
    p: int
    n: int
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.p != int(self.p) or self.p < 2:
            raise ValueError("p must be an integer >= 2")
        if self.n != int(self.n) or self.n <= self.p:
            raise ValueError("n must be an integer > p")
        if not abs(self.rho) <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")

    @property
    def m(self) -> int:
        return int(self.n) - int(self.p)

    @classmethod
    def from_m(cls, alpha: float, p: int, m: int, rho: float) -> "BoundProblem":
        if not all(math.isfinite(v) and v == int(v) for v in (p, m)):
            raise ValueError("p and m must be integers")
        return cls(alpha=alpha, p=int(p), n=int(p) + int(m), rho=rho)


def selection_threshold(method: SelectionMethod, n: int, p: int) -> float:
    """Finite-sample cutoff d: the submodel is kept iff |T| < d."""
    if n <= p:
        raise ValueError("need n > p")
    m = n - p
    if method.kind in ("aic", "bic"):
        fn = 1.0 if method.kind == "aic" else 0.5 * math.log(n)
        return math.sqrt(math.expm1(2.0 * fn / n) * m)
    if method.kind == "cp":
        return math.sqrt(2.0)
    if method.kind == "adjr2":
        return 1.0
    return t_quantile(m, method.test_size)


def asymptotic_threshold(method: SelectionMethod) -> float:
    """Large-n cutoff d'; ValueError for BIC and t-tests, which have no
    m = inf bound."""
    if method.kind in ("aic", "cp"):
        return math.sqrt(2.0)
    if method.kind == "adjr2":
        return 1.0
    if method.kind == "bic":
        raise ValueError("method 'bic' has no large-sample cutoff: its "
                         "threshold grows without bound with the sample "
                         "size, so the m = inf bound does not apply")
    raise ValueError(f"method {method.kind!r} has no large-sample bound: "
                     "the m = inf bound is defined only for aic, cp and "
                     "adjr2")
