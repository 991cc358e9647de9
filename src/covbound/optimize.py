"""Global minimization of a coverage curve over the scaled coefficient.

The curves minimized here (coverage as a function of gamma >= 0) are
smooth but not certifiably unimodal, so the search never assumes
unimodality: a coarse scan of the grid 0, step, 2 step, ... up to
gamma_max locates the best basin, golden-section refinement polishes it,
and the returned bound is the minimum over every objective evaluation made
along the way plus the gamma -> infinity tail candidate.  By construction
it is <= the scan-grid minimum.  Ties resolve to the smallest gamma.

The scan may stop early, and then only on a certificate from the problem:
a ``tail_slack`` envelope proving that no later grid point can beat the
best value so far (a tie loses to the earlier gamma).  The result is then
identical, bit for bit, to that of the full scan; only unneeded
evaluations go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SearchConfig", "BoundResult", "minimize_over_gamma",
           "additive_tail_slack"]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SearchConfig:
    """Scan range/step and the golden-section target width."""

    gamma_max: float = 30.0
    step: float = 0.1
    refine_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.gamma_max > 0 and 0 < self.step <= self.gamma_max):
            raise ValueError("require gamma_max > 0 and 0 < step <= gamma_max")
        if not 0 < self.refine_tol < 1:
            raise ValueError("refine_tol must lie in (0, 1)")


DEFAULT_SEARCH = SearchConfig()


@dataclass(frozen=True)
class BoundResult:
    """Minimized value, its argmin, evaluation count, final bracket.

    ``quad_err`` is the objective's own error estimate at gamma_star, set
    by callers whose objective reports one (None otherwise).
    """

    bound: float
    gamma_star: float
    evaluations: int
    bracket: tuple[float, float]
    quad_err: float | None = None


def additive_tail_slack(tail_value: float, correction_bound):
    """``tail_slack`` for an objective computed as ``tail_value`` plus at
    most two correction terms, one floating-point addition each.

    ``correction_bound(g)`` must bound the summed magnitudes of the computed
    corrections at every g' >= g (inf where no bound is known).  Below a
    quarter ulp of ``tail_value`` each addition rounds back to
    ``tail_value`` exactly, so the slack is exactly 0; above it, two ulps
    cover the rounding of the additions.
    """
    ulp = math.ulp(tail_value)

    def tail_slack(g: float) -> float:
        c = correction_bound(g)
        return 0.0 if c < 0.25 * ulp else c + 2.0 * ulp
    return tail_slack


def minimize_over_gamma(objective, config: SearchConfig | None = None,
                        tail_value: float | None = None,
                        tail_slack=None) -> BoundResult:
    """Minimize ``objective(gamma)`` over gamma >= 0.

    ``tail_value``, when given, is the known gamma -> infinity limit and
    competes as a final candidate: if it undercuts every evaluation the
    result reports gamma_star = inf.

    ``tail_slack(g)``, when given, must be a rigorous bound, nonincreasing
    in g, on |computed objective(g') - tail_value| for every g' >= g.  The
    scan then stops before grid point g once ``tail_value - tail_slack(g)``
    exceeds the best value so far (no later point can win), or once
    ``tail_slack(g)`` is exactly 0 and the best value is <= tail_value
    (every later point equals tail_value and loses the smallest-gamma
    tie).  Either way the result equals that of the full scan.
    """
    cfg = config or DEFAULT_SEARCH
    if tail_slack is not None and tail_value is None:
        raise ValueError("tail_slack needs tail_value")
    seen: list[tuple[float, float]] = []

    def f(g: float) -> float:
        v = float(objective(g))
        seen.append((g, v))
        return v

    n_grid = int(round(cfg.gamma_max / cfg.step))
    best_g, best_v = 0.0, f(0.0)
    for i in range(1, n_grid + 1):
        g = i * cfg.step
        if tail_slack is not None:
            s = tail_slack(g)
            if tail_value - s > best_v or (s == 0.0 and tail_value >= best_v):
                break
        v = f(g)
        if v < best_v:
            best_g, best_v = g, v

    lo = max(0.0, best_g - cfg.step)
    hi = min(cfg.gamma_max, best_g + cfg.step)
    a, b = lo, hi
    c = b - (b - a) * INV_PHI
    d = a + (b - a) * INV_PHI
    fc, fd = f(c), f(d)
    while b - a > cfg.refine_tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * INV_PHI
            fd = f(d)

    gamma_star, bound = min(seen, key=lambda gv: (gv[1], gv[0]))
    if tail_value is not None and tail_value < bound:
        bound, gamma_star = tail_value, math.inf
    return BoundResult(bound=bound, gamma_star=gamma_star,
                       evaluations=len(seen), bracket=(a, b))
