"""Global minimization of a coverage curve over the scaled coefficient.

The curves minimized here (coverage as a function of gamma >= 0) are
smooth but not certifiably unimodal, so the search never assumes
unimodality: a coarse scan of the fixed grid 0, 0.1, 0.2, ..., 30
locates the best basin, a polish refines it to a bracket of width at most
1e-6, and the returned bound is the minimum over every objective
evaluation made along the way plus the gamma -> infinity tail value.  By
construction it is <= the scan-grid minimum.  Ties resolve to the
smallest gamma.  The objective reports each value with its error, and
the result carries the error of the value it reports: the objective's at
gamma_star, or 0.0 when the exact tail value wins.

The scan may stop early, and then only on a certificate from the problem:
a ``tail_slack`` envelope proving that no later grid point can beat the
best value so far (a tie loses to the earlier gamma).  The result is then
identical, bit for bit, to that of the full scan; only unneeded
evaluations go.

The polish is Brent's method (Brent, 1973, ch. 5) from the best grid
point: parabolic steps where the curve allows them, golden-section steps
where it does not, to a bracket whose ends lie within 0.5e-6 of its best
point.  It reads about 7.5 values per finite-m golden-row bound and 8.3
per m = inf one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BoundResult", "minimize_over_gamma", "additive_tail_slack"]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GAMMA_MAX = 30.0   # end of the scan grid
_STEP = 0.1         # scan grid spacing
_REFINE_TOL = 1e-6  # widest final polish bracket
# the scan grid 0, 0.1, ..., 30, in the order the scan visits it
SCAN_GRID = tuple(i * _STEP for i in range(int(round(_GAMMA_MAX / _STEP)) + 1))
_SCAN_INDEX = {g: i for i, g in enumerate(SCAN_GRID)}


@dataclass(frozen=True)
class BoundResult:
    """Minimized value, its argmin, evaluation count, final bracket and
    ``quad_err``, the objective's own error estimate at gamma_star (0.0
    when the exact tail value wins).

    ``bracket`` is Brent's final bracket: both ends lie within
    ``_REFINE_TOL / 2`` of the polish's best point, which counts the best
    grid point it starts from.

    ``evaluations`` counts the objective values the search read, not those
    computed: up to ``coverage._SCAN_BLOCK - 1`` computed grid values go
    unread past the scan's certified stop."""

    bound: float
    gamma_star: float
    evaluations: int
    bracket: tuple[float, float]
    quad_err: float


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


def block_objective(evaluate, block: int):
    """The scalar function of ``evaluate(gammas)``, one result per gamma (a
    (value, err) pair for an objective), memoized.  A grid miss computes
    ``block`` grid points on in one call, any other miss one point."""
    memo: dict[float, object] = {}

    def objective(g: float):
        if g not in memo:
            i = _SCAN_INDEX.get(g)
            gammas = [g] if i is None else list(SCAN_GRID[i:i + block])
            memo.update(zip(gammas, evaluate(gammas)))
        return memo[g]
    return objective


def _brent(f, a: float, b: float, x: float, fx: float) -> tuple[float, float]:
    """Brent's (1973, ch. 5) minimization of ``f`` on [a, b] from the point x
    in it, whose value fx is known, as Numerical Recipes' ``brent`` starts
    from the middle of a bracketing triple (Press et al., section 10.2): a
    step to the vertex of the parabola through the three best points where
    that vertex lies inside the bracket and the step is under half the one
    before last, else a golden-section step into the larger side.  No step
    is shorter than ``_REFINE_TOL / 4``.  It stops once both ends of its
    bracket lie within ``_REFINE_TOL / 2`` of its best point, and returns
    that bracket."""
    tol = _REFINE_TOL / 4.0
    w = v = x  # best, second and third best
    fw = fv = fx
    d = e = 0.0  # the last step and the one before it
    while max(x - a, b - x) > 2.0 * tol:
        m = 0.5 * (a + b)
        step = None
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, step = d, p / q
                if x + step - a < 2.0 * tol or b - (x + step) < 2.0 * tol:
                    step = tol if m >= x else -tol
        if step is None:
            e = (a if x >= m else b) - x
            step = (1.0 - INV_PHI) * e
        d = step
        u = x + (step if abs(step) >= tol else tol if step >= 0.0 else -tol)
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return a, b


def minimize_over_gamma(objective, tail_value: float,
                        tail_slack) -> BoundResult:
    """Minimize ``objective(gamma)``, a (value, err) pair, over gamma >= 0.

    ``tail_value`` is the exact gamma -> infinity limit and competes as a
    final candidate: if it undercuts every evaluation the result reports
    gamma_star = inf and quad_err 0.0.

    ``tail_slack(g)`` must be a rigorous bound, nonincreasing in g, on
    |computed value at g' - tail_value| for every g' >= g (inf where no
    bound is known).  The scan stops before grid point g once
    ``tail_value - tail_slack(g)`` exceeds the best value so far (no later
    point can win), or once ``tail_slack(g)`` is exactly 0 and the best
    value is <= tail_value (every later point equals tail_value and loses
    the smallest-gamma tie).  Either way the result equals that of the
    full scan.

    The polish is Brent's method (``_brent``) on [best - 0.1, best + 0.1]
    within [0, 30], from the best grid point.
    """
    seen: list[tuple[float, float, float]] = []

    def f(g: float) -> float:
        v, err = objective(g)
        seen.append((g, float(v), err))
        return seen[-1][1]

    best_g, best_v = SCAN_GRID[0], f(SCAN_GRID[0])
    for g in SCAN_GRID[1:]:
        s = tail_slack(g)
        if tail_value - s > best_v or (s == 0.0 and tail_value >= best_v):
            break
        v = f(g)
        if v < best_v:
            best_g, best_v = g, v

    lo = max(0.0, best_g - _STEP)
    hi = min(_GAMMA_MAX, best_g + _STEP)
    a, b = _brent(f, lo, hi, best_g, best_v)

    gamma_star, bound, err = min(seen, key=lambda gve: (gve[1], gve[0]))
    if tail_value < bound:
        bound, gamma_star, err = tail_value, math.inf, 0.0
    return BoundResult(bound, gamma_star, len(seen), (a, b), err)
