"""Global minimization of a coverage curve over the scaled coefficient.

The curves minimized here (coverage as a function of gamma >= 0) are
smooth but not certifiably unimodal, so the search never assumes
unimodality: a coarse scan of the fixed grid 0, 0.1, 0.2, ..., 30
locates the best basin, golden-section refinement polishes it to a
bracket of width 1e-6, and the returned bound is the minimum over every
objective evaluation made along the way plus the gamma -> infinity tail
value.  By construction it is <= the scan-grid minimum.  Ties resolve to
the smallest gamma.  The objective reports each value with its error, and
the result carries the error of the value it reports: the objective's at
gamma_star, or 0.0 when the exact tail value wins.

The scan may stop early, and then only on a certificate from the problem:
a ``tail_slack`` envelope proving that no later grid point can beat the
best value so far (a tie loses to the earlier gamma).  The result is then
identical, bit for bit, to that of the full scan; only unneeded
evaluations go.

Golden section is deterministic, so the polish can look ahead: one call
computes every point its next ``_LOOKAHEAD`` reads could be, either way each
comparison goes.  It reads the same values as without the look-ahead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BoundResult", "minimize_over_gamma", "additive_tail_slack"]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GAMMA_MAX = 30.0   # end of the scan grid
_STEP = 0.1         # scan grid spacing
_REFINE_TOL = 1e-6  # golden-section target bracket width
_LOOKAHEAD = 5      # golden steps whose points one prefetch call carries
# the scan grid 0, 0.1, ..., 30, in the order the scan visits it
SCAN_GRID = tuple(i * _STEP for i in range(int(round(_GAMMA_MAX / _STEP)) + 1))
_SCAN_INDEX = {g: i for i, g in enumerate(SCAN_GRID)}


@dataclass(frozen=True)
class BoundResult:
    """Minimized value, its argmin, evaluation count, final bracket and
    ``quad_err``, the objective's own error estimate at gamma_star (0.0
    when the exact tail value wins).

    ``evaluations`` counts the objective values the search read, not those
    computed: the polish look-ahead computes points it never reads, and up to
    ``coverage._SCAN_BLOCK - 1`` computed grid values go unread past the
    scan's certified stop."""

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
    """The scalar objective of ``evaluate(gammas)``, a (value, err) pair per
    gamma, and ``fill(gammas)``, which computes those not yet computed in
    one call.  A grid miss fills ``block`` grid points on, a polish miss one."""
    memo: dict[float, tuple[float, float]] = {}

    def fill(gammas) -> None:
        if new := [g for g in dict.fromkeys(gammas) if g not in memo]:
            memo.update(zip(new, evaluate(new)))

    def objective(g: float) -> tuple[float, float]:
        if g not in memo:
            i = _SCAN_INDEX.get(g)
            fill([g] if i is None else SCAN_GRID[i:i + block])
        return memo[g]
    return objective, fill


def _golden_step(a, b, c, d, lower: bool):
    """The golden-section step from bracket (a, b) with interior points
    c < d, keeping (a, d) if ``lower`` (fc <= fd), else (c, b): the new
    (a, b, c, d) and its new point."""
    if lower:
        return (a, d, g := d - (d - a) * INV_PHI, c), g
    return (c, b, d, g := c + (b - c) * INV_PHI), g


def _golden_reads(state, steps: int) -> list[float]:
    """Every point the next ``steps`` golden steps from ``state`` could
    read, over both outcomes of each comparison."""
    if steps == 0 or state[1] - state[0] <= _REFINE_TOL:  # the loop's test
        return []
    (lo, g), (hi, h) = _golden_step(*state, True), _golden_step(*state, False)
    return [g, h] + _golden_reads(lo, steps - 1) + _golden_reads(hi, steps - 1)


def minimize_over_gamma(objective, tail_value: float, tail_slack,
                        prefetch) -> BoundResult:
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

    ``prefetch(gammas)`` computes gammas for ``objective`` in one call
    (None: no look-ahead).  Each polish point not yet handed to it goes
    there with every point the next ``_LOOKAHEAD - 1`` steps could read.
    """
    seen: list[tuple[float, float, float]] = []

    def f(g: float) -> float:
        v, err = objective(g)
        seen.append((g, float(v), err))
        return seen[-1][1]

    fetched: set[float] = set()

    def ahead(first, state) -> None:
        if prefetch is not None and first[0] not in fetched:
            gammas = first + _golden_reads(state, _LOOKAHEAD - 1)
            fetched.update(gammas)
            prefetch(gammas)

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
    a, b = lo, hi
    c = b - (b - a) * INV_PHI
    d = a + (b - a) * INV_PHI
    ahead([c, d], (a, b, c, d))
    fc, fd = f(c), f(d)
    while b - a > _REFINE_TOL:
        lower = fc <= fd
        (a, b, c, d), g = _golden_step(a, b, c, d, lower)
        ahead([g], (a, b, c, d))
        fc, fd = (f(g), fc) if lower else (fd, f(g))

    gamma_star, bound, err = min(seen, key=lambda gve: (gve[1], gve[0]))
    if tail_value < bound:
        bound, gamma_star, err = tail_value, math.inf, 0.0
    return BoundResult(bound, gamma_star, len(seen), (a, b), err)
