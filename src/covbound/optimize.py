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

The polish is Brent's method (Brent, 1973, ch. 5) for a search without
a ``prefetch``, which is every finite-m bound: parabolic steps where the
curve allows them, golden-section steps where it does not, from the best
grid point: about 7.5 reads per golden-row bound.  A search with a ``prefetch`` (the m = inf
bound) polishes by golden section with look-ahead, for now: Brent would
move the m = inf row that the benchmark pins at |d bound| 0 by one ulp.
Golden section is deterministic, so that polish can look ahead: one call
computes every point its next ``_LOOKAHEAD`` reads could be, either way
each comparison goes.  It reads the same values as without the
look-ahead.  A look-ahead cannot serve Brent, whose parabolic steps
depend on the values read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BoundResult", "minimize_over_gamma", "additive_tail_slack"]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GAMMA_MAX = 30.0   # end of the scan grid
_STEP = 0.1         # scan grid spacing
_REFINE_TOL = 1e-6  # widest final polish bracket, Brent's or golden section's
_LOOKAHEAD = 5      # golden steps whose points one prefetch call carries
# the scan grid 0, 0.1, ..., 30, in the order the scan visits it
SCAN_GRID = tuple(i * _STEP for i in range(int(round(_GAMMA_MAX / _STEP)) + 1))
_SCAN_INDEX = {g: i for i, g in enumerate(SCAN_GRID)}


@dataclass(frozen=True)
class BoundResult:
    """Minimized value, its argmin, evaluation count, final bracket and
    ``quad_err``, the objective's own error estimate at gamma_star (0.0
    when the exact tail value wins).

    ``bracket`` is the polish's final bracket, at most ``_REFINE_TOL`` wide
    and around the polish's best point: Brent's (finite m), which counts
    the best grid point it starts from, has both ends within
    ``_REFINE_TOL / 2`` of it; golden section's (m = inf) is wider than
    ``INV_PHI * _REFINE_TOL``.

    ``evaluations`` counts the objective values the search read, not those
    computed: the golden look-ahead computes points it never reads, and up
    to ``coverage._SCAN_BLOCK - 1`` computed grid values go unread past the
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


def _golden(f, a: float, b: float, prefetch) -> tuple[float, float]:
    """Golden-section minimization of ``f`` on (a, b) to a bracket of width
    at most ``_REFINE_TOL``, which it returns.  Each point not yet handed to
    ``prefetch`` goes there with every point the next ``_LOOKAHEAD - 1``
    steps could read."""
    fetched: set[float] = set()

    def ahead(first, state) -> None:
        if first[0] not in fetched:
            gammas = first + _golden_reads(state, _LOOKAHEAD - 1)
            fetched.update(gammas)
            prefetch(gammas)

    c = b - (b - a) * INV_PHI
    d = a + (b - a) * INV_PHI
    ahead([c, d], (a, b, c, d))
    fc, fd = f(c), f(d)
    while b - a > _REFINE_TOL:
        lower = fc <= fd
        (a, b, c, d), g = _golden_step(a, b, c, d, lower)
        ahead([g], (a, b, c, d))
        fc, fd = (f(g), fc) if lower else (fd, f(g))
    return a, b


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

    With ``prefetch`` None the polish is Brent's method (``_brent``), from
    the best grid point.
    Otherwise it is golden section (``_golden``), and ``prefetch(gammas)``
    computes gammas for ``objective`` in one call: each polish point not yet
    handed to it goes there with every point the next ``_LOOKAHEAD - 1``
    steps could read.
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
    if prefetch is None:
        a, b = _brent(f, lo, hi, best_g, best_v)
    else:
        a, b = _golden(f, lo, hi, prefetch)

    gamma_star, bound, err = min(seen, key=lambda gve: (gve[1], gve[0]))
    if tail_value < bound:
        bound, gamma_star, err = tail_value, math.inf, 0.0
    return BoundResult(bound, gamma_star, len(seen), (a, b), err)
