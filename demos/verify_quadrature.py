"""Cross-check the quadrature engine against direct simulation.

The coverage probability has two independent implementations here: an
adaptive Gauss-Kronrod evaluation of the exact double integral, and a
Monte Carlo estimate that samples the standardized triple (g, h, w) and
applies the selection rule draw by draw.  This script runs both on a
small grid and reports the gap in standard-error units.
"""

from covbound import (BoundProblem, SelectionMethod, coverage_probability,
                      mc_coverage)

ALPHA = 0.05
REPS = 500_000
SEED = 1234
KINDS = ("cp", "adjr2", "bic")

print(f"{'method':>7} {'m':>5} {'rho':>5} {'gamma':>6} "
      f"{'quadrature':>11} {'monte carlo':>11} {'z':>6}")

cells = [(kind, m, rho, gamma) for kind in KINDS
         for m in (5, 20) for rho, gamma in ((0.0, 1.0), (0.5, 0.0), (0.9, 3.0))]
problems = {cell: BoundProblem.from_m(ALPHA, 10, cell[1], cell[2]) for cell in cells}
methods = {kind: SelectionMethod.from_name(kind) for kind in KINDS}

# one Monte Carlo call scores the cells that share m on one stream of draws;
# a cell's estimate is the one its own one-cell call with this seed would give
ests = mc_coverage([(problems[cell], methods[cell[0]], cell[3]) for cell in cells],
                   REPS, seed=SEED)

for cell, est in zip(cells, ests):
    kind, m, rho, gamma = cell
    quad = coverage_probability(problems[cell], methods[kind], gamma)
    z = abs(quad.value - est.estimate) / est.std_err
    print(f"{kind:>7} {m:>5} {rho:>5.2f} {gamma:>6.2f} "
          f"{quad.value:>11.6f} {est.estimate:>11.6f} {z:>6.2f}")

print()
print("Every |z| should sit well below 3; rerunning reproduces the exact")
print("same table because the generator streams derive from the seed.")
print()
print("The same check, with a JSON report, from the command line:")
print("  covbound verify --method cp --m 5,20 --reps 500000")
