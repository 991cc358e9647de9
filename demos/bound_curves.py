"""Reproduce the four bound-versus-correlation curve families as CSV.

For each selection method the minimized coverage bound is swept over a
correlation grid at several error degrees of freedom, including the
large-sample limit where one exists (BIC's threshold grows with the
sample size, so its family uses m = 10000 instead of a limit curve).
Output lands in demos/output/, one file per method, matching the CSV
the `covbound curve` subcommand emits.

This is the slowest demo (a few hundred minimizations); expect a few
minutes on one core.
"""

import math
import pathlib

from covbound import SelectionMethod, minimum_coverage

ALPHA = 0.05
RHOS = [round(0.05 * i, 2) for i in range(20)]  # 0.00 ... 0.95

FAMILIES = [
    ("cp", 2, [5, 20, 50, 1000, math.inf]),
    ("adjr2", 2, [5, 20, 50, 1000, math.inf]),
    ("aic", 10, [5, 20, 50, 1000, math.inf]),
    ("bic", 10, [5, 20, 50, 1000, 10000]),
]

out_dir = pathlib.Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

for name, p, ms in FAMILIES:
    method = SelectionMethod.from_name(name)
    lines = ["method,alpha,p,m,rho,bound,gamma_star"]
    for m in ms:
        for rho in RHOS:
            res = minimum_coverage(method, ALPHA, p, m, rho)
            lines.append(f"{name},{ALPHA!r},{p},{m},{rho!r},"
                         f"{res.bound!r},{res.gamma_star!r}")
        tail = [float(l.split(",")[5]) for l in lines[-len(RHOS):]]
        print(f"{name:6s} m={m!s:>5}: bound falls {tail[0]:.3f} -> "
              f"{tail[-1]:.3f} over rho in [0, 0.95]")
    path = out_dir / f"bound_curve_{name}.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"  wrote {path}")
