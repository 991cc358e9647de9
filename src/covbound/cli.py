"""Command-line interface.

Subcommands
-----------
bound     minimized coverage bound at a single (method, alpha, m, rho)
limit     the same in the large-sample limit (alias for --m inf)
curve     CSV sweep of the bound over a rho grid, one row per (m, rho)
verify    quadrature vs Monte Carlo cross-check grid, JSON report
simulate  empirical coverage of the naive interval from a design file

Exit codes: 0 success, 1 output I/O failure, 2 invalid input,
3 verification failure.

All numeric output uses repr-style shortest round-trip formatting, so a
CSV produced twice from the same configuration and seed is bit-identical,
and parsing plus re-emitting a CSV reproduces the file exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .asymptotic import asymptotic_bound, asymptotic_problem
from .coverage import coverage_bound, coverage_probability, perfect_corr_bound
from .rules import (METHOD_NAMES, NOT_APPLICABLE, BoundProblem,
                    SelectionMethod, asymptotic_threshold)
from .simulate import SimDesign, empirical_min_coverage, mc_coverage
from .special import norm_cdf, norm_two_sided_quantile

EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3

_INF_MESSAGE = ("method '{0}' has no large-sample cutoff: its threshold "
                "grows without bound with the sample size, so the m = inf "
                "bound does not apply")


class CliError(Exception):
    """Carries an exit code with the message."""

    def __init__(self, message: str, code: int = EXIT_INPUT) -> None:
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_method(ns) -> SelectionMethod:
    try:
        if ns.method == "ttest":
            if ns.test_size is None:
                raise ValueError("--test-size is required for method ttest")
            return SelectionMethod("ttest", ns.test_size)
        if ns.test_size is not None:
            raise ValueError("--test-size applies to method ttest only")
        return SelectionMethod.from_name(ns.method)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_m_list(text: str) -> list[int | str]:
    out: list[int | str] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.lower() == "inf":
            out.append("inf")
            continue
        try:
            m = int(tok)
        except ValueError as exc:
            raise CliError(f"bad --m entry {tok!r}: expected integer or 'inf'") from exc
        if m < 1:
            raise CliError(f"bad --m entry {tok!r}: m must be >= 1")
        out.append(m)
    if not out:
        raise CliError("--m list is empty")
    return out


def _parse_rho_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError("--rho-grid must look like lo:step:hi")
    try:
        lo, step, hi = (float(s) for s in parts)
    except ValueError as exc:
        raise CliError(f"bad --rho-grid {spec!r}") from exc
    if step <= 0 or hi < lo:
        raise CliError("--rho-grid needs step > 0 and hi >= lo")
    n = int(round((hi - lo) / step))
    grid = [round(lo + i * step, 12) for i in range(n + 1)]
    return [g for g in grid if g <= hi + 1e-12]


def _check_rho_values(values: list[float]) -> None:
    if not values:
        raise CliError("rho grid is empty")
    for r in values:
        if not 0.0 <= r <= 1.0:
            raise CliError(f"rho value {r!r} outside [0, 1]; negative rho is "
                           "redundant because the bound is even in rho")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise CliError(f"alpha must be in (0, 1), got {alpha!r}")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path!r}: {exc}", EXIT_IO) from exc


# ----------------------------------------------------------------------
# bound / limit
# ----------------------------------------------------------------------

def _single_bound(method: SelectionMethod, alpha: float, p: int,
                  m: int | str, rho: float) -> dict:
    """One bound record; m is an integer or the string 'inf'."""
    if m == "inf":
        if asymptotic_threshold(method) is NOT_APPLICABLE:
            raise CliError(_INF_MESSAGE.format(method.kind))
        if rho == 1.0:
            # the limit of the perfect-correlation bound as m -> inf
            z = norm_two_sided_quantile(alpha)
            d = asymptotic_threshold(method)
            val = 0.0 if d >= z else 2.0 * (norm_cdf(z) - norm_cdf(d))
            return {"method": method.kind, "alpha": alpha, "p": p, "m": "inf",
                    "rho": rho, "bound": val, "gamma_star": math.nan,
                    "quad_err": 0.0}
        prob = asymptotic_problem(method, alpha, rho)
        res = asymptotic_bound(prob)
        return {"method": method.kind, "alpha": alpha, "p": p, "m": "inf",
                "rho": rho, "bound": res.bound, "gamma_star": res.gamma_star,
                "quad_err": 1e-10}
    prob = BoundProblem.from_m(alpha, p, m, rho)
    if rho == 1.0:
        val = perfect_corr_bound(prob, method)
        return {"method": method.kind, "alpha": alpha, "p": p, "m": m,
                "rho": rho, "bound": val, "gamma_star": math.nan,
                "quad_err": 0.0}
    res = coverage_bound(prob, method)
    return {"method": method.kind, "alpha": alpha, "p": p, "m": m,
            "rho": rho, "bound": res.bound, "gamma_star": res.gamma_star,
            "quad_err": res.quad_err}


_BOUND_FIELDS = ("method", "alpha", "p", "m", "rho", "bound", "gamma_star")


def _record_csv(records: list[dict], fields=_BOUND_FIELDS) -> str:
    lines = [",".join(fields)]
    for rec in records:
        cells = []
        for f in fields:
            v = rec[f]
            cells.append(v if isinstance(v, str) else
                         str(v) if isinstance(v, int) else _fmt(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_bound(ns) -> int:
    method = _parse_method(ns)
    _check_alpha(ns.alpha)
    if ns.rho is None:
        raise CliError("--rho is required")
    _check_rho_values([ns.rho])
    ms = _parse_m_list(ns.m)
    if len(ms) != 1:
        raise CliError("bound takes a single --m value")
    rec = _single_bound(method, ns.alpha, ns.p, ms[0], ns.rho)
    if ns.format == "csv":
        text = _record_csv([rec], _BOUND_FIELDS + ("quad_err",))
    else:
        text = json.dumps(rec) + "\n"
    _write_text(ns.out, text)
    return EXIT_OK


def cmd_limit(ns) -> int:
    ns.m = "inf"
    return cmd_bound(ns)


# ----------------------------------------------------------------------
# curve
# ----------------------------------------------------------------------

def _curve_point(args) -> dict:
    method, alpha, p, m, rho = args
    return _single_bound(method, alpha, p, m, rho)


def cmd_curve(ns) -> int:
    method = _parse_method(ns)
    _check_alpha(ns.alpha)
    if ns.rho_grid is not None:
        rhos = _parse_rho_grid(ns.rho_grid)
    elif ns.rho is not None:
        rhos = [ns.rho]
    else:
        rhos = _parse_rho_grid("0:0.01:0.99")
    _check_rho_values(rhos)
    ms = _parse_m_list(ns.m)
    for m in ms:
        if m == "inf" and asymptotic_threshold(method) is NOT_APPLICABLE:
            raise CliError(_INF_MESSAGE.format(method.kind))
    points = [(method, ns.alpha, ns.p, m, rho) for m in ms for rho in rhos]
    if ns.jobs > 1:
        with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
            records = list(pool.map(_curve_point, points, chunksize=4))
    else:
        records = [_curve_point(pt) for pt in points]
    if ns.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        text = _record_csv(records)
    _write_text(ns.out, text)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _default_verify_grid(test_size: float) -> list[SelectionMethod]:
    methods = [SelectionMethod("cp"), SelectionMethod("adjr2"),
               SelectionMethod("aic"), SelectionMethod("bic"),
               SelectionMethod("ttest", test_size)]
    return methods


def cmd_verify(ns) -> int:
    _check_alpha(ns.alpha)
    if ns.format == "csv":
        raise CliError("verify emits a JSON report; csv is not supported")
    if ns.reps < 10_000:
        raise CliError("verify needs --reps >= 10000 for a meaningful SE")
    if ns.method == "all":
        methods = _default_verify_grid(ns.test_size or 0.05)
    else:
        methods = [_parse_method(ns)]
    rhos = ([ns.rho] if ns.rho is not None
            else _parse_rho_grid(ns.rho_grid) if ns.rho_grid is not None
            else [0.0, 0.5, 0.9])
    _check_rho_values(rhos)
    if any(r == 1.0 for r in rhos):
        raise CliError("verify requires rho < 1")
    gammas = [float(g) for g in ns.gamma.split(",")] if ns.gamma else [0.0, 1.0, 3.0]
    ms = _parse_m_list(ns.m)
    if "inf" in ms:
        raise CliError("verify runs at finite m only")

    points = []
    failures = []
    for method in methods:
        for m in ms:
            for rho in rhos:
                for gamma in gammas:
                    prob = BoundProblem.from_m(ns.alpha, ns.p, m, rho)
                    quad = coverage_probability(prob, method, gamma)
                    mc = mc_coverage(prob, method, gamma, ns.reps, ns.seed)
                    gap = abs(quad.value - mc.estimate)
                    ok = bool(gap <= 3.0 * mc.std_err)
                    rec = {"method": method.kind, "alpha": ns.alpha,
                           "p": ns.p, "m": m, "rho": rho, "gamma": gamma,
                           "quadrature": quad.value, "mc_estimate": mc.estimate,
                           "std_err": mc.std_err, "gap": gap, "pass": ok}
                    points.append(rec)
                    if not ok:
                        failures.append(rec)
    report = {"reps": ns.reps, "seed": ns.seed, "n_points": len(points),
              "n_failures": len(failures), "points": points}
    _write_text(ns.out, json.dumps(report, indent=2) + "\n")
    if failures:
        for rec in failures:
            print(f"FAIL {rec['method']} m={rec['m']} rho={rec['rho']} "
                  f"gamma={rec['gamma']}: |{rec['quadrature']:.6f} - "
                  f"{rec['mc_estimate']:.6f}| > 3*{rec['std_err']:.6f}",
                  file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def _read_design(path: str) -> SimDesign:
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise CliError(f"cannot read design file {path!r}: {exc}") from exc
    try:
        it = iter(tokens)
        n, p, q = int(next(it)), int(next(it)), int(next(it))
        vals = [float(next(it)) for _ in range(n * p + 2 * p + 1)]
    except (StopIteration, ValueError) as exc:
        raise CliError(f"malformed design file {path!r}: expected 'n p q', "
                       "then n*p X entries, a row, beta row, sigma") from exc
    extra = sum(1 for _ in it)
    if extra:
        raise CliError(f"malformed design file {path!r}: {extra} trailing values")
    X = np.array(vals[:n * p]).reshape(n, p)
    a = np.array(vals[n * p:n * p + p])
    beta = np.array(vals[n * p + p:n * p + 2 * p])
    sigma = vals[-1]
    try:
        return SimDesign(X, a, q, beta, sigma)
    except ValueError as exc:
        raise CliError(f"invalid design: {exc}") from exc


def cmd_simulate(ns) -> int:
    method = _parse_method(ns)
    _check_alpha(ns.alpha)
    if ns.reps < 1:
        raise CliError("--reps must be positive")
    design = _read_design(ns.design)
    if ns.beta_last:
        try:
            lasts = [float(t) for t in ns.beta_last.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --beta-last list {ns.beta_last!r}") from exc
        grid = []
        for b in lasts:
            row = np.array(design.beta, copy=True)
            row[-1] = b
            grid.append(row)
    else:
        grid = [design.beta]
    rows = empirical_min_coverage(design, method, ns.alpha, grid,
                                  ns.reps, ns.seed)
    records = []
    for row in rows:
        for fam, cov, se in (("full", row.coverage_full, row.std_err_full),
                             ("pair", row.coverage_pair, row.std_err_pair)):
            rec = {"method": method.kind, "family": fam, "alpha": ns.alpha,
                   "n": design.n, "p": design.p, "q": design.q}
            for j, b in enumerate(row.beta):
                rec[f"beta_{j + 1}"] = b
            rec.update(reps=row.reps, coverage=cov, std_err=se, seed=ns.seed)
            records.append(rec)
    if ns.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        fields = tuple(records[0].keys()) if records else ()
        text = _record_csv(records, fields)
    _write_text(ns.out, text)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_common(sp, *, method="cp", m="20", p=2) -> None:
    sp.add_argument("--method", default=method,
                    help=f"one of {', '.join(METHOD_NAMES)}")
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--p", type=int, default=p,
                    help="number of regressors (m = n - p)")
    sp.add_argument("--m", default=m,
                    help="error degrees of freedom; comma list, 'inf' allowed")
    sp.add_argument("--rho", type=float, default=None)
    sp.add_argument("--rho-grid", default=None, metavar="LO:STEP:HI")
    sp.add_argument("--test-size", type=float, default=None,
                    help="two-sided size of the t test (method ttest)")
    sp.add_argument("--out", default=None, help="output path ('-' = stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default=None,
                    help="output format (each command has its natural default)")


def _add_monte_carlo(sp, *, reps: int) -> None:
    sp.add_argument("--reps", type=int, default=reps)
    sp.add_argument("--seed", type=int, default=20090415)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covbound",
        description="Upper bounds on the minimum coverage probability of "
                    "naive confidence intervals after model selection.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("bound", cmd_bound), ("limit", cmd_limit),
                     ("curve", cmd_curve), ("verify", cmd_verify),
                     ("simulate", cmd_simulate)):
        sp = sub.add_parser(name)
        if name == "verify":
            # bare `verify` reproduces the cross-check grid the test
            # suite pins: all methods x m {5,20} x rho {0,.5,.9} x
            # gamma {0,1,3}, p = 10, two million draws per point
            _add_common(sp, method="all", m="5,20", p=10)
            _add_monte_carlo(sp, reps=2_000_000)
            sp.add_argument("--gamma", default=None,
                            help="comma list of gamma values")
        else:
            _add_common(sp)
        if name == "curve":
            sp.add_argument("--jobs", type=int, default=1,
                            help="parallel workers for the rho/m sweep")
        if name == "simulate":
            _add_monte_carlo(sp, reps=200_000)
            sp.add_argument("--design", required=True,
                            help="plain-text design file: 'n p q', X rows, "
                                 "a row, beta row, sigma")
            sp.add_argument("--beta-last", default=None,
                            help="comma list of values for the last "
                                 "coefficient, one table row pair each")
        sp.set_defaults(func=fn)
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
