"""Command-line interface.

Subcommands
-----------
bound     minimized coverage bound at a single (method, alpha, m, rho)
limit     the same in the large-sample limit (alias for --m inf)
curve     CSV sweep of the bound over a rho grid, one row per (m, rho)
verify    quadrature vs Monte Carlo cross-check grid, JSON report
simulate  empirical coverage of the naive interval from a design file

Exit codes: 0 success, 1 output I/O failure, 2 invalid input,
3 verification failure, 4 numerical failure (a quadrature or a special
function did not converge).

All numeric output uses repr-style shortest round-trip formatting, so a
CSV produced twice from the same configuration and seed is bit-identical,
and parsing plus re-emitting a CSV reproduces the file exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .coverage import coverage_probability, minimum_coverage
from .rules import (METHOD_NAMES, BoundProblem, SelectionMethod,
                    asymptotic_threshold)
from .simulate import SimDesign, empirical_min_coverage, mc_coverage

EXIT_OK = 0
EXIT_IO = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4


class CliError(argparse.ArgumentTypeError):
    """Carries an exit code with the message.  Raised by a flag's type, it
    is argparse's usage error for that flag."""

    def __init__(self, message: str, code: int = EXIT_INPUT) -> None:
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_method(ns) -> SelectionMethod:
    if ns.method == "ttest":
        if ns.test_size is None:
            raise CliError("--test-size is required for method ttest")
        return SelectionMethod("ttest", ns.test_size)
    if ns.test_size is not None:
        raise CliError("--test-size applies to method ttest only")
    return SelectionMethod.from_name(ns.method)


def _m_entry(tok: str) -> int | str:
    if tok.lower() == "inf":
        return "inf"
    m = int(tok)
    if m < 1:
        raise ValueError(tok)
    return m


def _finite_entry(tok: str) -> float:
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(tok)
    return val


# each comma-list flag: how one entry is read (ValueError when it is bad)
# and what a good entry is
_LIST_ENTRIES = {"--m": (_m_entry, "an integer >= 1 or 'inf'"),
                 "--gamma": (_finite_entry, "a finite number"),
                 "--beta-last": (_finite_entry, "a finite number")}


def _parse_list(flag: str, text: str) -> list:
    entry, expected = _LIST_ENTRIES[flag]
    out = []
    for tok in filter(None, map(str.strip, text.split(","))):  # skip empties
        try:
            out.append(entry(tok))
        except ValueError as exc:
            raise CliError(f"bad {flag} entry {tok!r}: expected {expected}") from exc
    if not out:
        raise CliError(f"{flag} list is empty")
    return out


_MAX_RHO_POINTS = 10**6


def _parse_rho_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError("--rho-grid must look like lo:step:hi")
    try:
        lo, step, hi = (float(s) for s in parts)
    except ValueError as exc:
        raise CliError(f"bad --rho-grid {spec!r}") from exc
    if not all(map(math.isfinite, (lo, step, hi))):
        raise CliError(f"bad --rho-grid {spec!r}: lo, step and hi must be finite")
    if step <= 0 or hi < lo:
        raise CliError("--rho-grid needs step > 0 and hi >= lo")
    n = (hi - lo) / step
    if not math.isfinite(n) or round(n) >= _MAX_RHO_POINTS:
        raise CliError(f"--rho-grid {spec!r} has more than {_MAX_RHO_POINTS} points")
    n = round(n)
    grid = [round(lo + i * step, 12) for i in range(n + 1)]
    return [g for g in grid if g <= hi + 1e-12]


def _require(ok, message: str):
    """A check that returns the value, or refuses it with `message`
    (formatted with the value) when `ok` fails."""
    def check(value):
        if not ok(value):
            raise CliError(message.format(value))
        return value
    return check


def _checked(convert, check):
    """A flag's argparse type: `convert` reads the text, and `check` refuses
    the value or returns what the flag stores."""
    def parse(text: str):
        return check(convert(text))
    # argparse names the type of a malformed value: `invalid float value: 'x'`
    parse.__name__ = convert.__name__
    return parse


_unit_rho = _require(lambda r: 0.0 <= r <= 1.0,
                    "rho value {!r} outside [0, 1]; negative rho is "
                    "redundant because the bound is even in rho")
_CURVE_RHOS = _parse_rho_grid("0:0.01:0.99")


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
    res = minimum_coverage(method, alpha, p, math.inf if m == "inf" else m, rho)
    return {"method": method.kind, "alpha": alpha, "p": p, "m": m, "rho": rho,
            "bound": res.bound, "gamma_star": res.gamma_star, "quad_err": res.quad_err}


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
    if ns.rhos is None:
        raise CliError("--rho is required")
    if len(ns.m) != 1:
        raise CliError("bound takes a single --m value")
    rec = _single_bound(method, ns.alpha, ns.p, ns.m[0], ns.rhos[0])
    if ns.format == "csv":
        text = _record_csv([rec], _BOUND_FIELDS + ("quad_err",))
    else:
        text = json.dumps(rec) + "\n"
    _write_text(ns.out, text)
    return EXIT_OK


# ----------------------------------------------------------------------
# curve
# ----------------------------------------------------------------------

def cmd_curve(ns) -> int:
    method = _parse_method(ns)
    # bic and ttest have no large-sample cutoff: fail before any point
    if "inf" in ns.m:
        asymptotic_threshold(method)
    points = [(method, ns.alpha, ns.p, m, rho) for m in ns.m for rho in ns.rhos]
    # no more processes than points or cores: the pool starts them all at once
    workers = min(ns.jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_single_bound, *zip(*points), chunksize=4))
    else:
        records = [_single_bound(*pt) for pt in points]
    if ns.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        text = _record_csv(records)
    _write_text(ns.out, text)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _default_verify_grid(test_size: float | None) -> list[SelectionMethod]:
    # the t test runs at --test-size, 0.05 when it is not given
    ttest = SelectionMethod("ttest", 0.05 if test_size is None else test_size)
    return [SelectionMethod(k) for k in ("cp", "adjr2", "aic", "bic")] + [ttest]


def cmd_verify(ns) -> int:
    if ns.format == "csv":
        raise CliError("verify emits a JSON report; csv is not supported")
    if ns.method == "all":
        methods = _default_verify_grid(ns.test_size)
    else:
        methods = [_parse_method(ns)]
    if 1.0 in ns.rhos:
        raise CliError("verify requires rho < 1")
    if "inf" in ns.m:
        raise CliError("verify runs at finite m only")

    cells = [(method, m, rho, gamma) for method in methods for m in ns.m
             for rho in ns.rhos for gamma in ns.gamma]
    probs = {(m, rho): BoundProblem.from_m(ns.alpha, ns.p, m, rho)
             for m in ns.m for rho in ns.rhos}
    ests = mc_coverage([(probs[m, rho], method, gamma)
                        for method, m, rho, gamma in cells], ns.reps, ns.seed)

    points = []
    failures = []
    for (method, m, rho, gamma), est in zip(cells, ests):
        quad = coverage_probability(probs[m, rho], method, gamma)
        gap = abs(quad.value - est.estimate)
        ok = bool(gap <= 3.0 * est.std_err)
        rec = {"method": method.kind, "alpha": ns.alpha,
               "p": ns.p, "m": m, "rho": rho, "gamma": gamma,
               "quadrature": quad.value, "mc_estimate": est.estimate,
               "std_err": est.std_err, "gap": gap, "pass": ok}
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
        if n < 0 or p < 0:
            raise ValueError("negative size")
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
    design = _read_design(ns.design)
    # each value of the last coefficient, the design's own by default
    grid = [np.append(design.beta[:-1], b)
            for b in ns.beta_last or design.beta[-1:]]
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

def _add_common(sp, *, method: str = "cp") -> None:
    # normalized here, once, as SelectionMethod.from_name reads a name, so
    # `--method TTEST` takes --test-size and `verify --method ALL` is `all`
    sp.add_argument("--method", default=method, type=lambda s: s.strip().lower(),
                    help=f"one of {', '.join(METHOD_NAMES)}")
    sp.add_argument("--alpha", default=0.05, type=_checked(float, _require(
        lambda a: 0.0 < a < 1.0, "alpha must be in (0, 1), got {!r}")))
    sp.add_argument("--test-size", type=float, default=None,
                    help="two-sided size of the t test (method ttest)")
    sp.add_argument("--out", default=None, help="output path ('-' = stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default=None,
                    help="output format (each command has its natural default)")


def _add_problem(sp, *, p: int = 2, m: str | None = "20",
                 rhos: list[float] | None = None) -> None:
    """--p and --rho, plus --m unless the command fixes m.  A command that
    sweeps rho gives its default rho list and takes --rho-grid too,
    exclusive with --rho; either fills ns.rhos."""
    sp.add_argument("--p", default=p, type=_checked(int, _require(
                        lambda p: p >= 2, "--p must be >= 2, got {!r}")),
                    help="number of regressors (m = n - p)")
    if m is not None:
        sp.add_argument("--m", default=m,
                        type=lambda text: _parse_list("--m", text),
                        help="error degrees of freedom; comma list, 'inf' allowed")
    rho = sp if rhos is None else sp.add_mutually_exclusive_group()
    rho.add_argument("--rho", dest="rhos", default=rhos, metavar="RHO",
                     type=_checked(float, lambda r: [_unit_rho(r)]))
    if rhos is not None:
        rho.add_argument("--rho-grid", dest="rhos", default=rhos,
                         metavar="LO:STEP:HI", type=lambda spec: [
                             _unit_rho(r) for r in _parse_rho_grid(spec)])


def _add_monte_carlo(sp, *, reps: int, fewest: int, too_few: str) -> None:
    sp.add_argument("--reps", default=reps, type=_checked(int, _require(
        lambda n: n >= fewest, too_few)))
    sp.add_argument("--seed", default=20090415, type=_checked(int, _require(
        lambda s: s >= 0, "--seed must be >= 0, got {!r}")))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covbound",
        description="Upper bounds on the minimum coverage probability of "
                    "naive confidence intervals after model selection.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str) -> argparse.ArgumentParser:
        # no prefix matching: `limit --m 5` must not be read as --method 5
        return sub.add_parser(name, allow_abbrev=False)

    sp = add("bound")
    _add_common(sp)
    _add_problem(sp)
    sp.set_defaults(func=cmd_bound)

    sp = add("limit")
    _add_common(sp)
    _add_problem(sp, m=None)
    sp.set_defaults(func=cmd_bound, m=["inf"])

    sp = add("curve")
    _add_common(sp)
    _add_problem(sp, rhos=_CURVE_RHOS)
    sp.add_argument("--jobs", default=1, type=_checked(int, _require(
                        lambda n: n >= 1, "--jobs must be >= 1, got {!r}")),
                    help="parallel workers for the rho/m sweep")
    sp.set_defaults(func=cmd_curve)

    # bare `verify` reproduces the cross-check grid the test suite pins:
    # all methods x m {5,20} x rho {0,.5,.9} x gamma {0,1,3}, p = 10,
    # one stream of --reps (default two million) draws per m, shared by
    # that m's 45 points
    sp = add("verify")
    _add_common(sp, method="all")
    _add_problem(sp, p=10, m="5,20", rhos=[0.0, 0.5, 0.9])
    _add_monte_carlo(sp, reps=2_000_000, fewest=10_000, too_few=(
        "verify needs --reps >= 10000 for a meaningful SE"))
    sp.add_argument("--gamma", default="0,1,3",
                    type=lambda text: _parse_list("--gamma", text),
                    help="comma list of gamma values")
    sp.set_defaults(func=cmd_verify)

    # n, p and q come from the design file
    sp = add("simulate")
    _add_common(sp)
    _add_monte_carlo(sp, reps=200_000, fewest=1,
                     too_few="--reps must be positive")
    sp.add_argument("--design", required=True,
                    help="plain-text design file: 'n p q', X rows, "
                         "a row, beta row, sigma")
    sp.add_argument("--beta-last", default=None,
                    type=lambda text: _parse_list("--beta-last", text),
                    help="comma list of values for the last "
                         "coefficient, one table row pair each")
    sp.set_defaults(func=cmd_simulate)
    return ap


# argparse takes a token that starts with '-' for an option unless it is a
# plain number, so `--gamma -1,2` would leave --gamma without its value;
# such a value is attached to its list flag as `--gamma=-1,2`
_LIST_FLAGS = ("--gamma", "--beta-last")
_NEGATIVE_LIST = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _attach_list_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_LIST.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


_parser = functools.cache(build_parser)  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _parser().parse_args(_attach_list_values(argv))
    try:
        return ns.func(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # input the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:  # QuadratureError, non-convergence, a broken pool
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
