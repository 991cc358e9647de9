"""Seeded workloads for the covbound benchmark and their correctness checks.

Every workload is a fixed list of ``covbound`` command lines (``Op``)
chosen from the benchmark seed; a round runs the list once, in an order
seeded by (seed, round) (``simulate``: in a fixed order), so two processes
given the same seed replay the same calls.  The program sees nothing but those argv lists and the design
file written at set-up.

Checks run after the timed loop, on the captured CLI output:

* ``curve`` / ``limit``: each printed row is looked up in the golden
  curve CSVs by (method, m, rho) as the CLI prints them; a |d bound|
  above ``GATE_DBOUND`` fails the row.
* ``verify`` / ``simulate``: a quadrature-vs-Monte-Carlo gap above
  ``GATE_GAP_SE`` standard errors fails the point only if the same CLI
  call for that one point, at another Monte Carlo seed, exceeds it too.
  A correct program exceeds 3 SE on 0.27% of points by chance; across the
  many seeds a benchmark runs, an unconfirmed gate would fail correct code,
  while a real defect shows at both seeds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import covbound.cli
from covbound.coverage import coverage_probability
from covbound.rules import BoundProblem, SelectionMethod

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FAMILIES = ("cp", "adjr2", "aic", "bic")
GATE_DBOUND = 1e-9
GATE_GAP_SE = 3.0
CONFIRM_SEED_OFFSET = 1_000_003

SIM_N, SIM_P, SIM_Q = 40, 4, 1
SIM_GAMMAS = (0.0, 0.75, 1.5, 2.5, 4.0)
# ttest runs about half as many reps per second as aic; at these counts the
# two calls take about the same time, so the median call latency is a
# middle value, not the gap between two clusters
SIM_REPS = {"aic": 100_000, "ttest": 50_000}
SIM_TEST_SIZE = 0.05
VERIFY_POINTS = 90  # bare `verify`: 5 methods x m {5, 20} x 3 rho x 3 gamma
VERIFY_TEST_SIZE = 0.05  # the ttest size bare `verify` uses


@dataclass(frozen=True)
class Op:
    """One CLI call: the operations it attempts (bounds, verify points or
    simulate rows) and the work it does (the same, or rows x reps)."""

    argv: tuple[str, ...]
    units: int
    work: int


@dataclass
class Outcome:
    """What one CLI call returned; ``error`` names an exception it raised."""

    op: Op
    code: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


@dataclass
class Tally:
    """Attempted and failed operations plus the accuracy maxima."""

    attempted: int = 0
    failed: int = 0
    max_abs_dbound: float = 0.0
    max_abs_dgamma: float = 0.0
    max_gap_se: float = 0.0
    notes: list[str] = field(default_factory=list)

    def fail(self, n: int, note: str) -> None:
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(note)

    def merge(self, other: "Tally") -> None:
        """Fold in the failures and maxima (not the attempts) of ``other``."""
        self.failed += other.failed
        self.notes.extend(other.notes[:max(0, 20 - len(self.notes))])
        self.max_abs_dbound = max(self.max_abs_dbound, other.max_abs_dbound)
        self.max_abs_dgamma = max(self.max_abs_dgamma, other.max_abs_dgamma)
        self.max_gap_se = max(self.max_gap_se, other.max_gap_se)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# golden rows
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenRow:
    method: str
    alpha: str
    p: str
    m: str
    rho: str
    bound: str
    gamma_star: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.method, self.m, self.rho)


def load_golden(directory: Path = GOLDEN_DIR) -> dict[tuple[str, str, str], GoldenRow]:
    """Golden curve rows keyed on (method, m, rho) as printed by the CLI."""
    rows: dict[tuple[str, str, str], GoldenRow] = {}
    for fam in GOLDEN_FAMILIES:
        with open(directory / f"bound_curve_{fam}.csv", newline="") as fh:
            for rec in csv.DictReader(fh):
                row = GoldenRow(**rec)
                rows[row.key] = row
    return rows


def gap_se(a: float, b: float, se: float) -> float:
    """|a - b| in standard errors (inf for a nonzero gap at se = 0)."""
    gap = abs(a - b)
    return gap / se if se > 0.0 else (0.0 if gap == 0.0 else math.inf)


def call_cli(argv: list[str]) -> str:
    """Standard output of one in-process ``covbound`` call (a confirmation
    re-run); exit codes 0 and 3 (verify's own gate) carry a report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = covbound.cli.main(argv)
    if code not in (0, 3):
        raise ValueError(f"confirmation run {argv} exited with {code}")
    return out.getvalue()


def num_diff(a: str, b: str) -> float:
    """|a - b| for printed floats; equal values (inf == inf, nan == nan) give 0."""
    fa, fb = float(a), float(b)
    if fa == fb or (math.isnan(fa) and math.isnan(fb)):
        return 0.0
    return abs(fa - fb)


def golden_diffs(csv_text: str, golden) -> list[tuple[tuple[str, str, str], float, float]]:
    """(key, |d bound|, |d gamma_star|) for each row of a ``curve`` CSV."""
    out = []
    for rec in csv.DictReader(io.StringIO(csv_text)):
        key = (rec["method"], rec["m"], rec["rho"])
        ref = golden[key]
        out.append((key, num_diff(rec["bound"], ref.bound),
                    num_diff(rec["gamma_star"], ref.gamma_star)))
    return out


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """A fixed list of calls, ``ops``, chosen from the seed at set-up;
    round k runs them in an order seeded by (seed, k).  ``check`` scores
    the outputs.

    ``speed_kernel`` names the host-speed reference kernel
    (``hostspeed.py``) its timings are scaled by; ``tick_after``, if set,
    names a ``covbound.cli`` function after each call of which the
    reference is read again, for calls too long to bracket."""

    name = ""
    ok_codes = (0,)
    speed_kernel = "large"
    tick_after: str | None = None

    def __init__(self, seed: int, workdir: Path) -> None:
        # workdir holds generated input files; only simulate writes one
        self.seed = seed
        self.ops: list[Op] = []

    def round(self, k: int) -> list[Op]:
        ops = list(self.ops)
        random.Random(f"{self.name}/{self.seed}/{k}").shuffle(ops)
        return ops

    def check(self, outcomes: list[Outcome]) -> Tally:
        """Score every call; identical outputs of repeated calls are checked once."""
        tally = Tally()
        seen: dict[tuple, Tally] = {}
        for oc in outcomes:
            tally.attempted += oc.op.units
            argv = " ".join(oc.op.argv)
            if oc.error is not None or oc.code not in self.ok_codes:
                tally.fail(oc.op.units, f"{argv}: {oc.error or f'exit {oc.code}'} "
                           f"{oc.stderr.strip()[:200]}")
                continue
            key = (oc.op.argv, oc.code, oc.stdout)
            if key not in seen:
                seen[key] = sub = Tally()
                try:
                    self.check_output(oc, sub)
                except (KeyError, ValueError) as exc:
                    sub.fail(oc.op.units, f"{argv}: bad output ({exc!r})")
            tally.merge(seen[key])
        return tally

    def check_output(self, oc: Outcome, tally: Tally) -> None:
        raise NotImplementedError


class _GoldenCurve(Workload):
    """Bounds from ``covbound curve`` compared with the golden rows."""

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.golden = load_golden()

    def _op(self, row: GoldenRow) -> Op:
        argv = ("curve", "--method", row.method, "--alpha", row.alpha,
                "--p", row.p, "--m", row.m, "--rho", row.rho, "--jobs", "1")
        return Op(argv, 1, 1)

    def check_output(self, oc: Outcome, tally: Tally) -> None:
        diffs = golden_diffs(oc.stdout, self.golden)
        if len(diffs) != oc.op.units:
            raise ValueError(f"{len(diffs)} rows, expected {oc.op.units}")
        for key, db, dg in diffs:
            tally.max_abs_dbound = max(tally.max_abs_dbound, db)
            tally.max_abs_dgamma = max(tally.max_abs_dgamma, dg)
            if not db <= GATE_DBOUND:
                tally.fail(1, f"{key}: |d bound| = {db!r} > {GATE_DBOUND}")


class CurveWorkload(_GoldenCurve):
    """20 finite-m rows, one at each golden rho: each family 5 times, at
    each of its m values (so bic at m = 10000) plus seeded repeats; the
    seed decides which (family, m) goes with which rho."""

    name = "curve"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(f"curve/{seed}")
        finite = [r for r in self.golden.values() if r.m != "inf"]
        rhos = sorted({r.rho for r in finite}, key=float)
        # the cost of a bound depends on rho, family and m; covering every
        # rho and balancing family and m keeps the work the same per seed
        per_family = len(rhos) // len(GOLDEN_FAMILIES)
        slots = []
        for fam in GOLDEN_FAMILIES:
            ms = sorted({r.m for r in finite if r.method == fam}, key=int)
            ms += [rng.choice(ms) for _ in range(per_family - len(ms))]
            slots += [(fam, m) for m in ms]
        rng.shuffle(slots)
        self.ops = [self._op(self.golden[(fam, m, rho)]) for (fam, m), rho in zip(slots, rhos)]


class LimitWorkload(_GoldenCurve):
    """The 60 m = inf rows (``cp``, ``adjr2``, ``aic``)."""

    name = "limit"
    speed_kernel = "small"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.ops = [self._op(r) for _, r in sorted(self.golden.items()) if r.m == "inf"]


class VerifyWorkload(Workload):
    """Bare ``covbound verify --seed <seed>``: the default 90-point grid."""

    name = "verify"
    ok_codes = (0, 3)  # 3: the CLI's own 3-SE check flagged a point
    tick_after = "mc_coverage"  # one call is the whole 90-point grid

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.ops = [Op(("verify", "--seed", str(seed)), VERIFY_POINTS, VERIFY_POINTS)]

    def check_output(self, oc: Outcome, tally: Tally) -> None:
        report = json.loads(oc.stdout)
        points = report["points"]
        if len(points) != oc.op.units:
            raise ValueError(f"{len(points)} points, expected {oc.op.units}")
        for pt in points:
            z = gap_se(pt["quadrature"], pt["mc_estimate"], pt["std_err"])
            tally.max_gap_se = max(tally.max_gap_se, z)
            if z <= GATE_GAP_SE:
                continue
            argv = ["verify", "--method", pt["method"], "--alpha", repr(pt["alpha"]),
                    "--p", str(pt["p"]), "--m", str(pt["m"]), "--rho", repr(pt["rho"]),
                    "--gamma", repr(pt["gamma"]), "--reps", str(report["reps"]),
                    "--seed", str(self.seed + CONFIRM_SEED_OFFSET)]
            if pt["method"] == "ttest":
                argv += ["--test-size", repr(VERIFY_TEST_SIZE)]
            (again,) = json.loads(call_cli(argv))["points"]
            z2 = gap_se(again["quadrature"], again["mc_estimate"], again["std_err"])
            if z2 > GATE_GAP_SE:
                tally.fail(1, f"verify {pt['method']} m={pt['m']} rho={pt['rho']} "
                           f"gamma={pt['gamma']}: gap {z:.2f} SE, confirmed {z2:.2f} SE")


def make_design(seed: int):
    """Seeded regression design (n = 40, p = 4, q = 1) and its beta-last grid.

    Column 0 is the protected intercept, the target is beta_2 and column 4
    is correlated with column 2, so the canonical rho is about -0.6.
    Returns (X, a, beta, sigma, beta_last_grid).
    """
    rng = np.random.default_rng(seed)
    X = np.empty((SIM_N, SIM_P))
    X[:, 0] = 1.0
    X[:, 1:3] = rng.standard_normal((SIM_N, 2))
    X[:, 3] = 0.6 * X[:, 1] + 0.8 * rng.standard_normal(SIM_N)
    a = np.array([0.0, 1.0, 0.0, 0.0])
    beta = np.array([1.0, 0.5, -0.5, 0.0])
    sigma = 1.0
    sd_last = math.sqrt(np.linalg.inv(X.T @ X)[-1, -1])
    grid = [float(g * sigma * sd_last) for g in SIM_GAMMAS]
    return X, a, beta, sigma, grid


def design_text(X, a, beta, sigma) -> str:
    """The ``simulate --design`` file format; ``repr(float(v))`` keeps every
    value a plain round-trip literal (numpy 2 scalars repr as np.float64(...))."""
    n, p = X.shape
    tokens = [str(n), str(p), str(SIM_Q)]
    tokens += [repr(float(v)) for v in X.ravel()]
    tokens += [repr(float(v)) for v in a]
    tokens += [repr(float(v)) for v in beta]
    tokens.append(repr(float(sigma)))
    return " ".join(tokens) + "\n"


class SimulateWorkload(Workload):
    """``covbound simulate`` over a beta-last grid for aic and ttest."""

    name = "simulate"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.X, self.a, self.beta, self.sigma, self.grid = make_design(seed)
        self.design_path = workdir / f"design_{seed}.txt"
        workdir.mkdir(parents=True, exist_ok=True)
        self.design_path.write_text(design_text(self.X, self.a, self.beta, self.sigma))
        lasts = ",".join(repr(b) for b in self.grid)
        base = ("simulate", "--design", str(self.design_path), "--beta-last", lasts,
                "--seed", str(seed))
        rows = len(self.grid)
        aic, ttest = SIM_REPS["aic"], SIM_REPS["ttest"]
        self.ops = [Op(base + ("--reps", str(aic), "--method", "aic"), rows, rows * aic),
                    Op(base + ("--reps", str(ttest), "--method", "ttest",
                               "--test-size", str(SIM_TEST_SIZE)), rows, rows * ttest)]

    def round(self, k: int) -> list[Op]:
        # a fixed order: the process's peak memory depends on which call
        # runs first (111, 125 or 131 MB), so a seeded order would make
        # peak_rss_mb vary with the seed
        return list(self.ops)

    def canonical(self, beta_last: float) -> tuple[float, float]:
        """(rho, gamma) of the pair family {full, drop last} at beta_last."""
        C = np.linalg.inv(self.X.T @ self.X)
        ca = C @ self.a
        rho = float(ca[-1] / math.sqrt(float(self.a @ ca) * C[-1, -1]))
        return rho, beta_last / (self.sigma * math.sqrt(C[-1, -1]))

    def check_output(self, oc: Outcome, tally: Tally) -> None:
        recs = list(csv.DictReader(io.StringIO(oc.stdout)))
        if len(recs) != 2 * oc.op.units:
            raise ValueError(f"{len(recs)} rows, expected {2 * oc.op.units}")
        kind = recs[0]["method"]
        method = SelectionMethod.from_name(kind, SIM_TEST_SIZE)
        alpha = float(recs[0]["alpha"])
        for rec in recs:
            if not 0.0 <= float(rec["coverage"]) <= 1.0:
                raise ValueError(f"coverage {rec['coverage']} outside [0, 1]")
        for rec in (r for r in recs if r["family"] == "pair"):
            b_last = float(rec[f"beta_{SIM_P}"])
            rho, gamma = self.canonical(b_last)
            prob = BoundProblem.from_m(alpha, SIM_P, SIM_N - SIM_P, rho)
            quad = coverage_probability(prob, method, gamma).value
            z = gap_se(float(rec["coverage"]), quad, float(rec["std_err"]))
            tally.max_gap_se = max(tally.max_gap_se, z)
            if z <= GATE_GAP_SE:
                continue
            argv = list(oc.op.argv)
            argv[argv.index("--beta-last") + 1] = repr(b_last)
            argv[argv.index("--seed") + 1] = str(self.seed + CONFIRM_SEED_OFFSET)
            again = next(r for r in csv.DictReader(io.StringIO(call_cli(argv)))
                         if r["family"] == "pair")
            z2 = gap_se(float(again["coverage"]), quad, float(again["std_err"]))
            if z2 > GATE_GAP_SE:
                tally.fail(1, f"simulate {kind} beta_last={b_last!r}: gap {z:.2f} SE, "
                           f"confirmed {z2:.2f} SE")


WORKLOADS = {cls.name: cls for cls in (CurveWorkload, LimitWorkload,
                                       VerifyWorkload, SimulateWorkload)}
