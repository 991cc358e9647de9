"""Published bound curves: a stratified sample of the golden rows.

The golden CSVs in ``perfbench/golden`` hold 400 rows of ``covbound
curve`` output: 4 families x 5 values of m (inf included) x 20 rho.  This
recomputes one row per (family, m), 20 rows in all, through the CLI and
holds each to the benchmark's gate, |d bound| <= 1e-9.  The row for the
k-th (family, m) pair sits at rho index 7 k mod 20, so the sample visits
every rho once.  The files are only read.  On the sample's finite-m rows
the Brent polish is also held to its count of reads.  The 60 m = inf rows
are cheap, so all of them are held to the gate and to the polish's count
of reads there.
"""

import csv
import math
from pathlib import Path

import pytest

from covbound import coverage
from covbound.cli import main
from covbound.coverage import minimum_coverage
from covbound.optimize import SCAN_GRID
from covbound.rules import SelectionMethod

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
FAMILIES = ("cp", "adjr2", "aic", "bic")
GATE_DBOUND = 1e-9


def _rows(family):
    with open(GOLDEN_DIR / f"bound_curve_{family}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _sample():
    rows = []
    for family in FAMILIES:
        by_m: dict[str, list[dict]] = {}
        for row in _rows(family):
            by_m.setdefault(row["m"], []).append(row)
        for m_rows in by_m.values():
            rows.append(m_rows[(7 * len(rows)) % len(m_rows)])
    return rows


SAMPLE = _sample()
INF_ROWS = [row for family in FAMILIES for row in _rows(family)
            if row["m"] == "inf"]


def _bound(row):
    m = math.inf if row["m"] == "inf" else int(row["m"])
    return minimum_coverage(SelectionMethod.from_name(row["method"]),
                            float(row["alpha"]), int(row["p"]), m,
                            float(row["rho"]))


def test_sample_is_stratified():
    assert len(SAMPLE) == 20
    assert len({(r["method"], r["m"]) for r in SAMPLE}) == 20
    assert len({r["rho"] for r in SAMPLE}) == 20
    assert sum(r["m"] == "inf" for r in SAMPLE) == 3


@pytest.mark.parametrize("row", SAMPLE,
                         ids=[f"{r['method']}-m{r['m']}-rho{r['rho']}"
                              for r in SAMPLE])
def test_golden_row(row, capsys):
    code = main(["curve", "--method", row["method"], "--alpha", row["alpha"],
                 "--p", row["p"], "--m", row["m"], "--rho", row["rho"]])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    got = dict(zip(out[0].split(","), out[1].split(",")))
    assert (got["method"], got["m"], got["rho"]) \
        == (row["method"], row["m"], row["rho"])
    bound, want = float(got["bound"]), float(row["bound"])
    assert abs(bound - want) <= GATE_DBOUND
    assert math.isinf(float(got["gamma_star"])) \
        == math.isinf(float(row["gamma_star"]))


def test_finite_m_polish_reads(monkeypatch):
    # Brent polishes a finite-m bound in about 7.5 reads on average, where
    # golden section takes 26-28, and every bound stays within the gate
    reads = []
    search = coverage.minimize_over_gamma

    def traced_search(objective, *args):
        def read(g):
            reads.append(g)
            return objective(g)
        return search(read, *args)

    monkeypatch.setattr(coverage, "minimize_over_gamma", traced_search)
    polish = []
    for row in SAMPLE:
        if row["m"] == "inf":
            continue
        reads.clear()
        res = _bound(row)
        assert abs(res.bound - float(row["bound"])) <= GATE_DBOUND
        scan = next(i for i, g in enumerate(reads) if g != SCAN_GRID[i])
        polish.append(len(reads) - scan)
    assert len(polish) == 17
    assert sum(polish) / len(polish) <= 14


def test_every_infinite_m_row():
    assert len(INF_ROWS) == 60
    for row in INF_ROWS:
        res = _bound(row)
        assert abs(res.bound - float(row["bound"])) <= GATE_DBOUND, row
        assert math.isinf(res.gamma_star) == math.isinf(float(row["gamma_star"]))


def test_infinite_m_polish_reads():
    # the m = inf scan reads every grid value; Brent then polishes in about
    # 8.3 reads on average, where golden section takes 28
    polish = [_bound(row).evaluations - len(SCAN_GRID) for row in INF_ROWS]
    assert sum(polish) / len(polish) <= 9
