"""Published bound curves: a stratified sample of the golden rows.

The golden CSVs in ``perfbench/golden`` hold 400 rows of ``covbound
curve`` output: 4 families x 5 values of m (inf included) x 20 rho.  This
recomputes one row per (family, m), 20 rows in all, through the CLI and
holds each to the benchmark's gate, |d bound| <= 1e-9.  The row for the
k-th (family, m) pair sits at rho index 7 k mod 20, so the sample visits
every rho once.  The files are only read.
"""

import csv
import math
from pathlib import Path

import pytest

from covbound.cli import main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
FAMILIES = ("cp", "adjr2", "aic", "bic")
GATE_DBOUND = 1e-9


def _sample():
    rows = []
    for family in FAMILIES:
        with open(GOLDEN_DIR / f"bound_curve_{family}.csv", newline="") as fh:
            by_m: dict[str, list[dict]] = {}
            for row in csv.DictReader(fh):
                by_m.setdefault(row["m"], []).append(row)
        for m_rows in by_m.values():
            rows.append(m_rows[(7 * len(rows)) % len(m_rows)])
    return rows


SAMPLE = _sample()


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
