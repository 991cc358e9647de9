"""The fast demos run to completion against the package under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from .test_cli import child_env

DEMOS = Path(__file__).resolve().parents[1] / "demos"


# bound_curves.py is left out: it runs for minutes and writes demos/output/
@pytest.mark.parametrize("script", ["quickstart.py", "verify_quadrature.py",
                                    "subset_selection.py"])
def test_demo_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
