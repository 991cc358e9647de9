"""Benchmark of covbound: four CLI workloads, a golden-row accuracy gate
and a traced per-layer run.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see ``workloads.py``):

* ``curve``    -- ``covbound curve`` over rho-stratified finite-m golden rows;
* ``limit``    -- ``covbound curve --m inf`` over the 60 m = inf golden rows;
* ``verify``   -- bare ``covbound verify --seed <seed>`` (90 points, 2M draws);
* ``simulate`` -- ``covbound simulate`` on a seeded n = 40, p = 4 design,
  for aic and ttest over a beta-last grid.

Every workload runs in a fresh interpreter (``worker.py``), single-process,
with BLAS threads pinned to 1.  ``--trace 0`` prints the end-to-end metrics;
``setup_s`` is the median over ``SETUP_PROBES`` fresh interpreters that
import covbound and generate the inputs.  Timings are scaled to the
nominal speed of a host-speed reference read around every call
(``hostspeed.py``), so that drift in the speed of a shared host does not
read as a change in covbound; the report line gives them as measured too.  ``--trace 1`` runs the workload
untraced, then again with every layer traced for the same calls, requires
byte-identical CLI outputs, and prints the per-layer metrics together with
``trace.overhead_frac`` (traced / untraced wall time - 1, both scaled).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
reports the same run under the workload's own metric names.  The exit code
is 0 when every check passed, 1 when one failed, and 2 when the run could
not be made (no covbound source in the checkout, a worker crashed or ran
out of time); a run that could not be made prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curve", "limit", "verify", "simulate")
SETUP_PROBES = 9
DEADLINE_S = 170.0
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# what one unit of ops_per_s is, per workload
UNIT_NAMES = {"curve": "bounds", "limit": "bounds", "verify": "points",
              "simulate": "reps"}


class RunError(Exception):
    """The benchmark could not produce a result."""


def percentile(latencies: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(latencies)
    return xs[max(1, math.ceil(p * len(xs) / 100)) - 1]


def tail_percentile(latencies: list[float], per_round: int) -> tuple[int, float]:
    """The highest whole percentile with at least 10 of one round's
    ``per_round`` calls beyond it, or 50 (the median) when a round has too
    few calls.  A run makes as many rounds as fit in its time, which
    depends on the host; basing the percentile on one round keeps it the
    same in every run."""
    n = per_round
    p = next((p for p in range(99, 50, -1) if n - math.ceil(p * n / 100) >= 10), 50)
    return p, percentile(latencies, p)


def worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter and parse its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a worker")
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(base: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    _, tail = tail_percentile(base["latencies"], base["per_round"])
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (base["work"] / base["wall_s"], "1/s"),
            "call_p50_s": (percentile(base["latencies"], 50), "s"),
            "call_tail_s": (tail, "s"),
            "peak_rss_mb": (base["peak_rss_mb"], "MB")}


def gate_metrics(tally: dict) -> dict[str, tuple[float, str]]:
    """The accuracy gate's numbers; they are 0 on a correct run, so they
    ride with the per-layer metrics rather than the bounded end-to-end ones."""
    return {"gate.max_abs_dbound": (tally["max_abs_dbound"], "1"),
            "gate.max_abs_dgamma": (tally["max_abs_dgamma"], "1"),
            "gate.max_gap_se": (tally["max_gap_se"], "SE"),
            "gate.fail_frac": (tally["fail_frac"], "ratio")}


def report(workload: str, base: dict, setup_s: float) -> dict:
    """The run under the workload's own metric names, for people reading it."""
    t = base["tally"]
    p, tail = tail_percentile(base["latencies"], base["per_round"])
    call = "bound" if workload in ("curve", "limit") else "call"
    rep = {"workload": workload, "seed": base["seed"], "rounds": base["rounds"],
           "calls": base["calls"], "wall_s": base["wall_s"],
           f"{UNIT_NAMES[workload]}_per_s": base["work"] / base["wall_s"],
           f"{call}_p50_s": percentile(base["latencies"], 50), f"{call}_tail_s": tail,
           "tail_percentile": p, "tail_n": len(base["latencies"]),
           "setup_s": setup_s, "peak_rss_mb": base["peak_rss_mb"],
           "raw_wall_s": base["raw_wall_s"],
           f"raw_{call}_p50_s": percentile(base["raw_latencies"], 50)}
    if "ref_s" in base:
        rep["ref_s"] = base["ref_s"]
    if workload in ("curve", "limit"):
        rep.update(max_abs_dbound=t["max_abs_dbound"], max_abs_dgamma=t["max_abs_dgamma"])
    else:
        rep.update(max_gap_se=t["max_gap_se"])
    rep.update(fail_frac=t["fail_frac"], failed=t["failed"], attempted=t["attempted"])
    if t["notes"]:
        rep["failures"] = t["notes"]
    return rep


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (ROOT / "src" / "covbound" / "cli.py").is_file():
        raise RunError(f"no covbound source under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        base = worker(common + ["--seconds", str(seconds)], deadline)
        traced = worker(common + ["--rounds", str(base["rounds"]), "--trace"], deadline)
        identical = traced["digest"] == base["digest"]
        overhead = traced["wall_s"] / base["wall_s"] - 1.0
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics.update(gate_metrics(base["tally"]))
        correct = identical and base["tally"]["failed"] == 0
        rep = report(workload, base, base["raw_setup_s"])
        rep.update(outputs_identical=identical, overhead_frac=overhead,
                   traced_wall_s=traced["raw_wall_s"], layer_self_s=traced["layer_self_s"])
    else:
        setups = [worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        base = worker(common + ["--seconds", str(seconds)], deadline)
        setup_s = statistics.median(setups)
        metrics = end_to_end(base, setup_s)
        correct = base["tally"]["failed"] == 0
        rep = report(workload, base, setup_s)
    result = {"correct": correct, "attempted": base["tally"]["attempted"],
              "failed": base["tally"]["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return rep, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="covbound benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        rep, result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(rep))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
