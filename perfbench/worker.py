"""One benchmark process: set up a workload, run its rounds through
``covbound.cli.main`` in-process, check the outputs and print one JSON line.

``run.py`` starts it in a fresh interpreter with BLAS threads pinned to 1:

    python3 perfbench/worker.py --workload curve --seed 1 --seconds 20
    python3 perfbench/worker.py --workload curve --seed 1 --rounds 2 --trace
    python3 perfbench/worker.py --workload curve --seed 1 --setup-only

Without ``--rounds`` it runs whole rounds until about ``--seconds`` have
passed; whole rounds keep the mix of calls the same from run to run.
The host-speed reference (``hostspeed.py``) is read around every call,
and each call's time, less the readings taken inside it, is reported both
as measured (``raw_latencies``) and scaled to the reference's nominal
speed (``latencies``).  With ``--trace`` every covbound layer is wrapped
in spans (``spans.py``) and the reference is read only between calls; the
outputs are not checked again (the untraced run checks them and the
digest shows the traced outputs are the same), and the spans are written
to ``.perfbench_out/spans_<workload>.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_KERNEL = "large"
SETUP_READINGS = 3


def import_cli():
    """``covbound.cli`` from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import covbound.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"covbound was imported from {cli.__file__}, not {src}")
    return cli


def set_up(workload: str, seed: int):
    """Import covbound and generate the inputs; returns (cli, workload, seconds)."""
    t0 = time.perf_counter()
    cli = import_cli()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, OUT_DIR)
    wl.round(0)
    return cli, wl, time.perf_counter() - t0


def run_op(call, main, op, index: int):
    from workloads import Outcome

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(index, main, list(op.argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception as exc:  # a failed operation, counted by the checks
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(op, code, out.getvalue(), err.getvalue(), error,
                   time.perf_counter() - t0)


def run_rounds(call, main, wl, seconds: float, rounds: int | None, probe: SpeedProbe):
    """``rounds`` whole rounds, or as many as end within about ``seconds``.

    The reference is read before each call and after the last; returns the
    outcomes, the number of rounds and, per call, the (first, last)
    indices of the readings around it.
    """
    outcomes, firsts = [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        for op in wl.round(k):
            probe.tick()
            firsts.append(len(probe.readings) - 1)
            spent = probe.spent
            oc = run_op(call, main, op, len(outcomes))
            oc.seconds -= probe.spent - spent
            outcomes.append(oc)
        k += 1
        elapsed = time.perf_counter() - t0
        if rounds is not None:
            if k >= rounds:
                break
        elif elapsed + 0.5 * elapsed / k >= seconds:
            break
    probe.tick()
    return outcomes, k, list(zip(firsts, firsts[1:] + [len(probe.readings) - 1]))


@contextlib.contextmanager
def ticking(module, name: str | None, probe: SpeedProbe):
    """Read the reference after every call of ``module.<name>``."""
    if name is None:
        yield
        return
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            probe.tick()

    setattr(module, name, wrapped)
    try:
        yield
    finally:
        setattr(module, name, fn)


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for oc in outcomes:
        h.update(json.dumps([oc.op.argv, oc.code, oc.error, oc.stdout, oc.stderr]).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args(argv)

    if ns.setup_only:
        # set-up is too short to read the reference inside; read it before
        # and after, with the kernel that tracked set-up best
        probe = SpeedProbe(SETUP_KERNEL)
        for _ in range(SETUP_READINGS):
            probe.tick()
        setup_s = set_up(ns.workload, ns.seed)[2]
        for _ in range(SETUP_READINGS):
            probe.tick()
        print(json.dumps({"workload": ns.workload, "seed": ns.seed,
                          "raw_setup_s": setup_s,
                          "setup_s": setup_s * probe.scale(0, 2 * SETUP_READINGS - 1)}))
        return 0

    cli, wl, setup_s = set_up(ns.workload, ns.seed)
    result = {"workload": ns.workload, "seed": ns.seed, "raw_setup_s": setup_s}

    if ns.trace:
        from spans import Tracer, instrument, layer_metrics, layer_self_seconds

        # readings only between calls, so that no span holds one
        probe = SpeedProbe(wl.speed_kernel)
        tracer = Tracer(ns.workload)
        with instrument(tracer):
            outcomes, k, windows = run_rounds(tracer.call, cli.main, wl, ns.seconds,
                                              ns.rounds, probe)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans_{ns.workload}.npz")
        result["layers"] = {name: list(v) for name, v in layer_metrics(tracer).items()}
        result["layer_self_s"] = layer_self_seconds(tracer.summary())
    else:
        probe = SpeedProbe(wl.speed_kernel)
        with ticking(cli, wl.tick_after, probe):
            outcomes, k, windows = run_rounds(lambda i, f, a: f(a), cli.main, wl,
                                              ns.seconds, ns.rounds, probe)
        tally = wl.check(outcomes)
        result["tally"] = {"attempted": tally.attempted, "failed": tally.failed,
                           "fail_frac": tally.fail_frac,
                           "max_abs_dbound": tally.max_abs_dbound,
                           "max_abs_dgamma": tally.max_abs_dgamma,
                           "max_gap_se": tally.max_gap_se, "notes": tally.notes}
    latencies = [oc.seconds * probe.scale(*w) for oc, w in zip(outcomes, windows)]
    result["ref_s"] = statistics.median(probe.readings)
    raw = [oc.seconds for oc in outcomes]
    result.update(rounds=k, per_round=len(wl.ops), calls=len(outcomes),
                  work=sum(oc.op.work for oc in outcomes),
                  latencies=latencies, wall_s=sum(latencies),
                  raw_latencies=raw, raw_wall_s=sum(raw),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  digest=digest(outcomes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
