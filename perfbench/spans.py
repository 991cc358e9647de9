"""In-memory span tracing of the covbound layers, from outside the program.

``instrument(tracer)`` replaces, for the length of a ``with`` block, every
public function of each covbound module by a wrapper, at every module
attribute where the program looks that function up (``covbound.coverage.
norm_cdf``, ``covbound.cli.coverage_bound``, ...).  Each wrapper records a
span -- name, start, end, parent span and the index of the CLI call it
belongs to -- and, at the same boundary, the counts the per-layer metrics
need: erfc elements, integrand nodes, gamma evaluations, Monte Carlo
draws.  The integrand handed to a quadrature driver is wrapped too, as
``<caller layer>.integrand``.  The program's source is untouched.

Spans stay in Python lists until ``Tracer.dump`` writes them once.  A
span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("special", "quadrature", "rules", "coverage", "asymptotic",
          "optimize", "simulate", "cli")
ALIASES = {"quadrature.adaptive_quad_2d": "quadrature.quad2d",
           "quadrature.adaptive_quad": "quadrature.quad1d"}
ROOT = "cli.main"


class Tracer:
    """Span and count recorder; one per traced process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current_layer(self) -> str:
        top = self.stack[-1]
        return self.names[self.name[top]].split(".")[0] if top >= 0 else "cli"

    def span(self, name: str, fn, prepare=None, finish=None):
        """``fn`` wrapped in a span; ``prepare(args, kwargs)`` may count or
        replace the arguments, ``finish(result)`` counts from the result."""
        nid = self._intern(name)
        names, parents, ops, starts, ends = (self.name, self.parent, self.op,
                                             self.start, self.end)
        stack, clock = self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if finish is not None:
                finish(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, op_id: int, fn, *args):
        """Run one CLI call as the root span ``cli.main``."""
        self.op_id = op_id
        return self.span(ROOT, fn)(*args)

    # ------------------------------------------------------------------
    # analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.asarray(self.name, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "op": np.asarray(self.op, dtype=np.int32),
                "start_ns": np.asarray(self.start, dtype=np.int64),
                "end_ns": np.asarray(self.end, dtype=np.int64)}

    def dump(self, path) -> None:
        """Write every span, once, as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.asarray(self.names),
                            workload=np.asarray(self.workload), **self.arrays())

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds list and self seconds."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"calls": int(sel.sum()), "durations": dur[sel],
                         "self_s": float(self_s[sel].sum())}
        return out


def layer_self_seconds(summary: dict[str, dict]) -> dict[str, float]:
    """Self time per layer; the layers together account for every root span."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, rec in summary.items():
        out[name.split(".")[0]] += rec["self_s"]
    return out


# ----------------------------------------------------------------------
# instrumentation

def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _hooks(tracer: Tracer, fn, name: str):
    """(prepare, finish) for the spans whose metrics need counts."""
    counts = tracer.counts

    def count_elements(key):
        def prepare(args, kwargs):
            counts[key] += np.size(args[0])
            return args, kwargs
        return prepare

    def integrand(axis):
        def count_nodes(args, kwargs):
            counts[f"quadrature.{axis}.nodes"] += np.size(args[0])
            counts[f"quadrature.{axis}.integrand_calls"] += 1
            return args, kwargs

        def prepare(args, kwargs):
            f = tracer.span(f"{tracer.current_layer()}.integrand", args[0],
                            prepare=count_nodes)
            return (f,) + args[1:], kwargs

        def finish(res):
            counts[f"quadrature.{axis}.panels"] += res.panels
        return prepare, finish

    def search(args, kwargs):
        objective = args[0]
        state = {"last": -np.inf, "scanning": True}

        def counted(g):
            # the scan walks gamma upward; golden-section refinement
            # begins at the first step back
            if state["scanning"] and g >= state["last"]:
                counts["optimize.scan_evals"] += 1
            else:
                state["scanning"] = False
            state["last"] = g
            counts["optimize.evaluations"] += 1
            return objective(g)
        return (counted,) + args[1:], kwargs

    def draws(args, kwargs):
        counts["simulate.mc_coverage.draws"] += _bound(fn, args, kwargs)["n_draws"]
        return args, kwargs

    def reps(args, kwargs):
        b = _bound(fn, args, kwargs)
        counts["simulate.empirical_min_coverage.reps"] += len(b["beta_grid"]) * b["reps"]
        return args, kwargs

    table = {
        "special.erfc": (count_elements("special.erfc.elements"), None),
        "special.residual_scale_density": (
            count_elements("special.residual_scale_density.elements"), None),
        "quadrature.quad2d": integrand("quad2d"),
        "quadrature.quad1d": integrand("quad1d"),
        "optimize.minimize_over_gamma": (search, None),
        "simulate.mc_coverage": (draws, None),
        "simulate.empirical_min_coverage": (reps, None),
    }
    return table.get(name, (None, None))


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public functions of every covbound module while active."""
    import covbound
    import covbound.cli as cli

    modules = {layer: importlib.import_module(f"covbound.{layer}") for layer in LAYERS}
    lookups = list(modules.values()) + [covbound]
    patches = []
    for layer in LAYERS[:-1]:  # cli: main is the root span, see Tracer.call
        mod = modules[layer]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not callable(fn) or isinstance(fn, type):
                continue
            name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
            wrapped = tracer.span(name, fn, *_hooks(tracer, fn, name))
            for target in lookups:
                if target.__dict__.get(attr) is fn:
                    patches.append((target, attr, fn))
                    setattr(target, attr, wrapped)
    wrapped_cp = cli.coverage_probability

    def cli_coverage_probability(*args, **kwargs):
        # the re-run at gamma_star that _single_bound makes outside the search
        if sys._getframe(1).f_code.co_name == "_single_bound":
            tracer.counts["cli.coverage_probability.calls"] += 1
        return wrapped_cp(*args, **kwargs)

    cli.coverage_probability = cli_coverage_probability
    try:
        yield tracer
    finally:
        cli.coverage_probability = wrapped_cp
        for target, attr, fn in reversed(patches):
            setattr(target, attr, fn)


# ----------------------------------------------------------------------
# per-layer metrics

def _p50(durations) -> float:
    return float(statistics.median(durations)) if len(durations) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit); 0 where a layer
    did no work on this workload."""
    s = tracer.summary()
    c = tracer.counts
    empty = {"calls": 0, "durations": np.zeros(0), "self_s": 0.0}

    def get(name):
        return s.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    layer = layer_self_seconds(s)
    erfc = get("special.erfc")
    q2, q1 = get("quadrature.quad2d"), get("quadrature.quad1d")
    cp = get("coverage.coverage_probability")
    search = get("optimize.minimize_over_gamma")
    mc, emc = get("simulate.mc_coverage"), get("simulate.empirical_min_coverage")
    asym = get("asymptotic.asymptotic_coverage")
    return {
        "special.erfc.calls": (erfc["calls"], "count"),
        "special.erfc.elements": (c["special.erfc.elements"], "count"),
        "special.erfc.self_s": (erfc["self_s"], "s"),
        "special.erfc.ns_per_element": (
            ratio(1e9 * erfc["self_s"], c["special.erfc.elements"]), "ns"),
        "special.t_quantile.calls": (get("special.t_quantile")["calls"], "count"),
        "special.t_quantile.self_s": (get("special.t_quantile")["self_s"], "s"),
        "special.residual_scale_interval.calls": (
            get("special.residual_scale_interval")["calls"], "count"),
        "special.residual_scale_interval.self_s": (
            get("special.residual_scale_interval")["self_s"], "s"),
        "special.residual_scale_density.elements": (
            c["special.residual_scale_density.elements"], "count"),
        "special.residual_scale_density.self_s": (
            get("special.residual_scale_density")["self_s"], "s"),
        "quadrature.quad2d.calls": (q2["calls"], "count"),
        "quadrature.quad2d.panels": (c["quadrature.quad2d.panels"], "count"),
        "quadrature.quad2d.nodes": (c["quadrature.quad2d.nodes"], "count"),
        "quadrature.quad2d.rounds": (
            c["quadrature.quad2d.integrand_calls"] - q2["calls"], "count"),
        "quadrature.quad2d.self_s": (q2["self_s"], "s"),
        "quadrature.quad2d.accept_ratio": (
            ratio(225 * c["quadrature.quad2d.panels"], c["quadrature.quad2d.nodes"]),
            "ratio"),
        "quadrature.quad1d.calls": (q1["calls"], "count"),
        "quadrature.quad1d.nodes": (c["quadrature.quad1d.nodes"], "count"),
        "quadrature.quad1d.self_s": (q1["self_s"], "s"),
        "coverage.coverage_probability.calls": (cp["calls"], "count"),
        "coverage.coverage_probability.p50_s": (_p50(cp["durations"]), "s"),
        "coverage.coverage_probability.self_s": (cp["self_s"], "s"),
        "coverage.integrand.self_s": (get("coverage.integrand")["self_s"], "s"),
        "coverage.coverage_bound.calls": (get("coverage.coverage_bound")["calls"], "count"),
        "asymptotic.asymptotic_coverage.calls": (asym["calls"], "count"),
        "asymptotic.asymptotic_coverage.p50_s": (_p50(asym["durations"]), "s"),
        "optimize.evaluations": (c["optimize.evaluations"], "count"),
        "optimize.evals_per_bound": (
            ratio(c["optimize.evaluations"], search["calls"]), "count"),
        "optimize.scan_evals": (c["optimize.scan_evals"], "count"),
        "optimize.self_s": (layer["optimize"], "s"),
        "simulate.mc_coverage.calls": (mc["calls"], "count"),
        "simulate.mc_coverage.draws": (c["simulate.mc_coverage.draws"], "count"),
        "simulate.mc_coverage.draws_per_s": (
            ratio(c["simulate.mc_coverage.draws"], float(mc["durations"].sum())), "1/s"),
        "simulate.mc_coverage.self_s": (mc["self_s"], "s"),
        "simulate.draw_canonical.self_s": (get("simulate.draw_canonical")["self_s"], "s"),
        "simulate.empirical_min_coverage.calls": (emc["calls"], "count"),
        "simulate.empirical_min_coverage.reps": (
            c["simulate.empirical_min_coverage.reps"], "count"),
        "simulate.empirical_min_coverage.reps_per_s": (
            ratio(c["simulate.empirical_min_coverage.reps"], float(emc["durations"].sum())),
            "1/s"),
        "simulate.empirical_min_coverage.self_s": (emc["self_s"], "s"),
        "cli.self_s": (layer["cli"], "s"),
        "cli.coverage_probability.calls": (c["cli.coverage_probability.calls"], "count"),
    }
