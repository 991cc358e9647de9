"""Adaptive panel quadrature with embedded Gauss-Kronrod error estimates.

A panel carries the (G7, K15) rule, or in 2-D its 15x15 tensor product:
the Kronrod value is the estimate, its gap to the Gauss rules the error
indicator.  One round-based, deterministic loop refines over 1 or 2 axes:
every panel whose indicator exceeds its equal share of the budget is
halved along the axis with the larger Gauss deficit (ties to the first
axis, never an axis already at the width floor), all children of a round
are evaluated in a single vectorized call, and the final sum runs over
panels sorted by position, so results are bit-for-bit reproducible.

Two entry points share that loop: ``adaptive_quad`` over [a, b] and
``adaptive_quad_2d`` over [ua, ub] x [va, vb].  Each is a batch of one of
``adaptive_quad_batch``, which takes the start-mesh rules of many
integrands over one box in one call and then refines each alone, with the
bits it has alone.  Integrands must be vectorized (ndarray in, ndarray
out, elementwise) and limits finite.  An exhausted panel budget, panels
too narrow to split, or an error estimate that is not finite raise
``QuadratureError``, carrying the best estimate and the achieved error so
callers can decide what to do.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["QuadratureError", "QuadResult", "adaptive_quad", "adaptive_quad_2d",
           "adaptive_quad_batch", "start_mesh", "start_nodes"]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (ascending order).
_XK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WK_CENTER = 0.209482141084727828012999174891714
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327

NODES = np.array([-x for x in _XK_HALF] + [0.0] + [x for x in reversed(_XK_HALF)])
WEIGHTS_K = np.array(list(_WK_HALF) + [_WK_CENTER] + list(reversed(_WK_HALF)))
# Gauss weights embedded in the 15-slot layout (zeros at Kronrod-only nodes).
WEIGHTS_G = np.zeros(15)
WEIGHTS_G[1:14:2] = list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF))


class QuadratureError(RuntimeError):
    """Refinement failed; carries the best estimate reached so far."""

    def __init__(self, message: str, value: float, err: float, panels: int):
        # every field goes to args, so the error survives pickling (a
        # worker process raises it to its parent)
        super().__init__(message, value, err, panels)
        self.value, self.err, self.panels = value, err, panels

    def __str__(self) -> str:
        message, value, err, panels = self.args
        return f"{message} (best estimate {value!r}, error {err:.3e}, {panels} panels)"


class QuadResult(NamedTuple):
    value: float
    err: float
    panels: int


def _grid(*axes):
    # the tensor grid of the given axes, u major, one flat row per axis
    return np.stack([z.ravel() for z in np.meshgrid(*axes, indexing="ij")])


def start_mesh(*limits: float, initial):
    """(c, h): the centres and half-widths, one row per axis, of the equal
    start panels of ``adaptive_quad(f, a, b)`` or
    ``adaptive_quad_2d(f, ua, ub, va, vb)``.  Refinement only halves
    panels, so every node it ever uses lies in one of them.  Cached and
    read-only, as every gamma of a coverage bound starts on one mesh."""
    return _cached_mesh(tuple(map(float, limits)),
                        tuple(map(int, np.atleast_1d(initial))))


@lru_cache(maxsize=8)
def _cached_mesh(limits, initial):
    edges = [np.linspace(lo, hi, n + 1)
             for lo, hi, n in zip(limits[::2], limits[1::2], initial)]
    mesh = (_grid(*[0.5 * (e[1:] + e[:-1]) for e in edges]),
            _grid(*[0.5 * (e[1:] - e[:-1]) for e in edges]))
    for z in mesh:
        z.flags.writeable = False
    return mesh


# the panel budgets of adaptive_quad and adaptive_quad_2d
_MAX_PANELS = (4096, 40000)

# row i: axis i's node at every slot of the flat 15**k tensor rule
_TENSOR = {k: _grid(*[NODES] * k) for k in (1, 2)}


def _nodes(c, h):
    # the Kronrod nodes of every panel, one flat row per axis
    nodes = c[:, :, None] + h[:, :, None] * _TENSOR[len(c)][:, None, :]
    return nodes.reshape(len(c), -1)


def start_nodes(*limits: float, initial):
    """The nodes, one flat array per axis, where ``adaptive_quad(f, a, b)``
    or ``adaptive_quad_2d(f, ua, ub, va, vb)`` first calls ``f``."""
    return tuple(_nodes(*start_mesh(*limits, initial=initial)))


def _rule(fv, h):
    # Kronrod values, error indicators and per-axis Gauss deficits of each
    # panel for a batch of integrands, from their values on the panels'
    # nodes (one row per integrand) and the half-widths h: values and
    # indicators as (integrand, panel), deficits as (axis, integrand, panel)
    fv = np.asarray(fv, dtype=float).reshape(
        (-1, h.shape[1]) + NODES.shape * len(h))
    if len(h) == 1:
        val = h[0] * (fv @ WEIGHTS_K)
        err = np.abs(val - h[0] * (fv @ WEIGHTS_G))
        return val, err, err[None]
    area = h[0] * h[1]
    kk = area * np.einsum("bpij,i,j->bp", fv, WEIGHTS_K, WEIGHTS_K)
    gg = area * np.einsum("bpij,i,j->bp", fv, WEIGHTS_G, WEIGHTS_G)
    gk = area * np.einsum("bpij,i,j->bp", fv, WEIGHTS_G, WEIGHTS_K)
    kg = area * np.einsum("bpij,i,j->bp", fv, WEIGHTS_K, WEIGHTS_G)
    dev = np.abs([kk - gk, kk - kg])
    return kk, np.maximum(np.abs(kk - gg), np.maximum(dev[0], dev[1])), dev


def _refine(f, c, h, floor, abs_err, val, err, dev):
    # one integrand's refinement loop from the rule on its start mesh (c, h);
    # c, h and dev hold one row per axis, one column per panel
    start = len(val)
    while True:
        err_sum, n = float(err.sum()), len(val)
        if not math.isfinite(err_sum):
            raise QuadratureError("quadrature error estimate is not finite",
                                  float(val.sum()), err_sum, n)
        if err_sum <= abs_err:
            break
        split = (err > abs_err / (2.0 * n)) & (h.max(axis=0) > floor)
        grow, stay = np.flatnonzero(split), np.flatnonzero(~split)
        if not len(grow):
            raise QuadratureError("quadrature stalled on panels too narrow "
                                  "to split", float(val.sum()), err_sum, n)
        if n + len(grow) > _MAX_PANELS[len(h) - 1]:
            raise QuadratureError("quadrature did not converge within the "
                                  "panel budget", float(val.sum()), err_sum, n)
        # halve each panel along its larger deficit among the axes still
        # wider than the floor; ties go to axis 0
        hs, cs = h.take(grow, axis=1), c.take(grow, axis=1)
        score = np.where(hs > floor, dev.take(grow, axis=1), -1.0)
        off = np.where(np.arange(len(h))[:, None] == score.argmax(axis=0),
                       hs / 2.0, 0.0)
        child_c = np.concatenate([cs - off, cs + off], axis=1)
        child_h = np.concatenate([hs - off, hs - off], axis=1)
        new_val, new_err, new_dev = _rule(f(*_nodes(child_c, child_h)), child_h)
        c = np.concatenate([c.take(stay, axis=1), child_c], axis=1)
        h = np.concatenate([h.take(stay, axis=1), child_h], axis=1)
        val = np.concatenate([val.take(stay), new_val[0]])
        err = np.concatenate([err.take(stay), new_err[0]])
        dev = np.concatenate([dev.take(stay, axis=1), new_dev[:, 0]], axis=1)

    # the sum runs over panels by position; the start mesh is in that order,
    # split children are appended
    if n > start:
        val = val[np.lexsort(c[::-1])]
    return QuadResult(float(val.sum()), err_sum, n)


def adaptive_quad_batch(fs, *limits: float, abs_err: float, initial,
                        start_values=None):
    """An iterator over the ``QuadResult`` of each integrand of ``fs`` over
    [a, b] (``limits`` a, b, as ``adaptive_quad``) or [ua, ub] x [va, vb]
    (ua, ub, va, vb, as ``adaptive_quad_2d``).

    Row i of ``start_values``, when given, is ``fs[i]`` at ``start_nodes(
    *limits, initial=initial)``; otherwise each integrand is called there.
    The start-mesh rules of the whole batch come from one call.  Each
    integrand then refines alone, when the iterator reaches it, and one
    whose start error meets ``abs_err`` returns at once; so each result has
    the bits of a batch of one, and a failure raises in batch order.
    """
    fs = list(fs)
    los, his = limits[::2], limits[1::2]
    if not all(map(math.isfinite, limits)):
        raise ValueError("integration limits must be finite")
    if any(map(operator.eq, los, his)):
        return iter([QuadResult(0.0, 0.0, 0)] * len(fs))
    if any(map(operator.gt, los, his)):
        raise ValueError("require hi >= lo on every axis")
    c, h = start_mesh(*limits, initial=initial)
    floor = 1e-15 * max(*map(abs, limits), 1.0)
    if start_values is None:
        start_values = [f(*_nodes(c, h)) for f in fs]
    val, err, dev = _rule(start_values, h)
    return (_refine(f, c, h, floor, abs_err, *rule)
            for f, *rule in zip(fs, val, err, dev.swapaxes(0, 1)))


def adaptive_quad(f: Callable, a: float, b: float, abs_err: float = 1e-10,
                  initial: int = 4) -> QuadResult:
    """Integrate vectorized ``f`` over [a, b] to the requested tolerance."""
    return next(adaptive_quad_batch([f], a, b, abs_err=abs_err, initial=initial))


def adaptive_quad_2d(f: Callable, ua: float, ub: float, va: float, vb: float,
                     abs_err: float = 1e-8,
                     initial: tuple[int, int] = (8, 4)) -> QuadResult:
    """Integrate vectorized ``f(u, v)`` over [ua, ub] x [va, vb].

    Rectangular panels carry a 15x15 Kronrod tensor value; the error
    indicator is the worst of |KK - GG|, |KK - GK|, |KK - KG|, and each
    split halves the axis whose Gauss deficit is larger.
    """
    return next(adaptive_quad_batch([f], ua, ub, va, vb, abs_err=abs_err,
                                    initial=initial))
