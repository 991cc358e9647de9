"""Adaptive panel quadrature with embedded Gauss-Kronrod error estimates.

One panel = one (G7, K15) rule evaluation: the 15-point Kronrod value is
the estimate, |K15 - G7| the error indicator.  Refinement is round-based
and deterministic: every panel whose indicator exceeds its equal share of
the remaining budget is bisected, all children of a round are evaluated in
a single vectorized call, and the final sum runs over panels sorted by
position so results are bit-for-bit reproducible.

Two drivers are exposed:

* ``adaptive_quad``    -- 1D over [a, b],
* ``adaptive_quad_2d`` -- tensor-product panels over [ua,ub] x [va,vb];
  each rectangle carries per-axis (Kronrod x Gauss) deficits and is split
  along the axis that looks under-resolved.

Integrands must be vectorized (ndarray in, ndarray out, elementwise).
Exceeding the panel budget raises ``QuadratureError`` carrying the best
estimate and the achieved error so callers can decide what to do.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["QuadratureError", "QuadResult", "adaptive_quad", "adaptive_quad_2d",
           "start_nodes"]

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
    """Panel budget exhausted; carries the best estimate reached so far."""

    def __init__(self, message: str, value: float, err: float, panels: int):
        super().__init__(f"{message} (best estimate {value!r}, error {err:.3e}, "
                         f"{panels} panels)")
        self.value = value
        self.err = err
        self.panels = panels


class QuadResult(NamedTuple):
    value: float
    err: float
    panels: int


def _effective_tol(total: float, abs_err: float, rel_err: float) -> float:
    return max(abs_err, rel_err * abs(total))


def _start_mesh(limits, initial):
    # (c, h) or (cu, cv, hu, hv): centres, then half-widths, of the equal
    # start panels over [a, b] or [ua, ub] x [va, vb], u major; cached and
    # read-only, as every gamma of a coverage bound starts on one mesh
    return _cached_mesh(tuple(map(float, limits)),
                        tuple(map(int, np.atleast_1d(initial))))


@lru_cache(maxsize=8)
def _cached_mesh(limits, initial):
    edges = [np.linspace(lo, hi, n + 1)
             for lo, hi, n in zip(limits[::2], limits[1::2], initial)]
    mesh = tuple(z.ravel() for z in (
        *np.meshgrid(*[0.5 * (e[1:] + e[:-1]) for e in edges], indexing="ij"),
        *np.meshgrid(*[0.5 * (e[1:] - e[:-1]) for e in edges], indexing="ij")))
    for z in mesh:
        z.flags.writeable = False
    return mesh


def _nodes(*mesh):
    # the Kronrod nodes of every panel, one array per axis
    if len(mesh) == 2:
        return (mesh[0][:, None] + mesh[1][:, None] * NODES[None, :],)
    cu, cv, hu, hv = mesh
    u = cu[:, None, None] + hu[:, None, None] * NODES[None, :, None]
    v = cv[:, None, None] + hv[:, None, None] * NODES[None, None, :]
    return np.broadcast_arrays(u, v)


def start_nodes(*limits: float, initial):
    """The nodes, one flat array per axis, where ``adaptive_quad(f, a, b)``
    or ``adaptive_quad_2d(f, ua, ub, va, vb)`` first calls ``f``."""
    return tuple(z.ravel() for z in _nodes(*_start_mesh(limits, initial)))


def adaptive_quad(f: Callable, a: float, b: float, abs_err: float = 1e-10,
                  rel_err: float = 0.0, max_panels: int = 4096,
                  initial: int = 4, start_values=None) -> QuadResult:
    """Integrate vectorized ``f`` over [a, b] to the requested tolerance;
    ``start_values`` are ``f`` at ``start_nodes(a, b, initial=initial)``."""
    if a == b:
        return QuadResult(0.0, 0.0, 0)
    if not b > a:
        raise ValueError("require b >= a")
    c, h = _start_mesh((a, b), initial)

    def evaluate(c, h, fv=None):
        if fv is None:
            fv = f(_nodes(c, h)[0].ravel())
        fv = np.asarray(fv, dtype=float).reshape(len(c), len(NODES))
        val = h * (fv @ WEIGHTS_K)
        err = np.abs(val - h * (fv @ WEIGHTS_G))
        return val, err

    val, err = evaluate(c, h, start_values)
    while True:
        total = float(val.sum())
        tol = _effective_tol(total, abs_err, rel_err)
        bad = err > tol / (2.0 * len(c))
        splittable = bad & (h > 1e-15 * max(abs(a), abs(b), 1.0))
        if float(err.sum()) <= tol or not splittable.any():
            if float(err.sum()) > tol:
                raise QuadratureError("quadrature stalled on panels too "
                                      "narrow to split", total,
                                      float(err.sum()), len(c))
            break
        if len(c) + splittable.sum() > max_panels:
            raise QuadratureError("quadrature did not converge within the "
                                  "panel budget", total, float(err.sum()),
                                  len(c))
        keep = ~splittable
        ck, hk = c[splittable], h[splittable]
        child_c = np.concatenate([ck - hk / 2.0, ck + hk / 2.0])
        child_h = np.concatenate([hk / 2.0, hk / 2.0])
        cv, ce = evaluate(child_c, child_h)
        c = np.concatenate([c[keep], child_c])
        h = np.concatenate([h[keep], child_h])
        val = np.concatenate([val[keep], cv])
        err = np.concatenate([err[keep], ce])

    order = np.argsort(c, kind="stable")
    return QuadResult(float(val[order].sum()), float(err.sum()), len(c))


def adaptive_quad_2d(f: Callable, ua: float, ub: float, va: float, vb: float,
                     abs_err: float = 1e-8, rel_err: float = 0.0,
                     max_panels: int = 40000,
                     initial: tuple[int, int] = (8, 4),
                     start_values=None) -> QuadResult:
    """Integrate vectorized ``f(u, v)`` over [ua, ub] x [va, vb].

    Rectangular panels carry a 15x15 Kronrod tensor value; the error
    indicator is the worst of |KK - GG|, |KK - GK|, |KK - KG|, and each
    split halves the axis whose Gauss deficit is larger.  ``start_values``
    are ``f`` at ``start_nodes(ua, ub, va, vb, initial=initial)``.
    """
    if ua == ub or va == vb:
        return QuadResult(0.0, 0.0, 0)
    if not (ub > ua and vb > va):
        raise ValueError("require ub >= ua and vb >= va")
    cu, cv, hu, hv = _start_mesh((ua, ub, va, vb), initial)

    def evaluate(cu, cv, hu, hv, fv=None):
        if fv is None:
            fv = f(*(z.ravel() for z in _nodes(cu, cv, hu, hv)))
        fv = np.asarray(fv, dtype=float).reshape(len(cu), len(NODES), len(NODES))
        area = hu * hv
        kk = area * np.einsum("pij,i,j->p", fv, WEIGHTS_K, WEIGHTS_K)
        gg = area * np.einsum("pij,i,j->p", fv, WEIGHTS_G, WEIGHTS_G)
        gk = area * np.einsum("pij,i,j->p", fv, WEIGHTS_G, WEIGHTS_K)
        kg = area * np.einsum("pij,i,j->p", fv, WEIGHTS_K, WEIGHTS_G)
        du = np.abs(kk - gk)  # u-axis under-resolution
        dv = np.abs(kk - kg)
        err = np.maximum(np.abs(kk - gg), np.maximum(du, dv))
        return kk, err, du, dv

    val, err, du, dv = evaluate(cu, cv, hu, hv, start_values)
    scale = max(abs(ua), abs(ub), abs(va), abs(vb), 1.0)
    while True:
        total = float(val.sum())
        tol = _effective_tol(total, abs_err, rel_err)
        bad = err > tol / (2.0 * len(val))
        splittable = bad & (np.maximum(hu, hv) > 1e-15 * scale)
        if float(err.sum()) <= tol or not splittable.any():
            if float(err.sum()) > tol:
                raise QuadratureError("quadrature stalled on panels too "
                                      "narrow to split", total,
                                      float(err.sum()), len(val))
            break
        if len(val) + splittable.sum() > max_panels:
            raise QuadratureError("quadrature did not converge within the "
                                  "panel budget", total, float(err.sum()),
                                  len(val))
        keep = ~splittable
        su, sv = cu[splittable], cv[splittable]
        shu, shv = hu[splittable], hv[splittable]
        along_u = du[splittable] >= dv[splittable]
        # refuse to shrink an axis below the width floor
        along_u = np.where(shu > 1e-15 * scale, along_u, False)
        along_u = np.where(shv > 1e-15 * scale, along_u, True)
        off_u = np.where(along_u, shu / 2.0, 0.0)
        off_v = np.where(along_u, 0.0, shv / 2.0)
        new_hu = np.where(along_u, shu / 2.0, shu)
        new_hv = np.where(along_u, shv, shv / 2.0)
        child_cu = np.concatenate([su - off_u, su + off_u])
        child_cv = np.concatenate([sv - off_v, sv + off_v])
        child_hu = np.concatenate([new_hu, new_hu])
        child_hv = np.concatenate([new_hv, new_hv])
        nv_, ne_, ndu_, ndv_ = evaluate(child_cu, child_cv, child_hu, child_hv)
        cu = np.concatenate([cu[keep], child_cu])
        cv = np.concatenate([cv[keep], child_cv])
        hu = np.concatenate([hu[keep], child_hu])
        hv = np.concatenate([hv[keep], child_hv])
        val = np.concatenate([val[keep], nv_])
        err = np.concatenate([err[keep], ne_])
        du = np.concatenate([du[keep], ndu_])
        dv = np.concatenate([dv[keep], ndv_])

    order = np.lexsort((cv, cu))
    return QuadResult(float(val[order].sum()), float(err.sum()), len(val))
