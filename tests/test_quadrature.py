"""Adaptive panel quadrature: exactness, convergence, error control."""

import math

import numpy as np
import pytest

from covbound.quadrature import (NODES, WEIGHTS_G, WEIGHTS_K, QuadratureError,
                                 QuadResult, adaptive_quad, adaptive_quad_2d,
                                 start_nodes)


def _single_panel(f, a, b):
    # one panel, no refinement: exposes the raw embedded rule
    return adaptive_quad(f, a, b, abs_err=np.inf, initial=1)


class TestEmbeddedRule:
    def test_node_weight_shapes(self):
        assert NODES.shape == (15,)
        assert WEIGHTS_K.shape == (15,)
        assert WEIGHTS_G.shape == (15,)
        assert np.all(np.diff(NODES) > 0)
        # the embedded lower-order rule only touches the odd positions
        assert np.all(WEIGHTS_G[::2] == 0.0)

    def test_weights_sum_to_length(self):
        assert abs(WEIGHTS_K.sum() - 2.0) < 1e-15
        assert abs(WEIGHTS_G.sum() - 2.0) < 1e-15

    @pytest.mark.parametrize("k", range(0, 23))
    def test_high_order_polynomial_exactness(self, k):
        # the 15-point rule integrates x^k exactly through degree 22
        res = _single_panel(lambda x: x ** k, -1.0, 1.0)
        exact = 0.0 if k % 2 == 1 else 2.0 / (k + 1)
        assert abs(res.value - exact) < 5e-15

    @pytest.mark.parametrize("k", range(0, 14))
    def test_embedded_rule_polynomial_exactness(self, k):
        # the 7-point rule is exact through degree 13: its error
        # estimate on such integrands must be pure roundoff
        res = _single_panel(lambda x: x ** k, -1.0, 1.0)
        assert res.err < 5e-15

    def test_embedded_rule_sees_degree_14(self):
        res = _single_panel(lambda x: x ** 14, -1.0, 1.0)
        assert res.err > 1e-10  # genuine gap between the two rules


class TestAdaptiveQuad:
    def test_exponential(self):
        res = adaptive_quad(np.exp, 0.0, 1.0, abs_err=1e-13)
        assert abs(res.value - (math.e - 1.0)) < 1e-13

    def test_gaussian_mass(self):
        f = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        res = adaptive_quad(f, -8.0, 8.0, abs_err=1e-13)
        want = math.erf(8.0 / math.sqrt(2.0))
        assert abs(res.value - want) < 1e-13

    def test_oscillatory(self):
        res = adaptive_quad(lambda x: np.cos(40.0 * x), 0.0, 1.0,
                            abs_err=1e-12)
        assert abs(res.value - math.sin(40.0) / 40.0) < 1e-12

    def test_error_estimate_is_honest(self):
        f = lambda x: 1.0 / (1.0 + 25.0 * x * x)
        res = adaptive_quad(f, -1.0, 1.0, abs_err=1e-10)
        want = 2.0 * math.atan(5.0) / 5.0
        assert abs(res.value - want) <= max(res.err, 1e-10)

    def test_vectorized_callable(self):
        res = adaptive_quad(lambda x: np.sin(x) ** 2, 0.0, math.pi,
                            abs_err=1e-12)
        assert abs(res.value - math.pi / 2.0) < 1e-12

    def test_deterministic(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        r1 = adaptive_quad(f, 0.0, 5.0, abs_err=1e-11)
        r2 = adaptive_quad(f, 0.0, 5.0, abs_err=1e-11)
        assert r1 == r2

    def test_budget_exhaustion_raises_with_best_estimate(self):
        # integrable singularity at an interior panel edge: refinement
        # stalls before the tolerance is met
        f = lambda x: np.abs(x) ** -0.9
        with pytest.raises(QuadratureError) as exc:
            adaptive_quad(f, -1.0, 1.0, abs_err=1e-12, max_panels=64)
        assert exc.value.value == pytest.approx(20.0, rel=0.5)
        assert exc.value.err > 1e-12
        assert exc.value.panels <= 64

    def test_zero_width_interval(self):
        res = adaptive_quad(np.exp, 2.0, 2.0, abs_err=1e-12)
        assert res.value == 0.0

    def test_stalls_on_panels_at_the_width_floor(self):
        # a jump inside an interval a few width floors wide: one round of
        # bisection reaches the floor before the tolerance is met
        f = lambda x: np.where(x > 1.0 + 5e-15, 1.0, 0.0)
        with pytest.raises(QuadratureError, match="stalled") as exc:
            adaptive_quad(f, 1.0, 1.0 + 1e-14, abs_err=1e-30)
        assert 4 < exc.value.panels < 8
        assert math.isfinite(exc.value.value)
        assert 0.0 < exc.value.err < 1e-15

    def test_refinement_convergence_order(self):
        # quadruple the panels, error shrinks far faster than 2^-4
        f = lambda x: np.exp(-0.5 * (x - 0.3) ** 2) * np.cos(3.0 * x)
        ref = adaptive_quad(f, -4.0, 4.0, abs_err=1e-14).value
        e4 = abs(adaptive_quad(f, -4.0, 4.0, abs_err=np.inf, initial=4).value - ref)
        e16 = abs(adaptive_quad(f, -4.0, 4.0, abs_err=np.inf, initial=16).value - ref)
        assert e16 <= max(e4 / 16.0 ** 4, 1e-15)


class TestAdaptiveQuad2d:
    def test_separable_polynomial(self):
        res = adaptive_quad_2d(lambda u, v: u * u * v ** 4,
                               0.0, 2.0, -1.0, 1.0, abs_err=1e-12)
        assert abs(res.value - (8.0 / 3.0) * (2.0 / 5.0)) < 1e-12

    def test_gaussian_ridge(self):
        # sharp ridge along u = v exercises the split-axis choice
        def f(u, v):
            return np.exp(-50.0 * (u - v) ** 2) * np.exp(-0.5 * v * v)

        res = adaptive_quad_2d(f, -3.0, 3.0, -3.0, 3.0, abs_err=1e-10)
        # reference computed with scipy.integrate.dblquad at 1e-13
        assert abs(res.value - 0.6263516531209987) < 2e-10

    def test_matches_iterated_1d(self):
        def f(u, v):
            return np.exp(-u) * np.cos(u + 2.0 * v)

        res2 = adaptive_quad_2d(f, 0.0, 1.5, 0.0, 1.0, abs_err=1e-11)

        def inner(u_scalar):
            r = adaptive_quad(lambda v: f(u_scalar, v), 0.0, 1.0,
                              abs_err=1e-13)
            return r.value

        res1 = adaptive_quad(np.vectorize(inner), 0.0, 1.5, abs_err=1e-11)
        assert abs(res2.value - res1.value) < 5e-11

    def test_deterministic(self):
        f = lambda u, v: np.exp(-(u * u + v * v))
        r1 = adaptive_quad_2d(f, -2, 2, -2, 2, abs_err=1e-9)
        r2 = adaptive_quad_2d(f, -2, 2, -2, 2, abs_err=1e-9)
        assert r1 == r2

    def test_budget_exhaustion(self):
        f = lambda u, v: (np.abs(u) + np.abs(v)) ** -0.9
        with pytest.raises(QuadratureError):
            adaptive_quad_2d(f, -1, 1, -1, 1, abs_err=1e-13, max_panels=32)

    def test_panels_reported(self):
        f = lambda u, v: np.exp(-(u * u + v * v))
        res = adaptive_quad_2d(f, -2, 2, -2, 2, abs_err=1e-9)
        assert res.panels >= 32
        assert res.err <= 1e-9

    @pytest.mark.parametrize("axis", [0, 1], ids=["v-only", "u-only"])
    def test_splits_only_the_under_resolved_axis(self, axis):
        # f varies along one axis only, so every split must halve that
        # axis: the other axis keeps exactly the start mesh's nodes
        other = 1 - axis
        seen = []

        def f(u, v):
            seen.append((u, v))
            return np.exp(-200.0 * (u, v)[other] ** 2)

        limits = (-1.0, 1.0, -1.0, 1.0)
        res = adaptive_quad_2d(f, *limits, abs_err=1e-10)
        assert res.panels > 32 and len(seen) >= 2
        start = start_nodes(*limits, initial=(8, 4))[axis]
        got = np.unique(np.concatenate([z[axis] for z in seen]))
        assert np.array_equal(got, np.unique(start))

    def test_never_halves_an_axis_at_the_width_floor(self):
        # the jump is along u, but u starts below the width floor: splits
        # go to v until the budget runs out, and u keeps its start nodes
        seen = []

        def f(u, v):
            seen.append(u)
            return np.where(u > 1.0 + 5e-15, 1.0, 0.0)

        limits = (1.0, 1.0 + 1e-14, 0.0, 1.0)
        with pytest.raises(QuadratureError, match="budget"):
            adaptive_quad_2d(f, *limits, abs_err=1e-30, max_panels=400)
        assert len(seen) >= 2
        start = start_nodes(*limits, initial=(8, 4))[0]
        assert np.array_equal(np.unique(np.concatenate(seen)), np.unique(start))


# (driver, integrand, limits, options, outcome): converged on the start
# mesh, refined for several rounds, or out of panel budget
_START_CASES = [
    (adaptive_quad, np.exp, (0.0, 1.0), {}, "start"),
    (adaptive_quad, lambda x: 1.0 / (1.0 + 25.0 * x * x), (-1.0, 1.0),
     {"abs_err": 1e-13, "initial": 8}, "refine"),
    (adaptive_quad, lambda x: np.abs(x) ** -0.9, (-1.0, 1.0),
     {"abs_err": 1e-12, "max_panels": 64}, "budget"),
    (adaptive_quad_2d, lambda u, v: u * u * v ** 4, (0.0, 2.0, -1.0, 1.0),
     {"abs_err": 1e-12}, "start"),
    (adaptive_quad_2d,
     lambda u, v: np.exp(-50.0 * (u - v) ** 2) * np.exp(-0.5 * v * v),
     (-3.0, 3.0, -3.0, 3.0), {"abs_err": 1e-10}, "refine"),
    (adaptive_quad_2d, lambda u, v: (np.abs(u) + np.abs(v)) ** -0.9,
     (-1.0, 1.0, -1.0, 1.0), {"abs_err": 1e-13, "max_panels": 400}, "budget"),
]


@pytest.mark.parametrize("case", _START_CASES,
                         ids=lambda c: f"{c[0].__name__}-{c[4]}")
def test_start_values_give_the_same_result(case):
    # values on the start nodes, computed by the caller, stand in for the
    # driver's first integrand call and change nothing else
    driver, f, limits, opts, outcome = case
    calls = []

    def counted(*args):
        calls.append(1)
        return f(*args)

    def run(**extra):
        calls.clear()
        try:
            return driver(counted, *limits, **opts, **extra), len(calls)
        except QuadratureError as exc:
            return (exc.value, exc.err, exc.panels), len(calls)

    initial = opts.get("initial", 4 if driver is adaptive_quad else (8, 4))
    start = f(*start_nodes(*limits, initial=initial))
    plain, n_plain = run()
    given, n_given = run(start_values=start)
    assert given == plain
    assert n_given == n_plain - 1
    assert isinstance(plain, QuadResult) == (outcome != "budget")
    if outcome == "start":
        assert n_plain == 1
    else:
        assert n_plain >= 3


@pytest.mark.parametrize("driver, limits", [
    (adaptive_quad, (-np.inf, 0.0)),
    (adaptive_quad, (0.0, np.nan)),
    (adaptive_quad_2d, (0.0, np.inf, 0.0, 1.0)),
    (adaptive_quad_2d, (0.0, 1.0, -np.inf, -np.inf)),
], ids=["1d-inf", "1d-nan", "2d-inf", "2d-empty-inf"])
def test_non_finite_limits_are_rejected(driver, limits):
    with pytest.raises(ValueError, match="finite"):
        driver(lambda *x: np.ones_like(x[0]), *limits)


@pytest.mark.parametrize("driver, f, limits", [
    (adaptive_quad, lambda x: np.full_like(x, np.nan), (0.0, 1.0)),
    (adaptive_quad, lambda x: np.where(x == x.max(), np.inf, 1.0), (0.0, 1.0)),
    (adaptive_quad_2d, lambda u, v: np.full_like(u, np.nan), (0.0, 1.0, 0.0, 1.0)),
    (adaptive_quad_2d, lambda u, v: np.where(u == u.max(), np.inf, 1.0),
     (0.0, 1.0, 0.0, 1.0)),
], ids=["1d-nan", "1d-inf", "2d-nan", "2d-inf"])
@pytest.mark.parametrize("abs_err", [1e-10, np.inf])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_values_raise(driver, f, limits, abs_err):
    # a NaN or inf from the integrand makes the error estimate non-finite,
    # which no tolerance accepts
    with pytest.raises(QuadratureError, match="not finite") as exc:
        driver(f, *limits, abs_err=abs_err)
    assert not math.isfinite(exc.value.err)
    # raised on the start mesh, before any split
    assert exc.value.panels == (4 if driver is adaptive_quad else 8 * 4)
