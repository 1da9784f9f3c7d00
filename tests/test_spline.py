"""Natural cubic spline construction, evaluation, and the sampling matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from albumarc.spline import (
    DEFAULT_KNOTS,
    build_spline,
    eval_curve,
    natural_second_derivatives,
    sampling_matrix,
)


def random_knots(rng, q):
    interior = np.sort(rng.uniform(0.05, 0.95, q - 2))
    while np.any(np.diff(interior) < 1e-3):
        interior = np.sort(rng.uniform(0.05, 0.95, q - 2))
    return np.concatenate([[0.0], interior, [1.0]])


class TestConstruction:
    def test_default_knot_grid(self):
        xs = np.asarray(DEFAULT_KNOTS)
        assert xs[0] == 0.0 and xs[-1] == 1.0
        assert np.all(np.diff(xs) > 0)
        assert len(xs) == 7

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="increasing"):
            build_spline([0.0, 0.5, 0.5, 1.0], [0, 1, 2, 3])
        with pytest.raises(ValueError, match="increasing"):
            build_spline([0.0, np.nan, 1.0], [0, 1, 2])
        with pytest.raises(ValueError, match="span"):
            build_spline([0.0, 0.5, 0.9], [0, 1, 2])
        with pytest.raises(ValueError, match="count"):
            build_spline([0.0, 1.0], [0, 1, 2])
        with pytest.raises(ValueError, match="non-finite"):
            build_spline([0.0, 1.0], [0.0, np.nan])

    def test_rejects_evaluation_outside_unit_interval(self):
        curve = build_spline([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="outside"):
            curve(1.5)
        with pytest.raises(ValueError, match="outside"):
            curve(np.array([0.5, -0.1]))


class TestInterpolation:
    def test_hand_derived_midpoint_value(self):
        # Symmetric tent through (0,0), (0.5,1), (1,0): the natural spline at
        # x=0.25 works out to 11/16 exactly.
        curve = build_spline([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert curve(0.25) == pytest.approx(0.6875, abs=1e-12)

    def test_interpolates_control_points(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = int(rng.integers(2, 9))
            xs = random_knots(rng, q) if q > 2 else np.array([0.0, 1.0])
            ys = rng.standard_normal(q)
            curve = build_spline(xs, ys)
            np.testing.assert_allclose(curve(xs), ys, atol=1e-12)

    def test_matches_reference_natural_spline(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0.0, 1.0, 257)
        for _ in range(20):
            q = int(rng.integers(3, 10))
            xs = random_knots(rng, q)
            ys = rng.standard_normal(q)
            ours = build_spline(xs, ys)(grid)
            ref = CubicSpline(xs, ys, bc_type="natural")(grid)
            np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_two_knot_curve_is_a_line(self):
        curve = build_spline([0.0, 1.0], [2.0, 5.0])
        grid = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(curve(grid), 2.0 + 3.0 * grid, atol=1e-14)

    def test_linear_control_points_reproduce_the_line(self):
        # A natural spline through collinear points is that exact line.
        xs = np.asarray(DEFAULT_KNOTS)
        ys = 0.25 + 0.5 * xs
        curve = build_spline(xs, ys)
        grid = np.linspace(0.0, 1.0, 401)
        np.testing.assert_allclose(curve(grid), 0.25 + 0.5 * grid, atol=1e-9)

    def test_scalar_in_scalar_out(self):
        curve = build_spline([0.0, 1.0], [0.0, 1.0])
        assert isinstance(curve(0.5), float)
        assert curve(np.linspace(0, 1, 5)).shape == (5,)


def one_sided_derivatives(curve, knot_index, side):
    """First and second derivative limits at a knot from one adjacent segment.

    The piecewise cubic in second-derivative form differentiates in closed
    form, so the limits are exact up to the tridiagonal solve; no finite
    differences (whose noise at knot scale swamps a 1e-9 comparison).
    """
    xs, ys, m = curve.xs, curve.ys, curve.second_derivs
    seg = knot_index - 1 if side == "left" else knot_index
    h = xs[seg + 1] - xs[seg]
    x = xs[knot_index]
    a = (xs[seg + 1] - x) / h
    b = (x - xs[seg]) / h
    d1 = (
        (ys[seg + 1] - ys[seg]) / h
        - (3 * a**2 - 1) / 6.0 * h * m[seg]
        + (3 * b**2 - 1) / 6.0 * h * m[seg + 1]
    )
    d2 = a * m[seg] + b * m[seg + 1]
    return d1, d2


class TestSmoothness:
    def test_c1_c2_continuity_at_interior_knots(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            xs = random_knots(rng, 7)
            ys = rng.standard_normal(7)
            curve = build_spline(xs, ys)
            for k in range(1, len(xs) - 1):
                d1l, d2l = one_sided_derivatives(curve, k, "left")
                d1r, d2r = one_sided_derivatives(curve, k, "right")
                assert d1l == pytest.approx(d1r, abs=1e-9)
                assert d2l == pytest.approx(d2r, abs=1e-9)

    def test_natural_boundary_second_derivatives_are_zero(self):
        rng = np.random.default_rng(3)
        xs = random_knots(rng, 6)
        ys = rng.standard_normal(6)
        m = natural_second_derivatives(xs, ys)
        assert m[0] == 0.0 and m[-1] == 0.0
        ref = CubicSpline(xs, ys, bc_type="natural")
        np.testing.assert_allclose(m, ref(xs, 2), atol=1e-9)


class TestSamplingMatrix:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        xs = np.asarray(DEFAULT_KNOTS)
        points = np.sort(rng.uniform(0, 1, 33))
        s = sampling_matrix(xs, points)
        for _ in range(10):
            ys = rng.standard_normal(len(xs))
            np.testing.assert_allclose(s @ ys, build_spline(xs, ys)(points), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=12))
    def test_linearity_in_control_values(self, n_points):
        # Sampling is a linear map, so superposition must hold exactly.
        rng = np.random.default_rng(n_points)
        xs = np.asarray(DEFAULT_KNOTS)
        points = np.linspace(0.0, 1.0, n_points)
        s = sampling_matrix(xs, points)
        ya, yb = rng.standard_normal((2, len(xs)))
        lhs = build_spline(xs, 2.0 * ya - 3.0 * yb)(points)
        np.testing.assert_allclose(lhs, 2.0 * (s @ ya) - 3.0 * (s @ yb), atol=1e-10)
