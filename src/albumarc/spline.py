"""Natural cubic splines over a fixed control grid on [0, 1].

Template curves are stored as control points on a strictly increasing knot
grid with endpoints 0 and 1 and evaluated by natural cubic-spline
interpolation (zero second derivative at both ends).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default knot grid used for template curves throughout the project.
DEFAULT_KNOTS = (0.0, 0.2, 0.3, 0.5, 0.65, 0.8, 1.0)


@dataclass(frozen=True)
class TemplateCurve:
    """A natural cubic spline through ``(xs[i], ys[i])`` control points.

    ``second_derivs`` holds the spline's second derivative at each knot
    (zero at both endpoints), which together with the control points fully
    determines the piecewise cubic.
    """

    xs: np.ndarray
    ys: np.ndarray
    second_derivs: np.ndarray

    def __post_init__(self):
        for name in ("xs", "ys", "second_derivs"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __call__(self, x) -> np.ndarray | float:
        return eval_curve(self, x)


def check_knots(xs) -> np.ndarray:
    """``xs`` as a float array, checked to be a knot grid: at least 2
    strictly increasing knots from exactly 0 to exactly 1."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1 or len(xs) < 2:
        raise ValueError("need at least 2 knots")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("knots must be strictly increasing")
    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise ValueError("knot grid must span exactly [0, 1]")
    return xs


def natural_second_derivatives(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Solve the natural-spline tridiagonal system for knot second derivatives."""
    q = len(xs)
    m = np.zeros(q)
    if q == 2:
        return m
    h = np.diff(xs)
    # Interior equations: h[i-1]/6*m[i-1] + (h[i-1]+h[i])/3*m[i] + h[i]/6*m[i+1]
    #   = dy/dx difference of adjacent segments.
    a = np.diag((h[:-1] + h[1:]) / 3.0) + np.diag(h[1:-1] / 6.0, 1) + np.diag(h[1:-1] / 6.0, -1)
    rhs = np.diff(np.diff(ys) / h)
    m[1:-1] = np.linalg.solve(a, rhs)
    return m


def build_spline(xs, ys) -> TemplateCurve:
    """Build the natural cubic spline through the given control points."""
    xs = check_knots(xs)
    ys = np.asarray(ys, dtype=np.float64)
    if ys.shape != xs.shape:
        raise ValueError(f"control value count {ys.shape} != knot count {xs.shape}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("non-finite control value")
    return TemplateCurve(xs, ys, natural_second_derivatives(xs, ys))


def eval_curve(curve: TemplateCurve, x) -> np.ndarray | float:
    """Evaluate the spline at ``x`` (scalar or array) inside [0, 1]."""
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("evaluation point outside [0, 1]")
    xs, ys, m = curve.xs, curve.ys, curve.second_derivs
    idx = np.clip(np.searchsorted(xs, x_arr, side="right") - 1, 0, len(xs) - 2)
    h = xs[idx + 1] - xs[idx]
    a = (xs[idx + 1] - x_arr) / h
    b = (x_arr - xs[idx]) / h
    val = (
        a * ys[idx]
        + b * ys[idx + 1]
        + ((a**3 - a) * m[idx] + (b**3 - b) * m[idx + 1]) * h**2 / 6.0
    )
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(val)
    return val


def sampling_matrix(xs, points) -> np.ndarray:
    """Matrix ``S`` with ``S @ ys == eval_curve(build_spline(xs, ys), points)``.

    Natural-spline interpolation is linear in the control values, so sampling
    any fixed set of points is a fixed linear map.  Used to evaluate many
    control-value vectors against the same grids cheaply.
    """
    xs = np.asarray(xs, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    q = len(xs)
    cols = []
    for j in range(q):
        basis = np.zeros(q)
        basis[j] = 1.0
        cols.append(eval_curve(build_spline(xs, basis), points))
    return np.column_stack(cols)
