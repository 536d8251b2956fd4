"""Clamped quadratic B-splines on [0, pi/2].

The material model stores every coefficient as a curve over the half-angle
theta_d, represented by 6 control points on the clamped knot vector
[0 0 0 1/4 1/2 3/4 1 1 1] (knots in the normalized parameter t = theta /
(pi/2)). The knots never change, so the basis has a closed form per span:
on span j = min(floor(4t), 3), with r = 4t - j and q = 1 - r, only N_j,
N_{j+1} and N_{j+2} are non-zero, namely q^2/2, 1/2 + r q and r^2/2 on the
interior spans, q^2, r (2 - 1.5 r) and r^2/2 on span 0, and q^2/2,
q (2 - 1.5 q) and r^2 on span 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEGREE = 2
CONTROL_COUNT = 6
THETA_MAX = math.pi / 2.0
KNOTS = np.array([0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0])
KNOTS.flags.writeable = False

# Gram-matrix condition number above which a fit is rejected as rank deficient.
MAX_FIT_CONDITION = 1e12


class RankDeficientError(ValueError):
    """Fit sample placement leaves some control point unconstrained."""


def basis_matrix(theta) -> np.ndarray:
    """Evaluate all six basis functions.

    Accepts scalars or arrays of angles in radians; angles are clamped to
    [0, pi/2]. Returns an array of shape ``np.shape(theta) + (6,)``.
    """
    s = 4.0 * np.clip(np.asarray(theta, dtype=np.float64) / THETA_MAX, 0.0, 1.0)
    # t = 1 closes the last span; NaN compares false, lands on span 0 and
    # gives a NaN row.
    span = (s >= 1.0).astype(np.intp) + (s >= 2.0) + (s >= 3.0)
    r = s - span  # exact: s and span are within a factor of two
    q = 1.0 - r
    # The span forms from the Bernstein terms q^2, 2rq, r^2: the middle function
    # takes half of q^2 except on span 0 and half of r^2 except on span 3.
    q2, r2 = q * q, r * r
    left = 0.5 * q2 * (span > 0)
    right = 0.5 * r2 * (span < 3)
    out = np.zeros(s.shape + (CONTROL_COUNT,))
    flat = out.reshape(-1)
    at = CONTROL_COUNT * np.arange(s.size).reshape(s.shape) + span
    flat[at] = q2 - left
    flat[at + 1] = 2.0 * r * q + left + right
    flat[at + 2] = r2 - right
    return out


@dataclass(frozen=True)
class QuadBSpline:
    """A quadratic spline as its six control values."""

    control_points: np.ndarray

    def __post_init__(self):
        cp = np.ascontiguousarray(self.control_points, dtype=np.float64)
        if cp.shape != (CONTROL_COUNT,):
            raise ValueError(f"expected {CONTROL_COUNT} control points, got shape {cp.shape}")
        if not np.isfinite(cp).all():
            raise ValueError("control points must be finite")
        cp.flags.writeable = False
        object.__setattr__(self, "control_points", cp)

    def evaluate(self, theta):
        """Spline value at ``theta`` (scalar or array, radians)."""
        return basis_matrix(theta) @ self.control_points

    __call__ = evaluate


def fit(thetas, values) -> QuadBSpline:
    """Least-squares fit of a spline to sampled (theta, value) pairs.

    Needs at least 6 samples. Solves the normal equations; raises
    RankDeficientError when sample placement leaves the Gram matrix with a
    condition number above 1e12 (e.g. all samples inside one knot span).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if thetas.shape != values.shape or thetas.ndim != 1:
        raise ValueError("thetas and values must be 1-d arrays of equal length")
    if thetas.size < CONTROL_COUNT:
        raise ValueError(f"need at least {CONTROL_COUNT} samples, got {thetas.size}")
    phi = basis_matrix(thetas)
    gram = phi.T @ phi
    if np.linalg.cond(gram) > MAX_FIT_CONDITION:
        raise RankDeficientError("sample placement leaves the spline fit rank deficient")
    coef = np.linalg.solve(gram, phi.T @ values)
    return QuadBSpline(coef)


def greville_thetas() -> np.ndarray:
    """Angles at which each basis function peaks (knot averages), shape (6,)."""
    g = np.array([KNOTS[i + 1 : i + 1 + DEGREE].mean() for i in range(CONTROL_COUNT)])
    return g * THETA_MAX
