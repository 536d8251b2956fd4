"""DSBRDF material model.

Reflectance per color channel k is a sum of three exponential lobes,

    f_k = sum_s  exp(a_ks(theta_d) * base ** b_ks(theta_d)) - 1,

where base = clamp(h . n, EPS_BASE, 1) for half vector h and surface normal
n, and each coefficient a_ks / b_ks is a quadratic B-spline curve over the
half-angle theta_d (see :mod:`gradshade.spline`). That makes 3 channels x 3
lobes x 2 coefficients x 6 control points = 108 raw parameters, stored flat
with index ((k * 3 + s) * 2 + t) * 6 + j.

The per-parameter bounds (lo, hi) travel with the material; the solver keeps
raw parameters inside them. The lobes themselves are evaluated only by the
tile engine, :mod:`gradshade._shading`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spline
from .core import _checked_array

CHANNELS = 3
LOBES = 3
COEFFS = 2
PARAM_COUNT = CHANNELS * LOBES * COEFFS * spline.CONTROL_COUNT  # 108

# Lower clamp applied to h . n before exponentiation; keeps base ** b and its
# logarithm finite for grazing half angles.
EPS_BASE = 1e-6

# A lobe value beyond this is reported as an overflow rather than rendered.
OVERFLOW_LIMIT = 1e30

AMPLITUDE_BOUNDS = (-15.0, 15.0)
EXPONENT_BOUNDS = (0.05, 20.0)


class ShadingOverflowError(ArithmeticError):
    """A lobe evaluated beyond OVERFLOW_LIMIT (or to a non-finite value)."""


def flat_index(k: int, s: int, t: int, j: int) -> int:
    """Flat position of control point j of coefficient t, lobe s, channel k."""
    if not (0 <= k < CHANNELS and 0 <= s < LOBES and 0 <= t < COEFFS and 0 <= j < spline.CONTROL_COUNT):
        raise IndexError(f"parameter index ({k}, {s}, {t}, {j}) out of range")
    return ((k * LOBES + s) * COEFFS + t) * spline.CONTROL_COUNT + j


def default_bounds() -> tuple[np.ndarray, np.ndarray]:
    """Per-parameter (lo, hi) arrays: [-15, 15] for amplitudes, [0.05, 20] for exponents."""
    lo = np.empty(PARAM_COUNT)
    hi = np.empty(PARAM_COUNT)
    shaped_lo = lo.reshape(CHANNELS, LOBES, COEFFS, spline.CONTROL_COUNT)
    shaped_hi = hi.reshape(CHANNELS, LOBES, COEFFS, spline.CONTROL_COUNT)
    shaped_lo[:, :, 0, :], shaped_hi[:, :, 0, :] = AMPLITUDE_BOUNDS
    shaped_lo[:, :, 1, :], shaped_hi[:, :, 1, :] = EXPONENT_BOUNDS
    return lo, hi


@dataclass(frozen=True)
class DsbrdfMaterial:
    """108 raw spline control points plus their per-parameter bounds."""

    raw: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    name: str | None = None

    def __post_init__(self):
        for field in ("raw", "lo", "hi"):
            object.__setattr__(self, field, _checked_array(field, getattr(self, field), (PARAM_COUNT,)))
        if not (self.lo < self.hi).all():
            raise ValueError("each lo bound must be strictly below its hi bound")

    @property
    def control_points(self) -> np.ndarray:
        """Read-only view shaped (channel, lobe, coefficient, control)."""
        return self.raw.reshape(CHANNELS, LOBES, COEFFS, spline.CONTROL_COUNT)

    def with_raw(self, raw: np.ndarray) -> "DsbrdfMaterial":
        return DsbrdfMaterial(raw, self.lo, self.hi, self.name)


def material_from_raw(raw, name: str | None = None) -> DsbrdfMaterial:
    """Material with the default bounds attached."""
    lo, hi = default_bounds()
    return DsbrdfMaterial(np.asarray(raw, dtype=np.float64), lo, hi, name)

