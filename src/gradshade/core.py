"""Scene-level types and the camera model.

Everything lives in camera space: the camera sits at the origin looking down
-z with +x to the right and +y up. Directions are plain numpy arrays of shape
(3,), images are row-major (height, width, ...) float64 arrays with row 0 at
the top of the image. All array payloads are made read-only on construction
so scenes can be shared freely across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOLERANCE = 1e-6
BACKGROUND_REGION = -1


class DegenerateVectorError(ValueError):
    """Normalization was asked for a vector with (near-)zero length."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def normalize(v) -> np.ndarray:
    """Return ``v`` scaled to unit length.

    Raises DegenerateVectorError when the norm is below 1e-12; callers that
    can tolerate degenerate inputs should test the norm themselves.
    """
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n <= 1e-12:
        raise DegenerateVectorError(f"cannot normalize vector with norm {n:.3e}")
    return v / n


@dataclass(frozen=True)
class Camera:
    """Pinhole or orthographic camera.

    ``fov_y_degrees`` is the full vertical field of view and is ignored in
    orthographic mode. Pixel (px, py) samples through the half-integer centre
    (px + 0.5, py + 0.5), with py increasing downwards.
    """

    mode: str
    image_width: int
    image_height: int
    fov_y_degrees: float = 60.0

    def __post_init__(self):
        if self.mode not in ("pinhole", "orthographic"):
            raise ValueError(f"unknown camera mode {self.mode!r}")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.mode == "pinhole" and not 0.0 < self.fov_y_degrees < 180.0:
            raise ValueError("pinhole field of view must lie in (0, 180) degrees")


def view_direction_grid(camera: Camera) -> np.ndarray:
    """(H, W, 3) array of view directions for every pixel."""
    w, h = camera.image_width, camera.image_height
    if camera.mode == "orthographic":
        grid = np.zeros((h, w, 3))
        grid[..., 2] = 1.0
        return grid
    half_tan = math.tan(math.radians(camera.fov_y_degrees) / 2.0)
    xs = (2.0 * (np.arange(w) + 0.5) / w - 1.0) * half_tan * (w / h)
    ys = 1.0 - 2.0 * (np.arange(h) + 0.5) / h
    d = np.empty((h, w, 3))
    d[..., 0] = xs[None, :]
    d[..., 1] = ys[:, None] * half_tan
    d[..., 2] = -1.0
    return -d / np.linalg.norm(d, axis=-1, keepdims=True)


@dataclass(frozen=True)
class NormalMap:
    """Per-pixel unit normals plus a foreground mask.

    Background normals are stored as exact zeros. Foreground normals must be
    unit length within 1e-6.
    """

    normals: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        normals = np.ascontiguousarray(self.normals, dtype=np.float64)
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        if normals.ndim != 3 or normals.shape[2] != 3:
            raise ValueError(f"normals must have shape (H, W, 3), got {normals.shape}")
        if mask.shape != normals.shape[:2]:
            raise ValueError("mask shape does not match normals")
        if not np.isfinite(normals).all():
            raise ValueError("normals contain non-finite values")
        norms = np.linalg.norm(normals, axis=-1)
        if np.abs(norms[mask] - 1.0).max(initial=0.0) > UNIT_TOLERANCE:
            raise ValueError("foreground normals must be unit length within 1e-6")
        normals = normals.copy()
        normals[~mask] = 0.0
        object.__setattr__(self, "normals", _freeze(normals))
        object.__setattr__(self, "mask", _freeze(mask))

    @property
    def height(self) -> int:
        return self.normals.shape[0]

    @property
    def width(self) -> int:
        return self.normals.shape[1]


@dataclass(frozen=True)
class EnvironmentMap:
    """Equirectangular radiance map, shape (H_L, W_L, 3), non-negative."""

    radiance: np.ndarray

    def __post_init__(self):
        rad = np.ascontiguousarray(self.radiance, dtype=np.float64)
        if rad.ndim != 3 or rad.shape[2] != 3:
            raise ValueError(f"radiance must have shape (H, W, 3), got {rad.shape}")
        if rad.size == 0:
            raise ValueError(f"radiance must have at least one texel, got shape {rad.shape}")
        if not np.isfinite(rad).all():
            raise ValueError("radiance contains non-finite values")
        if rad.min(initial=0.0) < 0.0:
            raise ValueError("radiance must be non-negative")
        object.__setattr__(self, "radiance", _freeze(rad))

    @property
    def height(self) -> int:
        return self.radiance.shape[0]

    @property
    def width(self) -> int:
        return self.radiance.shape[1]


@dataclass(frozen=True)
class RadianceImage:
    """Linear HDR image, shape (H, W, 3), finite and non-negative."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"pixels must have shape (H, W, 3), got {px.shape}")
        if not np.isfinite(px).all():
            raise ValueError("pixels contain non-finite values")
        if px.min(initial=0.0) < 0.0:
            raise ValueError("pixels must be non-negative")
        object.__setattr__(self, "pixels", _freeze(px))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class SegmentationMask:
    """Integer region id per pixel; background pixels carry BACKGROUND_REGION."""

    region_ids: np.ndarray
    region_count: int

    def __post_init__(self):
        ids = np.ascontiguousarray(self.region_ids, dtype=np.int32)
        if ids.ndim != 2:
            raise ValueError("region ids must be a 2-d array")
        if self.region_count < 1:
            raise ValueError("region count must be at least 1")
        valid = (ids == BACKGROUND_REGION) | ((ids >= 0) & (ids < self.region_count))
        if not valid.all():
            raise ValueError("region ids must be -1 (background) or in [0, region_count)")
        object.__setattr__(self, "region_ids", _freeze(ids))

    @property
    def height(self) -> int:
        return self.region_ids.shape[0]

    @property
    def width(self) -> int:
        return self.region_ids.shape[1]
