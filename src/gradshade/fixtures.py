"""Deterministic synthetic scenes: analytic normal maps, environment maps,
and a few hand-picked materials. Everything here is cheap to build and exact,
which makes these the inputs of choice for tests and demos.
"""

from __future__ import annotations

import numpy as np

from . import spline
from .brdf import DsbrdfMaterial, flat_index, material_from_raw
from .core import EnvironmentMap, NormalMap, normalize
from .render import build_light_table


def sphere_mask_normals(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw (normals, mask) arrays of an orthographic unit sphere.

    Pixel centres map to u = 2 (px + 0.5) / R - 1 and v likewise from py;
    points with u^2 + v^2 <= 1 carry n = (u, -v, sqrt(1 - u^2 - v^2)) so the
    sphere bulges toward the camera with +y up.
    """
    if resolution < 8:
        raise ValueError("sphere resolution must be at least 8")
    coords = 2.0 * (np.arange(resolution) + 0.5) / resolution - 1.0
    u = coords[None, :]
    v = coords[:, None]
    r2 = u**2 + v**2
    mask = r2 <= 1.0
    normals = np.zeros((resolution, resolution, 3))
    normals[:, :, 0] = np.where(mask, u, 0.0)
    normals[:, :, 1] = np.where(mask, -v, 0.0)
    normals[:, :, 2] = np.where(mask, np.sqrt(np.clip(1.0 - r2, 0.0, None)), 0.0)
    return normals, mask


def sphere_normal_map(resolution: int) -> NormalMap:
    """Orthographic unit sphere; the work-horse test subject."""
    normals, mask = sphere_mask_normals(resolution)
    return NormalMap(normals, mask)


def gaussian_blob_env(height: int, width: int, blobs) -> EnvironmentMap:
    """Environment map as a sum of angular Gaussian lobes.

    ``blobs`` is a sequence of (direction, sigma, rgb): each adds
    rgb * exp(-angle(dir, texel)^2 / (2 sigma^2)) to every texel, with sigma
    in radians. Texel directions are those of ``render.build_light_table``.
    """
    dirs = build_light_table(height, width).directions
    radiance = np.zeros((height, width, 3))
    for direction, sigma, rgb in blobs:
        if float(sigma) <= 0.0:
            raise ValueError("blob sigma must be positive")
        rgb = np.asarray(rgb, dtype=np.float64)
        if rgb.min(initial=0.0) < 0.0:
            raise ValueError("blob rgb must be non-negative")
        d = normalize(np.asarray(direction, dtype=np.float64))
        angle = np.arccos(np.clip(dirs @ d, -1.0, 1.0))
        falloff = np.exp(-(angle**2) / (2.0 * float(sigma) ** 2))
        radiance += falloff[:, :, None] * rgb[None, None, :]
    return EnvironmentMap(radiance)


def default_blob_env(height: int = 16, width: int = 32) -> EnvironmentMap:
    """Three colored blobs: warm key light, cool fill, faint back light."""
    return gaussian_blob_env(
        height,
        width,
        [
            ((0.4, 0.8, 0.45), 0.35, (5.0, 4.5, 3.8)),
            ((-0.7, 0.2, 0.68), 0.55, (0.8, 1.1, 1.6)),
            ((0.1, -0.3, -0.95), 0.8, (0.5, 0.4, 0.6)),
        ],
    )


def _constant_curves(values_by_channel_lobe) -> np.ndarray:
    """Raw parameter vector with constant coefficient curves.

    ``values_by_channel_lobe[k][s]`` gives (amplitude, exponent) for channel k,
    lobe s; all six control points of each curve take that value.
    """
    raw = np.zeros(108)
    for k in range(3):
        for s in range(3):
            a, b = values_by_channel_lobe[k][s]
            for j in range(spline.CONTROL_COUNT):
                raw[flat_index(k, s, 0, j)] = a
                raw[flat_index(k, s, 1, j)] = b
    return raw


def preset_materials() -> dict[str, DsbrdfMaterial]:
    """Small deterministic material zoo keyed by name.

    zero        shades to exact black everywhere;
    matte       one broad unit-exponent lobe per channel, slightly warm;
    glossy      a matte base plus a tight exponent-heavy lobe;
    two-tone-a  red-leaning diffuse with a mild sheen;
    two-tone-b  blue-leaning diffuse with a sharp lobe (pairs with -a for
                two-region scenes).
    """
    zero = material_from_raw(np.zeros(108), name="zero")

    matte = material_from_raw(
        _constant_curves(
            [
                [(0.9, 1.0), (0.0, 1.0), (0.0, 1.0)],
                [(0.8, 1.0), (0.0, 1.0), (0.0, 1.0)],
                [(0.7, 1.0), (0.0, 1.0), (0.0, 1.0)],
            ]
        ),
        name="matte",
    )

    glossy_raw = _constant_curves(
        [
            [(0.55, 1.1), (0.0, 14.0), (0.0, 1.0)],
            [(0.5, 1.1), (0.0, 14.0), (0.0, 1.0)],
            [(0.45, 1.1), (0.0, 14.0), (0.0, 1.0)],
        ]
    )
    # The sharp lobe tapers off toward grazing half-angles the way measured
    # materials do; amplitudes land on the lobe-1 amplitude curve.
    for k, amp in enumerate((1.6, 1.5, 1.4)):
        for j, scale in enumerate((1.0, 1.0, 0.75, 0.45, 0.2, 0.05)):
            glossy_raw[flat_index(k, 1, 0, j)] = amp * scale
    glossy = material_from_raw(glossy_raw, name="glossy")

    two_tone_a = material_from_raw(
        _constant_curves(
            [
                [(1.0, 1.0), (0.35, 6.0), (0.0, 1.0)],
                [(0.45, 1.0), (0.3, 6.0), (0.0, 1.0)],
                [(0.3, 1.0), (0.25, 6.0), (0.0, 1.0)],
            ]
        ),
        name="two-tone-a",
    )
    two_tone_b = material_from_raw(
        _constant_curves(
            [
                [(0.3, 1.0), (0.5, 12.0), (0.0, 1.0)],
                [(0.5, 1.0), (0.7, 12.0), (0.0, 1.0)],
                [(0.95, 1.0), (1.0, 12.0), (0.0, 1.0)],
            ]
        ),
        name="two-tone-b",
    )

    return {m.name: m for m in (zero, matte, glossy, two_tone_a, two_tone_b)}
