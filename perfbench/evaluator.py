"""Independent evaluator of the image formula, for checking outputs.

    I_k(p) = sum_i f_k(p, i) * L_k(i) * max(0, n_p . omega_i) * w_i

It is written from the formula, not from the library: its own light table,
its own closed-form quadratic B-spline basis (per knot span, not the
Cox-de Boor recursion), lobes as exp(a * base ** b) - 1 (not the library's
expm1(b * log(base)) route), and one pixel at a time with numpy vectorised
over the lights. From gradshade it takes only the input types, read through
their public fields.
"""

from __future__ import annotations

import math

import numpy as np

EPS_BASE = 1e-6  # lower clamp of h . n, part of the material model
DEGENERATE_HALF = 1e-8  # |omega + view| below this leaves h undefined


def light_table(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Texel-centre directions (I, 3) and solid-angle weights (I,), row-major."""
    theta = (np.arange(height) + 0.5) * (math.pi / height)
    phi = (np.arange(width) + 0.5) * (2.0 * math.pi / width)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack([np.cos(ph) * np.sin(th), np.cos(th), np.sin(ph) * np.sin(th)], axis=-1)
    weights = np.sin(th) * (math.pi / height) * (2.0 * math.pi / width)
    return dirs.reshape(-1, 3), weights.reshape(-1)


def spline_basis(theta: np.ndarray) -> np.ndarray:
    """(N, 6) basis of the clamped quadratic spline on knots 0,0,0,1/4,1/2,3/4,1,1,1.

    theta is in radians over [0, pi/2]. Each of the four spans carries three
    quadratics in the local coordinate u in [0, 1]; t = 1 closes the last span.
    """
    t = np.clip(np.asarray(theta, dtype=np.float64) / (math.pi / 2.0), 0.0, 1.0)
    span = np.minimum(np.floor(4.0 * t), 3.0).astype(np.int64)
    u = 4.0 * t - span
    out = np.zeros(t.shape + (6,))
    rows = np.arange(t.size)
    first = (1.0 - u) ** 2 / 2.0
    mid = (1.0 + 2.0 * u - 2.0 * u * u) / 2.0
    last = u * u / 2.0
    # interior spans 1 and 2 are uniform; spans 0 and 3 carry the clamped ends
    first = np.where(span == 0, (1.0 - u) ** 2, first)
    mid = np.where(span == 0, 2.0 * u - 1.5 * u * u, mid)
    v = 1.0 - u
    mid = np.where(span == 3, 2.0 * v - 1.5 * v * v, mid)
    last = np.where(span == 3, u * u, last)
    out[rows, span] = first
    out[rows, span + 1] = mid
    out[rows, span + 2] = last
    return out


def pinhole_view(width: int, height: int, fov_y_degrees: float, px, py) -> np.ndarray:
    """Unit direction toward a pinhole camera from the point seen by pixel (px, py)."""
    half_tan = math.tan(math.radians(fov_y_degrees) / 2.0)
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    ray = np.stack(
        [
            (2.0 * (px + 0.5) / width - 1.0) * half_tan * (width / height),
            (1.0 - 2.0 * (py + 0.5) / height) * half_tan,
            -np.ones_like(px),
        ],
        axis=-1,
    )
    return -ray / np.sqrt(np.sum(ray * ray, axis=-1, keepdims=True))


def shade(normal, view, raw, dirs, weights, radiance) -> np.ndarray:
    """Radiance (3,) leaving one surface point, summed over all lights.

    ``normal`` need not be unit length, so finite differences may perturb it.
    """
    normal = np.asarray(normal, dtype=np.float64)
    cos_i = dirs @ normal
    lit = cos_i > 0.0
    omega = dirs[lit]
    s = omega + np.asarray(view, dtype=np.float64)
    length = np.sqrt(np.sum(s * s, axis=1))
    ok = length >= DEGENERATE_HALF
    omega, s, length = omega[ok], s[ok], length[ok]
    half = s / length[:, None]
    base = np.clip(half @ normal, EPS_BASE, 1.0)
    theta_d = np.arccos(np.clip(np.sum(omega * half, axis=1), 0.0, 1.0))
    coeff = np.asarray(raw, dtype=np.float64).reshape(3, 3, 2, 6) @ spline_basis(theta_d).T
    f = np.sum(np.exp(coeff[:, :, 0] * base ** coeff[:, :, 1]) - 1.0, axis=1)  # (3, L)
    light = radiance[lit][ok] * (cos_i[lit][ok] * weights[lit][ok])[:, None]
    return np.sum(f.T * light, axis=0)


class SceneEvaluator:
    """Evaluates pixels of a gradshade RenderScene, optionally with other materials."""

    def __init__(self, scene, materials=None):
        self.scene = scene
        env = scene.env.radiance
        self.dirs, self.weights = light_table(env.shape[0], env.shape[1])
        self.radiance = np.asarray(env, dtype=np.float64).reshape(-1, 3)
        mats = scene.materials if materials is None else tuple(materials)
        self.raws = [np.asarray(m.raw, dtype=np.float64) for m in mats]

    def view(self, px: int, py: int) -> np.ndarray:
        cam = self.scene.camera
        if cam.mode == "orthographic":
            return np.array([0.0, 0.0, 1.0])
        return pinhole_view(cam.image_width, cam.image_height, cam.fov_y_degrees, px, py)

    def raw_at(self, px: int, py: int) -> np.ndarray:
        seg = self.scene.segmentation
        return self.raws[0] if seg is None else self.raws[int(seg.region_ids[py, px])]

    def pixel(self, px: int, py: int, normal=None) -> np.ndarray:
        """Radiance of pixel (px, py); zero on background unless a normal is given."""
        nm = self.scene.normal_map
        if normal is None:
            if not nm.mask[py, px]:
                return np.zeros(3)
            normal = nm.normals[py, px]
        return shade(normal, self.view(px, py), self.raw_at(px, py), self.dirs, self.weights, self.radiance)

    def image(self) -> np.ndarray:
        nm = self.scene.normal_map
        out = np.zeros((nm.height, nm.width, 3))
        for py, px in zip(*np.nonzero(nm.mask)):
            out[py, px] = self.pixel(int(px), int(py))
        return out
