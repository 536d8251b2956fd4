"""Seeded inputs of the benchmark workloads.

Scenes that the program can build itself (the orthographic sphere, the
criterion-4 problem) are built in the workload process with the program's
constructors. The photographs of the editing workload are made here from a
seed and written as files with the benchmark's own encoders before that
process starts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import pngcodec

# Criterion-10 scene and criterion-4 problem, as the acceptance tests pose them.
ORTHO_RESOLUTION = 128
ORTHO_ENV = (64, 128)
SOLVE_RESOLUTION = 32
SOLVE_ENV = (16, 32)
SOLVE_NOISE_SEED = 140825
SOLVE_NOISE_SIGMA = 0.1
SOLVE_ENV_SCALE = 1.2

# Photographs: frame (width, height), object radius as a share of the frame
# height, and the object's offset from the image centre as a share of the
# room it has. The seed bumps the object, orients the plane between its two
# regions and picks the light and the materials. Frames, radii, offsets and
# the region share stay fixed, so every seed gives the same pixel count per
# region: the work per run, and the chunk shapes the renderer allocates
# scratch for, do not depend on the seed.
PHOTO_FRAMES = ((320, 240), (352, 264), (384, 288), (416, 312))
PHOTO_RADII = (0.16, 0.22, 0.13, 0.19)
PHOTO_OFFSETS = ((0.5, -0.3), (-0.4, 0.5), (0.3, 0.6), (-0.6, -0.2))
PHOTO_REGION_SHARE = 0.45  # share of the object in region 0
PHOTO_FOV = 40.0
PHOTO_ENV = (16, 32)
PHOTO_DISTANCE = 5.0
PHOTO_NOISE = 1e-4

AMPLITUDE_BOUNDS = (-15.0, 15.0)
EXPONENT_BOUNDS = (0.05, 20.0)


def material_bounds() -> tuple[list, list]:
    lo, hi = [], []
    for _k in range(3):
        for _s in range(3):
            for bounds in (AMPLITUDE_BOUNDS, EXPONENT_BOUNDS):
                lo += [bounds[0]] * 6
                hi += [bounds[1]] * 6
    return lo, hi


def random_material_raw(rng: np.random.Generator) -> np.ndarray:
    """108 raw parameters: a broad lobe, a sharp lobe and a faint one per channel.

    Amplitudes stay positive so that radiance is non-negative.
    """
    raw = np.zeros((3, 3, 2, 6))
    exps = (rng.uniform(0.8, 1.6), rng.uniform(6.0, 14.0), rng.uniform(1.0, 3.0))
    for k in range(3):
        for s, (amp_lo, amp_hi) in enumerate(((0.3, 1.0), (0.2, 1.4), (0.0, 0.2))):
            taper = np.linspace(1.0, rng.uniform(0.1, 1.0), 6)
            raw[k, s, 0] = rng.uniform(amp_lo, amp_hi) * taper
            raw[k, s, 1] = exps[s] * np.linspace(1.0, rng.uniform(0.7, 1.3), 6)
    return raw.reshape(-1)


def write_material(path, raw: np.ndarray, name: str) -> None:
    lo, hi = material_bounds()
    doc = {"version": 1, "name": name, "params": [float(v) for v in raw], "lo": lo, "hi": hi}
    Path(path).write_text(json.dumps(doc), encoding="ascii")


def write_pfm(path, image: np.ndarray) -> None:
    h, w = image.shape[:2]
    payload = np.ascontiguousarray(image[::-1], dtype="<f4").tobytes()
    Path(path).write_bytes(f"PF\n{w} {h}\n-1.0\n".encode("ascii") + payload)


def read_pfm(path) -> np.ndarray:
    """(H, W, 3) float32 payload of a little-endian color PFM, top row first."""
    data = Path(path).read_bytes()
    fields = data.split(b"\n", 3)
    if fields[0] != b"PF" or float(fields[2]) != -1.0:
        raise ValueError("expected a little-endian color PFM")
    w, h = (int(v) for v in fields[1].split())
    return np.frombuffer(fields[3], dtype="<f4").reshape(h, w, 3)[::-1]


def blob_env(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Seeded (H, W, 3) radiance: a bright key light above the camera, two fills, ambient."""
    theta = (np.arange(height) + 0.5) * (math.pi / height)
    phi = (np.arange(width) + 0.5) * (2.0 * math.pi / width)
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack([np.cos(ph) * np.sin(th), np.cos(th), np.sin(ph) * np.sin(th)], axis=-1)
    radiance = np.full((height, width, 3), 0.05)
    centres = [
        (rng.uniform(-0.5, 0.5), rng.uniform(0.5, 0.9), rng.uniform(0.3, 0.8)),
        (rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.9)),
        (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.9, -0.2)),
    ]
    for centre, power, sigma in zip(centres, (5.0, 1.5, 0.6), (0.35, 0.55, 0.8)):
        d = np.asarray(centre) / np.linalg.norm(centre)
        angle = np.arccos(np.clip(dirs @ d, -1.0, 1.0))
        rgb = power * rng.uniform(0.7, 1.0, 3)
        radiance += np.exp(-(angle**2) / (2.0 * sigma**2))[:, :, None] * rgb
    return radiance


def photo_geometry(rng: np.random.Generator, width: int, height: int, radius_share: float, offset: tuple):
    """Normals (H, W, 3), mask and region ids of a bumpy sphere seen by the pinhole camera.

    The normals come from ray-sphere intersection, so they face the camera the
    way a photographed object's do. A seeded plane splits the object in two regions.
    """
    half_tan = math.tan(math.radians(PHOTO_FOV) / 2.0)
    xs = (2.0 * (np.arange(width) + 0.5) / width - 1.0) * half_tan * (width / height)
    ys = (1.0 - 2.0 * (np.arange(height) + 0.5) / height) * half_tan
    rays = np.stack(np.broadcast_arrays(xs[None, :], ys[:, None], -1.0), axis=-1)
    rays = rays / np.linalg.norm(rays, axis=-1, keepdims=True)

    slack = (1.0 - 2.0 * radius_share) * 0.8
    ray = (offset[0] * slack * half_tan * width / height, offset[1] * slack * half_tan, -1.0)
    centre = PHOTO_DISTANCE * np.asarray(ray) / np.linalg.norm(ray)
    radius = PHOTO_DISTANCE * math.sin(math.atan(2.0 * radius_share * half_tan))

    b = rays @ centre
    disc = b * b - (centre @ centre - radius * radius)
    mask = disc >= 0.0
    t = b - np.sqrt(np.where(mask, disc, 0.0))
    local = (t[:, :, None] * rays - centre) / radius  # unit sphere coordinates
    freq = rng.uniform(2.0, 5.0, 2)
    phase = rng.uniform(0.0, 2.0 * math.pi, 2)
    bump = np.zeros_like(local)
    bump[..., 0] = np.sin(freq[0] * math.pi * local[..., 1] + phase[0])
    bump[..., 1] = np.sin(freq[1] * math.pi * local[..., 0] + phase[1])
    # capture noise of a few code values, as estimated normal maps carry
    normals = local + 0.12 * bump + PHOTO_NOISE * rng.standard_normal(local.shape)
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    normals[~mask] = 0.0

    side = local @ rng.standard_normal(3)
    regions = np.where(side > np.quantile(side[mask], PHOTO_REGION_SHARE), 1, 0).astype(np.int32)
    regions[~mask] = -1
    return normals, mask, regions


def quantize_normals(normals: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(H, W, 4) uint16 RGBA: round((n + 1) / 2 * 65535), alpha marks the foreground."""
    rgba = np.zeros(normals.shape[:2] + (4,), dtype=np.uint16)
    rgba[..., :3] = np.rint((normals + 1.0) / 2.0 * 65535.0).astype(np.uint16)
    rgba[..., 3] = np.where(mask, 65535, 0)
    rgba[~mask, :3] = 0
    return rgba


def segmentation_rgba(regions: np.ndarray) -> np.ndarray:
    rgba = np.zeros(regions.shape + (4,), dtype=np.uint16)
    fg = regions >= 0
    rgba[..., 0] = np.where(fg, regions, 0)
    rgba[..., 3] = np.where(fg, 65535, 0)
    return rgba


def write_photos(seed: int, out_dir: Path, frames=PHOTO_FRAMES, radii=PHOTO_RADII, offsets=PHOTO_OFFSETS) -> dict:
    """Write the photographs, env and materials of the editing workload.

    Returns a manifest: file names per photo and the make-up of the inputs.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 4])
    write_pfm(out_dir / "env.pfm", blob_env(rng, *PHOTO_ENV))
    materials = {}
    for name in ("scene-0", "scene-1", "edit-0", "edit-1"):
        materials[name] = f"material_{name}.json"
        write_material(out_dir / materials[name], random_material_raw(rng), name)
    photos = []
    filters = np.zeros(5, dtype=np.int64)
    for i, ((w, h), share, offset) in enumerate(zip(frames, radii, offsets)):
        normals, mask, regions = photo_geometry(rng, w, h, share, offset)
        quantized = quantize_normals(normals, mask)
        np.save(out_dir / f"photo{i}_source.npy", normals)
        np.save(out_dir / f"photo{i}_quantized.npy", quantized)
        entry = {"width": w, "height": h, "foreground": int(mask.sum())}
        for kind, rgba in (("normals", quantized), ("segmentation", segmentation_rgba(regions))):
            path = out_dir / f"photo{i}_{kind}.png"
            types = pngcodec.write_png(path, rgba)
            counts = np.bincount(types, minlength=5)
            filters += counts
            entry[kind] = path.name
            entry[f"{kind}_bytes"] = path.stat().st_size
            entry[f"{kind}_filter_rows"] = dict(zip(pngcodec.FILTER_NAMES, counts.tolist()))
        photos.append(entry)
    return {
        "env": "env.pfm",
        "materials": materials,
        "photos": photos,
        "filter_rows": dict(zip(pngcodec.FILTER_NAMES, filters.tolist())),
    }
