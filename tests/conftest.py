"""Shared scene builders for the test suite."""

import struct
import zlib

import numpy as np
import pytest

import gradshade as gs
from gradshade.brdf import material_from_raw
from gradshade.core import NormalMap


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_normal_map(rng, height, width, coverage=0.8):
    """Random upward-ish unit normals with a random foreground mask."""
    n = rng.standard_normal((height, width, 3))
    n[:, :, 2] = np.abs(n[:, :, 2]) + 0.1
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    mask = rng.random((height, width)) < coverage
    if not mask.any():
        mask[height // 2, width // 2] = True
    n[~mask] = 0.0
    return NormalMap(n, mask)


def random_material(rng, amp_range=(-1.2, 1.2), exp_range=(0.3, 3.0)):
    """Random in-range material; mixed-sign amplitudes unless amp_range says otherwise."""
    raw = np.zeros(108)
    for k in range(3):
        for s in range(3):
            for j in range(6):
                raw[((k * 3 + s) * 2 + 0) * 6 + j] = rng.uniform(*amp_range)
                raw[((k * 3 + s) * 2 + 1) * 6 + j] = rng.uniform(*exp_range)
    return material_from_raw(raw)


def random_scene(rng, height, width, env_h, env_w, mode="orthographic", fov=63.0,
                 amp_range=(-1.2, 1.2)):
    nm = random_normal_map(rng, height, width)
    env = gs.EnvironmentMap(rng.gamma(1.0, 1.0, (env_h, env_w, 3)))
    mat = random_material(rng, amp_range=amp_range)
    cam = gs.Camera(mode, width, height, fov)
    return gs.RenderScene(nm, cam, env, (mat,))


@pytest.fixture
def sphere_scene():
    """16x16 orthographic sphere under the default blob lighting."""
    nm = gs.sphere_normal_map(16)
    env = gs.default_blob_env(8, 16)
    cam = gs.Camera("orthographic", nm.width, nm.height)
    return gs.RenderScene(nm, cam, env, (gs.preset_materials()["glossy"],))


def write_png16(path, height, width, idat):
    """A 16-bit RGBA PNG with the given IHDR size and raw IDAT payload."""
    def chunk(kind, payload):
        crc = zlib.crc32(kind + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + kind + payload + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", width, height, 16, 6, 0, 0, 0)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b""))


def write_png_bomb(path, side=16, inflated=64 * 2**20):
    """A side x side PNG whose IDAT inflates to ``inflated`` zero bytes."""
    deflate = zlib.compressobj(9)
    block = bytes(2**20)
    idat = b"".join(deflate.compress(block) for _ in range(inflated // len(block))) + deflate.flush()
    write_png16(path, side, side, idat)


def filtered_scanlines(rows, bpp, ftypes):
    """PNG scanline bytes of (H, stride) uint8 ``rows``, row y filtered with type ftypes[y]."""
    x = rows.astype(np.int64)
    up = np.vstack([np.zeros_like(x[:1]), x[:-1]])
    left = np.pad(x, ((0, 0), (bpp, 0)))[:, :-bpp]
    upleft = np.pad(up, ((0, 0), (bpp, 0)))[:, :-bpp]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    predictors = (0, left, up, (left + up) // 2, paeth)
    return b"".join(
        bytes([t]) + ((x[y] - predictors[t][y] if t else x[y]) % 256).astype(np.uint8).tobytes()
        for y, t in enumerate(ftypes)
    )
