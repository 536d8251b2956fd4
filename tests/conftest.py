"""Shared scene builders and file corruptors for the test suite."""

import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import gradshade as gs
from gradshade.brdf import material_from_raw
from gradshade.core import NormalMap, normalize
from gradshade.io import _read_png


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


def plane_normal_map(resolution, normal=(0.0, 0.0, 1.0)):
    """Every pixel carries the same unit normal; the mask is all foreground."""
    n = normalize(np.asarray(normal, dtype=np.float64))
    normals = np.broadcast_to(n, (resolution, resolution, 3)).copy()
    return NormalMap(normals, np.ones((resolution, resolution), dtype=bool))


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


def sampled_upstream(scene, seed, share=0.1):
    """Standard-normal weights on a seeded ``share`` of the foreground pixels, 0 elsewhere."""
    mask = scene.normal_map.mask
    rng = np.random.default_rng(seed)
    weighted = mask & (rng.random(mask.shape) < share)
    return np.where(weighted[:, :, None], rng.standard_normal(mask.shape + (3,)), 0.0)


@pytest.fixture
def sphere_scene():
    """16x16 orthographic sphere under the default blob lighting."""
    nm = gs.sphere_normal_map(16)
    env = gs.default_blob_env(8, 16)
    cam = gs.Camera("orthographic", nm.width, nm.height)
    return gs.RenderScene(nm, cam, env, (gs.preset_materials()["glossy"],))


def png_chunk(kind, payload):
    """One PNG chunk: length, kind, payload and CRC."""
    crc = zlib.crc32(kind + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + kind + payload + struct.pack(">I", crc)


def write_png16(path, height, width, idat, *, split=False):
    """A 16-bit RGBA PNG with the given IHDR size and raw IDAT payload, in one IDAT chunk or, ``split``, one per byte."""
    ihdr = struct.pack(">IIBBBBB", width, height, 16, 6, 0, 0, 0)
    if split:  # the 256 distinct one-byte chunks, each built once
        table = [png_chunk(b"IDAT", bytes([b])) for b in range(256)]
        body = b"".join(table[b] for b in idat)
    else:
        body = png_chunk(b"IDAT", idat)
    Path(path).write_bytes(b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", ihdr) + body + png_chunk(b"IEND", b""))


def criterion_4_problem():
    """The criterion-4 problem as the benchmark's solve_full builds it: a noisy 32² sphere under a 1.2x brighter 16x32 env."""
    nm = gs.sphere_normal_map(32)
    env = gs.default_blob_env(16, 32)
    mat = gs.preset_materials()["glossy"]
    cam = gs.Camera("orthographic", 32, 32)
    target = gs.render(gs.RenderScene(nm, cam, env, (mat,)))
    noisy = nm.normals + 0.1 * np.random.default_rng(140825).standard_normal(nm.normals.shape)
    noisy[~nm.mask] = 0.0
    norms = np.linalg.norm(noisy, axis=2, keepdims=True)
    noisy = np.where(nm.mask[:, :, None], noisy / np.where(norms == 0, 1.0, norms), 0.0)
    return gs.InverseProblem(
        target=target, normal_map=NormalMap(noisy, nm.mask), env=gs.EnvironmentMap(env.radiance * 1.2),
        materials=(mat,), camera=cam,
    )


CRITERION_4_CONFIG = dict(max_cycles=3, inner_iters_per_group=12, rel_tol=1e-8)


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


def refilter_png16(src, dst, ftypes):
    """Write the 16-bit RGBA PNG ``src`` to ``dst`` again, its rows filtered with ``ftypes``, cycled."""
    rgba = _read_png(src)
    h, w = rgba.shape[:2]
    rows = np.frombuffer(rgba.astype(">u2").tobytes(), dtype=np.uint8).reshape(h, w * 8)
    write_png16(dst, h, w, zlib.compress(filtered_scanlines(rows, 8, (list(ftypes) * h)[:h])))


# ---------------------------------------------------------------------------
# seeded mutations of well-formed files, for the decoder corpus

def _flip(data, rng):
    out = bytearray(data)
    for i in rng.integers(0, len(out), int(rng.integers(1, 5))):
        out[i] ^= int(rng.integers(1, 256))
    return bytes(out)


def _truncate(data, rng):
    return data[: int(rng.integers(0, len(data)))]


def _insert(data, rng):
    i = int(rng.integers(0, len(data) + 1))
    return data[:i] + rng.bytes(int(rng.integers(1, 9))) + data[i:]


# byte offset in the file, struct format and candidate values of the IHDR
# fields edited: width, height and bit depth (IHDR is the first chunk)
IHDR_FIELDS = (
    (16, ">I", (0, 1, 2, 3, 7, 9, 2**20, 2**20 + 1, 2**31, 2**32 - 1)),
    (20, ">I", (0, 1, 2, 3, 7, 9, 2**20, 2**20 + 1, 2**31, 2**32 - 1)),
    (24, ">B", (0, 1, 2, 4, 8, 15, 17, 32, 255)),
)


def ihdr_edit(data, rng):
    """Set one IHDR field to a hostile value and recompute the chunk's CRC, so the edit gets past it."""
    offset, fmt, values = IHDR_FIELDS[int(rng.integers(len(IHDR_FIELDS)))]
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, values[int(rng.integers(len(values)))])
    struct.pack_into(">I", out, 29, zlib.crc32(bytes(out[12:29])) & 0xFFFFFFFF)
    return bytes(out)


PFM_TOKENS = (b"PF", b"Pf", b"P6", b"0", b"-1", b"1", b"2", b"3.5", b"+2", b"1_0", b"99999999999999999999",
              b"nan", b"inf", b"-inf", b"-1e300", b"1e300", b"-1e-300", b"-0.0", b"x", b"\xff")


def pfm_token_edit(data, rng):
    """Replace one of the four header tokens (magic, width, height, scale)."""
    tokens = list(re.finditer(rb"\S+", data[:64]))[:4]
    tok = tokens[int(rng.integers(len(tokens)))]
    return data[: tok.start()] + PFM_TOKENS[int(rng.integers(len(PFM_TOKENS)))] + data[tok.end() :]


JSON_VALUES = (b"true", b"false", b"null", b'"0.5"', b"NaN", b"Infinity", b"1e400", b"1" + b"0" * 400,
               b"[]", b"{}", b"1.0", b"-0", b"2")


def json_value_edit(data, rng):
    """Replace one JSON number (the version tag included) with a hostile value."""
    numbers = list(re.finditer(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", data))
    num = numbers[int(rng.integers(len(numbers)))]
    return data[: num.start()] + JSON_VALUES[int(rng.integers(len(JSON_VALUES)))] + data[num.end() :]


def mutants(data, seed, count, edits=()):
    """``count`` seeded corruptions of ``data``: byte flips, truncations, inserted bytes and the format ``edits``."""
    rng = np.random.default_rng(seed)
    ops = (_flip, _truncate, _insert) + tuple(edits)
    for _ in range(count):
        yield ops[int(rng.integers(len(ops)))](data, rng)
