"""File formats: PFM for HDR images, 16-bit RGBA PNG for normal maps and
segmentations, JSON for materials, 8-bit PNG for tone-mapped previews.

Everything round-trips losslessly at its stated precision: PFM carries raw
little-endian float32, the normal codec quantizes to 1/65535 per component,
and material parameters survive exactly through shortest-round-trip decimals.
Readers raise MalformedFileError on anything they cannot parse.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .brdf import PARAM_COUNT, DsbrdfMaterial, default_bounds
from .core import BACKGROUND_REGION, NormalMap, SegmentationMask

MATERIAL_FORMAT_VERSION = 1

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


class MalformedFileError(ValueError):
    """The file exists but does not parse as the expected format."""


# ---------------------------------------------------------------------------
# PFM

def write_pfm(path, image) -> None:
    """Write an (H, W, 3) float array as color PFM (little-endian, scale -1); refuse what float32 cannot hold."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"PFM payload must have shape (H, W, 3), got {image.shape}")
    with np.errstate(over="ignore"):
        single = image.astype(np.float32)
    if not np.isfinite(single).all():
        raise ValueError(f"PFM payload does not fit float32: largest magnitude {np.abs(image).max():.3e}")
    h, w = image.shape[:2]
    header = f"PF\n{w} {h}\n-1.0\n".encode("ascii")
    # PFM stores rows bottom-to-top.
    payload = np.flipud(single).astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


def read_pfm(path) -> np.ndarray:
    """Read a color PFM into an (H, W, 3) float64 array (top row first)."""
    data = Path(path).read_bytes()

    def token(pos):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedFileError("truncated PFM header")
        return data[start:pos], pos

    try:
        magic, pos = token(0)
        if magic == b"Pf":
            raise MalformedFileError("grayscale 'Pf' maps are not supported, expected color 'PF'")
        if magic != b"PF":
            raise MalformedFileError(f"not a PFM file (magic {magic[:8]!r})")
        wtok, pos = token(pos)
        htok, pos = token(pos)
        stok, pos = token(pos)
        w, h = int(wtok), int(htok)
        scale = float(stok)
    except (ValueError, UnicodeDecodeError) as exc:
        if isinstance(exc, MalformedFileError):
            raise
        raise MalformedFileError(f"bad PFM header: {exc}") from exc
    if w <= 0 or h <= 0 or scale == 0.0 or not np.isfinite(scale):
        raise MalformedFileError("bad PFM dimensions or scale")
    pos += 1  # exactly one whitespace byte separates header and payload
    expected = w * h * 3 * 4
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise MalformedFileError(f"PFM payload truncated: wanted {expected} bytes, have {len(payload)}")
    endian = "<" if scale < 0.0 else ">"
    # inf and NaN have all exponent bits set; test the bits, since casting a
    # signalling NaN raises the invalid-operation flag
    if ((np.frombuffer(payload, dtype=endian + "u4") & 0x7F800000) == 0x7F800000).any():
        raise MalformedFileError("PFM payload contains non-finite values")
    pixels = np.frombuffer(payload, dtype=endian + "f4").reshape(h, w, 3).astype(np.float64)
    if abs(scale) != 1.0:
        with np.errstate(over="ignore"):
            pixels *= abs(scale)
        if not np.isfinite(pixels).all():
            raise MalformedFileError("PFM scale takes the payload past float range")
    return np.flipud(pixels).copy()


# ---------------------------------------------------------------------------
# PNG container (16-bit RGBA and 8-bit RGB variants)

def _png_chunk(kind: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + kind
        + payload
        + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF)
    )


def _write_png(path, pixels: np.ndarray, bit_depth: int, color_type: int) -> None:
    h, w = pixels.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    dtype = ">u2" if bit_depth == 16 else "u1"
    rows = pixels.astype(dtype).tobytes()
    stride = w * pixels.shape[2] * (bit_depth // 8)
    raw = b"".join(b"\x00" + rows[y * stride : (y + 1) * stride] for y in range(h))
    body = _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(raw, 6)) + _png_chunk(b"IEND", b"")
    Path(path).write_bytes(_PNG_MAGIC + body)


def _unfilter(raw: bytes, h: int, w: int, channels: int, bit_depth: int) -> np.ndarray:
    bpp = channels * (bit_depth // 8)
    stride = w * bpp
    if len(raw) != h * (stride + 1):
        raise MalformedFileError("PNG scanline data has the wrong length")
    out = np.zeros((h, stride), dtype=np.uint8)
    raw = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    for y in range(h):
        ftype = int(raw[y, 0])
        line = raw[y, 1:].astype(np.int64)
        prev = out[y - 1].astype(np.int64) if y > 0 else np.zeros(stride, dtype=np.int64)
        if ftype == 0:
            out[y] = line
        elif ftype == 1:  # Sub: cumulative along each byte lane
            lanes = line.reshape(-1, bpp)
            out[y] = (np.cumsum(lanes, axis=0) % 256).reshape(-1)
        elif ftype == 2:  # Up
            out[y] = (line + prev) % 256
        elif ftype in (3, 4):
            # Average and Paeth depend on the byte just decoded to the left:
            # a sequential loop, run on Python ints, which beat numpy scalars.
            cur, up = line.tolist(), prev.tolist()
            row = bytearray(stride)
            # the first pixel has no left neighbours (a = c = 0): both predict from b alone
            row[:bpp] = bytes((c + (b >> 1 if ftype == 3 else b)) & 255 for c, b in zip(cur[:bpp], up))
            if ftype == 3:  # Average
                for i in range(bpp, stride):
                    row[i] = (cur[i] + ((row[i - bpp] + up[i]) >> 1)) & 255
            else:  # Paeth
                for i in range(bpp, stride):
                    a, b, c = row[i - bpp], up[i], up[i - bpp]
                    pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
                    row[i] = (cur[i] + (a if pa <= pb and pa <= pc else b if pb <= pc else c)) & 255
            out[y] = np.frombuffer(row, dtype=np.uint8)
        else:
            raise MalformedFileError(f"unknown PNG filter type {ftype}")
    return out


def _read_png(path, *, expect_bit_depth: int, expect_color_type: int) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:8] != _PNG_MAGIC:
        raise MalformedFileError("not a PNG file")
    pos = 8
    ihdr = None
    idat = b""
    try:
        while pos < len(data):
            if pos + 8 > len(data):
                raise MalformedFileError("truncated PNG chunk header")
            (length,) = struct.unpack(">I", data[pos : pos + 4])
            kind = data[pos + 4 : pos + 8]
            payload = data[pos + 8 : pos + 8 + length]
            if len(payload) != length or pos + 12 + length > len(data):
                raise MalformedFileError("truncated PNG chunk")
            (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
            if crc != (zlib.crc32(kind + payload) & 0xFFFFFFFF):
                raise MalformedFileError(f"bad CRC in {kind!r} chunk")
            pos += 12 + length
            if kind == b"IHDR":
                ihdr = payload
            elif kind == b"IDAT":
                idat += payload
            elif kind == b"IEND":
                break
        if ihdr is None or len(ihdr) != 13:
            raise MalformedFileError("missing or malformed IHDR")
        w, h, bit_depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
        if comp != 0 or filt != 0:
            raise MalformedFileError("unsupported PNG compression/filter method")
        if interlace != 0:
            raise MalformedFileError("interlaced PNG is not supported")
        if bit_depth != expect_bit_depth:
            raise MalformedFileError(f"expected {expect_bit_depth}-bit samples, file has {bit_depth}")
        if color_type != expect_color_type:
            raise MalformedFileError(f"expected PNG color type {expect_color_type}, file has {color_type}")
        if w == 0 or h == 0 or w > 1 << 20 or h > 1 << 20:
            raise MalformedFileError("unreasonable PNG dimensions")
        channels = {2: 3, 6: 4}[color_type]
        # Inflate no further than the scanlines IHDR declares, so that a small
        # compressed stream cannot allocate an unbounded output.
        inflater = zlib.decompressobj()
        raw = inflater.decompress(idat, h * (w * channels * (bit_depth // 8) + 1))
        if inflater.decompress(inflater.unconsumed_tail, 1) or not inflater.eof:
            raise MalformedFileError("PNG image data does not inflate to the size IHDR declares")
        rows = _unfilter(raw, h, w, channels, bit_depth)
    except (struct.error, zlib.error, KeyError, OverflowError, MemoryError) as exc:
        raise MalformedFileError(f"bad PNG data: {exc}") from exc
    if expect_bit_depth == 16:
        arr = np.frombuffer(rows.tobytes(), dtype=">u2").reshape(h, w, channels).astype(np.uint16)
    else:
        arr = rows.reshape(h, w, channels)
    return arr


# ---------------------------------------------------------------------------
# Normal maps and segmentations as 16-bit RGBA PNG

def write_normal_png16(path, normal_map: NormalMap) -> None:
    """Encode components as round((n + 1) / 2 * 65535); alpha is the mask."""
    n = normal_map.normals
    enc = np.rint((n + 1.0) / 2.0 * 65535.0).astype(np.uint16)
    alpha = np.where(normal_map.mask, 65535, 0).astype(np.uint16)
    rgba = np.concatenate([enc, alpha[:, :, None]], axis=2)
    rgba[~normal_map.mask, :3] = 0
    _write_png(path, rgba, 16, 6)


def read_normal_png16(path) -> NormalMap:
    """Decode and renormalize a 16-bit RGBA normal map."""
    arr = _read_png(path, expect_bit_depth=16, expect_color_type=6)
    mask = arr[:, :, 3] > 0
    n = arr[:, :, :3].astype(np.float64) / 65535.0 * 2.0 - 1.0
    norms = np.linalg.norm(n, axis=2)
    fg_norms = norms[mask]
    if fg_norms.size and fg_norms.min() < 0.5:
        raise MalformedFileError("foreground pixel decodes to a degenerate normal")
    n[mask] /= norms[mask][:, None]
    n[~mask] = 0.0
    return NormalMap(n, mask)


def write_segmentation_png16(path, segmentation: SegmentationMask) -> None:
    """Region ids in the red channel, foreground flagged by alpha."""
    ids = segmentation.region_ids
    fg = ids != BACKGROUND_REGION
    rgba = np.zeros(ids.shape + (4,), dtype=np.uint16)
    rgba[:, :, 0] = np.where(fg, ids, 0).astype(np.uint16)
    rgba[:, :, 3] = np.where(fg, 65535, 0)
    _write_png(path, rgba, 16, 6)


def read_segmentation_png16(path) -> SegmentationMask:
    arr = _read_png(path, expect_bit_depth=16, expect_color_type=6)
    fg = arr[:, :, 3] > 0
    ids = np.where(fg, arr[:, :, 0].astype(np.int32), BACKGROUND_REGION)
    count = int(ids.max()) + 1 if fg.any() else 1
    return SegmentationMask(ids, max(count, 1))


def write_preview_png(path, ldr) -> None:
    """8-bit RGB preview of an LdrImage (values rounded)."""
    px = np.clip(np.rint(ldr.pixels), 0, 255).astype(np.uint8)
    _write_png(path, px, 8, 2)


# ---------------------------------------------------------------------------
# Materials

def write_material(path, material: DsbrdfMaterial) -> None:
    doc = {
        "version": MATERIAL_FORMAT_VERSION,
        "name": material.name,
        "params": material.raw.tolist(),
        "lo": material.lo.tolist(),
        "hi": material.hi.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1), encoding="ascii")


def read_material(path) -> DsbrdfMaterial:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: deeply nested arrays
        raise MalformedFileError(f"bad material file: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFileError("material file must hold a JSON object")
    if "version" not in doc:
        raise MalformedFileError("material file is missing its version tag")
    if type(doc["version"]) is not int or doc["version"] != MATERIAL_FORMAT_VERSION:  # bool is an int subclass
        raise MalformedFileError(f"unsupported material format version {doc['version']!r}")
    params = doc.get("params")
    if not isinstance(params, list) or len(params) != PARAM_COUNT:
        have = len(params) if isinstance(params, list) else "no"
        raise MalformedFileError(f"material file must carry exactly {PARAM_COUNT} params, has {have}")
    lo, hi = doc.get("lo"), doc.get("hi")
    if (lo is None) != (hi is None):
        raise MalformedFileError("material lo/hi bounds must be present together")
    if lo is not None and not (isinstance(lo, list) and isinstance(hi, list) and len(lo) == len(hi) == PARAM_COUNT):
        raise MalformedFileError(f"material lo/hi must be {PARAM_COUNT}-entry lists")
    # numpy would read true as 1 and "0.5" as 0.5; json gives numbers as int or float only
    if any(type(v) not in (int, float) for seq in (params, lo or (), hi or ()) for v in seq):
        raise MalformedFileError("material params and bounds must be JSON numbers, not strings, booleans or null")
    if lo is None:
        lo, hi = default_bounds()
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedFileError("material name must be a string")
    try:
        return DsbrdfMaterial(np.asarray(params, dtype=np.float64), np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64), name)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an integer past float range
        raise MalformedFileError(f"invalid material payload: {exc}") from exc
