"""PNG encoder with per-row adaptive filters, and a small PNG decoder.

The encoder writes 16-bit RGBA the way common encoders do: each scanline gets
the filter (None, Sub, Up, Average or Paeth) whose output has the smallest
sum of absolute values when its bytes are read as signed, and IDAT is split
into 8 KiB chunks. Smooth images thus reach every unfilter path of a reader.

The decoder reads non-interlaced 8-bit or 16-bit RGB/RGBA files with any
filter. It is for checking outputs and favours plainness over speed.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")
IDAT_CHUNK = 8192
_CHANNELS = {2: 3, 6: 4}


def _chunk(kind: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(kind + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + kind + payload + struct.pack(">I", crc)


def _paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(rows: np.ndarray, bpp: int) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive filtering of (H, stride) uint8 scanlines.

    Returns (filtered bytes (H, stride) uint8, filter type per row (H,)).
    """
    x = rows.astype(np.int32)
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, bpp:] = x[:-1, :-bpp]
    candidates = np.stack(
        [x, x - a, x - b, x - (a + b) // 2, x - _paeth_predictor(a, b, c)]
    ) % 256  # (5, H, stride)
    signed = np.where(candidates < 128, candidates, 256 - candidates)
    choice = np.argmin(signed.sum(axis=2), axis=0)  # ties go to the lower type
    out = candidates[choice, np.arange(x.shape[0])].astype(np.uint8)
    return out, choice


def encode(pixels: np.ndarray, bit_depth: int = 16) -> tuple[bytes, np.ndarray]:
    """PNG bytes of an (H, W, 3|4) image and the filter type chosen per row."""
    h, w, channels = pixels.shape
    color_type = {3: 2, 4: 6}[channels]
    dtype = ">u2" if bit_depth == 16 else "u1"
    bpp = channels * bit_depth // 8
    rows = np.frombuffer(pixels.astype(dtype).tobytes(), dtype=np.uint8).reshape(h, w * bpp)
    filtered, types = filter_rows(rows, bpp)
    raw = np.concatenate([types.astype(np.uint8)[:, None], filtered], axis=1).tobytes()
    data = zlib.compress(raw, 6)
    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, 0)
    idat = b"".join(_chunk(b"IDAT", data[i : i + IDAT_CHUNK]) for i in range(0, len(data), IDAT_CHUNK))
    return MAGIC + _chunk(b"IHDR", ihdr) + idat + _chunk(b"IEND", b""), types


def write_png(path, pixels: np.ndarray, bit_depth: int = 16) -> np.ndarray:
    """Write ``pixels`` as PNG; returns the filter type chosen per row."""
    data, types = encode(pixels, bit_depth)
    Path(path).write_bytes(data)
    return types


def _unfilter_row(ftype: int, line: np.ndarray, prev: np.ndarray, bpp: int) -> np.ndarray:
    if ftype == 0:
        return line
    if ftype == 1:
        return (np.cumsum(line.reshape(-1, bpp), axis=0) % 256).reshape(-1)
    if ftype == 2:
        return (line + prev) % 256
    if ftype not in (3, 4):
        raise ValueError(f"unknown PNG filter type {ftype}")
    out = np.zeros_like(line)
    left = np.zeros(bpp, dtype=line.dtype)
    upleft = np.zeros(bpp, dtype=line.dtype)
    for i in range(0, line.size, bpp):
        up = prev[i : i + bpp]
        pred = (left + up) // 2 if ftype == 3 else _paeth_predictor(left, up, upleft)
        left = out[i : i + bpp] = (line[i : i + bpp] + pred) % 256
        upleft = up
    return out


def decode(data: bytes) -> np.ndarray:
    """(H, W, C) uint8 or uint16 array of a non-interlaced RGB/RGBA PNG."""
    if data[:8] != MAGIC:
        raise ValueError("not a PNG file")
    pos, header, idat = 8, None, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        kind = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if crc != zlib.crc32(kind + payload) & 0xFFFFFFFF:
            raise ValueError(f"bad CRC in {kind!r}")
        pos += 12 + length
        if kind == b"IHDR":
            header = struct.unpack(">IIBBBBB", payload)
        elif kind == b"IDAT":
            idat.append(payload)
        elif kind == b"IEND":
            break
    if header is None:
        raise ValueError("missing IHDR")
    w, h, bit_depth, color_type, _, _, interlace = header
    if interlace or bit_depth not in (8, 16) or color_type not in _CHANNELS:
        raise ValueError("only non-interlaced 8/16-bit RGB or RGBA is supported")
    channels = _CHANNELS[color_type]
    bpp = channels * bit_depth // 8
    stride = w * bpp
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if raw.size != h * (stride + 1):
        raise ValueError("scanline data has the wrong length")
    raw = raw.reshape(h, stride + 1).astype(np.int64)
    rows = np.zeros((h, stride), dtype=np.int64)
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        rows[y] = prev = _unfilter_row(int(raw[y, 0]), raw[y, 1:], prev, bpp)
    flat = rows.astype(np.uint8).tobytes()
    if bit_depth == 16:
        return np.frombuffer(flat, dtype=">u2").reshape(h, w, channels).astype(np.uint16)
    return np.frombuffer(flat, dtype=np.uint8).reshape(h, w, channels).copy()


def read_png(path) -> np.ndarray:
    return decode(Path(path).read_bytes())
