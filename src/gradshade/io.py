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
    rows = pixels.astype(">u2" if bit_depth == 16 else "u1").reshape(h, w * pixels.shape[2]).view(np.uint8)
    raw = np.pad(rows, ((0, 0), (1, 0)))  # filter type 0 (None) in front of every scanline
    body = _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", zlib.compress(raw, 6)) + _png_chunk(b"IEND", b"")
    Path(path).write_bytes(_PNG_MAGIC + body)


_BPP = 8  # bytes per pixel of the one layout read, 16-bit RGBA
_BAND_ROWS = 128  # most rows of one Average/Paeth band, and so of its wavefront scratch
# Average/Paeth bytes per wavefront step from which a band takes the wavefront.
# A step costs 7-27 us and the per-byte loop 0.13 (Average) to 0.3 (Paeth) us a
# byte (2-core x86-64, numpy 2.4), so the break-even depends on the mix: near
# 40 bytes for pure Average bands and 55 for pure Paeth, and about 180 for the
# costliest measured one, all five filters with mostly Average rows. 192 keeps
# every measured mix at least as fast as the loop.
_WAVEFRONT_LANES = 192


def _average_paeth_row(kind: int, line: np.ndarray, up: np.ndarray) -> np.ndarray:
    """One Average (3) or Paeth (4) row, byte by byte: each byte needs the one just decoded to its left."""
    # Python ints and locals: both beat numpy scalars and module globals here
    bpp, cur, up = _BPP, line.tolist(), up.tolist()
    row = bytearray(len(cur))
    # the first pixel has no left neighbours (a = c = 0): both predict from b alone
    row[:bpp] = bytes((c + (b >> 1 if kind == 3 else b)) & 255 for c, b in zip(cur[:bpp], up))
    if kind == 3:
        for i in range(bpp, len(cur)):
            row[i] = (cur[i] + ((row[i - bpp] + up[i]) >> 1)) & 255
    else:
        for i in range(bpp, len(cur)):
            a, b, c = row[i - bpp], up[i], up[i - bpp]
            pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
            row[i] = (cur[i] + (a if pa <= pb and pa <= pc else b if pb <= pc else c)) & 255
    return np.frombuffer(row, dtype=np.uint8)


def _wavefront(lines: np.ndarray, prev: np.ndarray, kinds: np.ndarray, out: np.ndarray) -> None:
    """Decode (R, stride) filtered ``lines`` below the decoded row ``prev`` into ``out``, each row by its own filter.

    Pixel (i, x) reads only (i, x-1), (i-1, x) and (i-1, x-1), so all pixels
    with the same i + x decode at once. The scratch holds the band skewed,
    row i shifted right by i pixels: step t is then the column slice
    ``sk[t]`` of (R, bpp) lanes, and the band takes w + R steps.
    """
    rows, stride = lines.shape
    w = stride // _BPP
    # sk[t, i] is pixel (i, t - i - 1) of [prev; lines]; pixel -1 of each row is a zero left border
    sk = np.zeros((w + rows + 1, rows + 1, _BPP), dtype=np.uint8)
    st, si = sk.strides[:2]
    skewed = np.lib.stride_tricks.as_strided(sk[1:], (rows + 1, w, _BPP), (st + si, st, 1))
    skewed[0] = prev.reshape(w, _BPP)
    skewed[1:] = lines.reshape(rows, w, _BPP)  # decoded in place, over the filtered bytes
    # Paeth, or else Average, predicts every lane; rows of the other filters
    # overwrite it, chosen by (R + 1, 1) masks
    base = 4 if (kinds == 4).any() else 3
    others = [(k, np.append(False, kinds == k)[:, None]) for k in range(4) if k != base and (kinds == k).any()]
    diff = np.empty((3, rows, _BPP), dtype=np.int16)
    for t in range(2, w + rows + 1):
        lo, hi = max(1, t - w), min(rows, t - 1) + 1
        a, b, c = sk[t - 1, lo:hi], sk[t - 1, lo - 1 : hi - 1], sk[t - 2, lo - 1 : hi - 1]
        if base == 4:
            d = diff[:, : hi - lo]
            np.subtract(b, c, out=d[0], dtype=np.int16)  # p - a, with p = a + b - c
            np.subtract(a, c, out=d[1], dtype=np.int16)  # p - b
            np.add(d[0], d[1], out=d[2])  # p - c
            np.abs(d, out=d)
            pred = np.where(d[1] <= d[2], b, c)
            np.copyto(pred, a, where=d[0] <= np.minimum(d[1], d[2]))
        else:
            pred = (np.add(a, b, dtype=np.uint16) >> 1).astype(np.uint8)
        for k, mask in others:
            value = 0 if k == 0 else a if k == 1 else b if k == 2 else np.add(a, b, dtype=np.uint16) >> 1
            np.copyto(pred, value, where=mask[lo:hi], casting="unsafe")
        sk[t, lo:hi] += pred
    out.reshape(rows, w, _BPP)[:] = skewed[1:]


def _unfilter(raw: bytes, h: int, w: int) -> np.ndarray:
    """Undo the per-row PNG filters of 8-byte pixels: (h, 8 w) uint8 scanlines.

    Every filter byte is checked first. None rows are one copy, Sub rows one
    cumulative sum along each byte lane, and each run of Up rows one
    cumulative sum down the run from the row above. Average and Paeth rows
    read the byte just decoded to their left, so they go in bands: a band
    starts at an Average/Paeth row and ends at the last such row within
    _BAND_ROWS rows; its other rows keep their own predictor. A band
    decodes as a wavefront over its anti-diagonals (``_wavefront``: w + rows
    numpy steps, scratch the size of the band) once it has at least
    _WAVEFRONT_LANES Average/Paeth bytes per step, about rows x bytes per
    pixel for an image much wider than the band. A thinner band, such as one
    wide Paeth row, keeps the per-byte loop, which is then faster.
    """
    stride = w * _BPP
    if len(raw) != h * (stride + 1):
        raise MalformedFileError("PNG scanline data has the wrong length")
    scan = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    kinds, lines = scan[:, 0], scan[:, 1:]
    ks = kinds.tolist()
    if max(ks) > 4:
        raise MalformedFileError(f"unknown PNG filter type {next(k for k in ks if k > 4)}")
    out = np.zeros((h, stride), dtype=np.uint8)
    if 0 in ks:
        out[kinds == 0] = lines[kinds == 0]
    if 1 in ks:
        sub = kinds == 1
        out[sub] = np.cumsum(lines[sub].reshape(-1, w, _BPP), axis=1, dtype=np.uint8).reshape(-1, stride)
    # Up runs and Average/Paeth bands, top down: each reads the row above it
    y = 0
    while y < h:
        if ks[y] < 2:
            y += 1
            continue
        prev = out[y - 1] if y else np.zeros(stride, dtype=np.uint8)
        end = y + 1
        if ks[y] == 2:
            while end < h and ks[end] == 2:
                end += 1
            np.cumsum(lines[y:end], axis=0, dtype=np.uint8, out=out[y:end])
            out[y:end] += prev
        else:
            band = ks[y : y + _BAND_ROWS]
            end = y + max(i for i, k in enumerate(band) if k >= 3) + 1
            if sum(k >= 3 for k in band) * stride >= _WAVEFRONT_LANES * (w + end - y):
                _wavefront(lines[y:end], prev, kinds[y:end], out[y:end])
            else:
                for r in range(y, end):
                    if ks[r] == 2:
                        out[r] = lines[r] + out[r - 1]
                    elif ks[r] >= 3:
                        out[r] = _average_paeth_row(ks[r], lines[r], out[r - 1] if r > y else prev)
        y = end
    return out


def _read_png(path, *, expect_bit_depth: int = 16, expect_color_type: int = 6) -> np.ndarray:
    """(H, W, 4) uint16 samples of a 16-bit RGBA PNG, the one layout the program reads.

    The two keywords only name that layout; ``perfbench/tests`` pass them.
    """
    if (expect_bit_depth, expect_color_type) != (16, 6):
        raise ValueError("only 16-bit RGBA (bit depth 16, color type 6) PNGs are read")
    data = Path(path).read_bytes()
    if data[:8] != _PNG_MAGIC:
        raise MalformedFileError("not a PNG file")
    pos = 8
    ihdr = None
    idat = []  # joined once: adding to bytes copies them, quadratic in the chunk count
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
                idat.append(payload)
            elif kind == b"IEND":
                break
        if ihdr is None or len(ihdr) != 13:
            raise MalformedFileError("missing or malformed IHDR")
        w, h, bit_depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
        if comp != 0 or filt != 0:
            raise MalformedFileError("unsupported PNG compression/filter method")
        if interlace != 0:
            raise MalformedFileError("interlaced PNG is not supported")
        if bit_depth != 16:
            raise MalformedFileError(f"expected 16-bit samples, file has {bit_depth}")
        if color_type != 6:
            raise MalformedFileError(f"expected PNG color type 6, file has {color_type}")
        if w == 0 or h == 0 or w * h > 1 << 24:  # 4096 x 4096, or 128 MiB of scanlines, at most
            raise MalformedFileError("unreasonable PNG dimensions")
        # Inflate no further than the scanlines IHDR declares, so that a small
        # compressed stream cannot allocate an unbounded output.
        inflater = zlib.decompressobj()
        raw = inflater.decompress(b"".join(idat), h * (w * _BPP + 1))
        if inflater.decompress(inflater.unconsumed_tail, 1) or not inflater.eof:
            raise MalformedFileError("PNG image data does not inflate to the size IHDR declares")
        rows = _unfilter(raw, h, w)
    except (struct.error, zlib.error, OverflowError, MemoryError) as exc:
        raise MalformedFileError(f"bad PNG data: {exc}") from exc
    return rows.view(">u2").reshape(h, w, 4).astype(np.uint16)


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
    arr = _read_png(path)
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
    arr = _read_png(path)
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
