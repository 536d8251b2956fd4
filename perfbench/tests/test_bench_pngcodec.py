"""The benchmark's PNG encoder and decoder."""

import struct
import zlib

import numpy as np

import pngcodec
from gradshade.io import _read_png, write_preview_png
from gradshade.metrics import LdrImage


def _mixed_image(rng, h=48, w=40):
    """Rows of noise, ramps and flat runs, so the heuristic picks several filters."""
    img = np.zeros((h, w, 4), dtype=np.int64)
    img[: h // 3] = rng.integers(0, 65536, (h // 3, w, 4))
    img[h // 3 : 2 * h // 3] = np.cumsum(rng.integers(0, 300, (h // 3, w, 4)), axis=1)
    smooth = np.cumsum(np.cumsum(rng.integers(0, 40, (h - 2 * (h // 3), w, 4)), axis=0), axis=1)
    img[2 * (h // 3) :] = smooth
    return np.clip(img, 0, 65535).astype(np.uint16)


def test_round_trip_through_both_decoders(tmp_path):
    rng = np.random.default_rng(3)
    img = _mixed_image(rng)
    path = tmp_path / "x.png"
    types = pngcodec.write_png(path, img)
    assert len(set(types.tolist())) >= 3
    assert np.array_equal(pngcodec.read_png(path), img)
    assert np.array_equal(_read_png(path, expect_bit_depth=16, expect_color_type=6), img)


def test_each_filter_decodes(tmp_path):
    rng = np.random.default_rng(4)
    img = _mixed_image(rng, 12, 9)
    rows = np.frombuffer(img.astype(">u2").tobytes(), dtype=np.uint8).reshape(12, -1)
    for ftype in range(5):
        # force one filter on every row by re-filtering with that choice only
        x = rows.astype(np.int32)
        a = np.zeros_like(x)
        a[:, 8:] = x[:, :-8]
        b = np.zeros_like(x)
        b[1:] = x[:-1]
        c = np.zeros_like(x)
        c[1:, 8:] = x[:-1, :-8]
        pred = [0, a, b, (a + b) // 2, pngcodec._paeth_predictor(a, b, c)][ftype]
        filtered = ((x - pred) % 256).astype(np.uint8)
        raw = np.concatenate([np.full((12, 1), ftype, np.uint8), filtered], axis=1).tobytes()
        ihdr = struct.pack(">IIBBBBB", 9, 12, 16, 6, 0, 0, 0)
        data = pngcodec.MAGIC + pngcodec._chunk(b"IHDR", ihdr) + pngcodec._chunk(b"IDAT", zlib.compress(raw))
        data += pngcodec._chunk(b"IEND", b"")
        assert np.array_equal(pngcodec.decode(data), img), ftype


def test_decodes_the_program_preview(tmp_path):
    rng = np.random.default_rng(5)
    px = rng.integers(0, 256, (7, 11, 3)).astype(np.float64)
    path = tmp_path / "p.png"
    write_preview_png(path, LdrImage(px))
    assert np.array_equal(pngcodec.read_png(path), px.astype(np.uint8))
