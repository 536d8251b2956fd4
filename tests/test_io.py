"""File formats: PFM, 16-bit PNG codecs, material JSON.

Every reader here must fail with MalformedFileError on bad bytes, never with
an uncontrolled exception — the fuzz tests at the bottom enforce that.
"""

import json
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    filtered_scanlines,
    ihdr_edit,
    json_value_edit,
    mutants,
    pfm_token_edit,
    random_material,
    random_normal_map,
    refilter_png16,
    write_png16,
    write_png_bomb,
)
import gradshade as gs
from gradshade import io as png_io
from gradshade.brdf import PARAM_COUNT, DsbrdfMaterial
from gradshade.core import NormalMap, SegmentationMask
from gradshade.io import (
    MalformedFileError,
    _read_png,
    read_material,
    read_normal_png16,
    read_pfm,
    read_segmentation_png16,
    write_material,
    write_normal_png16,
    write_pfm,
    write_preview_png,
    write_segmentation_png16,
)


# ---------------------------------------------------------------------------
# PFM

def test_pfm_round_trip_bit_exact(tmp_path, rng):
    img = rng.gamma(1.0, 2.0, (5, 7, 3)).astype(np.float64)
    p = tmp_path / "x.pfm"
    write_pfm(p, img)
    back = read_pfm(p)
    # storage is float32: compare against the float32 cast, bitwise
    assert back.shape == (5, 7, 3)
    assert np.array_equal(back, img.astype(np.float32).astype(np.float64))


def test_pfm_known_header_layout(tmp_path):
    p = tmp_path / "lit.pfm"
    payload = struct.pack("<48f", *([0.25] * 48))
    p.write_bytes(b"PF\n4 4\n-1.0\n" + payload)
    img = read_pfm(p)
    assert img.shape == (4, 4, 3)
    assert np.all(img == 0.25)


def test_pfm_written_header_is_scale_minus_one(tmp_path):
    p = tmp_path / "h.pfm"
    write_pfm(p, np.ones((2, 2, 3)))
    head = p.read_bytes()[:32]
    assert head.startswith(b"PF\n2 2\n")
    assert b"-1" in head.split(b"\n")[2]


def test_pfm_row_order_is_bottom_up(tmp_path):
    img = np.zeros((2, 1, 3), dtype=np.float32)
    img[0] = 1.0  # top row
    p = tmp_path / "rows.pfm"
    write_pfm(p, img)
    raw = p.read_bytes()
    body = raw[len(b"PF\n1 2\n") :]
    body = body[body.index(b"\n") + 1 :]
    first_stored_row = np.frombuffer(body[:12], dtype="<f4")
    # bottom image row (zeros) is stored first
    assert np.all(first_stored_row == 0.0)


@pytest.mark.parametrize("big", [1e39, -1e39])
def test_pfm_writer_refuses_what_float32_cannot_hold(tmp_path, big):
    """Cast to float32 it would be written as inf, which the reader rejects; nothing is written, with no warning."""
    image = np.ones((2, 2, 3))
    image[1, 0, 2] = big
    p = tmp_path / "big.pfm"
    with pytest.raises(ValueError, match=r"largest magnitude 1\.000e\+39"):
        write_pfm(p, image)
    assert not p.exists()
    image[1, 0, 2] = np.finfo(np.float32).max  # the largest float32 still fits
    write_pfm(p, image)
    assert read_pfm(p).max() == np.finfo(np.float32).max


def test_pfm_rejects_grayscale_tag(tmp_path):
    p = tmp_path / "gray.pfm"
    p.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 16)
    with pytest.raises(MalformedFileError):
        read_pfm(p)


def test_pfm_rejects_truncated_payload(tmp_path):
    p = tmp_path / "short.pfm"
    p.write_bytes(b"PF\n4 4\n-1.0\n" + b"\x00" * 100)
    with pytest.raises(MalformedFileError):
        read_pfm(p)


def test_pfm_positive_scale_reads_big_endian(tmp_path):
    # positive scale means big-endian payload; the reader honors both
    p = tmp_path / "be.pfm"
    p.write_bytes(b"PF\n1 1\n2.0\n" + struct.pack(">3f", 1.0, 2.0, 3.0))
    img = read_pfm(p)
    # |scale| != 1 rescales the samples
    assert np.array_equal(img[0, 0], [2.0, 4.0, 6.0])


def test_pfm_rejects_nonfinite_payload(tmp_path):
    p = tmp_path / "nan.pfm"
    payload = struct.pack("<3f", np.nan, 0.0, 0.0)
    p.write_bytes(b"PF\n1 1\n-1.0\n" + payload)
    with pytest.raises(MalformedFileError):
        read_pfm(p)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "header, payload",
    [
        (b"PF\n1 1\n-1.0\n", struct.pack("<3I", 0x7F800001, 0, 0)),  # a signalling NaN
        (b"PF\n1 1\n-1e300\n", struct.pack("<3f", 3e38, 0.0, 0.0)),  # scaled past float range
        (b"PF\n1 1\n-inf\n", struct.pack("<3f", 1.0, 0.0, 0.0)),  # inf * 0 would be NaN
    ],
    ids=["signalling-nan", "scale-overflow", "infinite-scale"],
)
def test_pfm_rejects_without_a_warning(tmp_path, header, payload):
    p = tmp_path / "bad.pfm"
    p.write_bytes(header + payload)
    with pytest.raises(MalformedFileError):
        read_pfm(p)


def test_pfm_rejects_bogus_dims(tmp_path):
    p = tmp_path / "dims.pfm"
    p.write_bytes(b"PF\n0 4\n-1.0\n")
    with pytest.raises(MalformedFileError):
        read_pfm(p)


# ---------------------------------------------------------------------------
# normal-map PNG16

def test_normal_codec_straight_up_pixel(tmp_path):
    n = np.zeros((1, 1, 3))
    n[0, 0] = [0.0, 0.0, 1.0]
    nm = NormalMap(n, np.ones((1, 1), dtype=bool))
    p = tmp_path / "up.png"
    write_normal_png16(p, nm)
    # decode the PNG by hand and check the quantized sample values
    raw = p.read_bytes()
    start = raw.index(b"IDAT") - 4
    size = struct.unpack(">I", raw[start : start + 4])[0]
    data = zlib.decompress(raw[start + 8 : start + 8 + size])
    samples = np.frombuffer(data[1:], dtype=">u2")  # skip filter byte
    assert samples.tolist() == [32768, 32768, 65535, 65535]


def test_normal_round_trip_quantization_error(tmp_path, rng):
    nm = random_normal_map(rng, 9, 13)
    p = tmp_path / "n.png"
    write_normal_png16(p, nm)
    back = read_normal_png16(p)
    assert np.array_equal(back.mask, nm.mask)
    fg = nm.mask
    # quantization to 16 bits, then renormalization: stay within two steps
    assert np.abs(back.normals[fg] - nm.normals[fg]).max() < 2.0 / 65535.0
    assert np.abs(np.linalg.norm(back.normals[fg], axis=1) - 1.0).max() < 1e-12
    assert not back.normals[~fg].any()


def _normal_rgba16(rng, h, w):
    """Seeded 16-bit RGBA samples of a normal map, as write_normal_png16 encodes them."""
    p = rng.integers(0, 2**16, (h, w, 4)).astype(np.uint16)
    p[:, :, 2] |= 0xC000  # z > 0.5: every foreground sample decodes to a usable normal
    p[:, :, 3] = np.where(rng.random((h, w)) < 0.8, 65535, 0)
    p[p[:, :, 3] == 0, :3] = 0
    return p


@pytest.mark.parametrize("ftypes", [[0], [1], [2], [3], [4], [4, 3, 2, 1, 0]], ids=str)
def test_normal_png_unfilters_every_filter_type(tmp_path, ftypes):
    """None, Sub, Up, Average and Paeth rows all decode to the encoded samples."""
    h, w = 11, 13
    rgba = _normal_rgba16(np.random.default_rng(5), h, w)
    rows = np.frombuffer(rgba.astype(">u2").tobytes(), dtype=np.uint8).reshape(h, w * 8)
    plain, filtered = tmp_path / "plain.png", tmp_path / "filtered.png"
    write_png16(plain, h, w, zlib.compress(filtered_scanlines(rows, 8, [0] * h)))
    write_png16(filtered, h, w, zlib.compress(filtered_scanlines(rows, 8, (ftypes * h)[:h])))
    assert np.array_equal(_read_png(filtered), rgba)
    expected, got = read_normal_png16(plain), read_normal_png16(filtered)
    assert np.array_equal(got.mask, rgba[:, :, 3] > 0)
    assert got.normals.tobytes() == expected.normals.tobytes()


def _filtered_rows(rng, width, ftypes):
    """Seeded (H, 8 width) uint8 scanlines and their PNG scanline bytes, row y filtered with ftypes[y]."""
    rows = rng.integers(0, 256, (len(ftypes), width * 8), dtype=np.uint8)
    return rows, filtered_scanlines(rows, 8, ftypes)


UNFILTER_MIXES = {  # name: (width in pixels, filter type per row)
    "Paeth from row 0 for more than two bands": (64, [4] * 300),
    "Up rows right after a band": (64, [4] * 40 + [2] * 10 + [3] * 30 + [2] * 5),
    "None, Sub and Up rows inside a band": (48, [4, 1, 3, 0, 4, 2, 3, 2] * 20),
    "bands below None and Sub rows": (40, [0, 1, 1] + [3] * 50 + [0] + [4] * 30 + [1, 2]),
    "one pixel wide": (1, [4] * 150 + [3, 2, 1, 0] * 10),
    **{f"one {name} row": (300, [kind]) for kind, name in enumerate(("None", "Sub", "Up", "Average", "Paeth"))},
}
CROSSOVERS = {  # crossover in lanes, and the decoders the mixes then reach
    "wavefront": (0, {"wavefront"}),
    "measured": (png_io._WAVEFRONT_LANES, {"wavefront", "loop"}),
    "loop": (2**62, {"loop"}),
}


@pytest.mark.parametrize("lanes, decoders", CROSSOVERS.values(), ids=CROSSOVERS)
def test_unfilter_matches_the_encoder_on_filter_mixes(monkeypatch, lanes, decoders):
    """Named mixes and seeded random runs of filters decode to the encoded rows, through both decoders."""
    monkeypatch.setattr(png_io, "_WAVEFRONT_LANES", lanes)
    wavefront, loop = png_io._wavefront, png_io._average_paeth_row
    used = set()
    monkeypatch.setattr(png_io, "_wavefront", lambda *args: used.add("wavefront") or wavefront(*args))
    monkeypatch.setattr(png_io, "_average_paeth_row", lambda *args: used.add("loop") or loop(*args))
    rng = np.random.default_rng(29)
    cases = list(UNFILTER_MIXES.items())
    for i in range(24):  # runs of 1-39 rows of one filter, 1-300 rows, 1-70 pixels wide
        h = int(rng.integers(1, 301))
        cases.append((f"random {i}", (int(rng.integers(1, 71)), np.repeat(rng.integers(0, 5, h), rng.integers(1, 40, h))[:h].tolist())))
    for name, (w, ftypes) in cases:
        rows, raw = _filtered_rows(rng, w, ftypes)
        assert png_io._unfilter(raw, len(ftypes), w).tobytes() == rows.tobytes(), name
    assert used == decoders


def test_unfilter_reports_the_first_unknown_filter_type():
    raw = bytearray(filtered_scanlines(np.zeros((4, 16), dtype=np.uint8), 8, [0, 4, 0, 0]))
    raw[2 * 17], raw[3 * 17] = 7, 5
    with pytest.raises(MalformedFileError, match="unknown PNG filter type 7"):
        png_io._unfilter(bytes(raw), 4, 2)


@pytest.mark.parametrize("w, ftypes", [(2**17, [4]), (2**14, [0, 4] * 64)], ids=["one wide Paeth row", "None and Paeth rows"])
def test_wide_average_paeth_rows_decode_in_bounded_time(w, ftypes):
    """Each side of the crossover decodes where it is faster.

    On a shared 2-core x86-64 host the wide row took 0.2-0.5 s on the per-byte
    loop and 1.5 s as a wavefront; the 128 rows took 0.45-0.55 s as a
    wavefront and 2.5 s on the loop.
    """
    h = len(ftypes)
    raw = np.hstack([np.array(ftypes, dtype=np.uint8)[:, None], np.random.default_rng(3).integers(0, 256, (h, w * 8), dtype=np.uint8)])
    start = time.perf_counter()
    png_io._unfilter(raw.tobytes(), h, w)
    assert time.perf_counter() - start < 1.0


def test_wavefront_scratch_is_sized_to_the_band():
    """The decoder's allocation peak per scanline byte of an all-Paeth image does not grow with its height."""
    def peak_per_byte(h, w=64):
        _, raw = _filtered_rows(np.random.default_rng(h), w, [4] * h)
        tracemalloc.start()
        try:
            png_io._unfilter(raw, h, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (h * w * 8)

    short, tall = peak_per_byte(256), peak_per_byte(1024)
    assert tall <= short < 4.0


def _inflated_idat(path):
    data, pos, idat = path.read_bytes(), 8, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        if data[pos + 4 : pos + 8] == b"IDAT":
            idat.append(data[pos + 8 : pos + 8 + length])
        pos += 12 + length
    return zlib.decompress(b"".join(idat))


def test_png_writers_store_every_row_unfiltered(tmp_path, rng):
    """The normal and preview writers put filter type 0 (None) in front of each row of big-endian samples."""
    nm = random_normal_map(rng, 7, 5)
    write_normal_png16(tmp_path / "n.png", nm)
    rows = np.frombuffer(_read_png(tmp_path / "n.png").astype(">u2").tobytes(), dtype=np.uint8).reshape(7, 5 * 8)
    assert _inflated_idat(tmp_path / "n.png") == filtered_scanlines(rows, 8, [0] * 7)
    px = rng.integers(0, 256, (4, 6, 3)).astype(np.float64)
    write_preview_png(tmp_path / "p.png", gs.LdrImage(px))
    assert _inflated_idat(tmp_path / "p.png") == filtered_scanlines(px.astype(np.uint8).reshape(4, 18), 3, [0] * 4)


def test_normal_alpha_zero_is_background(tmp_path, rng):
    nm = random_normal_map(rng, 6, 6, coverage=0.5)
    assert not nm.mask.all()
    p = tmp_path / "m.png"
    write_normal_png16(p, nm)
    back = read_normal_png16(p)
    assert np.array_equal(back.mask, nm.mask)


def test_normal_degenerate_foreground_rejected(tmp_path):
    # alpha says foreground but the encoded vector is the zero codeword
    h = w = 1
    row = struct.pack(">4H", 32768, 32768, 32768, 65535)  # decodes to ~(0,0,0)
    _write_raw_rgba16(tmp_path / "bad.png", h, w, row)
    with pytest.raises(MalformedFileError):
        read_normal_png16(tmp_path / "bad.png")


def _write_raw_rgba16(path, h, w, rows_payload):
    """Minimal valid RGBA16 PNG with filter 0 rows supplied by the caller."""
    raw = b"".join(b"\x00" + rows_payload[i * w * 8 : (i + 1) * w * 8] for i in range(h))
    write_png16(path, h, w, zlib.compress(raw))


def test_png_crc_corruption_detected(tmp_path, rng):
    nm = random_normal_map(rng, 4, 4)
    p = tmp_path / "c.png"
    write_normal_png16(p, nm)
    raw = bytearray(p.read_bytes())
    idat = raw.index(b"IDAT")
    raw[idat + 10] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(MalformedFileError):
        read_normal_png16(p)


def test_png_wrong_bit_depth_rejected(tmp_path, rng):
    nm = random_normal_map(rng, 3, 3)
    write_preview_png(tmp_path / "8bit.png", gs.LdrImage(np.zeros((3, 3, 3))))
    with pytest.raises(MalformedFileError):
        read_normal_png16(tmp_path / "8bit.png")


def test_png_inflation_is_capped_at_the_declared_size(tmp_path):
    p = tmp_path / "bomb.png"
    write_png_bomb(p)  # 16x16 header, 64 MiB of image data
    tracemalloc.start()
    try:
        with pytest.raises(MalformedFileError):
            read_normal_png16(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_png_declaring_a_huge_image_is_refused_before_inflating(tmp_path):
    """A 2^20 x 2^20 header over 64 MiB of zeros: more than 2^24 pixels, refused before any image data inflates."""
    p = tmp_path / "huge.png"
    write_png_bomb(p, side=2**20)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedFileError, match="unreasonable PNG dimensions"):
            read_normal_png16(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "height, width, message",
    [(4096, 4096, "wrong length"), (1, 2**24, "wrong length"), (4097, 4096, "unreasonable"), (2, 2**23 + 1, "unreasonable")],
)
def test_png_pixel_limit_is_two_to_the_24(tmp_path, height, width, message):
    """Up to 2^24 pixels a header passes its size check, and its empty image data is then too short."""
    p = tmp_path / "header.png"
    write_png16(p, height, width, zlib.compress(b""))
    with pytest.raises(MalformedFileError, match=message):
        read_normal_png16(p)


def test_png_of_a_million_one_byte_image_chunks_decodes_fast(tmp_path):
    """A valid normal map re-chunked into about 1M one-byte IDAT chunks decodes as its one-chunk file, in linear time."""
    one, split = tmp_path / "one.png", tmp_path / "split.png"
    write_normal_png16(one, random_normal_map(np.random.default_rng(8), 420, 420))
    rgba = _read_png(one)
    h, w = rgba.shape[:2]
    rows = np.frombuffer(rgba.astype(">u2").tobytes(), dtype=np.uint8).reshape(h, w * 8)
    idat = zlib.compress(filtered_scanlines(rows, 8, [0] * h))
    assert 10**6 < len(idat) < 1.1e6
    write_png16(split, h, w, idat, split=True)
    start = time.perf_counter()
    got = read_normal_png16(split)
    seconds = time.perf_counter() - start
    expected = read_normal_png16(one)
    assert np.array_equal(got.mask, expected.mask) and got.normals.tobytes() == expected.normals.tobytes()
    assert seconds < 8.0  # joining by += took about 15 s on a 2-core host


def test_png_short_image_data_rejected(tmp_path):
    rows = zlib.compress(bytes(4 * (4 * 8 + 1)))
    write_png16(tmp_path / "full.png", 4, 4, rows)
    assert read_normal_png16(tmp_path / "full.png").height == 4
    write_png16(tmp_path / "cut.png", 4, 4, rows[:-6])  # stream ends before its checksum
    with pytest.raises(MalformedFileError):
        read_normal_png16(tmp_path / "cut.png")
    write_png16(tmp_path / "small.png", 5, 4, rows)  # complete stream, one row short
    with pytest.raises(MalformedFileError):
        read_normal_png16(tmp_path / "small.png")


# ---------------------------------------------------------------------------
# segmentation PNG16

def test_segmentation_round_trip(tmp_path, rng):
    ids = rng.integers(0, 5, (7, 9)).astype(np.int32)
    seg = SegmentationMask(ids, 5)
    p = tmp_path / "seg.png"
    write_segmentation_png16(p, seg)
    back = read_segmentation_png16(p)
    assert np.array_equal(back.region_ids, seg.region_ids)
    assert back.region_count == 5


def test_segmentation_region_count_is_max_plus_one(tmp_path):
    ids = np.array([[2, 2], [2, 2]], dtype=np.int32)
    p = tmp_path / "two.png"
    write_segmentation_png16(p, SegmentationMask(ids, 3))
    assert read_segmentation_png16(p).region_count == 3


# ---------------------------------------------------------------------------
# material JSON

def test_material_round_trip_exact(tmp_path, rng):
    m = random_material(rng)
    p = tmp_path / "m.json"
    write_material(p, m)
    back = read_material(p)
    assert np.array_equal(back.raw, m.raw)
    assert np.array_equal(back.lo, m.lo)
    assert np.array_equal(back.hi, m.hi)
    assert back.name == m.name


def test_material_rejects_wrong_param_count(tmp_path):
    doc = {"version": 1, "params": [0.0] * (PARAM_COUNT - 1)}
    p = tmp_path / "short.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError, match="107"):
        read_material(p)


def test_material_rejects_unknown_version(tmp_path):
    doc = {"version": 2, "params": [0.0] * PARAM_COUNT}
    p = tmp_path / "v2.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError, match="version"):
        read_material(p)


def test_material_rejects_missing_version(tmp_path):
    p = tmp_path / "nov.json"
    p.write_text(json.dumps({"params": [0.0] * PARAM_COUNT}))
    with pytest.raises(MalformedFileError):
        read_material(p)


def test_material_lo_without_hi_rejected(tmp_path):
    doc = {"version": 1, "params": [0.0] * PARAM_COUNT, "lo": [-1.0] * PARAM_COUNT}
    p = tmp_path / "half.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError, match="together"):
        read_material(p)


def test_material_default_bounds_applied(tmp_path):
    doc = {"version": 1, "params": [0.0] * PARAM_COUNT}
    p = tmp_path / "plain.json"
    p.write_text(json.dumps(doc))
    back = read_material(p)
    lo, hi = gs.default_bounds()
    assert np.array_equal(back.lo, lo)
    assert np.array_equal(back.hi, hi)
    assert back.name is None


def test_material_rejects_non_numeric_params(tmp_path):
    doc = {"version": 1, "params": ["x"] * PARAM_COUNT}
    p = tmp_path / "str.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError):
        read_material(p)


@pytest.mark.parametrize("field", ["params", "lo", "hi"])
def test_material_rejects_booleans(tmp_path, field):
    lo, hi = gs.default_bounds()
    doc = {"version": 1, "params": [0.0] * PARAM_COUNT, "lo": lo.tolist(), "hi": hi.tolist()}
    doc[field] = doc[field][:-1] + [field != "lo"]  # true, or false as a lower bound, both inside the bounds
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError, match="booleans"):
        read_material(p)


@pytest.mark.parametrize("field", ["params", "lo", "hi"])
def test_material_rejects_numbers_written_as_strings(tmp_path, field):
    lo, hi = gs.default_bounds()
    doc = {"version": 1, "params": [0.0] * PARAM_COUNT, "lo": lo.tolist(), "hi": hi.tolist()}
    doc[field] = doc[field][:-1] + [f"{doc[field][-1]!r}"]  # numpy would read the string as its number
    p = tmp_path / "str.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(MalformedFileError, match="JSON numbers"):
        read_material(p)


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
def test_material_version_must_be_an_integer(tmp_path, version):
    p = tmp_path / "v.json"
    p.write_text(json.dumps({"version": version, "params": [0.0] * PARAM_COUNT}))
    with pytest.raises(MalformedFileError, match="version"):
        read_material(p)


def test_material_rejects_an_integer_past_float_range(tmp_path):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"version": 1, "params": [0.0] * PARAM_COUNT}).replace("0.0", "1" + "0" * 400, 1))
    with pytest.raises(MalformedFileError, match="too large"):
        read_material(p)


def test_material_rejects_deeply_nested_arrays(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000)
    with pytest.raises(MalformedFileError, match="recursion"):
        read_material(p)


def test_material_rejects_non_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(MalformedFileError):
        read_material(p)


# ---------------------------------------------------------------------------
# preview PNG

def test_preview_png_is_8bit_rgb(tmp_path):
    px = np.full((2, 3, 3), 127.4)
    write_preview_png(tmp_path / "p.png", gs.LdrImage(px))
    raw = (tmp_path / "p.png").read_bytes()
    ihdr = raw[raw.index(b"IHDR") + 4 :][:13]
    w, h, depth, color = struct.unpack(">IIBB", ihdr[:10])
    assert (w, h, depth, color) == (3, 2, 8, 2)


# ---------------------------------------------------------------------------
# fuzz: hostile bytes must raise MalformedFileError, nothing else

@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_pfm_reader_survives_noise(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "f.pfm"
    p.write_bytes(data)
    try:
        read_pfm(p)
    except MalformedFileError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_png_reader_survives_noise(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "f.png"
    p.write_bytes(data)
    try:
        read_normal_png16(p)
    except MalformedFileError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=400))
def test_png_reader_survives_corrupted_prefix(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "f.png"
    p.write_bytes(b"\x89PNG\r\n\x1a\n" + data)
    try:
        read_segmentation_png16(p)
    except MalformedFileError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=200))
def test_material_reader_survives_noise(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "f.json"
    p.write_text(data, encoding="utf-8")
    try:
        read_material(p)
    except MalformedFileError:
        pass


# ---------------------------------------------------------------------------
# seeded mutation corpus: well-formed files from the writers, corrupted

MUTATIONS = 300


def _write_filtered_png(path, rng):
    """A normal map whose rows alternate the Average and Paeth filters."""
    write_normal_png16(path, random_normal_map(rng, 6, 5))
    refilter_png16(path, path, [3, 4])


def _write_segmentation(path, rng):
    write_segmentation_png16(path, SegmentationMask(rng.integers(-1, 3, (5, 6)).astype(np.int32), 3))


CORPUS = {  # kind: (writer, reader, what a successful read returns, format edits)
    "normal_png": (lambda p, rng: write_normal_png16(p, random_normal_map(rng, 6, 5)), read_normal_png16, NormalMap,
                   (ihdr_edit,)),
    "segmentation_png": (_write_segmentation, read_segmentation_png16, SegmentationMask, (ihdr_edit,)),
    "filtered_png": (_write_filtered_png, read_normal_png16, NormalMap, (ihdr_edit,)),
    "pfm": (lambda p, rng: write_pfm(p, rng.gamma(1.0, 2.0, (4, 6, 3))), read_pfm, np.ndarray, (pfm_token_edit,)),
    "material": (lambda p, rng: write_material(p, random_material(rng)), read_material, DsbrdfMaterial,
                 (json_value_edit,)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed, kind", list(enumerate(CORPUS)), ids=list(CORPUS))
def test_decoder_mutation_corpus(tmp_path, seed, kind):
    """Every mutant reads as a valid object or raises MalformedFileError: no other error, no warning, small memory."""
    write, read, returns, edits = CORPUS[kind]
    src, p = tmp_path / "src", tmp_path / "mutant"
    write(src, np.random.default_rng(seed))
    assert isinstance(read(src), returns)
    rejected = 0
    tracemalloc.start()
    try:
        for data in mutants(src.read_bytes(), seed, MUTATIONS, edits):
            p.write_bytes(data)
            try:
                value = read(p)
            except MalformedFileError:
                rejected += 1
                continue
            assert isinstance(value, returns)
            if returns is np.ndarray:
                assert value.ndim == 3 and value.shape[2] == 3 and np.isfinite(value).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rejected > MUTATIONS // 3  # the mutations do corrupt
