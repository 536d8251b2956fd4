"""Tone mapping, masked L2, and SSIM, cross-checked against direct-convolution
oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import gradshade as gs
from gradshade.metrics import LdrImage, auto_exposure, l2_metric, ssim, tone_map


def radiance(arr):
    return gs.RadianceImage(np.asarray(arr, dtype=np.float64))


def test_tone_map_zero_is_zero():
    img = radiance(np.zeros((2, 2, 3)))
    assert np.array_equal(tone_map(img, exposure=1.0).pixels, np.zeros((2, 2, 3)))


def test_tone_map_unit_is_white():
    img = radiance(np.ones((2, 2, 3)))
    assert np.array_equal(tone_map(img, exposure=1.0).pixels, np.full((2, 2, 3), 255.0))


def test_tone_map_half_gray_value():
    img = radiance(np.full((1, 1, 3), 0.5))
    out = tone_map(img, exposure=1.0).pixels[0, 0, 0]
    assert out == pytest.approx(255.0 * 0.5 ** (1.0 / 2.2), abs=1e-12)
    assert out == pytest.approx(186.0837, abs=1e-3)


def test_tone_map_matches_scalar_oracle(rng):
    vals = rng.gamma(1.0, 1.0, (3, 4, 3))
    img = radiance(vals)
    out = tone_map(img, exposure=0.8).pixels
    for py in range(3):
        for px in range(4):
            for k in range(3):
                assert out[py, px, k] == pytest.approx(oracles.tone_value(vals[py, px, k], 0.8), abs=1e-12)


def test_tone_map_is_monotone(rng):
    a = rng.gamma(1.0, 1.0, (4, 4, 3))
    b = a + rng.uniform(0.0, 2.0, a.shape)
    ta = tone_map(radiance(a), exposure=0.5).pixels
    tb = tone_map(radiance(b), exposure=0.5).pixels
    assert (tb >= ta).all()


def test_tone_map_output_range(rng):
    img = radiance(rng.gamma(1.0, 5.0, (6, 6, 3)))
    out = tone_map(img).pixels
    assert out.min() >= 0.0 and out.max() <= 255.0


@pytest.mark.parametrize("exposure", [math.nan, math.inf, 0.0, -1.0])
def test_tone_map_takes_only_a_positive_finite_exposure(exposure):
    with pytest.raises(ValueError, match="exposure"):
        tone_map(radiance(np.ones((2, 2, 3))), exposure=exposure)


def test_auto_exposure_targets_percentile():
    vals = np.zeros((10, 10, 3))
    vals[:, :, :] = 2.0
    img = radiance(vals)
    # constant luminance 2 -> exposure 1/2 -> tone value 255
    assert auto_exposure(img) == pytest.approx(0.5, rel=1e-12)
    assert tone_map(img).pixels.max() == pytest.approx(255.0, abs=1e-9)


def test_auto_exposure_ignores_black_background():
    vals = np.zeros((10, 10, 3))
    vals[0, 0] = 4.0
    assert auto_exposure(radiance(vals)) == pytest.approx(0.25, rel=1e-12)


def test_auto_exposure_all_black_falls_back_to_one():
    assert auto_exposure(radiance(np.zeros((4, 4, 3)))) == 1.0


@pytest.mark.parametrize("value", [1e-310, 5e-324])
def test_auto_exposure_of_a_subnormal_image_is_finite(value):
    """1 / p overflows for a subnormal percentile; the exposure is capped at the largest finite float."""
    img = radiance(np.full((2, 2, 3), value))
    exposure = auto_exposure(img)
    assert 0.0 < exposure < math.inf
    out = tone_map(img).pixels
    assert np.isfinite(out).all() and out.min() >= 0.0


def test_auto_exposure_of_an_image_whose_channel_sum_overflows_is_finite(rng):
    """Three channels near the largest float sum past it; the luminance is still their mean, with no warning.
    Where the sums stay finite the exposure is 1 / p of the plain channel mean, bit for bit."""
    exposure = auto_exposure(radiance(np.full((2, 2, 3), 1.7e308)))
    assert exposure == pytest.approx(1.0 / 1.7e308, rel=1e-12)
    assert tone_map(radiance(np.full((2, 2, 3), 1.7e308))).pixels.max() == 255.0
    pixels = rng.gamma(1.0, 1.0, (8, 8, 3))
    lum = pixels.mean(axis=2)
    assert auto_exposure(radiance(pixels)) == 1.0 / float(np.percentile(lum, 99.0))


def test_tone_map_overflowing_exposure_clips_to_white_without_a_warning():
    """exposure * c past the float range is inf, which maps to 255; the suite turns any warning into an error."""
    assert np.array_equal(tone_map(radiance(np.full((2, 2, 3), 1e10)), exposure=1e300).pixels, np.full((2, 2, 3), 255.0))


def test_l2_identity_is_zero(rng):
    a = LdrImage(rng.uniform(0, 255, (5, 7, 3)))
    assert l2_metric(a, a) == 0.0


def test_l2_uniform_full_difference():
    a = LdrImage(np.zeros((3, 3, 3)))
    b = LdrImage(np.full((3, 3, 3), 255.0))
    assert l2_metric(a, b) == pytest.approx(65025.0, rel=1e-12)


def test_l2_single_pixel_mask():
    a = np.zeros((2, 2, 3))
    b = np.zeros((2, 2, 3))
    b[0, 1] = (3.0, 0.0, 0.0)
    b[1, 1] = (50.0, 50.0, 50.0)  # outside the mask, must not count
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True
    assert l2_metric(LdrImage(a), LdrImage(b), mask) == pytest.approx(3.0, rel=1e-12)


def test_l2_matches_loop_oracle(rng):
    a = rng.uniform(0, 255, (6, 5, 3))
    b = rng.uniform(0, 255, (6, 5, 3))
    mask = rng.random((6, 5)) > 0.4
    mine = l2_metric(LdrImage(a), LdrImage(b), mask)
    assert mine == pytest.approx(oracles.l2_value(a, b, mask), rel=1e-12)


def test_l2_is_symmetric(rng):
    a = LdrImage(rng.uniform(0, 255, (4, 4, 3)))
    b = LdrImage(rng.uniform(0, 255, (4, 4, 3)))
    assert l2_metric(a, b) == pytest.approx(l2_metric(b, a), rel=1e-15)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_l2_rejects_a_mask_that_is_not_bool(dtype):
    """A 0/1 mask of another dtype would index rows, not select pixels: 0.0 here for uint8, where the bool mask gives 65025."""
    a, b = LdrImage(np.zeros((3, 3, 3))), LdrImage(np.full((3, 3, 3), 255.0))
    mask = np.ones((3, 3), dtype=bool)
    assert l2_metric(a, b, mask) == pytest.approx(65025.0, rel=1e-12)
    with pytest.raises(ValueError, match="bool"):
        l2_metric(a, b, mask.astype(dtype))


def test_l2_shape_mismatch():
    with pytest.raises(ValueError):
        l2_metric(LdrImage(np.zeros((2, 2, 3))), LdrImage(np.zeros((3, 2, 3))))


def test_ssim_self_similarity_is_exactly_one(rng):
    a = LdrImage(rng.uniform(0, 255, (13, 12, 3)))
    assert ssim(a, a) == 1.0


def test_ssim_matches_direct_convolution_oracle(rng):
    for _ in range(4):
        a = rng.uniform(0, 255, (16, 16, 3))
        b = np.clip(a + rng.normal(0, 30, a.shape), 0, 255)
        mine = ssim(LdrImage(a), LdrImage(b))
        assert mine == pytest.approx(oracles.ssim_value(a, b), abs=1e-9)


def test_ssim_is_symmetric(rng):
    a = LdrImage(rng.uniform(0, 255, (12, 12, 3)))
    b = LdrImage(rng.uniform(0, 255, (12, 12, 3)))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_constant_shift_bounds():
    a = LdrImage(np.full((12, 12, 3), 30.0))
    b = LdrImage(np.clip(np.full((12, 12, 3), 30.0) + 255.0, 0, 255))
    v = ssim(a, b)
    assert -1.0 <= v < 1.0


def test_ssim_requires_window_sized_images():
    with pytest.raises(ValueError):
        ssim(LdrImage(np.zeros((10, 12, 3))), LdrImage(np.zeros((10, 12, 3))))


def test_ldr_image_validates_range():
    with pytest.raises(ValueError):
        LdrImage(np.full((2, 2, 3), 256.0))
    with pytest.raises(ValueError):
        LdrImage(np.full((2, 2, 3), -0.5))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ssim_bounded_and_self_unity(seed):
    r = np.random.default_rng(seed)
    a = r.uniform(0, 255, (11, 11, 3))
    b = r.uniform(0, 255, (11, 11, 3))
    v = ssim(LdrImage(a), LdrImage(b))
    assert -1.0 <= v <= 1.0
    assert ssim(LdrImage(a), LdrImage(a)) == 1.0
