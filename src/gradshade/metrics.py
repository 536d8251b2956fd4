"""Tone mapping and image comparison: masked L2 and SSIM on [0, 255] images."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import RadianceImage, _checked_array, _Raster

GAMMA = 2.2
AUTO_EXPOSURE_PERCENTILE = 99.0

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2


@dataclass(frozen=True)
class LdrImage(_Raster):
    """Displayable image, (H, W, 3) float with every component in [0, 255]."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _checked_array("LDR pixels", self.pixels, (None, None, 3), 0.0, 255.0))


def auto_exposure(image: RadianceImage) -> float:
    """1 / (99th percentile of nonzero-pixel luminance); 1.0 for black images.

    Capped at the largest finite float, which 1 / p passes for a subnormal p.
    """
    with np.errstate(over="ignore"):
        lum = image.pixels.mean(axis=2)
    summed_past_range = np.isinf(lum)  # the pixels are finite, so their quarters sum within the range
    lum[summed_past_range] = (0.25 * image.pixels[summed_past_range]).mean(axis=1) * 4.0
    lit = lum[lum > 0.0]
    if lit.size == 0:
        return 1.0
    p = float(np.percentile(lit, AUTO_EXPOSURE_PERCENTILE))
    return min(1.0 / p, sys.float_info.max) if p > 0.0 else 1.0


def check_exposure(exposure: float) -> None:
    """Raise ValueError unless 0 < exposure < inf; NaN fails too."""
    if not 0.0 < exposure < math.inf:
        raise ValueError(f"exposure must be positive and finite, got {exposure!r}")


def tone_map(image: RadianceImage, exposure: float | None = None) -> LdrImage:
    """clamp(255 * (exposure * c)^(1/2.2), 0, 255) per channel.

    ``exposure=None`` picks the automatic exposure above. Monotone per channel.
    """
    if exposure is None:
        exposure = auto_exposure(image)
    check_exposure(exposure)
    with np.errstate(over="ignore"):  # an overflow is inf, which maps to 255
        scaled = np.clip(exposure * image.pixels, 0.0, None)
    return LdrImage(np.clip(255.0 * scaled ** (1.0 / GAMMA), 0.0, 255.0))


def l2_metric(a: LdrImage, b: LdrImage, mask: np.ndarray | None = None) -> float:
    """Mean over (masked) pixels of the channel-mean squared difference; ``mask`` is a bool (H, W) array."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError("images must share a shape")
    per_pixel = np.mean((a.pixels - b.pixels) ** 2, axis=2)
    if mask is not None:
        if mask.dtype != bool or mask.shape != per_pixel.shape:
            raise ValueError("mask must be a bool array the shape of the images")
        per_pixel = per_pixel[mask]
        if per_pixel.size == 0:
            raise ValueError("mask selects no pixels")
    return float(per_pixel.mean())


def _gaussian_kernel(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-(r**2) / (2.0 * sigma**2))
    k2 = np.outer(k, k)
    return k2 / k2.sum()


def _windowed_mean(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(img, kernel.shape)
    return np.einsum("hwij,ij->hw", view, kernel)


def ssim(a: LdrImage, b: LdrImage) -> float:
    """Mean SSIM over valid 11x11 Gaussian windows of channel-mean luminance."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError("images must share a shape")
    if a.height < SSIM_WINDOW or a.width < SSIM_WINDOW:
        raise ValueError(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    x = a.pixels.mean(axis=2)
    y = b.pixels.mean(axis=2)
    kernel = _gaussian_kernel()
    mu_x = _windowed_mean(x, kernel)
    mu_y = _windowed_mean(y, kernel)
    # var and cov share one arithmetic form so that identical inputs make
    # numerator and denominator bit-equal and the score exactly 1.
    var_x = _windowed_mean(x * x, kernel) - mu_x * mu_x
    var_y = _windowed_mean(y * y, kernel) - mu_y * mu_y
    cov = _windowed_mean(x * y, kernel) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return float(np.mean(num / den))
