"""Image-quality metrics computable without any pretrained network: PSNR and SSIM.

Plain numpy throughout; nothing here participates in gradients. Images are
3xHxW with values in [0, 1] (8-bit inputs are divided by 255 at ingestion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["ImagePair", "psnr", "ssim"]


@dataclass
class ImagePair:
    """A reference/candidate image pair; values are clamped to [0,1] on construction."""

    reference: np.ndarray
    candidate: np.ndarray

    def __post_init__(self) -> None:
        self.reference = np.clip(np.asarray(self.reference, dtype=np.float64), 0.0, 1.0)
        self.candidate = np.clip(np.asarray(self.candidate, dtype=np.float64), 0.0, 1.0)
        if self.reference.shape != self.candidate.shape:
            raise ValueError(f"image shapes differ: {self.reference.shape} "
                             f"vs {self.candidate.shape}")
        if self.reference.ndim != 3:
            raise ValueError(f"images must be CxHxW, got {self.reference.shape}")


def psnr(pair: ImagePair) -> float:
    """Peak signal-to-noise ratio in dB on the [0,1] scale; inf for identical images."""
    mse = float(np.mean((pair.reference - pair.candidate) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    offsets = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_valid(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # Separable Gaussian filtering, valid region only (every window is full).
    rows = sliding_window_view(plane, kernel.size, axis=0) @ kernel
    return sliding_window_view(rows, kernel.size, axis=1) @ kernel


def ssim(pair: ImagePair, window: int = 11, sigma: float = 1.5) -> float:
    """Mean local structural similarity with a Gaussian window, averaged over channels.

    Standard stabilizers C1 = 0.01^2 and C2 = 0.03^2 on the [0,1] dynamic range.
    """
    c, h, w = pair.reference.shape
    if h < window or w < window:
        raise ValueError(f"image {h}x{w} is smaller than the {window}-pixel window")
    kernel = _gaussian_window(window, sigma)
    c1 = 0.01**2
    c2 = 0.03**2
    channel_means = []
    for ch in range(c):
        x = pair.reference[ch]
        y = pair.candidate[ch]
        mu_x = _filter_valid(x, kernel)
        mu_y = _filter_valid(y, kernel)
        var_x = _filter_valid(x * x, kernel) - mu_x * mu_x
        var_y = _filter_valid(y * y, kernel) - mu_y * mu_y
        cov = _filter_valid(x * y, kernel) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        channel_means.append(np.mean(num / den))
    return float(np.mean(channel_means))
