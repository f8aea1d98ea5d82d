"""Smoothing filters: Gaussian and binomial kernels plus blur wrappers.

These back the "Gaussian Filter" kernel of the tracking benchmark and the
scale-space construction of SIFT.  Kernels are generated analytically and
normalized to unit sum, so blurring preserves mean intensity.
"""

from __future__ import annotations

import math

import numpy as np

from .convolution import convolve_separable


def gaussian_kernel(sigma: float, radius: int = 0) -> np.ndarray:
    """A normalized 1-D Gaussian of standard deviation ``sigma``.

    ``radius=0`` selects the conventional 3-sigma support
    (``radius = ceil(3 * sigma)``).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        radius = max(1, math.ceil(3.0 * sigma))
    taps = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(taps * taps) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def binomial_kernel(order: int) -> np.ndarray:
    """Normalized binomial kernel of the given odd ``order`` (e.g. 1-4-6-4-1).

    The SD-VBS tracking code smooths with small integer binomial filters;
    order 5 reproduces its [1 4 6 4 1]/16 kernel.
    """
    if order < 1 or order % 2 == 0:
        raise ValueError("order must be a positive odd integer")
    kernel = np.array([1.0])
    for _ in range(order - 1):
        kernel = np.convolve(kernel, [1.0, 1.0])
    return kernel / kernel.sum()


def gaussian_blur(image: np.ndarray, sigma: float,
                  radius: int = 0, mode: str = "replicate") -> np.ndarray:
    """Separable Gaussian blur (two 1-D passes)."""
    kernel = gaussian_kernel(sigma, radius)
    return convolve_separable(image, kernel, kernel, mode)


def binomial_blur(image: np.ndarray, order: int = 5,
                  mode: str = "replicate") -> np.ndarray:
    """Separable binomial blur, the tracking benchmark's smoother."""
    kernel = binomial_kernel(order)
    return convolve_separable(image, kernel, kernel, mode)
