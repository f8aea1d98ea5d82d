"""Multi-scale oriented decomposition for texture analysis.

A simplified steerable-pyramid stand-in: a Laplacian (band-pass) pyramid
whose levels are further split into oriented responses by steerable
first-derivative filters at K orientations.  This captures the
scale-and-orientation energy structure the Portilla-Simoncelli statistics
are built on, using only the suite's own filtering kernels.

:func:`laplacian_pyramid` builds the band-pass levels and low-pass that
synthesis rescales and :func:`reconstruct` collapses;
:func:`build_pyramid` adds the oriented analysis bands the statistics
are measured on, one stacked filter dispatch per level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from ..imgproc.convolution import convolve2d
from ..imgproc.filters import gaussian_blur
from ..imgproc.interpolate import downsample2, resize


@dataclass(frozen=True)
class LaplacianPyramid:
    """Band-pass levels and the final low-pass.

    ``bandpass[l]`` is level ``l``'s unoriented band; ``lowpass`` the
    residual.
    """

    bandpass: List[np.ndarray]
    lowpass: np.ndarray


@dataclass(frozen=True)
class OrientedPyramid(LaplacianPyramid):
    """A Laplacian pyramid plus the oriented splits of its levels.

    ``bands[l]`` is the ``(n_orientations, rows, cols)`` stack of level
    ``l``'s oriented responses; ``bands[l][k]`` is its response to
    orientation ``k``.
    """

    bands: List[np.ndarray]
    n_orientations: int


def oriented_kernel(theta: float, size: int = 5) -> np.ndarray:
    """First-derivative-of-Gaussian kernel steered to angle ``theta``."""
    if size % 2 == 0:
        raise ValueError("kernel size must be odd")
    half = size // 2
    yy, xx = np.mgrid[-half : half + 1, -half : half + 1].astype(np.float64)
    sigma = max(1.0, half / 2.0)
    gauss = np.exp(-(xx * xx + yy * yy) / (2.0 * sigma * sigma))
    directional = xx * math.cos(theta) + yy * math.sin(theta)
    kernel = directional * gauss
    kernel -= kernel.mean()
    norm = np.abs(kernel).sum()
    return kernel / (norm if norm > 0 else 1.0)


@functools.lru_cache(maxsize=None)
def _oriented_kernels(n_orientations: int) -> np.ndarray:
    """The read-only ``(K, 5, 5)`` stack of kernels steered to ``pi k / K``."""
    kernels = np.stack([
        oriented_kernel(math.pi * k / n_orientations)
        for k in range(n_orientations)
    ])
    kernels.flags.writeable = False
    return kernels


def laplacian_pyramid(image: np.ndarray,
                      n_levels: int = 3) -> LaplacianPyramid:
    """Decompose ``image`` into ``n_levels`` band-pass levels and a low-pass."""
    if n_levels < 1:
        raise ValueError("need at least one level")
    bandpass: List[np.ndarray] = []
    current = np.asarray(image, dtype=np.float64)
    for _ in range(n_levels):
        if min(current.shape) < 8:
            break
        blurred = gaussian_blur(current, 1.0)
        down = downsample2(blurred)
        # Laplacian band against the same resize used at reconstruction,
        # so reconstruct(laplacian_pyramid(x)) == x exactly.
        bandpass.append(current - resize(down, *current.shape))
        current = down
    return LaplacianPyramid(bandpass=bandpass, lowpass=current)


def build_pyramid(image: np.ndarray, n_levels: int = 3,
                  n_orientations: int = 4) -> OrientedPyramid:
    """Decompose ``image`` into ``n_levels`` oriented band-pass levels."""
    if n_orientations < 1:
        raise ValueError("need at least one orientation")
    laplacian = laplacian_pyramid(image, n_levels)
    kernels = _oriented_kernels(n_orientations)
    return OrientedPyramid(
        bandpass=laplacian.bandpass,
        lowpass=laplacian.lowpass,
        bands=[convolve2d(band, kernels) for band in laplacian.bandpass],
        n_orientations=n_orientations,
    )


def reconstruct(pyramid: LaplacianPyramid,
                shape: tuple) -> np.ndarray:
    """Collapse band-pass levels + low-pass back to ``shape``.

    The oriented splits are analysis-only (statistics are measured on
    them); reconstruction sums the unoriented band-pass levels, so
    ``reconstruct(laplacian_pyramid(x)) == x`` up to resampling error.
    """
    # Upsample the lowpass back through every level.
    current = pyramid.lowpass
    for band in reversed(pyramid.bandpass):
        current = resize(current, *band.shape)
        current = current + band
    return resize(current, *shape) if current.shape != tuple(shape) else current
