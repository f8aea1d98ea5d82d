"""Image gradients: central differences.

These back the "Gradient" kernel of the tracking benchmark, the Harris
corner measure in stitch, and SIFT's orientation assignment.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate
from .convolution import convolve_rows, convolve_cols


def _work_gradient(image: np.ndarray,
                   mode: str = "replicate") -> WorkEstimate:
    """Central differences: 3 flops per pixel per direction; read the
    image once, write two gradient fields."""
    pixels = int(np.prod(np.shape(image)))
    return WorkEstimate(
        flops=6.0 * pixels,
        traffic_bytes=FLOAT_BYTES * 3.0 * pixels,
    )

#: Central-difference derivative taps (f(x+1) - f(x-1)) / 2.
CENTRAL_DIFF = np.array([-0.5, 0.0, 0.5])


def gradient_x(image: np.ndarray, mode: str = "replicate") -> np.ndarray:
    """Horizontal central-difference derivative, d/dx (columns)."""
    return convolve_rows(image, CENTRAL_DIFF, mode)


def gradient_y(image: np.ndarray, mode: str = "replicate") -> np.ndarray:
    """Vertical central-difference derivative, d/dy (rows)."""
    return convolve_cols(image, CENTRAL_DIFF, mode)


def _gradient_ref(image: np.ndarray,
                  mode: str = "replicate") -> Tuple[np.ndarray, np.ndarray]:
    """Loop-faithful central differences (the tracking code's pixel loop).

    Only the suite's replicate border is supported; the neighbour index
    clamp implements the same edge handling as the padded fast path.
    """
    if mode != "replicate":
        return gradient_x(image, mode), gradient_y(image, mode)
    image = np.asarray(image, dtype=np.float64)
    rows, cols = image.shape
    gx = np.empty((rows, cols), dtype=np.float64)
    gy = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            left = image[r, c - 1 if c > 0 else 0]
            right = image[r, c + 1 if c < cols - 1 else cols - 1]
            gx[r, c] = 0.5 * right - 0.5 * left
            up = image[r - 1 if r > 0 else 0, c]
            down = image[r + 1 if r < rows - 1 else rows - 1, c]
            gy[r, c] = 0.5 * down - 0.5 * up
    return gx, gy


@register_kernel(
    "imgproc.gradient",
    paper_kernel="Gradient",
    apps=("tracking", "sift", "stitch"),
    ref=_gradient_ref,
    work=_work_gradient,
)
def gradient(image: np.ndarray,
             mode: str = "replicate") -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(gx, gy)`` central-difference gradients."""
    return gradient_x(image, mode), gradient_y(image, mode)
