"""Integral images and windowed area sums.

"Integral Image" and "Area Sum" are among the most shared kernels of the
suite (disparity, tracking, SIFT, face detection all use them).  The
integral image ``I`` of ``f`` satisfies ``I[r, c] = sum f[:r, :c]``; any
axis-aligned rectangle sum then costs four lookups, which is what makes
Viola-Jones feature evaluation and disparity window aggregation cheap.

The serial double-scan used here is exactly the suite's loop structure; its
ideal-dataflow parallelism is nevertheless enormous because each scan
reassociates into a parallel prefix (see :class:`repro.core.dataflow.Scan`).
"""

from __future__ import annotations

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate


def _work_integral_image(image: np.ndarray) -> WorkEstimate:
    """Two prefix-sum scans: 2 adds per pixel; the output table carries
    one extra zero row and column."""
    shape = np.shape(image)
    pixels = int(np.prod(shape))
    out_elements = float((shape[0] + 1) * (shape[1] + 1)) if len(shape) == 2 \
        else float(pixels)
    return WorkEstimate(
        flops=2.0 * pixels,
        traffic_bytes=FLOAT_BYTES * (pixels + out_elements),
    )


def _integral_image_ref(image: np.ndarray) -> np.ndarray:
    """Loop-faithful double scan: column prefix sums, then row prefix sums.

    The serial accumulation chains are exactly the C suite's structure;
    the scan order (columns first) mirrors the fast path's
    ``cumsum(axis=0).cumsum(axis=1)`` so the two backends differ only by
    reassociated additions.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    rows, cols = image.shape
    out = np.zeros((rows + 1, cols + 1), dtype=np.float64)
    for c in range(cols):
        acc = 0.0
        for r in range(rows):
            acc += image[r, c]
            out[r + 1, c + 1] = acc
    for r in range(rows):
        acc = 0.0
        for c in range(cols):
            acc += out[r + 1, c + 1]
            out[r + 1, c + 1] = acc
    return out


@register_kernel(
    "imgproc.integral_image",
    paper_kernel="Integral Image",
    apps=("disparity", "tracking", "sift", "face"),
    ref=_integral_image_ref,
    rtol=1e-9,
    atol=1e-9,
    work=_work_integral_image,
)
def integral_image(image: np.ndarray) -> np.ndarray:
    """Summed-area table with a leading zero row/column.

    Output shape is ``(rows + 1, cols + 1)`` so that
    ``rect_sum(ii, r0, c0, r1, c1)`` needs no boundary special cases.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    rows, cols = image.shape
    out = np.zeros((rows + 1, cols + 1), dtype=np.float64)
    out[1:, 1:] = image.cumsum(axis=0).cumsum(axis=1)
    return out


def rect_sum(ii: np.ndarray, r0: int, c0: int, r1: int, c1: int) -> float:
    """Sum of ``image[r0:r1, c0:c1]`` via four integral-image lookups."""
    if not (0 <= r0 <= r1 < ii.shape[0] and 0 <= c0 <= c1 < ii.shape[1]):
        raise IndexError(
            f"rectangle ({r0},{c0})-({r1},{c1}) outside table {ii.shape}"
        )
    return float(ii[r1, c1] - ii[r0, c1] - ii[r1, c0] + ii[r0, c0])


def window_sums(image: np.ndarray, win: int) -> np.ndarray:
    """Sum of every ``win x win`` window, via the integral image.

    Returns shape ``(rows - win + 1, cols - win + 1)``; this is the
    disparity benchmark's "Area Sum" aggregation over SSD maps.
    """
    if win < 1:
        raise ValueError("window size must be positive")
    rows, cols = np.asarray(image).shape
    if win > rows or win > cols:
        raise ValueError(f"window {win} exceeds image shape {(rows, cols)}")
    ii = integral_image(image)
    return (
        ii[win:, win:]
        - ii[:-win, win:]
        - ii[win:, :-win]
        + ii[:-win, :-win]
    )


def window_means(image: np.ndarray, win: int) -> np.ndarray:
    """Mean of every ``win x win`` window."""
    return window_sums(image, win) / float(win * win)


def window_variances(image: np.ndarray, win: int) -> np.ndarray:
    """Population variance of every ``win x win`` window (clipped at 0)."""
    mean = window_means(image, win)
    mean_sq = window_sums(np.asarray(image, dtype=np.float64) ** 2, win) / float(
        win * win
    )
    return np.maximum(0.0, mean_sq - mean * mean)
