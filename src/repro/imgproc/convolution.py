"""Convolution kernels: 1-D row/column passes and full 2-D correlation.

The disparity benchmark's "Filtering" kernel is implemented — exactly as
the paper notes — as two 1-D passes "for better cache locality".  We keep
that structure: :func:`convolve_rows` / :func:`convolve_cols` are the
separable passes and :func:`convolve_separable` composes them.
:func:`convolve2d` provides the general (non-separable) case used by the
stitch and texture benchmarks.

All functions use correlation orientation (no kernel flip) with replicate
borders and return an array of the input's shape, matching the C suite's
``imageBlur``-family helpers.

Each public entry point is a dual-backend kernel (see
:mod:`repro.core.backend`): the vectorized bodies below are the ``fast``
path, and the ``_*_ref`` loop nests mirror the original C suite's
per-pixel/per-tap loops statement for statement.
"""

from __future__ import annotations

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate
from .pad import pad


def _work_convolve(image: np.ndarray, kernel: np.ndarray,
                      mode: str = "replicate") -> WorkEstimate:
    """Correlation work model: 2 flops per (pixel, tap), streaming I/O.

    Shared by the 1-D passes and the full 2-D kernel — ``taps`` is the
    total tap count either way.  A ``(K, kr, kc)`` kernel stack counts
    as ``K`` filters over one image: the sum of the ``K`` single-kernel
    estimates.
    """
    pixels = int(np.prod(np.shape(image)))
    taps = int(np.prod(np.shape(kernel)))
    filters = np.shape(kernel)[0] if np.ndim(kernel) == 3 else 1
    return WorkEstimate(
        flops=2.0 * taps * pixels,
        traffic_bytes=FLOAT_BYTES * (2.0 * filters * pixels + taps),
    )


def _check_kernel_1d(kernel: np.ndarray) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size == 0:
        raise ValueError("1-D kernel required")
    if kernel.size % 2 == 0:
        raise ValueError("kernel length must be odd for centred filtering")
    return kernel


def _convolve_rows_ref(image: np.ndarray, kernel: np.ndarray,
                       mode: str = "replicate") -> np.ndarray:
    """Loop-faithful row correlation (the C suite's per-pixel tap loop)."""
    kernel = _check_kernel_1d(kernel)
    half = kernel.size // 2
    image = np.asarray(image, dtype=np.float64)
    padded = pad(image, half, mode)
    rows, cols = image.shape
    out = np.zeros((rows, cols), dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for tap in range(kernel.size):
                acc += kernel[tap] * padded[half + r, c + tap]
            out[r, c] = acc
    return out


@register_kernel(
    "imgproc.convolve_rows",
    paper_kernel="Filter (1-D row pass)",
    apps=("disparity", "tracking", "sift", "stitch", "texture"),
    ref=_convolve_rows_ref,
    work=_work_convolve,
)
def convolve_rows(image: np.ndarray, kernel: np.ndarray,
                  mode: str = "replicate") -> np.ndarray:
    """Correlate every row of ``image`` with a 1-D ``kernel``."""
    kernel = _check_kernel_1d(kernel)
    half = kernel.size // 2
    padded = pad(np.asarray(image, dtype=np.float64), half, mode)
    rows, cols = image.shape
    out = np.zeros((rows, cols), dtype=np.float64)
    for tap, weight in enumerate(kernel):
        out += weight * padded[half : half + rows, tap : tap + cols]
    return out


def _convolve_cols_ref(image: np.ndarray, kernel: np.ndarray,
                       mode: str = "replicate") -> np.ndarray:
    """Loop-faithful column correlation (per-pixel tap loop)."""
    kernel = _check_kernel_1d(kernel)
    half = kernel.size // 2
    image = np.asarray(image, dtype=np.float64)
    padded = pad(image, half, mode)
    rows, cols = image.shape
    out = np.zeros((rows, cols), dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for tap in range(kernel.size):
                acc += kernel[tap] * padded[r + tap, half + c]
            out[r, c] = acc
    return out


@register_kernel(
    "imgproc.convolve_cols",
    paper_kernel="Filter (1-D column pass)",
    apps=("disparity", "tracking", "sift", "stitch", "texture"),
    ref=_convolve_cols_ref,
    work=_work_convolve,
)
def convolve_cols(image: np.ndarray, kernel: np.ndarray,
                  mode: str = "replicate") -> np.ndarray:
    """Correlate every column of ``image`` with a 1-D ``kernel``."""
    kernel = _check_kernel_1d(kernel)
    half = kernel.size // 2
    padded = pad(np.asarray(image, dtype=np.float64), half, mode)
    rows, cols = image.shape
    out = np.zeros((rows, cols), dtype=np.float64)
    for tap, weight in enumerate(kernel):
        out += weight * padded[tap : tap + rows, half : half + cols]
    return out


def convolve_separable(image: np.ndarray, row_kernel: np.ndarray,
                       col_kernel: np.ndarray,
                       mode: str = "replicate") -> np.ndarray:
    """Two-pass separable filtering: columns then rows.

    Equivalent to ``convolve2d(image, outer(col_kernel, row_kernel))`` up
    to border effects, at O(k) instead of O(k^2) cost per pixel.
    """
    return convolve_rows(convolve_cols(image, col_kernel, mode), row_kernel, mode)


def _check_kernel_2d(kernel: np.ndarray) -> np.ndarray:
    """A 2-D kernel or a ``(K, kr, kc)`` stack, as a 3-D float64 stack."""
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim not in (2, 3) or kernel.size == 0:
        raise ValueError("2-D kernel or (K, rows, cols) kernel stack required")
    krows, kcols = kernel.shape[-2:]
    if krows % 2 == 0 or kcols % 2 == 0:
        raise ValueError("kernel sides must be odd for centred filtering")
    return kernel.reshape((-1, krows, kcols))


def _convolve2d_ref(image: np.ndarray, kernel: np.ndarray,
                    mode: str = "replicate") -> np.ndarray:
    """Loop-faithful 2-D correlation: four nested loops, zero taps kept.

    Mirrors the fast path's accumulation order (kernel row-major) so the
    two backends agree to round-off.  A kernel stack adds an outer loop
    over its kernels, on one padded image.
    """
    stack = _check_kernel_2d(kernel)
    n_kernels, krows, kcols = stack.shape
    half_r, half_c = krows // 2, kcols // 2
    half = max(half_r, half_c)
    image = np.asarray(image, dtype=np.float64)
    padded = pad(image, half, mode)
    rows, cols = image.shape
    out = np.zeros((n_kernels, rows, cols), dtype=np.float64)
    row_base = half - half_r
    col_base = half - half_c
    for k in range(n_kernels):
        for r in range(rows):
            for c in range(cols):
                acc = 0.0
                for kr in range(krows):
                    for kc in range(kcols):
                        weight = stack[k, kr, kc]
                        if weight == 0.0:
                            continue
                        acc += weight * padded[row_base + kr + r,
                                               col_base + kc + c]
                out[k, r, c] = acc
    return out if np.ndim(kernel) == 3 else out[0]


@register_kernel(
    "imgproc.convolve2d",
    paper_kernel="Convolution",
    apps=("stitch", "texture"),
    ref=_convolve2d_ref,
    work=_work_convolve,
)
def convolve2d(image: np.ndarray, kernel: np.ndarray,
               mode: str = "replicate") -> np.ndarray:
    """Full 2-D correlation with an odd-sized kernel.

    ``kernel`` may also be a ``(K, kr, kc)`` stack: the image is padded
    once and the result is the ``(K, rows, cols)`` stack of the ``K``
    correlations, each the same bits as its own call.
    """
    stack = _check_kernel_2d(kernel)
    n_kernels, krows, kcols = stack.shape
    half_r, half_c = krows // 2, kcols // 2
    half = max(half_r, half_c)
    padded = pad(np.asarray(image, dtype=np.float64), half, mode)
    rows, cols = image.shape
    out = np.zeros((n_kernels, rows, cols), dtype=np.float64)
    row_base = half - half_r
    col_base = half - half_c
    live = stack != 0.0
    for kr in range(krows):
        for kc in range(kcols):
            window = padded[
                row_base + kr : row_base + kr + rows,
                col_base + kc : col_base + kc + cols,
            ]
            # A zero tap is skipped per kernel, as a single call skips it.
            tap_live = live[:, kr, kc]
            if tap_live.all():
                out += stack[:, kr, kc, None, None] * window
            elif tap_live.any():
                out[tap_live] += stack[tap_live, kr, kc, None, None] * window
    return out if np.ndim(kernel) == 3 else out[0]
