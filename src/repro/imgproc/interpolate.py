"""Sampling and resampling: bilinear lookup, resize, upsample, downsample.

SIFT's preprocessing upsamples the input 2x with (anti-aliased) linear
interpolation — the paper calls this out as a data/compute-intensive
"Interpolation" kernel — and the pyramid code downsamples by 2.  KLT
tracking samples patches at sub-pixel positions with :func:`bilinear`.
"""

from __future__ import annotations

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate


def _work_bilinear(image: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> WorkEstimate:
    """Per query: clamp/floor/fraction setup plus the 9-op 4-tap blend
    (~16 flops); traffic is 4 taps + 2 coordinates in, 1 sample out.
    A scalar pair is one query, a zero-size array none."""
    queries = int(np.prod(np.broadcast_shapes(np.shape(rows),
                                              np.shape(cols))))
    return WorkEstimate(
        flops=16.0 * queries,
        traffic_bytes=FLOAT_BYTES * 7.0 * queries,
    )


def _bilinear_ref(image: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Loop-faithful bilinear sampling: one scalar 4-tap blend per query.

    Same clamp/floor/blend sequence as the vectorized path, evaluated
    per position in a plain Python loop (the C suite's per-sample code).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    height, width = image.shape
    r_in = np.asarray(rows, dtype=np.float64)
    c_in = np.asarray(cols, dtype=np.float64)
    shape = np.broadcast(r_in, c_in).shape
    r_flat = np.broadcast_to(r_in, shape).ravel()
    c_flat = np.broadcast_to(c_in, shape).ravel()
    out = np.empty(r_flat.size, dtype=np.float64)
    for i in range(r_flat.size):
        r = min(max(float(r_flat[i]), 0.0), height - 1.0)
        c = min(max(float(c_flat[i]), 0.0), width - 1.0)
        r0 = int(np.floor(r))
        c0 = int(np.floor(c))
        r1 = min(r0 + 1, height - 1)
        c1 = min(c0 + 1, width - 1)
        fr = r - r0
        fc = c - c0
        top = image[r0, c0] * (1.0 - fc) + image[r0, c1] * fc
        bottom = image[r1, c0] * (1.0 - fc) + image[r1, c1] * fc
        out[i] = top * (1.0 - fr) + bottom * fr
    return out.reshape(shape)


@register_kernel(
    "imgproc.bilinear",
    paper_kernel="Interpolation",
    apps=("sift", "tracking", "stitch"),
    ref=_bilinear_ref,
    work=_work_bilinear,
)
def bilinear(image: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample ``image`` at fractional ``(rows, cols)`` positions.

    Positions are clamped to the valid square, so out-of-range queries
    return edge values (replicate semantics, matching the filters).
    ``rows``/``cols`` may be scalars or arrays of any matching shape.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    height, width = image.shape
    r = np.clip(np.asarray(rows, dtype=np.float64), 0.0, height - 1.0)
    c = np.clip(np.asarray(cols, dtype=np.float64), 0.0, width - 1.0)
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    r1 = np.minimum(r0 + 1, height - 1)
    c1 = np.minimum(c0 + 1, width - 1)
    fr = r - r0
    fc = c - c0
    top = image[r0, c0] * (1.0 - fc) + image[r0, c1] * fc
    bottom = image[r1, c0] * (1.0 - fc) + image[r1, c1] * fc
    return top * (1.0 - fr) + bottom * fr


def resize(image: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Bilinear resize to ``(out_rows, out_cols)``.

    Sample positions align the corner pixels of source and destination
    (endpoint mapping), matching the suite's MATLAB-style ``imresize``.
    """
    if out_rows < 1 or out_cols < 1:
        raise ValueError("output dimensions must be positive")
    image = np.asarray(image, dtype=np.float64)
    in_rows, in_cols = image.shape
    rr = (
        np.linspace(0.0, in_rows - 1.0, out_rows)
        if out_rows > 1
        else np.array([(in_rows - 1) / 2.0])
    )
    cc = (
        np.linspace(0.0, in_cols - 1.0, out_cols)
        if out_cols > 1
        else np.array([(in_cols - 1) / 2.0])
    )
    grid_r, grid_c = np.meshgrid(rr, cc, indexing="ij")
    return bilinear(image, grid_r, grid_c)


def upsample2(image: np.ndarray) -> np.ndarray:
    """Double both dimensions with bilinear interpolation (SIFT preprocess)."""
    rows, cols = np.asarray(image).shape
    return resize(image, rows * 2, cols * 2)


def downsample2(image: np.ndarray) -> np.ndarray:
    """Halve both dimensions by taking every other sample.

    Callers are expected to low-pass first (see
    :func:`repro.imgproc.pyramid.gaussian_pyramid`), as the suite does.
    """
    image = np.asarray(image, dtype=np.float64)
    return image[::2, ::2].copy()
