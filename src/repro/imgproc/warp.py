"""Geometric image warping: affine resampling.

A general inverse-mapping warp built on the suite's bilinear sampler: for
every output pixel, the transform maps its coordinates into the source
image and samples there.  Complements the stitch pipeline's specialized
panorama compositing with a reusable standalone primitive.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate
from .interpolate import bilinear


def _work_warp_affine(
    image: np.ndarray,
    matrix: np.ndarray,
    translation: np.ndarray,
    out_shape: Optional[Tuple[int, int]] = None,
    fill: float = 0.0,
) -> WorkEstimate:
    """Per output pixel: 8-op affine transform, inside test, 16-op
    bilinear blend (~25 flops); traffic is 4 taps + 2 coordinates in,
    1 pixel out."""
    shape = tuple(out_shape) if out_shape is not None else np.shape(image)
    pixels = int(np.prod(shape))
    return WorkEstimate(
        flops=25.0 * pixels,
        traffic_bytes=FLOAT_BYTES * 7.0 * pixels,
    )


def _warp_affine_ref(
    image: np.ndarray,
    matrix: np.ndarray,
    translation: np.ndarray,
    out_shape: Optional[Tuple[int, int]] = None,
    fill: float = 0.0,
) -> np.ndarray:
    """Loop-faithful inverse-mapping warp: one scalar sample per pixel.

    The per-pixel transform/inside-test/4-tap-blend sequence mirrors the
    C suite's warp loops; out-of-source pixels take ``fill`` exactly as
    the vectorized ``np.where`` does.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    matrix = np.asarray(matrix, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    if matrix.shape != (2, 2) or translation.shape != (2,):
        raise ValueError("need a 2x2 matrix and a length-2 translation")
    shape = tuple(out_shape) if out_shape is not None else image.shape
    rows, cols = image.shape
    out = np.empty(shape, dtype=np.float64)
    for rr in range(shape[0]):
        for cc in range(shape[1]):
            src_r = matrix[0, 0] * rr + matrix[0, 1] * cc + translation[0]
            src_c = matrix[1, 0] * rr + matrix[1, 1] * cc + translation[1]
            if not (0.0 <= src_r <= rows - 1 and 0.0 <= src_c <= cols - 1):
                out[rr, cc] = fill
                continue
            r0 = int(np.floor(src_r))
            c0 = int(np.floor(src_c))
            r1 = min(r0 + 1, rows - 1)
            c1 = min(c0 + 1, cols - 1)
            fr = src_r - r0
            fc = src_c - c0
            top = image[r0, c0] * (1.0 - fc) + image[r0, c1] * fc
            bottom = image[r1, c0] * (1.0 - fc) + image[r1, c1] * fc
            out[rr, cc] = top * (1.0 - fr) + bottom * fr
    return out


@register_kernel(
    "imgproc.warp_affine",
    paper_kernel="Transform (affine warp)",
    apps=("stitch", "tracking"),
    ref=_warp_affine_ref,
    work=_work_warp_affine,
)
def warp_affine(
    image: np.ndarray,
    matrix: np.ndarray,
    translation: np.ndarray,
    out_shape: Optional[Tuple[int, int]] = None,
    fill: float = 0.0,
) -> np.ndarray:
    """Resample ``image`` under ``src = A @ dst + t`` (inverse mapping).

    ``matrix`` (2x2) and ``translation`` (2,) map *output* (row, col)
    coordinates to source coordinates; out-of-source pixels get ``fill``.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    matrix = np.asarray(matrix, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    if matrix.shape != (2, 2) or translation.shape != (2,):
        raise ValueError("need a 2x2 matrix and a length-2 translation")
    shape = tuple(out_shape) if out_shape is not None else image.shape
    rr, cc = np.mgrid[: shape[0], : shape[1]].astype(np.float64)
    src_r = matrix[0, 0] * rr + matrix[0, 1] * cc + translation[0]
    src_c = matrix[1, 0] * rr + matrix[1, 1] * cc + translation[1]
    rows, cols = image.shape
    inside = (
        (src_r >= 0) & (src_r <= rows - 1) & (src_c >= 0)
        & (src_c <= cols - 1)
    )
    sampled = bilinear(image, src_r, src_c)
    return np.where(inside, sampled, fill)


def rotation_matrix(angle: float) -> np.ndarray:
    """2x2 rotation by ``angle`` radians in (row, col) coordinates."""
    c, s = float(np.cos(angle)), float(np.sin(angle))
    return np.array([[c, -s], [s, c]])
