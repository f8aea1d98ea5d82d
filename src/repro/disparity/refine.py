"""SAD disparity: the L1 block cost beside the core SSD matcher.

The SD-VBS disparity code computes SAD/SSD block costs.
:func:`dense_disparity_sad` is L1 block matching (the suite's
``computeSAD`` path), cheaper and more robust to outliers than SSD; the
baseline benchmark compares it with the SSD matcher.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from .algorithm import DisparityResult, correlate_window, shift_right


def _cost_volume(
    left: np.ndarray,
    right: np.ndarray,
    max_disparity: int,
    window: int,
    profiler: KernelProfiler,
) -> np.ndarray:
    """Aggregated SAD cost per (shift, row, col)."""
    volume = np.empty((max_disparity,) + left.shape)
    for d in range(max_disparity):
        with profiler.kernel("SSD"):
            per_pixel = np.abs(left - shift_right(right, d))
        volume[d] = correlate_window(per_pixel, window, profiler)
    return volume


def dense_disparity_sad(
    left: np.ndarray,
    right: np.ndarray,
    max_disparity: int = 16,
    window: int = 9,
    profiler: Optional[KernelProfiler] = None,
) -> DisparityResult:
    """Dense disparity with the SAD (L1) block cost."""
    profiler = ensure_profiler(profiler)
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape or left.ndim != 2:
        raise ValueError("stereo inputs must be equal-shape 2-D images")
    if not 1 <= max_disparity < left.shape[1]:
        raise ValueError("invalid max_disparity")
    volume = _cost_volume(left, right, max_disparity, window, profiler)
    with profiler.kernel("Sort"):
        best = volume.argmin(axis=0)
        cost = np.take_along_axis(volume, best[None], axis=0)[0]
    return DisparityResult(
        disparity=best.astype(np.int64),
        cost=cost,
        max_disparity=max_disparity,
        window=window,
    )
