"""Disparity Map: dense stereo depth (Motion, Tracking and Stereo Vision)."""

from .algorithm import (
    DisparityResult,
    correlate_window,
    dense_disparity,
    disparity_error,
    shift_right,
    ssd_map,
)
from .benchmark import BENCHMARK, KERNELS, MAX_DISPARITY, WINDOW
from .refine import dense_disparity_sad

__all__ = [
    "BENCHMARK",
    "KERNELS",
    "MAX_DISPARITY",
    "WINDOW",
    "DisparityResult",
    "correlate_window",
    "dense_disparity",
    "dense_disparity_sad",
    "disparity_error",
    "shift_right",
    "ssd_map",
]
