"""SIFT: scale-invariant feature detection and description."""

from .benchmark import BENCHMARK, KERNELS, N_OCTAVES, SCALES_PER_OCTAVE
from .descriptors import (
    SiftFeature,
    describe_keypoints,
    descriptor_at,
    dominant_orientations,
    orientation_histogram,
)
from .keypoints import (
    Keypoint,
    build_scale_space,
    detect_keypoints,
    edge_response_ok,
    local_extrema_mask,
    refine_candidate,
)
from .sift import SiftResult, contrast_normalize, extract_features

__all__ = [
    "BENCHMARK",
    "KERNELS",
    "N_OCTAVES",
    "SCALES_PER_OCTAVE",
    "Keypoint",
    "SiftFeature",
    "SiftResult",
    "build_scale_space",
    "contrast_normalize",
    "describe_keypoints",
    "descriptor_at",
    "detect_keypoints",
    "dominant_orientations",
    "edge_response_ok",
    "extract_features",
    "local_extrema_mask",
    "orientation_histogram",
    "refine_candidate",
]
