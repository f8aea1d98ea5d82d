"""Feature Tracking: KLT feature extraction and pyramidal tracking."""

from .benchmark import BENCHMARK, KERNELS, MAX_FEATURES, N_FRAMES, PYRAMID_LEVELS
from .features import (
    Feature,
    good_features,
    min_eigenvalue_map,
    select_features,
    structure_tensor_fields,
)
from .dense_flow import FlowField, dense_flow, iterative_dense_flow
from .klt import (
    Track,
    median_motion,
    track_feature_level,
    track_features,
    track_level,
    track_sequence,
)

__all__ = [
    "BENCHMARK",
    "KERNELS",
    "MAX_FEATURES",
    "N_FRAMES",
    "PYRAMID_LEVELS",
    "Feature",
    "FlowField",
    "Track",
    "dense_flow",
    "good_features",
    "iterative_dense_flow",
    "median_motion",
    "min_eigenvalue_map",
    "select_features",
    "structure_tensor_fields",
    "track_feature_level",
    "track_features",
    "track_level",
    "track_sequence",
]
