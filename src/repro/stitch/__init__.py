"""Image Stitch: feature-based alignment, RANSAC registration, blending."""

from .benchmark import BENCHMARK, KERNELS, N_FEATURES, RANSAC_ITERATIONS
from .blend import Panorama, warp_and_blend
from .corners import Corner, anms, detect_corners, harris_response, local_maxima
from .matching import (
    DescribedCorner,
    describe_corners,
    match_features,
    match_points,
)
from .pipeline import StitchResult, registration_error, stitch_pair
from .ransac import (
    AffineModel,
    RansacResult,
    apply_homography,
    fit_affine,
    fit_translation,
    homography_dlt,
    ransac_affine,
)

__all__ = [
    "BENCHMARK",
    "KERNELS",
    "N_FEATURES",
    "RANSAC_ITERATIONS",
    "AffineModel",
    "Corner",
    "DescribedCorner",
    "Panorama",
    "RansacResult",
    "StitchResult",
    "anms",
    "apply_homography",
    "describe_corners",
    "detect_corners",
    "fit_affine",
    "fit_translation",
    "harris_response",
    "homography_dlt",
    "local_maxima",
    "match_features",
    "match_points",
    "ransac_affine",
    "registration_error",
    "stitch_pair",
]
