"""Shared image-processing kernels (the suite's common substrate)."""

from .convolution import (
    convolve2d,
    convolve_cols,
    convolve_rows,
    convolve_separable,
)
from .filters import (
    binomial_blur,
    binomial_kernel,
    gaussian_blur,
    gaussian_kernel,
)
from .gradient import (
    gradient,
    gradient_x,
    gradient_y,
)
from .integral import (
    integral_image,
    rect_sum,
    window_means,
    window_sums,
    window_variances,
)
from .interpolate import bilinear, downsample2, resize, upsample2
from .pad import pad
from .pyramid import ScaleSpace, gaussian_pyramid, scale_space
from .warp import (
    rotation_matrix,
    warp_affine,
)

__all__ = [
    "ScaleSpace",
    "bilinear",
    "binomial_blur",
    "binomial_kernel",
    "convolve2d",
    "convolve_cols",
    "convolve_rows",
    "convolve_separable",
    "downsample2",
    "gaussian_blur",
    "gaussian_kernel",
    "gaussian_pyramid",
    "gradient",
    "gradient_x",
    "gradient_y",
    "integral_image",
    "pad",
    "rect_sum",
    "resize",
    "rotation_matrix",
    "scale_space",
    "upsample2",
    "window_means",
    "window_sums",
    "window_variances",
]
