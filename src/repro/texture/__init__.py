"""Texture Synthesis: parametric statistic-matching synthesis."""

from .benchmark import BENCHMARK, ITERATIONS, KERNELS, N_LEVELS, N_ORIENTATIONS
from .decompose import (
    LaplacianPyramid,
    OrientedPyramid,
    build_pyramid,
    laplacian_pyramid,
    oriented_kernel,
    reconstruct,
)
from .efros_leung import EfrosLeungResult, synthesize_efros_leung
from .stats import TextureStatistics, analyze, autocorrelation, moments
from .synthesis import (
    SynthesisResult,
    impose_moments,
    impose_spectrum,
    match_histogram,
    synthesize,
    synthesize_from_exemplar,
)

__all__ = [
    "BENCHMARK",
    "ITERATIONS",
    "KERNELS",
    "N_LEVELS",
    "N_ORIENTATIONS",
    "EfrosLeungResult",
    "LaplacianPyramid",
    "OrientedPyramid",
    "SynthesisResult",
    "TextureStatistics",
    "analyze",
    "autocorrelation",
    "build_pyramid",
    "impose_moments",
    "impose_spectrum",
    "laplacian_pyramid",
    "match_histogram",
    "moments",
    "oriented_kernel",
    "reconstruct",
    "synthesize",
    "synthesize_efros_leung",
    "synthesize_from_exemplar",
]
