"""Texture statistics — the parametric model matched during synthesis.

The statistic set follows Portilla-Simoncelli's structure on our
simplified pyramid:

* pixel-domain marginals: mean, variance, skewness, kurtosis (the
  paper's "kurtosis" hotspot) and the full intensity histogram;
* per-band (scale x orientation) energies and marginals;
* cross-orientation correlation matrices per scale (whose eigenstructure
  is the benchmark's "PCA" kernel);
* low-pass autocorrelation at small lags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from ..linalg.eigen import jacobi_eigh
from .decompose import OrientedPyramid, build_pyramid


def moments(values: np.ndarray) -> np.ndarray:
    """(mean, variance, skewness, kurtosis) of a sample array.

    Kurtosis is the raw fourth standardized moment (Gaussian = 3).
    Degenerate (zero-variance) inputs report skew 0 and kurtosis 3.

    The powers are products of the centred values: exact wherever the
    products are (small integers), and odd in sign, so ``moments(-x)``
    has exactly the negated skew.  numpy's ``power`` is neither: it
    takes a slower path on negative values, whose last bit differs from
    the non-negative path's.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    mean = float(flat.mean())
    centered = flat - mean
    squared = centered * centered
    var = float(squared.mean())
    if var <= 1e-18:
        return np.array([mean, var, 0.0, 3.0])
    std = var**0.5
    skew = float((squared * centered).mean() / std**3)
    kurt = float((squared * squared).mean() / var**2)
    return np.array([mean, var, skew, kurt])


def autocorrelation(image: np.ndarray, max_lag: int = 3) -> np.ndarray:
    """Normalized autocorrelation on a ``(2L+1)^2`` lag grid."""
    image = np.asarray(image, dtype=np.float64)
    centered = image - image.mean()
    denom = float((centered**2).sum())
    if denom <= 1e-18:
        return np.zeros((2 * max_lag + 1, 2 * max_lag + 1))
    rows, cols = image.shape
    out = np.zeros((2 * max_lag + 1, 2 * max_lag + 1))
    for dy in range(-max_lag, max_lag + 1):
        for dx in range(-max_lag, max_lag + 1):
            r0, r1 = max(0, dy), min(rows, rows + dy)
            c0, c1 = max(0, dx), min(cols, cols + dx)
            a = centered[r0:r1, c0:c1]
            b = centered[r0 - dy : r1 - dy, c0 - dx : c1 - dx]
            out[dy + max_lag, dx + max_lag] = float((a * b).sum()) / denom
    return out


@dataclass
class TextureStatistics:
    """The full statistic vector for one texture."""

    pixel_moments: np.ndarray  # (4,)
    histogram: np.ndarray  # sorted pixel values (for exact matching)
    band_moments: List[List[np.ndarray]]  # [level][orientation] -> (4,)
    band_energies: List[np.ndarray]  # [level] -> (n_orientations,)
    bandpass_energies: List[float]  # [level] -> unoriented band variance
    cross_correlations: List[np.ndarray]  # [level] -> (K, K)
    principal_axes: List[np.ndarray]  # [level] -> (K, K) eigvecs
    lowpass_autocorr: np.ndarray
    spectrum: np.ndarray  # |FFT| of the (normalized) texture

    def distance(self, other: "TextureStatistics") -> float:
        """Scale-balanced L2 distance over the statistic vector.

        Used as the synthesis convergence metric and by the tests.
        """
        terms = [
            float(np.abs(self.pixel_moments - other.pixel_moments).sum()),
            float(
                np.abs(self.lowpass_autocorr - other.lowpass_autocorr).mean()
            ),
        ]
        # Energy terms are normalized by the texture's dominant band
        # energy, not per level: near-zero fine bands of smooth textures
        # would otherwise blow up the relative error meaninglessly.
        energy_scale = max(
            (float(np.abs(e).max()) for e in other.band_energies),
            default=0.0,
        )
        energy_scale = max(energy_scale, 1e-12)
        for mine, theirs in zip(self.band_energies, other.band_energies):
            terms.append(float(np.abs(mine - theirs).mean()) / energy_scale)
        lp_scale = max((abs(e) for e in other.bandpass_energies),
                       default=0.0)
        lp_scale = max(lp_scale, 1e-12)
        for mine_e, theirs_e in zip(self.bandpass_energies,
                                    other.bandpass_energies):
            terms.append(abs(mine_e - theirs_e) / lp_scale)
        for mine_l, theirs_l in zip(self.cross_correlations,
                                    other.cross_correlations):
            terms.append(float(np.abs(mine_l - theirs_l).mean()))
        return float(sum(terms))


def analyze(
    image: np.ndarray,
    n_levels: int = 3,
    n_orientations: int = 4,
    max_lag: int = 3,
    profiler: Optional[KernelProfiler] = None,
    pyramid: Optional[OrientedPyramid] = None,
) -> TextureStatistics:
    """Measure the full statistic set of ``image``."""
    profiler = ensure_profiler(profiler)
    image = np.asarray(image, dtype=np.float64)
    if pyramid is None:
        with profiler.kernel("Sampling"):
            pyramid = build_pyramid(image, n_levels, n_orientations)
    with profiler.kernel("Kurtosis"):
        pixel_moments = moments(image)
        band_moments = [
            [moments(band) for band in level] for level in pyramid.bands
        ]
    with profiler.kernel("MatrixOps"):
        band_energies = [
            np.array([float((band**2).mean()) for band in level])
            for level in pyramid.bands
        ]
        bandpass_energies = [
            float(((band - band.mean()) ** 2).mean())
            for band in pyramid.bandpass
        ]
        cross = []
        for level in pyramid.bands:
            stacked = level.reshape(level.shape[0], -1)
            corr = (stacked @ stacked.T) / stacked.shape[1]
            cross.append(corr)
        lowpass_autocorr = autocorrelation(pyramid.lowpass, max_lag)
        spectrum = np.abs(np.fft.rfft2(image - image.mean()))
    with profiler.kernel("PCA"):
        # Every level's correlation matrix in one stacked eigensolve.
        k = pyramid.n_orientations
        _values, vectors = jacobi_eigh(np.reshape(cross, (-1, k, k)))
        principal_axes = list(vectors)
    return TextureStatistics(
        pixel_moments=pixel_moments,
        histogram=np.sort(image.ravel()),
        band_moments=band_moments,
        band_energies=band_energies,
        bandpass_energies=bandpass_energies,
        cross_correlations=cross,
        principal_axes=principal_axes,
        lowpass_autocorr=lowpass_autocorr,
        spectrum=spectrum,
    )
