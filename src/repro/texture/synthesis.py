"""Iterative statistic-matching texture synthesis.

Starting from seeded noise, each iteration alternately imposes the
exemplar's statistics (the Portilla-Simoncelli projection loop):

1. spectral magnitude (full autocorrelation) — ``MatrixOps``;
2. per-band variance via pyramid-domain rescaling — ``Sampling``;
3. pixel moments and the exact intensity histogram — ``Kurtosis`` /
   ``Sampling``.

Convergence is tracked by :meth:`TextureStatistics.distance`; for
stochastic exemplars a handful of iterations reaches a small residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from .decompose import build_pyramid, reconstruct
from .stats import TextureStatistics, analyze, moments


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized texture plus the per-iteration statistic residuals."""

    texture: np.ndarray
    residuals: List[float]
    target: TextureStatistics

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("inf")


def match_histogram(values: np.ndarray, sorted_target: np.ndarray) -> np.ndarray:
    """Exact histogram transfer: rank-map ``values`` onto the target.

    The target array must be sorted ascending.  Sizes may differ; target
    quantiles are interpolated.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(flat, kind="stable")
    n = flat.size
    positions = (np.arange(n) + 0.5) / n
    source_quantiles = np.interp(
        positions,
        (np.arange(sorted_target.size) + 0.5) / sorted_target.size,
        sorted_target,
    )
    out = np.empty(n)
    out[order] = source_quantiles
    return out.reshape(np.asarray(values).shape)


def impose_spectrum(image: np.ndarray, target_magnitude: np.ndarray) -> np.ndarray:
    """Replace the Fourier magnitude, keeping the current phase."""
    image = np.asarray(image, dtype=np.float64)
    mean = image.mean()
    transform = np.fft.rfft2(image - mean)
    magnitude = np.abs(transform)
    phase = np.where(magnitude > 1e-12, transform / np.maximum(magnitude, 1e-12),
                     1.0)
    if target_magnitude.shape != transform.shape:
        raise ValueError("spectrum shape mismatch")
    return np.fft.irfft2(phase * target_magnitude, s=image.shape) + mean


#: Step halvings tried before a moment-nudging pass gives up.
_MAX_STEP_HALVINGS = 8


def impose_moments(values: np.ndarray, target: np.ndarray,
                   iterations: int = 3) -> np.ndarray:
    """Match mean/variance exactly, then nudge skew and kurtosis.

    Skew/kurtosis are adjusted with small cubic warps
    ``x + a x^2 + b x^3`` re-standardized each pass — the gradient-style
    correction Portilla-Simoncelli uses, kept first-order.  Being
    first-order, a full step can overshoot (the skew term ``z^2 - 1``
    also moves kurtosis), so a step is accepted only if it shrinks the
    combined skew+kurtosis gap, and is halved otherwise; a pass where no
    step helps leaves the values as they are.  The nudge is monotone.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    t_mean, t_var, t_skew, t_kurt = target
    out = flat.copy()
    current = moments(out)
    for _ in range(iterations):
        std = max(current[1], 1e-18) ** 0.5
        z = (out - current[0]) / std
        skew_gap = t_skew - current[2]
        kurt_gap = t_kurt - current[3]
        warp = 0.05 * skew_gap * (z**2 - 1.0) + 0.02 * kurt_gap * (
            z**3 - 3.0 * z
        )
        step = 1.0
        for _ in range(_MAX_STEP_HALVINGS):
            trial = z + step * warp
            trial_moments = moments(trial)
            if (abs(t_skew - trial_moments[2]) + abs(t_kurt - trial_moments[3])
                    < abs(skew_gap) + abs(kurt_gap)):
                out, current = trial, trial_moments
                break
            step *= 0.5
        else:
            break  # no step shrinks the gap; later passes would repeat it
    std = max(current[1], 1e-18) ** 0.5
    out = (out - current[0]) / std
    out = out * (max(t_var, 0.0) ** 0.5) + t_mean
    return out.reshape(np.asarray(values).shape)


def synthesize(
    target: TextureStatistics,
    shape: Tuple[int, int],
    n_levels: int = 3,
    n_orientations: int = 4,
    iterations: int = 8,
    seed: int = 0,
    profiler: Optional[KernelProfiler] = None,
) -> SynthesisResult:
    """Synthesize a ``shape`` texture matching ``target`` statistics."""
    profiler = ensure_profiler(profiler)
    rng = np.random.default_rng(seed)
    current = rng.standard_normal(shape)
    residuals: List[float] = []
    for _ in range(iterations):
        # Histogram first: its rank remap perturbs second-order structure,
        # so the spectral/band projections run after it each cycle.
        with profiler.kernel("Sampling"):
            current = match_histogram(current, target.histogram)
        with profiler.kernel("MatrixOps"):
            current = impose_spectrum(current, target.spectrum)
        with profiler.kernel("Sampling"):
            pyramid = build_pyramid(current, n_levels, n_orientations)
            for level_index, target_var in enumerate(target.bandpass_energies):
                if level_index >= len(pyramid.bandpass):
                    break
                band = pyramid.bandpass[level_index]
                band_var = float(((band - band.mean()) ** 2).mean())
                if band_var > 1e-18:
                    pyramid.bandpass[level_index] = band * (
                        (target_var / band_var) ** 0.5
                    )
            current = reconstruct(pyramid, shape)
        with profiler.kernel("Kurtosis"):
            current = impose_moments(current, target.pixel_moments)
        synthesized_stats = analyze(
            current, n_levels, n_orientations, profiler=profiler
        )
        residuals.append(target.distance(synthesized_stats))
    return SynthesisResult(texture=current, residuals=residuals, target=target)


def synthesize_from_exemplar(
    exemplar: np.ndarray,
    out_shape: Optional[Tuple[int, int]] = None,
    n_levels: int = 3,
    n_orientations: int = 4,
    iterations: int = 8,
    seed: int = 0,
    profiler: Optional[KernelProfiler] = None,
) -> SynthesisResult:
    """Analyze an exemplar and synthesize a (possibly larger) texture.

    When ``out_shape`` differs from the exemplar's, the target spectrum
    is resampled to the new shape (magnitudes interpolated), which is how
    the benchmark "constructs a large digital image from a smaller
    portion".
    """
    profiler = ensure_profiler(profiler)
    exemplar = np.asarray(exemplar, dtype=np.float64)
    target = analyze(exemplar, n_levels, n_orientations, profiler=profiler)
    shape = tuple(out_shape) if out_shape is not None else exemplar.shape
    if shape != exemplar.shape:
        from ..imgproc.interpolate import resize

        scale = (shape[0] * shape[1]) / float(exemplar.size)
        spec_shape = (shape[0], shape[1] // 2 + 1)
        target.spectrum = resize(target.spectrum, *spec_shape) * scale
        # Histogram grows by tiling so exact matching has enough samples.
        reps = int(np.ceil(scale))
        target.histogram = np.sort(np.tile(target.histogram, max(1, reps)))
    return synthesize(
        target, shape, n_levels, n_orientations, iterations, seed, profiler
    )
