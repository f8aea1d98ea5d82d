"""Pyramidal Kanade-Lucas-Tomasi feature tracking.

For each feature, the tracker solves the optical-flow normal equations

    [Sxx Sxy] [dx]   [ex]
    [Sxy Syy] [dy] = [ey]

over a patch around the feature, iterating Newton steps at each pyramid
level from coarse to fine.  The 2x2 solve is the benchmark's
"Matrix Inversion" kernel; patch sampling uses bilinear interpolation.
The features' solves are independent, so each level solves all of them
at once (:func:`track_level`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from ..imgproc.gradient import gradient
from ..imgproc.interpolate import bilinear
from ..imgproc.pyramid import gaussian_pyramid
from ..linalg.matrix import inverse_2x2_batch
from .features import Feature, good_features


@dataclass(frozen=True)
class Track:
    """One feature's correspondence between two frames."""

    start: Tuple[float, float]  # (row, col) in the first frame
    end: Tuple[float, float]  # (row, col) in the second frame
    converged: bool
    residual: float

    @property
    def motion(self) -> Tuple[float, float]:
        return (self.end[0] - self.start[0], self.end[1] - self.start[1])


def track_level(
    prev_img: np.ndarray,
    next_img: np.ndarray,
    prev_gx: np.ndarray,
    prev_gy: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    dy: np.ndarray,
    dx: np.ndarray,
    half: int = 4,
    iterations: int = 12,
    epsilon: float = 0.01,
    profiler: Optional[KernelProfiler] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refine the displacement guesses of many features at one level.

    ``rows``, ``cols``, ``dy`` and ``dx`` are equal-length 1-D arrays, one
    entry per feature.  Returns ``(dy, dx, converged, residual)`` arrays:
    feature ``i`` maps ``(rows[i], cols[i])`` in ``prev_img`` to
    ``(rows[i]+dy[i], cols[i]+dx[i])`` in ``next_img``.  A feature whose
    structure tensor is singular keeps its guess, does not converge and
    has an infinite residual.

    Each feature's solve is independent, so the patches of all features
    are sampled in one call, and each Newton step samples only the
    features still iterating.  Every per-feature sum runs over one
    contiguous row of the patch, in the order a one-feature solve sums it.
    """
    profiler = ensure_profiler(profiler)
    # The whole solve — structure-tensor accumulation, the 2x2 inverse,
    # and the Newton iterations it drives — is the paper's "Matrix
    # Inversion" kernel (described as transpose/multiply-heavy).
    with profiler.kernel("MatrixInversion"):
        rows = np.asarray(rows, dtype=np.float64)
        cols = np.asarray(cols, dtype=np.float64)
        dy = np.array(dy, dtype=np.float64)
        dx = np.array(dx, dtype=np.float64)
        n = rows.size
        offsets = np.arange(-half, half + 1, dtype=np.float64)
        patch = offsets.size**2
        # (n, k, 1) and (n, 1, k): bilinear broadcasts them to the patch.
        rr = (rows[:, None] + offsets)[:, :, None]
        cc = (cols[:, None] + offsets)[:, None, :]
        template = bilinear(prev_img, rr, cc).reshape(n, patch)
        gx = bilinear(prev_gx, rr, cc).reshape(n, patch)
        gy = bilinear(prev_gy, rr, cc).reshape(n, patch)
        sxy = (gx * gy).sum(axis=1)
        tensors = np.stack(
            [(gx * gx).sum(axis=1), sxy, sxy, (gy * gy).sum(axis=1)], axis=1
        ).reshape(n, 2, 2)
        g_inv, singular = inverse_2x2_batch(tensors)
        converged = np.zeros(n, dtype=bool)
        residual = np.full(n, np.inf)
        active = np.flatnonzero(~singular)
        for _ in range(iterations):
            if active.size == 0:
                break
            warped = bilinear(
                next_img,
                rr[active] + dy[active, None, None],
                cc[active] + dx[active, None, None],
            ).reshape(active.size, patch)
            error = template[active] - warped
            residual[active] = np.abs(error).mean(axis=1)
            ex = (error * gx[active]).sum(axis=1)
            ey = (error * gy[active]).sum(axis=1)
            inv = g_inv[active]
            step_x = inv[:, 0, 0] * ex + inv[:, 0, 1] * ey
            step_y = inv[:, 1, 0] * ex + inv[:, 1, 1] * ey
            dx[active] += step_x
            dy[active] += step_y
            done = (np.abs(step_x) < epsilon) & (np.abs(step_y) < epsilon)
            converged[active[done]] = True
            active = active[~done]
    return dy, dx, converged, residual


def track_feature_level(
    prev_img: np.ndarray,
    next_img: np.ndarray,
    prev_gx: np.ndarray,
    prev_gy: np.ndarray,
    row: float,
    col: float,
    guess: Tuple[float, float],
    half: int = 4,
    iterations: int = 12,
    epsilon: float = 0.01,
    profiler: Optional[KernelProfiler] = None,
) -> Tuple[Tuple[float, float], bool, float]:
    """Refine a displacement guess at one pyramid level.

    Returns ``((dy, dx), converged, residual)`` where the displacement
    maps ``(row, col)`` in ``prev_img`` to ``(row+dy, col+dx)`` in
    ``next_img``.  This is :func:`track_level` for one feature.
    """
    dy, dx, converged, residual = track_level(
        prev_img, next_img, prev_gx, prev_gy, [row], [col], [guess[0]],
        [guess[1]], half=half, iterations=iterations, epsilon=epsilon,
        profiler=profiler,
    )
    return (float(dy[0]), float(dx[0])), bool(converged[0]), float(residual[0])


def track_features(
    prev_frame: np.ndarray,
    next_frame: np.ndarray,
    features: Sequence[Feature],
    levels: int = 3,
    half: int = 4,
    iterations: int = 12,
    profiler: Optional[KernelProfiler] = None,
) -> List[Track]:
    """Track ``features`` from ``prev_frame`` into ``next_frame``.

    Builds Gaussian pyramids ("GaussianFilter" kernel), differentiates
    every level ("Gradient"), then refines all features together
    coarse-to-fine, one :func:`track_level` solve per level.
    """
    profiler = ensure_profiler(profiler)
    prev_frame = np.asarray(prev_frame, dtype=np.float64)
    next_frame = np.asarray(next_frame, dtype=np.float64)
    if prev_frame.shape != next_frame.shape:
        raise ValueError("frame shapes differ")
    with profiler.kernel("GaussianFilter"):
        prev_pyr = gaussian_pyramid(prev_frame, levels)
        next_pyr = gaussian_pyramid(next_frame, levels)
    with profiler.kernel("Gradient"):
        grads = [gradient(level) for level in prev_pyr]
    rows = np.array([f.row for f in features], dtype=np.float64)
    cols = np.array([f.col for f in features], dtype=np.float64)
    dy = np.zeros(len(features))
    dx = np.zeros(len(features))
    converged = np.zeros(len(features), dtype=bool)
    residual = np.full(len(features), np.inf)
    for level in range(levels - 1, -1, -1):
        scale = 2.0**level
        dy, dx, converged, residual = track_level(
            prev_pyr[level],
            next_pyr[level],
            grads[level][0],
            grads[level][1],
            rows / scale,
            cols / scale,
            dy,
            dx,
            half=half,
            iterations=iterations,
            profiler=profiler,
        )
        if level > 0:
            dy *= 2.0
            dx *= 2.0
    return [
        Track(
            start=(feature.row, feature.col),
            end=(feature.row + dy[i], feature.col + dx[i]),
            converged=bool(converged[i]),
            residual=float(residual[i]),
        )
        for i, feature in enumerate(features)
    ]


def track_sequence(
    frames: Sequence[np.ndarray],
    max_features: int = 48,
    levels: int = 3,
    profiler: Optional[KernelProfiler] = None,
) -> List[List[Track]]:
    """Run the full benchmark pipeline over consecutive frame pairs.

    Features are re-extracted on every frame (the suite's per-frame
    image-processing phase) and tracked into the next frame.
    """
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    profiler = ensure_profiler(profiler)
    all_tracks: List[List[Track]] = []
    for prev_frame, next_frame in zip(frames[:-1], frames[1:]):
        features = good_features(
            prev_frame, max_features=max_features, profiler=profiler
        )
        all_tracks.append(
            track_features(
                prev_frame, next_frame, features, levels=levels,
                profiler=profiler,
            )
        )
    return all_tracks


def median_motion(tracks: Sequence[Track],
                  converged_only: bool = True) -> Tuple[float, float]:
    """Robust (median) motion estimate across tracks — used for testing
    against the known ground-truth translation of synthetic sequences."""
    chosen = [t for t in tracks if t.converged] if converged_only else list(tracks)
    if not chosen:
        raise ValueError("no converged tracks")
    dys = sorted(t.motion[0] for t in chosen)
    dxs = sorted(t.motion[1] for t in chosen)
    mid = len(chosen) // 2
    return dys[mid], dxs[mid]
