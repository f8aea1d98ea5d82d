"""RANSAC transform estimation with LS refits and SVD homography.

The stitch benchmark's registration stage: RANSAC ("iterative, heavily
computational and accesses data points randomly") hypothesizes affine
models from minimal samples, scores inliers, and refits the best model by
least squares (the "LS Solver" kernel).  A projective refinement via the
DLT's null-space SVD exercises the "SVD" kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from ..linalg.decompose import null_vector
from ..linalg.lstsq import lstsq_qr, lstsq_qr_batch


@dataclass(frozen=True)
class AffineModel:
    """Affine map: ``dst = A @ src + t`` with rows as (row, col) points."""

    matrix: np.ndarray  # (2, 2)
    translation: np.ndarray  # (2,)

    def apply(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return points @ self.matrix.T + self.translation

    @staticmethod
    def identity() -> "AffineModel":
        return AffineModel(matrix=np.eye(2), translation=np.zeros(2))


@dataclass(frozen=True)
class RansacResult:
    """Best model plus its inlier bookkeeping."""

    model: AffineModel
    inliers: np.ndarray  # boolean mask over input matches
    iterations: int

    @property
    def n_inliers(self) -> int:
        return int(self.inliers.sum())


def _affine_design(src: np.ndarray) -> np.ndarray:
    """``[row, col, 1]`` rows for points ``(..., n, 2)``."""
    return np.concatenate([src, np.ones((*src.shape[:-1], 1))], axis=-1)


def _affine_errors(params: np.ndarray, src: np.ndarray,
                   dst: np.ndarray) -> np.ndarray:
    """Reprojection distances of every match under ``(..., 3, 2)`` params."""
    mapped = np.matmul(src, params[..., :2, :]) + params[..., None, 2, :]
    return np.linalg.norm(mapped - dst, axis=-1)


def fit_affine(src: np.ndarray, dst: np.ndarray) -> AffineModel:
    """Least-squares affine fit ``dst ~= A src + t`` (needs >= 3 points)."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError("expected matching (n, 2) point arrays")
    if src.shape[0] < 3:
        raise ValueError("need at least 3 correspondences")
    params = lstsq_qr(_affine_design(src), dst)  # (3, 2): [A^T; t^T]
    return AffineModel(matrix=params[:2].T, translation=params[2])


def fit_translation(src: np.ndarray, dst: np.ndarray) -> AffineModel:
    """Pure-translation fit (needs >= 1 point)."""
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.size == 0:
        raise ValueError("expected matching non-empty point arrays")
    return AffineModel(matrix=np.eye(2),
                       translation=(dst - src).mean(axis=0))


def ransac_affine(
    src: np.ndarray,
    dst: np.ndarray,
    n_iterations: int = 256,
    inlier_threshold: float = 2.0,
    seed: int = 0,
    profiler: Optional[KernelProfiler] = None,
) -> RansacResult:
    """RANSAC affine estimation over matched point pairs.

    Minimal 3-point hypotheses are scored by reprojection distance; the
    winner is refit on its inliers by least squares.  The hypotheses are
    independent, so all of them are drawn first (one ``rng.choice`` each,
    in order), fitted as one stack and scored as one ``(hypotheses,
    matches)`` error matrix.  Rank-deficient picks are skipped, and the
    first hypothesis with the most inliers wins, as a loop keeping any
    strictly better count would choose.
    """
    profiler = ensure_profiler(profiler)
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = src.shape[0]
    if n < 3:
        raise ValueError("RANSAC needs at least 3 matches")
    rng = np.random.default_rng(seed)
    with profiler.kernel("LSSolver"):
        picks = np.array([rng.choice(n, 3, replace=False)
                          for _ in range(n_iterations)],
                         dtype=np.intp).reshape(-1, 3)
        params, singular = lstsq_qr_batch(_affine_design(src[picks]),
                                          dst[picks])
        inliers = _affine_errors(params, src, dst) < inlier_threshold
        counts = np.where(singular, 0, inliers.sum(axis=1))
        best_mask = np.zeros(n, dtype=bool)
        if counts.size and counts.max() > 0:
            best_mask = inliers[np.argmax(counts)].copy()
        if best_mask.sum() < 3:
            # Degenerate matches: fall back to robust translation.
            model = fit_translation(src, dst)
            errors = np.linalg.norm(model.apply(src) - dst, axis=1)
            best_mask = errors < inlier_threshold
            return RansacResult(model=model, inliers=best_mask,
                                iterations=n_iterations)
        final = fit_affine(src[best_mask], dst[best_mask])
    return RansacResult(model=final, inliers=best_mask,
                        iterations=n_iterations)


def homography_dlt(src: np.ndarray, dst: np.ndarray,
                   profiler: Optional[KernelProfiler] = None) -> np.ndarray:
    """Direct linear transform homography from >= 4 correspondences.

    Returns the 3x3 matrix H (normalized so H[2,2] = 1) minimizing the
    algebraic error, via the SVD null vector of the DLT design matrix.
    Points are (row, col); internally mapped to (x, y) = (col, row).
    """
    profiler = ensure_profiler(profiler)
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError("expected matching (n, 2) point arrays")
    n = src.shape[0]
    if n < 4:
        raise ValueError("DLT needs at least 4 correspondences")
    with profiler.kernel("SVD"):
        # Hartley normalization for conditioning.
        def normalizer(pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            centroid = pts.mean(axis=0)
            spread = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
            scale = (2.0**0.5) / max(spread, 1e-12)
            t = np.array(
                [
                    [scale, 0.0, -scale * centroid[1]],
                    [0.0, scale, -scale * centroid[0]],
                    [0.0, 0.0, 1.0],
                ]
            )
            xy = np.stack(
                [pts[:, 1] * scale - scale * centroid[1],
                 pts[:, 0] * scale - scale * centroid[0]], axis=1
            )
            return t, xy

        t_src, src_xy = normalizer(src)
        t_dst, dst_xy = normalizer(dst)
        xy1 = np.concatenate([src_xy, np.ones((n, 1))], axis=1)
        design = np.zeros((2 * n, 9))
        design[0::2, 0:3] = -xy1
        design[0::2, 6:9] = dst_xy[:, :1] * xy1
        design[1::2, 3:6] = -xy1
        design[1::2, 6:9] = dst_xy[:, 1:] * xy1
        h_normalized = null_vector(design).reshape(3, 3)
        h = np.linalg.solve(t_dst, h_normalized @ t_src)
        if abs(h[2, 2]) > 1e-12:
            h = h / h[2, 2]
    return h


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 3x3 homography to (row, col) points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    xy1 = np.stack(
        [points[:, 1], points[:, 0], np.ones(points.shape[0])], axis=1
    )
    mapped = xy1 @ h.T
    w = np.where(np.abs(mapped[:, 2]) < 1e-12, 1e-12, mapped[:, 2])
    return np.stack([mapped[:, 1] / w, mapped[:, 0] / w], axis=1)
