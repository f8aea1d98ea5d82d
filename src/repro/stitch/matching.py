"""Patch descriptors and feature matching for image stitch.

Descriptors are 8x8 intensity patches sampled on a stride-2 grid from the
blurred image (MOPS-style), normalized to zero mean / unit variance so
matching is exposure-invariant.  Matching uses the Lowe ratio test on
squared Euclidean distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate
from ..core.profiler import KernelProfiler, ensure_profiler
from ..imgproc.filters import gaussian_blur
from ..imgproc.interpolate import bilinear
from .corners import Corner

PATCH_SIDE = 8
PATCH_STRIDE = 2


@dataclass(frozen=True)
class DescribedCorner:
    """A corner plus its normalized patch descriptor."""

    corner: Corner
    descriptor: np.ndarray  # (PATCH_SIDE * PATCH_SIDE,)


def describe_corners(
    image: np.ndarray,
    corners: Sequence[Corner],
    profiler: Optional[KernelProfiler] = None,
) -> List[DescribedCorner]:
    """Sample normalized patches around each corner."""
    profiler = ensure_profiler(profiler)
    image = np.asarray(image, dtype=np.float64)
    with profiler.kernel("Convolution"):
        smooth = gaussian_blur(image, 1.5)
    if not corners:
        return []
    half_extent = PATCH_SIDE * PATCH_STRIDE / 2.0
    offsets = (
        np.arange(PATCH_SIDE) * PATCH_STRIDE - half_extent + PATCH_STRIDE / 2.0
    )
    # Every corner's 8x8 grid as one (F, 8, 8) query: one dispatch.
    centers = np.array([[c.row, c.col] for c in corners], dtype=np.float64)
    rr = centers[:, 0, None, None] + offsets[None, :, None]
    cc = centers[:, 1, None, None] + offsets[None, None, :]
    patches = bilinear(smooth, rr, cc).reshape(len(corners), -1)
    # Each corner's own zero-mean / unit-variance normalization; a flat
    # patch keeps its zero-mean values (dividing by 1 is exact).
    patches = patches - patches.mean(axis=1, keepdims=True)
    std = patches.std(axis=1, keepdims=True)
    patches = patches / np.where(std > 1e-9, std, 1.0)
    return [DescribedCorner(corner=corner, descriptor=patch)
            for corner, patch in zip(corners, patches)]


def _work_match_distances(a: np.ndarray, b: np.ndarray) -> WorkEstimate:
    """All-pairs squared distances: ~2 flops per (pair, dimension);
    read both descriptor sets, write the n x m distance matrix."""
    n, dim = np.shape(a)
    m = np.shape(b)[0]
    return WorkEstimate(
        flops=float(n) * float(m) * (2.0 * dim + 3.0),
        traffic_bytes=FLOAT_BYTES * (float(n) * dim + float(m) * dim
                                     + float(n) * float(m)),
    )


def _match_distances_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Loop-faithful descriptor correlation: one scalar accumulation of
    ``sum((a_i - b_j)^2)`` per candidate pair (the C suite's match loop).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape[0], b.shape[0]
    dim = a.shape[1]
    d2 = np.empty((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for k in range(dim):
                diff = a[i, k] - b[j, k]
                acc += diff * diff
            d2[i, j] = acc
    return d2


@register_kernel(
    "stitch.match_distances",
    paper_kernel="Correlation (descriptor matching)",
    apps=("stitch", "sift"),
    ref=_match_distances_ref,
    rtol=1e-8,
    atol=1e-9,
    work=_work_match_distances,
)
def match_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances between descriptor rows.

    Vectorized via the expansion ``|x-y|^2 = |x|^2 + |y|^2 - 2 x.y`` —
    a reassociated (and cancellation-prone) form of the reference's
    direct difference accumulation, hence the looser tolerance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )


def match_features(
    first: Sequence[DescribedCorner],
    second: Sequence[DescribedCorner],
    ratio: float = 0.8,
    profiler: Optional[KernelProfiler] = None,
) -> List[Tuple[int, int]]:
    """Ratio-test matches: indices ``(i, j)`` into the two corner lists."""
    profiler = ensure_profiler(profiler)
    if not first or not second:
        return []
    with profiler.kernel("Match"):
        a = np.stack([f.descriptor for f in first])
        b = np.stack([f.descriptor for f in second])
        d2 = match_distances(a, b)
        matches = []
        for i in range(a.shape[0]):
            order = np.argsort(d2[i])
            best = int(order[0])
            if d2.shape[1] >= 2:
                runner = int(order[1])
                if d2[i, best] > ratio * ratio * d2[i, runner]:
                    continue
            matches.append((i, best))
    return matches


def match_points(
    first: Sequence[DescribedCorner],
    second: Sequence[DescribedCorner],
    matches: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Matched coordinates as ``(n, 2)`` arrays of (row, col)."""
    src = np.array(
        [[first[i].corner.row, first[i].corner.col] for i, _ in matches],
        dtype=np.float64,
    ).reshape(-1, 2)
    dst = np.array(
        [[second[j].corner.row, second[j].corner.col] for _, j in matches],
        dtype=np.float64,
    ).reshape(-1, 2)
    return src, dst
