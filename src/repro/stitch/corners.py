"""Harris corners with adaptive non-maximal suppression (ANMS).

The stitch benchmark's feature-extraction phase: gradient filtering at
pixel granularity ("Convolution" kernel), a Harris corner response, and
the coarse-grained ANMS selection the paper calls out as the point where
"the regularity in access patterns breaks".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from ..imgproc.filters import gaussian_blur
from ..imgproc.gradient import gradient


@dataclass(frozen=True)
class Corner:
    """A corner location with its Harris response."""

    row: int
    col: int
    response: float


def harris_response(
    image: np.ndarray,
    sigma: float = 1.5,
    kappa: float = 0.05,
    profiler: Optional[KernelProfiler] = None,
) -> np.ndarray:
    """Harris corner strength ``det(M) - kappa * trace(M)^2`` per pixel.

    The structure tensor ``M`` is gradient outer products smoothed by a
    Gaussian — all separable filtering, attributed to ``Convolution``.
    """
    profiler = ensure_profiler(profiler)
    image = np.asarray(image, dtype=np.float64)
    with profiler.kernel("Convolution"):
        smooth = gaussian_blur(image, 1.0)
        gx, gy = gradient(smooth)
        sxx = gaussian_blur(gx * gx, sigma)
        sxy = gaussian_blur(gx * gy, sigma)
        syy = gaussian_blur(gy * gy, sigma)
        det = sxx * syy - sxy * sxy
        trace = sxx + syy
        return det - kappa * trace * trace


def local_maxima(response: np.ndarray, border: int = 8,
                 threshold_ratio: float = 0.01) -> List[Corner]:
    """Strict 3x3 local maxima above ``threshold_ratio * max`` response."""
    rows, cols = response.shape
    if rows < 3 or cols < 3:
        return []
    center = response[1:-1, 1:-1]
    is_peak = np.ones(center.shape, dtype=bool)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            if dy == 1 and dx == 1:
                continue
            is_peak &= center > response[dy : rows - 2 + dy, dx : cols - 2 + dx]
    peak_value = float(response.max())
    if peak_value <= 0:
        return []
    is_peak &= center > threshold_ratio * peak_value
    corners = []
    for r, c in zip(*np.nonzero(is_peak)):
        row, col = int(r) + 1, int(c) + 1
        if border <= row < rows - border and border <= col < cols - border:
            corners.append(Corner(row=row, col=col,
                                  response=float(response[row, col])))
    return corners


#: Candidates per row block of :func:`suppression_radii`: a block's
#: ``(ANMS_BLOCK, n)`` distance matrix stays small at CIF (n ~ 1,000).
ANMS_BLOCK = 256


def suppression_radii(pts: np.ndarray, resp: np.ndarray,
                      robustness: float = 0.9) -> np.ndarray:
    """Squared distance from each candidate to its nearest sufficiently
    stronger one (``resp > resp[i] / robustness``), or ``inf`` when none
    is.

    Candidates are taken strongest first in row blocks of at most
    ``ANMS_BLOCK``; the candidates stronger than any row of a block are
    a prefix of that order, so each block's masked min spans only that
    prefix.  The min is exact, so the radii equal a per-candidate loop's.
    """
    n = len(resp)
    radii = np.empty(n)
    order = np.argsort(-resp, kind="stable")
    ranked_rows, ranked_cols = pts[order, 0], pts[order, 1]
    ranked = resp[order]
    thresholds = ranked / robustness
    for start in range(0, n, ANMS_BLOCK):
        block = np.arange(start, min(start + ANMS_BLOCK, n))
        limit = thresholds[block]
        prefix = int(np.count_nonzero(ranked > np.fmin.reduce(limit)))
        stronger = ranked[None, :prefix] > limit[:, None]
        own = block < prefix
        stronger[np.nonzero(own)[0], block[own]] = False
        d2 = ranked_rows[None, :prefix] - ranked_rows[block, None]
        dc = ranked_cols[None, :prefix] - ranked_cols[block, None]
        d2 *= d2
        dc *= dc
        d2 += dc
        radii[order[block]] = np.min(d2, axis=1, where=stronger,
                                     initial=np.inf)
    return radii


def anms(corners: List[Corner], n_keep: int = 64,
         robustness: float = 0.9,
         profiler: Optional[KernelProfiler] = None) -> List[Corner]:
    """Adaptive non-maximal suppression (Brown et al.).

    Each corner's suppression radius is its distance to the nearest
    corner that is sufficiently (``1/robustness`` times) stronger; the
    ``n_keep`` corners with the largest radii are kept, giving a
    spatially even spread of strong features.
    """
    profiler = ensure_profiler(profiler)
    if n_keep < 1:
        raise ValueError("n_keep must be positive")
    if not corners:
        return []
    with profiler.kernel("ANMS"):
        pts = np.array([[c.row, c.col] for c in corners], dtype=np.float64)
        resp = np.array([c.response for c in corners])
        radii = suppression_radii(pts, resp, robustness)
        order = np.argsort(radii)[::-1][:n_keep]
    return [corners[int(i)] for i in order]


def detect_corners(
    image: np.ndarray,
    n_keep: int = 64,
    profiler: Optional[KernelProfiler] = None,
) -> List[Corner]:
    """Full corner pipeline: Harris response -> peaks -> ANMS."""
    profiler = ensure_profiler(profiler)
    response = harris_response(image, profiler=profiler)
    candidates = local_maxima(response)
    return anms(candidates, n_keep=n_keep, profiler=profiler)
