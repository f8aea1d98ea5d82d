"""Haar-like rectangle features evaluated on integral images.

Viola-Jones features are signed sums of axis-aligned rectangles inside a
fixed detection window (here 16x16, matching the synthetic training
patches).  Each feature evaluates in a handful of integral-image lookups
regardless of its area — the property that makes cascaded scanning cheap.

Feature types (as in the original paper):

* ``edge_h`` / ``edge_v`` — two adjacent rectangles, dark/light edge.
* ``line_h`` / ``line_v`` — three rectangles, line against background.
* ``quad`` — four rectangles in a checkerboard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..imgproc.integral import integral_image, rect_sum

WINDOW = 16

#: (row0, col0, row1, col1, weight) rectangles, window-relative.
Rect = Tuple[int, int, int, int, float]

FEATURE_TYPES = ("edge_h", "edge_v", "line_h", "line_v", "quad")


@dataclass(frozen=True)
class HaarFeature:
    """One rectangle feature: a weighted set of window-relative rects."""

    kind: str
    rects: Tuple[Rect, ...]

    def evaluate(self, ii: np.ndarray, row: int = 0, col: int = 0,
                 scale: float = 1.0) -> float:
        """Weighted rectangle sum at window origin ``(row, col)``.

        ``ii`` is an integral image (with its leading zero row/column);
        ``scale`` stretches the window for multi-scale scanning.
        """
        total = 0.0
        for r0, c0, r1, c1, weight in self.rects:
            total += weight * rect_sum(
                ii,
                row + int(round(r0 * scale)),
                col + int(round(c0 * scale)),
                row + int(round(r1 * scale)),
                col + int(round(c1 * scale)),
            )
        return total


def make_feature(kind: str, r: int, c: int, h: int, w: int) -> HaarFeature:
    """Build a feature of ``kind`` with top-left (r, c) and unit size (h, w).

    ``h``/``w`` are the per-cell extents; the full feature spans 2 or 3
    cells depending on the kind.  All coordinates must keep the feature
    inside the canonical window.
    """
    if kind == "edge_h":  # light left, dark right
        rects: Tuple[Rect, ...] = (
            (r, c, r + h, c + w, +1.0),
            (r, c + w, r + h, c + 2 * w, -1.0),
        )
        extent = (r + h, c + 2 * w)
    elif kind == "edge_v":
        rects = (
            (r, c, r + h, c + w, +1.0),
            (r + h, c, r + 2 * h, c + w, -1.0),
        )
        extent = (r + 2 * h, c + w)
    elif kind == "line_h":
        rects = (
            (r, c, r + h, c + w, +1.0),
            (r, c + w, r + h, c + 2 * w, -2.0),
            (r, c + 2 * w, r + h, c + 3 * w, +1.0),
        )
        extent = (r + h, c + 3 * w)
    elif kind == "line_v":
        rects = (
            (r, c, r + h, c + w, +1.0),
            (r + h, c, r + 2 * h, c + w, -2.0),
            (r + 2 * h, c, r + 3 * h, c + w, +1.0),
        )
        extent = (r + 3 * h, c + w)
    elif kind == "quad":
        rects = (
            (r, c, r + h, c + w, +1.0),
            (r, c + w, r + h, c + 2 * w, -1.0),
            (r + h, c, r + 2 * h, c + w, -1.0),
            (r + h, c + w, r + 2 * h, c + 2 * w, +1.0),
        )
        extent = (r + 2 * h, c + 2 * w)
    else:
        raise ValueError(f"unknown feature kind {kind!r}")
    if extent[0] > WINDOW or extent[1] > WINDOW or r < 0 or c < 0:
        raise ValueError(f"feature {kind} at ({r},{c}) size ({h},{w}) "
                         f"exceeds the {WINDOW}x{WINDOW} window")
    return HaarFeature(kind=kind, rects=rects)


def feature_pool(stride: int = 2, min_cell: int = 2,
                 max_cell: int = 8) -> List[HaarFeature]:
    """Enumerate a dense pool of in-window features.

    A stride/size grid keeps the pool in the low thousands (the full
    exhaustive set for 16x16 is ~50k; AdaBoost only needs a rich sample).
    """
    pool: List[HaarFeature] = []
    for kind in FEATURE_TYPES:
        for h in range(min_cell, max_cell + 1, 2):
            for w in range(min_cell, max_cell + 1, 2):
                for r in range(0, WINDOW, stride):
                    for c in range(0, WINDOW, stride):
                        try:
                            pool.append(make_feature(kind, r, c, h, w))
                        except ValueError:
                            continue
    return pool


def evaluate_features_on_patches(
    features: Sequence[HaarFeature], patches: np.ndarray
) -> np.ndarray:
    """Feature matrix ``(n_patches, n_features)`` with variance-normalized
    patch responses.

    Each patch is normalized by its standard deviation (Viola-Jones
    lighting correction) before feature evaluation.  The patches'
    integral images are stacked, so each feature's rectangles are summed
    over all patches at once, in :meth:`HaarFeature.evaluate`'s order.
    """
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 3 or patches.shape[1:] != (WINDOW, WINDOW):
        raise ValueError(
            f"expected (n, {WINDOW}, {WINDOW}) patches, got {patches.shape}"
        )
    n = patches.shape[0]
    ii = np.empty((n, WINDOW + 1, WINDOW + 1))
    for i in range(n):
        patch = patches[i]
        std = patch.std()
        normalized = (patch - patch.mean()) / (std if std > 1e-9 else 1.0)
        ii[i] = integral_image(normalized)
    out = np.empty((n, len(features)))
    for j, feature in enumerate(features):
        total = np.zeros(n)
        for r0, c0, r1, c1, weight in feature.rects:
            if not (0 <= r0 <= r1 <= WINDOW and 0 <= c0 <= c1 <= WINDOW):
                raise IndexError(
                    f"rectangle ({r0},{c0})-({r1},{c1}) outside the "
                    f"{WINDOW}x{WINDOW} window"
                )
            total = total + weight * (
                ii[:, r1, c1] - ii[:, r0, c1] - ii[:, r1, c0] + ii[:, r0, c0]
            )
        out[:, j] = total
    return out
