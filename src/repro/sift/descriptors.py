"""SIFT orientation assignment and 128-D descriptor computation.

Orientation: a 36-bin histogram of gradient angles around the keypoint,
Gaussian-weighted by distance; the dominant bin (parabola-refined) becomes
the keypoint orientation, and secondary peaks above 80% spawn duplicate
keypoints (as in Lowe's paper).

Descriptor: gradients in a 16x16 window, rotated into the keypoint frame,
binned into a 4x4 spatial grid of 8-bin orientation histograms, then
normalized / clipped at 0.2 / renormalized.  Keypoints are independent,
so one kernel call describes all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate
from ..core.profiler import KernelProfiler, ensure_profiler
from ..imgproc.gradient import gradient
from .keypoints import Keypoint

ArrayLike = Union[float, Sequence[float], np.ndarray]

N_ORIENTATION_BINS = 36
DESCRIPTOR_GRID = 4
DESCRIPTOR_BINS = 8
DESCRIPTOR_CLIP = 0.2
DESCRIPTOR_LENGTH = DESCRIPTOR_GRID * DESCRIPTOR_GRID * DESCRIPTOR_BINS
#: Keypoints per vectorized step of the descriptor kernel; temporaries
#: stay O(block) however many keypoints one call describes.
DESCRIPTOR_BLOCK = 64


def _work_descriptor_at(
    magnitude: np.ndarray,
    angle: np.ndarray,
    row: ArrayLike,
    col: ArrayLike,
    orientation: ArrayLike,
    scale: ArrayLike = 1.0,
) -> WorkEstimate:
    """Fixed-size window per keypoint: ~20 flops per 16x16 sample
    (rotate, Gaussian weight, binning) plus the normalize/clip/renormalize
    tail over the 128 histogram bins; traffic is two field reads per
    sample plus the histogram passes."""
    keypoints = float(np.broadcast(row, col, orientation, scale).size)
    samples = float((4 * DESCRIPTOR_GRID) ** 2)  # 16x16 window
    bins = float(DESCRIPTOR_LENGTH)
    return WorkEstimate(
        flops=keypoints * (20.0 * samples + 6.0 * bins),
        traffic_bytes=keypoints * FLOAT_BYTES * (3.0 * samples + 3.0 * bins),
    )


@dataclass(frozen=True)
class SiftFeature:
    """A keypoint plus its 128-D descriptor."""

    keypoint: Keypoint
    descriptor: np.ndarray  # (128,), L2-normalized


def orientation_histogram(
    magnitude: np.ndarray,
    angle: np.ndarray,
    row: int,
    col: int,
    radius: int,
    sigma: float,
) -> np.ndarray:
    """Gaussian-weighted 36-bin angle histogram around ``(row, col)``."""
    rows, cols = magnitude.shape
    hist = np.zeros(N_ORIENTATION_BINS)
    r0, r1 = max(0, row - radius), min(rows, row + radius + 1)
    c0, c1 = max(0, col - radius), min(cols, col + radius + 1)
    yy, xx = np.mgrid[r0:r1, c0:c1]
    weight = np.exp(
        -((yy - row) ** 2 + (xx - col) ** 2) / (2.0 * sigma * sigma)
    )
    mags = magnitude[r0:r1, c0:c1] * weight
    angles = angle[r0:r1, c0:c1]
    bins = np.floor(
        (angles + math.pi) / (2 * math.pi) * N_ORIENTATION_BINS
    ).astype(int) % N_ORIENTATION_BINS
    np.add.at(hist, bins.ravel(), mags.ravel())
    # Circular smoothing (Lowe smooths the histogram before peak picking).
    smoothed = hist.copy()
    for _ in range(2):
        smoothed = (
            np.roll(smoothed, 1) + smoothed + np.roll(smoothed, -1)
        ) / 3.0
    return smoothed


def dominant_orientations(hist: np.ndarray,
                          peak_ratio: float = 0.8) -> List[float]:
    """Angles (radians) of histogram peaks above ``peak_ratio * max``.

    Peak positions are refined by fitting a parabola through the bin and
    its neighbours.
    """
    n = hist.size
    peak = float(hist.max())
    if peak <= 0.0:
        return []
    angles = []
    for i in range(n):
        left, right = hist[(i - 1) % n], hist[(i + 1) % n]
        if hist[i] >= peak_ratio * peak and hist[i] > left and hist[i] > right:
            denom = left - 2.0 * hist[i] + right
            shift = 0.0 if denom == 0 else 0.5 * (left - right) / denom
            bin_center = (i + shift + 0.5) / n
            angles.append(bin_center * 2.0 * math.pi - math.pi)
    return angles


def _keypoint_arrays(
    row: ArrayLike, col: ArrayLike, orientation: ArrayLike, scale: ArrayLike,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """Broadcast the keypoint arguments to equal-length 1-D arrays.

    Returns the four arrays and whether every argument was a scalar.
    """
    args = [np.asarray(a, dtype=np.float64)
            for a in (row, col, orientation, scale)]
    if any(a.ndim > 1 for a in args):
        raise ValueError("keypoint arguments must be scalars or 1-D arrays")
    scalar = all(a.ndim == 0 for a in args)
    row, col, orientation, scale = (
        np.atleast_1d(a) for a in np.broadcast_arrays(*args)
    )
    return row, col, orientation, scale, scalar


def _descriptor_one_ref(
    magnitude: np.ndarray,
    angle: np.ndarray,
    row: float,
    col: float,
    orientation: float,
    scale: float,
) -> np.ndarray:
    """One keypoint's descriptor, one scalar sample at a time."""
    rows, cols = magnitude.shape
    half = DESCRIPTOR_GRID * 2
    span = max(1.0, scale)
    cos_o, sin_o = math.cos(orientation), math.sin(orientation)
    two_pi = 2.0 * math.pi
    sigma_sq2 = 2.0 * (half * 0.6) ** 2
    hist = np.zeros(DESCRIPTOR_LENGTH)
    for sy in range(-half, half):
        for sx in range(-half, half):
            oy = (sy + 0.5) * span
            ox = (sx + 0.5) * span
            ry = int(np.rint(row + cos_o * oy - sin_o * ox))
            rx = int(np.rint(col + sin_o * oy + cos_o * ox))
            if not (0 <= ry < rows and 0 <= rx < cols):
                continue
            weight = math.exp(-(sy * sy + sx * sx) / sigma_sq2)
            mag = magnitude[ry, rx] * weight
            theta = (angle[ry, rx] - orientation) % two_pi
            cell_y = ((sy + half) * DESCRIPTOR_GRID) // (2 * half)
            cell_x = ((sx + half) * DESCRIPTOR_GRID) // (2 * half)
            bin_index = min(int(theta / two_pi * DESCRIPTOR_BINS),
                            DESCRIPTOR_BINS - 1)
            flat = (cell_y * DESCRIPTOR_GRID + cell_x) * DESCRIPTOR_BINS \
                + bin_index
            hist[flat] += mag
    desc = hist
    norm = math.sqrt(float(sum(v * v for v in desc)))
    if norm > 0:
        desc = desc / norm
        desc = np.minimum(desc, DESCRIPTOR_CLIP)
        norm = math.sqrt(float(sum(v * v for v in desc)))
        if norm > 0:
            desc = desc / norm
    return desc


def _descriptor_at_ref(
    magnitude: np.ndarray,
    angle: np.ndarray,
    row: ArrayLike,
    col: ArrayLike,
    orientation: ArrayLike,
    scale: ArrayLike = 1.0,
) -> np.ndarray:
    """Loop-faithful descriptor: per keypoint, one scalar rotate/bin/
    accumulate per sample of the 16x16 window, then the normalize/clip/
    renormalize tail.

    Sample order matches the vectorized path's row-major ``np.add.at``
    accumulation, so histogram bins agree to round-off.
    """
    row, col, orientation, scale, scalar = _keypoint_arrays(
        row, col, orientation, scale)
    out = np.empty((row.size, DESCRIPTOR_LENGTH))
    for k in range(row.size):
        out[k] = _descriptor_one_ref(
            magnitude, angle, float(row[k]), float(col[k]),
            float(orientation[k]), float(scale[k]),
        )
    return out[0] if scalar else out


def _descriptor_block(
    magnitude: np.ndarray,
    angle: np.ndarray,
    row: np.ndarray,
    col: np.ndarray,
    orientation: np.ndarray,
    scale: np.ndarray,
) -> np.ndarray:
    """Descriptors of one block of keypoints, shape ``(n, 128)``."""
    rows, cols = magnitude.shape
    n = row.size
    half = DESCRIPTOR_GRID * 2  # 8 samples per side half-window
    # math.cos/sin per keypoint: numpy's may differ in the last bit.
    cos_o = np.array([math.cos(o) for o in orientation])[:, None, None]
    sin_o = np.array([math.sin(o) for o in orientation])[:, None, None]
    # One (n, 1, 1) column per keypoint against the (16, 16) window.
    row, col, orientation, span = (
        a[:, None, None]
        for a in (row, col, orientation, np.maximum(1.0, scale))
    )
    # Vectorized sampling grid: rotate all 16x16 offsets of every
    # keypoint at once.
    sy, sx = np.mgrid[-half:half, -half:half].astype(np.float64)
    oy = (sy + 0.5) * span
    ox = (sx + 0.5) * span
    ry = np.rint(row + cos_o * oy - sin_o * ox).astype(np.int64)
    rx = np.rint(col + sin_o * oy + cos_o * ox).astype(np.int64)
    inside = (ry >= 0) & (ry < rows) & (rx >= 0) & (rx < cols)
    ry_safe = np.clip(ry, 0, rows - 1)
    rx_safe = np.clip(rx, 0, cols - 1)
    weight = np.exp(-(sy * sy + sx * sx) / (2.0 * (half * 0.6) ** 2))
    mags = magnitude[ry_safe, rx_safe] * weight * inside
    theta = np.mod(angle[ry_safe, rx_safe] - orientation, 2.0 * math.pi)
    cell_y = ((sy + half).astype(np.int64) * DESCRIPTOR_GRID) // (2 * half)
    cell_x = ((sx + half).astype(np.int64) * DESCRIPTOR_GRID) // (2 * half)
    bin_index = np.minimum(
        (theta / (2.0 * math.pi) * DESCRIPTOR_BINS).astype(np.int64),
        DESCRIPTOR_BINS - 1,
    )
    flat_index = (
        (cell_y * DESCRIPTOR_GRID + cell_x) * DESCRIPTOR_BINS + bin_index
        + (np.arange(n) * DESCRIPTOR_LENGTH)[:, None, None]
    )
    # Each keypoint owns 128 bins; np.add.at adds its samples to them in
    # row-major order, as a one-keypoint histogram does.
    hist = np.zeros(n * DESCRIPTOR_LENGTH)
    np.add.at(hist, flat_index.ravel(), mags.ravel())
    hist = hist.reshape(n, DESCRIPTOR_LENGTH)
    # Per row: a batched norm would sum the squares in another order.
    for desc in hist:
        norm = float(np.linalg.norm(desc))
        if norm > 0:
            desc /= norm
            np.minimum(desc, DESCRIPTOR_CLIP, out=desc)
            norm = float(np.linalg.norm(desc))
            if norm > 0:
                desc /= norm
    return hist


@register_kernel(
    "sift.descriptor",
    paper_kernel="SIFT (descriptor histogram)",
    apps=("sift", "stitch"),
    ref=_descriptor_at_ref,
    rtol=1e-9,
    atol=1e-9,
    work=_work_descriptor_at,
)
def descriptor_at(
    magnitude: np.ndarray,
    angle: np.ndarray,
    row: ArrayLike,
    col: ArrayLike,
    orientation: ArrayLike,
    scale: ArrayLike = 1.0,
) -> np.ndarray:
    """Compute 4x4x8 descriptors at (level-local) positions.

    ``row``, ``col``, ``orientation`` and ``scale`` are scalars, giving
    one ``(128,)`` descriptor, or equal-length 1-D arrays of ``K``
    keypoints, giving ``(K, 128)``.  ``scale`` stretches the 16x16
    sampling window with the keypoint size.  Keypoints are described in
    blocks of ``DESCRIPTOR_BLOCK``; each row equals the descriptor of that
    keypoint alone.
    """
    row, col, orientation, scale, scalar = _keypoint_arrays(
        row, col, orientation, scale)
    out = np.empty((row.size, DESCRIPTOR_LENGTH))
    for start in range(0, row.size, DESCRIPTOR_BLOCK):
        block = slice(start, start + DESCRIPTOR_BLOCK)
        out[block] = _descriptor_block(
            magnitude, angle, row[block], col[block], orientation[block],
            scale[block],
        )
    return out[0] if scalar else out


def describe_keypoints(
    image: np.ndarray,
    keypoints: Sequence[Keypoint],
    profiler: Optional[KernelProfiler] = None,
) -> List[SiftFeature]:
    """Assign orientations and descriptors to detected keypoints.

    Gradients are computed once on the full-resolution image; keypoints
    carrying multiple dominant orientations are duplicated per
    orientation, exactly as Lowe specifies.
    """
    profiler = ensure_profiler(profiler)
    with profiler.kernel("SIFT"):
        gx, gy = gradient(np.asarray(image, dtype=np.float64))
        magnitude = np.hypot(gx, gy)
        angle = np.arctan2(gy, gx)
        rows, cols = magnitude.shape
        oriented: List[Keypoint] = []
        scales: List[float] = []
        for kp in keypoints:
            row, col = int(round(kp.row)), int(round(kp.col))
            if not (0 <= row < rows and 0 <= col < cols):
                continue
            radius = max(3, int(round(3.0 * kp.sigma)))
            hist = orientation_histogram(
                magnitude, angle, row, col, radius, 1.5 * max(kp.sigma, 0.8)
            )
            for theta in dominant_orientations(hist) or [0.0]:
                oriented.append(replace(kp, orientation=theta))
                scales.append(max(0.5, kp.sigma / 2.0))
        # One dispatch describes every (keypoint, orientation) pair.
        descriptors = descriptor_at(
            magnitude, angle, [kp.row for kp in oriented],
            [kp.col for kp in oriented], [kp.orientation for kp in oriented],
            scales,
        )
        features = [SiftFeature(keypoint=kp, descriptor=desc)
                    for kp, desc in zip(oriented, descriptors)]
    return features
