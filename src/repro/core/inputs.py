"""Deterministic synthetic inputs for every SD-VBS application.

The original suite ships 65 test vectors: five input variants at each of
three sizes (SQCIF/QCIF/CIF) per benchmark.  Those images are not
redistributable here, so this module generates seeded synthetic scenes with
the same sizes and variant counts.  Each generator produces inputs with
*known ground truth* (true disparity, true motion, true homography, true
robot path, true class labels), which both exercises the same code paths
and lets the test suite check algorithmic correctness — something the
original bitmap inputs could not do.

All images are ``float64`` arrays in ``[0, 1]`` with shape ``(rows, cols)``.
Generation is purely a function of ``(size, variant)`` plus a per-purpose
salt, so repeated calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .types import VARIANTS_PER_SIZE, InputSize


def rng_for(size: InputSize, variant: int, salt: str) -> np.random.Generator:
    """Deterministic generator keyed by size, variant index and purpose."""
    if not 0 <= variant < VARIANTS_PER_SIZE:
        raise ValueError(
            f"variant must be in [0, {VARIANTS_PER_SIZE}), got {variant}"
        )
    seed = abs(hash((size.name, variant, salt))) % (2**32)
    # ``hash`` of strings is salted per-process; build a stable seed instead.
    stable = 0
    for ch in f"{size.name}:{variant}:{salt}":
        stable = (stable * 131 + ord(ch)) % (2**31 - 1)
    del seed
    return np.random.default_rng(stable)


def _smooth(rng: np.random.Generator, shape: Tuple[int, int], octaves: int = 4) -> np.ndarray:
    """Multi-octave value noise: smooth, natural-looking luminance field."""
    rows, cols = shape
    out = np.zeros(shape, dtype=np.float64)
    amplitude = 1.0
    for octave in range(octaves):
        grid_r = max(2, rows >> (octaves - octave))
        grid_c = max(2, cols >> (octaves - octave))
        coarse = rng.random((grid_r, grid_c))
        # Bilinear upsample of the coarse grid to full resolution.
        rr = np.linspace(0, grid_r - 1, rows)
        cc = np.linspace(0, grid_c - 1, cols)
        r0 = np.floor(rr).astype(int)
        c0 = np.floor(cc).astype(int)
        r1 = np.minimum(r0 + 1, grid_r - 1)
        c1 = np.minimum(c0 + 1, grid_c - 1)
        fr = (rr - r0)[:, None]
        fc = (cc - c0)[None, :]
        layer = (
            coarse[np.ix_(r0, c0)] * (1 - fr) * (1 - fc)
            + coarse[np.ix_(r1, c0)] * fr * (1 - fc)
            + coarse[np.ix_(r0, c1)] * (1 - fr) * fc
            + coarse[np.ix_(r1, c1)] * fr * fc
        )
        out += amplitude * layer
        amplitude *= 0.5
    out -= out.min()
    peak = out.max()
    if peak > 0:
        out /= peak
    return out


def _checker(shape: Tuple[int, int], period: int, phase: Tuple[int, int]) -> np.ndarray:
    rows, cols = shape
    r = (np.arange(rows)[:, None] + phase[0]) // period
    c = (np.arange(cols)[None, :] + phase[1]) // period
    return ((r + c) % 2).astype(np.float64)


def image(size: InputSize, variant: int = 0, salt: str = "image") -> np.ndarray:
    """A textured grayscale scene with corners, edges, and smooth regions.

    The blend of value noise, checker texture, and bright blobs gives every
    feature detector in the suite (Harris, SIFT DoG, KLT) something real to
    find, at every size.
    """
    rng = rng_for(size, variant, salt)
    shape = size.shape
    base = _smooth(rng, shape)
    texture = _checker(shape, period=6 + variant, phase=(variant, 2 * variant))
    img = 0.6 * base + 0.25 * texture
    # Sprinkle high-contrast blobs (trackable features).
    rows, cols = shape
    for _ in range(12 + 2 * variant):
        cy = int(rng.integers(4, rows - 4))
        cx = int(rng.integers(4, cols - 4))
        radius = int(rng.integers(2, 5))
        yy, xx = np.ogrid[-radius : radius + 1, -radius : radius + 1]
        disk = (yy * yy + xx * xx) <= radius * radius
        patch = img[cy - radius : cy + radius + 1, cx - radius : cx + radius + 1]
        patch[disk] = float(rng.random())
    img += 0.02 * rng.standard_normal(shape)
    return np.clip(img, 0.0, 1.0)


# ----------------------------------------------------------------------
# Disparity


@dataclass(frozen=True)
class StereoPair:
    """A rectified stereo pair with piecewise-constant ground truth."""

    left: np.ndarray
    right: np.ndarray
    true_disparity: np.ndarray
    max_disparity: int


def stereo_pair(size: InputSize, variant: int = 0, max_disparity: int = 12) -> StereoPair:
    """Left/right views of a layered scene.

    The scene is split into horizontal depth bands; the right image is the
    left image shifted *left* by the band's disparity (standard rectified
    geometry), so a dense SSD matcher should recover the band structure.
    """
    rng = rng_for(size, variant, "stereo")
    rows, cols = size.shape
    left = image(size, variant, salt="stereo-left")
    bands = int(rng.integers(3, 6))
    edges = np.linspace(0, rows, bands + 1).astype(int)
    true_disp = np.zeros((rows, cols), dtype=np.int64)
    levels = rng.permutation(np.linspace(1, max_disparity - 1, bands).astype(int))
    for band in range(bands):
        true_disp[edges[band] : edges[band + 1], :] = levels[band]
    right = np.empty_like(left)
    for r in range(rows):
        d = int(true_disp[r, 0])
        shifted = np.roll(left[r], -d)
        if d > 0:
            shifted[-d:] = shifted[-d - 1]  # replicate border
        right[r] = shifted
    right = np.clip(right + 0.01 * rng.standard_normal(right.shape), 0.0, 1.0)
    return StereoPair(left=left, right=right, true_disparity=true_disp,
                      max_disparity=max_disparity)


# ----------------------------------------------------------------------
# Feature tracking


@dataclass(frozen=True)
class ImageSequence:
    """Frames of a translating scene plus the true apparent motion.

    ``true_motion`` is the (dy, dx) displacement of scene content between
    consecutive frames as seen in image coordinates: a feature at (r, c)
    in frame ``t`` sits at ``(r + dy, c + dx)`` in frame ``t + 1``.
    """

    frames: List[np.ndarray]
    true_motion: Tuple[float, float]


def sequence(size: InputSize, variant: int = 0, n_frames: int = 4) -> ImageSequence:
    """A scene translating by a constant sub-pixel-free offset per frame."""
    rng = rng_for(size, variant, "sequence")
    # Render a larger canvas and crop a sliding window, so frame content
    # really moves instead of wrapping.
    rows, cols = size.shape
    canvas_shape = (rows + 8 * n_frames, cols + 8 * n_frames)
    canvas = _smooth(rng, canvas_shape) * 0.7
    canvas += 0.3 * _checker(canvas_shape, period=7, phase=(variant, variant))
    for _ in range(20):
        cy = int(rng.integers(4, canvas_shape[0] - 4))
        cx = int(rng.integers(4, canvas_shape[1] - 4))
        canvas[cy - 2 : cy + 3, cx - 2 : cx + 3] = float(rng.random())
    dy = int(rng.integers(1, 4))
    dx = int(rng.integers(1, 4))
    frames = []
    for f in range(n_frames):
        oy, ox = f * dy, f * dx
        frames.append(canvas[oy : oy + rows, ox : ox + cols].copy())
    # The crop window advances by (+dy, +dx), so scene content moves by
    # (-dy, -dx) in image coordinates.
    return ImageSequence(frames=frames, true_motion=(-float(dy), -float(dx)))


# ----------------------------------------------------------------------
# Segmentation


def segmentation_image(size: InputSize, variant: int = 0,
                       n_regions: int = 4) -> Tuple[np.ndarray, np.ndarray]:
    """A piecewise-smooth image of ``n_regions`` intensity regions.

    Returns ``(image, true_labels)`` where labels are Voronoi cells of
    random sites — contiguous regions with distinct mean intensities, the
    structure normalized cuts should recover.
    """
    rng = rng_for(size, variant, f"segments-{n_regions}")
    rows, cols = size.shape
    sites = np.stack(
        [rng.uniform(0, rows, n_regions), rng.uniform(0, cols, n_regions)], axis=1
    )
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    dists = (
        (rr[..., None] - sites[:, 0]) ** 2 + (cc[..., None] - sites[:, 1]) ** 2
    )
    labels = np.argmin(dists, axis=2)
    means = np.linspace(0.1, 0.9, n_regions)
    rng.shuffle(means)
    img = means[labels] + 0.03 * rng.standard_normal((rows, cols))
    return np.clip(img, 0.0, 1.0), labels


# ----------------------------------------------------------------------
# Stitch


@dataclass(frozen=True)
class OverlappingPair:
    """Two views of one scene related by a known integer translation."""

    first: np.ndarray
    second: np.ndarray
    true_offset: Tuple[int, int]  # (dy, dx): second = scene shifted by this


def overlapping_pair(size: InputSize, variant: int = 0) -> OverlappingPair:
    """Two crops of a wide canvas with ~60% overlap (stitch workload)."""
    rng = rng_for(size, variant, "stitch")
    rows, cols = size.shape
    dy = int(rng.integers(2, max(3, rows // 8)))
    dx = int(rng.integers(cols // 5, cols // 3))
    canvas_shape = (rows + dy, cols + dx)
    canvas = _smooth(rng, canvas_shape) * 0.65
    canvas += 0.2 * _checker(canvas_shape, period=9, phase=(variant, 1 + variant))
    for _ in range(30):
        cy = int(rng.integers(4, canvas_shape[0] - 4))
        cx = int(rng.integers(4, canvas_shape[1] - 4))
        canvas[cy - 2 : cy + 3, cx - 2 : cx + 3] = float(rng.random())
    first = canvas[:rows, :cols].copy()
    second = canvas[dy:, dx:][:rows, :cols].copy()
    return OverlappingPair(first=first, second=second, true_offset=(dy, dx))


# ----------------------------------------------------------------------
# Face detection


FACE_PATCH = 16  # side of the canonical training window


def _render_face(rng: np.random.Generator, jitter: float = 1.0) -> np.ndarray:
    """A synthetic face-like 16x16 patch: dark eyes/mouth on a light oval.

    Viola-Jones features key on exactly these contrast relationships
    (eye band darker than cheeks, etc.), so a detector trained on these
    patches exercises the full Haar/AdaBoost/cascade pipeline.
    """
    patch = 0.65 + 0.1 * rng.standard_normal((FACE_PATCH, FACE_PATCH)) * jitter
    yy, xx = np.ogrid[:FACE_PATCH, :FACE_PATCH]
    cy, cx = FACE_PATCH / 2 - 0.5, FACE_PATCH / 2 - 0.5
    oval = ((yy - cy) / (FACE_PATCH * 0.48)) ** 2 + (
        (xx - cx) / (FACE_PATCH * 0.40)
    ) ** 2
    patch[oval > 1.0] *= 0.55
    ey = int(FACE_PATCH * 0.34 + rng.normal(0, 0.3 * jitter))
    for ex in (int(FACE_PATCH * 0.30), int(FACE_PATCH * 0.68)):
        patch[max(0, ey - 1) : ey + 2, ex - 1 : ex + 2] = 0.12 + 0.05 * rng.random()
    my = int(FACE_PATCH * 0.72 + rng.normal(0, 0.3 * jitter))
    patch[my : my + 2, int(FACE_PATCH * 0.33) : int(FACE_PATCH * 0.67)] = (
        0.18 + 0.05 * rng.random()
    )
    return np.clip(patch, 0.0, 1.0)


def face_training_set(variant: int = 0, n_pos: int = 120,
                      n_neg: int = 360) -> Tuple[np.ndarray, np.ndarray]:
    """Labeled 16x16 patches: ``(patches[n, 16, 16], labels[n] in {0,1})``.

    Negatives mix white noise, smooth fields, checker texture, and crops
    from scene-background renders (the same distribution
    :func:`face_scene` composes its clutter from), so the cascade learns
    to reject what it will actually scan over.
    """
    rng = rng_for(InputSize.SQCIF, variant, "face-train")
    patches = []
    labels = []
    for _ in range(n_pos):
        patches.append(_augmented_face(rng))
        labels.append(1)
    background = _smooth(rng, (96, 128), octaves=3) * 0.5 + 0.2
    for _ in range(n_neg):
        kind = rng.integers(0, 4)
        if kind == 0:
            neg = rng.random((FACE_PATCH, FACE_PATCH))
        elif kind == 1:
            neg = _smooth(rng, (FACE_PATCH, FACE_PATCH), octaves=2)
        elif kind == 2:
            neg = _checker((FACE_PATCH, FACE_PATCH), period=int(rng.integers(2, 6)),
                           phase=(int(rng.integers(0, 4)), int(rng.integers(0, 4))))
            neg = 0.3 + 0.5 * neg
        else:
            r0 = int(rng.integers(0, background.shape[0] - FACE_PATCH))
            c0 = int(rng.integers(0, background.shape[1] - FACE_PATCH))
            neg = background[r0 : r0 + FACE_PATCH, c0 : c0 + FACE_PATCH]
        patches.append(np.clip(neg, 0.0, 1.0))
        labels.append(0)
    return np.stack(patches), np.array(labels, dtype=np.int64)


def _augmented_face(rng: np.random.Generator) -> np.ndarray:
    """A rendered face with the scan-time distortions baked in.

    The sliding-window detector sees faces at quantized scales and
    half-stride offsets; training positives therefore include random
    sub-window shifts (+-1 px) and scale jitter so every cascade stage
    stays permissive to them.
    """
    face = _render_face(rng)
    side = int(rng.integers(FACE_PATCH, FACE_PATCH + 7))
    canvas_side = side + 4
    canvas = 0.45 + 0.1 * rng.standard_normal((canvas_side, canvas_side))
    idx = np.minimum(np.arange(side) * FACE_PATCH // side, FACE_PATCH - 1)
    canvas[2 : 2 + side, 2 : 2 + side] = face[np.ix_(idx, idx)]
    oy = 2 + int(rng.integers(-1, 2))
    ox = 2 + int(rng.integers(-1, 2))
    crop = canvas[oy : oy + side, ox : ox + side]
    # Bilinear shrink back to the canonical window (mirrors scan scaling).
    rr = np.linspace(0, side - 1, FACE_PATCH)
    r0 = np.floor(rr).astype(int)
    r1 = np.minimum(r0 + 1, side - 1)
    fr = rr - r0
    rows = crop[r0] * (1 - fr)[:, None] + crop[r1] * fr[:, None]
    cols = rows[:, r0] * (1 - fr)[None, :] + rows[:, r1] * fr[None, :]
    return np.clip(cols, 0.0, 1.0)


@dataclass(frozen=True)
class FaceScene:
    """An image containing synthetic faces at known windows."""

    image: np.ndarray
    true_boxes: List[Tuple[int, int, int]]  # (row, col, side) per face


def face_scene(size: InputSize, variant: int = 0, n_faces: int = 3) -> FaceScene:
    """A cluttered scene with ``n_faces`` rendered faces at random scales."""
    rng = rng_for(size, variant, "face-scene")
    rows, cols = size.shape
    img = _smooth(rng, (rows, cols), octaves=3) * 0.5 + 0.2
    boxes: List[Tuple[int, int, int]] = []
    for _ in range(n_faces):
        scale = float(rng.uniform(1.0, 1.8))
        side = int(round(FACE_PATCH * scale))
        for _attempt in range(20):
            r0 = int(rng.integers(0, rows - side))
            c0 = int(rng.integers(0, cols - side))
            if all(
                abs(r0 - br) > side or abs(c0 - bc) > side for br, bc, _ in boxes
            ):
                break
        face = _render_face(rng, jitter=0.5)
        # Nearest-neighbour upscale of the canonical face to ``side``.
        idx = np.minimum(
            (np.arange(side) * FACE_PATCH // side), FACE_PATCH - 1
        )
        img[r0 : r0 + side, c0 : c0 + side] = face[np.ix_(idx, idx)]
        boxes.append((r0, c0, side))
    return FaceScene(image=np.clip(img, 0.0, 1.0), true_boxes=boxes)


# ----------------------------------------------------------------------
# Robot localization


@dataclass(frozen=True)
class RobotWorld:
    """An occupancy grid plus a driven trajectory with sensor readings.

    ``grid`` is 1 where occupied.  ``controls`` are (d_theta, distance)
    odometry commands; ``measurements[t]`` are noisy ranges along
    ``n_beams`` bearings from the true pose after control ``t``.
    """

    grid: np.ndarray
    resolution: float
    start_pose: Tuple[float, float, float]
    true_poses: List[Tuple[float, float, float]]
    controls: List[Tuple[float, float]]
    measurements: List[np.ndarray]
    n_beams: int
    max_range: float


def _raycast(grid: np.ndarray, x: float, y: float, theta: float,
             max_range: float, step: float = 0.25) -> float:
    """Distance (in cells) from (x, y) along theta to the first occupied cell."""
    rows, cols = grid.shape
    dist = 0.0
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    while dist < max_range:
        px = x + dist * cos_t
        py = y + dist * sin_t
        if not (0 <= px < cols and 0 <= py < rows):
            return dist
        if grid[int(py), int(px)]:
            return dist
        dist += step
    return max_range


def robot_world(size: InputSize, variant: int = 0, n_steps: int = 24,
                n_beams: int = 8) -> RobotWorld:
    """A walled grid world scaled with ``size`` plus a noisy driven path.

    The grid side scales with the input size's linear dimension so the
    "input size" knob exists, but — matching the paper's observation —
    localization cost is governed by the number of particles and steps,
    not by map size.
    """
    rng = rng_for(size, variant, "robot")
    # The map grows only mildly with input size: the paper observes that
    # localization cost follows the trace and particle count, not the
    # nominal input scale.
    side = max(24, size.height // 8)
    grid = np.zeros((side, side), dtype=np.int8)
    grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = 1
    # An off-centre partial wall breaks the map's rotational symmetry so
    # global localization has a unique solution.
    wall_r = side // 3
    grid[wall_r, 1 : side // 2] = 1
    grid[1 : side // 4, 2 * side // 3] = 1
    for _ in range(side // 3):  # interior obstacles
        r0 = int(rng.integers(2, side - 8))
        c0 = int(rng.integers(2, side - 8))
        h = int(rng.integers(1, 6))
        w = int(rng.integers(1, 6))
        grid[r0 : r0 + h, c0 : c0 + w] = 1
    max_range = float(side)
    # Find a free starting cell near the middle (spiral outward).
    free_r, free_c = np.nonzero(grid == 0)
    centre_dist = (free_r - side / 2.0) ** 2 + (free_c - side / 2.0) ** 2
    start_idx = int(np.argmin(centre_dist))
    x = float(free_c[start_idx]) + 0.5
    y = float(free_r[start_idx]) + 0.5
    theta = float(rng.uniform(-math.pi, math.pi))
    start = (x, y, theta)
    controls: List[Tuple[float, float]] = []
    poses: List[Tuple[float, float, float]] = []
    measurements: List[np.ndarray] = []
    for _ in range(n_steps):
        turn = float(rng.uniform(-0.5, 0.5))
        dist = float(rng.uniform(0.5, 1.5))
        # Keep the robot in free space: re-draw the step if it would collide,
        # and stay put (turning only) when boxed in.
        placed = False
        for _attempt in range(16):
            nt = theta + turn
            nx = x + dist * math.cos(nt)
            ny = y + dist * math.sin(nt)
            if 0 <= nx < side and 0 <= ny < side and not grid[int(ny), int(nx)]:
                placed = True
                break
            turn = float(rng.uniform(-math.pi, math.pi))
            dist *= 0.7
        if not placed:
            nt, nx, ny = theta + turn, x, y
            dist = 0.0
        theta, x, y = nt, nx, ny
        controls.append((turn, dist))
        poses.append((x, y, theta))
        bearings = np.linspace(-math.pi, math.pi, n_beams, endpoint=False)
        ranges = np.array(
            [_raycast(grid, x, y, theta + b, max_range) for b in bearings]
        )
        ranges += rng.normal(0.0, 0.15, size=n_beams)
        measurements.append(np.clip(ranges, 0.0, max_range))
    return RobotWorld(
        grid=grid,
        resolution=1.0,
        start_pose=start,
        true_poses=poses,
        controls=controls,
        measurements=measurements,
        n_beams=n_beams,
        max_range=max_range,
    )


# ----------------------------------------------------------------------
# SVM


@dataclass(frozen=True)
class SvmDataset:
    """A two-class training/test split with labels in {-1, +1}."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def svm_dataset(size: InputSize, variant: int = 0, dim: int = 16,
                margin: float = 1.2) -> SvmDataset:
    """Two Gaussian classes separated along a random direction.

    The number of training points scales with the input size (the paper's
    SVM working set "500x64" scales similarly), keeping the benchmark's
    size knob meaningful.
    """
    rng = rng_for(size, variant, "svm")
    n_train = 40 * size.relative + 40
    n_test = 60
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)

    def sample(n: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        points = rng.standard_normal((n, dim)) + np.outer(labels * margin, direction)
        return points, labels

    train_x, train_y = sample(n_train)
    test_x, test_y = sample(n_test)
    return SvmDataset(train_x=train_x, train_y=train_y,
                      test_x=test_x, test_y=test_y)


# ----------------------------------------------------------------------
# Texture synthesis


def texture_sample(size: InputSize, variant: int = 0,
                   kind: str = "stochastic") -> np.ndarray:
    """A texture exemplar: ``stochastic`` (noise-like) or ``structural``.

    Matches the paper's split of texture-synthesis test images into
    stochastic and structural classes.
    """
    rng = rng_for(size, variant, f"texture-{kind}")
    rows = cols = max(32, min(size.height, size.width) // 2)
    if kind == "stochastic":
        tex = _smooth(rng, (rows, cols), octaves=5)
    elif kind == "structural":
        period = 6 + variant
        stripes = 0.5 + 0.5 * np.sin(
            2 * math.pi * np.arange(cols)[None, :] / period
        )
        tex = 0.6 * np.tile(stripes, (rows, 1))
        tex += 0.4 * _checker((rows, cols), period=period, phase=(variant, 0))
        tex += 0.05 * rng.standard_normal((rows, cols))
    else:
        raise ValueError(f"unknown texture kind {kind!r}")
    tex -= tex.min()
    peak = tex.max()
    if peak > 0:
        tex /= peak
    return tex
