"""Batched KLT and SIFT descriptors against the per-item loops they replaced.

``reference_track_feature_level`` and ``reference_track_features`` are the
original KLT tracker: one Newton loop per feature per pyramid level, with
the one-matrix closed-form inverse.  ``reference_descriptor`` and
``reference_descriptor_loop`` are the original fast and ref
``descriptor_at`` bodies, one keypoint per call.  The rewrite solves every
feature of a level at once and describes keypoints in blocks; it must give
the same bytes on every edge the loops handle: singular patches, borders,
non-convergence, empty and single inputs, off-map keypoints, small scales
and block edges, under both backends.
"""

import math

import numpy as np
import pytest

from repro.core import InputSize, KernelProfiler
from repro.core.backend import use_backend
from repro.imgproc.filters import gaussian_blur
from repro.imgproc.gradient import gradient
from repro.imgproc.interpolate import _work_bilinear, bilinear
from repro.imgproc.pyramid import gaussian_pyramid
from repro.sift import benchmark as sift_bench
from repro.sift import describe_keypoints, descriptor_at, extract_features
from repro.sift.descriptors import (
    DESCRIPTOR_BINS,
    DESCRIPTOR_BLOCK,
    DESCRIPTOR_CLIP,
    DESCRIPTOR_GRID,
    SiftFeature,
    _work_descriptor_at,
    dominant_orientations,
    orientation_histogram,
)
from repro.sift.keypoints import Keypoint
from repro.tracking import (
    Feature,
    Track,
    track_feature_level,
    track_features,
    track_level,
)

BACKENDS = ("fast", "ref")


# ----------------------------------------------------------------------
# Oracles: the per-feature and per-keypoint code the rewrite replaced


class _Singular(Exception):
    pass


def reference_inverse_2x2(a, tol=1e-12):
    """Reference: the original one-matrix closed-form inverse."""
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    scale = max(1.0, float(np.abs(a).max()) ** 2)
    if abs(det) <= tol * scale:
        raise _Singular
    return np.array(
        [[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]], dtype=np.float64
    ) / det


def reference_track_feature_level(prev_img, next_img, prev_gx, prev_gy,
                                  row, col, guess, half=4, iterations=12,
                                  epsilon=0.01):
    """Reference: the original one-feature Newton loop."""
    offsets = np.arange(-half, half + 1, dtype=np.float64)
    rr, cc = np.meshgrid(row + offsets, col + offsets, indexing="ij")
    template = bilinear(prev_img, rr, cc)
    gx = bilinear(prev_gx, rr, cc)
    gy = bilinear(prev_gy, rr, cc)
    sxx = float((gx * gx).sum())
    sxy = float((gx * gy).sum())
    syy = float((gy * gy).sum())
    try:
        g_inv = reference_inverse_2x2(np.array([[sxx, sxy], [sxy, syy]]))
    except _Singular:
        return guess, False, float("inf")
    dy, dx = guess
    residual = float("inf")
    converged = False
    for _ in range(iterations):
        warped = bilinear(next_img, rr + dy, cc + dx)
        error = template - warped
        residual = float(np.abs(error).mean())
        ex = float((error * gx).sum())
        ey = float((error * gy).sum())
        step_x = g_inv[0, 0] * ex + g_inv[0, 1] * ey
        step_y = g_inv[1, 0] * ex + g_inv[1, 1] * ey
        dx += step_x
        dy += step_y
        if abs(step_x) < epsilon and abs(step_y) < epsilon:
            converged = True
            break
    return (dy, dx), converged, residual


def reference_track_features(prev_frame, next_frame, features, levels=3,
                             half=4, iterations=12):
    """Reference: the original per-feature coarse-to-fine loop."""
    prev_pyr = gaussian_pyramid(np.asarray(prev_frame, float), levels)
    next_pyr = gaussian_pyramid(np.asarray(next_frame, float), levels)
    grads = [gradient(level) for level in prev_pyr]
    tracks = []
    for feature in features:
        dy, dx = 0.0, 0.0
        converged = False
        residual = float("inf")
        for level in range(levels - 1, -1, -1):
            scale = 2.0**level
            (dy, dx), converged, residual = reference_track_feature_level(
                prev_pyr[level], next_pyr[level], grads[level][0],
                grads[level][1], feature.row / scale, feature.col / scale,
                (dy, dx), half=half, iterations=iterations,
            )
            if level > 0:
                dy *= 2.0
                dx *= 2.0
        tracks.append(Track(start=(feature.row, feature.col),
                            end=(feature.row + dy, feature.col + dx),
                            converged=converged, residual=residual))
    return tracks


def reference_descriptor(magnitude, angle, row, col, orientation, scale=1.0):
    """Reference: the original vectorized one-keypoint descriptor."""
    rows, cols = magnitude.shape
    half = DESCRIPTOR_GRID * 2
    span = max(1.0, scale)
    cos_o, sin_o = math.cos(orientation), math.sin(orientation)
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
    flat_index = (cell_y * DESCRIPTOR_GRID + cell_x) * DESCRIPTOR_BINS \
        + bin_index
    hist = np.zeros(DESCRIPTOR_GRID * DESCRIPTOR_GRID * DESCRIPTOR_BINS)
    np.add.at(hist, flat_index.ravel(), mags.ravel())
    desc = hist
    norm = float(np.linalg.norm(desc))
    if norm > 0:
        desc = desc / norm
        desc = np.minimum(desc, DESCRIPTOR_CLIP)
        norm = float(np.linalg.norm(desc))
        if norm > 0:
            desc = desc / norm
    return desc


def reference_descriptor_loop(magnitude, angle, row, col, orientation,
                              scale=1.0):
    """Reference: the original scalar-loop (ref backend) descriptor."""
    rows, cols = magnitude.shape
    half = DESCRIPTOR_GRID * 2
    span = max(1.0, scale)
    cos_o, sin_o = math.cos(orientation), math.sin(orientation)
    two_pi = 2.0 * math.pi
    sigma_sq2 = 2.0 * (half * 0.6) ** 2
    hist = np.zeros(DESCRIPTOR_GRID * DESCRIPTOR_GRID * DESCRIPTOR_BINS)
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


REFERENCE_DESCRIPTOR = {"fast": reference_descriptor,
                        "ref": reference_descriptor_loop}


def reference_describe_keypoints(image, keypoints, backend):
    """Reference: the original one-dispatch-per-pair describe loop."""
    gx, gy = gradient(np.asarray(image, dtype=np.float64))
    magnitude = np.hypot(gx, gy)
    angle = np.arctan2(gy, gx)
    rows, cols = magnitude.shape
    features = []
    for kp in keypoints:
        row, col = int(round(kp.row)), int(round(kp.col))
        if not (0 <= row < rows and 0 <= col < cols):
            continue
        radius = max(3, int(round(3.0 * kp.sigma)))
        hist = orientation_histogram(
            magnitude, angle, row, col, radius, 1.5 * max(kp.sigma, 0.8)
        )
        for theta in dominant_orientations(hist) or [0.0]:
            desc = REFERENCE_DESCRIPTOR[backend](
                magnitude, angle, kp.row, kp.col, theta,
                scale=max(0.5, kp.sigma / 2.0),
            )
            features.append(SiftFeature(
                keypoint=Keypoint(kp.row, kp.col, kp.octave, kp.scale_index,
                                  kp.sigma, kp.response, theta),
                descriptor=desc))
    return features


# ----------------------------------------------------------------------
# KLT


def _bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_tracks_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _bytes(g.start) == _bytes(w.start)
        assert _bytes(g.end) == _bytes(w.end)
        assert g.converged is w.converged
        assert _bytes(g.residual) == _bytes(w.residual)


def textured_pair(shape=(40, 48), shift=(1, 2), seed=3):
    rng = np.random.default_rng(seed)
    canvas = gaussian_blur(rng.random((shape[0] + 8, shape[1] + 8)), 1.2)
    prev = canvas[4:4 + shape[0], 4:4 + shape[1]]
    nxt = canvas[4 + shift[0]:4 + shift[0] + shape[0],
                 4 + shift[1]:4 + shift[1] + shape[1]]
    return prev, nxt


def grid_features(shape, step=7):
    return [Feature(float(r), float(c), 1.0)
            for r in range(3, shape[0] - 3, step)
            for c in range(3, shape[1] - 3, step)]


BORDER_FEATURES = [
    Feature(0.0, 0.0, 1.0),
    Feature(0.0, 20.5, 1.0),
    Feature(39.0, 47.0, 1.0),
    Feature(-3.0, 10.0, 1.0),
    Feature(12.25, -6.5, 1.0),
    Feature(45.0, 52.0, 1.0),
]


@pytest.mark.parametrize("backend", BACKENDS)
class TestTrackFeaturesOracle:
    def test_textured_interior(self, backend):
        prev, nxt = textured_pair()
        features = grid_features(prev.shape)
        with use_backend(backend):
            got = track_features(prev, nxt, features)
            want = reference_track_features(prev, nxt, features)
        assert any(t.converged for t in want)
        assert_tracks_equal(got, want)

    def test_border_and_beyond(self, backend):
        prev, nxt = textured_pair()
        with use_backend(backend):
            got = track_features(prev, nxt, BORDER_FEATURES)
            want = reference_track_features(prev, nxt, BORDER_FEATURES)
        assert_tracks_equal(got, want)

    def test_flat_patch_is_singular(self, backend):
        prev, nxt = textured_pair()
        prev = prev.copy()
        prev[:20, :20] = 0.5  # flat: zero structure tensor there
        features = [Feature(8.0, 8.0, 1.0), Feature(30.0, 36.0, 1.0)]
        with use_backend(backend):
            got = track_features(prev, nxt, features, levels=1)
            want = reference_track_features(prev, nxt, features, levels=1)
        assert want[0].residual == float("inf")
        assert not want[0].converged
        assert_tracks_equal(got, want)

    def test_never_converges(self, backend):
        rng = np.random.default_rng(11)
        prev, nxt = rng.random((32, 32)), rng.random((32, 32))
        features = grid_features(prev.shape, step=5)
        with use_backend(backend):
            got = track_features(prev, nxt, features, levels=2, iterations=2)
            want = reference_track_features(prev, nxt, features, levels=2,
                                            iterations=2)
        stalled = [t for t in want
                   if not t.converged and math.isfinite(t.residual)]
        assert stalled
        assert_tracks_equal(got, want)

    @pytest.mark.parametrize("count", [0, 1])
    def test_zero_and_one_feature(self, backend, count):
        prev, nxt = textured_pair()
        features = grid_features(prev.shape)[5:5 + count]
        with use_backend(backend):
            got = track_features(prev, nxt, features)
            want = reference_track_features(prev, nxt, features)
        assert len(got) == count
        assert_tracks_equal(got, want)

    def test_level_solver_matches_one_feature_calls(self, backend):
        prev, nxt = textured_pair()
        gx, gy = gradient(prev)
        features = grid_features(prev.shape) + BORDER_FEATURES
        rows = np.array([f.row for f in features])
        cols = np.array([f.col for f in features])
        guesses = np.linspace(-1.5, 1.5, len(features))
        with use_backend(backend):
            dy, dx, converged, residual = track_level(
                prev, nxt, gx, gy, rows, cols, guesses, -guesses,
                iterations=5,
            )
            for i in range(len(features)):
                (want_dy, want_dx), want_conv, want_res = \
                    reference_track_feature_level(
                        prev, nxt, gx, gy, rows[i], cols[i],
                        (guesses[i], -guesses[i]), iterations=5,
                    )
                got = track_feature_level(
                    prev, nxt, gx, gy, rows[i], cols[i],
                    (guesses[i], -guesses[i]), iterations=5,
                )
                assert _bytes([dy[i], dx[i]]) == _bytes([want_dy, want_dx])
                assert _bytes(got[0]) == _bytes([want_dy, want_dx])
                assert converged[i] == want_conv == got[1]
                assert _bytes(residual[i]) == _bytes(want_res)
                assert _bytes(got[2]) == _bytes(want_res)


def test_one_matrix_inversion_probe_per_level():
    prev, nxt = textured_pair()
    profiler = KernelProfiler()
    with profiler.run():
        track_features(prev, nxt, grid_features(prev.shape), levels=3,
                       profiler=profiler)
    assert profiler.kernel_calls["MatrixInversion"] == 3


# ----------------------------------------------------------------------
# SIFT descriptors


def gradient_fields(shape=(48, 56), seed=5):
    image = gaussian_blur(np.random.default_rng(seed).random(shape), 1.0)
    gx, gy = gradient(image)
    return np.hypot(gx, gy), np.arctan2(gy, gx)


def random_keypoints(count, shape, seed=0):
    """Positions on, near and off the map; scales below and above 1."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-12.0, shape[0] + 12.0, count)
    cols = rng.uniform(-12.0, shape[1] + 12.0, count)
    orientation = rng.uniform(-math.pi, math.pi, count)
    scale = rng.uniform(0.3, 3.0, count)
    return rows, cols, orientation, scale


def reference_rows(backend, magnitude, angle, rows, cols, orientation,
                   scale):
    out = [REFERENCE_DESCRIPTOR[backend](magnitude, angle, rows[k], cols[k],
                                         orientation[k], scale[k])
           for k in range(rows.size)]
    return np.array(out).reshape(-1, 128)


@pytest.mark.parametrize("backend", BACKENDS)
class TestDescriptorOracle:
    @pytest.mark.parametrize("count", [0, 1, DESCRIPTOR_BLOCK - 1,
                                       DESCRIPTOR_BLOCK, DESCRIPTOR_BLOCK + 1,
                                       2 * DESCRIPTOR_BLOCK + 1])
    def test_block_edges(self, backend, count):
        magnitude, angle = gradient_fields()
        args = random_keypoints(count, magnitude.shape, seed=count)
        with use_backend(backend):
            got = descriptor_at(magnitude, angle, *args)
        assert got.shape == (count, 128)
        want = reference_rows(backend, magnitude, angle, *args)
        assert got.tobytes() == want.tobytes()

    def test_off_map_and_small_scale(self, backend):
        magnitude, angle = gradient_fields()
        rows = np.array([-40.0, 100.0, -3.0, 50.0, 24.0, 0.0])
        cols = np.array([10.0, 200.0, -2.0, 58.0, 28.0, 0.0])
        orientation = np.array([0.0, 1.0, -2.5, 3.0, 0.7, -0.2])
        scale = np.array([1.0, 2.0, 0.25, 0.5, 0.75, 1.5])
        with use_backend(backend):
            got = descriptor_at(magnitude, angle, rows, cols, orientation,
                                scale)
        want = reference_rows(backend, magnitude, angle, rows, cols,
                              orientation, scale)
        assert not got[:2].any()  # wholly off the map: an all-zero histogram
        assert got.tobytes() == want.tobytes()

    def test_scalar_call_keeps_its_shape(self, backend):
        magnitude, angle = gradient_fields()
        with use_backend(backend):
            got = descriptor_at(magnitude, angle, 20.3, 17.8, 0.9, scale=0.6)
        want = REFERENCE_DESCRIPTOR[backend](magnitude, angle, 20.3, 17.8,
                                             0.9, 0.6)
        assert got.shape == (128,)
        assert got.tobytes() == want.tobytes()

    def test_describe_keypoints_one_dispatch(self, backend):
        scene = sift_bench.setup(InputSize.SQCIF, 1)
        keypoints = extract_features(scene).keypoints
        keypoints = keypoints + [Keypoint(-5.0, 3.0, 0, 1, 1.6, 0.1)]
        with use_backend(backend):
            got = describe_keypoints(scene, keypoints)
            want = reference_describe_keypoints(scene, keypoints, backend)
        assert len(got) == len(want) > DESCRIPTOR_BLOCK
        for g, w in zip(got, want):
            assert g.keypoint == w.keypoint
            assert g.descriptor.tobytes() == w.descriptor.tobytes()


def test_descriptor_rejects_unequal_or_nested_arrays():
    magnitude, angle = gradient_fields()
    with pytest.raises(ValueError):
        descriptor_at(magnitude, angle, [1.0, 2.0], [1.0, 2.0, 3.0], 0.0)
    with pytest.raises(ValueError):
        descriptor_at(magnitude, angle, [[1.0]], [1.0], 0.0)


# ----------------------------------------------------------------------
# Work models


def test_bilinear_work_counts_queries():
    image = np.zeros((4, 4))
    assert _work_bilinear(image, 1.5, 2.5).flops == 16.0
    assert _work_bilinear(image, np.zeros((3, 9, 1)),
                          np.zeros((3, 1, 9))).flops == 16.0 * 243
    empty = _work_bilinear(image, np.zeros((0, 9, 1)), np.zeros((0, 1, 9)))
    assert empty.flops == 0.0 and empty.traffic_bytes == 0.0


def test_descriptor_work_counts_one_window_per_keypoint():
    magnitude, angle = gradient_fields()
    one = _work_descriptor_at(magnitude, angle, 3.0, 4.0, 0.5)
    many = _work_descriptor_at(magnitude, angle, np.zeros(7), np.zeros(7),
                               np.zeros(7), np.ones(7))
    none = _work_descriptor_at(magnitude, angle, [], [], [], [])
    assert one.flops > 0
    assert many.flops == 7 * one.flops
    assert many.traffic_bytes == 7 * one.traffic_bytes
    assert none.flops == 0.0 and none.traffic_bytes == 0.0
