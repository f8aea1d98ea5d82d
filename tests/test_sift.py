"""Tests for the SIFT application."""

import numpy as np
import pytest

from repro.core import InputSize, KernelProfiler
from repro.core.inputs import image
from repro.imgproc.pyramid import scale_space
from repro.sift import (
    BENCHMARK,
    contrast_normalize,
    describe_keypoints,
    detect_keypoints,
    dominant_orientations,
    extract_features,
    local_extrema_mask,
    orientation_histogram,
    refine_candidate,
)


def match_descriptors(first, second, ratio=0.8):
    """Lowe-ratio nearest-neighbour matches ``(i, j)`` between two
    feature lists, to check that descriptors identify keypoints."""
    a = np.stack([f.descriptor for f in first])
    b = np.stack([f.descriptor for f in second])
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1) - 2.0 * a @ b.T
    order = np.argsort(d2, axis=1)
    best, runner_up = order[:, 0], order[:, 1]
    rows = np.arange(len(a))
    keep = d2[rows, best] <= ratio * ratio * d2[rows, runner_up]
    return [(int(i), int(best[i])) for i in rows[keep]]


def blob_image(shape=(48, 48), center=(24, 24), sigma=3.0):
    yy, xx = np.mgrid[: shape[0], : shape[1]].astype(np.float64)
    return np.exp(
        -((yy - center[0]) ** 2 + (xx - center[1]) ** 2) / (2 * sigma**2)
    )


class TestExtremaMask:
    def test_detects_injected_peak(self):
        below = np.zeros((8, 8))
        here = np.zeros((8, 8))
        above = np.zeros((8, 8))
        here[4, 5] = 1.0
        mask = local_extrema_mask(below, here, above, threshold=0.1)
        assert mask[4, 5]
        assert mask.sum() == 1

    def test_detects_minimum(self):
        below = np.zeros((8, 8))
        here = np.zeros((8, 8))
        above = np.zeros((8, 8))
        here[3, 3] = -1.0
        mask = local_extrema_mask(below, here, above, threshold=0.1)
        assert mask[3, 3]

    def test_threshold_suppresses_weak(self):
        here = np.zeros((8, 8))
        here[4, 4] = 0.05
        mask = local_extrema_mask(np.zeros((8, 8)), here, np.zeros((8, 8)),
                                  threshold=0.1)
        assert not mask.any()

    def test_border_excluded(self):
        here = np.zeros((8, 8))
        here[0, 0] = 5.0
        mask = local_extrema_mask(np.zeros((8, 8)), here, np.zeros((8, 8)),
                                  threshold=0.1)
        assert not mask.any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            local_extrema_mask(np.zeros((4, 4)), np.zeros((4, 5)),
                               np.zeros((4, 4)), 0.1)


class TestRefinement:
    def test_offset_small_for_centered_peak(self):
        img = blob_image()
        octaves = scale_space(img, 1)
        dogs = octaves[0].dogs
        # Find the strongest response location at scale 1.
        s = 1
        r, c = np.unravel_index(np.argmax(np.abs(dogs[s])), dogs[s].shape)
        offset = refine_candidate(dogs, s, int(r), int(c))
        assert offset is not None
        assert np.abs(offset[:2]).max() < 1.5


class TestDetection:
    def test_blob_detected_near_center(self):
        img = blob_image() * 0.8
        octaves = scale_space(img, 2)
        kps = detect_keypoints(octaves, contrast_threshold=0.005,
                               upsampled=False)
        assert kps, "no keypoints found on a clean blob"
        distances = [np.hypot(k.row - 24, k.col - 24) for k in kps]
        assert min(distances) < 4.0

    def test_flat_image_no_keypoints(self):
        img = np.full((64, 64), 0.5)
        octaves = scale_space(img, 2)
        assert detect_keypoints(octaves, upsampled=False) == []

    def test_keypoints_have_positive_sigma(self):
        scene = image(InputSize.SQCIF, 0, salt="sift")
        result = extract_features(scene, n_octaves=2)
        assert all(k.sigma > 0 for k in result.keypoints)


class TestOrientation:
    def test_dominant_orientation_of_ramp(self):
        # Gradient pointing +x everywhere -> angle 0 dominates.
        cols = np.tile(np.arange(32, dtype=np.float64), (32, 1)) / 32.0
        from repro.imgproc.gradient import gradient

        gx, gy = gradient(cols)
        mag = np.hypot(gx, gy)
        ang = np.arctan2(gy, gx)
        hist = orientation_histogram(mag, ang, 16, 16, radius=6, sigma=3.0)
        angles = dominant_orientations(hist)
        assert angles
        assert min(abs(a) for a in angles) < 0.3

    def test_empty_histogram_no_peaks(self):
        assert dominant_orientations(np.zeros(36)) == []

    def test_two_peaks_detected(self):
        hist = np.zeros(36)
        hist[0] = 10.0
        hist[18] = 9.5
        angles = dominant_orientations(hist, peak_ratio=0.8)
        assert len(angles) == 2


class TestDescriptors:
    def test_descriptor_normalized(self):
        scene = image(InputSize.SQCIF, 1, salt="sift")
        result = extract_features(scene, n_octaves=2)
        assert result.features
        for feature in result.features[:10]:
            norm = np.linalg.norm(feature.descriptor)
            assert norm == pytest.approx(1.0, abs=1e-6) or norm == 0.0
            assert feature.descriptor.shape == (128,)
            assert (feature.descriptor >= 0.0).all()
            # Clipped at 0.2 before the final renormalization, so values
            # stay well below the unclipped maximum of 1.0.
            assert feature.descriptor.max() <= 0.5

    def test_matching_identity(self):
        scene = image(InputSize.SQCIF, 2, salt="sift")
        result = extract_features(scene, n_octaves=2)
        matches = match_descriptors(result.features, result.features,
                                    ratio=1.01)
        identical = sum(1 for i, j in matches if i == j)
        assert identical > 0.9 * len(matches)

    def test_shift_consistency(self):
        scene = image(InputSize.SQCIF, 1, salt="sift")
        shift = 4
        shifted = np.roll(scene, shift, axis=1)
        first = extract_features(scene, n_octaves=2)
        second = extract_features(shifted, n_octaves=2)
        matches = match_descriptors(first.features, second.features)
        assert len(matches) > 20
        consistent = sum(
            1
            for i, j in matches
            if abs(
                second.features[j].keypoint.col
                - first.features[i].keypoint.col
                - shift
            )
            < 2.0
        )
        assert consistent > 0.8 * len(matches)


class TestContrastNormalize:
    def test_flattens_illumination_gradient(self):
        rng = np.random.default_rng(3)
        texture = rng.random((64, 64)) * 0.2
        ramp = np.linspace(0, 0.8, 64)[None, :]
        img = texture + ramp
        out = contrast_normalize(img, strength=1.0)
        # Interior row means should vary much less after normalization
        # (borders replicate the nearest full window, so exclude them).
        interior = slice(8, -8)
        before = (
            img[:, interior].mean(axis=0).max()
            - img[:, interior].mean(axis=0).min()
        )
        after = (
            out[:, interior].mean(axis=0).max()
            - out[:, interior].mean(axis=0).min()
        )
        assert after < 0.5 * before

    def test_strength_zero_identity(self):
        img = np.random.default_rng(4).random((32, 32))
        assert np.allclose(contrast_normalize(img, strength=0.0), img)

    def test_invalid_strength(self):
        with pytest.raises(ValueError):
            contrast_normalize(np.ones((16, 16)), strength=1.5)


class TestBenchmarkWiring:
    def test_run_and_kernels(self):
        workload = BENCHMARK.setup(InputSize.SQCIF, 0)
        profiler = KernelProfiler()
        with profiler.run():
            out = BENCHMARK.run(workload, profiler)
        assert out["keypoints"] > 10
        assert out["features"] >= out["keypoints"]
        for kernel in ("SIFT", "Interpolation", "IntegralImage"):
            assert kernel in profiler.kernel_seconds
        # The SIFT kernel dominates, as in the paper's Figure 3.
        shares = profiler.kernel_seconds
        assert shares["SIFT"] > shares["Interpolation"]

    def test_parallelism_ordering(self):
        rows = {r.kernel: r for r in BENCHMARK.parallelism(InputSize.SQCIF)}
        # Table IV: IntegralImage (16,000x) > Interpolation (502x) >
        # SIFT (180x).
        assert rows["IntegralImage"].parallelism > \
            rows["Interpolation"].parallelism
        assert rows["SIFT"].parallelism < rows["Interpolation"].parallelism
        assert rows["IntegralImage"].parallelism > 1000
