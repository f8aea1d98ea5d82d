"""Tests for the Face Detection (Viola-Jones) application."""

import numpy as np
import pytest

from repro.core import InputSize, KernelProfiler
from repro.core.inputs import face_scene, face_training_set
from repro.face import (
    BENCHMARK,
    Detection,
    HaarFeature,
    best_stump,
    detect_faces,
    detection_hit_rate,
    evaluate_features_on_patches,
    feature_pool,
    make_feature,
    merge_detections,
    train_cascade,
    train_stage,
    trained_cascade,
)
from repro.imgproc.integral import integral_image


class TestHaarFeatures:
    def test_edge_feature_on_step(self):
        # Left half bright, right half dark: edge_h responds positively.
        patch = np.zeros((16, 16))
        patch[:, :8] = 1.0
        ii = integral_image(patch)
        feature = make_feature("edge_h", 0, 0, 16, 8)
        assert feature.evaluate(ii) > 50.0

    def test_feature_zero_on_constant(self):
        patch = np.full((16, 16), 0.7)
        ii = integral_image(patch)
        for kind in ("edge_h", "edge_v", "quad"):
            feature = make_feature(kind, 0, 0, 4, 4)
            assert feature.evaluate(ii) == pytest.approx(0.0, abs=1e-9)

    def test_line_feature_zero_on_constant(self):
        patch = np.full((16, 16), 0.3)
        ii = integral_image(patch)
        feature = make_feature("line_h", 2, 2, 4, 4)
        assert feature.evaluate(ii) == pytest.approx(0.0, abs=1e-9)

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            make_feature("edge_h", 10, 10, 8, 8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_feature("diag", 0, 0, 4, 4)

    def test_pool_nonempty_and_in_window(self):
        pool = feature_pool(stride=4, min_cell=2, max_cell=4)
        assert len(pool) > 50
        for feature in pool:
            for r0, c0, r1, c1, _w in feature.rects:
                assert 0 <= r0 <= r1 <= 16
                assert 0 <= c0 <= c1 <= 16

    def test_evaluate_on_patches_shape(self):
        patches = np.random.default_rng(0).random((5, 16, 16))
        pool = feature_pool(stride=8, min_cell=4, max_cell=4)
        values = evaluate_features_on_patches(pool, patches)
        assert values.shape == (5, len(pool))

    def test_bad_patch_shape(self):
        with pytest.raises(ValueError):
            evaluate_features_on_patches([], np.ones((3, 8, 8)))

    @pytest.mark.parametrize("rect", [(-1, 0, 2, 2, 1.0), (0, 3, 2, 2, 1.0),
                                      (0, 0, 17, 2, 1.0)])
    def test_rect_outside_window_rejected(self, rect):
        # A hand-built feature is not checked by make_feature; a negative
        # corner must not wrap around the integral image.
        feature = HaarFeature(kind="edge_h", rects=(rect,))
        with pytest.raises(IndexError):
            evaluate_features_on_patches([feature], np.ones((2, 16, 16)))


class TestAdaBoost:
    def _separable(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) < 0.5).astype(np.int64)
        # Column 0 separates perfectly; column 1 is noise.
        values = np.stack(
            [labels + rng.normal(0, 0.1, n), rng.normal(0, 1, n)], axis=1
        )
        return values, labels

    def test_best_stump_picks_informative_feature(self):
        values, labels = self._separable()
        weights = np.full(labels.size, 1.0 / labels.size)
        j, _thr, _pol, err = best_stump(values, labels, weights)
        assert j == 0
        assert err < 0.05

    def test_stage_perfect_on_separable(self):
        values, labels = self._separable()
        stage = train_stage(values, labels, n_stumps=3)
        predictions = stage.predict(values)
        # All positives pass (detection-rate bias).
        assert predictions[labels == 1].all()

    def test_stage_requires_both_classes(self):
        values = np.random.default_rng(1).random((10, 3))
        with pytest.raises(ValueError):
            train_stage(values, np.ones(10, dtype=np.int64), 2)

    def test_cascade_rejects_negatives(self):
        values, labels = self._separable(n=120, seed=2)
        features = feature_pool(stride=8, min_cell=4, max_cell=4)[:2]
        cascade = train_cascade(values, labels, features,
                                stage_sizes=(2, 4))
        decisions = cascade.classify_values(values)
        # High detection on positives, strong rejection of negatives.
        assert decisions[labels == 1].mean() > 0.9
        assert decisions[labels == 0].mean() < 0.2

    def test_trained_cascade_on_real_patches(self):
        cascade = trained_cascade(0)
        patches, labels = face_training_set(0, n_pos=40, n_neg=60)
        values = evaluate_features_on_patches(cascade.features, patches)
        decisions = cascade.classify_values(values)
        assert decisions[labels == 1].mean() > 0.85
        assert decisions[labels == 0].mean() < 0.25

    def test_used_features_subset(self):
        cascade = trained_cascade(0)
        used = cascade.used_feature_indices()
        assert used
        assert max(used) < len(cascade.features)


class TestMerge:
    def test_overlapping_merged(self):
        raw = [
            Detection(10, 10, 16, score=2.0),
            Detection(11, 11, 16, score=1.0),
            Detection(40, 40, 16, score=1.5),
        ]
        merged = merge_detections(raw)
        assert len(merged) == 2
        assert merged[0].score == 2.0  # strongest kept

    def test_disjoint_kept(self):
        raw = [Detection(0, 0, 8, 1.0), Detection(30, 30, 8, 1.0)]
        assert len(merge_detections(raw)) == 2

    def test_empty(self):
        assert merge_detections([]) == []


class TestDetection:
    def test_finds_planted_faces(self):
        cascade = trained_cascade(0)
        scene = face_scene(InputSize.SQCIF, 0)
        detections = detect_faces(cascade, scene.image)
        assert detection_hit_rate(detections, scene.true_boxes) == 1.0

    def test_hit_rate_no_truth(self):
        assert detection_hit_rate([], []) == 1.0

    def test_hit_rate_miss(self):
        assert detection_hit_rate([], [(0, 0, 16)]) == 0.0

    def test_invalid_scale(self):
        cascade = trained_cascade(0)
        with pytest.raises(ValueError):
            detect_faces(cascade, np.ones((32, 32)), scales=(0.5,))

    def test_tiny_image_no_detections(self):
        cascade = trained_cascade(0)
        assert detect_faces(cascade, np.ones((8, 8))) == []


class TestBenchmarkWiring:
    def test_run_and_kernels(self):
        workload = BENCHMARK.setup(InputSize.SQCIF, 0)
        profiler = KernelProfiler()
        with profiler.run():
            out = BENCHMARK.run(workload, profiler)
        assert out["hit_rate"] == 1.0
        assert out["detections"] < 10 * out["true_faces"]
        for kernel in ("IntegralImage", "ExtractFaces", "Merge"):
            assert kernel in profiler.kernel_seconds
        # The cascaded scan dominates detection runtime.
        assert profiler.kernel_seconds["ExtractFaces"] > \
            profiler.kernel_seconds["Merge"]

    def test_parallelism_rows(self):
        rows = {r.kernel: r for r in BENCHMARK.parallelism(InputSize.SQCIF)}
        # Windows are independent; merging is serial.
        assert rows["ExtractFaces"].parallelism > rows["Merge"].parallelism
