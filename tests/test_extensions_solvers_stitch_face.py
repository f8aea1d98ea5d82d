"""Tests for SMO, recursive ncuts and face evaluation."""

import numpy as np
import pytest

from repro.core import InputSize
from repro.core.inputs import (
    face_scene,
    segmentation_image,
    svm_dataset,
)
from repro.face import (
    Detection,
    evaluate_detector,
    match_detections,
    operating_curve,
    shift_thresholds,
    trained_cascade,
)
from repro.face.evaluate import EvaluationResult
from repro.segmentation import label_purity, ncut_value, segment_recursive
from repro.segmentation.graph import build_affinity
from repro.svm import (
    gram_matrix,
    linear_kernel,
    solve_svm_dual,
    solve_svm_dual_smo,
)


class TestSmo:
    def _problem(self, seed=0, n=40):
        data = svm_dataset(InputSize.SQCIF, seed % 5, dim=8)
        x = data.train_x[:n]
        y = data.train_y[:n]
        if len(np.unique(y)) < 2:  # pragma: no cover - extremely unlikely
            y[0] = -y[0]
        return gram_matrix(linear_kernel(), x), y

    def test_constraints_hold(self):
        gram, y = self._problem()
        result = solve_svm_dual_smo(gram, y, c=1.0)
        assert (result.alpha >= -1e-9).all()
        assert (result.alpha <= 1.0 + 1e-9).all()
        assert abs(y @ result.alpha) < 1e-6

    def test_matches_interior_point_objective(self):
        gram, y = self._problem(seed=1)
        q = gram * np.outer(y, y)

        def objective(a):
            return 0.5 * a @ q @ a - a.sum()

        ipm = solve_svm_dual(q, y, c=1.0)
        smo = solve_svm_dual_smo(gram, y, c=1.0, seed=3)
        assert objective(smo.alpha) == pytest.approx(
            objective(ipm.alpha), abs=0.05
        )

    def test_objective_decreases(self):
        gram, y = self._problem(seed=2)
        result = solve_svm_dual_smo(gram, y, c=1.0)
        trace = result.objective_trace
        assert trace[-1] < trace[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_svm_dual_smo(np.eye(3), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            solve_svm_dual_smo(np.eye(2), np.array([1.0, -1.0]), c=0.0)
        with pytest.raises(ValueError):
            solve_svm_dual_smo(np.eye(2), np.array([1.0, 2.0]))


class TestRecursiveNcuts:
    def test_recovers_regions(self):
        image, truth = segmentation_image(InputSize.SQCIF, 0, n_regions=4)
        result = segment_recursive(image, n_segments=4)
        assert label_purity(result.labels, truth) > 0.8
        assert len(result.cut_values) <= 3

    def test_labels_count(self):
        image, _ = segmentation_image(InputSize.SQCIF, 1, n_regions=3)
        result = segment_recursive(image, n_segments=3)
        assert len(np.unique(result.labels)) <= 3

    def test_ncut_value_properties(self):
        image, _ = segmentation_image(InputSize.SQCIF, 0)
        affinity = build_affinity(image[:16, :16], radius=2)
        # A balanced boundary-respecting mask has lower ncut than a
        # random one.
        half_mask = np.zeros((16, 16), dtype=bool)
        half_mask[:, :8] = True
        random_mask = np.random.default_rng(0).random((16, 16)) > 0.5
        assert ncut_value(affinity, half_mask) < \
            ncut_value(affinity, random_mask)

    def test_degenerate_mask_infinite(self):
        image, _ = segmentation_image(InputSize.SQCIF, 0)
        affinity = build_affinity(image[:8, :8], radius=1)
        assert ncut_value(affinity, np.zeros(64, dtype=bool)) == \
            float("inf")

    def test_needs_two_segments(self):
        with pytest.raises(ValueError):
            segment_recursive(np.ones((16, 16)), n_segments=1)


class TestFaceEvaluation:
    def test_match_detections_counts(self):
        truth = [(10, 10, 16), (50, 50, 16)]
        detections = [
            Detection(11, 11, 16, score=2.0),  # matches first
            Detection(80, 80, 16, score=1.0),  # false positive
        ]
        tp, fp, fn = match_detections(detections, truth)
        assert (tp, fp, fn) == (1, 1, 1)

    def test_one_to_one_matching(self):
        truth = [(10, 10, 16)]
        detections = [
            Detection(10, 10, 16, score=2.0),
            Detection(11, 11, 16, score=1.0),  # duplicate -> FP
        ]
        tp, fp, fn = match_detections(detections, truth)
        assert (tp, fp, fn) == (1, 1, 0)

    def test_metrics_definitions(self):
        result = EvaluationResult(true_positives=3, false_positives=1,
                                  false_negatives=1)
        assert result.precision == pytest.approx(0.75)
        assert result.recall == pytest.approx(0.75)
        assert result.f1 == pytest.approx(0.75)

    def test_empty_edge_cases(self):
        perfect = EvaluationResult(0, 0, 0)
        assert perfect.precision == 1.0
        assert perfect.recall == 1.0

    def test_detector_quality_on_scenes(self):
        cascade = trained_cascade(0)
        scenes = [
            (scene.image, scene.true_boxes)
            for scene in (face_scene(InputSize.SQCIF, v) for v in range(2))
        ]
        result = evaluate_detector(cascade, scenes)
        assert result.recall >= 0.75
        assert result.precision >= 0.5

    def test_threshold_shift_monotone(self):
        cascade = trained_cascade(0)
        scene = face_scene(InputSize.SQCIF, 0)
        curve = operating_curve(
            cascade, [(scene.image, scene.true_boxes)],
            offsets=(-1.0, 0.0, 5.0),
        )
        totals = [
            ev.true_positives + ev.false_positives for _off, ev in curve
        ]
        # Stricter thresholds never yield more detections.
        assert totals[0] >= totals[1] >= totals[2]

    def test_shift_preserves_structure(self):
        cascade = trained_cascade(0)
        shifted = shift_thresholds(cascade, 0.5)
        assert len(shifted.stages) == len(cascade.stages)
        for original, moved in zip(cascade.stages, shifted.stages):
            assert moved.stage_threshold == pytest.approx(
                original.stage_threshold + 0.5
            )
