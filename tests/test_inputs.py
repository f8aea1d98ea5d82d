"""Unit tests for the synthetic input generators."""

import numpy as np
import pytest

from repro.core.inputs import (
    FACE_PATCH,
    face_scene,
    face_training_set,
    image,
    overlapping_pair,
    rng_for,
    robot_world,
    segmentation_image,
    sequence,
    stereo_pair,
    svm_dataset,
    texture_sample,
)
from repro.core.types import VARIANTS_PER_SIZE, InputSize

SIZES = list(InputSize)


class TestDeterminism:
    def test_rng_stable_across_calls(self):
        a = rng_for(InputSize.SQCIF, 0, "x").random(5)
        b = rng_for(InputSize.SQCIF, 0, "x").random(5)
        assert np.array_equal(a, b)

    def test_rng_differs_by_variant_and_salt(self):
        base = rng_for(InputSize.SQCIF, 0, "x").random(5)
        other_variant = rng_for(InputSize.SQCIF, 1, "x").random(5)
        other_salt = rng_for(InputSize.SQCIF, 0, "y").random(5)
        assert not np.array_equal(base, other_variant)
        assert not np.array_equal(base, other_salt)

    def test_variant_out_of_range(self):
        with pytest.raises(ValueError):
            rng_for(InputSize.SQCIF, VARIANTS_PER_SIZE, "x")

    def test_images_reproducible(self):
        assert np.array_equal(
            image(InputSize.QCIF, 2), image(InputSize.QCIF, 2)
        )


class TestImage:
    @pytest.mark.parametrize("size", SIZES)
    def test_shape_and_range(self, size):
        img = image(size, 0)
        assert img.shape == size.shape
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_has_contrast(self):
        assert image(InputSize.SQCIF, 0).std() > 0.05

    def test_variants_differ(self):
        assert not np.array_equal(
            image(InputSize.SQCIF, 0), image(InputSize.SQCIF, 1)
        )


class TestStereo:
    def test_disparity_band_structure(self):
        pair = stereo_pair(InputSize.SQCIF, 0)
        assert pair.true_disparity.min() >= 0
        assert pair.true_disparity.max() < pair.max_disparity
        # Constant disparity along each row.
        assert (pair.true_disparity == pair.true_disparity[:, :1]).all()

    def test_right_is_shifted_left_image(self):
        pair = stereo_pair(InputSize.SQCIF, 1)
        row = 5
        d = int(pair.true_disparity[row, 0])
        # Interior pixels should correspond up to the added noise.
        left_segment = pair.left[row, d + 2 : -2]
        right_segment = pair.right[row, 2 : -d - 2] if d > 0 else \
            pair.right[row, 2:-2]
        assert np.abs(
            left_segment[: right_segment.size] - right_segment
        ).mean() < 0.05


class TestSequence:
    def test_frames_share_shape(self):
        seq = sequence(InputSize.SQCIF, 0, n_frames=3)
        assert len(seq.frames) == 3
        assert all(f.shape == InputSize.SQCIF.shape for f in seq.frames)

    def test_motion_is_apparent_shift(self):
        seq = sequence(InputSize.SQCIF, 0, n_frames=2)
        dy, dx = seq.true_motion
        assert dy <= -1 and dx <= -1  # window slides forward
        # Shifting frame 1 by the claimed motion should recover frame 0
        # in the overlap region.
        f0, f1 = seq.frames
        idy, idx = int(-dy), int(-dx)
        overlap0 = f0[idy:, idx:]
        overlap1 = f1[: overlap0.shape[0], : overlap0.shape[1]]
        assert np.abs(overlap0 - overlap1).mean() < 1e-12


class TestSegmentationImage:
    def test_labels_and_contrast(self):
        img, labels = segmentation_image(InputSize.SQCIF, 0, n_regions=4)
        assert img.shape == labels.shape == InputSize.SQCIF.shape
        assert set(np.unique(labels)) <= set(range(4))
        # Regions should have distinct mean intensities.
        means = [img[labels == k].mean() for k in np.unique(labels)]
        assert max(means) - min(means) > 0.2


class TestOverlappingPair:
    def test_overlap_region_matches(self):
        pair = overlapping_pair(InputSize.SQCIF, 0)
        dy, dx = pair.true_offset
        rows, cols = pair.first.shape
        a = pair.first[dy:, dx:]
        b = pair.second[: rows - dy, : cols - dx]
        assert np.abs(a - b).max() < 1e-12


class TestFaceInputs:
    def test_training_set_shapes(self):
        patches, labels = face_training_set(0, n_pos=20, n_neg=30)
        assert patches.shape == (50, FACE_PATCH, FACE_PATCH)
        assert labels.sum() == 20
        assert patches.min() >= 0.0 and patches.max() <= 1.0

    def test_faces_darker_eyes(self):
        patches, labels = face_training_set(0, n_pos=10, n_neg=5)
        face = patches[0]
        eye_band = face[4:7, :].mean()
        cheek_band = face[8:11, :].mean()
        assert eye_band < cheek_band

    def test_scene_boxes_inside(self):
        scene = face_scene(InputSize.QCIF, 0, n_faces=3)
        rows, cols = scene.image.shape
        assert len(scene.true_boxes) == 3
        for r, c, side in scene.true_boxes:
            assert 0 <= r and r + side <= rows
            assert 0 <= c and c + side <= cols
            assert side >= FACE_PATCH


class TestRobotWorld:
    def test_trace_lengths(self):
        world = robot_world(InputSize.SQCIF, 0, n_steps=10)
        assert len(world.controls) == 10
        assert len(world.true_poses) == 10
        assert len(world.measurements) == 10
        assert world.measurements[0].shape == (world.n_beams,)

    def test_poses_stay_in_free_space(self):
        world = robot_world(InputSize.SQCIF, 1, n_steps=15)
        for x, y, _theta in world.true_poses:
            assert 0 <= x < world.grid.shape[1]
            assert 0 <= y < world.grid.shape[0]
            assert world.grid[int(y), int(x)] == 0

    def test_walls_present(self):
        world = robot_world(InputSize.SQCIF, 0)
        assert world.grid[0].all() and world.grid[-1].all()
        assert world.grid[:, 0].all() and world.grid[:, -1].all()

    def test_measurements_within_range(self):
        world = robot_world(InputSize.SQCIF, 2, n_steps=5)
        for ranges in world.measurements:
            assert (ranges >= 0).all()
            assert (ranges <= world.max_range).all()


class TestSvmDataset:
    def test_shapes_scale_with_size(self):
        small = svm_dataset(InputSize.SQCIF, 0)
        large = svm_dataset(InputSize.CIF, 0)
        assert small.train_x.shape[0] < large.train_x.shape[0]
        assert set(np.unique(small.train_y)) == {-1.0, 1.0}

    def test_classes_separated(self):
        data = svm_dataset(InputSize.SQCIF, 0, margin=1.2)
        pos = data.train_x[data.train_y > 0].mean(axis=0)
        neg = data.train_x[data.train_y < 0].mean(axis=0)
        assert np.linalg.norm(pos - neg) > 1.0


class TestTexture:
    @pytest.mark.parametrize("kind", ["stochastic", "structural"])
    def test_range_and_shape(self, kind):
        tex = texture_sample(InputSize.SQCIF, 0, kind)
        assert tex.min() >= 0.0 and tex.max() <= 1.0
        assert min(tex.shape) >= 32

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            texture_sample(InputSize.SQCIF, 0, "fractal")

    def test_structural_is_periodic(self):
        tex = texture_sample(InputSize.SQCIF, 0, "structural")
        # variant 0 has period 6; the checker component flips sign at one
        # period, so the full pattern repeats at two periods.
        shifted = np.roll(tex, 12, axis=1)
        # Periodic structure: correlation with the shifted copy is high.
        corr = np.corrcoef(tex.ravel(), shifted.ravel())[0, 1]
        assert corr > 0.5
