"""Tests for the geometric warping module."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imgproc.warp import rotation_matrix, warp_affine


def make_image(shape=(24, 32), seed=0):
    from repro.imgproc.filters import gaussian_blur

    rng = np.random.default_rng(seed)
    return gaussian_blur(rng.random(shape), 1.0)


def translate(image, dy, dx, fill=0.0):
    """Move the feature at ``(r, c)`` to ``(r + dy, c + dx)``."""
    return warp_affine(image, np.eye(2), np.array([-dy, -dx]), fill=fill)


def rotate(image, angle):
    """Rotate about the image centre by ``angle`` radians."""
    centre = (np.array(image.shape) - 1) / 2.0
    inverse = rotation_matrix(-angle)
    return warp_affine(image, inverse, centre - inverse @ centre)


class TestAffine:
    def test_identity(self):
        img = make_image()
        out = warp_affine(img, np.eye(2), np.zeros(2))
        assert np.allclose(out, img)

    def test_integer_translation(self):
        img = make_image()
        out = translate(img, 3.0, 5.0)
        assert np.allclose(out[3:, 5:], img[:-3, :-5], atol=1e-12)

    def test_fill_outside(self):
        img = make_image()
        out = translate(img, 10.0, 0.0, fill=-1.0)
        assert (out[:10] == -1.0).all()

    def test_fractional_translation_roundtrip(self):
        img = make_image()
        forward = translate(img, 0.5, 0.5)
        back = translate(forward, -0.5, -0.5)
        interior = (slice(4, -4), slice(4, -4))
        # Two bilinear passes blur slightly; bound the residual loosely.
        assert np.abs(back[interior] - img[interior]).max() < 0.08

    def test_out_shape(self):
        img = make_image()
        out = warp_affine(img, np.eye(2), np.zeros(2), out_shape=(10, 12))
        assert out.shape == (10, 12)
        assert np.allclose(out, img[:10, :12])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            warp_affine(np.ones(5), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            warp_affine(np.ones((4, 4)), np.eye(3), np.zeros(2))


class TestRotation:
    def test_matrix_orthogonal(self):
        rot = rotation_matrix(0.7)
        assert np.allclose(rot @ rot.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_quarter_turn_square(self):
        img = np.zeros((21, 21))
        img[8:13, 6:9] = 1.0  # off-centre block
        out = rotate(img, np.pi / 2)
        # The block's mass is preserved (up to resampling).
        assert out.sum() == pytest.approx(img.sum(), rel=0.2)
        # And it moved away from its original spot.
        assert out[8:13, 6:9].sum() < 0.5 * img[8:13, 6:9].sum()

    def test_full_turn_identity(self):
        img = make_image((21, 21))
        out = rotate(rotate(img, np.pi), np.pi)
        interior = (slice(5, -5), slice(5, -5))
        assert np.abs(out[interior] - img[interior]).max() < 0.08

    @settings(max_examples=10, deadline=None)
    @given(st.floats(-3.0, 3.0))
    def test_rotation_preserves_center(self, angle):
        img = make_image((25, 25))
        out = rotate(img, angle)
        assert out[12, 12] == pytest.approx(img[12, 12], abs=1e-6)
