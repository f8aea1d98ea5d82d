"""Unit and property tests for padding and convolution kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.imgproc.convolution import (
    convolve2d,
    convolve_cols,
    convolve_rows,
    convolve_separable,
)
from repro.imgproc.pad import pad

small_images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(4, 12), st.integers(4, 12)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestPad:
    def test_zero_mode(self):
        img = np.ones((3, 3))
        out = pad(img, 1, "zero")
        assert out.shape == (5, 5)
        assert out[0, 0] == 0.0
        assert out[1:-1, 1:-1].sum() == 9.0

    def test_replicate_mode(self):
        img = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = pad(img, 2, "replicate")
        assert out[0, 0] == img[0, 0]
        assert out[-1, -1] == img[-1, -1]

    def test_reflect_mode(self):
        img = np.arange(9, dtype=np.float64).reshape(3, 3)
        out = pad(img, 1, "reflect")
        assert out[0, 1] == img[1, 0 + 1 - 1]  # mirrored row 1

    def test_amount_zero_copies(self):
        img = np.random.default_rng(0).random((4, 4))
        out = pad(img, 0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            pad(np.ones((3, 3)), 1, "wrap")

    def test_reflect_too_large(self):
        with pytest.raises(ValueError):
            pad(np.ones((3, 3)), 3, "reflect")

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            pad(np.ones(3), 1)

    @given(small_images, st.integers(0, 3))
    def test_pad_keeps_interior(self, img, amount):
        rows, cols = img.shape
        for mode in ("replicate", "zero"):
            padded = pad(img, amount, mode)
            assert np.array_equal(
                padded[amount:amount + rows, amount:amount + cols], img)


class TestConvolve1D:
    def test_identity_kernel(self):
        img = np.random.default_rng(0).random((6, 7))
        ident = np.array([0.0, 1.0, 0.0])
        assert np.allclose(convolve_rows(img, ident), img)
        assert np.allclose(convolve_cols(img, ident), img)

    def test_shift_kernel_rows(self):
        img = np.arange(12, dtype=np.float64).reshape(3, 4)
        # Correlation with [1, 0, 0] picks the left neighbour.
        left = convolve_rows(img, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(left[:, 1:], img[:, :-1])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve_rows(np.ones((4, 4)), np.array([1.0, 1.0]))

    def test_constant_preserved_by_normalized_kernel(self):
        img = np.full((5, 9), 3.7)
        kernel = np.array([0.25, 0.5, 0.25])
        assert np.allclose(convolve_rows(img, kernel), img)
        assert np.allclose(convolve_cols(img, kernel), img)

    @given(small_images)
    def test_linearity(self, img):
        kernel = np.array([0.2, 0.5, 0.3])
        lhs = convolve_rows(2.0 * img, kernel)
        rhs = 2.0 * convolve_rows(img, kernel)
        assert np.allclose(lhs, rhs)

    @given(small_images)
    def test_rows_cols_commute(self, img):
        k1 = np.array([0.25, 0.5, 0.25])
        k2 = np.array([-0.5, 0.0, 0.5])
        a = convolve_rows(convolve_cols(img, k1), k2)
        b = convolve_cols(convolve_rows(img, k2), k1)
        assert np.allclose(a, b, atol=1e-12)


class TestConvolve2D:
    def test_identity(self):
        img = np.random.default_rng(1).random((5, 6))
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        assert np.allclose(convolve2d(img, kernel), img)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve2d(np.ones((4, 4)), np.ones((2, 3)))

    def test_matches_separable_in_interior(self):
        rng = np.random.default_rng(2)
        img = rng.random((12, 14))
        row_k = np.array([0.25, 0.5, 0.25])
        col_k = np.array([0.1, 0.8, 0.1])
        full = convolve2d(img, np.outer(col_k, row_k))
        sep = convolve_separable(img, row_k, col_k)
        # Borders differ (two-pass padding); interiors agree exactly.
        assert np.allclose(full[2:-2, 2:-2], sep[2:-2, 2:-2], atol=1e-12)

    def test_asymmetric_kernel_shape(self):
        img = np.random.default_rng(3).random((8, 8))
        kernel = np.ones((1, 5)) / 5.0
        out = convolve2d(img, kernel)
        assert out.shape == img.shape

    @given(small_images)
    def test_sum_preserved_by_averaging_kernel(self, img):
        kernel = np.ones((3, 3)) / 9.0
        out = convolve2d(img, kernel)
        # Mean is approximately preserved (replicate borders keep range).
        assert out.min() >= img.min() - 1e-9
        assert out.max() <= img.max() + 1e-9
