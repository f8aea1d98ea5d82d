"""Unit and property tests for integral images and window sums."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.imgproc.integral import (
    integral_image,
    rect_sum,
    window_means,
    window_sums,
    window_variances,
)

images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(3, 14), st.integers(3, 14)),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)


class TestIntegralImage:
    def test_shape_has_zero_border(self):
        ii = integral_image(np.ones((4, 6)))
        assert ii.shape == (5, 7)
        assert (ii[0, :] == 0).all()
        assert (ii[:, 0] == 0).all()

    def test_corner_is_total(self):
        img = np.random.default_rng(0).random((5, 7))
        ii = integral_image(img)
        assert ii[-1, -1] == pytest.approx(img.sum())

    @given(images)
    def test_rect_sum_matches_slice(self, img):
        ii = integral_image(img)
        rows, cols = img.shape
        r0, r1 = 1, rows - 1
        c0, c1 = 1, cols - 1
        assert rect_sum(ii, r0, c0, r1, c1) == pytest.approx(
            img[r0:r1, c0:c1].sum(), abs=1e-8
        )

    @given(images)
    def test_full_rect_is_total(self, img):
        ii = integral_image(img)
        assert rect_sum(ii, 0, 0, *img.shape) == pytest.approx(
            img.sum(), abs=1e-8
        )

    def test_empty_rect_zero(self):
        ii = integral_image(np.ones((4, 4)))
        assert rect_sum(ii, 2, 2, 2, 2) == 0.0

    def test_out_of_range_raises(self):
        ii = integral_image(np.ones((4, 4)))
        with pytest.raises(IndexError):
            rect_sum(ii, 0, 0, 6, 2)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            integral_image(np.ones(5))


class TestWindowSums:
    @given(images, st.integers(1, 3))
    def test_matches_bruteforce(self, img, win):
        rows, cols = img.shape
        if win > rows or win > cols:
            return
        out = window_sums(img, win)
        assert out.shape == (rows - win + 1, cols - win + 1)
        for r in range(0, out.shape[0], max(1, out.shape[0] // 3)):
            for c in range(0, out.shape[1], max(1, out.shape[1] // 3)):
                assert out[r, c] == pytest.approx(
                    img[r : r + win, c : c + win].sum(), abs=1e-8
                )

    def test_window_of_one_is_identity(self):
        img = np.random.default_rng(1).random((5, 5))
        assert np.allclose(window_sums(img, 1), img)

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            window_sums(np.ones((4, 4)), 5)

    def test_window_nonpositive(self):
        with pytest.raises(ValueError):
            window_sums(np.ones((4, 4)), 0)

    def test_means(self):
        img = np.full((6, 6), 2.0)
        assert np.allclose(window_means(img, 3), 2.0)

    @given(images)
    def test_variances_nonnegative(self, img):
        var = window_variances(img, 3)
        assert (var >= 0).all()

    def test_variance_of_constant_zero(self):
        assert np.allclose(window_variances(np.full((6, 6), 3.0), 3), 0.0)

    def test_variance_matches_numpy(self):
        img = np.random.default_rng(2).random((8, 8))
        var = window_variances(img, 3)
        assert var[2, 4] == pytest.approx(img[2:5, 4:7].var(), abs=1e-10)
