"""Unit tests for Gaussian/binomial filters and gradients."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.imgproc.filters import (
    binomial_blur,
    binomial_kernel,
    gaussian_blur,
    gaussian_kernel,
)
from repro.imgproc.gradient import gradient

images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(6, 16), st.integers(6, 16)),
    elements=st.floats(0, 1, allow_nan=False),
)


class TestGaussianKernel:
    def test_normalized(self):
        assert gaussian_kernel(1.3).sum() == pytest.approx(1.0)

    def test_symmetric(self):
        k = gaussian_kernel(2.0)
        assert np.allclose(k, k[::-1])

    def test_default_radius_three_sigma(self):
        assert gaussian_kernel(1.0).size == 7  # radius 3

    def test_explicit_radius(self):
        assert gaussian_kernel(1.0, radius=5).size == 11

    def test_monotone_from_center(self):
        k = gaussian_kernel(1.5)
        mid = k.size // 2
        assert (np.diff(k[: mid + 1]) > 0).all()

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0)
        with pytest.raises(ValueError):
            gaussian_kernel(1.0, radius=-1)


class TestBinomialKernel:
    def test_order5_matches_suite(self):
        assert np.allclose(binomial_kernel(5) * 16,
                           [1.0, 4.0, 6.0, 4.0, 1.0])

    def test_even_order_rejected(self):
        with pytest.raises(ValueError):
            binomial_kernel(4)


class TestBlur:
    @given(images)
    def test_mean_preserved(self, img):
        out = gaussian_blur(img, 1.0)
        # Replicate borders keep the value range; mean drifts only
        # slightly at borders.
        assert out.min() >= img.min() - 1e-9
        assert out.max() <= img.max() + 1e-9

    def test_reduces_variance_of_noise(self):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((64, 64))
        assert gaussian_blur(noise, 2.0).std() < 0.5 * noise.std()

    def test_constant_fixed_point(self):
        img = np.full((10, 10), 0.42)
        assert np.allclose(gaussian_blur(img, 1.7), img)
        assert np.allclose(binomial_blur(img), img)

    def test_larger_sigma_smoother(self):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((48, 48))
        assert gaussian_blur(noise, 3.0).std() < gaussian_blur(noise, 1.0).std()


class TestGradient:
    def test_linear_ramp_exact(self):
        cols = np.arange(10, dtype=np.float64)
        img = np.tile(cols, (8, 1))
        gx, gy = gradient(img)
        assert np.allclose(gx[:, 1:-1], 1.0)
        assert np.allclose(gy, 0.0)

    def test_vertical_ramp(self):
        rows = np.arange(9, dtype=np.float64)
        img = np.tile(rows[:, None], (1, 7))
        gx, gy = gradient(img)
        assert np.allclose(gy[1:-1, :], 1.0)
        assert np.allclose(gx, 0.0)

    @given(images)
    def test_constant_has_zero_gradient(self, img):
        const = np.full_like(img, float(img.mean()))
        gx, gy = gradient(const)
        assert np.allclose(gx, 0.0) and np.allclose(gy, 0.0)
