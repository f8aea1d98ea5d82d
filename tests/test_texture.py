"""Tests for the Texture Synthesis application."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InputSize, KernelProfiler
from repro.core.inputs import texture_sample
from repro.texture import (
    BENCHMARK,
    analyze,
    autocorrelation,
    build_pyramid,
    impose_moments,
    impose_spectrum,
    match_histogram,
    moments,
    oriented_kernel,
    reconstruct,
    synthesize_from_exemplar,
)


class TestMoments:
    def test_gaussian_sample(self):
        rng = np.random.default_rng(0)
        sample = rng.standard_normal(200_000)
        mean, var, skew, kurt = moments(sample)
        assert mean == pytest.approx(0.0, abs=0.02)
        assert var == pytest.approx(1.0, abs=0.02)
        assert skew == pytest.approx(0.0, abs=0.05)
        assert kurt == pytest.approx(3.0, abs=0.1)

    def test_constant_degenerate(self):
        mean, var, skew, kurt = moments(np.full(100, 2.5))
        assert mean == 2.5
        assert var == 0.0
        assert skew == 0.0
        assert kurt == 3.0

    def test_skewed_sample(self):
        rng = np.random.default_rng(1)
        sample = rng.exponential(1.0, 100_000)
        _m, _v, skew, _k = moments(sample)
        assert skew == pytest.approx(2.0, abs=0.15)


class TestAutocorrelation:
    def test_center_is_one(self):
        img = np.random.default_rng(2).random((32, 32))
        ac = autocorrelation(img, max_lag=2)
        assert ac[2, 2] == pytest.approx(1.0)

    def test_symmetric(self):
        img = np.random.default_rng(3).random((32, 32))
        ac = autocorrelation(img, max_lag=3)
        assert np.allclose(ac, ac[::-1, ::-1], atol=1e-10)

    def test_white_noise_low_off_center(self):
        img = np.random.default_rng(4).standard_normal((64, 64))
        ac = autocorrelation(img, max_lag=2)
        off = ac.copy()
        off[2, 2] = 0.0
        assert np.abs(off).max() < 0.1

    def test_constant_zero(self):
        assert np.allclose(autocorrelation(np.full((16, 16), 1.0)), 0.0)


class TestPyramid:
    def test_exact_reconstruction(self):
        img = texture_sample(InputSize.SQCIF, 0, "stochastic")
        pyramid = build_pyramid(img, n_levels=3)
        rec = reconstruct(pyramid, img.shape)
        assert np.abs(rec - img).max() < 1e-12

    def test_band_counts(self):
        img = texture_sample(InputSize.SQCIF, 0, "stochastic")
        pyramid = build_pyramid(img, n_levels=3, n_orientations=4)
        assert len(pyramid.bandpass) == 3
        assert all(len(level) == 4 for level in pyramid.bands)

    def test_oriented_kernel_zero_mean(self):
        for theta in (0.0, 0.7, 1.5):
            k = oriented_kernel(theta)
            assert abs(k.sum()) < 1e-12

    def test_oriented_kernel_selectivity(self):
        # A vertical-edge image excites the horizontal-derivative kernel.
        img = np.zeros((32, 32))
        img[:, 16:] = 1.0
        from repro.imgproc.convolution import convolve2d

        horizontal = np.abs(convolve2d(img, oriented_kernel(0.0))).sum()
        vertical = np.abs(convolve2d(img, oriented_kernel(np.pi / 2))).sum()
        assert horizontal > 5 * vertical

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_pyramid(np.ones((16, 16)), n_levels=0)
        with pytest.raises(ValueError):
            oriented_kernel(0.0, size=4)


class TestProjections:
    def test_match_histogram_exact(self):
        rng = np.random.default_rng(5)
        target = np.sort(rng.random(100))
        values = rng.standard_normal(100)
        out = match_histogram(values, target)
        assert np.allclose(np.sort(out.ravel()), target)

    def test_match_histogram_preserves_ranks(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(50)
        target = np.sort(rng.random(50))
        out = match_histogram(values, target)
        assert np.array_equal(np.argsort(values), np.argsort(out))

    def test_impose_spectrum_matches_magnitude(self):
        rng = np.random.default_rng(7)
        img = rng.standard_normal((32, 32))
        target = np.abs(np.fft.rfft2(rng.standard_normal((32, 32))))
        # Targets produced by analyze() are mean-removed, so DC is zero.
        target[0, 0] = 0.0
        out = impose_spectrum(img, target)
        got = np.abs(np.fft.rfft2(out - out.mean()))
        assert np.allclose(got, target, atol=1e-8)

    def test_impose_moments_mean_var_exact(self):
        rng = np.random.default_rng(8)
        values = rng.random(500)
        target = np.array([2.0, 4.0, 0.0, 3.0])
        out = impose_moments(values, target)
        got = moments(out)
        assert got[0] == pytest.approx(2.0, abs=1e-9)
        assert got[1] == pytest.approx(4.0, abs=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    @example(598)  # a full cubic-warp step lowered kurtosis here
    def test_impose_moments_nudges_kurtosis(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(2000)
        high_kurt = np.array([0.0, 1.0, 0.0, 5.0])
        out = impose_moments(values, high_kurt, iterations=5)
        assert moments(out)[3] > moments(values)[3]


class TestAnalyzeSynthesize:
    def test_statistics_shapes(self):
        img = texture_sample(InputSize.SQCIF, 0, "stochastic")
        stats = analyze(img, n_levels=3, n_orientations=4)
        assert stats.pixel_moments.shape == (4,)
        assert len(stats.band_energies) == 3
        assert all(c.shape == (4, 4) for c in stats.cross_correlations)
        assert stats.histogram.size == img.size

    def test_self_distance_zero(self):
        img = texture_sample(InputSize.SQCIF, 0, "stochastic")
        stats = analyze(img)
        assert stats.distance(stats) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["stochastic", "structural"])
    def test_synthesis_converges(self, kind):
        exemplar = texture_sample(InputSize.SQCIF, 0, kind)
        result = synthesize_from_exemplar(exemplar, iterations=6, seed=0)
        assert result.residuals[-1] < result.residuals[0]
        assert result.texture.shape == exemplar.shape

    def test_synthesis_matches_histogram_and_moments(self):
        exemplar = texture_sample(InputSize.SQCIF, 1, "structural")
        result = synthesize_from_exemplar(exemplar, iterations=4, seed=1)
        target = result.target.pixel_moments
        got = moments(result.texture)
        assert got[0] == pytest.approx(target[0], abs=0.01)
        assert got[1] == pytest.approx(target[1], rel=0.1)

    def test_enlarging_synthesis(self):
        exemplar = texture_sample(InputSize.SQCIF, 0, "stochastic")
        out_shape = (exemplar.shape[0] * 2, exemplar.shape[1] * 2)
        result = synthesize_from_exemplar(
            exemplar, out_shape=out_shape, iterations=3, seed=0
        )
        assert result.texture.shape == out_shape


class TestBenchmarkWiring:
    def test_run_and_kernels(self):
        workload = BENCHMARK.setup(InputSize.SQCIF, 0)
        profiler = KernelProfiler()
        with profiler.run():
            out = BENCHMARK.run(workload, profiler)
        assert out["final_residual"] < out["initial_residual"] * 1.05
        for kernel in ("Sampling", "MatrixOps", "Kurtosis", "PCA"):
            assert kernel in profiler.kernel_seconds

    def test_variant_parity_selects_kind(self):
        even = BENCHMARK.setup(InputSize.SQCIF, 0)
        odd = BENCHMARK.setup(InputSize.SQCIF, 1)
        assert even[1] == "stochastic"
        assert odd[1] == "structural"

    def test_parallelism_iteration_bound(self):
        rows = {r.kernel: r for r in BENCHMARK.parallelism(InputSize.SQCIF)}
        # The synthesis loop serializes across iterations; PCA's tiny
        # rotations are the narrowest kernel.
        assert rows["PCA"].parallelism < rows["Sampling"].parallelism
        assert rows["Sampling"].parallelism > 100
