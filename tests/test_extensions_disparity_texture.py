"""Tests for SAD disparity and the Efros-Leung baseline."""

import numpy as np
import pytest

from repro.core import InputSize, KernelProfiler
from repro.core.inputs import stereo_pair, texture_sample
from repro.disparity import (
    dense_disparity_sad,
    disparity_error,
)
from repro.texture import analyze, synthesize_efros_leung


class TestSadMatching:
    def test_recovers_truth(self):
        pair = stereo_pair(InputSize.SQCIF, 0, max_disparity=12)
        result = dense_disparity_sad(pair.left, pair.right,
                                     max_disparity=16)
        assert disparity_error(result, pair.true_disparity) < 1.0

    def test_profiles_same_kernels(self):
        pair = stereo_pair(InputSize.SQCIF, 1, max_disparity=12)
        profiler = KernelProfiler()
        with profiler.run():
            dense_disparity_sad(pair.left, pair.right, max_disparity=8,
                                profiler=profiler)
        for kernel in ("SSD", "IntegralImage", "Correlation", "Sort"):
            assert kernel in profiler.kernel_seconds

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dense_disparity_sad(np.ones((8, 8)), np.ones((8, 9)))
        with pytest.raises(ValueError):
            dense_disparity_sad(np.ones((8, 8)), np.ones((8, 8)),
                                max_disparity=0)


class TestEfrosLeung:
    def test_grows_full_output(self):
        exemplar = texture_sample(InputSize.SQCIF, 0, "structural")[:20, :20]
        result = synthesize_efros_leung(exemplar, (28, 28), window=7,
                                        seed=0)
        assert result.texture.shape == (28, 28)
        assert result.pixels_synthesized == 28 * 28 - 7 * 7

    def test_output_values_from_exemplar(self):
        exemplar = texture_sample(InputSize.SQCIF, 1, "structural")[:18, :18]
        result = synthesize_efros_leung(exemplar, (24, 24), window=5,
                                        seed=1)
        # Every synthesized value is copied from some exemplar pixel.
        exemplar_values = set(np.round(exemplar.ravel(), 12))
        synth_values = set(np.round(result.texture.ravel(), 12))
        assert synth_values <= exemplar_values | {0.0}

    def test_statistically_closer_than_noise(self):
        exemplar = texture_sample(InputSize.SQCIF, 0, "structural")[:24, :24]
        result = synthesize_efros_leung(exemplar, (32, 32), window=7,
                                        seed=0)
        target = analyze(exemplar, n_levels=2)
        synth_stats = analyze(result.texture, n_levels=2)
        noise = np.random.default_rng(0).random((32, 32))
        noise_stats = analyze(noise, n_levels=2)
        assert target.distance(synth_stats) < target.distance(noise_stats)

    def test_input_validation(self):
        exemplar = np.random.default_rng(2).random((16, 16))
        with pytest.raises(ValueError):
            synthesize_efros_leung(exemplar, (32, 32), window=4)
        with pytest.raises(ValueError):
            synthesize_efros_leung(exemplar, (4, 4), window=7)
        with pytest.raises(ValueError):
            synthesize_efros_leung(exemplar[:4, :4], (32, 32), window=7)
