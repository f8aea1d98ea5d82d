"""Tests for occupancy mapping and dense optical flow."""

import numpy as np
import pytest

from repro.core import InputSize
from repro.core.inputs import robot_world, sequence
from repro.localization.mapping import (
    OccupancyGridMapper,
    map_from_trace,
    map_quality,
)
from repro.tracking.dense_flow import dense_flow, iterative_dense_flow


class TestOccupancyMapping:
    def test_map_from_known_poses(self):
        world = robot_world(InputSize.SQCIF, 0, n_steps=40)
        mapper = map_from_trace(world)
        recall, precision = map_quality(mapper, world.grid)
        assert mapper.known_fraction() > 0.3
        assert precision > 0.9  # free-space estimates are trustworthy
        assert recall > 0.5  # observed walls mostly recovered

    def test_single_scan_marks_ray(self):
        mapper = OccupancyGridMapper(shape=(20, 20), max_range=20.0,
                                     n_beams=8)
        ranges = np.full(8, 5.0)
        mapper.integrate_scan((10.0, 10.0, 0.0), ranges)
        probability = mapper.occupancy_probability()
        # Cells along the +x ray should look free, the endpoint occupied.
        assert probability[10, 12] < 0.5
        assert probability[10, 15] > 0.5

    def test_maxed_beams_add_no_walls(self):
        mapper = OccupancyGridMapper(shape=(16, 16), max_range=10.0,
                                     n_beams=8)
        mapper.integrate_scan((8.0, 8.0, 0.0), np.full(8, 10.0))
        assert mapper.binary_map().sum() == 0
        assert mapper.known_fraction() > 0.0

    def test_log_odds_clamped(self):
        mapper = OccupancyGridMapper(shape=(12, 12), max_range=12.0,
                                     n_beams=8, clamp=2.0)
        for _ in range(50):
            mapper.integrate_scan((6.0, 6.0, 0.0), np.full(8, 3.0))
        assert np.abs(mapper.log_odds).max() <= 2.0

    def test_scan_shape_checked(self):
        mapper = OccupancyGridMapper(shape=(12, 12), max_range=12.0,
                                     n_beams=8)
        with pytest.raises(ValueError):
            mapper.integrate_scan((6.0, 6.0, 0.0), np.ones(5))


class TestDenseFlow:
    def test_recovers_subpixel_shift(self):
        # One-shot LK linearizes the brightness constancy equation, so it
        # is exact only for small (sub-pixel) motion: synthesize a true
        # 0.4-pixel shift by bilinear resampling.
        rng = np.random.default_rng(0)
        from repro.imgproc.filters import gaussian_blur
        from repro.imgproc.interpolate import bilinear

        canvas = gaussian_blur(rng.random((80, 100)), 2.0)
        rows, cols = 64, 84
        rr, cc = np.mgrid[2 : 2 + rows, 2 : 2 + cols].astype(np.float64)
        prev = bilinear(canvas, rr, cc)
        nxt = bilinear(canvas, rr + 0.4, cc + 0.4)
        # A feature at p in prev appears at p - 0.4 in next.
        field = dense_flow(prev, nxt)
        assert field.valid.mean() > 0.3
        dy, dx = field.median_motion()
        assert dy == pytest.approx(-0.4, abs=0.15)
        assert dx == pytest.approx(-0.4, abs=0.15)

    def test_zero_motion(self):
        seq = sequence(InputSize.SQCIF, 0, n_frames=2)
        field = dense_flow(seq.frames[0], seq.frames[0])
        dy, dx = field.median_motion()
        assert abs(dy) < 0.05 and abs(dx) < 0.05

    def test_iterative_handles_multi_pixel_motion(self):
        seq = sequence(InputSize.SQCIF, 1, n_frames=2)
        field = iterative_dense_flow(seq.frames[0], seq.frames[1],
                                     iterations=4)
        dy, dx = field.median_motion()
        true_dy, true_dx = seq.true_motion
        assert dy == pytest.approx(true_dy, abs=0.5)
        assert dx == pytest.approx(true_dx, abs=0.5)

    def test_flat_frames_all_invalid(self):
        flat = np.full((32, 32), 0.5)
        field = dense_flow(flat, flat)
        assert not field.valid.any()
        with pytest.raises(ValueError):
            field.median_motion()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dense_flow(np.ones((8, 8)), np.ones((8, 9)))

