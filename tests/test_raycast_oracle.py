"""The clearance-skipping ray march against the one-step march it replaced.

``one_step_raycast`` is the original ``raycast_batch``: every ray advances
one ``step`` per pass and looks up every sample point.  The clearance
march must return exactly the same distances (``np.array_equal``, and the
same bytes) on any grid, origin, heading, ``step`` and ``max_range``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InputSize
from repro.core.inputs import robot_world
from repro.localization import MonteCarloLocalizer, raycast_batch
from repro.localization.particle_filter import ray_clearance


def one_step_raycast(grid, x, y, angles, max_range, step=0.25):
    """Reference: the original one-step-at-a-time ray march."""
    rows, cols = grid.shape
    n = x.size
    dist = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    cos_t = np.cos(angles)
    sin_t = np.sin(angles)
    n_steps = int(max_range / step) + 1
    for _ in range(n_steps):
        if not alive.any():
            break
        px = x[alive] + dist[alive] * cos_t[alive]
        py = y[alive] + dist[alive] * sin_t[alive]
        inside = (px >= 0) & (px < cols) & (py >= 0) & (py < rows)
        hit = np.zeros(inside.shape, dtype=bool)
        if inside.any():
            gx = px[inside].astype(np.int64)
            gy = py[inside].astype(np.int64)
            occupied = grid[gy, gx] != 0
            hit_inside = np.zeros(inside.shape, dtype=bool)
            hit_inside[np.nonzero(inside)[0][occupied]] = True
            hit = hit_inside
        done = hit | ~inside
        alive_idx = np.nonzero(alive)[0]
        alive[alive_idx[done]] = False
        still = alive_idx[~done]
        dist[still] += step
    return np.minimum(dist, max_range)


def assert_same(grid, x, y, angles, max_range, step=0.25):
    expected = one_step_raycast(grid, x, y, angles, max_range, step)
    got = raycast_batch(grid, x, y, angles, max_range, step)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def edge_case_rays(rng, rows, cols, n):
    """Origins anywhere (inside, outside, on cell edges) and headings
    that are random, axis-aligned or a hair off an axis."""
    x = rng.uniform(-2.0, cols + 2.0, n)
    y = rng.uniform(-2.0, rows + 2.0, n)
    on_edge = rng.random(n) < 0.3
    x[on_edge] = rng.integers(-1, cols + 2, on_edge.sum())
    y[on_edge] = rng.integers(-1, rows + 2, on_edge.sum())
    angles = rng.uniform(-math.pi, math.pi, n)
    axis = rng.random(n) < 0.4
    quarter = rng.integers(-2, 3, axis.sum()) * (math.pi / 2)
    nudge = rng.choice([0.0, 1e-15, -1e-12, 1e-9, -1e-6], axis.sum())
    angles[axis] = quarter + nudge
    return x, y, angles


class TestOneStepOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        step=st.sampled_from([0.25, 0.1, 0.3, 0.5, 0.75, 1.0, 1.7, 6.0]),
        density=st.floats(0.0, 0.6),
    )
    @example(seed=0, step=0.25, density=0.0)  # no walls: rays leave the map
    @example(seed=1, step=0.25, density=0.3)
    @example(seed=2, step=0.1, density=0.2)  # offsets not exact multiples
    @example(seed=3, step=1.0, density=0.1)  # step of a whole cell
    @example(seed=4, step=1.7, density=0.05)  # step longer than a cell
    @example(seed=5, step=6.0, density=0.02)
    def test_random_grids(self, seed, step, density):
        rng = np.random.default_rng(seed)
        rows, cols = (int(v) for v in rng.integers(1, 40, 2))
        grid = (rng.random((rows, cols)) < density).astype(np.int8)
        x, y, angles = edge_case_rays(rng, rows, cols, 400)
        # Not a multiple of ``step``; sometimes shorter than one step.
        max_range = float(rng.uniform(0.0, 1.5 * max(rows, cols)))
        assert_same(grid, x, y, angles, max_range, step)

    def test_max_range_not_a_multiple_of_step(self):
        grid = np.zeros((30, 30), dtype=np.int8)
        x, y = np.full(8, 15.0), np.full(8, 15.0)
        angles = np.linspace(-math.pi, math.pi, 8, endpoint=False)
        for max_range in (0.0, 0.1, 0.25, 3.3, 7.49, 7.5, 7.51, 40.0, 1e9):
            assert_same(grid, x, y, angles, max_range)

    def test_origins_on_cell_edges_and_outside(self):
        grid = np.zeros((10, 12), dtype=np.int8)
        grid[4:6, 5:7] = 1
        coords = np.array([-1.0, -1e-300, 0.0, 1.0, 4.0, 5.0, 7.0, 11.0,
                           12.0, 12.0 - 1e-14, 13.0, np.inf])
        x, y = (a.ravel() for a in np.meshgrid(coords, coords))
        for angle in (0.0, math.pi / 2, math.pi, -math.pi / 2, 0.3,
                      math.pi / 4, 1e-17):
            assert_same(grid, x, y, np.full(x.size, angle), 20.0)

    def test_nan_headings_stop_at_once(self):
        grid = np.zeros((5, 5), dtype=np.int8)
        x, y = np.full(3, 2.5), np.full(3, 2.5)
        angles = np.array([np.nan, np.inf, 0.0])
        with np.errstate(invalid="ignore"):
            assert_same(grid, x, y, angles, 10.0)

    @pytest.mark.parametrize("size", ["SQCIF", "CIF"])
    @pytest.mark.parametrize("variant", range(5))
    def test_robot_world_maps(self, size, variant):
        world = robot_world(InputSize[size], variant, n_steps=2)
        localizer = MonteCarloLocalizer(world=world, n_particles=300,
                                        seed=variant)
        p = localizer.particles
        beams = np.linspace(-math.pi, math.pi, world.n_beams,
                            endpoint=False)
        x = np.repeat(p.x, world.n_beams)
        y = np.repeat(p.y, world.n_beams)
        angles = np.repeat(p.theta, world.n_beams) + np.tile(beams, p.size)
        assert_same(world.grid, x, y, angles, world.max_range)
        rows, cols = world.grid.shape
        rng = np.random.default_rng(variant)
        assert_same(world.grid, *edge_case_rays(rng, rows, cols, 2000),
                    world.max_range)


class TestClearance:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 0.5))
    @example(seed=0, density=0.0)
    def test_matches_brute_force(self, seed, density):
        rng = np.random.default_rng(seed)
        rows, cols = (int(v) for v in rng.integers(1, 12, 2))
        grid = (rng.random((rows, cols)) < density).astype(np.int8)
        padded = np.ones((rows + 2, cols + 2), dtype=bool)
        padded[1:-1, 1:-1] = grid != 0
        occ_r, occ_c = np.nonzero(padded)
        expected = np.full(padded.shape, -1.0)
        for r, c in zip(*np.nonzero(~padded)):
            gap_r = np.maximum(np.abs(occ_r - r) - 1, 0)
            gap_c = np.maximum(np.abs(occ_c - c) - 1, 0)
            expected[r, c] = np.sqrt(gap_r**2 + gap_c**2).min()
        assert np.array_equal(ray_clearance(grid), expected)
