"""Tests for MCL recovery."""

import numpy as np

from repro.core import InputSize
from repro.core.inputs import robot_world
from repro.localization import MonteCarloLocalizer, ParticleSet, \
    default_particle_count, position_error


class TestKidnappedRobot:
    def test_recovery_after_confident_wrong_start(self):
        """Tracking mode initialized at the wrong pose: the augmented-MCL
        recovery injection must relocalize within the trace."""
        world = robot_world(InputSize.SQCIF, 0, n_steps=48)
        n = default_particle_count(world)
        localizer = MonteCarloLocalizer(world=world, n_particles=n, seed=0)
        # Confidently wrong: a tight cluster far from the true start.
        x0, y0, t0 = world.start_pose
        wrong_x = world.grid.shape[1] - x0
        rng = np.random.default_rng(1)
        free = world.grid[
            np.clip(int(y0), 0, None), np.clip(int(wrong_x), 0, None)
        ]
        localizer.particles = ParticleSet(
            x=np.clip(wrong_x + rng.normal(0, 0.3, n), 1.0,
                      world.grid.shape[1] - 1.001),
            y=np.clip(y0 + rng.normal(0, 0.3, n), 1.0,
                      world.grid.shape[0] - 1.001),
            theta=t0 + rng.normal(0, 0.05, n),
            weights=np.full(n, 1.0 / n),
        )
        del free
        estimates = []
        for control, ranges in zip(world.controls, world.measurements):
            estimates.append(localizer.step(control, ranges))
        final_error = position_error(estimates, world.true_poses)
        assert final_error < 2.0

    def test_recovery_injection_responds_to_bad_likelihood(self):
        world = robot_world(InputSize.SQCIF, 0, n_steps=8)
        localizer = MonteCarloLocalizer(world=world, n_particles=200,
                                        seed=0)
        # Feed measurements consistent with the true pose: w_fast stays
        # near w_slow, so the recovery deficit is small.
        for control, ranges in zip(world.controls, world.measurements):
            localizer.step(control, ranges)
        assert localizer._w_slow > 0.0
        healthy_ratio = localizer._w_fast / localizer._w_slow
        # Now feed garbage measurements: w_fast collapses.
        garbage = np.full(world.n_beams, world.max_range)
        localizer.measurement_update(garbage)
        localizer.measurement_update(garbage)
        assert localizer._w_fast / localizer._w_slow < healthy_ratio
