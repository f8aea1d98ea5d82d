"""Monte Carlo localization: particle filter over an occupancy grid.

The SD-VBS benchmark implements MCL: particles carry pose hypotheses
``(x, y, theta)``; each control step applies a noisy motion model, each
measurement step weights particles by a Gaussian range-sensor likelihood
computed by ray casting, and the particle set is renewed by weighted
resampling.

Kernel attribution (paper Figure 3): the motion update and measurement
weighting are the ``ParticleFilter`` kernel; the weighted-sample draw
(which the paper measures at ~50% of runtime) is the ``Sampling`` kernel.
Both lean on trigonometric math, matching the paper's note about heavy
floating-point use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import List, Optional, Tuple

import numpy as np

from ..core.inputs import RobotWorld
from ..core.profiler import KernelProfiler, ensure_profiler


@dataclass
class ParticleSet:
    """Particle states (flat arrays) plus normalized weights."""

    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.x.size

    def mean_pose(self) -> Tuple[float, float, float]:
        """Weighted mean position and circular-mean heading."""
        w = self.weights
        mx = float(np.sum(w * self.x))
        my = float(np.sum(w * self.y))
        mt = math.atan2(
            float(np.sum(w * np.sin(self.theta))),
            float(np.sum(w * np.cos(self.theta))),
        )
        return mx, my, mt

    def effective_sample_size(self) -> float:
        """1 / sum(w^2): collapses toward 1 as weights degenerate."""
        return float(1.0 / np.sum(self.weights**2))


#: Slack taken off a cell's clearance before it is turned into whole
#: steps; it covers the rounding of the sample-point coordinates (about
#: 1e-13 cells on a map a thousand cells across).
CLEARANCE_MARGIN = 1e-6
#: Below this many marching rays, a pass tests ``TAIL_WINDOW`` points of
#: each ray instead of one (fewer passes for the last, wall-grazing rays).
TAIL_RAYS = 256
TAIL_WINDOW = 16


def ray_clearance(grid: np.ndarray) -> np.ndarray:
    """Per-cell clearance of an occupancy grid, padded by one cell.

    Entry ``[r + 1, c + 1]`` is, for a free cell ``(r, c)``, the least
    distance from any point of that cell to an occupied cell or to the
    outside of the map.  Occupied cells and the ring of cells around the
    map hold -1.  The outside is treated as a ring of occupied cells, so
    each entry is ``min hypot(gap_x, gap_y)`` over occupied cells, where
    a gap counts the whole cells strictly between the two cells.
    """
    rows, cols = grid.shape
    occupied = np.ones((rows + 2, cols + 2), dtype=bool)
    occupied[1:-1, 1:-1] = np.asarray(grid) != 0
    col = np.arange(cols + 2)
    # Per row, the column gap to that row's nearest occupied cell; every
    # row has one at each end (the ring).
    left = np.maximum.accumulate(np.where(occupied, col, -1), axis=1)
    right = np.minimum.accumulate(
        np.where(occupied, col, cols + 2)[:, ::-1], axis=1)[:, ::-1]
    row_gap = np.maximum(np.minimum(col - left, right - col) - 1, 0)
    row_gap_sq = (row_gap * row_gap).astype(np.float64)
    best = np.full((rows + 2, cols + 2), np.inf)
    row = np.arange(rows + 2)
    for other in range(rows + 2):
        gap = np.maximum(np.abs(row - other) - 1, 0).astype(np.float64)
        np.minimum(best, row_gap_sq[other] + (gap * gap)[:, None], out=best)
    clearance = np.sqrt(best)
    clearance[occupied] = -1.0
    return clearance


def raycast_batch(
    grid: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    angles: np.ndarray,
    max_range: float,
    step: float = 0.25,
    clearance: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Vectorized ray casting: distance to the first occupied cell.

    All inputs are flat arrays of equal length.  A ray samples the points
    ``x + d_k * cos``, ``y + d_k * sin`` for ``d_k = k * step`` (``d_k``
    summed one ``step`` at a time), ``k = 0 .. int(max_range / step)``,
    and stops at the first point that lies in an occupied cell or off the
    map; the result is that point's ``d_k``, or ``d_{k_max + 1}``, capped
    at ``max_range``.

    Clearance invariant: no sample point closer than ``clearance`` (see
    :func:`ray_clearance`) to a point of a free cell can lie in an
    occupied cell or off the map.  So from a free sample point the march
    skips the ``floor((clearance - CLEARANCE_MARGIN) / step)`` points that
    follow it without looking them up, and tests the next one.  Every
    point it tests is computed as above, so each distance equals the one
    a one-step-at-a-time march returns, bit for bit.  Once few rays are
    left, each pass tests ``TAIL_WINDOW`` consecutive points per ray, so
    the rays that graze walls take fewer passes.  Pass the grid's
    ``clearance`` to reuse it across calls; temporaries stay O(rays).
    """
    rows, cols = grid.shape
    if clearance is None:
        clearance = ray_clearance(grid)
    n_steps = max(int(max_range / step) + 1, 0)
    # A ray that starts on the map has left it (and stopped) once it has
    # gone further than the map's diagonal: later points are never used.
    n_points = min(n_steps, int(math.hypot(rows, cols) / step) + 3)
    width = cols + 2
    # Per cell, how far ahead of a free point the next point to test is:
    # 0 (stop) on occupied cells and the ring.  Rolled so that the flat
    # index ``fy * width + fx`` of cell (fy, fx), negative on the ring's
    # near side, wraps onto its entry.
    ahead = np.where(
        clearance < 0, 0,
        1 + np.floor(np.maximum(clearance - CLEARANCE_MARGIN, 0.0) / step),
    ).astype(np.int64).ravel()
    ahead = np.roll(ahead, -(width + 1))

    def ahead_of(px, py, clamp):
        # A point within one cell of the map lands on the ring as it is;
        # ``clamp`` moves points further out onto it.
        fx, fy = np.floor(px), np.floor(py)
        if clamp:
            np.clip(fx, -1, cols, out=fx)
            np.clip(fy, -1, rows, out=fy)
        flat = (fy * width + fx).astype(np.int64)
        return ahead.take(flat, mode="wrap")

    offsets = np.fromiter(
        accumulate(repeat(step, n_points + TAIL_WINDOW), initial=0.0),
        dtype=np.float64, count=n_points + TAIL_WINDOW + 1)
    cos_t = np.cos(angles)
    sin_t = np.sin(angles)
    # Rays starting off the map (or along a NaN heading) stop at once.
    start = ((x >= 0) & (x < cols) & (y >= 0) & (y < rows)
             & np.isfinite(cos_t))
    stop = np.where(start, n_steps, 0)
    ray = np.flatnonzero(start)
    k = np.zeros(ray.size, dtype=np.int64)  # each ray's next point
    ox, oy, cx, cy = x[ray], y[ray], cos_t[ray], sin_t[ray]

    def retire(done):
        stop[ray[done]] = np.minimum(k[done], n_steps)
        live = ~done
        return (ray[live], k[live], ox[live], oy[live], cx[live],
                cy[live])

    # Every tested point is at most one step past a free point of the map,
    # so it needs no clamp unless a step can cross the one-cell ring.
    while ray.size > TAIL_RAYS:
        d = offsets[k]
        jump = ahead_of(ox + d * cx, oy + d * cy, clamp=step > 0.5)
        k += jump
        ray, k, ox, oy, cx, cy = retire((jump == 0) | (k >= n_steps))
    lanes = np.arange(TAIL_WINDOW)
    ox, oy, cx, cy = ox[:, None], oy[:, None], cx[:, None], cy[:, None]
    while ray.size:
        points = k[:, None] + lanes
        d = offsets[points]
        # Lanes past a ray's first stop may be far off the map; they are
        # clamped onto the ring and never read.
        jump = ahead_of(ox + d * cx, oy + d * cy, clamp=True)
        blocked = jump == 0
        hit = blocked.any(axis=1)
        k = np.where(hit, k + blocked.argmax(axis=1),
                     (points + jump).max(axis=1))
        ray, k, ox, oy, cx, cy = retire(hit | (k >= n_steps))
    return np.minimum(offsets[stop], max_range)


@dataclass
class MonteCarloLocalizer:
    """MCL state machine bound to one occupancy-grid world."""

    world: RobotWorld
    n_particles: int = 200
    motion_noise_turn: float = 0.08
    motion_noise_dist: float = 0.15
    sensor_sigma: float = 3.5
    recovery_fraction: float = 0.15
    seed: int = 0
    particles: ParticleSet = field(init=False)
    _rng: np.random.Generator = field(init=False)
    _clearance: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        self._rng = np.random.default_rng(self.seed)
        # Built per localizer, so every localize() call pays for it.
        self._clearance = ray_clearance(self.world.grid)
        self.particles = self._initial_particles()
        # Augmented-MCL likelihood averages (Thrun et al.): recovery
        # particles are injected in proportion to how much the short-term
        # average measurement likelihood falls below the long-term one.
        self._w_slow = 0.0
        self._w_fast = 0.0

    def _initial_particles(self) -> ParticleSet:
        """Uniform particles over free space (global localization)."""
        grid = self.world.grid
        free_r, free_c = np.nonzero(grid == 0)
        picks = self._rng.integers(0, free_r.size, self.n_particles)
        x = free_c[picks] + self._rng.random(self.n_particles)
        y = free_r[picks] + self._rng.random(self.n_particles)
        theta = self._rng.uniform(-math.pi, math.pi, self.n_particles)
        weights = np.full(self.n_particles, 1.0 / self.n_particles)
        return ParticleSet(x=x, y=y, theta=theta, weights=weights)

    # ------------------------------------------------------------------

    def motion_update(self, turn: float, dist: float,
                      profiler: Optional[KernelProfiler] = None) -> None:
        """Propagate particles through the noisy odometry model."""
        profiler = ensure_profiler(profiler)
        p = self.particles
        with profiler.kernel("ParticleFilter"):
            noisy_turn = turn + self._rng.normal(
                0.0, self.motion_noise_turn, p.size
            )
            noisy_dist = dist + self._rng.normal(
                0.0, self.motion_noise_dist, p.size
            )
            p.theta = np.mod(
                p.theta + noisy_turn + math.pi, 2.0 * math.pi
            ) - math.pi
            p.x = p.x + noisy_dist * np.cos(p.theta)
            p.y = p.y + noisy_dist * np.sin(p.theta)
            rows, cols = self.world.grid.shape
            p.x = np.clip(p.x, 0.0, cols - 1e-6)
            p.y = np.clip(p.y, 0.0, rows - 1e-6)

    def measurement_update(self, ranges: np.ndarray,
                           profiler: Optional[KernelProfiler] = None) -> None:
        """Reweight particles by the range-scan likelihood."""
        profiler = ensure_profiler(profiler)
        p = self.particles
        world = self.world
        n_beams = world.n_beams
        with profiler.kernel("ParticleFilter"):
            bearings = np.linspace(-math.pi, math.pi, n_beams, endpoint=False)
            all_x = np.repeat(p.x, n_beams)
            all_y = np.repeat(p.y, n_beams)
            all_angles = (
                np.repeat(p.theta, n_beams) + np.tile(bearings, p.size)
            )
            expected = raycast_batch(
                world.grid, all_x, all_y, all_angles, world.max_range,
                clearance=self._clearance,
            ).reshape(p.size, n_beams)
            diff = expected - np.asarray(ranges)[None, :]
            log_like = -0.5 * np.sum(
                (diff / self.sensor_sigma) ** 2, axis=1
            )
            # Track the average absolute likelihood for adaptive recovery.
            w_avg = float(np.exp(np.clip(log_like, -500, 0)).mean())
            self._w_slow += 0.05 * (w_avg - self._w_slow)
            self._w_fast += 0.5 * (w_avg - self._w_fast)
            log_like -= log_like.max()
            weights = p.weights * np.exp(log_like)
            total = weights.sum()
            if total <= 0.0 or not np.isfinite(total):
                weights = np.full(p.size, 1.0 / p.size)
            else:
                weights = weights / total
            # Kidnapped-robot hedge: occupied-cell particles get killed.
            occ = world.grid[
                p.y.astype(np.int64), p.x.astype(np.int64)
            ] != 0
            weights[occ] = 0.0
            total = weights.sum()
            p.weights = (
                weights / total if total > 0 else np.full(p.size, 1.0 / p.size)
            )

    def resample(self, profiler: Optional[KernelProfiler] = None) -> None:
        """Systematic weighted resampling — the paper's Sampling kernel.

        A small ``recovery_fraction`` of particles is re-drawn uniformly
        over free space (augmented MCL), so global localization can
        recover when the true mode was starved of particles early on.
        """
        profiler = ensure_profiler(profiler)
        p = self.particles
        with profiler.kernel("Sampling"):
            positions = (
                self._rng.random() + np.arange(p.size)
            ) / p.size
            cumulative = np.cumsum(p.weights)
            cumulative[-1] = 1.0  # guard against round-off
            picks = np.searchsorted(cumulative, positions)
            jitter_xy = self._rng.normal(0.0, 0.08, (2, p.size))
            jitter_t = self._rng.normal(0.0, 0.02, p.size)
            new = ParticleSet(
                x=p.x[picks] + jitter_xy[0],
                y=p.y[picks] + jitter_xy[1],
                theta=p.theta[picks] + jitter_t,
                weights=np.full(p.size, 1.0 / p.size),
            )
            if self._w_slow > 0.0:
                deficit = max(0.0, 1.0 - self._w_fast / self._w_slow)
            else:
                deficit = 1.0
            n_recover = int(self.recovery_fraction * deficit * p.size)
            if n_recover > 0:
                fresh = self._initial_particles()
                slots = self._rng.choice(p.size, n_recover, replace=False)
                new.x[slots] = fresh.x[:n_recover]
                new.y[slots] = fresh.y[:n_recover]
                new.theta[slots] = fresh.theta[:n_recover]
            self.particles = new

    def step(self, control: Tuple[float, float], ranges: np.ndarray,
             profiler: Optional[KernelProfiler] = None,
             resample_threshold: float = 0.3) -> Tuple[float, float, float]:
        """One full MCL iteration; returns the posterior mean pose.

        The pose estimate is taken from the *weighted* posterior, before
        resampling injects its recovery particles.
        """
        self.motion_update(*control, profiler=profiler)
        self.measurement_update(ranges, profiler=profiler)
        pose = self.particles.mean_pose()
        if (
            self.particles.effective_sample_size()
            < resample_threshold * self.particles.size
        ):
            self.resample(profiler=profiler)
        return pose


def default_particle_count(world: RobotWorld, base: int = 800) -> int:
    """Particle budget scaled with map area (global localization needs
    coverage of the pose space, which grows with the map)."""
    side = world.grid.shape[0]
    return int(base * (side / 24.0) ** 2)


def localize(
    world: RobotWorld,
    n_particles: int = 0,
    seed: int = 0,
    mode: str = "global",
    profiler: Optional[KernelProfiler] = None,
) -> List[Tuple[float, float, float]]:
    """Run MCL over a world's full control/measurement trace.

    ``mode="global"`` starts from a uniform prior over free space (the
    paper's global position estimation subtask); ``mode="tracking"``
    initializes particles around the known start pose (the local tracking
    subtask).  Returns the posterior mean pose after every step.
    """
    if mode not in ("global", "tracking"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_particles <= 0:
        n_particles = default_particle_count(world)
    localizer = MonteCarloLocalizer(
        world=world, n_particles=n_particles, seed=seed
    )
    if mode == "tracking":
        x0, y0, t0 = world.start_pose
        rng = np.random.default_rng(seed + 1)
        n = localizer.particles.size
        localizer.particles = ParticleSet(
            x=x0 + rng.normal(0.0, 0.3, n),
            y=y0 + rng.normal(0.0, 0.3, n),
            theta=t0 + rng.normal(0.0, 0.05, n),
            weights=np.full(n, 1.0 / n),
        )
    estimates = []
    for control, ranges in zip(world.controls, world.measurements):
        estimates.append(localizer.step(control, ranges, profiler=profiler))
    return estimates


def position_error(
    estimates: List[Tuple[float, float, float]],
    truth: List[Tuple[float, float, float]],
    tail: int = 5,
) -> float:
    """Mean Euclidean position error over the final ``tail`` steps."""
    if len(estimates) != len(truth):
        raise ValueError("trace length mismatch")
    pairs = list(zip(estimates, truth))[-tail:]
    errors = [
        math.hypot(est[0] - true[0], est[1] - true[1])
        for est, true in pairs
    ]
    return sum(errors) / len(errors)
