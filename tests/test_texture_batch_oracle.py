"""Texture's stacked filter dispatch, stacked PCA Jacobi and Laplacian-only
synthesis pyramid against the per-item code they replaced.

``reference_build_pyramid`` is the original pyramid: four ``convolve2d``
calls per band-pass level, with the steered kernels rebuilt per call.
``reference_convolve2d`` is the original one-kernel correlation, and
``reference_jacobi_eigh`` the original one-matrix cyclic Jacobi.
``reference_synthesize`` is the original synthesis loop, which built the
full oriented pyramid and rescaled only its band-pass levels.  The
rewrite must give the same bytes: every level's oriented bands, every
eigenpair of every item of a stack (including items that never rotate,
repeated eigenvalues, 1x1 matrices and items that converge in different
sweeps), and every synthesized texture and residual.
"""

import functools
import math

import numpy as np
import pytest

from repro.core import InputSize, KernelProfiler
from repro.core.backend import use_backend
from repro.imgproc.convolution import _work_convolve, convolve2d
from repro.imgproc.filters import gaussian_blur
from repro.imgproc.interpolate import downsample2, resize
from repro.linalg.eigen import jacobi_eigh
from repro.texture import benchmark as texture_bench
from repro.texture import (
    analyze,
    build_pyramid,
    impose_moments,
    impose_spectrum,
    laplacian_pyramid,
    match_histogram,
    oriented_kernel,
    reconstruct,
    synthesize,
)
from repro.texture import stats as texture_stats

BACKENDS = ("fast", "ref")
CELLS = [(size, v) for size in ("SQCIF", "CIF") for v in range(5)]


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Oracles: the per-item code the rewrite replaced


def reference_build_pyramid(image, n_levels=3, n_orientations=4):
    """Reference: band-pass levels and four single-kernel calls per level."""
    image = np.asarray(image, dtype=np.float64)
    kernels = [oriented_kernel(math.pi * k / n_orientations)
               for k in range(n_orientations)]
    bandpass, bands = [], []
    current = image
    for _ in range(n_levels):
        if min(current.shape) < 8:
            break
        blurred = gaussian_blur(current, 1.0)
        down = downsample2(blurred)
        band = current - resize(down, *current.shape)
        bandpass.append(band)
        bands.append([convolve2d(band, k) for k in kernels])
        current = down
    return bandpass, bands, current


def reference_convolve2d(image, kernel):
    """Reference: the original one-kernel fast correlation."""
    krows, kcols = kernel.shape
    half_r, half_c = krows // 2, kcols // 2
    half = max(half_r, half_c)
    padded = np.pad(np.asarray(image, dtype=np.float64), half, mode="edge")
    rows, cols = image.shape
    out = np.zeros((rows, cols), dtype=np.float64)
    for kr in range(krows):
        for kc in range(kcols):
            weight = kernel[kr, kc]
            if weight == 0.0:
                continue
            out += weight * padded[half - half_r + kr:half - half_r + kr + rows,
                                   half - half_c + kc:half - half_c + kc + cols]
    return out


def reference_jacobi_eigh(a, tol=1e-12, max_sweeps=100):
    """Reference: the original one-matrix cyclic Jacobi."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    work = a.copy()
    vectors = np.eye(n)
    scale = max(1.0, float(np.abs(a).max()))
    for _sweep in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(work, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if abs(apq) <= tol * scale / max(1, n):
                    continue
                theta = (work[q, q] - work[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                rot_p = work[:, p].copy()
                rot_q = work[:, q].copy()
                work[:, p] = c * rot_p - s * rot_q
                work[:, q] = s * rot_p + c * rot_q
                rot_p = work[p, :].copy()
                rot_q = work[q, :].copy()
                work[p, :] = c * rot_p - s * rot_q
                work[q, :] = s * rot_p + c * rot_q
                vec_p = vectors[:, p].copy()
                vectors[:, p] = c * vec_p - s * vectors[:, q]
                vectors[:, q] = s * vec_p + c * vectors[:, q]
    values = np.diag(work).copy()
    order = np.argsort(values)
    return values[order], vectors[:, order]


def reference_synthesize(target, shape, n_levels, n_orientations,
                         iterations, seed):
    """Reference: the synthesis loop on the full oriented pyramid."""
    rng = np.random.default_rng(seed)
    current = rng.standard_normal(shape)
    residuals = []
    for _ in range(iterations):
        current = match_histogram(current, target.histogram)
        current = impose_spectrum(current, target.spectrum)
        pyramid = build_pyramid(current, n_levels, n_orientations)
        for level_index, target_var in enumerate(target.bandpass_energies):
            if level_index >= len(pyramid.bandpass):
                break
            band = pyramid.bandpass[level_index]
            band_var = float(((band - band.mean()) ** 2).mean())
            if band_var > 1e-18:
                pyramid.bandpass[level_index] = band * (
                    (target_var / band_var) ** 0.5
                )
        current = reconstruct(pyramid, shape)
        current = impose_moments(current, target.pixel_moments)
        residuals.append(target.distance(
            analyze(current, n_levels, n_orientations)))
    return current, residuals


def exemplar(size, variant):
    image, _kind, _seed = texture_bench.setup(InputSize[size], variant)
    return image


# ----------------------------------------------------------------------
# One oriented-filter dispatch per band


@pytest.mark.parametrize("backend", BACKENDS)
def test_stacked_convolve_matches_single_calls_at_every_level(backend):
    image = exemplar("SQCIF", 0)
    stack = np.stack([oriented_kernel(math.pi * k / 4) for k in range(4)])
    with use_backend(backend):
        bandpass, _bands, _low = reference_build_pyramid(image)
        assert len(bandpass) == texture_bench.N_LEVELS
        for band in bandpass:
            want = np.stack([reference_convolve2d(band, k) for k in stack])
            assert_same_bytes(convolve2d(band, stack), want)
            assert_same_bytes(convolve2d(band, stack[1]), want[1])


@pytest.mark.parametrize("backend", BACKENDS)
def test_stacked_convolve_with_zero_taps(backend):
    image = np.random.default_rng(3).standard_normal((13, 11))
    image[4, 5] = -0.0
    # A zero tap that were applied would turn this into NaN (0 * inf).
    image[9, 2] = np.inf
    sharpen = np.array([[0.0, -1.0, 0.0], [-1.0, 5.0, -1.0],
                        [0.0, -1.0, 0.0]])
    steered = oriented_kernel(0.3, size=3)
    zero = np.zeros((3, 3))
    stack = np.stack([steered, sharpen, zero, -sharpen])
    want = np.stack([reference_convolve2d(image, k) for k in stack])
    with use_backend(backend):
        assert_same_bytes(convolve2d(image, stack), want)
        # A one-kernel stack is the 2-D call with a leading axis.
        assert_same_bytes(convolve2d(image, sharpen[None]),
                          convolve2d(image, sharpen)[None])


def test_stacked_convolve_rejects_bad_stacks():
    with pytest.raises(ValueError):
        convolve2d(np.ones((8, 8)), np.ones((2, 4, 3)))
    with pytest.raises(ValueError):
        convolve2d(np.ones((8, 8)), np.ones((0, 3, 3)))
    with pytest.raises(ValueError):
        convolve2d(np.ones((8, 8)), np.ones((1, 1, 3, 3)))


def test_stack_work_is_the_sum_of_single_kernel_work():
    image = np.ones((24, 20))
    stack = np.ones((4, 5, 5))
    single = _work_convolve(image, stack[0])
    work = _work_convolve(image, stack)
    assert work.flops == 4 * single.flops
    assert work.traffic_bytes == 4 * single.traffic_bytes


@pytest.mark.parametrize("size,variant", CELLS)
def test_build_pyramid_matches_four_calls_per_band(size, variant):
    image = exemplar(size, variant)
    bandpass, bands, lowpass = reference_build_pyramid(image)
    pyramid = build_pyramid(image, 3, 4)
    assert len(pyramid.bands) == len(bands)
    for got, want in zip(pyramid.bands, bands):
        assert_same_bytes(got, np.stack(want))
    for got, want in zip(pyramid.bandpass, bandpass):
        assert_same_bytes(got, want)
    assert_same_bytes(pyramid.lowpass, lowpass)
    laplacian = laplacian_pyramid(image, 3)
    for got, want in zip(laplacian.bandpass, bandpass):
        assert_same_bytes(got, want)
    assert_same_bytes(laplacian.lowpass, lowpass)


# ----------------------------------------------------------------------
# The Laplacian-only synthesis pyramid


@pytest.mark.parametrize("variant", range(5))
def test_synthesis_on_laplacian_pyramid_matches_full_pyramid(variant):
    image = exemplar("SQCIF", variant)
    target = analyze(image, texture_bench.N_LEVELS,
                     texture_bench.N_ORIENTATIONS)
    args = (target, image.shape, texture_bench.N_LEVELS,
            texture_bench.N_ORIENTATIONS, texture_bench.ITERATIONS, variant)
    want_texture, want_residuals = reference_synthesize(*args)
    result = synthesize(*args)
    assert_same_bytes(result.texture, want_texture)
    assert_same_bytes(result.residuals, want_residuals)


# ----------------------------------------------------------------------
# The stacked PCA Jacobi


@functools.lru_cache(maxsize=None)
def app_correlation_stacks(size, variant):
    """Every stack ``analyze`` eigensolves in one texture run."""
    stacks = []
    solve = texture_stats.jacobi_eigh

    def record(a):
        stacks.append(np.array(a))
        return solve(a)

    texture_stats.jacobi_eigh = record
    try:
        workload = texture_bench.setup(InputSize[size], variant)
        texture_bench.run(workload, KernelProfiler())
    finally:
        texture_stats.jacobi_eigh = solve
    return tuple(stacks)


def assert_stack_matches_reference(stack):
    values, vectors = jacobi_eigh(stack)
    flat = stack.reshape((-1,) + stack.shape[-2:])
    want = [reference_jacobi_eigh(m) for m in flat]
    assert_same_bytes(values.reshape(-1, stack.shape[-1]),
                      np.stack([w[0] for w in want]))
    assert_same_bytes(vectors.reshape(flat.shape),
                      np.stack([w[1] for w in want]))


@pytest.mark.parametrize("size,variant", CELLS)
def test_stacked_jacobi_matches_one_matrix_on_app_matrices(size, variant):
    stacks = app_correlation_stacks(size, variant)
    # One stacked solve per analyze: the exemplar's and each iteration's.
    assert len(stacks) == 1 + texture_bench.ITERATIONS
    for stack in stacks:
        assert stack.shape == (texture_bench.N_LEVELS, 4, 4)
        assert_stack_matches_reference(stack)
        for matrix in stack:
            values, vectors = jacobi_eigh(matrix)
            want_values, want_vectors = reference_jacobi_eigh(matrix)
            assert_same_bytes(values, want_values)
            assert_same_bytes(vectors, want_vectors)


def random_symmetric(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m + m.T


def test_stacked_jacobi_edge_items():
    diagonal = np.diag([3.0, -1.0, 2.0, 0.5])
    diagonal[0, 1] = diagonal[1, 0] = -0.0  # never rotated: keeps -0.0
    repeated = np.full((4, 4), 1.0) + np.eye(4)  # eigenvalue 1 three times
    nearly_diagonal = np.diag([1.0, 2.0, 3.0, 4.0])
    nearly_diagonal[0, 3] = nearly_diagonal[3, 0] = 1e-3
    dense = random_symmetric(4, seed=7)
    # The items converge in different sweeps (or never rotate).
    stack = np.stack([diagonal, repeated, nearly_diagonal, dense, -0.0 * dense])
    assert_stack_matches_reference(stack)
    # Mixed scales stop at different sweeps; all items share the loop.
    mixed = np.stack([random_symmetric(4, seed) * 10.0 ** (seed % 7 - 3)
                      + np.diag(np.arange(4.0)) * (seed % 3)
                      for seed in range(24)])
    assert_stack_matches_reference(mixed)


def test_stacked_jacobi_shapes():
    one = jacobi_eigh(np.array([[2.5]]))
    assert_same_bytes(one[0], np.array([2.5]))
    assert_same_bytes(one[1], np.array([[1.0]]))
    assert_stack_matches_reference(np.full((3, 1, 1), -4.0))
    batch = np.stack([random_symmetric(5, seed) for seed in range(6)])
    batch = batch.reshape(2, 3, 5, 5)
    values, vectors = jacobi_eigh(batch)
    assert values.shape == (2, 3, 5) and vectors.shape == (2, 3, 5, 5)
    assert_stack_matches_reference(batch)
    values, vectors = jacobi_eigh(np.zeros((0, 4, 4)))
    assert values.shape == (0, 4) and vectors.shape == (0, 4, 4)


def test_stacked_jacobi_rejects_an_asymmetric_item():
    stack = np.stack([np.eye(3), np.triu(np.ones((3, 3)))])
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigh(stack)
    with pytest.raises(ValueError):
        jacobi_eigh(np.ones((2, 3, 4)))
