"""The gathered affinity matvec against the stencil loop it replaced.

``reference_matvec`` is the original ``GridAffinity.matvec``: one strided
slice update per offset and direction, ``+o`` then ``-o``, accumulated
into a zeroed grid.  The rewrite gathers every neighbour at once and sums
the rows in the same order; it must give the same bytes at the working
shapes the app reaches, on grids smaller than the stencil, and where
weights underflow to zero against negative entries (``-0.0`` products).
"""

import numpy as np
import pytest

from repro.core import InputSize
from repro.segmentation import build_affinity, working_resolution
from repro.segmentation.benchmark import MAX_NODES, RADIUS
from repro.segmentation.graph import _slice_pair


def reference_matvec(affinity, vec):
    """Reference: the original per-offset stencil loop."""
    grid = np.asarray(vec, dtype=np.float64).reshape(affinity.shape)
    out = np.zeros(affinity.shape)
    for (dy, dx), plane in zip(affinity.offsets, affinity.planes):
        src = _slice_pair(affinity.shape, dy, dx)
        dst = _slice_pair(affinity.shape, -dy, -dx)
        w = plane[src]
        out[src] += w * grid[dst]
        out[dst] += w * grid[src]
    return out.ravel()


def assert_identical(affinity, vec):
    want = reference_matvec(affinity, vec)
    got = affinity.matvec(vec)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def working_shape(size):
    return working_resolution(size.shape, MAX_NODES)


@pytest.mark.parametrize("size", [InputSize.SQCIF, InputSize.CIF])
@pytest.mark.parametrize("seed", [0, 1])
def test_working_shapes(size, seed):
    rng = np.random.default_rng(seed)
    shape = working_shape(size)
    affinity = build_affinity(rng.random(shape), radius=RADIUS)
    assert_identical(affinity, rng.standard_normal(affinity.n_nodes))
    assert_identical(affinity, np.ones(affinity.n_nodes))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 3),
                                   (3, 3), (4, 7)])
@pytest.mark.parametrize("radius", [1, 3, 5])
def test_grids_smaller_than_stencil(shape, radius):
    rng = np.random.default_rng(7)
    affinity = build_affinity(rng.random(shape), radius=radius)
    assert_identical(affinity, rng.standard_normal(affinity.n_nodes))


def test_underflowing_weights_against_negative_entries():
    # Intensity steps of 1 with a tiny sigma underflow exp() to 0.0, so
    # the products are -0.0 wherever the vector is negative.
    image = np.indices((9, 11)).sum(axis=0) % 2.0
    affinity = build_affinity(image, radius=RADIUS, sigma_intensity=1e-3)
    assert any((plane == 0.0).any() for plane in affinity.planes)
    vec = -np.ones(affinity.n_nodes)
    vec[::3] = 0.0
    assert_identical(affinity, vec)
    assert_identical(affinity, -np.abs(np.random.default_rng(3)
                                       .standard_normal(affinity.n_nodes)))
