"""The selected tridiagonal eigensolver and the Lanczos basis it serves.

``tridiagonal_smallest`` returns only the ``count`` smallest eigenpairs
(Sturm multisection plus twisted inverse iteration); ``tridiagonal_eigh``
(QL on every pair, pinned bit for bit by ``test_tql2_oracle.py``) is its
oracle.  With ``||T|| = max|d| + 2 max|e|`` and ``eps`` the float64
machine epsilon, the selected values must agree with the oracle's within
``C * eps * ||T||``, and the vectors must have residuals
``|T v - lambda v|`` within ``C * eps * k * ||T||`` and orthogonality
``|V^T V - I|`` within ``C * eps * k``, on random matrices, k = 1 and 2,
split blocks, repeated eigenvalues and Wilkinson's W21+.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InputSize
from repro.linalg import eigen
from repro.linalg.eigen import (
    _Lanczos,
    smallest_eigenvectors_operator,
    tridiagonal_eigh,
    tridiagonal_smallest,
)
from repro.segmentation import benchmark, segment_image

EPS = np.finfo(np.float64).eps
C = 16


def norm(diag, off):
    return np.abs(diag).max() + 2.0 * (np.abs(off).max() if off.size else 0.0)


def assert_accurate(diag, off, count):
    diag, off = np.asarray(diag, float), np.asarray(off, float)
    k = diag.size
    t = np.diag(diag)
    if k > 1:
        t += np.diag(off, 1) + np.diag(off, -1)
    values, vectors = tridiagonal_smallest(diag, off, count)
    want, _ = tridiagonal_eigh(diag, off)
    scale = max(norm(diag, off), np.finfo(np.float64).tiny)
    assert values.shape == (count,) and vectors.shape == (k, count)
    assert np.all(np.diff(values) >= 0)
    assert np.abs(values - want[:count]).max() <= C * EPS * scale
    residual = np.abs(t @ vectors - vectors * values).max()
    assert residual <= C * EPS * k * scale
    gram = vectors.T @ vectors - np.eye(count)
    assert np.abs(gram).max() <= C * EPS * k
    # The sign convention: each vector's largest component is positive.
    largest = np.abs(vectors).argmax(axis=0)
    assert (vectors[largest, np.arange(count)] > 0).all()


def wilkinson_plus(half):
    return np.abs(np.arange(-half, half + 1.0)), np.ones(2 * half)


@st.composite
def tridiagonals(draw):
    """Random, split, repeated-block and Wilkinson matrices, with a count."""
    kind = draw(st.sampled_from(["random", "split", "repeated", "wilkinson"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "wilkinson":
        diag, off = wilkinson_plus(draw(st.integers(1, 12)))
    else:
        k = draw(st.integers(1, 70))
        scale = 10.0 ** draw(st.integers(-6, 6))
        diag = scale * rng.standard_normal(k)
        off = scale * rng.standard_normal(max(k - 1, 0))
        if kind == "split" and k > 1:
            off[rng.random(k - 1) < 0.3] = 0.0
        elif kind == "repeated":
            # Copies of one block, split by zeros: repeated eigenvalues.
            copies = draw(st.integers(2, 3))
            block = max(1, k // copies)
            diag = np.tile(diag[:block], copies)
            off = np.concatenate(
                [np.append(off[:block - 1], 0.0)] * copies)[:-1]
    count = draw(st.integers(1, diag.size))
    return diag, off, count


class TestSelectedSolver:
    @settings(max_examples=150, deadline=None)
    @given(tridiagonals())
    @example((np.array([3.0]), np.zeros(0), 1))
    @example((np.array([1.0, 2.0]), np.array([0.5]), 1))
    @example((np.array([1.0, 2.0]), np.array([0.5]), 2))
    @example((np.array([1.0, 1.0]), np.array([0.0]), 2))
    @example((*wilkinson_plus(10), 21))
    def test_against_ql(self, case):
        assert_accurate(*case)

    @pytest.mark.parametrize("count", [1, 4, 12])
    def test_diagonal_and_zero_matrices(self, count):
        assert_accurate(np.full(12, 2.0), np.zeros(11), count)
        assert_accurate(np.arange(12.0)[::-1], np.zeros(11), count)
        values, vectors = tridiagonal_smallest(np.zeros(12), np.zeros(11),
                                               count)
        assert not values.any()
        assert np.array_equal(vectors, np.eye(12, count))

    def test_extreme_scales(self):
        rng = np.random.default_rng(3)
        for scale in (1e-300, 1e-150, 1e150, 1e300):
            assert_accurate(scale * rng.standard_normal(20),
                            scale * rng.standard_normal(19), 5)
        # Subnormal entries, on which the QL solver does not converge.
        values, vectors = tridiagonal_smallest(
            np.array([5e-324, 0.0, -1e-323]), np.array([-5e-324, -5e-324]), 3)
        assert np.isfinite(values).all() and np.isfinite(vectors).all()
        assert np.abs(vectors.T @ vectors - np.eye(3)).max() <= C * EPS * 3

    def test_exact_zero_pivot_falls_back_to_ql(self):
        # T - 2I for diag 2, off 1 has a zero leading pivot: the twisted
        # products meet inf * 0, and the pairs come from QL instead.
        calls = []
        real = eigen.tridiagonal_eigh

        def spy(diag, off):
            calls.append(diag.size)
            return real(diag, off)

        eigen.tridiagonal_eigh = spy
        try:
            assert_accurate(np.full(3, 2.0), np.ones(2), 2)
        finally:
            eigen.tridiagonal_eigh = real
        assert calls == [3]

    @pytest.mark.parametrize("diag,off,count", [
        (np.ones(3), np.ones(3), 1),
        (np.ones(3), np.ones(2), 0),
        (np.ones(3), np.ones(2), 4),
        (np.array([1.0, np.nan, 2.0]), np.ones(2), 1),
        (np.ones(3), np.array([0.5, np.inf]), 1),
    ])
    def test_bad_input(self, diag, off, count):
        with pytest.raises(ValueError):
            tridiagonal_smallest(diag, off, count)


def lanczos_operator(n=300, seed=5):
    """A symmetric operator with a spread spectrum and a small cluster."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.concatenate([[1e-3, 1e-3 + 1e-7, 2e-3],
                               np.linspace(0.01, 2.0, n - 3)])
    matrix = (q * spectrum) @ q.T
    return lambda v: matrix @ v, n


class TestLanczos:
    @pytest.mark.parametrize("k", [1, 2, 40, 160])
    def test_basis_orthonormal(self, k):
        matvec, n = lanczos_operator()
        krylov = _Lanczos(matvec, n, 0, 1e-10).extend(k)
        basis = krylov.basis[:len(krylov.alphas)]
        assert len(krylov.alphas) == k
        gram = basis @ basis.T - np.eye(k)
        assert np.abs(gram).max() <= C * EPS * k

    def test_extending_matches_a_fresh_run(self):
        matvec, n = lanczos_operator()
        grown = _Lanczos(matvec, n, 0, 1e-10)
        for k in (40, 80, 160):
            grown.extend(k)
        fresh = _Lanczos(matvec, n, 0, 1e-10).extend(160)
        assert grown.alphas == fresh.alphas
        assert grown.betas == fresh.betas
        assert grown.basis[:160].tobytes() == fresh.basis[:160].tobytes()
        for count in (1, 4):
            values, vectors = grown.ritz(count)
            want_values, want_vectors = fresh.ritz(count)
            assert values.tobytes() == want_values.tobytes()
            assert vectors.tobytes() == want_vectors.tobytes()

    def test_ritz_pairs_match_full_ql(self):
        matvec, n = lanczos_operator()
        krylov = _Lanczos(matvec, n, 0, 1e-10).extend(80)
        values, vectors = krylov.ritz(4)
        all_values, all_vectors = krylov.ritz()
        assert all_values.size == 80
        scale = norm(np.array(krylov.alphas), np.array(krylov.betas))
        assert np.abs(values - all_values[:4]).max() <= C * EPS * scale
        # Same vectors up to sign (the cluster's gap is 1e-7).
        overlap = np.abs(np.sum(vectors * all_vectors[:, :4], axis=0))
        assert np.abs(overlap - 1.0).max() <= 1e-6

    def test_operator_converges_on_the_cluster(self):
        matvec, n = lanczos_operator()
        values, vectors = smallest_eigenvectors_operator(matvec, n, 3,
                                                         residual_tol=1e-8)
        assert np.allclose(values, [1e-3, 1e-3 + 1e-7, 2e-3], atol=1e-9)
        applied = np.stack([matvec(vectors[:, j]) for j in range(3)], axis=1)
        assert np.abs(applied - vectors * values).max() <= 1e-8
        assert np.abs(vectors.T @ vectors - np.eye(3)).max() <= 1e-12

    def test_segmentation_never_falls_back_to_ql(self):
        calls = []
        real = eigen.tridiagonal_eigh

        def spy(diag, off):
            calls.append(diag.size)
            return real(diag, off)

        eigen.tridiagonal_eigh = spy
        try:
            image, _ = benchmark.setup(InputSize.SQCIF, 2)
            segment_image(image, n_segments=benchmark.N_SEGMENTS,
                          radius=benchmark.RADIUS,
                          max_nodes=benchmark.MAX_NODES)
        finally:
            eigen.tridiagonal_eigh = real
        assert calls == []
