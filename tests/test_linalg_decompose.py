"""Unit and property tests for QR, SVD, eigensolvers and least squares."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.decompose import (
    null_vector,
    qr_decompose,
    svd_jacobi,
)
from repro.linalg.eigen import (
    jacobi_eigh,
    lanczos,
    smallest_eigenvectors_operator,
    tridiagonal_eigh,
)
from repro.linalg.lstsq import conjugate_gradient_steps, lstsq_qr
from repro.linalg.matrix import SingularMatrixError


def random_matrix(rows, cols, seed):
    return np.random.default_rng(seed).standard_normal((rows, cols))


class TestQR:
    @pytest.mark.parametrize("shape", [(3, 3), (6, 3), (8, 8), (5, 1)])
    def test_reconstruction(self, shape):
        a = random_matrix(*shape, seed=sum(shape))
        q, r = qr_decompose(a)
        assert np.allclose(q @ r, a, atol=1e-9)

    @pytest.mark.parametrize("shape", [(4, 4), (7, 3)])
    def test_q_orthonormal(self, shape):
        a = random_matrix(*shape, seed=11)
        q, _r = qr_decompose(a)
        assert np.allclose(q.T @ q, np.eye(shape[1]), atol=1e-9)

    def test_r_upper_triangular_positive_diag(self):
        a = random_matrix(5, 5, seed=12)
        _q, r = qr_decompose(a)
        assert np.allclose(np.tril(r, -1), 0.0)
        assert (np.diag(r) >= 0).all()

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            qr_decompose(np.ones((2, 5)))

    @settings(max_examples=20)
    @given(st.integers(1, 6), st.integers(0, 50))
    def test_property_reconstruction(self, n, seed):
        a = random_matrix(n + 2, n, seed)
        q, r = qr_decompose(a)
        assert np.allclose(q @ r, a, atol=1e-8)


class TestSVD:
    @pytest.mark.parametrize("shape", [(4, 4), (7, 3), (3, 7), (5, 1), (1, 5)])
    def test_reconstruction(self, shape):
        a = random_matrix(*shape, seed=sum(shape) + 1)
        u, s, vt = svd_jacobi(a)
        assert np.allclose(u @ np.diag(s) @ vt, a, atol=1e-8)

    def test_singular_values_descending_nonnegative(self):
        a = random_matrix(6, 4, seed=2)
        _u, s, _vt = svd_jacobi(a)
        assert (s >= 0).all()
        assert (np.diff(s) <= 1e-12).all()

    def test_matches_numpy_singular_values(self):
        a = random_matrix(5, 5, seed=3)
        _u, s, _vt = svd_jacobi(a)
        assert np.allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-8)

    def test_orthonormal_factors(self):
        a = random_matrix(6, 4, seed=4)
        u, _s, vt = svd_jacobi(a)
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-8)
        assert np.allclose(vt @ vt.T, np.eye(4), atol=1e-8)

    def test_rank_deficient(self):
        base = random_matrix(5, 2, seed=5)
        a = base @ base.T  # rank 2
        u, s, vt = svd_jacobi(a)
        assert np.allclose(u @ np.diag(s) @ vt, a, atol=1e-8)
        assert (s[2:] < 1e-8).all()

    def test_null_vector(self):
        # Build a matrix with a known null direction.
        direction = np.array([1.0, -2.0, 1.0])
        direction /= np.linalg.norm(direction)
        rng = np.random.default_rng(6)
        rows = [v - (v @ direction) * direction for v in
                rng.standard_normal((6, 3))]
        a = np.stack(rows)
        null = null_vector(a)
        assert np.abs(a @ null).max() < 1e-8
        assert abs(abs(null @ direction) - 1.0) < 1e-8


class TestEigen:
    def test_jacobi_matches_numpy(self):
        a = random_matrix(6, 6, seed=9)
        sym = a + a.T
        values, vectors = jacobi_eigh(sym)
        assert np.allclose(values, np.linalg.eigvalsh(sym), atol=1e-8)
        assert np.allclose(sym @ vectors, vectors @ np.diag(values), atol=1e-7)

    def test_jacobi_requires_symmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigh(random_matrix(4, 4, seed=10))

    def test_jacobi_diagonal_input(self):
        values, _ = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(values, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_tridiagonal_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        d = rng.standard_normal(n)
        e = rng.standard_normal(max(0, n - 1))
        t = np.diag(d)
        if n > 1:
            t += np.diag(e, 1) + np.diag(e, -1)
        values, vectors = tridiagonal_eigh(d, e)
        assert np.allclose(values, np.linalg.eigvalsh(t), atol=1e-8)
        assert np.allclose(t @ vectors, vectors * values, atol=1e-7)

    def test_tridiagonal_size_mismatch(self):
        with pytest.raises(ValueError):
            tridiagonal_eigh(np.ones(3), np.ones(3))

    def test_lanczos_extreme_values(self):
        a = random_matrix(80, 80, seed=12)
        sym = a + a.T
        values, vectors = lanczos(lambda v: sym @ v, 80, 80)
        ref = np.linalg.eigvalsh(sym)
        assert values[0] == pytest.approx(ref[0], abs=1e-6)
        assert np.allclose(
            sym @ vectors[:, 0], values[0] * vectors[:, 0], atol=1e-5
        )

    def test_smallest_eigenvectors_lanczos_path(self):
        a = random_matrix(100, 100, seed=14)
        sym = a + a.T
        values, vectors = smallest_eigenvectors_operator(
            lambda v: sym @ v, 100, 3, residual_tol=1e-6,
            scale=float(np.abs(sym).max()), max_krylov=100)
        ref = np.sort(np.linalg.eigvalsh(sym))[:3]
        assert np.allclose(values, ref, atol=1e-4)
        residual = np.abs(sym @ vectors - vectors * values).max()
        assert residual < 1e-4 * np.abs(sym).max()

    def test_operator_variant(self):
        a = random_matrix(90, 90, seed=15)
        sym = a + a.T
        values, _ = smallest_eigenvectors_operator(
            lambda v: sym @ v, 90, 2, scale=float(np.abs(sym).max())
        )
        ref = np.sort(np.linalg.eigvalsh(sym))[:2]
        assert np.allclose(values, ref, atol=1e-4)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            smallest_eigenvectors_operator(lambda v: v, 4, 5)
        with pytest.raises(ValueError):
            lanczos(lambda v: v, 4, 0)


class TestLeastSquares:
    def test_qr_exact_on_square(self):
        a = random_matrix(4, 4, seed=16) + 4 * np.eye(4)
        x_true = np.arange(4.0)
        assert np.allclose(lstsq_qr(a, a @ x_true), x_true, atol=1e-9)

    def test_qr_overdetermined_matches_numpy(self):
        a = random_matrix(10, 3, seed=17)
        b = random_matrix(10, 1, seed=18).ravel()
        x = lstsq_qr(a, b)
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(x, ref, atol=1e-8)

    def test_qr_matrix_rhs(self):
        a = random_matrix(8, 3, seed=19)
        b = random_matrix(8, 2, seed=20)
        x = lstsq_qr(a, b)
        ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(x, ref, atol=1e-8)

    def test_qr_rank_deficient_raises(self):
        a = np.ones((5, 2))
        with pytest.raises(SingularMatrixError):
            lstsq_qr(a, np.ones(5))

    def test_cg_solves_spd(self):
        a = random_matrix(15, 15, seed=25)
        spd = a @ a.T + 15 * np.eye(15)
        b = random_matrix(15, 1, seed=26).ravel()
        x, _ = conjugate_gradient_steps(lambda v: spd @ v, b)
        assert np.allclose(spd @ x, b, atol=1e-6)

    def test_cg_rejects_indefinite(self):
        a = np.diag([1.0, -1.0])
        with pytest.raises(SingularMatrixError):
            conjugate_gradient_steps(lambda v: a @ v, np.array([1.0, 1.0]))

    def test_cg_warm_start(self):
        a = np.diag([2.0, 3.0])
        b = np.array([4.0, 9.0])
        x, _ = conjugate_gradient_steps(lambda v: a @ v, b,
                                      x0=np.array([2.0, 3.0]))
        assert np.allclose(x, [2.0, 3.0])
