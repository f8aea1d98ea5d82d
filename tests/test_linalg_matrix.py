"""Unit tests for the clean matrix-operation kernels."""

import numpy as np
import pytest

from repro.linalg.matrix import (
    SingularMatrixError,
    inverse_2x2_batch,
    solve,
)


def well_conditioned(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a + n * np.eye(n)  # diagonally dominant


class TestSolve:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_solves_exactly(self, n):
        a = well_conditioned(n, n)
        x_true = np.arange(1.0, n + 1.0)
        x = solve(a, a @ x_true)
        assert np.allclose(x, x_true, atol=1e-9)

    def test_matrix_rhs(self):
        a = well_conditioned(4, 1)
        b = np.random.default_rng(2).random((4, 3))
        x = solve(a, b)
        assert np.allclose(a @ x, b, atol=1e-9)

    def test_singular_raises(self):
        a = np.ones((3, 3))
        with pytest.raises(SingularMatrixError):
            solve(a, np.ones(3))

    def test_needs_square(self):
        with pytest.raises(ValueError):
            solve(np.ones((2, 3)), np.ones(2))

    def test_rhs_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(3), np.ones(4))

    def test_requires_pivoting(self):
        # Zero top-left pivot; only partial pivoting can solve this.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = solve(a, np.array([2.0, 3.0]))
        assert np.allclose(x, [3.0, 2.0])


class TestInverse:

    def test_inverse_2x2_closed_form(self):
        a = np.array([[4.0, 7.0], [2.0, 6.0]])
        inverses, singular = inverse_2x2_batch(a[None])
        assert not singular[0]
        assert np.allclose(inverses[0] @ a, np.eye(2), atol=1e-12)

    def test_inverse_2x2_singular(self):
        inverses, singular = inverse_2x2_batch(
            np.array([[[1.0, 2.0], [2.0, 4.0]]]))
        assert singular[0] and not inverses[0].any()

    def test_inverse_2x2_wrong_shape(self):
        with pytest.raises(ValueError):
            inverse_2x2_batch(np.eye(3)[None])

    def test_matches_general_inverse(self):
        a = well_conditioned(2, 3)
        assert np.allclose(inverse_2x2_batch(a[None])[0][0], np.linalg.inv(a),
                           atol=1e-10)
