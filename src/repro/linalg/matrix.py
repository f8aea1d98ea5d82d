"""Clean matrix operations — the suite's "Matrix Ops" kernel family.

The SD-VBS C code carries its own small matrix library (multiply,
transpose, inversion, solve) rather than calling BLAS/LAPACK, because the
point of the suite is analyzable kernels.  We keep that spirit: everything
here is implemented directly (Gauss-Jordan with partial pivoting, forward/
back substitution) on top of numpy arrays as storage only.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when elimination meets a (numerically) singular matrix."""


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape checking."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} @ {b.shape}")
    return a @ b


def transpose(a: np.ndarray) -> np.ndarray:
    """Materialized transpose."""
    return _as_matrix(a).T.copy()


def identity(n: int) -> np.ndarray:
    """The ``n x n`` identity matrix (float64)."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return np.eye(n, dtype=np.float64)


def solve(a: np.ndarray, b: np.ndarray, pivot_tol: float = 1e-12) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    ``b`` may be a vector or a matrix of right-hand sides.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    b = np.asarray(b, dtype=np.float64)
    vector_rhs = b.ndim == 1
    rhs = b.reshape(n, -1).copy() if b.shape[0] == n else None
    if rhs is None:
        raise ValueError(f"rhs of shape {b.shape} incompatible with {a.shape}")
    work = a.copy()
    scale = max(1.0, float(np.abs(work).max()))
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        pivot = work[pivot_row, col]
        if abs(pivot) <= pivot_tol * scale:
            raise SingularMatrixError(f"singular at column {col}")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factors = work[col + 1 :, col] / work[col, col]
        work[col + 1 :, col:] -= np.outer(factors, work[col, col:])
        rhs[col + 1 :] -= np.outer(factors, rhs[col])
    x = np.zeros_like(rhs)
    for row in range(n - 1, -1, -1):
        x[row] = (rhs[row] - work[row, row + 1 :] @ x[row + 1 :]) / work[row, row]
    return x[:, 0] if vector_rhs else x


def inverse(a: np.ndarray, pivot_tol: float = 1e-12) -> np.ndarray:
    """Matrix inverse via Gauss-Jordan (solve against the identity)."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    return solve(a, identity(a.shape[0]), pivot_tol)


def inverse_2x2_batch(a: np.ndarray,
                      tol: float = 1e-12) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form inverses of a stack of 2x2 matrices, shape ``(n, 2, 2)``.

    Returns ``(inverses, singular)``.  Matrix ``i`` is singular when
    ``|det| <= tol * max(1, max|a_i|)^2``; its inverse is left zero and
    ``singular[i]`` is set, so a batch never raises for one bad member.
    KLT solves one such stack per pyramid level.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3 or a.shape[1:] != (2, 2):
        raise ValueError(f"expected a (n, 2, 2) stack, got {a.shape}")
    det = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    # Python's float power, not x*x: the two differ in the last bit.
    peak = np.abs(a).max(axis=(1, 2))
    scale = np.array([max(1.0, float(m) ** 2) for m in peak])
    singular = np.abs(det) <= tol * scale
    det = np.where(singular, 1.0, det)
    adjugate = np.stack(
        [a[:, 1, 1], -a[:, 0, 1], -a[:, 1, 0], a[:, 0, 0]], axis=1
    ).reshape(-1, 2, 2)
    inverses = adjugate / det[:, None, None]
    inverses[singular] = 0.0
    return inverses, singular


def inverse_2x2(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Closed-form 2x2 inverse — KLT's "Matrix Inversion" kernel.

    Tracking solves a 2x2 structure-tensor system per feature per
    iteration; the closed form is what the C suite uses.  This is the
    one-matrix call of :func:`inverse_2x2_batch`, raising
    :class:`SingularMatrixError` where the batch sets its mask.
    """
    a = _as_matrix(a)
    if a.shape != (2, 2):
        raise ValueError(f"expected 2x2 matrix, got {a.shape}")
    inverses, singular = inverse_2x2_batch(a[None], tol)
    if singular[0]:
        raise SingularMatrixError("2x2 matrix is singular")
    return inverses[0]


def determinant(a: np.ndarray) -> float:
    """Determinant via the elimination used by :func:`solve`."""
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {a.shape}")
    work = a.copy()
    det = 1.0
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(work[col:, col])))
        pivot = work[pivot_row, col]
        if pivot == 0.0:
            return 0.0
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            det = -det
        det *= work[col, col]
        factors = work[col + 1 :, col] / work[col, col]
        work[col + 1 :, col:] -= np.outer(factors, work[col, col:])
    return float(det)


def lu_decompose(a: np.ndarray,
                 pivot_tol: float = 1e-12) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Doolittle LU with partial pivoting: returns ``(P, L, U)``.

    ``P @ a == L @ U`` with unit-diagonal ``L``.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {a.shape}")
    upper = a.copy()
    lower = identity(n)
    perm = identity(n)
    scale = max(1.0, float(np.abs(a).max()))
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(upper[col:, col])))
        if abs(upper[pivot_row, col]) <= pivot_tol * scale:
            raise SingularMatrixError(f"singular at column {col}")
        if pivot_row != col:
            upper[[col, pivot_row]] = upper[[pivot_row, col]]
            perm[[col, pivot_row]] = perm[[pivot_row, col]]
            lower[[col, pivot_row], :col] = lower[[pivot_row, col], :col]
        factors = upper[col + 1 :, col] / upper[col, col]
        lower[col + 1 :, col] = factors
        upper[col + 1 :, col:] -= np.outer(factors, upper[col, col:])
        upper[col + 1 :, col] = 0.0
    return perm, lower, upper


def cholesky(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive-definite
    matrix: ``L @ L.T == a``.

    Raises :class:`SingularMatrixError` when a pivot is non-positive
    (matrix not positive definite).
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10 * max(1.0, float(np.abs(a).max()))):
        raise ValueError("matrix is not symmetric")
    lower = np.zeros_like(a)
    scale = max(1.0, float(np.abs(a).max()))
    for j in range(n):
        pivot = a[j, j] - float(lower[j, :j] @ lower[j, :j])
        if pivot <= tol * scale:
            raise SingularMatrixError(
                f"non-positive pivot at column {j}: not positive definite"
            )
        lower[j, j] = pivot**0.5
        if j + 1 < n:
            lower[j + 1 :, j] = (
                a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]
            ) / lower[j, j]
    return lower


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-definite system via Cholesky.

    Roughly half the work of general elimination; the right route for
    normal-equation and Gram systems.
    """
    lower = cholesky(a)
    b = np.asarray(b, dtype=np.float64)
    vector_rhs = b.ndim == 1
    rhs = b.reshape(lower.shape[0], -1).astype(np.float64).copy()
    n = lower.shape[0]
    # Forward substitution L y = b.
    for row in range(n):
        rhs[row] = (rhs[row] - lower[row, :row] @ rhs[:row]) / lower[row, row]
    # Back substitution L^T x = y.
    for row in range(n - 1, -1, -1):
        rhs[row] = (
            rhs[row] - lower[row + 1 :, row] @ rhs[row + 1 :]
        ) / lower[row, row]
    return rhs[:, 0] if vector_rhs else rhs
