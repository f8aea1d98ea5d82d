"""Clean matrix operations — the suite's "Matrix Ops" kernel family.

The SD-VBS C code carries its own small matrix library (multiply,
transpose, inversion, solve) rather than calling BLAS/LAPACK, because the
point of the suite is analyzable kernels.  We keep that spirit: the solve
(Gaussian elimination with partial pivoting, back substitution) and the
closed-form 2x2 inverses are implemented directly, on top of numpy arrays
as storage only.
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
