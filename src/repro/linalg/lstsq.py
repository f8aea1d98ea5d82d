"""Least-squares solvers — the stitch benchmark's "LS Solver" kernel.

Least squares goes through Householder QR, the numerically preferred path
RANSAC model fitting uses.  A conjugate-gradient solver covers the SVM
benchmark's "Conjugate Matrix" kernel.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from .decompose import qr_decompose
from .matrix import SingularMatrixError


def lstsq_qr_batch(a: np.ndarray,
                   b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a ``(..., m, n)`` stack of least-squares systems via QR.

    ``b`` is ``(..., m)`` (one right-hand side per item) or ``(..., m,
    k)``.  Returns ``(x, singular)``: the solutions and a boolean mask
    over the stack marking rank-deficient items, whose ``x`` is
    meaningless.  Each item's solution has the same bits as
    :func:`lstsq_qr` on that item alone.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    vector = b.ndim == a.ndim - 1
    if (b.shape[:a.ndim - 1] != a.shape[:-1]
            or b.ndim not in (a.ndim - 1, a.ndim)):
        raise ValueError(f"rhs of shape {b.shape} incompatible with {a.shape}")
    q, r = qr_decompose(a)
    rhs = np.matmul(q.swapaxes(-1, -2), b[..., None] if vector else b)
    pivots = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(pivots)
    singular = size.min(axis=-1) <= 1e-12 * np.maximum(1.0, size.max(axis=-1))
    # Rank-deficient items divide by 1 instead of a vanishing pivot.
    pivots = np.where(singular[..., None], 1.0, pivots)
    x = np.zeros_like(rhs)
    for row in range(a.shape[-1] - 1, -1, -1):
        done = np.matmul(r[..., row:row + 1, row + 1:], x[..., row + 1:, :])
        x[..., row, :] = (rhs[..., row, :] - done[..., 0, :]) / pivots[
            ..., row, None]
    return (x[..., 0] if vector else x), singular


def lstsq_qr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ``|a @ x - b|`` via thin QR: solve ``R x = Q^T b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    x, singular = lstsq_qr_batch(a, b)
    if singular:
        raise SingularMatrixError("rank-deficient least-squares system")
    return x


def conjugate_gradient_steps(
    matvec: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    preconditioner: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """Solve ``A x = b`` for symmetric positive-definite ``A`` by CG.

    ``matvec`` applies ``A``; convergence is declared when the residual
    norm falls below ``tol * |b|``, or after ``max_iter`` (default
    ``4 n``) iterations.  ``preconditioner`` is an optional diagonal
    ``M`` (a vector of strictly positive entries, ``ValueError``
    otherwise): the solve then runs CG on ``M^-1 A``, which takes far
    fewer iterations when ``A``'s diagonal spans many orders of
    magnitude.  Without one, the iteration is plain CG.

    Returns ``(x, iterations)``.  The count is the number of ``matvec``
    calls after the initial residual.  A count equal to the cap means
    the residual may still be above ``tol``: the solve stopped because
    it ran out of iterations.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if preconditioner is not None:
        preconditioner = np.asarray(preconditioner, dtype=np.float64)
        if preconditioner.shape != b.shape:
            raise ValueError(f"preconditioner of shape {preconditioner.shape}"
                             f" mismatches rhs of shape {b.shape}")
        if not np.all((preconditioner > 0.0) & np.isfinite(preconditioner)):
            raise ValueError("preconditioner entries must be positive and "
                             "finite")
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - matvec(x)
    # z = M^-1 r; without a preconditioner z is r itself, so r.z is r.r.
    z = r if preconditioner is None else r / preconditioner
    p = z.copy()
    rz_old = float(r @ z)
    rr = rz_old if preconditioner is None else float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    limit = max_iter if max_iter is not None else 4 * n
    iterations = 0
    while iterations < limit and np.sqrt(rr) > tol * b_norm:
        ap = matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            raise SingularMatrixError("operator is not positive definite")
        alpha = rz_old / denom
        x += alpha * p
        r -= alpha * ap
        z = r if preconditioner is None else r / preconditioner
        rz_new = float(r @ z)
        rr = rz_new if preconditioner is None else float(r @ r)
        p = z + (rz_new / rz_old) * p
        rz_old = rz_new
        iterations += 1
    return x, iterations
