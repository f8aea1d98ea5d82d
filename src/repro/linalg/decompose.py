"""Orthogonal decompositions: Householder QR and one-sided Jacobi SVD.

"QR factorizations" appears in the segmentation benchmark's kernel list
(the discretization step orthogonalizes its rotation iteratively) and
"SVD" in image stitch (homography estimation / RANSAC model fitting).
Both are implemented directly rather than delegated to LAPACK.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _dot_self(x: np.ndarray) -> np.ndarray:
    """``x @ x`` along the last axis of a stack of vectors.

    Goes through ``matmul``'s per-item dot product, the BLAS call that
    ``np.linalg.norm`` makes on one contiguous vector, so every item gets
    the bits the one-vector call would.
    """
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def qr_decompose(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Householder QR of an ``m x n`` matrix with ``m >= n``.

    Returns the thin factors: ``q`` is ``m x n`` with orthonormal columns,
    ``r`` is ``n x n`` upper triangular with non-negative diagonal, and
    ``q @ r == a``.

    A ``(..., m, n)`` stack is factored item by item in one pass of
    stacked array operations; each item's factors have the same bits as
    a call on that item alone.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    *batch, m, n = a.shape
    if m < n:
        raise ValueError(f"QR requires m >= n, got {a.shape}")
    r = a.copy()
    q_full = np.broadcast_to(np.eye(m), (*batch, m, m)).copy()
    for col in range(n):
        v = r[..., col:, col].copy()
        lead = v[..., 0].copy()
        norm_x = np.sqrt(_dot_self(v))
        v[..., 0] += np.copysign(norm_x, np.where(lead != 0, lead, 1.0))
        v_norm = np.sqrt(_dot_self(v))
        # A zero column (or reflector) leaves its item untouched.
        skip = (norm_x == 0.0) | (v_norm == 0.0)
        v /= np.where(skip, 1.0, v_norm)[..., None]
        v[skip] = 0.0
        w = np.matmul(v[..., None, :], r[..., col:, col:])
        r[..., col:, col:] -= 2.0 * (v[..., :, None] * w)
        u = np.matmul(q_full[..., :, col:], v[..., :, None])
        q_full[..., :, col:] -= 2.0 * (u * v[..., None, :])
    q = q_full[..., :, :n]
    r = np.triu(r[..., :n, :])
    # Normalize signs so the diagonal of R is non-negative (unique thin QR).
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return q * signs[..., None, :], r * signs[..., :, None]


def svd_jacobi(a: np.ndarray, tol: float = 1e-12,
               max_sweeps: int = 60) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of an ``m x n`` matrix with ``m >= n``.

    Returns ``(u, s, vt)`` with ``u`` ``m x n`` column-orthonormal, ``s``
    the singular values in descending order, and ``u @ diag(s) @ vt == a``.

    The one-sided method repeatedly rotates column pairs of a working copy
    until all pairs are mutually orthogonal; the column norms are then the
    singular values.  Accumulating the rotations yields ``v``.  A pair
    counts as orthogonal when ``|a_p . a_q| <= tol * |a_p| |a_q|``, the
    relative test of Demmel & Veselic (1992); the sweeps stop after one
    that rotates no pair, or after ``max_sweeps``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    transposed = a.shape[0] < a.shape[1]
    work = a.T.copy() if transposed else a.copy()
    m, n = work.shape
    v = np.eye(n)
    frobenius = np.linalg.norm(work)
    threshold = tol * max(frobenius, 1.0)
    for _sweep in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = float(work[:, p] @ work[:, p])
                beta = float(work[:, q] @ work[:, q])
                gamma = float(work[:, p] @ work[:, q])
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                col_p = work[:, p].copy()
                work[:, p] = c * col_p - s * work[:, q]
                work[:, q] = s * col_p + c * work[:, q]
                vcol_p = v[:, p].copy()
                v[:, p] = c * vcol_p - s * v[:, q]
                v[:, q] = s * vcol_p + c * v[:, q]
        if not rotated:
            break
    singular = np.linalg.norm(work, axis=0)
    order = np.argsort(singular)[::-1]
    singular = singular[order]
    work = work[:, order]
    v = v[:, order]
    u = np.zeros((m, n))
    for j in range(n):
        if singular[j] > threshold:
            u[:, j] = work[:, j] / singular[j]
        else:
            # Null-space column: extend to an orthonormal set.
            basis = np.zeros(m)
            basis[j % m] = 1.0
            for k in range(j):
                basis -= (u[:, k] @ basis) * u[:, k]
            norm = np.linalg.norm(basis)
            u[:, j] = basis / norm if norm > 0 else basis
    if transposed:
        # We factored a.T = u s v^T, so a = v s u^T.
        return v, singular, u.T
    return u, singular, v.T


def null_vector(a: np.ndarray) -> np.ndarray:
    """Unit vector minimizing ``|a @ x|`` — the last right-singular vector.

    This is the standard DLT step for homography estimation in stitch.
    """
    _u, _s, vt = svd_jacobi(a)
    return vt[-1]
