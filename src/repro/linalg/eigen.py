"""Symmetric eigensolvers: cyclic Jacobi and Lanczos.

The segmentation benchmark's "Eigensolve" kernel computes the smallest
eigenvectors of a (large, sparse-structured) normalized Laplacian.  We
provide a dense cyclic-Jacobi solver for small systems and a Lanczos
iteration with full reorthogonalization for the Laplacian itself, with the
small tridiagonal problem solved by implicit QL.
"""

from __future__ import annotations

from array import array
from typing import Callable, Optional, Tuple

import numpy as np

#: Implicit QL shifts allowed per eigenvalue in :func:`tridiagonal_eigh`
#: (segmentation's Lanczos projections need at most 6 at SQCIF, QCIF and
#: CIF, variants 0-4).
MAX_QL_ITERATIONS = 50


def jacobi_eigh(a: np.ndarray, tol: float = 1e-12,
                max_sweeps: int = 100) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(eigenvalues, eigenvectors)`` in ascending eigenvalue order
    with eigenvectors in columns: ``a @ v[:, i] == w[i] * v[:, i]``.

    ``a`` may also be a ``(..., n, n)`` stack, solved in one sweep loop
    and returned as ``(..., n)`` values and ``(..., n, n)`` vectors.
    Each item skips the rotations and stops at the sweep its own solve
    would; a rotation runs on the items that take it only, so the others
    stay untouched (not rotated by the identity, which could flip signed
    zeros) and every item gets the bits of solving it alone.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got {a.shape}")
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    if not np.isclose(stack, stack.transpose(0, 2, 1),
                      atol=1e-10 * scale[:, None, None]).all():
        raise ValueError("matrix is not symmetric")
    # Rows :n hold the matrix being diagonalized and rows n: the
    # accumulated eigenvectors, so one column rotation updates both.
    work = np.concatenate(
        [stack, np.broadcast_to(np.eye(n), stack.shape)], axis=1)
    converged_below = tol * scale
    rotate_above = tol * scale / max(1, n)
    below_diagonal = np.tri(n, k=-1, dtype=bool)
    for _sweep in range(max_sweeps):
        off = np.sqrt(np.sum(np.where(below_diagonal, work[:, :n], 0.0) ** 2,
                             axis=(1, 2)))
        done = off <= converged_below
        if done.all():
            break
        # A converged item skips every rotation of the sweep.
        rotate_above[done] = np.inf
        for p in range(n - 1):
            for q in range(p + 1, n):
                skip = np.abs(work[:, p, q]) <= rotate_above
                skipped = np.count_nonzero(skip)
                if skipped == len(work):
                    continue
                items = work if skipped == 0 else work[~skip]
                apq = items[:, p, q]
                theta = (items[:, q, q] - items[:, p, p]) / (2.0 * apq)
                # sign(theta), except that theta == +-0 takes t = 1.
                sign = np.copysign(1.0, theta + 0.0)
                t = sign / (np.abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                c, s = c[:, None], (c * t)[:, None]
                col_p, col_q = items[:, :, p], items[:, :, q]
                col_p[...], col_q[...] = (c * col_p - s * col_q,
                                          s * col_p + c * col_q)
                row_p, row_q = items[:, p, :], items[:, q, :]
                row_p[...], row_q[...] = (c * row_p - s * row_q,
                                          s * row_p + c * row_q)
                if skipped:
                    work[~skip] = items
    values = np.diagonal(work[:, :n], axis1=1, axis2=2)
    order = np.argsort(values, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(work[:, n:], order[:, None, :], axis=2)
    return values.reshape(a.shape[:-1]), vectors.reshape(a.shape)


def tridiagonal_eigh(diag: np.ndarray,
                     off: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric tridiagonal matrix (QL + shifts).

    ``diag`` holds the ``n`` diagonal entries, ``off`` the ``n - 1``
    sub-diagonal entries.  Classic ``tql2`` with implicit Wilkinson-style
    shifts: O(n^2) work, returns ascending eigenvalues and eigenvectors in
    columns.

    The scalar recurrence runs on Python floats.  The eigenvector
    rotations never feed back into it, so they are collected and applied
    afterwards by :func:`_rotate_eigenvectors`, which computes every
    product and sum a one-rotation-at-a-time update of ``z`` computes:
    the results are the same bit for bit.

    Raises ``ValueError`` on non-finite input and
    ``np.linalg.LinAlgError`` if an eigenvalue has not converged after
    ``MAX_QL_ITERATIONS`` implicit shifts.
    """
    diag = np.asarray(diag, dtype=np.float64)
    n = diag.size
    off = np.asarray(off, dtype=np.float64) if n > 1 else np.zeros(0)
    if off.size != max(n - 1, 0):
        raise ValueError(f"off-diagonal must have {n - 1} entries")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("tridiagonal entries must be finite")
    d = diag.tolist()
    e = off.tolist() + [0.0]
    # Rotation j of a sweep (m, count) acts on rows i = m - 1 - j, i + 1;
    # cosines and sines of all sweeps, in order, in compact arrays.
    sweeps = []
    cosines, sines = array("d"), array("d")
    for l in range(n):
        for iteration in range(MAX_QL_ITERATIONS + 1):
            # Find the end of the unreduced block starting at l.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= 1e-15 * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == MAX_QL_ITERATIONS:
                raise np.linalg.LinAlgError(
                    f"tridiagonal QL: eigenvalue {l} not converged after "
                    f"{MAX_QL_ITERATIONS} iterations")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = float(np.hypot(g, 1.0))
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s, c = 1.0, 1.0
            p = 0.0
            recorded = len(cosines)
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = float(np.hypot(f, g))
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                cosines.append(c)
                sines.append(s)
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
            if len(cosines) > recorded:
                sweeps.append((m, len(cosines) - recorded))
    zt = _rotate_eigenvectors(n, sweeps, cosines, sines)
    values = np.array(d)
    order = np.argsort(values)
    return values[order], zt[order].T


def _rotate_eigenvectors(n: int, sweeps, cosines, sines) -> np.ndarray:
    """``z^T`` (eigenvectors in rows) from the QL sweeps' rotations.

    Rotation ``j`` of a sweep ``(m, count)`` acts on rows
    ``i = m - 1 - j`` and ``i + 1`` of ``z^T``:
    ``(z_i, z_i+1) <- (c z_i - s z_i+1, s z_i + c z_i+1)``.  Rotations on
    disjoint rows commute, so each rotation joins the first wave after
    the last wave that touched either of its rows, and a wave applies
    all of its rotations at once.  Every row still sees its rotations in
    the original order, with the same products and sums.
    """
    zt = np.eye(n)
    if not sweeps:
        return zt
    last = np.full(n, -1, dtype=np.int64)  # last wave to touch each row
    low = np.empty(len(cosines), dtype=np.int32)
    wave = np.empty(len(cosines), dtype=np.int32)
    start = 0
    for m, count in sweeps:
        rows = np.arange(m - 1, m - 1 - count, -1)
        j = np.arange(count)
        # wave_j = 1 + max(last[rows_j], wave_j-1) with wave_-1 = last[m]
        # (row m); in terms of wave_j - j this is a running maximum.
        sweep_wave = np.maximum.accumulate(
            np.maximum(last[rows] + 1 - j, last[m] + 1)) + j
        last[m] = sweep_wave[0]
        last[rows[:-1]] = sweep_wave[1:]
        last[rows[-1]] = sweep_wave[-1]
        low[start:start + count] = rows
        wave[start:start + count] = sweep_wave
        start += count
    order = np.argsort(wave, kind="stable")
    cuts = np.flatnonzero(np.diff(wave[order])) + 1
    groups = zip(np.split(low[order], cuts),
                 np.split(np.frombuffer(cosines)[order, None], cuts),
                 np.split(np.frombuffer(sines)[order, None], cuts))
    for i, c, s in groups:
        z_low, z_high = zt[i], zt[i + 1]
        zt[i] = c * z_low - s * z_high
        zt[i + 1] = s * z_low + c * z_high
    return zt


class _Lanczos:
    """Lanczos iteration with full reorthogonalization, extendable.

    Step ``j`` depends only on the steps before it, so extending a
    ``k``-step run to ``k' > k`` steps does exactly the arithmetic of a
    fresh ``k'``-step run; growing the Krylov space keeps the steps
    already taken.
    """

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray], n: int,
                 seed: int, tol: float) -> None:
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(n)
        q /= np.linalg.norm(q)
        self.matvec = matvec
        self.tol = tol
        self.basis = [q]
        self.alphas: list = []
        self.betas: list = []
        #: (w, beta) of the last step, appended when the next step runs.
        self.pending: Optional[Tuple[np.ndarray, float]] = None
        self.invariant = False

    def extend(self, k: int) -> "_Lanczos":
        """Take steps until there are ``k`` (or the space is invariant)."""
        while len(self.alphas) < k and not self.invariant:
            if self.pending is not None:
                w, beta = self.pending
                self.pending = None
                if beta <= self.tol:
                    self.invariant = True  # invariant subspace found
                    break
                self.betas.append(beta)
                self.basis.append(w / beta)
            basis = self.basis
            j = len(self.alphas)
            w = self.matvec(basis[j])
            alpha = float(basis[j] @ w)
            self.alphas.append(alpha)
            w = w - alpha * basis[j]
            if j > 0:
                w = w - self.betas[-1] * basis[j - 1]
            # Full reorthogonalization for numerical stability.
            for vec in basis:
                w -= (vec @ w) * vec
            self.pending = (w, float(np.linalg.norm(w)))
        return self

    def ritz(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ritz pairs of the steps taken so far (values ascending)."""
        steps = len(self.alphas)
        values, small_vectors = tridiagonal_eigh(
            np.array(self.alphas), np.array(self.betas[: steps - 1])
        )
        q_matrix = np.stack(self.basis[:steps], axis=1)
        return values, q_matrix @ small_vectors


def lanczos(matvec: Callable[[np.ndarray], np.ndarray], n: int, k: int,
            seed: int = 0, tol: float = 1e-10) -> Tuple[np.ndarray, np.ndarray]:
    """Lanczos iteration with full reorthogonalization.

    ``matvec`` applies a symmetric ``n x n`` operator.  Builds a ``k``-step
    Krylov basis, eigensolves the tridiagonal projection with QL, and
    returns the ``k`` Ritz pairs ``(values ascending, vectors in columns)``.
    Early termination (invariant subspace) shrinks ``k``.
    """
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _Lanczos(matvec, n, seed, tol).extend(k).ritz()


def smallest_eigenvectors(matrix: np.ndarray, count: int,
                          seed: int = 0,
                          residual_tol: float = 1e-6) -> Tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenpairs of a symmetric matrix via Lanczos.

    Grows the Krylov space until the Ritz-pair residuals
    ``|A v - lambda v|`` fall below ``residual_tol`` (relative to the
    matrix scale) or the space spans the whole matrix.  Small systems fall
    back to the dense Jacobi solver directly.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if count < 1 or count > n:
        raise ValueError(f"need 1 <= count <= n, got count={count}, n={n}")
    if n <= 64:
        values, vectors = jacobi_eigh(matrix)
        return values[:count], vectors[:, :count]
    scale = max(1.0, float(np.abs(matrix).max()))
    k = min(n, max(2 * count + 20, 40))
    krylov = _Lanczos(lambda v: matrix @ v, n, seed, 1e-10)
    while True:
        values, vectors = krylov.extend(k).ritz()
        values = values[:count]
        vectors = vectors[:, :count]
        residual = np.abs(matrix @ vectors - vectors * values).max()
        if residual <= residual_tol * scale or k >= n:
            return values, vectors
        k = min(n, 2 * k)


def smallest_eigenvectors_operator(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    count: int,
    seed: int = 0,
    residual_tol: float = 1e-5,
    scale: float = 1.0,
    max_krylov: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Operator form of :func:`smallest_eigenvectors` (for sparse systems).

    ``matvec`` applies a symmetric operator of dimension ``n``; the Krylov
    space grows until Ritz residuals fall below ``residual_tol * scale``
    or reach ``max_krylov`` (default ``min(n, 400)``).
    """
    if count < 1 or count > n:
        raise ValueError(f"need 1 <= count <= n, got count={count}, n={n}")
    cap = max_krylov if max_krylov > 0 else min(n, 400)
    k = min(cap, max(2 * count + 20, 40))
    krylov = _Lanczos(matvec, n, seed, 1e-10)
    while True:
        values, vectors = krylov.extend(k).ritz()
        values = values[:count]
        vectors = vectors[:, :count]
        applied = np.stack(
            [matvec(vectors[:, j]) for j in range(count)], axis=1
        )
        residual = np.abs(applied - vectors * values).max()
        if residual <= residual_tol * max(scale, 1.0) or k >= cap:
            return values, vectors
        k = min(cap, 2 * k)


def power_iteration(matrix: np.ndarray, iterations: int = 200,
                    seed: int = 0, tol: float = 1e-12) -> Tuple[float, np.ndarray]:
    """Dominant eigenpair of a symmetric matrix by power iteration."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(n)
    vec /= np.linalg.norm(vec)
    value = 0.0
    for _ in range(iterations):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0, vec
        nxt /= norm
        new_value = float(nxt @ matrix @ nxt)
        if abs(new_value - value) <= tol * max(1.0, abs(new_value)):
            vec = nxt
            value = new_value
            break
        vec = nxt
        value = new_value
    return value, vec
