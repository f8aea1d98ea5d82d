"""Symmetric eigensolvers: cyclic Jacobi and Lanczos.

The segmentation benchmark's "Eigensolve" kernel computes the smallest
eigenvectors of a (large, sparse-structured) normalized Laplacian.  We
provide a dense cyclic-Jacobi solver for small systems and a Lanczos
iteration with full reorthogonalization for the Laplacian itself.  The
small tridiagonal problem is solved by implicit QL when every Ritz pair
is wanted, and by Sturm multisection and inverse iteration when only the
few smallest are.
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


#: Shifts per interval and round of :func:`tridiagonal_smallest`'s
#: multisection: each round narrows every interval 64-fold.
MULTISECTION_SHIFTS = 63

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_SQRT_HALF = float(np.sqrt(0.5))


def tridiagonal_smallest(diag: np.ndarray, off: np.ndarray,
                         count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``count`` smallest eigenpairs of a symmetric tridiagonal matrix.

    ``diag`` holds the ``n`` diagonal entries, ``off`` the ``n - 1``
    sub-diagonal entries.  Returns ascending eigenvalues and unit
    eigenvectors in columns, each with its largest-magnitude component
    positive (the first such component on a tie).

    * Eigenvalues by Sturm-count multisection (as LAPACK's ``dstebz``):
      each round counts the eigenvalues below
      :data:`MULTISECTION_SHIFTS` shifts per wanted eigenvalue in one
      pass, until every interval is within ``eps * ||T||``.
    * Eigenvectors by one step of inverse iteration through the twisted
      factorization of ``T - lambda I`` (Parlett & Dhillon, LAA 1997):
      the top-down and bottom-up ``LDL^T`` pivots meet at the row ``r``
      where ``e_r`` is the best start vector, and the solution of
      ``(T - lambda I) z = gamma_r e_r`` is two running products of
      pivot ratios.  Vectors of eigenvalues closer than ``1e-3 ||T||``
      are then orthonormalized within their cluster (as ``dstein``).

    The pivot passes loop over the rows with every shift in one array,
    so a solve makes O(n) numpy calls and O(n * count) arithmetic, where
    :func:`tridiagonal_eigh` makes O(n^2).  Should a vector come out
    non-finite (an exactly zero pivot) or nearly dependent on its
    cluster (eigenvalues equal to working precision inside one block),
    the pairs come from :func:`tridiagonal_eigh` instead.  Raises
    ``ValueError`` on non-finite input.
    """
    diag = np.asarray(diag, dtype=np.float64).ravel()
    n = diag.size
    off = np.asarray(off, dtype=np.float64).ravel() if n > 1 else np.zeros(0)
    if off.size != max(n - 1, 0):
        raise ValueError(f"off-diagonal must have {n - 1} entries")
    if not 1 <= count <= n:
        raise ValueError(f"need 1 <= count <= n, got count={count}, n={n}")
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise ValueError("tridiagonal entries must be finite")
    magnitude = np.abs(diag).max() + 2.0 * (np.abs(off).max() if n > 1 else 0.0)
    if magnitude == 0.0:
        return np.zeros(count), np.eye(n, count)
    # Work on T scaled by a power of two (exact) to a norm in [0.5, 1):
    # no square of an entry overflows, and tolerances are absolute.
    exponent = np.frexp(magnitude)[1]
    a = np.ldexp(diag, -exponent)
    b = np.ldexp(off, -exponent)
    # Split T into unreduced blocks where an off-diagonal is negligible
    # (the dstebz test, which moves T by at most eps ||T||): each block's
    # pivots start afresh.
    b2 = b * b
    split = b2 <= _EPS * _EPS * np.abs(a[:-1] * a[1:]) + _TINY
    b[split], b2[split] = 0.0, 0.0
    lo, hi = _sturm_multisection(a, b2, count)
    values = lo + 0.5 * (hi - lo)
    # One pass gives the pivots at the eigenvalues and the counts that
    # place each eigenvalue in its block: the first block whose
    # eigenvalues in [lo_i, hi_i), counted block by block, exceed the
    # eigenvalue's rank there.
    pivots = _sturm_pivots(a, b2, np.concatenate([values, lo, hi]))
    starts = np.flatnonzero(np.concatenate([[True], split]))
    per_block = np.add.reduceat(np.signbit(pivots[:, count:]), starts, axis=0)
    below_lo, below_hi = per_block[:, :count], per_block[:, count:]
    rank = np.arange(count) - below_lo.sum(axis=0)
    block = np.argmax(np.cumsum(below_hi - below_lo, axis=0) > rank, axis=0)
    support = np.cumsum(np.concatenate([[0], split]))[:, None] == block
    vectors = _twisted_vectors(a, b, b2, values, pivots[:, :count], support)
    if vectors is None:
        values, vectors = tridiagonal_eigh(diag, off)
        values, vectors = values[:count], vectors[:, :count]
        largest = np.abs(vectors).argmax(axis=0)
        return values, vectors * np.copysign(
            1.0, vectors[largest, np.arange(count)])
    return np.ldexp(values, exponent), vectors


def _sturm_pivots(a: np.ndarray, b2: np.ndarray,
                  shifts: np.ndarray) -> np.ndarray:
    """``LDL^T`` pivots of ``T - x I`` for every shift, ``(n, shifts)``.

    The recurrence ``q_j = (a_j - x) - b_j-1^2 / q_j-1`` runs for all
    shifts at once; the number of eigenvalues below ``x`` is the number
    of pivots with their sign bit set.  IEEE infinities stand in for the
    usual pivot guards: a zero pivot makes the next one infinite with the
    matching sign and the one after that finite again.  A zero ``b2``
    (a split) starts a new block, so the recurrence never meets 0/0.
    """
    pivots = np.subtract.outer(a, shifts)
    rows = list(pivots)
    ratio = np.empty(shifts.size)
    with np.errstate(divide="ignore", over="ignore"):
        for j, b2_j in enumerate(b2.tolist()):
            if b2_j:
                np.divide(b2_j, rows[j], out=ratio)
                np.subtract(rows[j + 1], ratio, out=rows[j + 1])
    return pivots


def _sturm_multisection(a: np.ndarray, b2: np.ndarray,
                        count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Intervals ``(lo, hi)`` around the ``count`` smallest eigenvalues.

    For a tridiagonal of norm below 1.  Interval ``i`` always holds
    eigenvalue ``i``: at most ``i`` eigenvalues lie below ``lo_i`` and
    more than ``i`` below ``hi_i``.  Each round counts below
    :data:`MULTISECTION_SHIFTS` evenly spaced shifts per interval in one
    :func:`_sturm_pivots` pass, until every interval is within
    ``max(eps, 2 eps |x|)``.
    """
    n = a.size
    radius = np.sqrt(np.concatenate([b2, [0.0]])) + np.sqrt(
        np.concatenate([[0.0], b2]))
    slack = 2.1 * _EPS * n + 4.2 * _TINY
    lo = np.full(count, (a - radius).min() - slack)
    hi = np.full(count, (a + radius).max() + slack)
    wanted = np.arange(count)[:, None]
    fractions = np.arange(1, MULTISECTION_SHIFTS + 1) / (
        MULTISECTION_SHIFTS + 1.0)
    # Each round narrows an interval 64-fold; 53 bits take 9 rounds.
    for _round in range(64):
        width = hi - lo
        if (width <= np.maximum(_EPS, 2.0 * _EPS * np.maximum(
                np.abs(lo), np.abs(hi)))).all():
            break
        shifts = lo[:, None] + width[:, None] * fractions
        below = np.count_nonzero(
            np.signbit(_sturm_pivots(a, b2, shifts.ravel())), axis=0
        ).reshape(shifts.shape)
        # Counts grow with the shift, so the last shift with at most i
        # eigenvalues below it is the new low end of interval i.
        at_most = below <= wanted
        lo = np.where(at_most, shifts, lo[:, None]).max(axis=1)
        hi = np.where(at_most, hi[:, None], shifts).min(axis=1)
    return lo, hi


def _twisted_vectors(a: np.ndarray, b: np.ndarray, b2: np.ndarray,
                     values: np.ndarray, plus: np.ndarray,
                     support: np.ndarray) -> Optional[np.ndarray]:
    """Unit eigenvectors for ``values`` of a tridiagonal of norm < 1.

    ``plus`` holds the top-down pivots at ``values`` and ``support[:, i]``
    marks the rows of eigenvalue ``i``'s block; each vector is zero
    outside its block, so eigenvalues repeated across blocks get vectors
    with disjoint supports.  With the bottom-up pivots ``minus``,
    ``gamma_r = plus_r + minus_r - (a_r - lambda)`` and the twist ``r``
    minimizes ``|gamma_r|`` in the block.  Above ``r``,
    ``z_i = -(b_i / plus_i) z_i+1``; below it,
    ``z_i+1 = -(b_i / minus_i+1) z_i``.  ``None`` if a vector is not
    finite or loses more than half its norm to its cluster.
    """
    n, m = a.size, values.size
    minus = _sturm_pivots(a[::-1], b2[::-1], values)[::-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = plus + minus - np.subtract.outer(a, values)
        # Any row of the block beats every row outside it.
        twist = np.where(support, np.fmin(np.abs(gamma), np.finfo(
            np.float64).max), np.inf).argmin(axis=0)
        rows = np.arange(n - 1)[:, None]
        up = np.where((rows < twist) & support[1:],
                      -b[:, None] / plus[:-1], 1.0)
        down = np.where((rows >= twist) & support[1:],
                        -b[:, None] / minus[1:], 1.0)
        vectors = np.ones((n, m))
        vectors[:-1] = np.cumprod(up[::-1], axis=0)[::-1]
        vectors[1:] *= np.cumprod(down, axis=0)
    vectors *= support
    if not np.isfinite(vectors).all():
        return None
    vectors /= np.linalg.norm(vectors, axis=0)
    # Consecutive wanted eigenvalues closer than 1e-3 ||T|| share a
    # cluster; each vector is orthogonalized against the earlier ones
    # (classical Gram-Schmidt, twice).
    first = np.concatenate([[0], np.flatnonzero(np.diff(values) > 1e-3) + 1])
    cluster_start = np.repeat(first, np.diff(np.concatenate([first, [m]])))
    for j in np.flatnonzero(cluster_start < np.arange(m)):
        earlier, vector = vectors[:, cluster_start[j]:j], vectors[:, j]
        for _ in range(2):
            vector -= earlier @ (earlier.T @ vector)
        norm = np.linalg.norm(vector)
        if norm < 0.5:
            return None
        vector /= norm
    largest = np.abs(vectors).argmax(axis=0)
    return vectors * np.copysign(1.0, vectors[largest, np.arange(m)])


def _project(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``(basis @ w) @ basis`` without BLAS matrix-vector products.

    Row dot products and a weighted row sum run on one thread.  With
    BLAS's threaded products in the Lanczos loop, segmentation runs on a
    2-vCPU host switched, process by process, between two speeds about
    2x apart; with BLAS limited to one thread they did not.
    """
    return np.einsum("i,ij->j", np.vecdot(basis, w), basis)


class _Lanczos:
    """Lanczos iteration with full reorthogonalization, extendable.

    Step ``j`` depends only on the steps before it, so extending a
    ``k``-step run to ``k' > k`` steps does exactly the arithmetic of a
    fresh ``k'``-step run; growing the Krylov space keeps the steps
    already taken.  The basis vectors are the rows of one array that
    grows to the requested step count, so each step reorthogonalizes
    against the whole basis in matrix-vector passes: classical
    Gram-Schmidt, applied a second time when the first pass shrinks the
    vector below ``1/sqrt(2)`` of its norm (Daniel, Gragg, Kaufman &
    Stewart, Math. Comp. 1976).  That keeps the basis orthogonal to
    working precision, as Gram-Schmidt applied twice does (Giraud et
    al., Numer. Math. 2005), and a Lanczos step rarely needs the second
    pass: the three-term recurrence has already removed what the pass
    would cancel.
    """

    def __init__(self, matvec: Callable[[np.ndarray], np.ndarray], n: int,
                 seed: int, tol: float) -> None:
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(n)
        q /= np.linalg.norm(q)
        self.matvec = matvec
        self.tol = tol
        #: Basis vectors in rows; the first ``len(betas) + 1`` are in use.
        self.basis = q[None, :]
        self.alphas: list = []
        self.betas: list = []
        #: (w, beta) of the last step, appended when the next step runs.
        self.pending: Optional[Tuple[np.ndarray, float]] = None
        self.invariant = False

    def extend(self, k: int) -> "_Lanczos":
        """Take steps until there are ``k`` (or the space is invariant)."""
        if k > len(self.basis):
            used = len(self.betas) + 1
            grown = np.empty((k, self.basis.shape[1]))
            grown[:used] = self.basis[:used]
            self.basis = grown
        while len(self.alphas) < k and not self.invariant:
            if self.pending is not None:
                w, beta = self.pending
                self.pending = None
                if beta <= self.tol:
                    self.invariant = True  # invariant subspace found
                    break
                self.betas.append(beta)
                np.divide(w, beta, out=self.basis[len(self.betas)])
            j = len(self.alphas)
            basis = self.basis[:len(self.betas) + 1]
            q = basis[j]
            w = self.matvec(q)
            alpha = float(q @ w)
            self.alphas.append(alpha)
            w = w - alpha * q
            if j > 0:
                w = w - self.betas[-1] * basis[j - 1]
            # Full reorthogonalization for numerical stability: one block
            # pass, and a second if the first cancelled enough of w to
            # leave rounding errors that matter (the DGKS test).
            norm = float(np.linalg.norm(w))
            w -= _project(basis, w)
            beta = float(np.linalg.norm(w))
            if beta < norm * _SQRT_HALF:
                w -= _project(basis, w)
                beta = float(np.linalg.norm(w))
            self.pending = (w, beta)
        return self

    def ritz(self, count: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Ritz pairs of the steps taken so far (values ascending).

        Every pair with the full QL solver, or only the ``count``
        smallest (``0 < count``) with :func:`tridiagonal_smallest`.
        """
        steps = len(self.alphas)
        diag = np.array(self.alphas)
        off = np.array(self.betas[: steps - 1])
        if 0 < count < steps:
            values, small_vectors = tridiagonal_smallest(diag, off, count)
        else:
            values, small_vectors = tridiagonal_eigh(diag, off)
        # einsum, not a BLAS product, for the reason _project gives.
        return values, np.einsum("ij,ik->jk", self.basis[:steps],
                                 small_vectors)


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
        values, vectors = krylov.extend(k).ritz(count)
        values = values[:count]
        vectors = vectors[:, :count]
        applied = np.stack(
            [matvec(vectors[:, j]) for j in range(count)], axis=1
        )
        residual = np.abs(applied - vectors * values).max()
        if residual <= residual_tol * max(scale, 1.0) or k >= cap:
            return values, vectors
        k = min(cap, 2 * k)
