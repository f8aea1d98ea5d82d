"""Primal-dual interior-point solver for the SVM dual QP.

The SD-VBS SVM trains with "the iterative interior point method to find
the solution of the Karush-Kuhn-Tucker conditions of the primal and dual
problems".  The dual problem solved here is the standard soft-margin QP

    minimize   (1/2) a^T Q a - 1^T a
    subject to y^T a = 0,   0 <= a <= C

with ``Q = (y y^T) * K``.  Each iteration forms the perturbed KKT system,
eliminates the bound multipliers, and solves the reduced Newton system by
conjugate gradients (the benchmark's "Conjugate Matrix" kernel) with a
block elimination for the single equality multiplier.  CG is Jacobi
preconditioned by the system's diagonal ``diag(Q) + D + ridge``: late in
the solve ``D`` spans many orders of magnitude, and plain CG then runs
to its ``4 n`` cap without reaching its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..core.profiler import KernelProfiler, ensure_profiler
from ..linalg.lstsq import conjugate_gradient_steps


@dataclass
class IpmTrace:
    """Per-iteration diagnostics of the interior-point solve."""

    duality_gaps: List[float]
    residual_norms: List[float]
    #: CG iterations of each Newton step's two solves, ``(rhs, y)``; a
    #: solve that reached its ``4 n`` cap stopped short of its tolerance.
    cg_iterations: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.duality_gaps)


@dataclass
class IpmResult:
    """Solution of the dual QP."""

    alpha: np.ndarray
    equality_multiplier: float
    trace: IpmTrace
    converged: bool


def solve_svm_dual(
    q_matrix: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-6,
    max_iterations: int = 150,
    profiler: Optional[KernelProfiler] = None,
) -> IpmResult:
    """Solve the SVM dual QP by a primal-dual interior-point method.

    ``q_matrix`` is the label-signed Gram matrix ``(y y^T) * K`` (must be
    symmetric positive semidefinite); ``labels`` in {-1, +1}; ``c`` the
    box bound.  Returns the optimal ``alpha`` and the equality multiplier
    (which equals the decision-function bias up to sign).
    """
    profiler = ensure_profiler(profiler)
    q_matrix = np.asarray(q_matrix, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = y.size
    if q_matrix.shape != (n, n):
        raise ValueError(f"Q of shape {q_matrix.shape} mismatches {n} labels")
    if c <= 0:
        raise ValueError("C must be positive")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1/+1")
    # Strictly interior start.
    alpha = np.full(n, 0.5 * c)
    # Project onto y^T a = 0 while staying interior.
    alpha -= y * (y @ alpha) / n
    alpha = np.clip(alpha, 0.1 * c, 0.9 * c)
    lam = 0.0
    lower = np.full(n, 0.1 * c)  # multiplier for a >= 0
    upper = np.full(n, 0.1 * c)  # multiplier for a <= C
    gaps: List[float] = []
    residuals: List[float] = []
    cg_iterations: List[Tuple[int, int]] = []
    converged = False
    # Tiny ridge keeps CG safe against round-off indefiniteness.
    ridge = 1e-10 * max(1.0, float(np.abs(q_matrix).max()))
    q_diag = np.diagonal(q_matrix)
    for _iteration in range(max_iterations):
        grad = q_matrix @ alpha - 1.0 + lam * y
        slack_low = alpha
        slack_up = c - alpha
        mu = (lower @ slack_low + upper @ slack_up) / (2.0 * n)
        gaps.append(float(mu))
        primal_res = float(abs(y @ alpha))
        dual_res = float(np.linalg.norm(grad - lower + upper))
        residuals.append(dual_res)
        if mu < tol and primal_res < tol and dual_res < tol * (1.0 + n):
            converged = True
            break
        sigma = 0.2  # centering parameter
        target = sigma * mu
        # Eliminated diagonal: D = z_l / a + z_u / (C - a).
        diag = lower / slack_low + upper / slack_up
        rhs = (
            -grad
            + lower
            - upper
            + (target - lower * slack_low) / slack_low
            - (target - upper * slack_up) / slack_up
        )

        shifted = diag + ridge
        # Q is PSD and D, ridge > 0, so H's diagonal is strictly positive.
        jacobi = q_diag + shifted

        def kkt_matvec(v: np.ndarray) -> np.ndarray:
            return q_matrix @ v + shifted * v

        with profiler.kernel("ConjugateMatrix"):
            # Block-eliminate the equality constraint:
            #   [H y][da]   [rhs      ]        H = Q + D
            #   [y' 0][dl] = [-y^T a   ]
            h_inv_rhs, rhs_steps = conjugate_gradient_steps(
                kkt_matvec, rhs, tol=1e-8, max_iter=4 * n,
                preconditioner=jacobi)
            h_inv_y, y_steps = conjugate_gradient_steps(
                kkt_matvec, y, tol=1e-8, max_iter=4 * n,
                preconditioner=jacobi)
            cg_iterations.append((rhs_steps, y_steps))
            denom = float(y @ h_inv_y)
            if abs(denom) < 1e-14:
                break
            d_lam = (float(y @ h_inv_rhs) + float(y @ alpha)) / denom
            d_alpha = h_inv_rhs - d_lam * h_inv_y
        d_lower = (target - lower * slack_low) / slack_low - (
            lower / slack_low
        ) * d_alpha
        d_upper = (target - upper * slack_up) / slack_up + (
            upper / slack_up
        ) * d_alpha
        # Fraction-to-boundary step length.
        step = 1.0
        for vec, dvec in (
            (slack_low, d_alpha),
            (slack_up, -d_alpha),
            (lower, d_lower),
            (upper, d_upper),
        ):
            negative = dvec < 0
            if negative.any():
                step = min(step, float(
                    (0.95 * -vec[negative] / dvec[negative]).min()
                ))
        step = max(1e-8, min(1.0, step))
        alpha = alpha + step * d_alpha
        lam = lam + step * d_lam
        lower = lower + step * d_lower
        upper = upper + step * d_upper
        floor = 1e-12
        alpha = np.clip(alpha, floor, c - floor)
        lower = np.maximum(lower, floor)
        upper = np.maximum(upper, floor)
    return IpmResult(
        alpha=alpha,
        equality_multiplier=float(lam),
        trace=IpmTrace(duality_gaps=gaps, residual_norms=residuals,
                       cg_iterations=cg_iterations),
        converged=converged,
    )
