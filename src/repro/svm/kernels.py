"""SVM kernel functions and Gram-matrix construction ("Matrix Ops").

The SD-VBS SVM uses polynomial kernels; a linear variant is provided
for the examples and tests.  Gram construction is the
benchmark's dominant matrix workload.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.backend import register_kernel
from ..core.metrics import FLOAT_BYTES, WorkEstimate

KernelFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _work_gram_matrix(kernel: KernelFn, points: np.ndarray) -> WorkEstimate:
    """Gram construction: 2 flops per (pair, dimension) inner product
    plus the symmetrization pass; read the points, write the n x n
    matrix twice (construction + symmetrize)."""
    n, dim = np.shape(points)
    pairs = float(n) * float(n)
    return WorkEstimate(
        flops=2.0 * pairs * dim + 2.0 * pairs,
        traffic_bytes=FLOAT_BYTES * (float(n) * dim + 2.0 * pairs),
    )


def linear_kernel() -> KernelFn:
    """k(x, z) = <x, z>."""

    def apply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(a) @ np.asarray(b).T

    return apply


def polynomial_kernel(degree: int = 3, coef0: float = 1.0,
                      gamma: float = 1.0) -> KernelFn:
    """k(x, z) = (gamma <x, z> + coef0)^degree — the suite's kernel."""
    if degree < 1:
        raise ValueError("degree must be >= 1")

    def apply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (gamma * (np.asarray(a) @ np.asarray(b).T) + coef0) ** degree

    return apply


def _gram_matrix_ref(kernel: KernelFn, points: np.ndarray) -> np.ndarray:
    """Loop-faithful Gram construction: one kernel evaluation per pair.

    The pair loops mirror the C suite's matrix-ops nest; each entry is
    the kernel applied to a single (x_i, x_j) row pair, so the inner
    product never goes through the blocked full-matrix BLAS path.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected (n, d) points, got shape {points.shape}")
    n = points.shape[0]
    gram = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            gram[i, j] = np.asarray(
                kernel(points[i : i + 1], points[j : j + 1])
            ).item()
    return 0.5 * (gram + gram.T)  # symmetrize against round-off


@register_kernel(
    "svm.kernel_matrix",
    paper_kernel="Matrix Ops (Gram construction)",
    apps=("svm",),
    ref=_gram_matrix_ref,
    rtol=1e-8,
    atol=1e-10,
    work=_work_gram_matrix,
)
def gram_matrix(kernel: KernelFn, points: np.ndarray) -> np.ndarray:
    """Symmetric Gram matrix K[i, j] = k(x_i, x_j).

    The whole-matrix kernel evaluation runs one blocked BLAS product;
    its summation order differs from the reference's per-pair inner
    products, hence the reduction-sized tolerance.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected (n, d) points, got shape {points.shape}")
    gram = kernel(points, points)
    return 0.5 * (gram + gram.T)  # symmetrize against round-off
