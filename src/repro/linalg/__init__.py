"""From-scratch linear algebra (the suite's matrix-operation kernels)."""

from .decompose import null_vector, pseudo_inverse, qr_decompose, svd_jacobi
from .eigen import (
    jacobi_eigh,
    lanczos,
    power_iteration,
    smallest_eigenvectors,
    smallest_eigenvectors_operator,
    tridiagonal_eigh,
    tridiagonal_smallest,
)
from .lstsq import conjugate_gradient, lstsq_normal, lstsq_qr
from .matrix import (
    SingularMatrixError,
    cholesky,
    determinant,
    identity,
    inverse,
    inverse_2x2,
    inverse_2x2_batch,
    lu_decompose,
    matmul,
    solve,
    solve_spd,
    transpose,
)

__all__ = [
    "SingularMatrixError",
    "cholesky",
    "conjugate_gradient",
    "determinant",
    "identity",
    "inverse",
    "inverse_2x2",
    "inverse_2x2_batch",
    "jacobi_eigh",
    "lanczos",
    "lstsq_normal",
    "lstsq_qr",
    "lu_decompose",
    "matmul",
    "null_vector",
    "power_iteration",
    "pseudo_inverse",
    "qr_decompose",
    "smallest_eigenvectors",
    "smallest_eigenvectors_operator",
    "solve",
    "solve_spd",
    "transpose",
    "tridiagonal_eigh",
    "tridiagonal_smallest",
]
