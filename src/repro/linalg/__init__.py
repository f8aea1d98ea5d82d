"""From-scratch linear algebra (the suite's matrix-operation kernels)."""

from .decompose import null_vector, qr_decompose, svd_jacobi
from .eigen import (
    jacobi_eigh,
    lanczos,
    smallest_eigenvectors_operator,
    tridiagonal_eigh,
    tridiagonal_smallest,
)
from .lstsq import conjugate_gradient_steps, lstsq_qr
from .matrix import (
    SingularMatrixError,
    inverse_2x2_batch,
    solve,
)

__all__ = [
    "SingularMatrixError",
    "conjugate_gradient_steps",
    "inverse_2x2_batch",
    "jacobi_eigh",
    "lanczos",
    "lstsq_qr",
    "null_vector",
    "qr_decompose",
    "smallest_eigenvectors_operator",
    "solve",
    "tridiagonal_eigh",
    "tridiagonal_smallest",
]
