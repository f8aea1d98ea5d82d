"""SVM: interior-point training and kernel classification."""

from .benchmark import BENCHMARK, DEGREE, DIM, KERNELS
from .ipm import IpmResult, IpmTrace, solve_svm_dual
from .kernels import (
    KernelFn,
    gram_matrix,
    linear_kernel,
    polynomial_kernel,
)
from .smo import SmoResult, solve_svm_dual_smo
from .svm import SupportVectorMachine

__all__ = [
    "BENCHMARK",
    "DEGREE",
    "DIM",
    "KERNELS",
    "IpmResult",
    "IpmTrace",
    "KernelFn",
    "SmoResult",
    "SupportVectorMachine",
    "gram_matrix",
    "linear_kernel",
    "polynomial_kernel",
    "solve_svm_dual",
    "solve_svm_dual_smo",
]
