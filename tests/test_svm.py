"""Tests for the SVM application."""

import numpy as np
import pytest

from repro.core import InputSize, KernelProfiler
from repro.core.inputs import svm_dataset
from repro.svm import (
    BENCHMARK,
    SupportVectorMachine,
    gram_matrix,
    linear_kernel,
    polynomial_kernel,
    solve_svm_dual,
)


def toy_problem(n=40, dim=3, margin=2.0, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    direction = np.ones(dim) / np.sqrt(dim)
    points = rng.standard_normal((n, dim)) + np.outer(labels * margin,
                                                      direction)
    return points, labels


class TestKernels:
    def test_linear_is_dot(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0, 4.0]])
        assert linear_kernel()(a, b)[0, 0] == pytest.approx(11.0)

    def test_polynomial_expansion(self):
        k = polynomial_kernel(degree=2, coef0=1.0, gamma=1.0)
        a = np.array([[1.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        assert k(a, b)[0, 0] == pytest.approx(4.0)  # (1*1 + 1)^2

    def test_gram_symmetric_psd(self):
        pts = np.random.default_rng(1).standard_normal((10, 4))
        gram = gram_matrix(linear_kernel(), pts)
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() > -1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            polynomial_kernel(degree=0)
        with pytest.raises(ValueError):
            gram_matrix(linear_kernel(), np.ones(3))


class TestInteriorPoint:
    def test_constraints_satisfied(self):
        points, labels = toy_problem()
        q = gram_matrix(linear_kernel(), points) * np.outer(labels, labels)
        result = solve_svm_dual(q, labels, c=1.0)
        alpha = result.alpha
        assert abs(labels @ alpha) < 1e-6
        assert (alpha >= -1e-9).all()
        assert (alpha <= 1.0 + 1e-9).all()

    def test_duality_gap_shrinks(self):
        points, labels = toy_problem(seed=1)
        q = gram_matrix(linear_kernel(), points) * np.outer(labels, labels)
        result = solve_svm_dual(q, labels, c=1.0)
        gaps = result.trace.duality_gaps
        assert gaps[-1] < 0.01 * gaps[0]

    def test_near_optimal_objective(self):
        points, labels = toy_problem(n=30, seed=2)
        q = gram_matrix(linear_kernel(), points) * np.outer(labels, labels)
        result = solve_svm_dual(q, labels, c=1.0)

        def objective(a):
            return 0.5 * a @ q @ a - a.sum()

        # Long projected-gradient reference (approximate optimum).
        a = np.full(labels.size, 0.5)
        for _ in range(30000):
            a -= 0.0005 * (q @ a - 1.0)
            a -= labels * (labels @ a) / labels.size
            a = np.clip(a, 0.0, 1.0)
        assert objective(result.alpha) <= objective(a) + 0.05

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_svm_dual(np.eye(3), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            solve_svm_dual(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            solve_svm_dual(np.eye(2), np.array([1.0, -1.0]), c=0.0)


class TestSupportVectorMachine:
    def test_separable_training_accuracy(self):
        points, labels = toy_problem(n=60, margin=2.5, seed=3)
        machine = SupportVectorMachine(kernel=linear_kernel(), c=10.0)
        machine.fit(points, labels)
        assert machine.accuracy(points, labels) >= 0.95

    def test_generalization(self):
        train_x, train_y = toy_problem(n=80, margin=2.0, seed=4)
        test_x, test_y = toy_problem(n=60, margin=2.0, seed=5)
        machine = SupportVectorMachine(kernel=linear_kernel(), c=1.0)
        machine.fit(train_x, train_y)
        assert machine.accuracy(test_x, test_y) > 0.85

    def test_polynomial_solves_xor(self):
        # XOR is not linearly separable; a degree-2 kernel handles it.
        points = np.array(
            [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]] * 6
        )
        points = points + np.random.default_rng(6).normal(0, 0.1,
                                                          points.shape)
        labels = np.array([1.0, 1.0, -1.0, -1.0] * 6)
        machine = SupportVectorMachine(
            kernel=polynomial_kernel(degree=2, gamma=1.0), c=10.0
        )
        machine.fit(points, labels)
        assert machine.accuracy(points, labels) >= 0.9

    def test_support_vectors_subset(self):
        points, labels = toy_problem(n=50, seed=7)
        machine = SupportVectorMachine(kernel=linear_kernel(), c=1.0)
        machine.fit(points, labels)
        assert 0 < machine.support_alphas.size <= 50

    def test_decision_before_fit_raises(self):
        machine = SupportVectorMachine()
        with pytest.raises(RuntimeError):
            machine.decision(np.ones((1, 3)))

    def test_input_validation(self):
        machine = SupportVectorMachine()
        with pytest.raises(ValueError):
            machine.fit(np.ones((4, 2)), np.array([1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            machine.fit(np.ones((2, 2)), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            machine.fit(np.ones((3, 2)), np.array([1.0, -1.0]))


class TestBenchmarkWiring:
    def test_run_and_kernels(self):
        workload = BENCHMARK.setup(InputSize.SQCIF, 0)
        profiler = KernelProfiler()
        with profiler.run():
            out = BENCHMARK.run(workload, profiler)
        assert out["train_accuracy"] > 0.9
        assert out["test_accuracy"] > 0.6
        assert out["support_vectors"] > 0
        for kernel in ("MatrixOps", "Learning", "ConjugateMatrix"):
            assert kernel in profiler.kernel_seconds

    def test_dataset_scales_with_size(self):
        small = svm_dataset(InputSize.SQCIF, 0)
        large = svm_dataset(InputSize.CIF, 0)
        assert large.train_x.shape[0] > small.train_x.shape[0]

    def test_parallelism_ordering(self):
        rows = {r.kernel: r for r in BENCHMARK.parallelism(InputSize.SQCIF)}
        # Table IV: MatrixOps (1000x) > Learning (851x) > Conjugate (502x)
        assert rows["MatrixOps"].parallelism > rows["Learning"].parallelism
        assert rows["Learning"].parallelism > \
            rows["ConjugateMatrix"].parallelism
