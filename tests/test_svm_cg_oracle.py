"""Jacobi-preconditioned CG and the interior-point solves that use it.

``reference_conjugate_gradient`` is the CG loop as it was before the
preconditioner was added; without a preconditioner the solver must give
the same bits.  With one, a badly scaled SPD system must converge to the
same tolerance in far fewer iterations, and a preconditioner that is not
strictly positive is refused.  On the suite's own svm inputs no IPM
solve may reach its ``4 n`` cap, and both kernel backends must agree on
the app's outputs.
"""

import numpy as np
import pytest

from repro.core import InputSize, get_benchmark, run_benchmark
from repro.linalg import SingularMatrixError
from repro.linalg.lstsq import conjugate_gradient_steps
from repro.svm import SupportVectorMachine, polynomial_kernel
from repro.svm import benchmark as svm_bench

CELLS = [(size, v) for size in ("SQCIF", "CIF") for v in range(5)]


def reference_conjugate_gradient(matvec, b, x0=None, tol=1e-10,
                                 max_iter=None):
    """Reference: the unpreconditioned CG loop, unchanged."""
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - matvec(x)
    p = r.copy()
    rs_old = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    limit = max_iter if max_iter is not None else 4 * n
    for _ in range(limit):
        if np.sqrt(rs_old) <= tol * b_norm:
            break
        ap = matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            raise SingularMatrixError("operator is not positive definite")
        alpha = rs_old / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new
    return x


def badly_scaled_spd(n=60, seed=3):
    """A well-conditioned SPD core under a diagonal spanning 1e-4..1e4,
    like the IPM's ``Q + D`` late in the solve."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    core = a @ a.T / n + np.eye(n)
    scale = np.logspace(-2, 2, n)
    rng.shuffle(scale)
    return core * np.outer(scale, scale)


# ----------------------------------------------------------------------
# conjugate_gradient_steps


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_iter", [None, 3, 0])
def test_unpreconditioned_matches_reference_bits(seed, max_iter):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((25, 25))
    spd = a @ a.T + 0.1 * np.eye(25)
    b = rng.standard_normal(25)
    x0 = rng.standard_normal(25) if seed % 2 else None
    got, _ = conjugate_gradient_steps(lambda v: spd @ v, b, x0=x0,
                                      tol=1e-12, max_iter=max_iter)
    want = reference_conjugate_gradient(lambda v: spd @ v, b, x0=x0,
                                        tol=1e-12, max_iter=max_iter)
    assert got.tobytes() == want.tobytes()


def test_unpreconditioned_matches_reference_at_cap():
    h = badly_scaled_spd()
    b = np.ones(h.shape[0])
    got, steps = conjugate_gradient_steps(lambda v: h @ v, b, tol=1e-12)
    want = reference_conjugate_gradient(lambda v: h @ v, b, tol=1e-12)
    assert steps == 4 * h.shape[0]
    assert got.tobytes() == want.tobytes()


def test_steps_count_matvecs():
    calls = []
    a = np.diag([1.0, 2.0, 3.0])

    def matvec(v):
        calls.append(1)
        return a @ v

    x, steps = conjugate_gradient_steps(matvec, np.ones(3))
    assert np.allclose(a @ x, 1.0)
    assert steps == len(calls) - 1 == 3  # one per distinct eigenvalue


def test_jacobi_preconditioner_converges_in_far_fewer_iterations():
    h = badly_scaled_spd()
    n = h.shape[0]
    b = np.random.default_rng(9).standard_normal(n)
    tol = 1e-8
    plain, plain_steps = conjugate_gradient_steps(lambda v: h @ v, b, tol=tol)
    jacobi, jacobi_steps = conjugate_gradient_steps(
        lambda v: h @ v, b, tol=tol, preconditioner=np.diagonal(h).copy())
    assert plain_steps == 4 * n  # plain CG runs out of iterations
    assert np.linalg.norm(h @ plain - b) > tol * np.linalg.norm(b)
    assert jacobi_steps * 5 < plain_steps
    assert np.linalg.norm(h @ jacobi - b) <= tol * np.linalg.norm(b)


def test_preconditioned_solves_small_system_exactly():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, 2.0])
    x, _ = conjugate_gradient_steps(lambda v: a @ v, b,
                                    preconditioner=np.diagonal(a))
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-12)


@pytest.mark.parametrize("bad", [
    [1.0, 0.0, 2.0],
    [1.0, -0.5, 2.0],
    [1.0, np.nan, 2.0],
    [1.0, np.inf, 2.0],
    [1.0, 2.0],
])
def test_preconditioner_must_be_positive_and_match(bad):
    a = np.eye(3)
    with pytest.raises(ValueError):
        conjugate_gradient_steps(lambda v: a @ v, np.ones(3),
                                 preconditioner=np.array(bad))


# ----------------------------------------------------------------------
# The IPM's solves on the suite's svm inputs


def fit_cell(size, variant):
    data = svm_bench.setup(InputSize[size], variant)
    machine = SupportVectorMachine(
        kernel=polynomial_kernel(degree=svm_bench.DEGREE,
                                 gamma=1.0 / svm_bench.DIM), c=1.0)
    machine.fit(data.train_x, data.train_y)
    return data, machine.last_result


@pytest.mark.parametrize("size,variant", CELLS)
def test_no_ipm_solve_reaches_cg_cap(size, variant):
    data, result = fit_cell(size, variant)
    n = data.train_y.size
    steps = np.array(result.trace.cg_iterations)
    assert result.converged
    assert steps.shape == (result.trace.iterations - 1, 2)
    assert 0 < steps.max() < 4 * n


@pytest.mark.parametrize("size,variant", CELLS)
def test_svm_outputs_agree_across_backends(size, variant):
    bench = get_benchmark("svm")
    ref = run_benchmark(bench, InputSize[size], variant, backend="ref")
    fast = run_benchmark(bench, InputSize[size], variant, backend="fast")
    assert ref.outputs == fast.outputs
    assert ref.kernel_calls == fast.kernel_calls
