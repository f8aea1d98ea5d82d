"""The tridiagonal QL solver against the scalar-numpy tql2 it replaced.

``reference_tql2`` is the original ``tridiagonal_eigh``: the recurrence on
numpy scalars, each rotation applied column by column to ``z``.  The
rewrite must return the same eigenvalues and eigenvectors bit for bit,
in the same memory layout.  The reference can also record when it takes
the ``r == 0.0`` deflation branch, so the test for that branch can check
that its input really reaches it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import InputSize
from repro.linalg import eigen
from repro.linalg.eigen import tridiagonal_eigh
from repro.segmentation import benchmark, segment_image


def reference_tql2(diag, off, deflations=None):
    """Reference: the original scalar tql2.

    Appends ``i`` to ``deflations`` (if given) at each ``r == 0.0``
    deflation.
    """
    d = np.asarray(diag, dtype=np.float64).copy()
    n = d.size
    e = np.zeros(n)
    if n > 1:
        off = np.asarray(off, dtype=np.float64)
        if off.size != n - 1:
            raise ValueError(f"off-diagonal must have {n - 1} entries")
        e[: n - 1] = off
    z = np.eye(n)
    for l in range(n):
        for _iteration in range(50):
            # Find the end of the unreduced block starting at l.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= 1e-15 * dd:
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s, c = 1.0, 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = np.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    if deflations is not None:
                        deflations.append(i)
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
                col_next = z[:, i + 1].copy()
                z[:, i + 1] = s * z[:, i] + c * col_next
                z[:, i] = c * z[:, i] - s * col_next
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
                continue
        # block converged for index l
    order = np.argsort(d)
    return d[order], z[:, order]


def assert_identical(diag, off):
    want_values, want_vectors = reference_tql2(diag, off)
    values, vectors = tridiagonal_eigh(diag, off)
    assert np.array_equal(values, want_values)
    assert np.array_equal(vectors, want_vectors)
    assert values.tobytes() == want_values.tobytes()
    assert vectors.shape == want_vectors.shape
    assert vectors.tobytes(order="A") == want_vectors.tobytes(order="A")
    assert vectors.flags.f_contiguous == want_vectors.flags.f_contiguous


class TestReferenceOracle:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 70))
    @example(seed=0, n=1)
    @example(seed=0, n=2)
    @example(seed=5, n=160)  # the size segmentation's Lanczos reaches
    def test_random(self, seed, n):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4)
        assert_identical(scale * rng.standard_normal(n),
                         scale * rng.standard_normal(max(n - 1, 0)))

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny(self, n):
        assert_identical(np.arange(1.0, n + 1), np.full(n - 1, 0.5))
        assert_identical(np.zeros(n), np.zeros(n - 1))

    def test_split_blocks(self):
        rng = np.random.default_rng(11)
        off = rng.standard_normal(29)
        off[[0, 7, 8, 20, 28]] = 0.0  # zero off-diagonals split the matrix
        assert_identical(rng.standard_normal(30), off)

    def test_repeated_eigenvalues(self):
        # Two copies of one block, split by a zero: every eigenvalue twice.
        rng = np.random.default_rng(12)
        block_d, block_e = rng.standard_normal(9), rng.standard_normal(8)
        assert_identical(np.concatenate([block_d, block_d]),
                         np.concatenate([block_e, [0.0], block_e]))
        assert_identical(np.full(12, 2.0), np.zeros(11))
        # The Wilkinson W21+ matrix: pairs of nearly equal eigenvalues.
        assert_identical(np.abs(np.arange(-10.0, 11.0)), np.ones(20))

    def test_deflation_branch(self):
        # Subnormal entries make both f and g underflow to zero mid-sweep.
        diag = np.array([2.53e-321, -1.265e-321, -6.3e-322])
        off = np.array([5.06e-321, -4.427e-321])
        deflations = []
        reference_tql2(diag, off, deflations)
        assert deflations
        assert_identical(diag, off)

    def test_lanczos_projections(self):
        # Segmentation asks for its few smallest Ritz pairs only, which
        # the QL solver no longer computes; its projections still feed
        # both QL versions here.
        seen = []
        real = eigen._Lanczos.ritz

        def spy(krylov, count=0):
            steps = len(krylov.alphas)
            seen.append((np.array(krylov.alphas),
                         np.array(krylov.betas[: steps - 1])))
            return real(krylov, count)

        eigen._Lanczos.ritz = spy
        try:
            image, _ = benchmark.setup(InputSize.SQCIF, 2)
            segment_image(image, n_segments=benchmark.N_SEGMENTS,
                          radius=benchmark.RADIUS,
                          max_nodes=benchmark.MAX_NODES)
        finally:
            eigen._Lanczos.ritz = real
        assert [diag.size for diag, _ in seen] == [40, 80, 160]
        for diag, off in seen:
            assert_identical(diag, off)


class TestBadInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_diagonal(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tridiagonal_eigh(np.array([1.0, bad, 2.0]), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_off_diagonal(self, bad):
        with pytest.raises(ValueError, match="finite"):
            tridiagonal_eigh(np.ones(3), np.array([0.5, bad]))

    def test_unconverged_raises(self):
        # Subnormal entries: the split test 1e-15 * dd underflows to zero,
        # so the block never splits and the shifts make no progress.
        with pytest.raises(np.linalg.LinAlgError, match="not converged"):
            tridiagonal_eigh(np.array([5e-324, 0.0, -1e-323]),
                             np.array([-5e-324, -5e-324]))
