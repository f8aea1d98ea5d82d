"""Batched RANSAC, stacked QR and the converging Jacobi SVD against the
code they replaced.

``reference_ransac_affine`` is the original RANSAC: one ``fit_affine``
and one reprojection pass per hypothesis, keeping any strictly better
inlier count.  ``reference_qr_decompose`` is the original one-matrix
Householder QR.  ``reference_dlt_design`` builds the DLT design matrix
one match at a time, as ``homography_dlt`` did.  The rewrite fits all
hypotheses as one stack and scores them as one error matrix; it must
give the same masks, models and iteration counts on every edge the loop
handles: duplicated points, collinear (singular) picks, three matches,
all-degenerate matches, tied counts, one iteration and the app's own
match sets, under both backends (ref at SQCIF).  The SVD now stops on a relative
orthogonality test; on every stitch DLT matrix it must settle well
before its sweep cap.
"""

import functools

import numpy as np
import pytest

from repro.core import InputSize
from repro.core.backend import use_backend
from repro.linalg import qr_decompose, svd_jacobi
from repro.linalg.lstsq import lstsq_qr, lstsq_qr_batch
from repro.linalg.matrix import SingularMatrixError
from repro.stitch import benchmark as stitch_bench
from repro.stitch import (
    describe_corners,
    detect_corners,
    fit_affine,
    homography_dlt,
    match_features,
    match_points,
    ransac_affine,
)
from repro.stitch import ransac as ransac_module
from repro.stitch.ransac import fit_translation

CELLS = [(size, v) for size in ("SQCIF", "CIF") for v in range(5)]
# The ref backend's pure-Python convolutions take ~8-11 s per CIF pair,
# so it runs on the SQCIF cells only.
BACKEND_CELLS = ([("fast", size, v) for size, v in CELLS]
                 + [("ref", size, v) for size, v in CELLS[:5]])


# ----------------------------------------------------------------------
# Oracles: the per-item code the rewrite replaced


def reference_qr_decompose(a):
    """Reference: the original one-matrix Householder QR."""
    a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    r = a.copy()
    q_full = np.eye(m)
    for col in range(n):
        x = r[col:, col]
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(norm_x, x[0] if x[0] != 0 else 1.0)
        v_norm = np.linalg.norm(v)
        if v_norm == 0.0:
            continue
        v /= v_norm
        r[col:, col:] -= 2.0 * np.outer(v, v @ r[col:, col:])
        q_full[:, col:] -= 2.0 * np.outer(q_full[:, col:] @ v, v)
    q = q_full[:, :n]
    r = np.triu(r[:n, :])
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def reference_ransac_affine(src, dst, n_iterations=256,
                            inlier_threshold=2.0, seed=0):
    """Reference: one hypothesis per loop turn.

    Returns ``(model, inliers, iterations)``.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = src.shape[0]
    rng = np.random.default_rng(seed)
    best_mask = np.zeros(n, dtype=bool)
    for _ in range(n_iterations):
        picks = rng.choice(n, 3, replace=False)
        try:
            model = fit_affine(src[picks], dst[picks])
        except (SingularMatrixError, ValueError):
            continue
        errors = np.linalg.norm(model.apply(src) - dst, axis=1)
        mask = errors < inlier_threshold
        if mask.sum() > best_mask.sum():
            best_mask = mask
    if best_mask.sum() < 3:
        model = fit_translation(src, dst)
        errors = np.linalg.norm(model.apply(src) - dst, axis=1)
        return model, errors < inlier_threshold, n_iterations
    return (fit_affine(src[best_mask], dst[best_mask]), best_mask,
            n_iterations)


def reference_dlt_design(src, dst):
    """Reference: Hartley-normalized DLT rows, one match at a time."""

    def normalized(pts):
        centroid = pts.mean(axis=0)
        spread = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
        scale = (2.0**0.5) / max(spread, 1e-12)
        return np.stack(
            [pts[:, 1] * scale - scale * centroid[1],
             pts[:, 0] * scale - scale * centroid[0]], axis=1
        )

    src_xy = normalized(np.asarray(src, dtype=np.float64))
    dst_xy = normalized(np.asarray(dst, dtype=np.float64))
    n = src_xy.shape[0]
    design = np.zeros((2 * n, 9))
    for i in range(n):
        x, y = src_xy[i]
        u, v = dst_xy[i]
        design[2 * i] = [-x, -y, -1, 0, 0, 0, u * x, u * y, u]
        design[2 * i + 1] = [0, 0, 0, -x, -y, -1, v * x, v * y, v]
    return design


# ----------------------------------------------------------------------
# Helpers


def assert_same_result(src, dst, **kwargs):
    """The batched and loop RANSAC agree byte for byte; returns the mask."""
    result = ransac_affine(src, dst, **kwargs)
    model, inliers, iterations = reference_ransac_affine(src, dst, **kwargs)
    assert result.iterations == iterations
    assert result.inliers.dtype == np.bool_
    assert np.array_equal(result.inliers, inliers)
    assert result.model.matrix.tobytes() == model.matrix.tobytes()
    assert result.model.translation.tobytes() == model.translation.tobytes()
    return result.inliers


def translated(points, offset, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return points + np.asarray(offset, dtype=np.float64) + noise * (
        rng.standard_normal(points.shape))


@functools.lru_cache(maxsize=None)
def app_matches(size, variant, backend="fast"):
    """The match set stitch's registration sees for one cell."""
    pair, _seed = stitch_bench.setup(InputSize[size], variant)
    with use_backend(backend):
        described = [
            describe_corners(image, detect_corners(
                image, n_keep=stitch_bench.N_FEATURES))
            for image in (np.asarray(pair.first, dtype=np.float64),
                          np.asarray(pair.second, dtype=np.float64))
        ]
        matches = match_features(*described)
        return match_points(*described, matches)


def dlt_designs(size, variant, monkeypatch):
    """Every design matrix ``homography_dlt`` hands to its SVD."""
    src, dst = app_matches(size, variant)
    inliers = ransac_affine(src, dst, seed=variant).inliers
    captured = []
    real = ransac_module.null_vector

    def spy(design):
        captured.append(design.copy())
        return real(design)

    monkeypatch.setattr(ransac_module, "null_vector", spy)
    homography_dlt(src[inliers], dst[inliers])
    return src[inliers], dst[inliers], captured


# ----------------------------------------------------------------------
# Stacked QR and least squares


class TestStackedQR:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (8, 3), (30, 3),
                                     (64, 3), (10, 5), (6, 6), (7, 1)])
    def test_each_item_matches_the_one_matrix_qr(self, m, n):
        rng = np.random.default_rng(m * 31 + n)
        stack = rng.standard_normal((12, m, n)) * 40.0
        stack[1, :, 0] = 0.0  # a zero column
        if n > 1:
            stack[2, :, -1] = stack[2, :, 0]  # rank-deficient
        q, r = qr_decompose(stack)
        for item in range(stack.shape[0]):
            q_ref, r_ref = reference_qr_decompose(stack[item])
            assert q[item].tobytes() == q_ref.tobytes()
            assert r[item].tobytes() == r_ref.tobytes()
            q_one, r_one = qr_decompose(stack[item])
            assert q_one.tobytes() == q_ref.tobytes()
            assert r_one.tobytes() == r_ref.tobytes()

    def test_lstsq_stack_masks_singular_items(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 3, 3))
        a[4, :, 2] = a[4, :, 1]
        b = rng.standard_normal((9, 3, 2))
        with np.errstate(all="raise"):
            x, singular = lstsq_qr_batch(a, b)
        assert singular.tolist() == [i == 4 for i in range(9)]
        for item in range(9):
            if singular[item]:
                with pytest.raises(SingularMatrixError):
                    lstsq_qr(a[item], b[item])
            else:
                assert x[item].tobytes() == lstsq_qr(a[item], b[item]).tobytes()

    def test_lstsq_stack_of_vector_rhs(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 6, 3))
        b = rng.standard_normal((5, 6))
        x, singular = lstsq_qr_batch(a, b)
        assert x.shape == (5, 3) and not singular.any()
        for item in range(5):
            assert x[item].tobytes() == lstsq_qr(a[item], b[item]).tobytes()

    def test_lstsq_stack_rejects_mismatched_rhs(self):
        with pytest.raises(ValueError):
            lstsq_qr_batch(np.ones((4, 3, 3)), np.ones((5, 3, 2)))


# ----------------------------------------------------------------------
# Batched RANSAC


class TestBatchedRansac:
    def test_duplicated_points(self):
        base = np.random.default_rng(0).uniform(0, 60, (6, 2))
        src = np.vstack([base, base, base[:3]])
        dst = translated(src, (3.0, -2.0))
        assert_same_result(src, dst, seed=1)

    def test_collinear_picks_are_skipped(self):
        # Most triples lie on one line and make a singular design.
        t = np.arange(10, dtype=np.float64)
        src = np.stack([t, 2.0 * t + 1.0], axis=1)
        src = np.vstack([src, [[3.0, 40.0], [25.0, 5.0]]])
        dst = translated(src, (1.5, 4.0))
        mask = assert_same_result(src, dst, seed=2)
        assert mask.all()

    def test_three_matches(self):
        src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        dst = translated(src, (2.0, 2.0))
        for seed in range(4):
            assert_same_result(src, dst, seed=seed)

    def test_all_degenerate_takes_the_translation_fallback(self):
        src = np.tile([[5.0, 7.0]], (6, 1))
        dst = translated(src, (1.0, -1.0))
        mask = assert_same_result(src, dst, seed=0)
        assert mask.all()
        collinear = np.stack([np.arange(6.0), np.arange(6.0)], axis=1)
        assert_same_result(collinear, translated(collinear, (2.0, 0.0)))

    def test_tied_counts_first_strictly_greater_wins(self):
        # Two equal clusters under far-apart translations: the first
        # hypothesis reaching the top count wins, whichever cluster it is.
        # (A pick spanning both clusters shears too hard to reach it.)
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 200, (8, 2))
        b = rng.uniform(0, 200, (8, 2)) + 250.0
        src = np.vstack([a, b])
        dst = np.vstack([translated(a, (4.0, 0.0)),
                         translated(b, (600.0, -500.0))])
        first = np.arange(16) < 8
        winners = set()
        for seed in range(12):
            mask = assert_same_result(src, dst, seed=seed)
            assert np.array_equal(mask, first) or np.array_equal(mask, ~first)
            winners.add(bool(mask[0]))
        assert winners == {True, False}

    def test_one_iteration(self):
        src = np.random.default_rng(6).uniform(0, 80, (12, 2))
        dst = translated(src, (3.0, 1.0), noise=0.5, seed=6)
        for seed in range(5):
            assert_same_result(src, dst, n_iterations=1, seed=seed)

    def test_no_iterations_falls_back(self):
        src = np.random.default_rng(8).uniform(0, 80, (5, 2))
        assert_same_result(src, translated(src, (1.0, 1.0)), n_iterations=0)

    @pytest.mark.parametrize("backend,size,variant", BACKEND_CELLS)
    def test_app_match_sets(self, backend, size, variant):
        src, dst = app_matches(size, variant, backend)
        assert src.shape[0] >= 3
        with use_backend(backend):
            assert_same_result(src, dst, seed=variant)


# ----------------------------------------------------------------------
# DLT design and the converging Jacobi SVD


@pytest.mark.parametrize("size,variant", CELLS)
def test_dlt_design_matches_the_row_loop(size, variant, monkeypatch):
    src, dst, designs = dlt_designs(size, variant, monkeypatch)
    assert len(designs) == 1
    assert designs[0].tobytes() == reference_dlt_design(src, dst).tobytes()


@pytest.mark.parametrize("size,variant", CELLS)
def test_stitch_svd_converges_before_twelve_sweeps(size, variant,
                                                   monkeypatch):
    _src, _dst, designs = dlt_designs(size, variant, monkeypatch)
    for design in designs:
        full = svd_jacobi(design)
        capped = svd_jacobi(design, max_sweeps=12)
        for a, b in zip(full, capped):
            assert a.tobytes() == b.tobytes()


class TestJacobiConvergence:
    def test_zero_column(self):
        a = np.random.default_rng(9).standard_normal((7, 4))
        a[:, 2] = 0.0
        u, s, vt = svd_jacobi(a)
        assert s[-1] == 0.0
        assert np.allclose(u @ np.diag(s) @ vt, a, atol=1e-12)
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)
        capped = svd_jacobi(a, max_sweeps=12)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip((u, s, vt), capped))

    def test_wide_matrix(self):
        a = np.random.default_rng(10).standard_normal((3, 8))
        u, s, vt = svd_jacobi(a)
        assert u.shape == (3, 3) and s.shape == (3,) and vt.shape == (3, 8)
        assert np.allclose(u @ np.diag(s) @ vt, a, atol=1e-12)
        assert np.allclose(s, np.linalg.svd(a, compute_uv=False), atol=1e-12)

    def test_orthogonal_columns_need_no_rotation(self):
        q, _r = np.linalg.qr(np.random.default_rng(11).standard_normal((6, 4)))
        a = q * np.array([1.0, 3.0, 2.0, 0.5])
        u, s, vt = svd_jacobi(a, max_sweeps=1)
        # No pair rotates, so v is a permutation sorting the column norms.
        assert np.array_equal(np.abs(vt), np.eye(4)[[1, 2, 0, 3]])
        assert np.allclose(s, [3.0, 2.0, 1.0, 0.5], atol=1e-14)
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip((u, s, vt), svd_jacobi(a)))
