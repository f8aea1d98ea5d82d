"""Stitch's batched patch descriptors and blocked ANMS against the loops
they replaced.

``reference_describe_corners`` is the original descriptor loop: one
``meshgrid``, one ``bilinear`` call and one mean/std normalization per
corner.  ``reference_radii`` is the original ANMS loop: one boolean
mask and one distance reduction per candidate.  The rewrite samples
every corner's grid in one ``bilinear`` call and computes the radii in
row blocks; descriptors, radii and the kept corners must be
byte-identical on the app's own images and on the loop's edges (ties,
one candidate, no stronger neighbour, candidates across block
boundaries).
"""

import numpy as np
import pytest

from repro.core import InputSize
from repro.core.backend import use_backend
from repro.imgproc.filters import gaussian_blur
from repro.imgproc.interpolate import bilinear
from repro.stitch import benchmark as stitch_bench
from repro.stitch import matching as matching_module
from repro.stitch.corners import (
    ANMS_BLOCK,
    Corner,
    anms,
    harris_response,
    local_maxima,
    suppression_radii,
)
from repro.stitch.matching import (
    PATCH_SIDE,
    PATCH_STRIDE,
    describe_corners,
)

CELLS = [(size, v) for size in ("SQCIF", "CIF") for v in range(5)]


# ----------------------------------------------------------------------
# Oracles: the per-item loops the rewrite replaced


def reference_describe_corners(image, corners):
    """Reference: one sample grid, bilinear call and normalization per
    corner."""
    smooth = gaussian_blur(np.asarray(image, dtype=np.float64), 1.5)
    half_extent = PATCH_SIDE * PATCH_STRIDE / 2.0
    offsets = (
        np.arange(PATCH_SIDE) * PATCH_STRIDE - half_extent + PATCH_STRIDE / 2.0
    )
    described = []
    for corner in corners:
        rr, cc = np.meshgrid(
            corner.row + offsets, corner.col + offsets, indexing="ij"
        )
        patch = bilinear(smooth, rr, cc).ravel()
        patch = patch - patch.mean()
        std = patch.std()
        if std > 1e-9:
            patch = patch / std
        described.append(patch)
    return described


def reference_radii(pts, resp, robustness=0.9):
    """Reference: one stronger-mask and distance min per candidate."""
    n = len(resp)
    radii = np.full(n, np.inf)
    for i in range(n):
        stronger = resp > resp[i] / robustness
        stronger[i] = False
        if stronger.any():
            d2 = ((pts[stronger] - pts[i]) ** 2).sum(axis=1)
            radii[i] = float(d2.min())
    return radii


def reference_anms(corners, n_keep=64, robustness=0.9):
    pts = np.array([[c.row, c.col] for c in corners], dtype=np.float64)
    resp = np.array([c.response for c in corners])
    order = np.argsort(reference_radii(pts, resp, robustness))[::-1][:n_keep]
    return [corners[int(i)] for i in order]


def app_candidates(size, variant):
    """Both images of a stitch cell with their Harris candidates."""
    pair, _seed = stitch_bench.setup(InputSize[size], variant)
    return [(image, local_maxima(harris_response(image)))
            for image in (pair.first, pair.second)]


# ----------------------------------------------------------------------
# describe_corners


@pytest.mark.parametrize("size,variant", CELLS)
def test_descriptors_match_loop_on_app_images(size, variant):
    for image, candidates in app_candidates(size, variant):
        kept = anms(candidates, n_keep=stitch_bench.N_FEATURES)
        got = describe_corners(image, kept)
        want = reference_describe_corners(image, kept)
        assert [d.corner for d in got] == kept
        assert len(got) == len(want)
        for d, patch in zip(got, want):
            assert d.descriptor.tobytes() == patch.tobytes()


@pytest.mark.parametrize("backend", ["ref", "fast"])
def test_descriptors_one_bilinear_dispatch(backend, monkeypatch):
    calls = []

    def counting(image, rows, cols):
        calls.append(np.broadcast_shapes(np.shape(rows), np.shape(cols)))
        return bilinear(image, rows, cols)

    monkeypatch.setattr(matching_module, "bilinear", counting)
    rng = np.random.default_rng(5)
    image = rng.random((40, 48))
    corners = [Corner(row=r, col=c, response=1.0)
               for r, c in ((10, 12), (20, 30), (9, 40), (30, 9))]
    with use_backend(backend):
        got = describe_corners(image, corners)
        want = reference_describe_corners(image, corners)
    assert calls == [(4, PATCH_SIDE, PATCH_SIDE)]
    for d, patch in zip(got, want):
        assert d.descriptor.tobytes() == patch.tobytes()


def test_descriptors_flat_patch_and_no_corners(monkeypatch):
    image = np.full((40, 40), 0.25)
    image[26:, 26:] = 1.0
    corners = [Corner(row=8, col=8, response=1.0),     # flat: std ~ 0
               Corner(row=26, col=26, response=1.0)]   # straddles the step
    got = describe_corners(image, corners)
    want = reference_describe_corners(image, corners)
    # The flat patch is left unscaled, the other has unit variance.
    assert np.abs(got[0].descriptor).max() < 1e-9
    assert got[1].descriptor.std() == pytest.approx(1.0)
    for d, patch in zip(got, want):
        assert d.descriptor.tobytes() == patch.tobytes()
    calls = []
    monkeypatch.setattr(matching_module, "bilinear",
                        lambda *a: calls.append(a))
    assert describe_corners(image, []) == []
    assert calls == []


# ----------------------------------------------------------------------
# ANMS


@pytest.mark.parametrize("size,variant", CELLS)
def test_anms_matches_loop_on_app_candidates(size, variant):
    for _image, candidates in app_candidates(size, variant):
        pts = np.array([[c.row, c.col] for c in candidates], dtype=np.float64)
        resp = np.array([c.response for c in candidates])
        got = suppression_radii(pts, resp)
        assert got.tobytes() == reference_radii(pts, resp).tobytes()
        assert (anms(candidates, n_keep=stitch_bench.N_FEATURES)
                == reference_anms(candidates, n_keep=stitch_bench.N_FEATURES))


def test_anms_cif_candidates_span_blocks():
    sizes = [len(c) for _i, c in app_candidates("CIF", 1)]
    assert max(sizes) > 2 * ANMS_BLOCK


def test_radii_single_candidate_is_unsuppressed():
    radii = suppression_radii(np.array([[3.0, 4.0]]), np.array([2.0]))
    assert radii.tolist() == [np.inf]
    corner = Corner(row=3, col=4, response=2.0)
    assert anms([corner]) == [corner]


def test_radii_ties_suppress_nobody():
    # Equal responses: none is 1/robustness times stronger than another.
    pts = np.array([[0.0, 0.0], [0.0, 3.0], [4.0, 0.0]])
    resp = np.array([1.0, 1.0, 1.0])
    radii = suppression_radii(pts, resp)
    assert radii.tolist() == [np.inf] * 3
    assert radii.tobytes() == reference_radii(pts, resp).tobytes()


def test_radii_no_stronger_neighbour_and_near_ties():
    # The strongest corner has no stronger neighbour; 1.05 is within the
    # 1/0.9 margin of 1.0, so it does not suppress it either.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [5.0, 5.0]])
    resp = np.array([10.0, 1.0, 1.05, 2.0])
    radii = suppression_radii(pts, resp)
    assert radii.tobytes() == reference_radii(pts, resp).tobytes()
    assert radii[0] == np.inf
    assert radii[1] == 1.0  # nearest stronger: corner 0 at distance 1


def test_radii_nan_response_matches_loop():
    # A NaN response is never stronger and suppresses nobody; it must
    # not hide the stronger candidates of the other rows in its block.
    rng = np.random.default_rng(2)
    pts = rng.integers(0, 30, size=(40, 2)).astype(np.float64)
    resp = rng.random(40)
    resp[[3, 17]] = np.nan
    got = suppression_radii(pts, resp)
    assert got.tobytes() == reference_radii(pts, resp).tobytes()
    assert np.isinf(got[[3, 17]]).all()


@pytest.mark.parametrize("n", [ANMS_BLOCK - 1, ANMS_BLOCK, ANMS_BLOCK + 1,
                               3 * ANMS_BLOCK + 17])
def test_radii_match_loop_across_block_edges(n):
    rng = np.random.default_rng(n)
    pts = rng.integers(0, 60, size=(n, 2)).astype(np.float64)
    # Few distinct responses, so ties and duplicate points are common.
    resp = rng.integers(1, 8, size=n).astype(np.float64)
    got = suppression_radii(pts, resp)
    assert got.tobytes() == reference_radii(pts, resp).tobytes()
    corners = [Corner(row=int(r), col=int(c), response=float(s))
               for (r, c), s in zip(pts, resp)]
    assert anms(corners, n_keep=64) == reference_anms(corners, n_keep=64)

