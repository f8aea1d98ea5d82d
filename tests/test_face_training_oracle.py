"""Face training against the per-patch and per-column loops it replaced.

``reference_feature_matrix`` is the original
``evaluate_features_on_patches``: one ``HaarFeature.evaluate`` call per
patch and feature.  ``reference_best_stump`` is the original
``best_stump``: one stable argsort per feature column per call, then the
sorted-prefix scan of that column, candidates taken in scan order.
``reference_train_stage`` is the original boosting loop over it.  The
rewrite stacks the integral images, sorts every column once per stage
and scans features in fixed blocks; it must give the same matrix bytes
and pick the same stumps, ties included.

The trained cascades of variants 0-4 are pinned by digests recorded on
the code before the rewrite.  To re-record after an intended change::

    PYTHONPATH=src python tests/test_face_training_oracle.py
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.backend import use_backend
from repro.core.inputs import face_training_set
from repro.face import (
    STAGE_SIZES,
    best_stump,
    evaluate_features_on_patches,
    feature_pool,
    train_cascade,
    train_stage,
    trained_cascade,
)
from repro.face.adaboost import STUMP_BLOCK, Stump
from repro.imgproc.integral import integral_image


def reference_feature_matrix(features, patches):
    """Reference: the original per-patch, per-feature evaluation."""
    patches = np.asarray(patches, dtype=np.float64)
    n = patches.shape[0]
    out = np.empty((n, len(features)))
    for i in range(n):
        patch = patches[i]
        std = patch.std()
        normalized = (patch - patch.mean()) / (std if std > 1e-9 else 1.0)
        ii = integral_image(normalized)
        for j, feature in enumerate(features):
            out[i, j] = feature.evaluate(ii)
    return out


def reference_best_stump(values, labels, weights):
    """Reference: the original per-column best-stump search."""
    n, m = values.shape
    total_pos = float(weights[labels == 1].sum())
    total_neg = float(weights[labels == 0].sum())
    best = (0, 0.0, 1, float("inf"))
    for j in range(m):
        order = np.argsort(values[:, j], kind="stable")
        v = values[order, j]
        w = weights[order]
        lab = labels[order]
        pos_below = np.cumsum(w * (lab == 1))
        neg_below = np.cumsum(w * (lab == 0))
        err_pos = pos_below + (total_neg - neg_below)
        err_neg = neg_below + (total_pos - pos_below)
        i_pos = int(np.argmin(err_pos))
        i_neg = int(np.argmin(err_neg))
        for i, polarity, err in (
            (i_pos, 1, float(err_pos[i_pos])),
            (i_neg, -1, float(err_neg[i_neg])),
        ):
            if err < best[3]:
                threshold = (
                    (v[i] + v[i + 1]) / 2.0 if i + 1 < n else v[i] + 1e-9
                )
                best = (j, float(threshold), polarity, err)
    return best


def reference_train_stage(values, labels, n_stumps, detection_rate=0.995):
    """Reference: the original boosting loop, one full search per round."""
    n_pos = int((labels == 1).sum())
    n_neg = labels.size - n_pos
    weights = np.where(labels == 1, 0.5 / n_pos, 0.5 / n_neg)
    stumps = []
    for _ in range(n_stumps):
        weights = weights / weights.sum()
        j, threshold, polarity, error = reference_best_stump(
            values, labels, weights)
        error = min(max(error, 1e-10), 1.0 - 1e-10)
        beta = error / (1.0 - error)
        stump = Stump(feature_index=j, threshold=threshold,
                      polarity=polarity, alpha=math.log(1.0 / beta))
        correct = stump.predict(values[:, j]) == labels
        weights = weights * np.where(correct, beta, 1.0)
        stumps.append(stump)
    scores = np.zeros(labels.size)
    for stump in stumps:
        scores += stump.alpha * stump.predict(values[:, stump.feature_index])
    pos_scores = np.sort(scores[labels == 1])
    index = int((1.0 - detection_rate) * pos_scores.size)
    return stumps, float(pos_scores[min(index, pos_scores.size - 1)]) - 1e-9


def stump_bytes(stump):
    """``(feature, threshold, polarity, error-or-alpha)`` as exact bytes."""
    return struct.pack("<qdqd", *stump)


def stage_bytes(stumps, stage_threshold):
    """A stage's stumps and threshold as exact bytes."""
    return b"".join(
        stump_bytes((s.feature_index, s.threshold, s.polarity, s.alpha))
        for s in stumps
    ) + struct.pack("<d", stage_threshold)


def cascade_digest(cascade):
    """sha256 over every stump's (feature, threshold, polarity, alpha)
    and every stage threshold, floats as their IEEE-754 bytes."""
    h = hashlib.sha256()
    for stage in cascade.stages:
        h.update(struct.pack("<q", len(stage.stumps)))
        h.update(stage_bytes(stage.stumps, stage.stage_threshold))
    return h.hexdigest()


CASCADE_DIGESTS = {
    0: "4b096d25a8a8f2b33404429ebbdf64ea390cebc61ed6a271c57420065ccea1ab",
    1: "410b24bbbe0fae75565e728030c5060a4950b500464cbaff3a411b60a2301fc7",
    2: "b3ceddce8e71176c0eaf36f9ec53e5a4b1171a1b08db26436a508b17b6f34440",
    3: "d89fd2ffbd76163b418011327b412acac936951cdc5d4b0289a488e41eea1cb8",
    4: "70883e45cccc03c8592b65918660d5ac7b422cc57e94f413bc870d5231fc6aea",
}


@pytest.mark.parametrize("variant", sorted(CASCADE_DIGESTS))
def test_trained_cascade_digest_pinned(variant):
    assert cascade_digest(trained_cascade(variant)) == CASCADE_DIGESTS[variant]


def quantized_problem(rng, n, m, levels, equal_weights):
    """Values on ``levels`` distinct levels with duplicated columns, both
    classes present: every column is full of ties, and columns tie with
    each other (including across feature blocks)."""
    values = rng.integers(0, levels, size=(n, m)).astype(np.float64) / levels
    if m > 1:
        dup = rng.integers(0, m, size=m // 3)
        values[:, dup] = values[:, rng.integers(0, m, size=dup.size)]
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    labels[0], labels[-1] = 1, 0
    if equal_weights:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.integers(1, 4, size=n).astype(np.float64)
        weights /= weights.sum()
    return values, labels, weights


class TestFeatureMatrixOracle:
    def test_training_patches(self):
        patches, _labels = face_training_set(1, n_pos=20, n_neg=30)
        pool = feature_pool(stride=3, min_cell=2, max_cell=6)
        got = evaluate_features_on_patches(pool, patches)
        expected = reference_feature_matrix(pool, patches)
        assert got.tobytes() == expected.tobytes()

    def test_constant_and_random_patches(self):
        rng = np.random.default_rng(7)
        patches = rng.random((9, 16, 16))
        patches[0] = 0.25  # zero standard deviation: the unnormalized branch
        patches[1] = np.round(patches[1] * 3) / 3
        pool = feature_pool(stride=2, min_cell=2, max_cell=8)
        got = evaluate_features_on_patches(pool, patches)
        assert got.tobytes() == reference_feature_matrix(pool, patches).tobytes()


class TestBestStumpOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        m=st.integers(1, 2 * STUMP_BLOCK + 9),
        levels=st.integers(1, 4),
        equal_weights=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=12, m=STUMP_BLOCK + 1, levels=2, equal_weights=True, seed=0)
    @example(n=2, m=1, levels=1, equal_weights=True, seed=1)
    def test_quantized_ties(self, n, m, levels, equal_weights, seed):
        rng = np.random.default_rng(seed)
        values, labels, weights = quantized_problem(
            rng, n, m, levels, equal_weights)
        got = best_stump(values, labels, weights)
        expected = reference_best_stump(values, labels, weights)
        assert stump_bytes(got) == stump_bytes(expected)

    def test_tie_across_blocks_first_feature_wins(self):
        rng = np.random.default_rng(3)
        n, m = 30, 2 * STUMP_BLOCK + 5
        values = rng.normal(size=(n, m))
        labels = (rng.random(n) < 0.5).astype(np.int64)
        values[:, m - 1] = labels  # perfect split, late in the last block
        values[:, STUMP_BLOCK + 2] = labels  # the same split, earlier
        weights = np.full(n, 1.0 / n)
        got = best_stump(values, labels, weights)
        assert got[0] == STUMP_BLOCK + 2 and got[3] == 0.0
        assert stump_bytes(got) == stump_bytes(
            reference_best_stump(values, labels, weights))

    def test_positive_polarity_wins_a_tie(self):
        # Symmetric labels: both polarities reach the same minimum.
        values = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([1, 0, 0, 1])
        weights = np.full(4, 0.25)
        got = best_stump(values, labels, weights)
        expected = reference_best_stump(values, labels, weights)
        assert expected[:3] == (0, 2.5, 1)
        assert stump_bytes(got) == stump_bytes(expected)

    def test_best_split_at_last_index(self):
        # Sorted by value the labels run 1, 0, 1: the lowest error is the
        # negative-polarity split above the largest value (i + 1 == n).
        # The reversed columns after it reach the same error in another
        # block; the first column keeps it.
        values = np.tile(np.array([[0.0], [1.0], [2.0]]), (1, STUMP_BLOCK + 3))
        values[:, 1:] = -(values[:, 1:] + np.arange(1, STUMP_BLOCK + 3))
        labels = np.array([1, 0, 1])
        weights = np.array([0.5, 0.1, 0.4])
        got = best_stump(values, labels, weights)
        expected = reference_best_stump(values, labels, weights)
        assert expected[:3] == (0, 2.0 + 1e-9, -1)
        assert stump_bytes(got) == stump_bytes(expected)


class TestTrainStageOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_quantized_stage(self, seed):
        rng = np.random.default_rng(seed)
        values, labels, _ = quantized_problem(
            rng, 50, STUMP_BLOCK + 17, 3, True)
        stage = train_stage(values, labels, 6)
        stumps, threshold = reference_train_stage(values, labels, 6)
        assert stage_bytes(stage.stumps, stage.stage_threshold) == \
            stage_bytes(stumps, threshold)

    def test_training_patches_stage(self):
        patches, labels = face_training_set(2, n_pos=20, n_neg=30)
        values = evaluate_features_on_patches(
            feature_pool(stride=3, min_cell=2, max_cell=6), patches)
        stage = train_stage(values, labels, 8)
        stumps, threshold = reference_train_stage(values, labels, 8)
        assert stage_bytes(stage.stumps, stage.stage_threshold) == \
            stage_bytes(stumps, threshold)


def test_training_is_backend_independent():
    # trained_cascade caches by variant only, so whichever backend trains
    # first must not change the cascade.
    patches, labels = face_training_set(0, n_pos=20, n_neg=30)
    features = feature_pool(stride=3, min_cell=2, max_cell=6)
    results = {}
    for backend in ("ref", "fast"):
        with use_backend(backend):
            values = evaluate_features_on_patches(features, patches)
            cascade = train_cascade(values, labels, features,
                                    stage_sizes=STAGE_SIZES)
        results[backend] = (values.tobytes(), cascade_digest(cascade))
    assert results["ref"] == results["fast"]


if __name__ == "__main__":
    for variant in sorted(CASCADE_DIGESTS):
        print(f'    {variant}: "{cascade_digest(trained_cascade(variant))}",')
