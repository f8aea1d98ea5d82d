"""AdaBoost over Haar-feature decision stumps, plus the attentional cascade.

Discrete AdaBoost exactly as Viola-Jones uses it: each round picks the
(feature, threshold, polarity) stump with the lowest weighted error,
reweights the examples, and the stage's decision is a weighted stump vote
against a stage threshold tuned for a target detection rate.  A cascade
chains stages so easy negatives exit early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .haar import HaarFeature


@dataclass(frozen=True)
class Stump:
    """A one-feature threshold classifier with vote weight ``alpha``."""

    feature_index: int
    threshold: float
    polarity: int  # +1: predict face when value >= threshold
    alpha: float

    def predict(self, values: np.ndarray) -> np.ndarray:
        """0/1 predictions from this stump's feature column."""
        if self.polarity > 0:
            return (values >= self.threshold).astype(np.float64)
        return (values < self.threshold).astype(np.float64)


#: Feature columns scanned together by the stump search.  Bounds the
#: per-round temporaries to ``STUMP_BLOCK x n`` whatever the pool size.
STUMP_BLOCK = 64


def best_stump(values: np.ndarray, labels: np.ndarray,
               weights: np.ndarray) -> Tuple[int, float, int, float]:
    """Exhaustive best stump over all feature columns.

    Uses the sorted-prefix trick: for each feature, scanning examples in
    value order yields every distinct threshold's weighted error in O(n)
    after the sort.  Returns ``(feature, threshold, polarity, error)``.
    """
    return _scan_stumps(values, _sort_columns(values), labels, weights)


def _sort_columns(values: np.ndarray) -> np.ndarray:
    """Row ``j`` holds the stable value order of feature column ``j``.

    The order does not depend on the boosting weights, so a stage sorts
    once and reuses it every round.
    """
    return np.argsort(values.T, axis=1, kind="stable")


def _scan_stumps(values: np.ndarray, order: np.ndarray, labels: np.ndarray,
                 weights: np.ndarray) -> Tuple[int, float, int, float]:
    """Best stump given each column's sort ``order``, in blocks of
    :data:`STUMP_BLOCK` features.

    Candidates are taken in scan order — feature by feature, ``+1``
    before ``-1`` — and only a strictly lower error replaces the best,
    so ties go to the first candidate.
    """
    n, m = values.shape
    total_pos = float(weights[labels == 1].sum())
    total_neg = float(weights[labels == 0].sum())
    best = (0, 0.0, 1, float("inf"))
    for start in range(0, m, STUMP_BLOCK):
        block = order[start:start + STUMP_BLOCK]
        w = weights[block]
        lab = labels[block]
        pos_below = np.cumsum(w * (lab == 1), axis=1)
        neg_below = np.cumsum(w * (lab == 0), axis=1)
        # Threshold between sorted values i and i+1: predict >= thr as
        # positive.
        # error(+1) = pos_below + (total_neg - neg_below)
        # error(-1) = neg_below + (total_pos - pos_below)
        err_pos = pos_below + (total_neg - neg_below)
        err_neg = neg_below + (total_pos - pos_below)
        rows = np.arange(block.shape[0])
        i_pos = np.argmin(err_pos, axis=1)
        i_neg = np.argmin(err_neg, axis=1)
        # Column 0 is +1, column 1 is -1: ravel() is the scan order.
        errors = np.stack(
            [err_pos[rows, i_pos], err_neg[rows, i_neg]], axis=1
        ).ravel()
        k = int(np.argmin(errors))
        err = float(errors[k])
        if err < best[3]:
            row, negative = divmod(k, 2)
            j = start + row
            i = int((i_neg if negative else i_pos)[row])
            column = order[j]
            threshold = (
                (values[column[i], j] + values[column[i + 1], j]) / 2.0
                if i + 1 < n else values[column[i], j] + 1e-9
            )
            best = (j, float(threshold), -1 if negative else 1, err)
    return best


@dataclass
class BoostedStage:
    """One cascade stage: weighted stump vote against a stage threshold."""

    stumps: List[Stump]
    stage_threshold: float

    def scores(self, values: np.ndarray) -> np.ndarray:
        """Weighted vote totals for rows of a feature matrix."""
        total = np.zeros(values.shape[0])
        for stump in self.stumps:
            total += stump.alpha * stump.predict(values[:, stump.feature_index])
        return total

    def predict(self, values: np.ndarray) -> np.ndarray:
        return (self.scores(values) >= self.stage_threshold).astype(bool)


def train_stage(
    values: np.ndarray,
    labels: np.ndarray,
    n_stumps: int,
    detection_rate: float = 0.995,
) -> BoostedStage:
    """Train one AdaBoost stage of ``n_stumps`` weak classifiers.

    After boosting, the stage threshold is lowered from the canonical
    ``sum(alpha)/2`` until at least ``detection_rate`` of the positive
    examples pass (the cascade must almost never lose a face).
    """
    n = labels.size
    if values.shape[0] != n:
        raise ValueError("values/labels mismatch")
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both positive and negative examples")
    weights = np.where(labels == 1, 0.5 / n_pos, 0.5 / n_neg)
    order = _sort_columns(values)
    stumps: List[Stump] = []
    for _ in range(n_stumps):
        weights = weights / weights.sum()
        j, threshold, polarity, error = _scan_stumps(
            values, order, labels, weights
        )
        error = min(max(error, 1e-10), 1.0 - 1e-10)
        beta = error / (1.0 - error)
        alpha = math.log(1.0 / beta)
        stump = Stump(feature_index=j, threshold=threshold,
                      polarity=polarity, alpha=alpha)
        predictions = stump.predict(values[:, j])
        correct = predictions == labels
        weights = weights * np.where(correct, beta, 1.0)
        stumps.append(stump)
    stage = BoostedStage(stumps=stumps, stage_threshold=0.0)
    scores = stage.scores(values)
    pos_scores = np.sort(scores[labels == 1])
    # Threshold letting `detection_rate` of positives through.
    index = int((1.0 - detection_rate) * pos_scores.size)
    stage.stage_threshold = float(pos_scores[min(index, pos_scores.size - 1)]) - 1e-9
    return stage


@dataclass
class Cascade:
    """An attentional cascade over a shared feature pool."""

    features: List[HaarFeature]
    stages: List[BoostedStage]

    def used_feature_indices(self) -> List[int]:
        seen: List[int] = []
        for stage in self.stages:
            for stump in stage.stumps:
                if stump.feature_index not in seen:
                    seen.append(stump.feature_index)
        return seen

    def classify_values(self, values: np.ndarray) -> np.ndarray:
        """Boolean face decision per row of a full feature matrix."""
        alive = np.ones(values.shape[0], dtype=bool)
        for stage in self.stages:
            if not alive.any():
                break
            passed = stage.predict(values[alive])
            alive_idx = np.nonzero(alive)[0]
            alive[alive_idx[~passed]] = False
        return alive


def train_cascade(
    values: np.ndarray,
    labels: np.ndarray,
    features: Sequence[HaarFeature],
    stage_sizes: Sequence[int] = (3, 6, 12),
    detection_rate: float = 0.995,
) -> Cascade:
    """Train a cascade, bootstrapping each stage on surviving negatives.

    Stage ``k`` trains on all positives plus the negatives that passed
    stages ``0..k-1`` — the standard hard-negative focusing that gives
    cascades their early-exit efficiency.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels).astype(np.int64)
    stages: List[BoostedStage] = []
    active = np.ones(labels.size, dtype=bool)
    for n_stumps in stage_sizes:
        if not (active & (labels == 0)).any():
            # All negatives rejected: later stages still sharpen the
            # decision boundary for unseen negatives, so train them on the
            # full negative set instead of stopping early.
            active = np.ones(labels.size, dtype=bool)
        subset = np.nonzero(active | (labels == 1))[0]
        stage = train_stage(
            values[subset], labels[subset], n_stumps, detection_rate
        )
        stages.append(stage)
        passed = stage.predict(values)
        active &= passed
    return Cascade(features=list(features), stages=stages)
