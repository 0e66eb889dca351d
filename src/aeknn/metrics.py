"""Classification quality measures: accuracy, F-score and ROC AUC.

Multi-class conventions used throughout the project: F-score is the
unweighted (macro) mean of per-class one-vs-rest scores, AUC the unweighted
mean of per-class one-vs-rest binary AUCs. Binary problems score the
designated positive class (index 1 by default, the second label to appear).
Binary AUC is the Mann-Whitney rank statistic with mid-ranks for ties, which
equals trapezoidal integration of the ROC curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

__all__ = [
    "ConfusionMatrix",
    "accuracy",
    "f_score",
    "roc_auc_binary",
    "auc",
]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """C x C counts; entry (i, j) counts samples of true class i predicted as j."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(counts < 0):
            raise ValueError("confusion matrix entries must be non-negative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_predictions(cls, true_labels, predicted_labels, n_classes: int | None = None):
        true_labels = np.asarray(true_labels, dtype=np.int64)
        predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
        if true_labels.shape != predicted_labels.shape:
            raise ValueError("label vectors must have equal length")
        if n_classes is None:
            n_classes = int(max(true_labels.max(), predicted_labels.max())) + 1
        for labels in (true_labels, predicted_labels):
            if np.any((labels < 0) | (labels >= n_classes)):
                raise ValueError(f"labels must lie in [0, {n_classes})")
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(counts, (true_labels, predicted_labels), 1)
        return cls(counts=counts)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def true_positives(self, c: int) -> int:
        return int(self.counts[c, c])

    def false_positives(self, c: int) -> int:
        return int(self.counts[:, c].sum() - self.counts[c, c])

    def false_negatives(self, c: int) -> int:
        return int(self.counts[c, :].sum() - self.counts[c, c])


def accuracy(cm: ConfusionMatrix) -> float:
    """Correct predictions over all predictions."""
    total = cm.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / total


def _f_for_class(cm: ConfusionMatrix, c: int) -> float:
    tp = cm.true_positives(c)
    fp = cm.false_positives(c)
    fn = cm.false_negatives(c)
    if tp == 0:
        # covers both genuinely failed classes and classes with no actual or
        # predicted positives, which score 0 by convention
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def _check_positive(positive) -> None:
    if positive not in (0, 1):
        raise ValueError(f"positive must be class 0 or 1 of a binary problem, got {positive!r}")


def f_score(cm: ConfusionMatrix, averaging: str = "macro", positive: int = 1) -> float:
    """Harmonic mean of precision and recall.

    averaging="binary" scores the positive class (0 or 1) of a two-class matrix;
    averaging="macro" is the unweighted mean of one-vs-rest scores.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    if averaging == "binary":
        if cm.n_classes != 2:
            raise ValueError("binary averaging requires exactly two classes")
        _check_positive(positive)
        return _f_for_class(cm, positive)
    if averaging == "macro":
        return float(np.mean([_f_for_class(cm, c) for c in range(cm.n_classes)]))
    raise ValueError(f"unknown averaging {averaging!r}")


def _check_binary_scores(scores, relevance):
    scores = np.asarray(scores, dtype=np.float64)
    relevance = np.asarray(relevance).astype(bool)
    if scores.shape != relevance.shape or scores.ndim != 1:
        raise ValueError("scores and relevance must be matching 1-D vectors")
    n_pos = int(relevance.sum())
    if n_pos == 0 or n_pos == relevance.size:
        raise ValueError("need at least one positive and one negative")
    return scores, relevance


def roc_auc_binary(scores, relevance) -> float:
    """Probability that a random positive outscores a random negative,
    ties counting one half; computed from mid-ranks."""
    scores, relevance = _check_binary_scores(scores, relevance)
    n_pos = int(relevance.sum())
    n_neg = relevance.size - n_pos
    ranks = rankdata(scores)
    u = ranks[relevance].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc(scores, labels, averaging: str = "macro_ovr", positive: int = 1) -> float:
    """AUC from per-class score columns.

    averaging="binary" uses the positive-class column (0 or 1) of a two-class
    problem; averaging="macro_ovr" averages one-vs-rest binary AUCs over the
    classes present in `labels`. Errors when fewer than two classes are present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise ValueError("scores must be (n_samples, n_classes) matching labels")
    present = np.unique(labels)
    if present.size < 2:
        raise ValueError("AUC needs at least two classes present")
    if averaging == "binary":
        if scores.shape[1] != 2:
            raise ValueError("binary averaging requires two score columns")
        _check_positive(positive)
        return roc_auc_binary(scores[:, positive], labels == positive)
    if averaging == "macro_ovr":
        per_class = [roc_auc_binary(scores[:, c], labels == c) for c in present]
        return float(np.mean(per_class))
    raise ValueError(f"unknown averaging {averaging!r}")
