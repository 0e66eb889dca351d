"""ROC operating points and their trapezoidal area: an oracle for the rank
AUC of `aeknn.metrics`, built from thresholds rather than ranks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Operating points (FPR, TPR) from thresholding a score vector, ordered
    from (0, 0) at the strictest threshold to (1, 1)."""

    fpr: np.ndarray
    tpr: np.ndarray

    def __post_init__(self):
        fpr = np.asarray(self.fpr, dtype=np.float64)
        tpr = np.asarray(self.tpr, dtype=np.float64)
        if fpr.shape != tpr.shape or fpr.ndim != 1 or fpr.size < 2:
            raise ValueError("curve needs matching 1-D fpr/tpr with >= 2 points")
        if fpr[0] != 0.0 or tpr[0] != 0.0 or fpr[-1] != 1.0 or tpr[-1] != 1.0:
            raise ValueError("curve must run from (0, 0) to (1, 1)")
        if np.any(np.diff(fpr) < 0):
            raise ValueError("fpr must be non-decreasing")
        object.__setattr__(self, "fpr", fpr)
        object.__setattr__(self, "tpr", tpr)

    @classmethod
    def from_scores(cls, scores, relevance) -> "RocCurve":
        scores = np.asarray(scores, dtype=np.float64)
        relevance = np.asarray(relevance).astype(bool)
        if scores.shape != relevance.shape or scores.ndim != 1:
            raise ValueError("scores and relevance must be matching 1-D vectors")
        n_pos = int(relevance.sum())
        n_neg = relevance.size - n_pos
        if n_pos == 0 or n_neg == 0:
            raise ValueError("need at least one positive and one negative")
        order = np.argsort(-scores, kind="stable")
        sorted_scores = scores[order]
        sorted_rel = relevance[order]
        # one operating point after each group of tied scores
        boundaries = np.flatnonzero(np.diff(sorted_scores) != 0.0)
        cut = np.concatenate([boundaries, [scores.size - 1]])
        tp = np.cumsum(sorted_rel)[cut]
        fp = (cut + 1) - tp
        fpr = np.concatenate([[0.0], fp / n_neg])
        tpr = np.concatenate([[0.0], tp / n_pos])
        return cls(fpr=fpr, tpr=tpr)

    def area(self) -> float:
        """Trapezoidal integral of TPR over FPR."""
        return float(np.trapezoid(self.tpr, self.fpr))
