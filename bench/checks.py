"""Correctness oracles computed apart from `aeknn`: exact kNN from
`scipy.spatial.distance.cdist` with the documented tie rules, metrics from
the returned predictions and scores, eigenvalues from `np.linalg.eigvalsh`,
Friedman and Wilcoxon from `scipy.stats`, and fold-plan invariants.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import numpy as np
from scipy import stats as sps
from scipy.spatial.distance import cdist


def minmax(train: np.ndarray, other: np.ndarray) -> np.ndarray:
    """`other` scaled by the per-feature range of `train` and clamped into
    [0, 1]; a constant feature gets range one."""
    lo = train.min(axis=0)
    hi = train.max(axis=0)
    hi = np.where(hi == lo, lo + 1.0, hi)
    return np.clip((other - lo) / (hi - lo), 0.0, 1.0)


def oracle_knn(refs, ref_labels, queries, k, n_classes):
    """(labels, vote fractions) by exact scan. Equal distances prefer the
    lower reference index; a vote tie goes to the tied class whose closest
    neighbour is nearest, then to the lower class index."""
    dist = cdist(queries, refs)
    labels = np.empty(len(queries), dtype=np.int64)
    fractions = np.empty((len(queries), n_classes))
    for row in range(len(queries)):
        order = np.argsort(dist[row], kind="stable")[:k]
        votes = ref_labels[order]
        counts = np.bincount(votes, minlength=n_classes)
        tied = np.flatnonzero(counts == counts.max())
        nearest = {c: dist[row, order[votes == c][0]] for c in tied}
        labels[row] = min(tied, key=lambda c: (nearest[c], c))
        fractions[row] = counts / k
    return labels, fractions


def compare_knn(what, got_labels, got_scores, refs, ref_labels, queries, k, n_classes):
    want_labels, want_scores = oracle_knn(refs, ref_labels, queries, k, n_classes)
    bad = np.flatnonzero(want_labels != np.asarray(got_labels))
    errors = []
    if bad.size:
        errors.append(f"{what}: {bad.size}/{len(queries)} kNN labels differ from the oracle")
    if not np.array_equal(want_scores, np.asarray(got_scores, dtype=np.float64)):
        errors.append(f"{what}: vote fractions differ from the oracle")
    return errors


def _f1(true, pred, c):
    tp = np.count_nonzero((pred == c) & (true == c))
    fp = np.count_nonzero((pred == c) & (true != c))
    fn = np.count_nonzero((pred != c) & (true == c))
    return 0.0 if tp == 0 else 2.0 * tp / (2.0 * tp + fp + fn)


def _auc(scores, positive_mask):
    u = sps.mannwhitneyu(scores[positive_mask], scores[~positive_mask]).statistic
    return u / (positive_mask.sum() * (~positive_mask).sum())


def fold_metrics(true, pred, scores, n_classes, positive=1):
    """(accuracy, F-score, AUC) of one fold: binary problems score class
    `positive`, others take macro F over all classes and one-vs-rest AUC
    over the classes present."""
    true = np.asarray(true)
    pred = np.asarray(pred)
    scores = np.asarray(scores, dtype=np.float64)
    acc = float(np.mean(true == pred))
    if n_classes == 2:
        return acc, _f1(true, pred, positive), _auc(scores[:, positive], true == positive)
    f = float(np.mean([_f1(true, pred, c) for c in range(n_classes)]))
    area = float(np.mean([_auc(scores[:, c], true == c) for c in np.unique(true)]))
    return acc, f, area


def compare_metrics(what, folds, reported, n_classes):
    """`folds` is a list of (true, pred, scores); `reported` the program's
    (accuracy, fscore, auc) means over them."""
    want = np.mean([fold_metrics(t, p, s, n_classes) for t, p, s in folds], axis=0)
    if not np.allclose(want, reported, rtol=0.0, atol=1e-12):
        return [f"{what}: metrics {tuple(reported)} recomputed as {tuple(want)}"]
    return []


def fold_plan(what, assignments, n_folds, labels):
    """Each repetition puts every row in exactly one fold, leaves no fold
    empty and keeps per-class fold counts within one of each other."""
    errors = []
    assignments = np.asarray(assignments)
    if assignments.shape[1] != len(labels):
        return [f"{what}: plan covers {assignments.shape[1]} rows, data has {len(labels)}"]
    for rep, row in enumerate(assignments):
        if row.min() < 0 or row.max() >= n_folds:
            errors.append(f"{what}: repetition {rep} has fold indices out of range")
            continue
        if np.any(np.bincount(row, minlength=n_folds) == 0):
            errors.append(f"{what}: repetition {rep} leaves a fold empty")
        for c in np.unique(labels):
            per_fold = np.bincount(row[labels == c], minlength=n_folds)
            if per_fold.max() - per_fold.min() > 1:
                errors.append(f"{what}: repetition {rep} class {c} is not stratified")
    return errors


def splits_partition(what, splits, n_rows):
    """Within each repetition the test folds are disjoint, cover every row,
    and each train fold is the complement of its test fold."""
    errors = []
    seen = {}
    for rep, fold, train, test in splits:
        if np.intersect1d(train, test).size or len(train) + len(test) != n_rows:
            errors.append(f"{what}: split {rep}/{fold} is not a train/test partition")
        seen.setdefault(rep, []).append(np.asarray(test))
    for rep, tests in seen.items():
        joined = np.sort(np.concatenate(tests))
        if not np.array_equal(joined, np.arange(n_rows)):
            errors.append(f"{what}: repetition {rep} test folds do not partition the rows")
    return errors


def pca_eigenvalues(what, train, got):
    want = np.linalg.eigvalsh(np.cov(train, rowvar=False))[::-1]
    scale = max(abs(want[0]), 1e-300)
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9 * scale:
        return [f"{what}: PCA eigenvalues differ from eigvalsh by "
                f"{np.max(np.abs(got - want)) / scale:.3g} of the largest"]
    return []


def loss_falls(what, histories):
    errors = []
    for layer, history in enumerate(histories):
        if len(history) < 2 or not history[-1] < history[0]:
            errors.append(f"{what}: layer {layer} loss did not fall ({history[:1]} -> {history[-1:]})")
    return errors


def friedman(what, values, statistic, p_value, avg_ranks):
    """aeknn's statistic is the uncorrected chi-square form; scipy divides it
    by the tie correction, so the two coincide after multiplying back."""
    values = np.asarray(values, dtype=np.float64)
    n, k = values.shape
    ranks = np.vstack([sps.rankdata(-row) for row in values])
    ties = sum(float(np.sum(t**3 - t)) for t in
               (np.unique(row, return_counts=True)[1] for row in values))
    correction = 1.0 - ties / (n * k * (k * k - 1))
    want = sps.friedmanchisquare(*values.T).statistic * correction
    errors = []
    if not np.isclose(statistic, want, rtol=1e-12, atol=1e-12):
        errors.append(f"{what}: Friedman statistic {statistic} against scipy {want}")
    if not np.isclose(p_value, sps.chi2.sf(want, k - 1), rtol=1e-9, atol=1e-12):
        errors.append(f"{what}: Friedman p {p_value} against scipy {sps.chi2.sf(want, k - 1)}")
    if not np.allclose(avg_ranks, ranks.mean(axis=0), rtol=0.0, atol=1e-12):
        errors.append(f"{what}: Friedman average ranks differ")
    return errors


def wilcoxon(what, a, b, statistic, p_value):
    """Compared where the definitions coincide: no zero and no tied absolute
    differences at nine decimals, exact below 21 pairs. Returns (errors,
    compared)."""
    diffs = np.round(np.asarray(a, float) - np.asarray(b, float), 9)
    magnitudes = np.abs(diffs)
    if np.any(diffs == 0.0) or np.unique(magnitudes).size != diffs.size or diffs.size > 20:
        return [], False
    want = sps.wilcoxon(diffs, method="exact")
    errors = []
    if statistic != want.statistic:
        errors.append(f"{what}: Wilcoxon W {statistic} against scipy {want.statistic}")
    if not np.isclose(p_value, want.pvalue, rtol=1e-9, atol=1e-15):
        errors.append(f"{what}: Wilcoxon p {p_value} against scipy {want.pvalue}")
    return errors, True
