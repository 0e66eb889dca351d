import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeknn.metrics import (
    ConfusionMatrix,
    accuracy,
    auc,
    f_score,
    roc_auc_binary,
)

from roc_curve import RocCurve


def binary_cm(tp, fn, fp, tn):
    """Positive class is index 1: rows/cols ordered (negative, positive)."""
    return ConfusionMatrix(counts=np.array([[tn, fp], [fn, tp]]))


class TestAccuracy:
    def test_binary_counts(self):
        assert accuracy(binary_cm(tp=2, tn=3, fp=1, fn=4)) == 0.5

    def test_diagonal_is_perfect(self):
        cm = ConfusionMatrix(counts=np.diag([3, 5, 2]))
        assert accuracy(cm) == 1.0

    def test_matches_naive_counting_oracle(self):
        rng = np.random.default_rng(0)
        true = rng.integers(3, size=20)
        pred = rng.integers(3, size=20)
        cm = ConfusionMatrix.from_predictions(true, pred, n_classes=3)
        assert accuracy(cm) == np.mean(true == pred)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionMatrix(counts=np.zeros((2, 2), dtype=int)))

    @pytest.mark.parametrize("true, pred", [
        ([0, 1, -1], [0, 1, 1]),  # a -1 once wrapped around into the last class
        ([0, 1, 1], [0, 1, -1]),
        ([0, 1, 2], [0, 1, 1]),
        ([0, 1, 1], [0, 2, 1]),
    ], ids=["true-negative", "predicted-negative", "true-too-large", "predicted-too-large"])
    def test_out_of_range_labels_rejected(self, true, pred):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            ConfusionMatrix.from_predictions(true, pred, n_classes=2)


class TestFScore:
    def test_equal_precision_and_recall(self):
        # tp=6, fp=2, fn=2 -> precision = recall = 0.75 -> F = 0.75
        assert f_score(binary_cm(tp=6, fn=2, fp=2, tn=5), "binary") == 0.75

    def test_direct_arithmetic(self):
        cm = binary_cm(tp=2, fp=1, fn=4, tn=3)
        np.testing.assert_allclose(f_score(cm, "binary"), 4.0 / 9.0)

    def test_perfect_predictions_any_class_count(self):
        assert f_score(ConfusionMatrix(counts=np.diag([4, 4])), "binary") == 1.0
        assert f_score(ConfusionMatrix(counts=np.diag([4, 1, 7, 2])), "macro") == 1.0

    def test_binary_averaging_requires_two_classes(self):
        with pytest.raises(ValueError):
            f_score(ConfusionMatrix(counts=np.diag([1, 1, 1])), "binary")

    def test_absent_class_scores_zero_in_macro(self):
        counts = np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        cm = ConfusionMatrix(counts=counts)
        np.testing.assert_allclose(f_score(cm, "macro"), 2.0 / 3.0)

    def test_positive_class_override(self):
        cm = binary_cm(tp=2, fp=1, fn=4, tn=3)
        # scoring class 0 swaps the roles of the counts
        assert f_score(cm, "binary", positive=0) != f_score(cm, "binary", positive=1)

    @pytest.mark.parametrize("positive", [-1, 2, 5])
    def test_binary_positive_outside_the_two_classes_rejected(self, positive):
        cm = binary_cm(tp=2, fp=1, fn=4, tn=3)
        with pytest.raises(ValueError, match=rf"positive .*got {positive}"):
            f_score(cm, "binary", positive=positive)

    def test_micro_f_equals_accuracy_on_multiclass(self):
        # internal consistency of the one-vs-rest counts; micro-F computed
        # here in the test, deliberately not part of the metrics API
        rng = np.random.default_rng(1)
        for _ in range(100):
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 9, size=(c, c))
            if counts.sum() == 0:
                counts[0, 0] = 1
            cm = ConfusionMatrix(counts=counts)
            tp = sum(cm.true_positives(i) for i in range(c))
            fp = sum(cm.false_positives(i) for i in range(c))
            fn = sum(cm.false_negatives(i) for i in range(c))
            micro_p = tp / (tp + fp) if tp + fp else 0.0
            micro_r = tp / (tp + fn) if tp + fn else 0.0
            micro_f = (
                2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
            )
            assert abs(micro_f - accuracy(cm)) < 1e-12


def pair_counting_auc(scores, relevance):
    """O(n^2) oracle: positives ranked above negatives, ties worth half."""
    scores = np.asarray(scores, float)
    relevance = np.asarray(relevance, bool)
    wins = 0.0
    total = 0
    for i in np.flatnonzero(relevance):
        for j in np.flatnonzero(~relevance):
            total += 1
            if scores[i] > scores[j]:
                wins += 1.0
            elif scores[i] == scores[j]:
                wins += 0.5
    return wins / total


class TestBinaryAuc:
    def test_perfect_separation(self):
        assert roc_auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_scores_equal(self):
        assert roc_auc_binary([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(5, 30))
            scores = np.round(rng.uniform(size=n), 1)  # coarse -> plenty of ties
            relevance = rng.integers(2, size=n).astype(bool)
            if relevance.all() or not relevance.any():
                continue
            np.testing.assert_allclose(
                roc_auc_binary(scores, relevance),
                pair_counting_auc(scores, relevance),
                atol=1e-12,
            )

    def test_single_class_relevance_rejected(self):
        with pytest.raises(ValueError):
            roc_auc_binary([0.1, 0.2], [1, 1])

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=25)
        relevance = rng.integers(2, size=25).astype(bool)
        relevance[0], relevance[1] = True, False
        total = roc_auc_binary(scores, relevance) + roc_auc_binary(scores, ~relevance)
        assert abs(total - 1.0) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 40))
        scores = rng.normal(size=n)
        relevance = rng.integers(2, size=n).astype(bool)
        relevance[0], relevance[1] = True, False
        base = roc_auc_binary(scores, relevance)
        for transform in (lambda s: 3.0 * s + 7.0, np.tanh, lambda s: s**3):
            assert abs(roc_auc_binary(transform(scores), relevance) - base) < 1e-12


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        scores = np.round(rng.uniform(size=30), 1)
        relevance = rng.integers(2, size=30).astype(bool)
        relevance[0], relevance[1] = True, False
        curve = RocCurve.from_scores(scores, relevance)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)

    def test_area_equals_rank_statistic(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(6, 50))
            scores = np.round(rng.uniform(size=n), 2)
            relevance = rng.integers(2, size=n).astype(bool)
            relevance[0], relevance[1] = True, False
            curve = RocCurve.from_scores(scores, relevance)
            assert abs(curve.area() - roc_auc_binary(scores, relevance)) < 1e-10


class TestMulticlassAuc:
    def test_perfect_one_hot_scores(self):
        labels = np.array([0, 1, 2, 1, 0, 2])
        scores = np.eye(3)[labels]
        assert auc(scores, labels, averaging="macro_ovr") == 1.0

    def test_matches_per_class_oracles(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(3, size=30)
        labels[:3] = [0, 1, 2]
        raw = rng.uniform(size=(30, 3))
        scores = raw / raw.sum(axis=1, keepdims=True)
        expected = np.mean(
            [pair_counting_auc(scores[:, c], labels == c) for c in range(3)]
        )
        np.testing.assert_allclose(auc(scores, labels, averaging="macro_ovr"), expected)

    def test_vote_fraction_scores_are_fine(self):
        # k=5 vote fractions take only six distinct values; mid-ranks handle it
        rng = np.random.default_rng(7)
        labels = rng.integers(2, size=40)
        labels[:2] = [0, 1]
        votes = rng.integers(0, 6, size=40) / 5.0
        scores = np.column_stack([1.0 - votes, votes])
        value = auc(scores, labels, averaging="binary")
        assert 0.0 <= value <= 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc(np.ones((4, 2)) / 2, np.zeros(4, dtype=int), averaging="binary")

    def test_binary_positive_column(self):
        labels = np.array([0, 1, 0, 1, 1])
        pos_scores = np.array([0.1, 0.9, 0.3, 0.8, 0.7])
        scores = np.column_stack([1 - pos_scores, pos_scores])
        assert auc(scores, labels, averaging="binary") == 1.0

    @pytest.mark.parametrize("positive", [-1, 2, 5])
    def test_binary_positive_outside_the_two_classes_rejected(self, positive):
        labels = np.array([0, 1, 0, 1, 1])
        pos_scores = np.array([0.1, 0.9, 0.3, 0.8, 0.7])
        scores = np.column_stack([1 - pos_scores, pos_scores])
        with pytest.raises(ValueError, match=rf"positive .*got {positive}"):
            auc(scores, labels, averaging="binary", positive=positive)
