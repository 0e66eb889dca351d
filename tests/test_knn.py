import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from aeknn.knn import KnnModel, classify, classify_batch, neighbors


def brute_force_neighbors(references, query, k):
    """Independent oracle: full sort of exact pair distances."""
    dists = [float(np.sqrt(np.sum((r - query) ** 2))) for r in references]
    order = sorted(range(len(references)), key=lambda i: (dists[i], i))[:k]
    return order, [dists[i] for i in order]


def points_on_circle(radii, seed=0):
    """Distinct-radius points around the origin; radii define neighbor order."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, size=len(radii))
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


class TestNeighbors:
    def test_query_equal_to_reference_is_first_with_zero_distance(self):
        refs = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
        model = KnnModel(references=refs, labels=np.array([0, 1, 1]), k=2)
        idx, dist = neighbors(model, np.array([3.0, 4.0]))
        assert idx[0] == 1
        assert dist[0] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for n, d, k in [(50, 3, 1), (200, 8, 3), (500, 64, 5)]:
            refs = rng.normal(size=(n, d))
            labels = rng.integers(3, size=n)
            model = KnnModel(references=refs, labels=labels, k=k)
            query = rng.normal(size=d)
            idx, dist = neighbors(model, query)
            ref_idx, ref_dist = brute_force_neighbors(refs, query, k)
            assert idx.tolist() == ref_idx
            np.testing.assert_allclose(dist, ref_dist, rtol=1e-12)

    def test_equidistant_ties_prefer_lower_index(self):
        refs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [5.0, 5.0]])
        model = KnnModel(references=refs, labels=np.array([0, 1, 0, 1]), k=3)
        idx, dist = neighbors(model, np.array([0.0, 0.0]))
        assert idx.tolist() == [0, 1, 2]
        assert np.all(dist == 1.0)

    def test_dimension_mismatch(self):
        model = KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=1)
        with pytest.raises(ValueError):
            neighbors(model, np.zeros(3))

    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError, match="k="):
            KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=4)


class TestClassify:
    def test_two_class_neighborhood_flips_with_k(self):
        # nearest three favor one class 2:1, wider neighborhoods favor the other:
        # ordered labels by distance B B A | A A | A B A B A A
        labels_by_rank = [1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0]
        radii = 1.0 + 0.1 * np.arange(len(labels_by_rank))
        refs = points_on_circle(radii)
        model = KnnModel(
            references=refs, labels=np.array(labels_by_rank), k=3, n_classes=2
        )
        assert classify(model, np.zeros(2)).label == 1  # k=3 -> B
        model5 = KnnModel(references=refs, labels=np.array(labels_by_rank), k=5)
        assert classify(model5, np.zeros(2)).label == 0  # k=5 -> A
        model11 = KnnModel(references=refs, labels=np.array(labels_by_rank), k=11)
        assert classify(model11, np.zeros(2)).label == 0  # k=11 -> A

    def test_unanimous_vote_has_fraction_one(self):
        refs = points_on_circle([1.0, 1.1, 1.2, 9.0])
        model = KnnModel(references=refs, labels=np.array([2, 2, 2, 0]), k=3)
        pred = classify(model, np.zeros(2))
        assert pred.label == 2
        assert pred.vote_fractions[2] == 1.0

    def test_vote_tie_goes_to_class_with_nearest_member(self):
        # k=5, votes 2/2/1; class 1 owns the single nearest point
        labels_by_rank = [1, 0, 0, 1, 2]
        refs = points_on_circle([1.0, 1.5, 2.0, 2.5, 3.0])
        model = KnnModel(references=refs, labels=np.array(labels_by_rank), k=5)
        pred = classify(model, np.zeros(2))
        assert pred.label == 1
        assert pred.vote_fractions.tolist() == [0.4, 0.4, 0.2]

    def test_vote_tie_with_equal_distances_prefers_lower_class(self):
        # two classes, one member each, exactly equidistant; class 1 holds the
        # first position, but the tie key is (nearest distance, class)
        for refs in ([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]):
            model = KnnModel(references=np.array(refs), labels=np.array([1, 0]), k=2)
            assert classify(model, np.zeros(2)).label == 0

    def test_prediction_carries_neighbors(self):
        refs = points_on_circle([1.0, 2.0, 3.0])
        model = KnnModel(references=refs, labels=np.array([0, 1, 0]), k=2)
        pred = classify(model, np.zeros(2))
        assert pred.neighbor_indices.shape == (2,)
        assert np.all(np.diff(pred.neighbor_distances) >= 0)


class TestClassifyBatch:
    def test_empty_batch(self):
        model = KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=1)
        assert classify_batch(model, np.zeros((0, 2))) == []

    def test_batch_of_three_equals_singles(self):
        rng = np.random.default_rng(5)
        refs = rng.normal(size=(40, 4))
        labels = rng.integers(3, size=40)
        model = KnnModel(references=refs, labels=labels, k=5)
        queries = rng.normal(size=(3, 4))
        batch = classify_batch(model, queries)
        for query, pred in zip(queries, batch):
            single = classify(model, query)
            assert pred.label == single.label
            assert np.array_equal(pred.vote_fractions, single.vote_fractions)
            assert np.array_equal(pred.neighbor_indices, single.neighbor_indices)

    def test_large_batch_matches_single_calls(self):
        rng = np.random.default_rng(6)
        refs = rng.normal(size=(300, 50))
        labels = rng.integers(4, size=300)
        model = KnnModel(references=refs, labels=labels, k=5)
        queries = rng.normal(size=(1000, 50))
        batch = classify_batch(model, queries)
        spot = rng.integers(0, 1000, size=25)
        for i in spot:
            assert batch[i].label == classify(model, queries[i]).label

    def test_rejects_vector_input(self):
        model = KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=1)
        with pytest.raises(ValueError):
            classify_batch(model, np.zeros(2))


class TestProperties:
    def test_vote_fractions_sum_to_one_in_k_steps(self):
        rng = np.random.default_rng(7)
        refs = rng.normal(size=(60, 3))
        labels = rng.integers(4, size=60)
        for k in (1, 3, 5, 11):
            model = KnnModel(references=refs, labels=labels, k=k)
            for query in rng.normal(size=(10, 3)):
                pred = classify(model, query)
                fractions = pred.vote_fractions
                assert abs(fractions.sum() - 1.0) < 1e-12
                steps = fractions * k
                np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)

    def test_reference_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(8)
        refs = rng.normal(size=(50, 5))
        labels = rng.integers(3, size=50)
        query = rng.normal(size=5)
        model = KnnModel(references=refs, labels=labels, k=5)
        base = classify(model, query).label
        for _ in range(5):
            perm = rng.permutation(50)
            shuffled = KnnModel(references=refs[perm], labels=labels[perm], k=5)
            assert classify(shuffled, query).label == base

    def test_scale_invariance_of_neighbor_order(self):
        rng = np.random.default_rng(9)
        refs = rng.normal(size=(80, 6))
        labels = rng.integers(3, size=80)
        query = rng.normal(size=6)
        base_idx, _ = neighbors(KnnModel(references=refs, labels=labels, k=7), query)
        for c in (0.001, 3.7, 1e4):
            scaled = KnnModel(references=refs * c, labels=labels, k=7)
            idx, _ = neighbors(scaled, query * c)
            assert idx.tolist() == base_idx.tolist()
            assert classify(scaled, query * c).label == classify(
                KnnModel(references=refs, labels=labels, k=7), query
            ).label


def cdist_oracle(references, labels, n_classes, k, queries):
    """Per query (label, vote fractions, neighbor indices, distances) by the
    documented rules: equal distances prefer the lower reference index, and a
    vote tie goes to the tied class with the nearest member, then to the lower
    class index."""
    dist = cdist(queries, references)
    index = np.arange(len(references))
    out = []
    for row in dist:
        order = np.lexsort((index, row))[:k]
        votes = labels[order]
        counts = np.bincount(votes, minlength=n_classes)
        tied = np.flatnonzero(counts == counts.max())
        nearest = {c: row[order][votes == c].min() for c in tied}
        label = min(tied, key=lambda c: (nearest[c], c))
        out.append((label, counts / k, order, row[order]))
    return out


@st.composite
def tie_heavy_problems(draw):
    """Integer-grid references with duplicated rows, so equal distances are
    exact and common; k runs up to the number of references."""
    d = draw(st.integers(1, 3))
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    distinct = draw(st.lists(point, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=14))
    references = np.array([distinct[i] for i in picks], dtype=np.float64)
    n = len(picks)
    n_classes = draw(st.integers(1, 4))
    labels = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    queries = np.array(draw(st.lists(point, min_size=1, max_size=4)), dtype=np.float64)
    return references, labels, n_classes, k, queries


class TestTieRulesAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_problems())
    def test_batch_matches_cdist_oracle(self, problem):
        references, labels, n_classes, k, queries = problem
        model = KnnModel(references=references, labels=labels, k=k, n_classes=n_classes)
        got = classify_batch(model, queries)
        want = cdist_oracle(references, labels, n_classes, k, queries)
        for pred, (label, fractions, order, dist) in zip(got, want):
            assert pred.label == label
            assert np.array_equal(pred.vote_fractions, fractions)
            assert np.array_equal(pred.neighbor_indices, order)
            # squared distances on an integer grid are exact integers
            assert np.array_equal(pred.neighbor_distances, dist)
