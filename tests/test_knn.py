import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from aeknn import knn
from aeknn.knn import KnnModel, classify_batch, neighbors

from memory import traced_peak


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
        idx, dist = neighbors(model, np.array([[3.0, 4.0]]))
        assert idx.shape == dist.shape == (1, 2)
        assert idx[0, 0] == 1
        assert dist[0, 0] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for n, d, k in [(50, 3, 1), (200, 8, 3), (500, 64, 5)]:
            refs = rng.normal(size=(n, d))
            labels = rng.integers(3, size=n)
            model = KnnModel(references=refs, labels=labels, k=k)
            query = rng.normal(size=d)
            idx, dist = neighbors(model, query[None])
            ref_idx, ref_dist = brute_force_neighbors(refs, query, k)
            assert idx[0].tolist() == ref_idx
            np.testing.assert_allclose(dist[0], ref_dist, rtol=1e-12)

    def test_equidistant_ties_prefer_lower_index(self):
        refs = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [5.0, 5.0]])
        model = KnnModel(references=refs, labels=np.array([0, 1, 0, 1]), k=3)
        idx, dist = neighbors(model, np.zeros((1, 2)))
        assert idx.tolist() == [[0, 1, 2]]
        assert np.all(dist == 1.0)

    def test_dimension_mismatch(self):
        model = KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=1)
        with pytest.raises(ValueError):
            neighbors(model, np.zeros((1, 3)))

    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError, match="k="):
            KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=4)

    @pytest.mark.parametrize("labels, n_classes", [
        # a -1 label once made the vote count into the previous query's row
        ([0, -1, 1], None),
        ([0, -1, 1], 2),
        ([0, 2, 1], 2),
    ], ids=["negative", "negative-given-classes", "at-n-classes"])
    def test_labels_outside_the_class_range_rejected(self, labels, n_classes):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            KnnModel(references=[[0.0], [1.0], [5.0]], labels=labels, k=1, n_classes=n_classes)

    def test_neighbors_come_distance_sorted(self):
        refs = points_on_circle([1.0, 2.0, 3.0])
        model = KnnModel(references=refs, labels=np.array([0, 1, 0]), k=2)
        idx, dist = neighbors(model, np.zeros((1, 2)))
        assert idx.tolist() == [[0, 1]]
        assert np.all(np.diff(dist, axis=1) >= 0)


def classify_one(model, query):
    """Label and vote fractions of a one-row batch."""
    labels, fractions = classify_batch(model, np.asarray(query, dtype=np.float64)[None])
    return labels[0], fractions[0]


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
        assert classify_one(model, np.zeros(2))[0] == 1  # k=3 -> B
        model5 = KnnModel(references=refs, labels=np.array(labels_by_rank), k=5)
        assert classify_one(model5, np.zeros(2))[0] == 0  # k=5 -> A
        model11 = KnnModel(references=refs, labels=np.array(labels_by_rank), k=11)
        assert classify_one(model11, np.zeros(2))[0] == 0  # k=11 -> A

    def test_unanimous_vote_has_fraction_one(self):
        refs = points_on_circle([1.0, 1.1, 1.2, 9.0])
        model = KnnModel(references=refs, labels=np.array([2, 2, 2, 0]), k=3)
        label, fractions = classify_one(model, np.zeros(2))
        assert label == 2
        assert fractions[2] == 1.0

    def test_vote_tie_goes_to_class_with_nearest_member(self):
        # k=5, votes 2/2/1; class 1 owns the single nearest point
        labels_by_rank = [1, 0, 0, 1, 2]
        refs = points_on_circle([1.0, 1.5, 2.0, 2.5, 3.0])
        model = KnnModel(references=refs, labels=np.array(labels_by_rank), k=5)
        label, fractions = classify_one(model, np.zeros(2))
        assert label == 1
        assert fractions.tolist() == [0.4, 0.4, 0.2]

    def test_vote_tie_with_equal_distances_prefers_lower_class(self):
        # two classes, one member each, exactly equidistant; class 1 holds the
        # first position, but the tie key is (nearest distance, class)
        for refs in ([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]):
            model = KnnModel(references=np.array(refs), labels=np.array([1, 0]), k=2)
            assert classify_one(model, np.zeros(2))[0] == 0


class TestClassifyBatch:
    def test_empty_batch(self):
        model = KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=1)
        labels, fractions = classify_batch(model, np.zeros((0, 2)))
        assert labels.shape == (0,)
        assert fractions.shape == (0, 2)

    def test_batch_of_three_equals_one_row_batches(self):
        rng = np.random.default_rng(5)
        refs = rng.normal(size=(40, 4))
        labels = rng.integers(3, size=40)
        model = KnnModel(references=refs, labels=labels, k=5)
        queries = rng.normal(size=(3, 4))
        batch_labels, batch_fractions = classify_batch(model, queries)
        batch_idx, batch_dist = neighbors(model, queries)
        for i in range(3):
            row_labels, row_fractions = classify_batch(model, queries[i : i + 1])
            row_idx, row_dist = neighbors(model, queries[i : i + 1])
            assert batch_labels[i] == row_labels[0]
            assert batch_fractions[i].tobytes() == row_fractions[0].tobytes()
            assert np.array_equal(batch_idx[i], row_idx[0])
            assert batch_dist[i].tobytes() == row_dist[0].tobytes()

    def test_large_batch_matches_one_row_batches(self):
        rng = np.random.default_rng(6)
        refs = rng.normal(size=(300, 50))
        labels = rng.integers(4, size=300)
        model = KnnModel(references=refs, labels=labels, k=5)
        queries = rng.normal(size=(1000, 50))
        batch_labels, _ = classify_batch(model, queries)
        spot = rng.integers(0, 1000, size=25)
        for i in spot:
            assert batch_labels[i] == classify_batch(model, queries[i : i + 1])[0][0]

    def test_rejects_vector_input(self):
        model = KnnModel(references=np.zeros((3, 2)), labels=np.array([0, 1, 0]), k=1)
        for entry_point in (neighbors, classify_batch):
            with pytest.raises(ValueError, match="shape"):
                entry_point(model, np.zeros(2))


class TestProperties:
    def test_vote_fractions_sum_to_one_in_k_steps(self):
        rng = np.random.default_rng(7)
        refs = rng.normal(size=(60, 3))
        labels = rng.integers(4, size=60)
        for k in (1, 3, 5, 11):
            model = KnnModel(references=refs, labels=labels, k=k)
            _, fractions = classify_batch(model, rng.normal(size=(10, 3)))
            np.testing.assert_allclose(fractions.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            steps = fractions * k
            np.testing.assert_allclose(steps, np.round(steps), atol=1e-9)

    def test_reference_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(8)
        refs = rng.normal(size=(50, 5))
        labels = rng.integers(3, size=50)
        query = rng.normal(size=(1, 5))
        model = KnnModel(references=refs, labels=labels, k=5)
        base = classify_batch(model, query)[0]
        for _ in range(5):
            perm = rng.permutation(50)
            shuffled = KnnModel(references=refs[perm], labels=labels[perm], k=5)
            assert np.array_equal(classify_batch(shuffled, query)[0], base)

    def test_scale_invariance_of_neighbor_order(self):
        rng = np.random.default_rng(9)
        refs = rng.normal(size=(80, 6))
        labels = rng.integers(3, size=80)
        query = rng.normal(size=(1, 6))
        base = KnnModel(references=refs, labels=labels, k=7)
        base_idx, _ = neighbors(base, query)
        for c in (0.001, 3.7, 1e4):
            scaled = KnnModel(references=refs * c, labels=labels, k=7)
            idx, _ = neighbors(scaled, query * c)
            assert idx.tolist() == base_idx.tolist()
            assert np.array_equal(
                classify_batch(scaled, query * c)[0], classify_batch(base, query)[0]
            )


def cdist_oracle(references, labels, n_classes, k, queries):
    """(labels, vote fractions, neighbor indices, distances), one row per
    query, by the documented rules: equal distances prefer the lower
    reference index, and a vote tie goes to the tied class with the nearest
    member, then to the lower class index."""
    return rule_oracle(cdist(queries, references), labels, n_classes, k)


def rule_oracle(dist, labels, n_classes, k):
    """`cdist_oracle` on a given (queries x references) distance matrix."""
    index = np.arange(dist.shape[1])
    out = []
    for row in dist:
        order = np.lexsort((index, row))[:k]
        votes = labels[order]
        counts = np.bincount(votes, minlength=n_classes)
        tied = np.flatnonzero(counts == counts.max())
        nearest = {c: row[order][votes == c].min() for c in tied}
        label = min(tied, key=lambda c: (nearest[c], c))
        out.append((label, counts / k, order, row[order]))
    return tuple(np.array(column) for column in zip(*out))


def batch_answers(model, queries):
    """(labels, vote fractions, neighbor indices, distances) from the two
    public entry points."""
    return (*classify_batch(model, queries), *neighbors(model, queries))


def scan_answers(model, queries):
    """What a full scan answers: the exact pass over every reference, the
    reference for the tree's candidates."""
    n_ref = len(model.references)
    cols = np.broadcast_to(np.arange(n_ref), (len(queries), n_ref))
    indices, distances = knn._nearest(model, queries, cols)
    return (*knn._vote(model, indices, distances), indices, distances)


def assert_same_answers(got, want):
    """Labels and indices equal, vote fractions and distances bit for bit."""
    labels, fractions, indices, distances = got
    want_labels, want_fractions, want_indices, want_distances = want
    assert np.array_equal(labels, want_labels)
    assert fractions.shape == want_fractions.shape
    assert fractions.tobytes() == want_fractions.tobytes()
    assert np.array_equal(indices, want_indices)
    assert distances.shape == want_distances.shape
    assert distances.tobytes() == want_distances.tobytes()


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
        # squared distances on an integer grid are exact integers, so cdist's
        # distances are bitwise those of the search
        assert_same_answers(
            batch_answers(model, queries),
            cdist_oracle(references, labels, n_classes, k, queries),
        )


class TestNonFiniteQueries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_by_every_entry_point(self, bad):
        model = KnnModel(references=np.eye(3), labels=np.array([0, 1, 2]), k=2)
        query = np.array([0.5, bad, 0.0])
        batch = np.vstack([np.zeros(3), query])
        for entry_point in (neighbors, classify_batch):
            with pytest.raises(ValueError, match="non-finite"):
                entry_point(model, batch)


def test_vote_tie_at_overflowing_distances_stays_among_contenders():
    # every squared difference overflows to inf; classes 1 and 2 tie on votes
    # and on (infinite) nearest distance, class 0 has no vote at all
    refs = np.array([[1e300], [-1e300], [1e300], [-1e300]])
    model = KnnModel(references=refs, labels=np.array([2, 1, 2, 1]), k=4, n_classes=3)
    with np.errstate(over="ignore"):
        labels, _, _, distances = batch_answers(model, np.zeros((1, 1)))
    assert np.all(np.isinf(distances))
    assert labels.tolist() == [1]


def broadcast_reference(references, queries):
    """The unblocked distance formula the search must reproduce bit for bit."""
    return np.sqrt(((queries[:, None, :] - references[None, :, :]) ** 2).sum(axis=2))


class TestBitwiseAgainstBroadcastFormula:
    @pytest.mark.parametrize("block_bytes", [None, 2048])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 20, 31, 32, 33, 129, 256, 300])
    def test_labels_fractions_indices_and_distance_bits(self, width, block_bytes, monkeypatch):
        self.check(width, block_bytes, monkeypatch)

    @pytest.mark.parametrize("block_bytes", [None, 2048])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 20, 31, 32, 33, 129, 256, 300])
    def test_same_bits_with_every_row_on_every_reference(self, width, block_bytes, monkeypatch):
        # no magnitude passes a negative guard, so no tree is built and every
        # row takes every reference as its candidates
        monkeypatch.setattr(knn, "_TREE_MAX_ABS", -1.0)
        self.check(width, block_bytes, monkeypatch)

    @staticmethod
    def check(width, block_bytes, monkeypatch):
        if block_bytes is not None:
            # many row tiles, and column tiles with ragged edges
            monkeypatch.setattr(knn, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(width)
        n_ref, n_q = 150, 40
        refs = rng.normal(size=(n_ref, width)) * rng.choice([1e-3, 1.0, 1e3], size=width)
        refs[100:110] = refs[:10]  # duplicated rows, so distances tie exactly
        queries = rng.normal(size=(n_q, width)) * rng.choice([1e-3, 1.0, 1e3], size=width)
        queries[:5] = refs[:5]
        labels = rng.integers(0, 4, size=n_ref)
        dist = broadcast_reference(refs, queries)
        for k in (1, 5, n_ref):
            model = KnnModel(references=refs, labels=labels, k=k, n_classes=4)
            assert_same_answers(batch_answers(model, queries), rule_oracle(dist, labels, 4, k))


def test_classify_batch_memory_is_bounded_at_musk_shape():
    # one search at a musk-like shape (about 5300 x 166 references, 64 queries);
    # materializing a (64, 5300, 166) difference block alone takes 0.45 GB
    rng = np.random.default_rng(5)
    model = KnnModel(
        references=rng.random((5300, 166)), labels=rng.integers(0, 2, size=5300), k=5
    )
    queries = rng.random((64, 166))
    assert traced_peak(lambda: classify_batch(model, queries)) < 32 * 2**20


@st.composite
def tree_screen_problems(draw):
    """References 1 to 33, or 64 to 617, features wide where the tree
    screen's certificate is tested hard, 1 to 40 of them (one kd-tree leaf)
    or 65 to 400 (several leaves, so the search prunes some):
    exact ties on integer grids; permuted coordinates, whose exact distances
    to a constant query tie but whose rounded ones differ in the last bits
    with the order of summation; near-duplicates a few ulps apart, offset or
    not; subnormal and underflowing squared differences; and coordinates
    the magnitude guard sends to the scan. k runs from 1 to n_ref."""
    kind = draw(st.sampled_from(["grid", "permuted", "ulp", "offset", "tiny", "huge"]))
    d = draw(st.one_of(st.integers(1, 33), st.sampled_from([64, 85, 129, 256, 617])))
    n = draw(st.one_of(st.integers(1, 40), st.integers(knn._TREE_LEAF + 1, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_q = int(rng.integers(1, 8))
    # distinct rows to repeat or perturb: 1 to 5, or up to one in 8 of many
    n_distinct = int(rng.integers(1, max(6, n // 8)))
    if kind == "grid":
        distinct = rng.integers(-2, 3, size=(n_distinct, d)).astype(np.float64)
        references = distinct[rng.integers(0, len(distinct), size=n)]
        queries = rng.integers(-2, 3, size=(n_q, d)).astype(np.float64)
    elif kind == "permuted":
        offset, scale = draw(st.sampled_from([(0.0, 1.0), (1e4, 1.0), (0.0, 1e-158)]))
        references = rng.permuted(np.tile(rng.normal(size=d), (n, 1)), axis=1) * scale + offset
        queries = np.full((n_q, d), offset) + rng.normal(size=(n_q, 1)) * scale
    else:
        scale = {
            "ulp": 1.0,
            "offset": 1.0,
            "tiny": draw(st.sampled_from([1e-155, 1e-158, 1e-160, 1e-200])),
            "huge": draw(st.sampled_from([2e150, 1e200, 1e300])),
        }[kind]
        base = rng.normal(size=(n_distinct, d)) * scale
        if kind == "offset":
            base += 1e4
        # near-duplicates: a few ulps away from the drawn rows
        references = base[rng.integers(0, len(base), size=n)]
        references += rng.integers(-2, 3, size=references.shape) * np.spacing(references)
        queries = base[rng.integers(0, len(base), size=n_q)]
        queries += rng.integers(-2, 3, size=queries.shape) * np.spacing(queries)
    n_classes = draw(st.integers(1, 4))
    labels = rng.integers(0, n_classes, size=n)
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    return references, labels, n_classes, k, queries


def leaf_of_each_reference(tree: cKDTree) -> np.ndarray:
    """The index of the kd-tree leaf holding each reference."""
    leaf = np.empty(tree.n, dtype=np.intp)
    nodes, count = [tree.tree], 0
    while nodes:
        node = nodes.pop()
        if node.lesser is None:
            leaf[node.indices] = count
            count += 1
        else:
            nodes += [node.lesser, node.greater]
    return leaf


class TestTreeScreenAgainstScan:
    @settings(max_examples=400, deadline=None)
    @given(tree_screen_problems())
    def test_same_bits_as_the_scan(self, problem):
        references, labels, n_classes, k, queries = problem
        model = KnnModel(references=references, labels=labels, k=k, n_classes=n_classes)
        with np.errstate(over="ignore"):
            assert_same_answers(batch_answers(model, queries), scan_answers(model, queries))

    def test_coordinates_past_the_guard_take_the_scan(self, monkeypatch):
        class UnqueriedTree(cKDTree):
            def query(self, *args, **kwargs):
                raise AssertionError("the tree was queried")

        monkeypatch.setattr(knn, "cKDTree", UnqueriedTree)
        labels = np.array([0, 1, 0, 1])
        big = np.array([[2e150], [-1e300], [3.0], [0.0]])
        with np.errstate(over="ignore"):
            # large references, or a large query, or wide and large, or an
            # empty batch
            classify_batch(KnnModel(references=big, labels=labels, k=2), np.zeros((3, 1)))
            small = KnnModel(references=big[2:], labels=labels[2:], k=1)
            classify_batch(small, np.array([[1.0], [2e150]]))
        wide = KnnModel(references=np.full((3, 300), 2e150), labels=np.zeros(3, dtype=int), k=1)
        classify_batch(wide, np.zeros((2, 300)))
        labels, fractions = classify_batch(small, np.zeros((0, 1)))
        assert labels.shape == (0,) and fractions.shape == (0, 2)

    def test_wide_rounding_gap_stays_within_the_certificate(self):
        # at 617 features the tree's distance to `wide` rounds up on each of
        # its 154 tiny squares (0.51 ulp of the running sum each; every 4th
        # coordinate, which cKDTree adds into the accumulator holding the
        # 1), while the scan's pairwise sum keeps them: about 1 + 77 ulps
        # against 1 + 41.
        # The five single-coordinate references lie between (1 + 50 to 70
        # ulps in both), so the tree proposes them alone, and only the
        # width term of the slack sends the row to the scan over every
        # reference, which finds `wide` nearest
        eps = np.finfo(np.float64).eps
        wide = np.zeros(617)
        wide[0], wide[4::4] = 1.0, np.sqrt(0.51 * eps)
        references = np.zeros((6, 617))
        references[:5, 0] = 1 + np.array([50, 55, 60, 65, 70]) * eps
        references[5] = wide
        model = KnnModel(references=references, labels=[0, 0, 0, 0, 0, 1], k=1)
        queries = np.zeros((1, 617))
        got, want = batch_answers(model, queries), scan_answers(model, queries)
        assert got[2].tolist() == want[2].tolist() == [[5]]
        assert_same_answers(got, want)

    def test_all_references_equal_fall_back_row_by_row(self, monkeypatch):
        # every distance of a row ties, so the k + 4 proposals cannot certify
        # the k-th; each row must reach the scan over every reference, which
        # alone knows the lower-index rule over all 60 ties
        passes = []
        real_nearest = knn._nearest

        def recording_nearest(model, queries, cols):
            # a broadcast of every reference repeats one row: zero row stride
            source = "every" if cols.strides[0] == 0 else "tree"
            passes.append((source, cols.shape))
            return real_nearest(model, queries, cols)

        monkeypatch.setattr(knn, "_nearest", recording_nearest)
        references = np.tile([0.5, -1.0, 2.0], (60, 1))
        labels = np.arange(60) % 3
        queries = np.array([[0.5, -1.0, 2.0], [1.0, 1.0, 1.0], [-3.0, 0.0, 7.0]])
        for k in (1, 5, 55, 56):
            passes.clear()
            model = KnnModel(references=references, labels=labels, k=k, n_classes=3)
            got = batch_answers(model, queries)
            want = rule_oracle(broadcast_reference(references, queries), labels, 3, k)
            assert_same_answers(got, want)
            # one pass over all three rows per entry point; with k + 4 >= n_ref
            # the tree's proposals are every reference, so none falls back
            source = "tree" if k == 56 else "every"
            assert passes == [(source, (3, 60))] * 2

    def test_grid_ties_certified_across_leaves_match_the_scan(self, monkeypatch):
        # 600 references on a 7^4 integer grid: squared distances are
        # integers, so they tie exactly and often, and duplicates occur. The
        # tree splits them into leaves of at most _TREE_LEAF; a certified
        # row's k + 4 proposals come from several of them, and rows whose
        # k-th distance ties past the proposals take every reference
        tree_cols = []
        real_nearest = knn._nearest

        def recording_nearest(model, queries, cols):
            if cols.strides[0] != 0:
                tree_cols.append(cols)
            return real_nearest(model, queries, cols)

        monkeypatch.setattr(knn, "_nearest", recording_nearest)
        rng = np.random.default_rng(23)
        references = rng.integers(-3, 4, size=(600, 4)).astype(np.float64)
        queries = rng.integers(-3, 4, size=(60, 4)).astype(np.float64)
        labels = rng.integers(0, 3, size=600)
        for k in (1, 5, 20):
            model = KnnModel(references=references, labels=labels, k=k)
            leaf = leaf_of_each_reference(model._tree)
            assert leaf.max() + 1 >= 600 // knn._TREE_LEAF
            tree_cols.clear()
            got = batch_answers(model, queries)
            assert_same_answers(got, scan_answers(model, queries))
            # both entry points certified some rows, not all
            assert len(tree_cols) == 2
            assert 0 < len(tree_cols[0]) < len(queries)
            assert max(len(set(leaf[row])) for row in tree_cols[0]) >= 3

    def test_batch_mixing_both_sources_matches_the_scan(self, monkeypatch):
        # 40 equal references tie for the queries at their point, which take
        # every reference; the other queries are certified from the proposals
        sources = []
        real_nearest = knn._nearest

        def recording_nearest(model, queries, cols):
            sources.append((cols.strides[0] == 0, len(queries)))
            return real_nearest(model, queries, cols)

        monkeypatch.setattr(knn, "_nearest", recording_nearest)
        rng = np.random.default_rng(11)
        references = np.vstack([rng.normal(size=(400, 5)), np.ones((40, 5))])
        queries = np.vstack([rng.normal(size=(100, 5)), np.ones((10, 5))])
        queries = queries[rng.permutation(110)]
        model = KnnModel(references=references, labels=np.arange(440) % 4, k=3)
        got = batch_answers(model, queries)
        assert sorted(sources[:2]) == [(False, 100), (True, 10)]
        assert_same_answers(got, scan_answers(model, queries))


def every_width_on_the_gemm_screen(monkeypatch):
    """Route every batch, whatever its width, to the GEMM screen, and fail
    if a kd-tree is built."""

    class UnbuiltTree(cKDTree):
        def __init__(self, *args, **kwargs):
            raise AssertionError("a kd-tree was built")

    monkeypatch.setattr(knn, "_GEMM_MIN_WIDTH", 0)
    monkeypatch.setattr(knn, "cKDTree", UnbuiltTree)


def recording_sources(monkeypatch):
    """A list that collects, per exact pass, whether it took every
    reference (a broadcast, zero row stride) and how many rows it took."""
    sources = []
    real_nearest = knn._nearest

    def recording_nearest(model, queries, cols):
        sources.append((cols.strides[0] == 0, len(queries)))
        return real_nearest(model, queries, cols)

    monkeypatch.setattr(knn, "_nearest", recording_nearest)
    return sources


class TestGemmScreenAgainstScan:
    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tree_screen_problems())
    def test_same_bits_as_the_scan(self, monkeypatch, problem):
        every_width_on_the_gemm_screen(monkeypatch)
        references, labels, n_classes, k, queries = problem
        model = KnnModel(references=references, labels=labels, k=k, n_classes=n_classes)
        with np.errstate(over="ignore"):
            assert_same_answers(batch_answers(model, queries), scan_answers(model, queries))

    @pytest.mark.parametrize("block_bytes", [None, 2048])
    def test_wide_batches_take_it_and_build_no_tree(self, block_bytes, monkeypatch):
        # 2048-byte tiles hold two rows of 120 estimates, or one of 300
        if block_bytes is not None:
            monkeypatch.setattr(knn, "_BLOCK_BYTES", block_bytes)
        screens = []
        real_screen = knn._gemm_screen

        def recording_screen(model, queries, width):
            screens.append(len(queries))
            return real_screen(model, queries, width)

        monkeypatch.setattr(knn, "_gemm_screen", recording_screen)
        rng = np.random.default_rng(27)
        for n_ref in (120, 300):
            references = rng.random((n_ref, knn._GEMM_MIN_WIDTH))
            queries = rng.random((25, knn._GEMM_MIN_WIDTH))
            model = KnnModel(references=references, labels=np.arange(n_ref) % 3, k=4)
            screens.clear()
            assert_same_answers(batch_answers(model, queries), scan_answers(model, queries))
            assert screens == [25, 25]
            assert "_tree" not in vars(model)

    def test_narrower_batches_take_the_tree(self, monkeypatch):
        def unreachable_screen(*args, **kwargs):
            raise AssertionError("the GEMM screen was reached")

        monkeypatch.setattr(knn, "_gemm_screen", unreachable_screen)
        rng = np.random.default_rng(28)
        references = rng.random((300, knn._GEMM_MIN_WIDTH - 1))
        queries = rng.random((25, knn._GEMM_MIN_WIDTH - 1))
        model = KnnModel(references=references, labels=np.arange(300) % 3, k=4)
        assert_same_answers(batch_answers(model, queries), scan_answers(model, queries))
        assert "_tree" in vars(model) and "_squared_norms" not in vars(model)

    def test_batch_mixing_certified_and_every_reference_rows(self, monkeypatch):
        # 40 equal references tie for the queries at their point, past the
        # k + 4 proposals, so those rows take every reference; the others
        # are certified from the proposals
        sources = recording_sources(monkeypatch)
        rng = np.random.default_rng(11)
        width = knn._GEMM_MIN_WIDTH
        references = np.vstack([rng.normal(size=(400, width)), np.ones((40, width))])
        queries = np.vstack([rng.normal(size=(100, width)), np.ones((10, width))])
        queries = queries[rng.permutation(110)]
        model = KnnModel(references=references, labels=np.arange(440) % 4, k=3)
        got = batch_answers(model, queries)
        assert sorted(sources[:2]) == [(False, 100), (True, 10)]
        assert_same_answers(got, scan_answers(model, queries))
        assert "_tree" not in vars(model)

    def test_coordinates_past_the_guard_take_the_scan(self, monkeypatch):
        # past 1e150 the squared norms can overflow, and the expanded square
        # gives inf - inf = NaN; such batches must not reach the screen
        def unreachable_screen(*args, **kwargs):
            raise AssertionError("the GEMM screen was reached")

        monkeypatch.setattr(knn, "_gemm_screen", unreachable_screen)
        width = knn._GEMM_MIN_WIDTH
        rng = np.random.default_rng(12)
        small = rng.normal(size=(30, width))
        with np.errstate(over="ignore"):
            for references, queries in (
                (np.vstack([small, np.full((1, width), 1e200)]), small[:6]),
                (small, np.vstack([small[:3], np.full((1, width), -2e150)])),
                (np.full((31, width), 1e300), np.full((2, width), -1e300)),
            ):
                model = KnnModel(references=references, labels=np.arange(len(references)) % 2, k=3)
                assert_same_answers(batch_answers(model, queries), scan_answers(model, queries))
                assert "_tree" not in vars(model)

    def test_more_than_k_plus_4_ties_at_the_kth_distance(self, monkeypatch):
        # on an integer grid every squared distance is an exact integer: two
        # references at distance 1, then 30 at exactly sqrt(2), so the third
        # nearest ties among 30 and the lower-index rule needs them all
        sources = recording_sources(monkeypatch)
        width = knn._GEMM_MIN_WIDTH
        rng = np.random.default_rng(13)
        query = np.zeros(width)
        near = np.zeros((2, width))
        near[0, 0], near[1, 1] = 1.0, -1.0
        tied = np.zeros((30, width))
        tied[np.arange(30), np.arange(2, 32)] = 1.0
        tied[np.arange(30), np.arange(3, 33)] = 1.0
        far = rng.integers(2, 4, size=(60, width)).astype(np.float64)
        references = np.vstack([far[:30], tied, near, far[30:]])
        labels = np.arange(len(references)) % 3
        queries = np.vstack([query, far[0] + 0.5])
        for k in (3, 5, 20):
            sources.clear()
            model = KnnModel(references=references, labels=labels, k=k)
            got = batch_answers(model, queries)
            want = rule_oracle(broadcast_reference(references, queries), labels, 3, k)
            assert_same_answers(got, want)
            assert (True, 1) in sources[:2]


def test_gemm_screen_memory_is_bounded_at_a_tall_wide_shape():
    # 50000 x 64 references (25.6 MB) and 200 queries: a tile sized by the
    # budget holds two rows of estimates, and its argpartition as much
    # again; the estimates of the whole batch would take 80 MB
    rng = np.random.default_rng(14)
    model = KnnModel(
        references=rng.random((50000, 64)), labels=rng.integers(0, 3, size=50000), k=5
    )
    queries = rng.random((200, 64))
    assert traced_peak(lambda: classify_batch(model, queries)) < 8 * 2**20
    assert "_tree" not in vars(model)


def test_tree_screen_memory_is_bounded_at_a_tall_narrow_shape():
    # 200000 x 8 references (12.8 MB) and 2000 queries; the tree is built in
    # the traced region, so a copy of the references would show. The tree's
    # C++ nodes are not allocated through Python and are not counted.
    rng = np.random.default_rng(8)
    model = KnnModel(
        references=rng.random((200000, 8)), labels=rng.integers(0, 3, size=200000), k=5
    )
    queries = rng.random((2000, 8))
    assert traced_peak(lambda: classify_batch(model, queries)) < 8 * 2**20


def test_tree_screen_memory_is_bounded_when_every_distance_ties():
    # every row falls back to all of 20000 equal references; one (rows,
    # n_ref) candidate array for the batch would take 32 MB
    model = KnnModel(
        references=np.ones((20000, 8)), labels=np.arange(20000) % 3, k=5
    )
    queries = np.random.default_rng(9).random((200, 8))
    assert traced_peak(lambda: classify_batch(model, queries)) < 8 * 2**20


def test_memory_is_bounded_at_a_wide_shape_with_many_queries():
    # 2000 x 256 references (4.1 MB) and 6000 queries (12.3 MB): a tile sized
    # by the candidate count alone, not the width, gathers 256 times the
    # budget, and a copy of the queries alone would pass the bound
    rng = np.random.default_rng(10)
    model = KnnModel(
        references=rng.random((2000, 256)), labels=rng.integers(0, 4, size=2000), k=5
    )
    queries = rng.random((6000, 256))
    assert traced_peak(lambda: classify_batch(model, queries)) < 8 * 2**20
