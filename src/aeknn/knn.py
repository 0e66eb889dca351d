"""Exact k-nearest-neighbor classification with majority vote.

One exact pass, `_nearest`, computes every distance and every top-k
selection. It takes, for each query row, a set of candidate references, and
`_search` chooses which:

- a screen's proposals, for a non-empty batch whose coordinates, and the
  references', are at most `_TREE_MAX_ABS` (1e150) in magnitude. A batch
  narrower than `_GEMM_MIN_WIDTH` (48) features is put to a
  `scipy.spatial.cKDTree` over the references; one at least that wide to
  the GEMM screen, which estimates every squared distance by the expanded
  square |q|^2 + |r|^2 - 2 q.r, one matrix product per tile of query rows
  (Johnson, Douze & Jegou, arXiv:1702.08734), and partitions out the
  smallest. The tree and the references' squared norms are computed on
  first use and kept on the `KnnModel`, so a loop of small batches does
  not redo them; a model whose batches are all wide never builds the
  tree. Either screen proposes each row's k + 4 nearest references, and a
  certificate, derived in `_search` for any width, says whether they hold
  every reference the exact answer can contain, ties at the k-th distance
  included.
- every reference, for a row the certificate cannot vouch for, and for
  every row of a batch past the magnitude guard or of an empty one.

The candidates only propose: the exact pass ranks them, so which source a
row takes changes only the time, never the bits, whatever order a BLAS sums
the product in.

A kd-tree pays where the data varies along few directions (Friedman,
Bentley & Finkel, 1977), which is the premise of reducing before
classifying; a distance GEMM pays where it varies along many, since it
costs the same at any rank. Per search on one thread, fresh model each time
(the tree's build included), medians of 3 to 9 alternated calls, k = 5, the
same bits from both, GEMM time as a fraction of the tree's:

    references x features   data                      GEMM / tree
    1274 x 256              semeion-shaped            x0.18 (8 ms)
    1600 x 85               coil2000-shaped           x0.32
    1600 x 43               its PCA codes             x0.48
    1848 x 19               image-shaped              x0.65
    3200 x 10, x 20         rank 3 (criterion 7)      x2.7, x1.8
    1600, 6400 x 32         rank 3                    x1.10, x1.77
    1600, 6400 x 32         rank 8                    x0.55, x0.41
    1600, 3200, 6400 x 48   rank 3                    x0.68, x0.95, x1.03
    1600, 3200, 6400 x 48   rank 8 or 16              x0.22-0.37
    1600-6400 x 64          rank 3 to 64              x0.19-0.81
    20000 x 48, x 64        rank 3                    x3.06, x2.34
    20000 x 48-128          rank 8 or 16              x0.21-0.28
    16000 x 200             on a line (rank 1)        x10 (1.5 s)
    4800 x 617              isotropic uniform         x0.12 (0.23 s)

(rank r: uniform latent points mapped linearly into the features, plus
1 % noise; the isotropic case has 1200 queries, and a full scan took
6.6-7.2 s there, the tree 1.9-2.3 s). So the crossover is 48 features, the
narrowest width where the GEMM lost at most x1.03 on up to 6400
references. It keeps one loss: tall reference sets of very low rank, where
a tile of 1 MiB holds only a few query rows, the product reads every
reference once per tile and the tree prunes almost everything. Below 48
the tree keeps criterion 7's 10- and 20-wide folds, and also the
image-shaped inputs and PCA codes, which the GEMM would win (x0.48-0.65)
but rank-3 data of the same widths loses.

The tree's leaves hold up to 64 references (`_TREE_LEAF`, against scipy's
default of 16): where a node descent cannot prune, as at tens of features,
scanning a leaf contiguously costs less. Tree build and query took
x0.67-0.81 of leaf 16's time on 64- to 256-wide folds and x0.70-0.98 at
6-43 features. At 1 to 3 features descents prune well and leaf 64 loses a
little: x1.01-1.23 on 1600 to 20000 references (at most 1.2 ms a tree; a
coil2000-shaped fold's one-wide LDA codes, 0.53 against 0.66 ms), though
x0.85 at 200000. Leaf 128 read x1.19-1.52 there and lost at 6-43 features
too, so the leaf is 64 and not larger.

The pass computes distances from explicit differences (not the
expanded-square identity): subtract, square, sum over the contiguous last
axis and take the square root, so they are bitwise those of
sqrt(((q[:, None] - r[None]) ** 2).sum(axis=2)) and a query equal to a
reference is at exactly zero. Its memory is bounded: the candidates of a
tile of rows, gathered as (rows, candidates, features) differences, take at
most `_BLOCK_BYTES` (1 MiB), split by columns only where one row's would
not fit. Besides its (q, k) results, a call holds the screen's O(n_ref)
state (the tree's index, or the references' squared norms), its (q, k + 4)
proposals and that scratch; the GEMM screen adds one tile of at most
`_BLOCK_BYTES` of estimates, or one row where a row's are larger, and its
`argpartition`. A batch that mixes both candidate sources also copies the
query rows of each.

There are two entry points, both over a (q, width) matrix of query rows and
both answering in arrays: `neighbors` returns the (q, k) indices and
distances of one search, and `classify_batch` adds one vectorized vote over
them, returning a `Vote`: the (q,) labels and the (q, n_classes) vote
fractions, with the integer counts behind them as `.counts`. Every
tie has a deterministic rule: equal distances prefer the lower reference
index, and vote ties go to the class whose closest neighbor among the k is
nearest, then to the lower class index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["KnnModel", "Vote", "neighbors", "classify_batch"]

# bytes of one tile of gathered differences in the exact pass
_BLOCK_BYTES = 1 << 20
# proposals per row beyond k, so that a row's k-th distance can be certified
_TREE_EXTRA = 4
# references per kd-tree leaf (see the module docstring)
_TREE_LEAF = 64
# batches at least this wide take the GEMM screen, narrower ones the
# kd-tree's (see the module docstring)
_GEMM_MIN_WIDTH = 48
# largest coordinate magnitude either screen takes: d squared differences
# of at most 2e150 sum to d * 4e300, finite below about 4e7 features
_TREE_MAX_ABS = 1e150


@dataclass(frozen=True, eq=False)
class KnnModel:
    references: np.ndarray
    labels: np.ndarray
    k: int
    n_classes: int | None = None

    def __post_init__(self):
        refs = np.ascontiguousarray(self.references, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if refs.ndim != 2:
            raise ValueError("references must be a matrix")
        if labels.shape != (refs.shape[0],):
            raise ValueError("one label per reference row required")
        if not np.all(np.isfinite(refs)):
            raise ValueError("references contain non-finite values")
        if not 1 <= self.k <= refs.shape[0]:
            raise ValueError(f"k={self.k} must be in [1, {refs.shape[0]}]")
        n_classes = int(labels.max()) + 1 if self.n_classes is None else self.n_classes
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError(f"labels must lie in [0, {n_classes})")
        refs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "references", refs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n_classes", int(n_classes))

    @property
    def dim(self) -> int:
        return self.references.shape[1]

    @cached_property
    def _screenable(self) -> bool:
        """Whether a screen may propose candidates: the references have
        columns and no coordinate past the magnitude guard. Checked without
        building the kd-tree, which a model whose batches take the GEMM
        screen never needs."""
        refs = self.references
        return bool(refs.size) and max(refs.max(), -refs.min()) <= _TREE_MAX_ABS

    @cached_property
    def _tree(self) -> cKDTree:
        """kd-tree over the references, built on the first batch narrower
        than `_GEMM_MIN_WIDTH` and kept. Its leaves hold up to `_TREE_LEAF`
        references; the size never changes the bits."""
        return cKDTree(self.references, leafsize=_TREE_LEAF, copy_data=False)

    @cached_property
    def _squared_norms(self) -> np.ndarray:
        """|r|^2 of every reference, computed on the first batch the GEMM
        screen takes and kept."""
        return np.einsum("ij,ij->i", self.references, self.references)


def _check_queries(model: KnnModel, queries) -> np.ndarray:
    """Queries as a finite float64 matrix of the model's width."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != model.dim:
        raise ValueError(f"queries have shape {queries.shape}, expected (*, {model.dim})")
    if not np.all(np.isfinite(queries)):
        raise ValueError("queries contain non-finite values")
    return queries


def _search(model: KnnModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances (both (q, k)) of every query's k nearest
    references, equal to a stable argsort of the full distance rows: the
    exact pass over a screen's k + 4 proposals for the rows its certificate
    vouches for, and over every reference for the others. A batch at least
    `_GEMM_MIN_WIDTH` wide takes the GEMM screen, a narrower one the
    kd-tree's; both need every coordinate within the magnitude guard.

    Tree certificate. Let E be a pair's exact distance, D the one the exact
    pass computes and T the tree's; the tree's search (eps = 0) is exact in
    its own arithmetic. Both round each of the d differences and
    squares (relative error u = eps / 2 each), sum d non-negative terms in
    some order (at most (d - 1)u; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3) and take a square root, which halves that
    and adds u. So D and T lie within a factor 1 +- delta of E, with delta
    about (d + 4)u / 2 = (d + 4)eps / 4. The k references of smallest T have
    D <= T_k(1 + delta)/(1 - delta), so the row's k-th exact distance D_k is
    at most that, and every reference with D <= D_k, ties included, has
    T <= T_k((1 + delta)/(1 - delta))^2, about T_k(1 + (d + 4)eps).
    The bound T_k(1 + 4(d + 4)eps) keeps a factor 4 in hand for
    higher-order terms; it also covers a square root that maps two different
    sums to one double. Squares below the smallest normal double lose up to
    2^-1075 absolutely instead: at most d * 2^-1075 on a squared distance,
    so sqrt(d) * 1.6e-162 on a distance, which the added 1e-150 covers for
    d below about 4e23, that is at any width that fits in memory. The
    magnitude guard keeps every sum finite: d squared differences of at most
    2e150 sum to d * 4e300, below the largest double for d below about 4e7.
    At that width (d + 4)eps is still below 1e-8, so the first-order bound
    holds with room to spare.

    GEMM certificate. For a query q let M = |q|^2 + max_j |r_j|^2. The
    screen ranks H_j = |r_j|^2 - 2 q.r_j, which is E_j^2 - |q|^2: the
    expanded square less a term every reference of the row shares. It
    computes H from one matrix product of -2q (scaling by -2 is exact) and
    one broadcast addition of the cached |r_j|^2. Each dot product errs by
    at most gamma_d = du / (1 - du) times its sum of absolute products, in
    whatever order a BLAS sums (Higham, ch. 3), and that sum is at most
    2|q||r_j| <= M for -2q.r_j (Cauchy-Schwarz) and |r_j|^2 <= M for the
    norm; the addition rounds a value of at most 2M by u. So H_j is
    within sigma, about (2d + 2)u M = (d + 1)eps M, of E_j^2 - |q|^2,
    plus at most 2d * 2^-1075 where products underflow. The exact pass's
    sum s_j, whose root is D_j, is within a factor 1 +- (d + 2)u of E_j^2,
    less d * 2^-1075 absolutely, and a correctly rounded root is monotone,
    so D_i <= D_j implies s_i <= s_j(1 + 4u). Let H_k be the row's k-th
    smallest H. Its k references have E^2 <= H_k + |q|^2 + sigma, so any
    reference with D <= D_k, ties included, has
    E^2 <= (H_k + |q|^2 + sigma)(1 + (d + 4)eps) + 2d * 2^-1075 to first
    order, and H <= H_k + 2 sigma + (d + 4)eps (H_k + |q|^2 + sigma)
    + 6d * 2^-1075. As H_k + |q|^2 + sigma <= 2M + 2 sigma, that is at
    most H_k + (4d + 10)eps M + 6d * 2^-1075. The slack
    S = 4(d + 4)eps M + 1e-300 gives 2S = 8(d + 4)eps M + 2e-300, which
    keeps a factor 2 in hand for higher-order terms and for the rounding of
    M, S and H_k + 2S themselves, and covers the underflow for d below about
    1e23. The guard keeps every term finite: |r_j|^2 and 2|q.r_j| are at
    most d * 1e300 and 2d * 1e300, below the largest double for d below
    about 6e7, while coordinates past it could overflow them and leave
    inf - inf = NaN.

    Either screen proposes the k + 4 references of smallest T or H. If the
    last of them lies beyond the bound (T_k(1 + 4(d + 4)eps) + 1e-150 or
    H_k + 2S), every reference within it was proposed, and ranking the
    proposals by D gives the exact answer. Otherwise the row may have more
    candidates than were proposed, and it takes every reference. When
    k + 4 >= n_ref every reference is a proposal, so no row needs more,
    even when every distance ties.
    """
    refs, k = model.references, model.k
    n_ref, dim = refs.shape
    n_q = len(queries)
    width = min(k + _TREE_EXTRA, n_ref)
    fallback = np.ones(n_q, dtype=bool)
    if n_q and model._screenable and max(queries.max(), -queries.min()) <= _TREE_MAX_ABS:
        screen = _gemm_screen if dim >= _GEMM_MIN_WIDTH else _tree_screen
        proposed, fallback = screen(model, queries, width)
        fallback &= width < n_ref

    def every_reference(rows: int) -> np.ndarray:
        return np.broadcast_to(np.arange(n_ref), (rows, n_ref))

    if fallback.all():
        return _nearest(model, queries, every_reference(n_q))
    if not fallback.any():
        return _nearest(model, queries, proposed)
    indices = np.empty((n_q, k), dtype=np.intp)
    distances = np.empty((n_q, k))
    certified = ~fallback
    for rows, cols in (
        (certified, proposed[certified]),
        (fallback, every_reference(np.count_nonzero(fallback))),
    ):
        indices[rows], distances[rows] = _nearest(model, queries[rows], cols)
    return indices, distances


def _tree_screen(
    model: KnnModel, queries: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The kd-tree's `width` proposals per query row, (q, width), and
    whether each row fails the tree certificate (see `_search`)."""
    n_q, dim = queries.shape
    tree_dist, proposed = model._tree.query(queries, k=width)
    tree_dist = tree_dist.reshape(n_q, width)
    proposed = proposed.reshape(n_q, width)
    bound = tree_dist[:, model.k - 1] * (1 + 4 * (dim + 4) * np.finfo(np.float64).eps) + 1e-150
    return proposed, tree_dist[:, -1] <= bound


def _gemm_screen(
    model: KnnModel, queries: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """The GEMM screen's `width` proposals per query row, (q, width), and
    whether each row fails the GEMM certificate (see `_search`). Rows go in
    tiles whose (rows, n_ref) estimates H fit `_BLOCK_BYTES`, one row at
    least; a tile's product, its `argpartition` and the proposals are the
    only scratch."""
    refs, k = model.references, model.k
    n_q, dim = queries.shape
    n_ref = len(refs)
    proposed = np.empty((n_q, width), dtype=np.intp)
    fallback = np.empty(n_q, dtype=bool)
    ref_sq = model._squared_norms
    ref_sq_max = ref_sq.max()
    rows = max(1, _BLOCK_BYTES // (8 * n_ref))
    tile = np.empty((min(rows, n_q), n_ref))
    for start in range(0, n_q, rows):
        block = slice(start, start + rows)
        q = queries[block]
        h = tile[: len(q)]
        np.matmul(-2.0 * q, refs.T, out=h)
        h += ref_sq
        part = np.argpartition(h, width - 1, axis=1)[:, :width]
        h_part = np.take_along_axis(h, part, axis=1)
        h_k = np.partition(h_part, k - 1, axis=1)[:, k - 1]
        q_sq = np.einsum("ij,ij->i", q, q)
        slack = 4 * (dim + 4) * np.finfo(np.float64).eps * (q_sq + ref_sq_max) + 1e-300
        proposed[block] = part
        fallback[block] = h_part[:, -1] <= h_k + 2 * slack
    return proposed, fallback


def _nearest(
    model: KnnModel, queries: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances (both (q, k)) of each query row's k nearest
    among its (q, c) candidate references `cols`, c >= k, distance-ascending
    and lower index first on equal distances: a stable argsort's first k.

    Rows go in tiles whose gathered (rows, c, features) differences fit
    `_BLOCK_BYTES`; where one row's do not, its candidates go in column
    tiles of that budget. Each tile is subtracted, squared in place and
    summed over its contiguous last axis, the arithmetic of
    sqrt(((q[:, None] - r[None]) ** 2).sum(axis=2)), so the distances are
    bitwise equal to it. `cols` may be a broadcast view: it is only sliced.
    """
    refs, k = model.references, model.k
    n_q, n_cols = cols.shape
    pairs = max(1, _BLOCK_BYTES // (8 * max(1, refs.shape[1])))
    rows = max(1, pairs // n_cols)
    indices = np.empty((n_q, k), dtype=np.intp)
    distances = np.empty((n_q, k))
    for start in range(0, n_q, rows):
        block = slice(start, start + rows)
        cand = cols[block]
        dist = np.empty(cand.shape)
        for c0 in range(0, n_cols, pairs):
            diff = refs[cand[:, c0 : c0 + pairs]]
            np.subtract(queries[block, None, :], diff, out=diff)
            np.square(diff, out=diff)
            diff.sum(axis=2, out=dist[:, c0 : c0 + pairs])
        np.sqrt(dist, out=dist)
        order = np.lexsort((cand, dist))[:, :k]
        indices[block] = np.take_along_axis(cand, order, axis=1)
        distances[block] = np.take_along_axis(dist, order, axis=1)
    return indices, distances


class Vote(tuple):
    """A batch's vote, which unpacks as (labels, fractions): the (q,)
    labels and the (q, n_classes) vote fractions. `counts` keeps the
    (q, n_classes) votes the fractions divide by `k`, in the narrowest
    unsigned dtype that holds k."""

    def __new__(cls, labels: np.ndarray, counts: np.ndarray, k: int):
        vote = super().__new__(cls, (labels, counts / k))
        vote.counts, vote.k = counts, k
        return vote

    def __getnewargs__(self):
        return self[0], self.counts, self.k


def _vote(model: KnnModel, indices: np.ndarray, distances: np.ndarray) -> Vote:
    """A majority vote per row; a vote tie goes to the tied class whose
    nearest member among the k is nearest, then to the lower class index."""
    n_q, k = indices.shape
    n_classes = model.n_classes
    rows = np.arange(n_q)
    nn_labels = model.labels[indices]
    offsets = (rows * n_classes)[:, None]
    counts = np.bincount((nn_labels + offsets).ravel(), minlength=n_q * n_classes)
    counts = counts.reshape(n_q, n_classes).astype(np.min_scalar_type(k))
    contenders = counts == counts.max(axis=1, keepdims=True)
    # neighbors are distance-sorted, so writing positions last to first leaves
    # each class's nearest member
    nearest = np.full((n_q, n_classes), np.inf)
    for pos in range(k - 1, -1, -1):
        nearest[rows, nn_labels[:, pos]] = distances[:, pos]
    nearest[~contenders] = np.inf
    # the first contender at the smallest distance; an all-inf row (overflowed
    # distances) still picks among the contenders only
    winners = np.argmax(contenders & (nearest == nearest.min(axis=1, keepdims=True)), axis=1)
    return Vote(winners, counts, k)


def neighbors(model: KnnModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances, both (q, k), of every query row's k nearest
    references, distance-ascending; equal distances come lower index first."""
    return _search(model, _check_queries(model, queries))


def classify_batch(model: KnnModel, queries) -> Vote:
    """Labels (q,) and vote fractions (q, n_classes), with the vote counts
    as `.counts`: every query row's majority vote over its k nearest
    neighbors."""
    return _vote(model, *neighbors(model, queries))
