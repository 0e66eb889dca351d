"""Exact k-nearest-neighbor classification with majority vote.

One exact pass, `_nearest`, computes every distance and every top-k
selection. It takes, for each query row, a set of candidate references, and
`_search` chooses which:

- the kd-tree's proposals. Every non-empty batch whose coordinates, and the
  references', are at most `_TREE_MAX_ABS` (1e150) in magnitude is put to a
  `scipy.spatial.cKDTree` over the references, whatever the width; the tree
  is built on first use and kept on the `KnnModel`, so a loop of small
  batches does not rebuild it. One tree query proposes each row's k + 4
  nearest references, and a certificate, derived in `_search` for any
  width, says whether they hold every reference the exact answer can
  contain, ties at the k-th distance included.
- every reference, for a row the certificate cannot vouch for, and for
  every row of a batch past the magnitude guard or of an empty one.

The candidates only propose: the exact pass ranks them, so which source a
row takes changes only the time, never the bits. A kd-tree pays where the
data varies along few directions (Friedman, Bentley & Finkel, 1977), which
is the premise of reducing before classifying. Its leaves hold up to 64
references (`_TREE_LEAF`, against scipy's default of 16): where a node
descent cannot prune, as at tens to hundreds of features, scanning a leaf
contiguously costs less. Tree build and query took x0.67-0.81 of leaf 16's
time on the benchmark's 64- to 256-wide folds and x0.70-0.98 at 6-43
features. At 1 to 3 features descents prune well and leaf 64 loses a
little: x1.01-1.23 on 1600 to 20000 references (at most 1.2 ms a tree; a
coil2000-shaped fold's one-wide LDA codes, 0.53 against 0.66 ms), though
x0.85 at 200000. Leaf 128 read x1.19-1.52 there and lost at 6-43 features
too, so the leaf is 64 and not larger. The tree beat a full scan at every
shape measured, isotropic uniform data included, where every direction
spreads alike and pruning fails most: 4800 references, 1200 queries and
617 features took 1.6-1.8 s, against 3.4-3.8 s at leaf 16 and 6.2-6.7 s
for a full scan (one thread). A GEMM-based screen for wide inputs is still
planned.

The pass computes distances from explicit differences (not the
expanded-square identity): subtract, square, sum over the contiguous last
axis and take the square root, so they are bitwise those of
sqrt(((q[:, None] - r[None]) ** 2).sum(axis=2)) and a query equal to a
reference is at exactly zero. Its memory is bounded: the candidates of a
tile of rows, gathered as (rows, candidates, features) differences, take at
most `_BLOCK_BYTES` (1 MiB), split by columns only where one row's would
not fit. Besides its (q, k) results, a call holds the tree's O(n_ref)
index, the tree query's (q, k + 4) proposals and that scratch; a batch
that mixes both candidate sources also copies the query rows of each.

There are two entry points, both over a (q, width) matrix of query rows and
both answering in arrays: `neighbors` returns the (q, k) indices and
distances of one search, and `classify_batch` adds one vectorized vote over
them, returning the (q,) labels and the (q, n_classes) vote fractions. Every
tie has a deterministic rule: equal distances prefer the lower reference
index, and vote ties go to the class whose closest neighbor among the k is
nearest, then to the lower class index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["KnnModel", "neighbors", "classify_batch"]

# bytes of one tile of gathered differences in the exact pass
_BLOCK_BYTES = 1 << 20
# proposals per row beyond k, so that a row's k-th distance can be certified
_TREE_EXTRA = 4
# references per kd-tree leaf (see the module docstring)
_TREE_LEAF = 64
# largest coordinate magnitude the tree screen takes: d squared differences
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
    def _tree(self) -> cKDTree | None:
        """kd-tree over the references, built on first use and kept; None
        where a coordinate is past the magnitude guard, or the references
        have no columns. It serves every width, since it beat a full scan
        on every shape measured (isotropic uniform data at 4800 x 617
        references: 1.6-1.8 s against 6.2-6.7 s). Its leaves hold up to
        `_TREE_LEAF` references; the size never changes the bits."""
        refs = self.references
        if not refs.size or max(refs.max(), -refs.min()) > _TREE_MAX_ABS:
            return None
        return cKDTree(refs, leafsize=_TREE_LEAF, copy_data=False)


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
    exact pass over the kd-tree's k + 4 proposals for the rows the
    certificate vouches for, and over every reference for the others.

    Certificate. Let E be a pair's exact distance, D the one the exact pass
    computes and T the tree's; the tree's search (eps = 0) is exact in its
    own arithmetic. Both round each of the d differences and
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

    The query returns the k + 4 references of smallest T. If the last of
    them lies beyond the bound, every reference within it was returned, and
    ranking the proposals by D gives the exact answer. Otherwise the row
    may have more candidates than the query returned, and it takes every
    reference. When k + 4 >= n_ref every reference was returned, so no row
    needs more, even when every distance ties.
    """
    refs, k = model.references, model.k
    n_ref, dim = refs.shape
    n_q = len(queries)
    fallback = np.ones(n_q, dtype=bool)
    if n_q and model._tree is not None and max(queries.max(), -queries.min()) <= _TREE_MAX_ABS:
        width = min(k + _TREE_EXTRA, n_ref)
        tree_dist, proposed = model._tree.query(queries, k=width)
        tree_dist = tree_dist.reshape(n_q, width)
        proposed = proposed.reshape(n_q, width)
        bound = tree_dist[:, k - 1] * (1 + 4 * (dim + 4) * np.finfo(np.float64).eps) + 1e-150
        fallback = (tree_dist[:, -1] <= bound) & (width < n_ref)

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


def _vote(
    model: KnnModel, indices: np.ndarray, distances: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Labels (q,) and vote fractions (q, n_classes) of a majority vote per
    row; a vote tie goes to the tied class whose nearest member among the k
    is nearest, then to the lower class index."""
    n_q, k = indices.shape
    n_classes = model.n_classes
    rows = np.arange(n_q)
    nn_labels = model.labels[indices]
    offsets = (rows * n_classes)[:, None]
    counts = np.bincount((nn_labels + offsets).ravel(), minlength=n_q * n_classes)
    counts = counts.reshape(n_q, n_classes)
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
    return winners, counts / k


def neighbors(model: KnnModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances, both (q, k), of every query row's k nearest
    references, distance-ascending; equal distances come lower index first."""
    return _search(model, _check_queries(model, queries))


def classify_batch(model: KnnModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Labels (q,) and vote fractions (q, n_classes): every query row's
    majority vote over its k nearest neighbors."""
    return _vote(model, *neighbors(model, queries))
