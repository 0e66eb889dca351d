"""Exact k-nearest-neighbor classification with majority vote.

Two searches give the same bits; which one runs changes only the time.

Every non-empty batch whose coordinates, and the references', are at most
`_TREE_MAX_ABS` (1e150) in magnitude goes through a kd-tree screen
(`_search_tree`), whatever the width. A `scipy.spatial.cKDTree` over the
references is built on first use and kept on the `KnnModel`, so a loop of
small batches does not rebuild it. One tree query proposes each row's
k + 4 nearest references, and a certificate, derived in `_search_tree` for
any width, says whether they hold every reference the exact answer can
contain, ties at the k-th distance included. The proposals of a certified
row are re-ranked with the scan's arithmetic; a row the certificate cannot
vouch for falls back to the scan, alone. A kd-tree pays where the data
varies along few directions (Friedman, Bentley & Finkel, 1977), which is
the premise of reducing before classifying. It beat the scan at every
benchmark shape (up to 256 features), and on low-rank data at 617; the one
loss measured was isotropic uniform data, where every direction spreads
alike: 4800 references, 1200 queries and 617 features took 9.5-10.0 s
against the scan's 8.8-8.9 s (one thread). A GEMM-based screen for such
wide, full-rank inputs is still planned. Besides its (q, k) results and
the tree query's (q, k + 4) proposals, the screen holds the tree's
O(n_ref) index and a re-rank scratch of at most `_BLOCK_BYTES`.

Coordinates past the guard, empty batches and the rows the certificate
cannot vouch for go through a full scan under Euclidean distance
(`_search_scan`), blocked so that its memory is bounded: query rows go in
blocks whose distance rows take at most `_BLOCK_BYTES` (1 MiB), each block
is filled from tiles of squared differences of at most the same size, and
each row's k nearest are kept before the next block is scanned. With up to
131072 references and 131072 features (so that one distance row, and one
query-reference difference, fit the budget), one call holds about 2 MiB of
scratch, besides its (q, k) results and the top-k candidate arrays, which
grow towards block size only when most distances of a block tie.

Both compute distances from explicit differences (not the expanded-square
identity) summed over the contiguous last axis, so they are bitwise those of
sqrt(((q[:, None] - r[None]) ** 2).sum(axis=2)) and a query equal to a
reference is at exactly zero.

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

# bytes of one block of distance rows, and of one tile of squared differences
_BLOCK_BYTES = 1 << 20
# columns per strided group of the top-k screen
_SCREEN_WIDTH = 16
# proposals per row beyond k, so that a row's k-th distance can be certified
_TREE_EXTRA = 4
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
        have no columns. There is no width rule: the tree served every
        benchmark shape faster than the scan, and lost only on isotropic
        uniform data (about 1.1x slower at 4800 x 617 references), which a
        GEMM-based screen, still planned, is meant to serve."""
        refs = self.references
        if not refs.size or max(refs.max(), -refs.min()) > _TREE_MAX_ABS:
            return None
        return cKDTree(refs, copy_data=False)


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
    kd-tree screen where it applies, else the scan."""
    if (
        len(queries)
        and model._tree is not None
        and max(queries.max(), -queries.min()) <= _TREE_MAX_ABS
    ):
        return _search_tree(model, queries)
    return _search_scan(model, queries)


def _search_tree(model: KnnModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_search_scan`'s result, from the kd-tree's k + 4 proposals per row.

    Certificate. Let E be a pair's exact distance, D the one the scan
    computes and T the tree's; the tree's search (eps = 0) is exact in its
    own arithmetic. Both round each of the d differences and
    squares (relative error u = eps / 2 each), sum d non-negative terms in
    some order (at most (d - 1)u; Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3) and take a square root, which halves that
    and adds u. So D and T lie within a factor 1 +- delta of E, with delta
    about (d + 4)u / 2 = (d + 4)eps / 4. The k references of smallest T have
    D <= T_k(1 + delta)/(1 - delta), so the row's k-th scan distance D_k is
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
    re-ranking the proposals by D gives the exact answer. Otherwise the row
    may have more candidates than the query returned, and it takes the scan.
    When k + 4 >= n_ref every reference was returned, so no row falls back,
    even when every distance ties.

    The re-rank is the scan's arithmetic: subtract, square, sum over the
    contiguous last axis, square root; then sort by (row, distance, index)
    and keep k. Rows are gathered in blocks whose (rows, k + 4, d) scratch
    fits `_BLOCK_BYTES`.
    """
    refs, k = model.references, model.k
    n_ref, dim = refs.shape
    n_q = len(queries)
    width = min(k + _TREE_EXTRA, n_ref)
    tree_dist, proposed = model._tree.query(queries, k=width)
    tree_dist = tree_dist.reshape(n_q, width)
    proposed = proposed.reshape(n_q, width)
    indices = np.empty((n_q, k), dtype=np.intp)
    distances = np.empty((n_q, k))
    fallback = np.zeros(n_q, dtype=bool)
    if width < n_ref:
        bound = tree_dist[:, k - 1] * (1 + 4 * (dim + 4) * np.finfo(np.float64).eps) + 1e-150
        fallback = tree_dist[:, -1] <= bound
    if fallback.any():
        rows = np.flatnonzero(fallback)
        indices[rows], distances[rows] = _search_scan(model, queries[rows])
    certified = np.flatnonzero(~fallback)
    block_rows = max(1, _BLOCK_BYTES // (8 * width * dim))
    for start in range(0, len(certified), block_rows):
        rows = certified[start : start + block_rows]
        cols = proposed[rows]
        diff = refs[cols]
        np.subtract(queries[rows][:, None, :], diff, out=diff)
        np.square(diff, out=diff)
        dist = np.sqrt(diff.sum(axis=2))
        order = np.lexsort((cols, dist))[:, :k]
        indices[rows] = np.take_along_axis(cols, order, axis=1)
        distances[rows] = np.take_along_axis(dist, order, axis=1)
    return indices, distances


def _search_scan(model: KnnModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances (both (q, k)) of every query's k nearest
    references, from a scan of every distance.

    Query rows go in blocks whose distance rows fit `_BLOCK_BYTES`. Each
    block is filled from (query rows x reference columns x features) tiles
    of the same budget: subtract, square in place, and sum over the last
    axis, the arithmetic of sqrt(((q[:, None] - r[None]) ** 2).sum(axis=2)),
    so the distances are bitwise equal to it. `_smallest` then takes each
    row's k nearest, as a stable argsort would.
    """
    refs, k = model.references, model.k
    n_ref, dim = refs.shape
    n_q = queries.shape[0]
    indices = np.empty((n_q, k), dtype=np.intp)
    distances = np.empty((n_q, k))
    rows = max(1, min(n_q, _BLOCK_BYTES // (8 * n_ref)))
    pair_bytes = 8 * max(1, dim)
    tile_cols = max(1, min(n_ref, _BLOCK_BYTES // pair_bytes))
    tile_rows = max(1, min(rows, _BLOCK_BYTES // (pair_bytes * tile_cols)))
    tile = np.empty(tile_rows * tile_cols * dim)
    block = np.empty((rows, n_ref))
    for start in range(0, n_q, rows):
        dist = block[: min(rows, n_q - start)]
        for r0 in range(0, len(dist), tile_rows):
            for c0 in range(0, n_ref, tile_cols):
                out = dist[r0 : r0 + tile_rows, c0 : c0 + tile_cols]
                (m, n), first = out.shape, start + r0
                diff = tile[: m * n * dim].reshape(m, n, dim)
                np.subtract(
                    queries[first : first + m, None, :], refs[None, c0 : c0 + n, :], out=diff
                )
                np.square(diff, out=diff)
                diff.sum(axis=2, out=out)
        np.sqrt(dist, out=dist)
        rows_found = slice(start, start + len(dist))
        indices[rows_found], distances[rows_found] = _smallest(dist, k)
    return indices, distances


def _smallest(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and values of the k smallest entries of every row, ascending,
    equal values lower column first: a stable argsort's first k.

    A bound screens the row first. The columns are split into at least k
    strided groups; the k-th smallest group minimum is at least the row's
    k-th smallest value, so every entry at or below it is a candidate, and
    the candidates of all rows are sorted at once by (row, value, column).
    A stable argsort of every block row made a scan of 3200 references at 10
    features about 6x slower.
    """
    n_rows, n_cols = dist.shape
    width = max(1, min(_SCREEN_WIDTH, n_cols // k))
    groups = n_cols // width
    group_min = dist[:, : width * groups].reshape(n_rows, width, groups).min(axis=1)
    bound = np.partition(group_min, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.divmod(np.flatnonzero(dist <= bound), n_cols)
    values = dist[rows, cols]
    order = np.lexsort((values, rows))  # stable, and columns come ascending
    counts = np.bincount(rows, minlength=n_rows)
    first = np.cumsum(counts) - counts
    picked = order[first[:, None] + np.arange(k)]
    return cols[picked], values[picked]


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
