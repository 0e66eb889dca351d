"""Fitted dimensionality reducers and their one serializer.

Four kinds: the trained autoencoder stack, principal-component projection,
linear discriminant projection and the identity (the plain-kNN baseline).
Each is a frozen dataclass that exists only once fitted: `fit_pca`,
`fit_lda` and `pipeline.fit_reducer` build them, and every later step reads
only `transform` and `effective_dim`.

PCA and LDA are solved with LAPACK's symmetric eigensolver (`np.linalg.eigh`).
Seeded fits repeat bitwise on one machine and BLAS build; across machines or
BLAS builds the last bits may differ. A fixed sign convention
(largest-magnitude component entry positive) removes the remaining
eigenvector ambiguity.

LDA can produce at most C - 1 discriminant directions for C classes, so its
effective dimension may be lower than requested; `effective_dim` reports
what a fitted reducer actually emits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .autoencoder import ActivationKind, AutoencoderStack, EncoderLayer, encode

__all__ = [
    "jacobi_eigh",
    "fit_pca",
    "fit_lda",
    "Reducer",
    "IdentityReducer",
    "PcaReducer",
    "LdaReducer",
    "AeReducer",
    "save_reducer",
    "load_reducer",
]


def jacobi_eigh(matrix: np.ndarray):
    """Eigendecomposition of a symmetric matrix by LAPACK (`np.linalg.eigh`).

    Returns (eigenvalues, eigenvectors) with eigenvalues descending (a stable
    sort, so equal eigenvalues keep LAPACK's order) and eigenvectors as
    orthonormal columns. The input must be finite and symmetric to within an
    absolute 1e-10 * max(1, largest |entry|); it is symmetrized as
    (a + a^T) / 2 before the call.

    The name predates LAPACK: `bench/spans.py` traces this function by name,
    so the rename waits until stage timings are recorded inside the program
    (ROADMAP item 2).
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite (it holds NaN or infinity)")
    atol = 1e-10 * float(np.abs(a).max(initial=1.0))
    if not np.allclose(a, a.T, rtol=0.0, atol=atol):
        raise ValueError("matrix must be symmetric")
    eigenvalues, vectors = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], vectors[:, order]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of every column positive."""
    components = components.copy()
    for j in range(components.shape[1]):
        col = components[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            components[:, j] = -col
    return components


def _features(matrix, width: int) -> np.ndarray:
    """`matrix` as float64 rows of `width` features: every reducer's
    `transform` takes a (rows, width) matrix only, as `encode` does."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != width:
        raise ValueError(f"input has shape {matrix.shape}, expected (*, {width})")
    return matrix


@dataclass(frozen=True)
class IdentityReducer:
    """The plain-kNN baseline: rows pass through unchanged."""

    dim: int
    kind: ClassVar[str] = "identity"

    @property
    def effective_dim(self) -> int:
        return self.dim

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return _features(matrix, self.dim)


@dataclass(frozen=True, eq=False)
class PcaReducer:
    """Mean and top eigenvectors of the training covariance, plus the full
    eigenvalue spectrum (descending)."""

    mean: np.ndarray
    components: np.ndarray  # (n_features, target_dim), orthonormal columns
    eigenvalues: np.ndarray
    kind: ClassVar[str] = "pca"

    @property
    def effective_dim(self) -> int:
        return self.components.shape[1]

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return (_features(matrix, self.mean.shape[0]) - self.mean) @ self.components


def fit_pca(train: np.ndarray, target_dim: int) -> PcaReducer:
    """Covariance eigendecomposition keeping the top `target_dim` components."""
    train = np.asarray(train, dtype=np.float64)
    if train.ndim != 2 or train.shape[0] < 2:
        raise ValueError("need a matrix with at least two rows")
    n, d = train.shape
    if not 1 <= target_dim <= d:
        raise ValueError(f"target_dim={target_dim} must be in [1, {d}]")
    mean = train.mean(axis=0)
    centered = train - mean
    cov = centered.T @ centered / (n - 1)
    eigenvalues, vectors = jacobi_eigh(cov)
    return PcaReducer(
        mean=mean,
        components=_fix_signs(vectors[:, :target_dim]),
        eigenvalues=eigenvalues,
    )


@dataclass(frozen=True, eq=False)
class LdaReducer:
    """Discriminant directions from the generalized eigenproblem of
    between-class versus (regularized) within-class scatter."""

    mean: np.ndarray
    projection: np.ndarray  # (n_features, effective_dim)
    eigenvalues: np.ndarray
    kind: ClassVar[str] = "lda"

    @property
    def effective_dim(self) -> int:
        return self.projection.shape[1]

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return (_features(matrix, self.mean.shape[0]) - self.mean) @ self.projection


def fit_lda(train: np.ndarray, labels, target_dim: int) -> LdaReducer:
    """Fit discriminant directions.

    The within-class scatter is regularized by eps * I with
    eps = 1e-6 * trace(S_w) / d before the generalized problem is reduced
    to a symmetric one via Cholesky. The effective dimension is
    min(target_dim, C - 1).
    """
    train = np.asarray(train, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if train.ndim != 2 or train.shape[0] != labels.shape[0]:
        raise ValueError("train rows and labels must correspond")
    if target_dim < 1:
        raise ValueError("target_dim must be >= 1")
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2:
        raise ValueError("LDA needs at least two classes present")
    if counts.min() < 2:
        raise ValueError("every class needs at least two members")
    n, d = train.shape

    mean = train.mean(axis=0)
    class_means = np.vstack([train[labels == c].mean(axis=0) for c in classes])
    s_w = np.zeros((d, d))
    for i, c in enumerate(classes):
        dev = train[labels == c] - class_means[i]
        s_w += dev.T @ dev
    gap = class_means - mean
    s_b = (gap * counts[:, None]).T @ gap

    eps = 1e-6 * np.trace(s_w) / d
    if eps <= 0.0:
        eps = 1e-12
    s_w = s_w + eps * np.eye(d)
    try:
        chol = np.linalg.cholesky(s_w)
    except np.linalg.LinAlgError as exc:
        raise ValueError("within-class scatter is degenerate even after regularization") from exc

    # reduce S_b v = lambda S_w v to a symmetric standard problem
    half = np.linalg.solve(chol, s_b)
    reduced = np.linalg.solve(chol, half.T).T
    eigenvalues, vectors = jacobi_eigh((reduced + reduced.T) / 2.0)
    effective = min(target_dim, classes.size - 1, d)
    directions = np.linalg.solve(chol.T, vectors[:, :effective])
    norms = np.linalg.norm(directions, axis=0)
    directions = _fix_signs(directions / norms)
    return LdaReducer(mean=mean, projection=directions, eigenvalues=eigenvalues[:effective])


@dataclass(frozen=True, eq=False)
class AeReducer:
    """A trained autoencoder stack. The layer layout comes from `ppl`
    (fractions of the original feature count)."""

    ppl: tuple[float, ...]
    stack: AutoencoderStack
    kind: ClassVar[str] = "ae"

    @property
    def effective_dim(self) -> int:
        return self.stack.output_dim

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return encode(self.stack, matrix)


Reducer = IdentityReducer | PcaReducer | LdaReducer | AeReducer


_REDUCER_FORMAT_VERSION = 1
_KINDS = {cls.kind: cls for cls in (IdentityReducer, PcaReducer, LdaReducer, AeReducer)}


def save_reducer(reducer: Reducer, path) -> None:
    """Serialize any fitted reducer, tagged by kind; weights round-trip
    bitwise. Identity, PCA and LDA are written field by field; an
    autoencoder as its ppl, input width and one w_i/b_i/act_i triple per
    layer."""
    payload: dict = {
        "format_version": np.int64(_REDUCER_FORMAT_VERSION),
        "kind": np.str_(reducer.kind),
    }
    if isinstance(reducer, AeReducer):
        payload["ppl"] = np.asarray(reducer.ppl)
        payload["input_dim"] = np.int64(reducer.stack.input_dim)
        payload["n_layers"] = np.int64(len(reducer.stack.layers))
        for i, layer in enumerate(reducer.stack.layers):
            payload[f"w_{i}"] = layer.w
            payload[f"b_{i}"] = layer.b
            payload[f"act_{i}"] = np.str_(layer.activation.value)
    else:
        payload.update((f.name, getattr(reducer, f.name)) for f in fields(reducer))
    np.savez(path, **payload)


def load_reducer(path) -> Reducer:
    """Rebuild a reducer written by `save_reducer`. Keys the reducer does not
    read are ignored, so older files that also carry LDA class means load."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _REDUCER_FORMAT_VERSION:
            raise ValueError(f"unsupported reducer format version {version}")
        kind = str(data["kind"])
        cls = _KINDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown reducer kind {kind!r}")
        if cls is AeReducer:
            layers = tuple(
                EncoderLayer(
                    w=data[f"w_{i}"],
                    b=data[f"b_{i}"],
                    activation=ActivationKind(str(data[f"act_{i}"])),
                )
                for i in range(int(data["n_layers"]))
            )
            return AeReducer(
                ppl=tuple(float(f) for f in data["ppl"]),
                stack=AutoencoderStack(layers=layers, input_dim=int(data["input_dim"])),
            )
        values = {f.name: data[f.name] for f in fields(cls)}
        # 0-d arrays (the identity width) come back as Python scalars
        return cls(**{name: v.item() if v.ndim == 0 else v for name, v in values.items()})
