"""Dimensionality reducers behind one fit/transform interface.

Four kinds: the trained autoencoder stack, principal-component projection,
linear discriminant projection and the identity (the plain-kNN baseline).
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

from dataclasses import dataclass

import numpy as np

from .autoencoder import (
    AutoencoderStack,
    TrainConfig,
    build_stack,
    encode,
    layer_size,
)

__all__ = [
    "jacobi_eigh",
    "PcaModel",
    "LdaModel",
    "fit_pca",
    "fit_lda",
    "Reducer",
    "IdentityReducer",
    "PcaReducer",
    "LdaReducer",
    "AeReducer",
    "fit_reducer",
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


@dataclass(frozen=True)
class PcaModel:
    """Mean and top eigenvectors of the training covariance, plus the full
    eigenvalue spectrum (descending)."""

    mean: np.ndarray
    components: np.ndarray  # (n_features, target_dim), orthonormal columns
    eigenvalues: np.ndarray

    @property
    def target_dim(self) -> int:
        return self.components.shape[1]

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[-1] != self.mean.shape[0]:
            raise ValueError("feature-count mismatch")
        return (matrix - self.mean) @ self.components


def fit_pca(train: np.ndarray, target_dim: int) -> PcaModel:
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
    return PcaModel(
        mean=mean,
        components=_fix_signs(vectors[:, :target_dim]),
        eigenvalues=eigenvalues,
    )


@dataclass(frozen=True)
class LdaModel:
    """Discriminant directions from the generalized eigenproblem of
    between-class versus (regularized) within-class scatter."""

    mean: np.ndarray
    class_means: np.ndarray
    projection: np.ndarray  # (n_features, effective_dim)
    eigenvalues: np.ndarray

    @property
    def effective_dim(self) -> int:
        return self.projection.shape[1]

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[-1] != self.mean.shape[0]:
            raise ValueError("feature-count mismatch")
        return (matrix - self.mean) @ self.projection


def fit_lda(train: np.ndarray, labels, target_dim: int) -> LdaModel:
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
    return LdaModel(
        mean=mean,
        class_means=class_means,
        projection=directions,
        eigenvalues=eigenvalues[:effective],
    )


class Reducer:
    """fit/transform interface shared by every reducer kind."""

    kind: str = ""

    def fit(self, train: np.ndarray, labels, target_dim: int) -> "Reducer":
        raise NotImplementedError

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def effective_dim(self) -> int:
        raise NotImplementedError


class IdentityReducer(Reducer):
    kind = "identity"

    def __init__(self):
        self._dim: int | None = None

    def fit(self, train, labels=None, target_dim: int | None = None):
        train = np.asarray(train, dtype=np.float64)
        self._dim = train.shape[1]
        return self

    def transform(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if self._dim is not None and matrix.shape[-1] != self._dim:
            raise ValueError("feature-count mismatch")
        return matrix

    @property
    def effective_dim(self) -> int:
        if self._dim is None:
            raise RuntimeError("reducer is not fitted")
        return self._dim


class PcaReducer(Reducer):
    kind = "pca"

    def __init__(self):
        self.model: PcaModel | None = None

    def fit(self, train, labels=None, target_dim: int = 1):
        self.model = fit_pca(train, target_dim)
        return self

    def transform(self, matrix):
        if self.model is None:
            raise RuntimeError("reducer is not fitted")
        return self.model.transform(matrix)

    @property
    def effective_dim(self) -> int:
        if self.model is None:
            raise RuntimeError("reducer is not fitted")
        return self.model.target_dim


class LdaReducer(Reducer):
    kind = "lda"

    def __init__(self):
        self.model: LdaModel | None = None

    def fit(self, train, labels, target_dim: int = 1):
        if labels is None:
            raise ValueError("LDA requires labels")
        self.model = fit_lda(train, labels, target_dim)
        return self

    def transform(self, matrix):
        if self.model is None:
            raise RuntimeError("reducer is not fitted")
        return self.model.transform(matrix)

    @property
    def effective_dim(self) -> int:
        if self.model is None:
            raise RuntimeError("reducer is not fitted")
        return self.model.effective_dim


class AeReducer(Reducer):
    """Autoencoder stack behind the common interface. The layer layout comes
    from `ppl` (fractions of the original feature count), not from the
    target_dim argument, which is ignored."""

    kind = "ae"

    def __init__(self, ppl=(0.75,), train_cfg: TrainConfig | None = None):
        self.ppl = tuple(float(f) for f in ppl)
        self.train_cfg = train_cfg if train_cfg is not None else TrainConfig()
        self.stack: AutoencoderStack | None = None

    def fit(self, train, labels=None, target_dim: int | None = None):
        self.stack = build_stack(train, self.ppl, self.train_cfg)
        return self

    def transform(self, matrix):
        if self.stack is None:
            raise RuntimeError("reducer is not fitted")
        return encode(self.stack, np.asarray(matrix, dtype=np.float64))

    @property
    def effective_dim(self) -> int:
        if self.stack is None:
            raise RuntimeError("reducer is not fitted")
        return self.stack.output_dim


def fit_reducer(
    kind: str,
    train: np.ndarray,
    labels=None,
    target_dim: int | None = None,
    ppl=None,
    train_cfg: TrainConfig | None = None,
) -> Reducer:
    """Fit a reducer of the named kind ("identity", "ae", "pca" or "lda").

    For "pca"/"lda" the target dimension may be given directly or derived
    from a single-entry `ppl` fraction of the feature count.
    """
    train = np.asarray(train, dtype=np.float64)
    if kind == "identity":
        return IdentityReducer().fit(train)
    if kind == "ae":
        if ppl is None:
            raise ValueError("the autoencoder reducer needs a ppl layer spec")
        return AeReducer(ppl=ppl, train_cfg=train_cfg).fit(train)
    if kind in ("pca", "lda"):
        if target_dim is None:
            if ppl is None:
                raise ValueError(f"{kind} needs target_dim or a ppl fraction")
            fractions = tuple(float(f) for f in ppl)
            if len(fractions) != 1:
                raise ValueError(f"{kind} takes a single fraction, got {fractions}")
            target_dim = layer_size(train.shape[1], fractions[0])
        if kind == "pca":
            target_dim = min(target_dim, train.shape[1])
            return PcaReducer().fit(train, target_dim=target_dim)
        return LdaReducer().fit(train, labels, target_dim=target_dim)
    raise ValueError(f"unknown reducer kind {kind!r}")


_REDUCER_FORMAT_VERSION = 1


def save_reducer(reducer: Reducer, path) -> None:
    """Serialize any fitted reducer, tagged by kind; weights round-trip bitwise."""
    payload: dict = {
        "format_version": np.int64(_REDUCER_FORMAT_VERSION),
        "kind": np.str_(reducer.kind),
    }
    if isinstance(reducer, IdentityReducer):
        payload["dim"] = np.int64(reducer.effective_dim)
    elif isinstance(reducer, PcaReducer):
        assert reducer.model is not None
        payload["mean"] = reducer.model.mean
        payload["components"] = reducer.model.components
        payload["eigenvalues"] = reducer.model.eigenvalues
    elif isinstance(reducer, LdaReducer):
        assert reducer.model is not None
        payload["mean"] = reducer.model.mean
        payload["class_means"] = reducer.model.class_means
        payload["projection"] = reducer.model.projection
        payload["eigenvalues"] = reducer.model.eigenvalues
    elif isinstance(reducer, AeReducer):
        assert reducer.stack is not None
        payload["ppl"] = np.asarray(reducer.ppl)
        payload["input_dim"] = np.int64(reducer.stack.input_dim)
        payload["n_layers"] = np.int64(len(reducer.stack.layers))
        for i, layer in enumerate(reducer.stack.layers):
            payload[f"w_{i}"] = layer.w
            payload[f"b_{i}"] = layer.b
            payload[f"act_{i}"] = np.str_(layer.activation.value)
    else:
        raise ValueError(f"cannot serialize reducer kind {reducer.kind!r}")
    np.savez(path, **payload)


def load_reducer(path) -> Reducer:
    from .autoencoder import ActivationKind, EncoderLayer

    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _REDUCER_FORMAT_VERSION:
            raise ValueError(f"unsupported reducer format version {version}")
        kind = str(data["kind"])
        if kind == "identity":
            reducer = IdentityReducer()
            reducer._dim = int(data["dim"])
            return reducer
        if kind == "pca":
            reducer = PcaReducer()
            reducer.model = PcaModel(
                mean=data["mean"],
                components=data["components"],
                eigenvalues=data["eigenvalues"],
            )
            return reducer
        if kind == "lda":
            reducer = LdaReducer()
            reducer.model = LdaModel(
                mean=data["mean"],
                class_means=data["class_means"],
                projection=data["projection"],
                eigenvalues=data["eigenvalues"],
            )
            return reducer
        if kind == "ae":
            reducer = AeReducer(ppl=tuple(float(f) for f in data["ppl"]))
            layers = tuple(
                EncoderLayer(
                    w=data[f"w_{i}"],
                    b=data[f"b_{i}"],
                    activation=ActivationKind(str(data[f"act_{i}"])),
                )
                for i in range(int(data["n_layers"]))
            )
            reducer.stack = AutoencoderStack(layers=layers, input_dim=int(data["input_dim"]))
            return reducer
    raise ValueError(f"unknown reducer kind {kind!r}")
