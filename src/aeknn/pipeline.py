"""End-to-end classification pipeline: normalize on the training fold, fit a
reducer there, push BOTH folds through it, then classify the encoded test
rows with kNN over the encoded training rows.

Everything fitted (normalizer, reducer) sees only the training fold, so the
test fold cannot leak into the model. Training data is always encoded with
the same reducer as the queries; distances are only meaningful when both
sides live in the same space.

Reported timing splits the work into fit (normalizer + reducer + encoding
the training rows, i.e. building the classification model), encode (test
rows only) and classify (one `classify_batch` call: the kd-tree's
candidate proposals, the one exact pass over them or, where the tree cannot
vouch for a row, over every reference, and the vote). "Classification time"
in aggregated results means encode + classify.

Each fold runs whole (fit and training, both encodes, kNN) with every loaded
OpenBLAS held to one thread, whether it runs in the main process or in an
`eval --jobs` worker, so seeded results do not depend on the host's CPU
count. Training's batch products and the encodes gain nothing from threads,
and after a threaded product OpenBLAS's workers busy-wait for about 0.1 s:
on a two-CPU host that spin halved the speed of the kNN search timed right
after the training fold's encode, and two --jobs workers with a two-thread
OpenBLAS each ran the paper's ppl sweep four times slower.
"""

from __future__ import annotations

import ctypes
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .autoencoder import TrainConfig
from .dataset import Dataset, FoldPlan, fit_normalizer
from .knn import KnnModel, classify_batch
from .metrics import ConfusionMatrix, accuracy, auc, f_score
from .reducers import fit_reducer

__all__ = ["PipelineConfig", "FoldResult", "CvResult", "run_fold", "run_cv"]


@cache
def _openblas_thread_counts() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, found through /proc/self/maps; empty where there is none or the
    map cannot be read."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return ()
    counts = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    counts.append((get, set_))
    return tuple(counts)


_blas_lock = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS to one thread, then restore its count.
    Not reentrant: nothing called inside the hold may take it again."""
    with _blas_lock:
        saved = [(set_, get()) for get, set_ in _openblas_thread_counts()]
        for set_, _ in saved:
            set_(1)
        try:
            yield
        finally:
            for set_, threads in saved:
                set_(threads)


@dataclass(frozen=True)
class PipelineConfig:
    """One classifier configuration.

    reducer: "ae", "pca", "lda" or "identity". The autoencoder layer layout
    comes from `ppl`; pca/lda take `target_dim` directly or derive it from a
    single `ppl` fraction of the feature count. ae and identity reject a
    `target_dim`, which they could only ignore.
    """

    reducer: str = "ae"
    ppl: tuple[float, ...] = (0.75,)
    k: int = 5
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    target_dim: int | None = None

    def __post_init__(self):
        if self.reducer not in ("ae", "pca", "lda", "identity"):
            raise ValueError(f"unknown reducer {self.reducer!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        ppl = tuple(float(f) for f in self.ppl)
        if self.reducer == "ae" and not ppl:
            raise ValueError("autoencoder configuration needs a non-empty ppl")
        if any(f <= 0 for f in ppl):
            raise ValueError("ppl fractions must be positive")
        if self.reducer in ("ae", "identity") and self.target_dim is not None:
            raise ValueError(f"{self.reducer} takes no target_dim, got {self.target_dim}")
        if self.reducer in ("pca", "lda") and self.target_dim is None and len(ppl) != 1:
            raise ValueError(
                f"{self.reducer} takes target_dim or a single ppl fraction, got {ppl}"
            )
        object.__setattr__(self, "ppl", ppl)

    def label(self) -> str:
        if self.reducer == "identity":
            return "knn"
        if self.reducer == "ae":
            return "ae_" + "-".join(f"{f:g}" for f in self.ppl)
        dim = self.target_dim if self.target_dim is not None else f"{self.ppl[0]:g}"
        return f"{self.reducer}_{dim}"


@dataclass(frozen=True, eq=False)
class FoldResult:
    """Predictions and scores for one test fold, with wall-clock timings."""

    predictions: np.ndarray
    true_labels: np.ndarray
    scores: np.ndarray  # (n_test, n_classes) vote fractions
    test_indices: np.ndarray
    n_classes: int
    effective_dim: int
    fit_seconds: float
    encode_seconds: float
    classify_seconds: float

    def __post_init__(self):
        if self.predictions.shape != self.true_labels.shape:
            raise ValueError("one prediction per test row required")
        if min(self.fit_seconds, self.encode_seconds, self.classify_seconds) < 0:
            raise ValueError("durations must be non-negative")

    @property
    def n_test(self) -> int:
        return self.predictions.shape[0]

    @property
    def error_rate(self) -> float:
        return float(np.count_nonzero(self.predictions != self.true_labels)) / self.n_test

    @property
    def classification_seconds(self) -> float:
        return self.encode_seconds + self.classify_seconds


def fit_fold_model(train: Dataset | "object", cfg: PipelineConfig):
    """Fit everything the training fold determines: normalization stats and
    the reducer. Exposed separately so leak-freedom is checkable: the test
    fold is not an input. Fits on one BLAS thread, as `run_fold` does."""
    with _one_blas_thread():
        stats, reducer, _ = _fit_fold(train, cfg)
    return stats, reducer


def _fit_fold(train, cfg: PipelineConfig):
    """`fit_fold_model` plus the normalized training matrix the reducer was
    fitted on, so `run_fold` encodes it without normalizing it again. The
    raw rows are read once (a `SubsetView` gathers them on each read) and
    dropped once normalized."""
    train_matrix = train.features
    stats = fit_normalizer(train_matrix)
    train_matrix = stats.apply(train_matrix)
    reducer = fit_reducer(
        cfg.reducer,
        train_matrix,
        labels=train.labels,
        target_dim=cfg.target_dim,
        ppl=cfg.ppl if cfg.reducer != "identity" else None,
        train_cfg=cfg.train_cfg,
    )
    return stats, reducer, train_matrix


def run_fold(train, test, cfg: PipelineConfig) -> FoldResult:
    """Train on one fold, predict the other.

    `train`/`test` are Dataset or SubsetView objects sharing the feature
    width and class universe. Training classes absent from the test fold
    (and vice versa) are fine; a class unseen in training can only be
    predicted wrong.
    """
    if train.n_samples == 0:
        raise ValueError("training fold is empty")
    if train.n_features != test.n_features:
        raise ValueError("train and test folds disagree on feature count")
    if train.class_names != test.class_names:
        raise ValueError("train and test folds disagree on the class universe")
    n_classes = train.n_classes

    with _one_blas_thread():
        t0 = time.perf_counter()
        stats, reducer, train_matrix = _fit_fold(train, cfg)
        encoded_train = reducer.transform(train_matrix)
        fit_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        encoded_test = reducer.transform(stats.apply(test.features))
        encode_seconds = time.perf_counter() - t0

        model = KnnModel(
            references=encoded_train,
            labels=train.labels,
            k=min(cfg.k, train.n_samples),
            n_classes=n_classes,
        )
        t0 = time.perf_counter()
        labels, scores = classify_batch(model, encoded_test)
        classify_seconds = time.perf_counter() - t0

    indices = getattr(test, "indices", np.arange(test.n_samples, dtype=np.int64))
    return FoldResult(
        predictions=labels,
        true_labels=test.labels,
        scores=scores,
        test_indices=np.asarray(indices, dtype=np.int64),
        n_classes=n_classes,
        effective_dim=reducer.effective_dim,
        fit_seconds=fit_seconds,
        encode_seconds=encode_seconds,
        classify_seconds=classify_seconds,
    )


@dataclass(frozen=True, eq=False)
class CvResult:
    """Cross-validation aggregate: per-fold results plus metric means."""

    fold_results: tuple[FoldResult, ...]
    accuracy: float
    fscore: float
    auc_score: float
    fit_seconds: float
    classification_seconds: float

    @property
    def error_rate(self) -> float:
        return 1.0 - self.accuracy


def _fold_metrics(result: FoldResult, positive: int) -> tuple[float, float, float]:
    cm = ConfusionMatrix.from_predictions(
        result.true_labels, result.predictions, n_classes=result.n_classes
    )
    acc = accuracy(cm)
    if result.n_classes == 2:
        f = f_score(cm, averaging="binary", positive=positive)
        area = auc(result.scores, result.true_labels, averaging="binary", positive=positive)
    else:
        f = f_score(cm, averaging="macro")
        area = auc(result.scores, result.true_labels, averaging="macro_ovr")
    return acc, f, area


def run_cv(
    data: Dataset,
    plan: FoldPlan,
    cfg: PipelineConfig,
    positive: int = 1,
) -> CvResult:
    """Run every (repetition, fold) split of the plan and average the metrics.

    Each fold trains with its own RNG stream derived from
    (cfg.train_cfg.seed, repetition, fold), so folds are independent and the
    whole run is reproducible from the seed.
    """
    if plan.n_samples != data.n_samples:
        raise ValueError("fold plan was built for a different dataset size")
    results = []
    per_fold = []
    for rep, fold, train_idx, test_idx in plan.iter_splits():
        fold_seed = int(
            np.random.SeedSequence([cfg.train_cfg.seed, rep, fold]).generate_state(1)[0]
        )
        fold_cfg = replace(cfg, train_cfg=replace(cfg.train_cfg, seed=fold_seed))
        result = run_fold(data.subset(train_idx), data.subset(test_idx), fold_cfg)
        results.append(result)
        per_fold.append(_fold_metrics(result, positive))
    metrics = np.array(per_fold)
    return CvResult(
        fold_results=tuple(results),
        accuracy=float(metrics[:, 0].mean()),
        fscore=float(metrics[:, 1].mean()),
        auc_score=float(metrics[:, 2].mean()),
        fit_seconds=float(np.mean([r.fit_seconds for r in results])),
        classification_seconds=float(np.mean([r.classification_seconds for r in results])),
    )
