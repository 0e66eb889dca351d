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

`run_cv` trains an autoencoder configuration's folds side by side: children
started by `multiprocessing`'s fork context fit the folds' normalizers and
reducers, one child per usable CPU (at most one per fold), and send them
back through pipes; then the parent encodes and classifies each fold alone,
with no child alive, so the time column is measured as when folds run one
after another. A pre-fitted fold's fit time is the child's fit plus the
parent's normalize and encode of the training rows. Every other
configuration, any run allowed one worker, and any run inside a daemonic
process (a `multiprocessing.Pool` worker, which `multiprocessing` lets
start no children) runs its folds one after another in process.

Each fold runs whole (fit and training, both encodes, kNN) with every loaded
OpenBLAS held to one thread, whether it runs in the calling process or, for
its fit, in one of `run_cv`'s forked fold workers, so seeded results do not
depend on the host's CPU count or on `workers`. Training's batch products
and the encodes gain nothing from threads, and after a threaded product
OpenBLAS's workers busy-wait for about 0.1 s: on a two-CPU host that spin
halved the speed of the kNN search timed right after the training fold's
encode, and two processes with a two-thread OpenBLAS each ran the paper's
ppl sweep four times slower.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler

import numpy as np

from .autoencoder import TrainConfig
from .dataset import Dataset, FoldPlan, SubsetView, fit_normalizer
from .knn import KnnModel, classify_batch
from .metrics import ConfusionMatrix, accuracy, auc, f_score
from .reducers import fit_reducer

__all__ = ["PipelineConfig", "FoldResult", "CvResult", "run_fold", "run_cv"]


@cache
def _openblas_libraries() -> tuple:
    """(library, symbol prefix, symbol suffix) of every OpenBLAS this
    process has loaded, found through /proc/self/maps, so that its function
    `name` is `getattr(library, f"{prefix}_{name}{suffix}")`; empty where
    there is none or the map cannot be read."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return ()
    libraries = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    libraries.append((lib, prefix, suffix))
    return tuple(libraries)


@cache
def _openblas_thread_counts() -> tuple:
    """(get, set) thread-count functions of every loaded OpenBLAS."""
    return tuple(
        (getattr(lib, f"{prefix}_get_num_threads{suffix}"),
         getattr(lib, f"{prefix}_set_num_threads{suffix}"))
        for lib, prefix, suffix in _openblas_libraries()
    )


def _new_blas_lock() -> None:
    """A free `_blas_lock`; a forked child takes a new one, since another
    thread of its parent may have held the old one at the fork."""
    global _blas_lock
    _blas_lock = threading.Lock()


_new_blas_lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_blas_lock)


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
        if not all(math.isfinite(f) and f > 0 for f in ppl):
            raise ValueError(f"ppl fractions must be positive and finite, got {ppl}")
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
    def classification_seconds(self) -> float:
        return self.encode_seconds + self.classify_seconds


def fit_fold_model(train: Dataset | "object", cfg: PipelineConfig):
    """Fit everything the training fold determines: normalization stats and
    the reducer. Exposed separately so leak-freedom is checkable: the test
    fold is not an input. Fits on one BLAS thread, as `run_fold` does."""
    with _one_blas_thread():
        stats, reducer, _ = _fit_fold(train, cfg)
    return stats, reducer


def _normalized(stats, side, matrix: np.ndarray) -> np.ndarray:
    """`matrix`, the rows of fold side `side`, normalized by `stats`: in
    place where `side` is a `SubsetView`, whose every read gathers a fresh
    copy that is the fold's own, and into a new array where it is a
    `Dataset`, whose read-only matrix is shared."""
    return stats.apply(matrix, out=matrix if isinstance(side, SubsetView) else None)


def _fit_fold(train, cfg: PipelineConfig):
    """`fit_fold_model` plus the normalized training matrix the reducer was
    fitted on, so `run_fold` encodes it without normalizing it again. The
    raw rows are read once (a `SubsetView` gathers them on each read) and,
    from a view, normalized in that one copy."""
    train_matrix = train.features
    stats = fit_normalizer(train_matrix)
    train_matrix = _normalized(stats, train, train_matrix)
    reducer = fit_reducer(
        cfg.reducer,
        train_matrix,
        labels=train.labels,
        target_dim=cfg.target_dim,
        ppl=cfg.ppl if cfg.reducer != "identity" else None,
        train_cfg=cfg.train_cfg,
    )
    return stats, reducer, train_matrix


def run_fold(train, test, cfg: PipelineConfig, fitted=None) -> FoldResult:
    """Train on one fold, predict the other.

    `train`/`test` are Dataset or SubsetView objects sharing the feature
    width and class universe. Training classes absent from the test fold
    (and vice versa) are fine; a class unseen in training can only be
    predicted wrong. `fitted`, when given, is the training fold's
    `(stats, reducer, fit seconds)` as fitted elsewhere (in `run_cv`'s fold
    workers); the fold then normalizes and encodes its training rows with
    them, and its fit time adds those seconds.
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
        if fitted is None:
            stats, reducer, train_matrix = _fit_fold(train, cfg)
            fitted_seconds = 0.0
        else:
            stats, reducer, fitted_seconds = fitted
            train_matrix = _normalized(stats, train, train.features)
        encoded_train = reducer.transform(train_matrix)
        del train_matrix  # freed before the kNN, which needs only the codes
        fit_seconds = fitted_seconds + time.perf_counter() - t0

        t0 = time.perf_counter()
        encoded_test = reducer.transform(_normalized(stats, test, test.features))
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
    fold_workers: int  # processes that fitted the folds; 1 when fitted in process


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


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fold_workers(cfg: PipelineConfig, n_splits: int, workers: int | None) -> int:
    """Processes to fit the folds in: forked children only where an
    autoencoder is trained, since a fork costs more than any other fit, and
    only where this process may have children: `multiprocessing` refuses
    them to a daemonic process."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if cfg.reducer != "ae" or not hasattr(os, "fork") or multiprocessing.current_process().daemon:
        return 1
    return max(1, min(usable_cpus() if workers is None else workers, n_splits))


def _naming_fold(exc: Exception, rep: int, fold: int) -> Exception:
    """`exc` again, of its own type where that takes one message, with the
    fold it came from named first."""
    try:
        return type(exc)(f"rep {rep} fold {fold}: {exc}")
    except Exception:
        return RuntimeError(f"rep {rep} fold {fold}: {type(exc).__name__}: {exc}")


def _fit_in_child(pipe, splits) -> None:
    """Fit each split's (stats, reducer) and send them, with each fit's
    seconds, through `pipe`; a failing fit ends the list and is sent as
    (rep, fold, exception). The target of a forked `Process`, which leaves
    through `os._exit`, so no code of its parent runs on in it.

    The child runs on the one BLAS thread it was forked with and sets no
    count itself: OpenBLAS shuts its thread pool down at a fork and starts
    it again at the next count set, and the new workers spin for about
    0.1 s, here against the training."""
    fits, failure = [], None
    for rep, fold, train, _, cfg in splits:
        t0 = time.perf_counter()
        try:
            stats, reducer, _ = _fit_fold(train, cfg)
        except Exception as exc:
            if hasattr(exc, "add_note"):
                exc.add_note("in the fold worker:\n" + traceback.format_exc())
            failure = (rep, fold, exc)
            break
        fits.append((stats, reducer, time.perf_counter() - t0))
    if failure is not None:
        try:  # through the pickler `send` uses, and back as `recv` would
            ForkingPickler.loads(ForkingPickler.dumps(failure))
        except Exception:  # an exception that cannot cross the pipe as it is
            rep, fold, exc = failure
            failure = (rep, fold, RuntimeError(f"{type(exc).__name__}: {exc}"))
    pipe.send((fits, failure))


def _fit_in_children(splits, workers: int) -> list:
    """Each split's (stats, reducer, fit seconds), in plan order, fitted in
    `workers` forked children; split i goes to child i mod workers. The
    pipes are read as they become ready, so the first child to report a
    failure, or to die before sending its fits, is raised at once. Every
    child is killed and joined before this returns or raises. The caller
    must not be a daemonic process, which `multiprocessing` lets have no
    children (`_fold_workers` gives it 1)."""
    fork = multiprocessing.get_context("fork")
    children = []  # (process, read end, split positions)
    try:
        # the children inherit the hold; leaving it restarts this process's
        # OpenBLAS pools now, so their workers spin while the children fit,
        # not during the classify timers
        with _one_blas_thread():
            for worker in range(workers):
                positions = range(worker, len(splits), workers)
                reader, writer = fork.Pipe(duplex=False)
                child = fork.Process(
                    target=_fit_in_child, args=(writer, [splits[p] for p in positions])
                )
                try:
                    child.start()
                except BaseException:
                    reader.close()
                    raise
                finally:
                    writer.close()
                children.append((child, reader, positions))
        sent = {}  # read end -> its child's (fits, failure), or None if it died first
        while len(sent) < len(children):
            for reader in wait([reader for _, reader, _ in children if reader not in sent]):
                try:
                    sent[reader] = reader.recv()
                except (EOFError, OSError):  # nothing, or only a part, came through
                    sent[reader] = None
            if any(outcome is None or outcome[1] is not None for outcome in sent.values()):
                break
    finally:
        for child, reader, _ in children:
            reader.close()
            child.kill()
            child.join()

    fitted = [None] * len(splits)
    for child, reader, positions in children:
        if reader not in sent:  # killed while fitting, after another child failed
            continue
        outcome = sent[reader]
        if outcome is None:
            names = ", ".join(f"rep {splits[p][0]} fold {splits[p][1]}" for p in positions)
            code = child.exitcode
            how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
            raise RuntimeError(f"the fold worker fitting {names} {how} before sending its fits")
        fits, failure = outcome
        if failure is not None:
            rep, fold, exc = failure
            raise _naming_fold(exc, rep, fold) from exc
        for position, fit in zip(positions, fits):
            fitted[position] = fit
    return fitted


def run_cv(
    data: Dataset,
    plan: FoldPlan,
    cfg: PipelineConfig,
    positive: int = 1,
    workers: int | None = None,
) -> CvResult:
    """Run every (repetition, fold) split of the plan and average the metrics.

    Each fold trains with its own RNG stream derived from
    (cfg.train_cfg.seed, repetition, fold), so folds are independent and the
    whole run is reproducible from the seed.

    An autoencoder configuration fits its folds in forked children, at most
    `workers` of them (default: the CPUs this process may use), then
    encodes and classifies each fold alone in this process; the bytes are
    those of fitting every fold here, which is what any other configuration,
    `workers=1`, a daemonic caller (a `multiprocessing` daemon may have no
    children) or a platform without `os.fork` does. An exception from a
    fold is raised again with its type, its message prefixed
    `rep R fold F:`; a child that dies without sending its fits raises a
    `RuntimeError` naming its folds and its exit status. Either is raised as
    soon as its child reports it or dies, and the other children are killed
    then, whatever they are still fitting.
    """
    if plan.n_samples != data.n_samples:
        raise ValueError("fold plan was built for a different dataset size")
    splits = []
    for rep, fold, train_idx, test_idx in plan.iter_splits():
        fold_seed = int(
            np.random.SeedSequence([cfg.train_cfg.seed, rep, fold]).generate_state(1)[0]
        )
        fold_cfg = replace(cfg, train_cfg=replace(cfg.train_cfg, seed=fold_seed))
        splits.append((rep, fold, data.subset(train_idx), data.subset(test_idx), fold_cfg))
    fold_workers = _fold_workers(cfg, len(splits), workers)
    fitted = _fit_in_children(splits, fold_workers) if fold_workers > 1 else [None] * len(splits)
    results = []
    per_fold = []
    for (rep, fold, train, test, fold_cfg), fit in zip(splits, fitted):
        try:
            result = run_fold(train, test, fold_cfg, fitted=fit)
        except Exception as exc:
            raise _naming_fold(exc, rep, fold) from exc
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
        fold_workers=fold_workers,
    )
