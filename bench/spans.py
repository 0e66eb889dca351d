"""Spans around the public functions of `aeknn`, patched where aeknn looks
them up, recording self time and counts per layer.

A span's self time is its duration minus the time of the spans it encloses,
so the self times of one round add up to the traced part of its wall time.
A patch target that no longer exists is skipped and every metric fed only
by missing targets is reported as unmeasured, so a later change that
removes or renames a function does not break the traced run.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class _Frame:
    start: float
    child: float = 0.0


@dataclass
class Tracer:
    seconds: defaultdict = field(default_factory=lambda: defaultdict(float))
    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    stack: list = field(default_factory=list)

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()
        self.stack.clear()

    def wrap(self, name, fn, count=None):
        """`fn` timed into `name`; `count(args, kwargs)` returns the counts
        one call adds, as a dict of metric name to number."""

        def traced(*args, **kwargs):
            if count is not None:
                for key, value in count(args, kwargs).items():
                    self.counts[key] += value
            frame = _Frame(time.perf_counter())
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame.start
                self.stack.pop()
                self.seconds[name] += duration - frame.child
                if self.stack:
                    self.stack[-1].child += duration

        traced.__wrapped__ = fn
        return traced


def _rows(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


def _train_layer_counts(args, kwargs):
    data = args[0] if args else kwargs["data"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return {
        "autoencoder.train_layer_calls": 1,
        "autoencoder.batches": cfg.epochs * math.ceil(_rows(data) / cfg.batch_size),
    }


def _classify_batch_counts(args, kwargs):
    model = args[0] if args else kwargs["model"]
    queries = args[1] if len(args) > 1 else kwargs["queries"]
    n_q, n_ref, dim = _rows(queries), model.references.shape[0], model.references.shape[1]
    # computed from shapes: one subtract, one multiply and one add per coordinate
    return {
        "knn.queries": n_q,
        "knn.distance_pairs": n_q * n_ref,
        "knn.distance_flops": 3 * n_q * n_ref * dim,
    }


def _one(key):
    return lambda args, kwargs: {key: 1}


# (module, attribute path, span name, counter, metrics the target feeds)
TARGETS = [
    ("aeknn.autoencoder", "train_layer", "autoencoder.train_layer_s", _train_layer_counts,
     ("autoencoder.train_layer_s", "autoencoder.train_layer_calls", "autoencoder.batches")),
    ("aeknn.reducers", "encode", "autoencoder.encode_s", None, ("autoencoder.encode_s",)),
    ("aeknn.pipeline", "classify_batch", "knn.classify_batch_s", _classify_batch_counts,
     ("knn.classify_batch_s", "knn.queries", "knn.distance_pairs", "knn.distance_flops")),
    ("aeknn.pipeline", "fit_reducer", "reducers.fit_s", None, ("reducers.fit_s",)),
    ("aeknn.reducers", "jacobi_eigh", "reducers.jacobi_eigh_s", _one("reducers.jacobi_eigh_calls"),
     ("reducers.jacobi_eigh_s", "reducers.jacobi_eigh_calls")),
    ("aeknn.reducers", "IdentityReducer.transform", "reducers.transform_s", None,
     ("reducers.transform_s",)),
    ("aeknn.reducers", "PcaReducer.transform", "reducers.transform_s", None,
     ("reducers.transform_s",)),
    ("aeknn.reducers", "LdaReducer.transform", "reducers.transform_s", None,
     ("reducers.transform_s",)),
    ("aeknn.reducers", "AeReducer.transform", "reducers.transform_s", None,
     ("reducers.transform_s",)),
    ("aeknn.cli", "load_csv", "dataset.load_csv_s", _one("dataset.load_csv_calls"),
     ("dataset.load_csv_s", "dataset.load_csv_calls")),
    ("aeknn.pipeline", "fit_normalizer", "dataset.normalize_s", None, ("dataset.normalize_s",)),
    ("aeknn.dataset", "NormalizationStats.apply", "dataset.normalize_s", None,
     ("dataset.normalize_s",)),
    ("aeknn.dataset", "make_folds", "dataset.make_folds_s", None, ("dataset.make_folds_s",)),
    ("aeknn.cli", "make_folds", "dataset.make_folds_s", None, ("dataset.make_folds_s",)),
    ("aeknn.pipeline", "run_fold", "pipeline.run_fold_s", _one("pipeline.folds"),
     ("pipeline.run_fold_s", "pipeline.folds")),
    ("aeknn.pipeline", "run_cv", "pipeline.run_cv_s", None, ("pipeline.run_cv_s",)),
    ("aeknn.cli", "run_cv", "pipeline.run_cv_s", _one("cli.cells"),
     ("pipeline.run_cv_s", "cli.cells")),
    ("aeknn.pipeline", "ConfusionMatrix.from_predictions", "metrics.s", None, ("metrics.s",)),
    ("aeknn.pipeline", "accuracy", "metrics.s", None, ("metrics.s",)),
    ("aeknn.pipeline", "f_score", "metrics.s", None, ("metrics.s",)),
    ("aeknn.pipeline", "auc", "metrics.s", None, ("metrics.s",)),
    ("aeknn.cli", "friedman", "stats.friedman_s", None, ("stats.friedman_s",)),
    ("aeknn.cli", "wilcoxon_signed_rank", "stats.wilcoxon_s", None, ("stats.wilcoxon_s",)),
    ("aeknn.cli", "cmd_eval", "cli.eval_self_s", None, ("cli.eval_self_s",)),
]


def _unit(metric: str) -> str:
    if metric == "knn.distance_flops":
        return "flop"
    return "s" if metric.endswith(("_s", ".s")) else "count"


METRICS = {metric: _unit(metric) for *_, fed in TARGETS for metric in fed}


def unmeasured_metrics(missing_targets) -> list[str]:
    """Metrics fed only by targets in `missing_targets`."""
    measured = set()
    for module_name, path, _, _, fed in TARGETS:
        if f"{module_name}.{path}" not in missing_targets:
            measured.update(fed)
    return sorted(set(METRICS) - measured)


def _lookup(module_name: str, path: str):
    """(owner, attribute, raw attribute) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, attr, raw


class Patches:
    """Installs the spans of `tracer` on every target that exists; `close`
    restores the originals."""

    def __init__(self, tracer: Tracer):
        self._saved = []
        self.missing = []
        for module_name, path, span, counter, fed in TARGETS:
            found = _lookup(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                patched = classmethod(tracer.wrap(span, raw.__func__, counter))
            else:
                patched = tracer.wrap(span, raw, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def close(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
