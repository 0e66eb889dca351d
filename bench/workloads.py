"""The three workloads: set-up, one timed round, and the checks.

A round is the workload's timed body: one `run_cv` over a 2x5 plan for the
semeion-shaped workloads, and `aeknn eval` plus three `aeknn stats` calls for
`eval-baselines`. Every round attempts the same operations (10 folds, or 6
cells plus 3 statistics calls), so the failed share never depends on how
many rounds fit into a run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

import aeknn.cli
import aeknn.dataset
import aeknn.pipeline
import aeknn.reducers
import aeknn.tables
from aeknn.autoencoder import TrainConfig

import checks
import inputs

REPS, FOLDS, K = 2, 5, 5
# one repetition keeps an eval round near 12 s: at 2x5 the Jacobi fits and
# the kNN scans of the six cells take 24 s, too long to repeat in a run
EVAL_REPS = 1
# reduced-width paper configuration; 10 epochs at lr 1.0 keeps training
# about two thirds of a round while the per-layer loss still falls clearly
AE_CONFIG = dict(reducer="ae", ppl=(0.25,), k=K)
AE_TRAIN = dict(epochs=10, batch_size=32, learning_rate=1.0)
EVAL_CONFIGS = {"knn": "reducer = identity", "pca_0.5": "reducer = pca\nppl = 0.5",
                "lda_0.5": "reducer = lda\nppl = 0.5"}


@dataclass
class Round:
    wall_s: float
    classify_s: float
    attempted: int
    failed: int
    quality: tuple[float, float, float]  # accuracy, fscore, auc means over cells
    outcome: object = None


class CvWorkload:
    """`run_cv` on the semeion shape with one configuration."""

    def __init__(self, name, reducer):
        self.name = name
        self.reducer = reducer

    def setup(self, seed, workdir):
        features, labels = inputs.generate(inputs.SEMEION, seed)
        data = aeknn.dataset.Dataset(features=features, labels=labels,
                                     class_names=inputs.class_names(inputs.SEMEION),
                                     name="semeion")
        plan = aeknn.dataset.make_folds(data, REPS, FOLDS, seed)
        if self.reducer == "ae":
            cfg = aeknn.pipeline.PipelineConfig(
                **AE_CONFIG, train_cfg=TrainConfig(**AE_TRAIN, seed=seed))
        else:
            cfg = aeknn.pipeline.PipelineConfig(reducer="identity", k=K)
        return {"seed": seed, "data": data, "plan": plan, "cfg": cfg}

    def round(self, state, index):
        t0 = time.perf_counter()
        result = aeknn.pipeline.run_cv(state["data"], state["plan"], state["cfg"])
        wall = time.perf_counter() - t0
        return Round(
            wall_s=wall,
            classify_s=sum(f.classification_seconds for f in result.fold_results),
            attempted=REPS * FOLDS,
            failed=0,
            quality=(result.accuracy, result.fscore, result.auc_score),
            outcome=result,
        )

    def check(self, state, last: Round):
        data, plan, result = state["data"], state["plan"], last.outcome
        x, labels = np.asarray(data.features), np.asarray(data.labels)
        splits = list(plan.iter_splits())
        errors = checks.fold_plan("plan", plan.assignments, plan.n_folds, labels)
        errors += checks.splits_partition("plan", splits, data.n_samples)
        folds = [(f.true_labels, f.predictions, f.scores) for f in result.fold_results]
        errors += checks.compare_metrics(
            "run_cv", folds, (result.accuracy, result.fscore, result.auc_score), data.n_classes)
        # two folds, chosen by seed, get the exact kNN oracle
        rng = np.random.default_rng(state["seed"])
        for pick in rng.choice(len(splits), size=2, replace=False):
            rep, fold, train, test = splits[pick]
            where = f"rep {rep} fold {fold}"
            fold_result = result.fold_results[pick]
            if not np.array_equal(fold_result.test_indices, test):
                errors.append(f"{where}: fold result covers other rows than the plan")
            if self.reducer == "identity":
                refs, queries = checks.minmax(x[train], x[train]), checks.minmax(x[train], x[test])
            else:
                refs, queries, histories = self._ae_codes(state, rep, fold, train, test)
                errors += checks.loss_falls(where, histories)
            errors += checks.compare_knn(
                where, fold_result.predictions, fold_result.scores,
                refs, labels[train], queries, K, data.n_classes)
        return errors

    @staticmethod
    def _ae_codes(state, rep, fold, train, test):
        """Codes of the fold's rows and the per-layer loss histories of an
        autoencoder refitted through the public functions with the seed
        `run_cv` derives for the fold."""
        data, cfg = state["data"], state["cfg"]
        x = np.asarray(data.features)
        fold_seed = int(np.random.SeedSequence([cfg.train_cfg.seed, rep, fold]).generate_state(1)[0])
        fold_cfg = replace(cfg, train_cfg=replace(cfg.train_cfg, seed=fold_seed))
        _, reducer = aeknn.pipeline.fit_fold_model(data.subset(train), fold_cfg)
        refs = reducer.transform(checks.minmax(x[train], x[train]))
        queries = reducer.transform(checks.minmax(x[train], x[test]))
        return refs, queries, reducer.stack.loss_histories


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def _load_dataset(path):
    """Features and first-appearance label indices, parsed apart from aeknn."""
    rows = _read_csv(path)
    features = np.array([[float(v) for v in row[:-1]] for row in rows])
    index = {}
    labels = np.array([index.setdefault(row[-1], len(index)) for row in rows], dtype=np.int64)
    return features, labels, len(index)


class EvalWorkload:
    """`aeknn eval` over two CSV files with three baseline configurations,
    then `aeknn stats`: Friedman on the produced accuracy matrix and on the
    bundled reducer-comparison accuracy table (the produced matrix has two
    rows, whose statistic is often exactly 0), and Wilcoxon on the bundled
    classification-time table."""

    name = "eval-baselines"
    shapes = (inputs.IMAGE, inputs.COIL)

    def setup(self, seed, workdir):
        data_dir = os.path.join(workdir, "inputs")
        os.makedirs(data_dir, exist_ok=True)
        paths = []
        for shape in self.shapes:
            features, labels = inputs.generate(shape, seed)
            path = os.path.join(data_dir, f"{shape.name}.csv")
            inputs.write_csv(shape, features, labels, path)
            paths.append(path)
        ini = os.path.join(data_dir, "baselines.ini")
        with open(ini, "w", encoding="utf-8") as handle:
            handle.write(f"[defaults]\nk = {K}\nreps = {EVAL_REPS}\nfolds = {FOLDS}\n")
            for label, body in EVAL_CONFIGS.items():
                handle.write(f"\n[config:{label}]\n{body}\n")
        return {"seed": seed, "paths": paths, "ini": ini, "workdir": workdir,
                "time_table": str(aeknn.tables.reference_path("knn_comparison_time")),
                "accuracy_table": str(aeknn.tables.reference_path("reducer_comparison_accuracy"))}

    def round(self, state, index):
        out = os.path.join(state["workdir"], f"eval-{index}")
        shutil.rmtree(os.path.join(state["workdir"], f"eval-{index - 1}"), ignore_errors=True)
        argv = ["eval", "--config", state["ini"], "--seed", str(state["seed"]), "--out", out]
        for path in state["paths"]:
            argv += ["--dataset", path]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes = [
                aeknn.cli.main(argv),
                aeknn.cli.main(["stats", "--matrix", os.path.join(out, "accuracy.csv"),
                                "--test", "friedman", "--direction", "higher",
                                "--out", os.path.join(out, "friedman.csv")]),
                aeknn.cli.main(["stats", "--matrix", state["accuracy_table"], "--test", "friedman",
                                "--direction", "higher",
                                "--out", os.path.join(out, "friedman_reference.csv")]),
                aeknn.cli.main(["stats", "--matrix", state["time_table"], "--test", "wilcoxon",
                                "--baseline", "knn", "--out", os.path.join(out, "wilcoxon.csv")]),
            ]
        wall = time.perf_counter() - t0
        cells = self._cells(out)
        ok = [c for c in cells.values() if c.get("status") == "ok"]
        n_cells = len(self.shapes) * len(EVAL_CONFIGS)
        quality = tuple(float(np.mean([c["metrics"][m] for c in ok]))
                        for m in ("accuracy", "fscore", "auc")) if ok else (0.0, 0.0, 0.0)
        return Round(
            wall_s=wall,
            # the program reports a per-fold mean per cell; the total is mean x folds
            classify_s=sum(c["metrics"]["time"] * EVAL_REPS * FOLDS for c in ok),
            attempted=n_cells + len(codes) - 1,
            failed=(n_cells - len(ok)) + sum(code != 0 for code in codes[1:]),
            quality=quality,
            outcome={"out": out, "cells": cells},
        )

    @staticmethod
    def _cells(out):
        try:
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
                return json.load(handle)["cells"]
        except (OSError, ValueError, KeyError):
            return {}

    def check(self, state, last: Round):
        out, cells = last.outcome["out"], last.outcome["cells"]
        errors = []
        matrices = {m: _read_csv(os.path.join(out, f"{m}.csv"))
                    for m in ("accuracy", "fscore", "auc")}
        rng = np.random.default_rng(state["seed"])
        for d_index, (shape, path) in enumerate(zip(self.shapes, state["paths"])):
            x, labels, n_classes = _load_dataset(path)
            plan_rows = _read_csv(os.path.join(out, "folds", f"{shape.name}.plan"))
            assignments = np.array([[int(v) for v in row[0].split()] for row in plan_rows[1:]])
            errors += checks.fold_plan(f"{shape.name} plan", assignments, FOLDS, labels)
            for c_index, label in enumerate(EVAL_CONFIGS):
                where = f"{shape.name} x {label}"
                if cells.get(f"{shape.name}::{label}", {}).get("status") != "ok":
                    errors.append(f"{where}: cell failed")
                    continue
                audit = np.array(_read_csv(os.path.join(out, "folds", f"{shape.name}__{label}.csv"))[1:],
                                 dtype=np.float64)
                folds = []
                for rep in range(EVAL_REPS):
                    for fold in range(FOLDS):
                        rows = audit[(audit[:, 0] == rep) & (audit[:, 1] == fold)]
                        folds.append((rows[:, 3].astype(int), rows[:, 4].astype(int), rows[:, 5:]))
                reported = tuple(float(matrices[m][1 + d_index][1 + c_index]) for m in matrices)
                errors += checks.compare_metrics(where, folds, reported, n_classes)
                if label != "knn":
                    continue
                for fold_no in rng.choice(EVAL_REPS * FOLDS, size=2, replace=False):
                    rep, fold = divmod(int(fold_no), FOLDS)
                    rows = audit[(audit[:, 0] == rep) & (audit[:, 1] == fold)]
                    test = rows[:, 2].astype(int)
                    train = np.flatnonzero(assignments[rep] != fold)
                    if not np.array_equal(np.sort(test), np.flatnonzero(assignments[rep] == fold)):
                        errors.append(f"{where} rep {rep} fold {fold}: audit rows differ from the plan")
                    errors += checks.compare_knn(
                        f"{where} rep {rep} fold {fold}", rows[:, 4].astype(int), rows[:, 5:],
                        checks.minmax(x[train], x[train]), labels[train],
                        checks.minmax(x[train], x[test]), K, n_classes)
            train = np.flatnonzero(assignments[0] != 0)
            normalized = checks.minmax(x[train], x[train])
            model = aeknn.reducers.fit_pca(normalized, target_dim=1)
            errors += checks.pca_eigenvalues(f"{shape.name} rep 0 fold 0", normalized,
                                             model.eigenvalues)
        errors += self._check_friedman(os.path.join(out, "friedman.csv"), matrices["accuracy"])
        errors += self._check_friedman(os.path.join(out, "friedman_reference.csv"),
                                       _read_csv(state["accuracy_table"]))
        errors += self._check_wilcoxon(os.path.join(out, "wilcoxon.csv"), state["time_table"])
        return errors

    @staticmethod
    def _check_friedman(report_path, matrix_rows):
        report = {row[0]: row[1] for row in _read_csv(report_path)[1:]}
        columns = matrix_rows[0][1:]
        values = np.array([[float(v) for v in row[1:]] for row in matrix_rows[1:]])
        return checks.friedman(os.path.basename(report_path), values, float(report["statistic"]),
                               float(report["p_value"]), [float(report[c]) for c in columns])

    @staticmethod
    def _check_wilcoxon(report_path, time_table):
        errors = []
        table = _read_csv(time_table)
        header = table[0]
        body = np.array([[float(v) for v in row[1:]] for row in table[1:]])
        compared = 0
        for a, b, stat, p in _read_csv(report_path)[1:]:
            col_a, col_b = header.index(a) - 1, header.index(b) - 1
            found, done = checks.wilcoxon(f"wilcoxon {a} vs {b}", body[:, col_a], body[:, col_b],
                                          float(stat), float(p))
            errors += found
            compared += done
        if compared == 0:
            errors.append("wilcoxon: no pair of the time table could be held to scipy")
        return errors


WORKLOADS = {
    "ae-semeion": CvWorkload("ae-semeion", "ae"),
    "knn-semeion": CvWorkload("knn-semeion", "identity"),
    "eval-baselines": EvalWorkload(),
}
