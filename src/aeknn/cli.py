"""Command-line front end.

Subcommands:
  eval      run cross-validated experiments over datasets x configurations
            and emit per-metric result tables, per-fold audit files and a
            run manifest. Dataset-major: each CSV is parsed once and its fold
            plan built once, and every configuration's cell runs on that
            shared pair, one cell after another in this process; --jobs caps
            the processes `run_cv` fits a cell's folds in. A parse or plan
            failure fails all of that dataset's cells
  stats     Friedman or Wilcoxon analysis of a labeled result-matrix CSV
  plotdata  flatten a manifest into plot-ready (dataset, configuration,
            value) files, one per metric

Every emitted byte is determined by the arguments plus the --seed value.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .autoencoder import TrainConfig
from .dataset import Dataset, FoldPlan, load_csv, make_folds
from .pipeline import PipelineConfig, run_cv, usable_cpus
from .stats import ResultMatrix, friedman, wilcoxon_signed_rank

METRICS = ("accuracy", "fscore", "auc", "time")


def parse_ppl(text: str) -> tuple[float, ...]:
    """Parse a layer spec like '0.75' or '1.5,0.25,1.5' (parentheses allowed)."""
    cleaned = text.strip().strip("()")
    parts = [p for p in cleaned.replace(";", ",").split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty ppl spec {text!r}")
    fractions = tuple(float(p) for p in parts)
    if not all(math.isfinite(f) and f > 0 for f in fractions):
        raise ValueError(f"ppl fractions must be positive and finite: {text!r}")
    return fractions


@dataclass(frozen=True)
class ExperimentSpec:
    datasets: tuple[str, ...]
    dataset_names: tuple[str, ...]  # file stems, distinct
    configs: tuple[tuple[str, PipelineConfig], ...]  # (label, config)
    repetitions: int
    folds: int
    seed: int
    jobs: int | None  # None: the usable CPUs
    out_dir: str
    has_header: bool
    label_column: int | None
    positive: int

    def resolved(self) -> dict:
        return {
            "datasets": list(self.datasets),
            "configs": [
                {
                    "label": label,
                    "reducer": cfg.reducer,
                    "ppl": list(cfg.ppl),
                    "target_dim": cfg.target_dim,
                    "k": cfg.k,
                    "epochs": cfg.train_cfg.epochs,
                    "batch_size": cfg.train_cfg.batch_size,
                    "learning_rate": cfg.train_cfg.learning_rate,
                }
                for label, cfg in self.configs
            ],
            "repetitions": self.repetitions,
            "folds": self.folds,
            "seed": self.seed,
            "has_header": self.has_header,
            "label_column": self.label_column,
            "positive": self.positive,
        }


def _atomic_write(path: str, content: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(content)
    os.replace(tmp, path)


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeknn",
        description="autoencoder-reduced kNN classification, evaluation and statistics",
    )
    parser.add_argument("--version", action="version", version=f"aeknn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="run cross-validated experiments")
    ev.add_argument("--dataset", action="append", default=[], help="CSV path (repeatable)")
    ev.add_argument("--config", help="INI experiment file; flags win over file values")
    ev.add_argument("--reducer", choices=["ae", "pca", "lda", "identity"], default=None)
    ev.add_argument("--ppl", default=None, help="layer fractions, e.g. 0.75 or 1.5,0.25,1.5")
    ev.add_argument("--k", type=int, default=None, help="neighbors (default 5)")
    ev.add_argument("--reps", type=int, default=None, help="CV repetitions (default 2)")
    ev.add_argument("--folds", type=int, default=None, help="folds per repetition (default 5)")
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--epochs", type=int, default=None)
    ev.add_argument("--batch-size", type=int, default=None)
    ev.add_argument("--lr", type=float, default=None)
    ev.add_argument(
        "--jobs", type=int, default=None,
        help="at most N processes fit folds at once (default: the usable CPUs)",
    )
    ev.add_argument("--out", default="results")
    ev.add_argument("--header", action="store_true", help="datasets carry a header row")
    ev.add_argument("--label-column", type=int, default=None, help="default: last column")
    ev.add_argument("--positive-class", type=int, default=1)

    st = sub.add_parser("stats", help="statistical tests over a result matrix CSV")
    st.add_argument("--matrix", required=True, help="labeled CSV (rows=datasets)")
    st.add_argument("--test", choices=["friedman", "wilcoxon"], required=True)
    st.add_argument("--direction", choices=["higher", "lower"], default="higher")
    st.add_argument("--form", choices=["chi2", "iman-davenport"], default="chi2")
    st.add_argument("--columns", help="comma-separated column subset / wilcoxon pair")
    st.add_argument("--baseline", help="wilcoxon: compare every other column to this one")
    st.add_argument("--out", help="also write the report as CSV")

    pl = sub.add_parser("plotdata", help="emit plot-ready files from a manifest")
    pl.add_argument("--manifest", required=True)
    pl.add_argument("--out", default="plotdata")
    return parser


# the keys each experiment-file section may hold; [config:<label>] sections
# share one set
_INI_KEYS = {
    "defaults": ("k", "reps", "folds", "epochs", "batch_size", "lr", "datasets"),
    "config": ("reducer", "ppl", "target_dim", "k"),
}


def _read_ini(path: str) -> configparser.ConfigParser:
    """The experiment file, read once; a file configparser cannot parse, a
    section other than [defaults] and [config:<label>], or a key its section
    cannot hold, is an error naming it and the file."""
    # no header can name an empty section, so [DEFAULT] is a section like
    # any other here, not configparser's one shared by all
    ini = configparser.ConfigParser(default_section="")
    try:  # utf-8-sig drops a leading byte-order mark, as `load_csv` does
        if not ini.read(path, encoding="utf-8-sig"):
            raise ValueError(f"cannot read experiment file {path}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    for section in ini.sections():
        kind = "config" if section.startswith("config:") else section
        if kind not in _INI_KEYS:
            raise ValueError(
                f"{path}: unknown section [{section}]; sections are [defaults] and "
                "[config:<label>]"
            )
        for key in ini[section]:
            if key not in _INI_KEYS[kind]:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
    return ini


def _configs_from_ini(
    ini: configparser.ConfigParser, base_train: TrainConfig, k: int
) -> list[tuple[str, PipelineConfig]]:
    configs = []
    for section in ini.sections():
        if not section.startswith("config:"):
            continue
        label = section.split(":", 1)[1].strip()
        body = ini[section]
        reducer = body.get("reducer", "ae").strip()
        ppl = parse_ppl(body.get("ppl", "0.75"))
        target_dim = body.getint("target_dim", fallback=None)
        cfg = PipelineConfig(
            reducer=reducer,
            ppl=ppl,
            k=body.getint("k", fallback=k),
            train_cfg=base_train,
            target_dim=target_dim,
        )
        configs.append((label or cfg.label(), cfg))
    return configs


# a configuration label heads a column, and a dataset's file stem a row, of
# result CSVs written unquoted
_CSV_UNSAFE = frozenset(',"\r\n')


def _resolve_spec(args) -> ExperimentSpec:
    ini = _read_ini(args.config) if args.config else configparser.ConfigParser()
    file_defaults = ini["defaults"] if ini.has_section("defaults") else {}

    def pick(flag_value, key, fallback, parse=int):
        # the file's value is parsed even when a flag wins, so a bad one fails
        value = parse(file_defaults[key]) if key in file_defaults else fallback
        return value if flag_value is None else flag_value

    k = pick(args.k, "k", 5)
    reps = pick(args.reps, "reps", 2)
    folds = pick(args.folds, "folds", 5)
    learning_rate = pick(args.lr, "lr", 0.01, parse=float)
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if not (math.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"--lr must be non-negative and finite, got {learning_rate}")
    train_cfg = TrainConfig(
        epochs=pick(args.epochs, "epochs", 50),
        batch_size=pick(args.batch_size, "batch_size", 32),
        learning_rate=learning_rate,
        seed=args.seed,
    )
    datasets = list(args.dataset) or [
        p.strip() for p in file_defaults.get("datasets", "").split(",") if p.strip()
    ]
    if not datasets:
        raise ValueError("no datasets given (use --dataset or the experiment file)")

    configs = _configs_from_ini(ini, train_cfg, k)
    if args.reducer is not None or args.ppl is not None or not configs:
        cfg = PipelineConfig(
            reducer=args.reducer or "ae",
            ppl=parse_ppl(args.ppl) if args.ppl else (0.75,),
            k=k,
            train_cfg=train_cfg,
        )
        configs.append((cfg.label(), cfg))
    labels = [label for label, _ in configs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate configuration labels: {labels}")
    stems: dict[str, str] = {}  # file stem -> its path
    for path in datasets:
        stem = os.path.splitext(os.path.basename(path))[0]
        if stem in stems:
            raise ValueError(
                f"datasets {stems[stem]} and {path} share the file stem {stem!r}, "
                "which names their result rows and audit files"
            )
        stems[stem] = path
    named = [("configuration label", label) for label in labels]
    named += [(f"dataset {path}: file stem", stem) for stem, path in stems.items()]
    for what, name in named:
        if _CSV_UNSAFE.intersection(name):
            raise ValueError(
                f"{what} {name!r} holds a comma, quote or line break, "
                "which the result CSVs cannot carry"
            )
    for label in labels:
        if "/" in label:
            raise ValueError(
                f"configuration label {label!r} holds a '/', "
                "which its audit file names cannot carry"
            )
    for stem, path in stems.items():
        if "::" in stem:
            raise ValueError(
                f"dataset {path}: file stem {stem!r} holds '::', which ends the dataset "
                "in the manifest's cell keys"
            )
    audits: dict[str, str] = {}  # audit file name -> its cell
    for stem in stems:
        for label in labels:
            audit, cell = _audit_name(stem, label), f"{stem} x {label}"
            if audit in audits:
                raise ValueError(
                    f"cells {audits[audit]} and {cell} share the audit file folds/{audit}"
                )
            audits[audit] = cell
    if reps < 1:
        raise ValueError(f"--reps must be >= 1, got {reps}")
    if folds < 2:
        raise ValueError(f"--folds must be >= 2, got {folds}")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if args.positive_class not in (0, 1):
        raise ValueError(
            f"--positive-class must be 0 or 1 (a binary problem's classes), "
            f"got {args.positive_class}"
        )
    return ExperimentSpec(
        datasets=tuple(datasets),
        dataset_names=tuple(stems),
        configs=tuple(configs),
        repetitions=reps,
        folds=folds,
        seed=args.seed,
        jobs=args.jobs,
        out_dir=args.out,
        has_header=args.header,
        label_column=args.label_column,
        positive=args.positive_class,
    )


def _audit_name(dataset: str, label: str) -> str:
    """The file under `folds/` that holds a cell's per-row audit."""
    return f"{dataset}__{label}.csv"


def _run_cell(
    data: Dataset, plan: FoldPlan, cfg: PipelineConfig, spec: ExperimentSpec, audit_path: str
) -> dict:
    """One (dataset, configuration) cell on its dataset's shared parse and
    fold plan: its audit CSV is written at once, and its manifest entry
    returned."""
    result = run_cv(data, plan, cfg, positive=spec.positive, workers=spec.jobs)
    audit = ["repetition,fold,row_id,true_label,predicted_label," + ",".join(
        f"score_{c}" for c in data.class_names
    )]
    for fold_no, fold in enumerate(result.fold_results):
        rep, fold_idx = divmod(fold_no, plan.n_folds)
        for row_id, true, predicted, scores in zip(
            fold.test_indices.tolist(), fold.true_labels.tolist(),
            fold.predictions.tolist(), fold.scores.tolist(),
        ):
            audit.append(
                f"{rep},{fold_idx},{row_id},{true},{predicted}," + ",".join(map(repr, scores))
            )
    _atomic_write(audit_path, "\n".join(audit) + "\n")
    return {
        "status": "ok",
        "metrics": {
            "accuracy": result.accuracy,
            "fscore": result.fscore,
            "auc": result.auc_score,
            "time": result.classification_seconds,
        },
        "fit_seconds": result.fit_seconds,
        "fold_workers": result.fold_workers,
        "fold_plan_fingerprint": plan.fingerprint(),
    }


def _matrix_csv(datasets, labels, cells, metric) -> str:
    lines = ["dataset," + ",".join(labels)]
    for ds in datasets:
        row = [ds]
        for label in labels:
            cell = cells.get((ds, label))
            if cell is None or cell.get("status") != "ok":
                row.append("nan")
            else:
                row.append(repr(float(cell["metrics"][metric])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    spec = _resolve_spec(args)
    folds_dir = os.path.join(spec.out_dir, "folds")
    os.makedirs(folds_dir, exist_ok=True)
    labels = [label for label, _ in spec.configs]

    # dataset-major: each CSV is parsed and its fold plan built once, and
    # every configuration's cell runs on that shared pair, one cell after
    # another, so each cell's classification is timed with no other cell at
    # work; only run_cv's fold workers run side by side
    cells: dict[tuple[str, str], dict] = {}
    any_failed = False
    for path, ds in zip(spec.datasets, spec.dataset_names):
        data = plan = None  # the last dataset's pair goes before this one is parsed
        try:
            data = load_csv(path, label_column=spec.label_column, has_header=spec.has_header)
            plan = make_folds(data, spec.repetitions, spec.folds, spec.seed)
        except Exception as exc:  # fails every cell of this dataset
            failure = exc
        for label, cfg in spec.configs:
            key = (ds, label)
            try:
                if plan is None:
                    raise failure
                cells[key] = _run_cell(
                    data, plan, cfg, spec, os.path.join(folds_dir, _audit_name(ds, label))
                )
            except Exception as exc:  # cell failures are reported, not fatal
                any_failed = True
                cells[key] = {"status": "failed", "reason": f"{type(exc).__name__}: {exc}"}
                print(f"FAILED {ds} x {label}: {cells[key]['reason']}", file=sys.stderr)
        # one sidecar per dataset with at least one finished cell
        if any(cells[(ds, label)]["status"] == "ok" for label in labels):
            _atomic_write(os.path.join(folds_dir, f"{ds}.plan"), plan.to_text())

    for metric in METRICS:
        _atomic_write(
            os.path.join(spec.out_dir, f"{metric}.csv"),
            _matrix_csv(spec.dataset_names, labels, cells, metric),
        )

    fingerprint = hashlib.sha256()
    fingerprint.update(__version__.encode())
    fingerprint.update(json.dumps(spec.resolved(), sort_keys=True).encode())
    for path in spec.datasets:
        fingerprint.update(_file_sha256(path).encode())
    manifest = {
        "version": __version__,
        "spec": spec.resolved(),
        "fingerprint": fingerprint.hexdigest(),
        "nproc": usable_cpus(),
        "cells": {f"{ds}::{label}": cell for (ds, label), cell in sorted(cells.items())},
    }
    _atomic_write(
        os.path.join(spec.out_dir, "manifest.json"),
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {spec.out_dir}/manifest.json ({len(cells)} cells)")
    return 1 if any_failed else 0


def cmd_stats(args) -> int:
    matrix = ResultMatrix.from_csv(args.matrix)
    if args.columns:
        wanted = [c.strip() for c in args.columns.split(",") if c.strip()]
        matrix_for_test = matrix.select_columns(wanted) if args.test == "friedman" else matrix
    else:
        wanted = None
        matrix_for_test = matrix

    out_lines = []
    if args.test == "friedman":
        form = "iman_davenport" if args.form == "iman-davenport" else "chi2"
        report = friedman(matrix_for_test, direction=args.direction, form=form)
        order = np.argsort(report.avg_ranks)
        print(f"{report.method}: statistic={report.statistic:.6f} p={report.p_value:.6f}")
        out_lines.append("column,avg_rank")
        for idx in order:
            label = report.rank_labels[idx]
            print(f"  {label:<24} avg rank {report.avg_ranks[idx]:.3f}")
            out_lines.append(f"{label},{report.avg_ranks[idx]!r}")
        out_lines.append(f"statistic,{report.statistic!r}")
        out_lines.append(f"p_value,{report.p_value!r}")
    else:
        pairs = []
        if wanted is not None:
            if len(wanted) != 2:
                raise ValueError("--columns for wilcoxon needs exactly two labels")
            pairs.append((wanted[0], wanted[1]))
        elif args.baseline:
            others = [c for c in matrix.col_labels if c != args.baseline]
            if not others:
                raise ValueError("baseline leaves nothing to compare against")
            pairs.extend((args.baseline, other) for other in others)
        else:
            raise ValueError("wilcoxon needs --columns a,b or --baseline")
        out_lines.append("a,b,statistic,p_value")
        for a, b in pairs:
            report = wilcoxon_signed_rank(matrix.column(a), matrix.column(b))
            if math.isnan(report.p_value):
                print(f"  {a} vs {b}: undefined (all differences zero)")
                out_lines.append(f"{a},{b},nan,nan")
            else:
                print(f"  {a} vs {b}: W={report.statistic:g} p={report.p_value:.6f}  [{report.method}]")
                out_lines.append(f"{a},{b},{report.statistic!r},{report.p_value!r}")
    if args.out:
        _atomic_write(args.out, "\n".join(out_lines) + "\n")
    return 0


def cmd_plotdata(args) -> int:
    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    os.makedirs(args.out, exist_ok=True)
    for metric in METRICS:
        lines = ["dataset,configuration,value"]
        for key in sorted(manifest.get("cells", {})):
            cell = manifest["cells"][key]
            if cell.get("status") != "ok":
                continue
            dataset, configuration = key.split("::", 1)
            lines.append(f"{dataset},{configuration},{cell['metrics'][metric]!r}")
        _atomic_write(os.path.join(args.out, f"plot_{metric}.csv"), "\n".join(lines) + "\n")
    print(f"wrote plot data for {len(METRICS)} metrics to {args.out}/")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "stats":
            return cmd_stats(args)
        return cmd_plotdata(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
