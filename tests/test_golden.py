"""Byte fingerprint of the pipeline's outputs, held still from one commit to
the next by the sha256s in `golden.json`.

Fingerprinted runs, all on data from `synth.py`:

- `run_cv` of identity kNN, PCA, LDA, a one-layer autoencoder and the
  stacked `ae_1.5-0.25-1.5` on a 600-row semeion-shaped set over a 2 x 5
  plan, at `workers` 1 and 2 (which must give one hash): every fold's
  predictions, vote fractions and test indices, then the three metric
  means;
- the codes of the first fold's test rows under the normalizer and reducer
  `fit_fold_model` fits on its training rows, for each of those five: the
  run's predictions and scores are decisions, which a change in the last
  bits of a weight seldom flips, but the codes show it;
- `save_reducer`'s file of each of those five reducers (`np.savez` stamps
  its zip members 1980-01-01, so the bytes are stable);
- one `aeknn eval` run over a four-class set of 0/1 pixels and a two-class
  set: the accuracy, fscore and auc matrices, every audit CSV and each plan
  sidecar, file by file (the time matrix and the manifest hold timings);
- two `aeknn stats` reports on bundled tables, as written by `--out`: a
  Friedman test of `ppl_sweep_accuracy` and Wilcoxon tests of every
  `knn_comparison_time` column against `knn`.

Identity kNN, the plans and the metrics call no BLAS and no transcendental
function, so their hashes are compared on any machine. PCA, LDA and the
autoencoder depend on the numpy build, its SIMD dispatch targets (the
sigmoid's `exp` has CPU-specific kernels) and the BLAS and its core; their
hashes, and the reducer files numpy writes, are compared only where those
recorded facts match this machine's, and are skipped, naming the fact that
differs, elsewhere. The stats reports take their p-values from scipy's
special functions, so they are compared only where the scipy version
matches.

A change that moves bytes by design regenerates the file,

    PYTHONPATH=src python tests/test_golden.py

which prints each hash that moved as `section/name: old -> new` and each
recorded fact that changed as `facts/name: old -> new`; the change names
every one of them, with the reason.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from aeknn.autoencoder import TrainConfig
from aeknn.cli import main
from aeknn.dataset import Dataset, make_folds
from aeknn.pipeline import PipelineConfig, _openblas_libraries, fit_fold_model, run_cv
from aeknn.reducers import save_reducer
from aeknn.tables import reference_path

import synth

GOLDEN_PATH = Path(__file__).with_name("golden.json")
AE_TRAIN = TrainConfig(epochs=3, learning_rate=1.0)
RUN_CV = {
    "knn": PipelineConfig(reducer="identity"),
    "pca_0.5": PipelineConfig(reducer="pca", ppl=(0.5,)),
    "lda_0.5": PipelineConfig(reducer="lda", ppl=(0.5,)),
    "ae_0.25": PipelineConfig(reducer="ae", ppl=(0.25,), train_cfg=AE_TRAIN),
    "ae_1.5-0.25-1.5": PipelineConfig(reducer="ae", ppl=(1.5, 0.25, 1.5), train_cfg=AE_TRAIN),
}
STATS = {  # report -> the bundled table `aeknn stats` reads, and its test
    "friedman_ppl_sweep_accuracy": ("ppl_sweep_accuracy", ["--test", "friedman"]),
    "wilcoxon_knn_comparison_time": ("knn_comparison_time",
                                     ["--test", "wilcoxon", "--baseline", "knn"]),
}
FLOAT_FACTS = ("numpy", "simd", "blas")
EVAL_INI = (
    "[defaults]\nepochs = 3\nlr = 1.0\n\n"
    "[config:knn]\nreducer = identity\n\n"
    "[config:pca_0.5]\nreducer = pca\nppl = 0.5\n\n"
    "[config:lda_0.5]\nreducer = lda\nppl = 0.5\n\n"
    "[config:ae_0.5]\nreducer = ae\nppl = 0.5\n"
)


def machine_facts() -> dict:
    """What the floating-point results of PCA, LDA and the autoencoder
    depend on: the numpy version and SIMD dispatch targets, and the BLAS
    numpy was built with and the core it runs on; and the scipy version,
    which the stats reports' p-values depend on."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "simd": config["SIMD Extensions"],
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "core": _openblas_core()},
        "scipy": scipy.__version__,
    }


def _openblas_core() -> str | None:
    """The core each loaded OpenBLAS chose at run time (a DYNAMIC_ARCH build
    picks its kernels by CPU), read through its own API; None where there is
    no OpenBLAS or it cannot be asked."""
    cores = set()
    for library, prefix, suffix in _openblas_libraries():
        function = getattr(library, f"{prefix}_get_corename{suffix}", None)
        if function is not None:
            function.restype = ctypes.c_char_p
            cores.add(function().decode())
    return ",".join(sorted(cores)) or None


def semeion_run():
    data = synth.semeion_like(seed=7)
    return data, make_folds(data, 2, 5, 7)


def run_cv_hash(label: str, workers: int) -> str:
    data, plan = semeion_run()
    result = run_cv(data, plan, RUN_CV[label], workers=workers)
    digest = hashlib.sha256()
    for fold in result.fold_results:
        digest.update(np.asarray(fold.predictions, dtype="<i8").tobytes())
        digest.update(np.asarray(fold.scores, dtype="<f8").tobytes())
        digest.update(np.asarray(fold.test_indices, dtype="<i8").tobytes())
    digest.update(np.array([result.accuracy, result.fscore, result.auc_score], "<f8").tobytes())
    return digest.hexdigest()


@functools.cache
def first_fold_fit(label: str):
    """The reducer `fit_fold_model` fits on the first fold's training rows,
    and that fold's test rows under the normalizer it fits with it; cached,
    so the codes and the reducer file share one fit."""
    data, plan = semeion_run()
    _, _, train_idx, test_idx = next(plan.iter_splits())
    stats, reducer = fit_fold_model(data.subset(train_idx), RUN_CV[label])
    return reducer, stats.apply(data.subset(test_idx).features)


def codes_hash(label: str) -> str:
    reducer, test_rows = first_fold_fit(label)
    codes = reducer.transform(test_rows)
    return hashlib.sha256(np.asarray(codes, dtype="<f8").tobytes()).hexdigest()


def reducer_file_hash(label: str) -> str:
    reducer, _ = first_fold_fit(label)
    file = io.BytesIO()
    save_reducer(reducer, file)
    return hashlib.sha256(file.getvalue()).hexdigest()


def stats_hash(name: str, out: Path) -> str:
    """sha256 of the `--out` report of the `aeknn stats` run `STATS[name]`."""
    table, test = STATS[name]
    assert main(["stats", "--matrix", str(reference_path(table)), *test, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def eval_hashes(out: Path) -> dict[str, str]:
    """sha256 of each metric matrix, audit CSV and plan sidecar of one
    `aeknn eval` run written under `out`."""
    # 0/1 pixels, as semeion's: squared distances are Hamming counts, so
    # they tie exactly and often
    pixels = synth.semeion_like(n_samples=200, n_features=24, n_classes=4, rank=4, seed=3)
    datasets = [
        Dataset(np.where(pixels.features > 0.5, 1.0, 0.0), pixels.labels, pixels.class_names,
                "binary"),
        synth.semeion_like(n_samples=150, n_features=16, n_classes=2, rank=3, seed=4,
                           name="pair"),
    ]
    out.mkdir(parents=True)
    argv = ["eval", "--config", str(out / "exp.ini"), "--seed", "5", "--jobs", "2",
            "--out", str(out / "results")]
    (out / "exp.ini").write_text(EVAL_INI, encoding="utf-8")
    for data in datasets:
        synth.write_csv(data, out / f"{data.name}.csv")
        argv += ["--dataset", str(out / f"{data.name}.csv")]
    assert main(argv) == 0
    results = out / "results"
    files = [results / f"{metric}.csv" for metric in ("accuracy", "fscore", "auc")]
    files += sorted((results / "folds").iterdir())
    return {
        path.relative_to(results).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in files
    }


def portable(name: str) -> bool:
    """Whether a case's bytes are the same on any machine: identity kNN's
    runs, codes and audits, and the plans."""
    return name == "knn" or name.endswith(("__knn.csv", ".plan"))


def skip_unless_recorded(*facts: str) -> None:
    """Skip where one of `facts` differs from golden.json's, naming it."""
    recorded, here = GOLDEN["facts"], machine_facts()
    for fact in facts:
        if recorded[fact] != here[fact]:
            pytest.skip(f"{fact} differs from golden.json's: {here[fact]} here, "
                        f"{recorded[fact]} recorded")


def skip_unless_same_machine(name: str) -> None:
    if not portable(name):
        skip_unless_recorded(*FLOAT_FACTS)


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
SECTIONS = ("run_cv", "codes", "reducer_file", "eval", "stats")


def golden_changes(old: dict, new: dict) -> list[str]:
    """One line per recorded fact that differs between two golden.json
    contents, then one per hash that moved, appeared or went (`None` on the
    side that lacks it), as `section/name: old -> new`."""
    lines = [f"facts/{name}: {old['facts'].get(name)} -> {new['facts'].get(name)}"
             for name in sorted(set(old["facts"]) | set(new["facts"]))
             if old["facts"].get(name) != new["facts"].get(name)]
    for section in SECTIONS:
        before, after = old.get(section, {}), new.get(section, {})
        lines += [f"{section}/{name}: {before.get(name)} -> {after.get(name)}"
                  for name in sorted(set(before) | set(after))
                  if before.get(name) != after.get(name)]
    return lines


def test_golden_changes_names_each_moved_hash_and_fact():
    old = {"facts": {"numpy": "2.4.6", "scipy": "1.17.1"},
           "run_cv": {"knn": "aa", "ae_0.25": "bb"}, "codes": {"knn": "cc"}}
    new = {"facts": {"numpy": "2.4.6", "scipy": "1.18.0"},
           "run_cv": {"knn": "aa", "ae_0.25": "dd"}, "codes": {"pca_0.5": "ee"}}
    assert golden_changes(old, new) == [
        "facts/scipy: 1.17.1 -> 1.18.0",
        "run_cv/ae_0.25: bb -> dd",
        "codes/knn: cc -> None",
        "codes/pca_0.5: None -> ee",
    ]
    assert golden_changes(GOLDEN, GOLDEN) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label", list(RUN_CV))
def test_run_cv_bytes(label, workers):
    skip_unless_same_machine(label)
    assert run_cv_hash(label, workers) == GOLDEN["run_cv"][label]


@pytest.mark.parametrize("label", list(RUN_CV))
def test_codes_bytes(label):
    skip_unless_same_machine(label)
    assert codes_hash(label) == GOLDEN["codes"][label]


@pytest.mark.parametrize("label", list(RUN_CV))
def test_reducer_file_bytes(label):
    # numpy writes the file, so even the identity's bytes need its version
    skip_unless_recorded(*FLOAT_FACTS)
    assert reducer_file_hash(label) == GOLDEN["reducer_file"][label]


@pytest.mark.parametrize("name", list(STATS))
def test_stats_report_bytes(name, tmp_path):
    skip_unless_recorded("scipy")
    assert stats_hash(name, tmp_path / "report.csv") == GOLDEN["stats"][name]


@pytest.fixture(scope="module")
def eval_run(tmp_path_factory):
    return eval_hashes(tmp_path_factory.mktemp("golden") / "eval")


def test_eval_writes_the_fingerprinted_files(eval_run):
    assert sorted(eval_run) == sorted(GOLDEN["eval"])


@pytest.mark.parametrize("name", sorted(GOLDEN["eval"]))
def test_eval_bytes(eval_run, name):
    skip_unless_same_machine(name)
    assert eval_run[name] == GOLDEN["eval"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            "regenerate": "PYTHONPATH=src python tests/test_golden.py",
            "facts": machine_facts(),
            "run_cv": {label: run_cv_hash(label, 1) for label in RUN_CV},
            "codes": {label: codes_hash(label) for label in RUN_CV},
            "reducer_file": {label: reducer_file_hash(label) for label in RUN_CV},
            "eval": eval_hashes(Path(tmp) / "eval"),
            "stats": {name: stats_hash(name, Path(tmp) / f"{name}.csv") for name in STATS},
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    for line in golden_changes(GOLDEN, golden):
        print(line)
    print(f"wrote {GOLDEN_PATH}")
