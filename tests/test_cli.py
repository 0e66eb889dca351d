import csv
import importlib.util
import json
import os
import pathlib
import sys

import numpy as np
import pytest

from aeknn import cli, dataset, pipeline
from aeknn.cli import main, parse_ppl
from aeknn.tables import reference_path

import synth

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench"
THREE_BASELINES = (
    "[config:knn]\nreducer = identity\n\n"
    "[config:pca_0.5]\nreducer = pca\nppl = 0.5\n\n"
    "[config:lda_0.5]\nreducer = lda\nppl = 0.5\n"
)
KNN_PCA_AE = (
    "[config:knn]\nreducer = identity\n\n"
    "[config:pca1]\nreducer = pca\ntarget_dim = 2\n\n"
    "[config:ae]\nreducer = ae\nppl = 0.5\n"
)


@pytest.fixture()
def blob_csvs(tmp_path):
    paths = []
    for seed, name in ((0, "alpha"), (1, "beta")):
        data = synth.gaussian_blobs(
            n_samples=80, n_classes=2, n_features=5, seed=seed, name=name
        )
        path = tmp_path / f"{name}.csv"
        synth.write_csv(data, path)
        paths.append(str(path))
    return paths


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestParsePpl:
    def test_forms(self):
        assert parse_ppl("0.75") == (0.75,)
        assert parse_ppl("(0.5)") == (0.5,)
        assert parse_ppl("1.5,0.25,1.5") == (1.5, 0.25, 1.5)

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_ppl("")
        with pytest.raises(ValueError):
            parse_ppl("0,-1")

    @pytest.mark.parametrize("text", ["inf", "0.5,nan", "(1.5,-inf)"])
    def test_rejects_non_finite_fractions(self, text):
        with pytest.raises(ValueError, match="positive and finite"):
            parse_ppl(text)


class TestEval:
    def test_single_dataset_two_configs_emits_four_matrices(self, blob_csvs, tmp_path):
        out = tmp_path / "results"
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[config:knn]\nreducer = identity\n\n"
            "[config:pca_half]\nreducer = pca\nppl = 0.5\n",
            encoding="utf-8",
        )
        code = main(
            [
                "eval",
                "--dataset", blob_csvs[0],
                "--config", str(ini),
                "--seed", "11",
                "--reps", "2",
                "--folds", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        for metric in ("accuracy", "fscore", "auc", "time"):
            rows = read_csv(out / f"{metric}.csv")
            assert rows[0] == ["dataset", "knn", "pca_half"]
            assert len(rows) == 2 and len(rows[1]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["cells"]) == {"alpha::knn", "alpha::pca_half"}
        assert all(c["status"] == "ok" for c in manifest["cells"].values())

    def test_rerun_with_same_seed_is_bit_identical_for_metric_values(
        self, blob_csvs, tmp_path
    ):
        args = [
            "eval",
            "--dataset", blob_csvs[0],
            "--reducer", "identity",
            "--seed", "3",
            "--reps", "2",
            "--folds", "4",
        ]
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        # wall-clock timings differ run to run; every metric value is exact
        for metric in ("accuracy", "fscore", "auc"):
            assert (out_a / f"{metric}.csv").read_bytes() == (
                out_b / f"{metric}.csv"
            ).read_bytes()
        audit_a = sorted(os.listdir(out_a / "folds"))
        audit_b = sorted(os.listdir(out_b / "folds"))
        assert audit_a == audit_b
        for name in audit_a:
            assert (out_a / "folds" / name).read_bytes() == (
                out_b / "folds" / name
            ).read_bytes()
        man_a = json.loads((out_a / "manifest.json").read_text())
        man_b = json.loads((out_b / "manifest.json").read_text())
        assert man_a["fingerprint"] == man_b["fingerprint"]
        for key, cell in man_a["cells"].items():
            other = man_b["cells"][key]
            for metric in ("accuracy", "fscore", "auc"):
                assert cell["metrics"][metric] == other["metrics"][metric]

    def test_fingerprint_tracks_inputs(self, blob_csvs, tmp_path):
        base = [
            "eval", "--dataset", blob_csvs[0], "--reducer", "identity",
            "--reps", "2", "--folds", "4",
        ]
        out_a = tmp_path / "fa"
        out_b = tmp_path / "fb"
        out_c = tmp_path / "fc"
        main(base + ["--seed", "3", "--out", str(out_a)])
        main(base + ["--seed", "4", "--out", str(out_b)])
        main(
            ["eval", "--dataset", blob_csvs[1], "--reducer", "identity",
             "--reps", "2", "--folds", "4", "--seed", "3", "--out", str(out_c)]
        )
        fp = lambda p: json.loads((p / "manifest.json").read_text())["fingerprint"]
        assert fp(out_a) != fp(out_b)  # spec changed (seed)
        assert fp(out_a) != fp(out_c)  # data changed

    def test_failed_cell_reported_and_partial_results_written(self, tmp_path):
        data = synth.gaussian_blobs(n_samples=30, n_classes=2, n_features=4, seed=2, name="tiny")
        path = tmp_path / "tiny.csv"
        synth.write_csv(data, path)
        out = tmp_path / "results"
        ini = tmp_path / "exp.ini"
        # folds=25 exceeds the per-class counts, so the cell must fail
        ini.write_text("[config:knn]\nreducer = identity\n", encoding="utf-8")
        code = main(
            ["eval", "--dataset", str(path), "--config", str(ini),
             "--seed", "1", "--reps", "1", "--folds", "25", "--out", str(out)]
        )
        assert code == 1
        manifest = json.loads((out / "manifest.json").read_text())
        cell = manifest["cells"]["tiny::knn"]
        assert cell["status"] == "failed"
        assert "fewer than" in cell["reason"]
        assert (out / "accuracy.csv").exists()

    def test_audit_csv_layout(self, blob_csvs, tmp_path):
        out = tmp_path / "results"
        main(
            ["eval", "--dataset", blob_csvs[0], "--reducer", "identity",
             "--seed", "5", "--reps", "1", "--folds", "4", "--out", str(out)]
        )
        rows = read_csv(out / "folds" / "alpha__knn.csv")
        assert rows[0][:5] == ["repetition", "fold", "row_id", "true_label", "predicted_label"]
        assert rows[0][5].startswith("score_")
        assert len(rows) == 81  # header + one row per sample (1 repetition)

    def test_requires_some_dataset(self, tmp_path):
        assert main(["eval", "--seed", "1", "--out", str(tmp_path / "x")]) == 2

    def test_multi_fraction_pca_is_a_usage_error(self, blob_csvs, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["eval", "--dataset", blob_csvs[0], "--reducer", "pca", "--ppl", "0.5,0.25",
                     "--seed", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: pca takes target_dim or a single")
        assert not out.exists()

    @pytest.mark.parametrize("body, key, section", [
        ("[defaults]\nepoch = 1\n\n[config:p]\nreducer = pca\nppl = 0.5\n", "epoch",
         "defaults"),
        ("[defaults]\nepochs = 1\n\n[config:p]\nreducr = pca\n", "reducr", "config:p"),
    ], ids=["defaults", "config"])
    def test_unknown_experiment_file_key_is_a_usage_error(
        self, blob_csvs, tmp_path, capsys, body, key, section
    ):
        # a misspelt key once fell back to its default: `reducr = pca` ran an
        # autoencoder under the label p, and `epoch = 1` trained 50 epochs
        ini = tmp_path / "typo.ini"
        ini.write_text(body, encoding="utf-8")
        out = tmp_path / "x"
        code = main(["eval", "--dataset", blob_csvs[0], "--config", str(ini), "--seed", "1",
                     "--reps", "1", "--folds", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown key '{key}' in section [{section}]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section", ["default", "config pca", "Defaults", "configs:p", "DEFAULT"]
    )
    def test_unknown_experiment_file_section_is_a_usage_error(
        self, blob_csvs, tmp_path, capsys, section
    ):
        # a misspelt section was once skipped whole: [default] lost its
        # settings and [config pca] its configuration; [DEFAULT] was read as
        # configparser's section shared by all, or ignored with no other
        ini = tmp_path / "typo.ini"
        ini.write_text(f"[{section}]\nreducer = pca\nppl = 0.5\n", encoding="utf-8")
        out = tmp_path / "x"
        code = main(["eval", "--dataset", blob_csvs[0], "--config", str(ini), "--seed", "1",
                     "--reps", "1", "--folds", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{ini}: unknown section [{section}]" in err
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        "k = 5\n",
        "[defaults]\nk\n",
        "[config:a]\nreducer = identity\n\n[config:a]\nreducer = pca\n",
    ], ids=["no-section-header", "no-delimiter", "duplicate-section"])
    def test_malformed_experiment_file_is_a_usage_error(
        self, blob_csvs, tmp_path, capsys, body
    ):
        # configparser's own errors once ended the run in a traceback
        ini = tmp_path / "bad.ini"
        ini.write_text(body, encoding="utf-8")
        out = tmp_path / "x"
        code = main(["eval", "--dataset", blob_csvs[0], "--config", str(ini), "--seed", "1",
                     "--reps", "1", "--folds", "4", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {ini}: ")
        assert not out.exists()

    def test_experiment_file_byte_order_mark_is_dropped(self, blob_csvs, tmp_path):
        # as a spreadsheet or Windows editor saves UTF-8; once read as part
        # of the first section header, which then failed to parse
        ini = tmp_path / "bom.ini"
        ini.write_text("\ufeff[config:knn]\nreducer = identity\n", encoding="utf-8")
        out = tmp_path / "x"
        code = main(["eval", "--dataset", blob_csvs[0], "--config", str(ini), "--seed", "1",
                     "--reps", "1", "--folds", "4", "--out", str(out)])
        assert code == 0
        assert read_csv(out / "accuracy.csv")[0] == ["dataset", "knn"]

    def test_target_dim_for_an_autoencoder_is_a_usage_error(self, blob_csvs, tmp_path, capsys):
        ini = tmp_path / "ae.ini"
        ini.write_text("[config:ae]\nreducer = ae\ntarget_dim = 10\n", encoding="utf-8")
        out = tmp_path / "x"
        code = main(["eval", "--dataset", blob_csvs[0], "--config", str(ini), "--seed", "1",
                     "--reps", "1", "--folds", "4", "--out", str(out)])
        assert code == 2
        assert "ae takes no target_dim, got 10" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"), ("--jobs", "-3"),
        ("--positive-class", "-1"), ("--positive-class", "2"), ("--positive-class", "5"),
        ("--reps", "0"), ("--reps", "-1"), ("--folds", "1"), ("--folds", "0"),
        ("--seed", "-1"), ("--lr", "inf"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, blob_csvs, tmp_path, capsys, flag, value):
        # `--jobs 0` once ran one job; `--positive-class -1` scored class 1
        # or failed, and 5 failed every two-class cell with an IndexError;
        # `--seed -1` and `--lr inf` failed every cell after writing the
        # output directory.
        # The flag under test comes last, since argparse keeps the last value.
        out = tmp_path / "x"
        code = main(["eval", "--dataset", blob_csvs[0], "--reducer", "identity",
                     "--seed", "1", "--reps", "1", "--folds", "4", "--out", str(out),
                     flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be") and f"got {value}" in err
        assert not out.exists()

    def test_datasets_sharing_a_file_stem_are_a_usage_error(self, tmp_path, capsys):
        # each stem names a result row and audit files, so the second file's
        # cells once overwrote the first's without a word
        paths = []
        for seed, folder in ((0, "a"), (1, "b")):
            (tmp_path / folder).mkdir()
            data = synth.gaussian_blobs(n_samples=40, n_classes=2, n_features=5, seed=seed)
            paths.append(tmp_path / folder / "image.csv")
            synth.write_csv(data, paths[-1])
        out = tmp_path / "x"
        code = main(["eval", "--dataset", str(paths[0]), "--dataset", str(paths[1]),
                     "--reducer", "identity", "--seed", "1", "--reps", "1", "--folds", "4",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"datasets {paths[0]} and {paths[1]} share the file stem 'image'" in err
        assert not out.exists()

    @pytest.mark.parametrize("where, name", [
        ("label", "knn,k5"), ("label", 'knn"5'),
        ("stem", "im,age"), ("stem", 'im"age'), ("stem", "im\rage"), ("stem", "im\nage"),
    ])
    def test_name_the_result_csvs_cannot_carry_is_a_usage_error(
        self, tmp_path, capsys, where, name
    ):
        # `[config:knn,k5]` with `im,age.csv` once wrote the row `im,age,...`
        # under the header `dataset,knn,k5`, a table `aeknn stats` refused
        path = tmp_path / (f"{name}.csv" if where == "stem" else "alpha.csv")
        synth.write_csv(synth.gaussian_blobs(n_samples=40, n_classes=2, n_features=5), path)
        out = tmp_path / "x"
        argv = ["eval", "--dataset", str(path), "--seed", "1", "--reps", "1", "--folds", "4",
                "--out", str(out)]
        if where == "label":
            ini = tmp_path / "exp.ini"
            ini.write_text(f"[config:{name}]\nreducer = identity\n", encoding="utf-8")
            argv += ["--config", str(ini)]
            named = f"configuration label {name!r}"
        else:
            argv += ["--reducer", "identity"]
            named = f"dataset {path}: file stem {name!r}"
        assert main(argv) == 2
        assert f"{named} holds a comma, quote or line break" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where, name, message", [
        # `[config:x/y]` ran its whole cell, then failed on the audit path
        ("label", "x/y", "configuration label 'x/y' holds a '/'"),
        # `a::b` x knn was keyed `a::b::knn`, which plotdata split as `a` x `b::knn`
        ("stem", "a::b", "file stem 'a::b' holds '::'"),
    ], ids=["label-slash", "stem-double-colon"])
    def test_name_an_audit_file_or_cell_key_cannot_carry_is_a_usage_error(
        self, tmp_path, capsys, where, name, message
    ):
        path = tmp_path / (f"{name}.csv" if where == "stem" else "alpha.csv")
        synth.write_csv(synth.gaussian_blobs(n_samples=40, n_classes=2, n_features=5), path)
        ini = tmp_path / "exp.ini"
        label = name if where == "label" else "knn"
        ini.write_text(f"[config:{label}]\nreducer = identity\n", encoding="utf-8")
        out = tmp_path / "x"
        code = main(["eval", "--dataset", str(path), "--config", str(ini), "--seed", "1",
                     "--reps", "1", "--folds", "4", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cells_sharing_an_audit_file_are_a_usage_error(self, tmp_path, capsys):
        # a__b x c and a x b__c both wrote folds/a__b__c.csv, the second
        # over the first
        paths = []
        for seed, stem in ((0, "a__b"), (1, "a")):
            data = synth.gaussian_blobs(n_samples=40, n_classes=2, n_features=5, seed=seed)
            paths.append(tmp_path / f"{stem}.csv")
            synth.write_csv(data, paths[-1])
        ini = tmp_path / "exp.ini"
        ini.write_text("[config:c]\nreducer = identity\n\n[config:b__c]\nreducer = identity\n",
                       encoding="utf-8")
        out = tmp_path / "x"
        code = main(["eval", "--dataset", str(paths[0]), "--dataset", str(paths[1]),
                     "--config", str(ini), "--seed", "1", "--reps", "1", "--folds", "4",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cells a__b x c and a x b__c share the audit file folds/a__b__c.csv" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_non_finite_ppl_is_a_usage_error(self, blob_csvs, tmp_path, capsys, value, where):
        out = tmp_path / "x"
        argv = ["eval", "--dataset", blob_csvs[0], "--seed", "1", "--reps", "1",
                "--folds", "4", "--epochs", "1", "--out", str(out)]
        if where == "flag":
            argv += ["--ppl", value]
        else:
            ini = tmp_path / "ppl.ini"
            ini.write_text(f"[config:ae]\nreducer = ae\nppl = {value}\n", encoding="utf-8")
            argv += ["--config", str(ini)]
        assert main(argv) == 2
        assert "ppl fractions must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_default_value_fails_even_when_a_flag_wins(self, blob_csvs, tmp_path):
        ini = tmp_path / "bad.ini"
        ini.write_text("[defaults]\nk = five\n", encoding="utf-8")
        code = main(["eval", "--dataset", blob_csvs[0], "--config", str(ini), "--k", "3",
                     "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 2

    def test_fold_plan_sidecar_replays(self, blob_csvs, tmp_path):
        from aeknn.dataset import FoldPlan, load_csv, make_folds

        out = tmp_path / "results"
        main(
            ["eval", "--dataset", blob_csvs[0], "--reducer", "identity",
             "--seed", "21", "--reps", "2", "--folds", "4", "--out", str(out)]
        )
        sidecar = FoldPlan.load_text(out / "folds" / "alpha.plan")
        data = load_csv(blob_csvs[0])
        rebuilt = make_folds(data, 2, 4, seed=21)
        assert np.array_equal(sidecar.assignments, rebuilt.assignments)

    def test_parallel_jobs_match_sequential(self, blob_csvs, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(KNN_PCA_AE, encoding="utf-8")
        args = [
            "eval", "--dataset", blob_csvs[0], "--dataset", blob_csvs[1],
            "--config", str(ini), "--seed", "13", "--reps", "1", "--folds", "4",
            "--epochs", "3", "--lr", "0.5",
        ]
        forked = hasattr(os, "fork")
        # the processes an autoencoder cell fits its 4 folds in; every
        # other cell fits them in process
        runs = {
            "default": ([], min(pipeline.usable_cpus(), 4) if forked else 1),
            "jobs1": (["--jobs", "1"], 1),
            "jobs2": (["--jobs", "2"], 2 if forked else 1),
        }
        manifests = {}
        for name, (flags, ae_workers) in runs.items():
            assert main(args + ["--out", str(tmp_path / name)] + flags) == 0
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["nproc"] == pipeline.usable_cpus()
            assert {key: cell["fold_workers"] for key, cell in manifest["cells"].items()} == {
                f"{ds}::{label}": ae_workers if label == "ae" else 1
                for ds in ("alpha", "beta") for label in ("knn", "pca1", "ae")
            }
            for cell in manifest["cells"].values():
                del cell["metrics"]["time"], cell["fit_seconds"], cell["fold_workers"]
            manifests[name] = manifest
        first = tmp_path / "default"
        names = sorted(os.listdir(first / "folds"))
        assert len(names) == 8  # 6 audit CSVs and 2 plan sidecars
        for name in runs:
            assert manifests[name] == manifests["default"]
            for metric in ("accuracy", "fscore", "auc"):
                assert (tmp_path / name / f"{metric}.csv").read_bytes() == (
                    first / f"{metric}.csv"
                ).read_bytes()
            assert sorted(os.listdir(tmp_path / name / "folds")) == names
            for audit in names:
                assert (tmp_path / name / "folds" / audit).read_bytes() == (
                    first / "folds" / audit
                ).read_bytes()

    def test_no_fold_child_is_alive_while_a_fold_classifies(
        self, blob_csvs, tmp_path, monkeypatch
    ):
        alone = []
        real_classify = pipeline.classify_batch

        def classify_batch(*args, **kwargs):
            try:
                os.waitpid(-1, os.WNOHANG)
                alone.append(False)
            except ChildProcessError:
                alone.append(True)
            return real_classify(*args, **kwargs)

        monkeypatch.setattr(pipeline, "classify_batch", classify_batch)
        ini = tmp_path / "exp.ini"
        ini.write_text(KNN_PCA_AE, encoding="utf-8")
        code = main(
            ["eval", "--dataset", blob_csvs[0], "--dataset", blob_csvs[1], "--config", str(ini),
             "--seed", "13", "--reps", "1", "--folds", "4", "--epochs", "3", "--lr", "0.5",
             "--jobs", "2", "--out", str(tmp_path / "results")]
        )
        assert code == 0
        # every fold of every cell classifies here, and alone
        assert alone == [True] * (2 * 3 * 4)

    def test_each_dataset_parsed_and_planned_once(self, blob_csvs, tmp_path, monkeypatch):
        calls = {"load_csv": [], "make_folds": 0}
        real_load, real_folds = cli.load_csv, cli.make_folds

        def counting_load(path, **kwargs):
            calls["load_csv"].append(path)
            return real_load(path, **kwargs)

        def counting_folds(*args, **kwargs):
            calls["make_folds"] += 1
            return real_folds(*args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counting_load)
        monkeypatch.setattr(cli, "make_folds", counting_folds)
        ini = tmp_path / "exp.ini"
        ini.write_text(THREE_BASELINES, encoding="utf-8")
        out = tmp_path / "results"
        code = main(
            ["eval", "--dataset", blob_csvs[0], "--dataset", blob_csvs[1], "--config", str(ini),
             "--seed", "3", "--reps", "1", "--folds", "4", "--out", str(out)]
        )
        assert code == 0
        assert calls == {"load_csv": blob_csvs, "make_folds": 2}
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["cells"]) == 6
        assert all(c["status"] == "ok" for c in manifest["cells"].values())

    @pytest.mark.parametrize(
        "bad_text, reason",
        [
            ("1.0,A\n\n2.0,B\n3.0,oops,A\n",
             "ValueError: {path}: row 4 has 3 columns, expected 2"),
            ("1.0,A\n2.0,B\n3.0,A\n4.0,A\n5.0,A\n",
             "ValueError: class 'B' has 1 members, fewer than 4 folds"),
        ],
    )
    def test_dataset_failure_fails_all_its_cells(
        self, blob_csvs, tmp_path, capsys, bad_text, reason
    ):
        bad = tmp_path / "broken.csv"
        bad.write_text(bad_text, encoding="utf-8")
        ini = tmp_path / "exp.ini"
        ini.write_text(THREE_BASELINES, encoding="utf-8")
        out = tmp_path / "results"
        code = main(
            ["eval", "--dataset", str(bad), "--dataset", blob_csvs[0], "--config", str(ini),
             "--seed", "3", "--reps", "1", "--folds", "4", "--out", str(out)]
        )
        assert code == 1
        cells = json.loads((out / "manifest.json").read_text())["cells"]
        expected = reason.format(path=bad)
        for label in ("knn", "pca_0.5", "lda_0.5"):
            assert cells[f"broken::{label}"] == {"status": "failed", "reason": expected}
            assert cells[f"alpha::{label}"]["status"] == "ok"
        assert capsys.readouterr().err.count(f": {expected}\n") == 3
        rows = read_csv(out / "accuracy.csv")
        assert rows[1] == ["broken", "nan", "nan", "nan"]
        assert all(v != "nan" for v in rows[2][1:])
        assert sorted(os.listdir(out / "folds")) == [
            "alpha.plan", "alpha__knn.csv", "alpha__lda_0.5.csv", "alpha__pca_0.5.csv",
        ]

    def test_no_plan_sidecar_when_every_cell_of_a_dataset_fails(self, blob_csvs, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[config:pca0]\nreducer = pca\ntarget_dim = 0\n", encoding="utf-8")
        out = tmp_path / "results"
        code = main(
            ["eval", "--dataset", blob_csvs[0], "--config", str(ini),
             "--seed", "3", "--reps", "1", "--folds", "4", "--out", str(out)]
        )
        assert code == 1
        assert os.listdir(out / "folds") == []


class TestBenchmarkSpans:
    """The benchmark's traced run patches `aeknn` functions where the package
    looks them up (`bench/spans.py`); a renamed or removed target, or a call
    that bypasses the patched name, leaves a per-layer metric unmeasured."""

    @pytest.fixture()
    def spans(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    def test_every_target_exists(self, spans):
        patches = spans.Patches(spans.Tracer())
        try:
            assert patches.missing == []
        finally:
            patches.close()
        assert cli.load_csv is dataset.load_csv and cli.run_cv is pipeline.run_cv

    @pytest.mark.parametrize("flags", [[], ["--jobs", "2"]], ids=["default", "jobs2"])
    def test_traced_eval_counts_one_parse_per_dataset(self, spans, blob_csvs, tmp_path, flags):
        ini = tmp_path / "exp.ini"
        ini.write_text(THREE_BASELINES, encoding="utf-8")
        tracer = spans.Tracer()
        patches = spans.Patches(tracer)
        try:
            code = main(
                ["eval", "--dataset", blob_csvs[0], "--dataset", blob_csvs[1],
                 "--config", str(ini), "--seed", "3", "--reps", "1", "--folds", "4",
                 "--out", str(tmp_path / "results")] + flags
            )
        finally:
            patches.close()
        assert code == 0
        assert tracer.counts["dataset.load_csv_calls"] == 2
        assert tracer.counts["cli.cells"] == 6
        assert tracer.counts["pipeline.folds"] == 6 * 4
        for span in ("dataset.load_csv_s", "dataset.make_folds_s", "cli.eval_self_s"):
            assert tracer.seconds[span] > 0.0


class TestStats:
    def test_friedman_on_bundled_reference_table(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["stats", "--matrix", str(reference_path("ppl_sweep_accuracy")),
             "--test", "friedman", "--direction", "higher", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "avg rank" in printed and "p=" in printed
        rows = read_csv(out)
        assert rows[0] == ["column", "avg_rank"]
        assert rows[-1][0] == "p_value"

    def test_wilcoxon_baseline_mode(self, capsys):
        code = main(
            ["stats", "--matrix", str(reference_path("knn_comparison_time")),
             "--test", "wilcoxon", "--baseline", "knn"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "knn vs ae_0.75" in printed
        assert "knn vs ae_0.5" in printed

    def test_wilcoxon_pair_mode(self, capsys):
        code = main(
            ["stats", "--matrix", str(reference_path("knn_comparison_accuracy")),
             "--test", "wilcoxon", "--columns", "knn,ae_0.75"]
        )
        assert code == 0
        assert "p=" in capsys.readouterr().out

    def test_closure_with_eval_output(self, blob_csvs, tmp_path, capsys):
        out = tmp_path / "results"
        main(
            ["eval", "--dataset", blob_csvs[0], "--dataset", blob_csvs[1],
             "--reducer", "identity", "--seed", "9", "--reps", "1",
             "--folds", "4", "--out", str(out)]
        )
        ini = tmp_path / "two.ini"
        # a second configuration so the matrix has two columns
        ini.write_text(
            "[config:knn]\nreducer = identity\n\n[config:pca1]\nreducer = pca\ntarget_dim = 2\n",
            encoding="utf-8",
        )
        main(
            ["eval", "--dataset", blob_csvs[0], "--dataset", blob_csvs[1],
             "--config", str(ini), "--seed", "9", "--reps", "1",
             "--folds", "4", "--out", str(out)]
        )
        code = main(
            ["stats", "--matrix", str(out / "accuracy.csv"), "--test", "friedman"]
        )
        assert code == 0

    def test_unknown_friedman_column_is_named(self, capsys):
        code = main(
            ["stats", "--matrix", str(reference_path("knn_comparison_accuracy")),
             "--test", "friedman", "--columns", "knn,nope"]
        )
        assert code == 2
        assert "no column named 'nope'" in capsys.readouterr().err

    def test_single_column_matrix_fails_cleanly(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("dataset,a\nr0,1.0\nr1,2.0\n", encoding="utf-8")
        code = main(["stats", "--matrix", str(path), "--test", "wilcoxon", "--baseline", "a"])
        assert code == 2


class TestPlotData:
    def test_rows_match_manifest(self, blob_csvs, tmp_path):
        out = tmp_path / "results"
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[config:knn]\nreducer = identity\n\n"
            "[config:pca1]\nreducer = pca\ntarget_dim = 2\n\n"
            "[config:pca2]\nreducer = pca\ntarget_dim = 3\n",
            encoding="utf-8",
        )
        main(
            ["eval", "--dataset", blob_csvs[0], "--dataset", blob_csvs[1],
             "--config", str(ini), "--seed", "2", "--reps", "1",
             "--folds", "4", "--out", str(out)]
        )
        plots = tmp_path / "plots"
        assert main(["plotdata", "--manifest", str(out / "manifest.json"), "--out", str(plots)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for metric in ("accuracy", "fscore", "auc", "time"):
            rows = read_csv(plots / f"plot_{metric}.csv")
            assert rows[0] == ["dataset", "configuration", "value"]
            assert len(rows) == 1 + 6  # 2 datasets x 3 configs
            for dataset, configuration, value in rows[1:]:
                cell = manifest["cells"][f"{dataset}::{configuration}"]
                assert float(value) == cell["metrics"][metric]

    def test_empty_manifest_gives_header_only(self, tmp_path):
        manifest = tmp_path / "empty.json"
        manifest.write_text(json.dumps({"cells": {}}), encoding="utf-8")
        plots = tmp_path / "plots"
        assert main(["plotdata", "--manifest", str(manifest), "--out", str(plots)]) == 0
        assert read_csv(plots / "plot_accuracy.csv") == [["dataset", "configuration", "value"]]

    def test_missing_manifest(self, tmp_path):
        assert main(["plotdata", "--manifest", str(tmp_path / "nope.json")]) == 2
