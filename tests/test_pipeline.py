import multiprocessing
import os
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeknn.autoencoder import TrainConfig
from aeknn.dataset import Dataset, NormalizationStats, fit_normalizer, make_folds
from aeknn.knn import KnnModel, classify_batch
from aeknn import pipeline
from aeknn.pipeline import FoldResult, PipelineConfig, fit_fold_model, run_cv, run_fold

import synth
from memory import traced_peak


def blob_data(n=120, classes=3, features=6, seed=0):
    return synth.gaussian_blobs(
        n_samples=n, n_classes=classes, n_features=features, seed=seed
    )


fast_ae = TrainConfig(epochs=3, batch_size=16, learning_rate=0.5, seed=1)
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunFold:
    def test_identity_k1_on_training_subset_is_perfect(self):
        data = blob_data()
        train = data.subset(np.arange(data.n_samples))
        test = data.subset(np.arange(0, 40))
        cfg = PipelineConfig(reducer="identity", k=1)
        result = run_fold(train, test, cfg)
        assert np.array_equal(result.predictions, result.true_labels)

    def test_ppl_075_on_19_features_encodes_width_14(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(2, size=60)
        labels[:2] = [0, 1]
        data = Dataset(
            features=rng.uniform(size=(60, 19)),
            labels=labels,
            class_names=("a", "b"),
        )
        cfg = PipelineConfig(reducer="ae", ppl=(0.75,), k=3, train_cfg=fast_ae)
        result = run_fold(data.subset(np.arange(40)), data.subset(np.arange(40, 60)), cfg)
        assert result.effective_dim == 14

    def test_timings_present_and_fit_positive_with_ae(self):
        data = blob_data()
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        result = run_fold(data.subset(np.arange(80)), data.subset(np.arange(80, 120)), cfg)
        assert result.fit_seconds > 0.0
        assert result.encode_seconds >= 0.0
        assert result.classify_seconds >= 0.0

    def test_fitting_is_independent_of_test_fold(self):
        data = blob_data(seed=3)
        train = data.subset(np.arange(80))
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        # the fitted model is a function of the training fold alone
        _, reducer_a = fit_fold_model(train, cfg)
        _, reducer_b = fit_fold_model(train, cfg)
        for la, lb in zip(reducer_a.stack.layers, reducer_b.stack.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)
        # and predictions for given rows ignore whatever else is in the test fold
        test_small = data.subset(np.arange(80, 100))
        test_large = data.subset(np.arange(80, 120))
        small = run_fold(train, test_small, cfg)
        large = run_fold(train, test_large, cfg)
        assert np.array_equal(small.predictions, large.predictions[:20])

    def test_each_fold_is_normalized_once(self, monkeypatch):
        applied = []
        real_apply = NormalizationStats.apply

        def counting_apply(stats, matrix, out=None):
            applied.append(np.asarray(matrix).shape[0])
            return real_apply(stats, matrix, out=out)

        monkeypatch.setattr(NormalizationStats, "apply", counting_apply)
        data = blob_data(seed=5)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        run_fold(data.subset(np.arange(80)), data.subset(np.arange(80, 120)), cfg)
        assert applied == [80, 40]

    def test_identity_pipeline_equals_direct_knn(self):
        data = blob_data(seed=5)
        train = data.subset(np.arange(90))
        test = data.subset(np.arange(90, 120))
        cfg = PipelineConfig(reducer="identity", k=5)
        result = run_fold(train, test, cfg)

        stats = fit_normalizer(train.features)
        model = KnnModel(
            references=stats.apply(train.features),
            labels=train.labels,
            k=5,
            n_classes=data.n_classes,
        )
        labels, fractions = classify_batch(model, stats.apply(test.features))
        assert result.predictions.tolist() == labels.tolist()
        assert result.scores.tobytes() == fractions.tobytes()

    def test_class_missing_from_train_can_only_be_wrong(self):
        data = blob_data(seed=6)
        train_rows = np.flatnonzero(data.labels != 2)
        test_rows = np.flatnonzero(data.labels == 2)[:10]
        cfg = PipelineConfig(reducer="identity", k=3)
        result = run_fold(data.subset(train_rows), data.subset(test_rows), cfg)
        assert result.true_labels.tolist() == [2] * 10
        assert not np.any(result.predictions == 2)

    def test_feature_mismatch_rejected(self):
        a = blob_data(seed=7, features=4)
        b = blob_data(seed=7, features=5)
        cfg = PipelineConfig(reducer="identity", k=1)
        with pytest.raises(ValueError, match="feature"):
            run_fold(a.subset(np.arange(60)), b.subset(np.arange(60)), cfg)


    def test_fold_encodes_run_on_one_blas_thread(self, monkeypatch):
        counts = pipeline._openblas_thread_counts()
        if not counts:
            pytest.skip("no OpenBLAS with a thread-count API is loaded")
        seen = []

        def record(stage):
            seen.append((stage, [get() for get, _ in counts]))

        class Recording:
            effective_dim = 6

            def transform(self, matrix):
                record("encode")
                return matrix

        def fit_reducer(*args, **kwargs):
            record("fit")
            return Recording()

        def classify_batch(*args, **kwargs):
            record("classify")
            return real_classify(*args, **kwargs)

        real_classify = pipeline.classify_batch
        monkeypatch.setattr(pipeline, "fit_reducer", fit_reducer)
        monkeypatch.setattr(pipeline, "classify_batch", classify_batch)
        saved = [get() for get, _ in counts]
        try:
            for _, set_ in counts:
                set_(2)
            data = blob_data()
            run_fold(data.subset(np.arange(80)), data.subset(np.arange(80, 120)),
                     PipelineConfig(reducer="identity", k=3))
            after = [get() for get, _ in counts]
        finally:
            for (_, set_), threads in zip(counts, saved):
                set_(threads)
        # the reducer fit (and any training), the training fold's encode, the
        # test fold's, then the kNN, all within one hold
        one = [1] * len(counts)
        assert seen == [("fit", one), ("encode", one), ("encode", one), ("classify", one)]
        assert after == [2] * len(counts)

    def test_one_blas_thread_restores_counts_under_concurrent_use(self):
        counts = pipeline._openblas_thread_counts()
        if not counts:
            pytest.skip("no OpenBLAS with a thread-count API is loaded")
        saved = [get() for get, _ in counts]
        inside = []
        start = threading.Barrier(4)

        def worker():
            start.wait(timeout=60)
            for _ in range(500):
                with pipeline._one_blas_thread():
                    time.sleep(0)  # let the other threads run inside the guard
                    inside.append([get() for get, _ in counts])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _, set_ in counts:
                set_(2)
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            after = [get() for get, _ in counts]
        finally:
            sys.setswitchinterval(interval)
            for (_, set_), threads_before in zip(counts, saved):
                set_(threads_before)
        assert inside == [[1] * len(counts)] * 2000
        assert after == [2] * len(counts)

    @needs_fork
    def test_forked_child_takes_the_hold_while_a_parent_thread_has_it(self):
        held, release = threading.Event(), threading.Event()

        def holder():
            with pipeline._blas_lock:
                held.set()
                release.wait(timeout=60)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert held.wait(timeout=60)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    with pipeline._one_blas_thread():
                        code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 10
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            if done[0] == 0:  # deadlocked: end it, then fail
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            release.set()
            thread.join(timeout=60)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class TestRunCv:
    def test_deterministic_given_seed(self):
        data = blob_data(n=100, seed=8)
        plan = make_folds(data, 2, 5, seed=3)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        a = run_cv(data, plan, cfg)
        b = run_cv(data, plan, cfg)
        assert a.accuracy == b.accuracy
        assert a.fscore == b.fscore
        assert a.auc_score == b.auc_score

    def test_separable_blobs_score_near_perfect(self):
        data = synth.gaussian_blobs(n_samples=400, n_classes=4, n_features=10, seed=9)
        plan = make_folds(data, 2, 5, seed=1)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=5, train_cfg=fast_ae)
        result = run_cv(data, plan, cfg)
        assert result.accuracy >= 0.99

    def test_plan_size_mismatch_rejected(self):
        data = blob_data(n=100, seed=10)
        other = blob_data(n=110, seed=10)
        plan = make_folds(other, 2, 5, seed=0)
        with pytest.raises(ValueError, match="different dataset"):
            run_cv(data, plan, PipelineConfig(reducer="identity"))

    def test_binary_data_uses_positive_class_scores(self):
        data = synth.low_rank_manifold(n_samples=150, n_features=8, seed=11)
        plan = make_folds(data, 1, 5, seed=2)
        result = run_cv(data, plan, PipelineConfig(reducer="identity", k=5))
        assert 0.0 <= result.auc_score <= 1.0
        assert 0.0 <= result.fscore <= 1.0

    def test_fold_results_cover_every_sample_once_per_repetition(self):
        data = blob_data(n=100, seed=12)
        plan = make_folds(data, 2, 5, seed=5)
        result = run_cv(data, plan, PipelineConfig(reducer="identity", k=3))
        assert len(result.fold_results) == 10
        first_rep = np.concatenate([r.test_indices for r in result.fold_results[:5]])
        assert sorted(first_rep) == list(range(100))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fold_results_carry_each_layer_final_loss(self, workers):
        data = blob_data(n=90, seed=14)
        plan = make_folds(data, 1, 3, seed=4)
        cfg = PipelineConfig(reducer="ae", ppl=(1.5, 0.5), k=3, train_cfg=fast_ae)
        result = run_cv(data, plan, cfg, workers=workers)
        for fold_result, (rep, fold, train_idx, _) in zip(result.fold_results, plan.iter_splits()):
            seed = int(np.random.SeedSequence([fast_ae.seed, rep, fold]).generate_state(1)[0])
            fold_cfg = replace(cfg, train_cfg=replace(fast_ae, seed=seed))
            _, reducer = fit_fold_model(data.subset(train_idx), fold_cfg)
            want = tuple(losses[-1] for losses in reducer.stack.loss_histories)
            assert len(want) == 2
            assert fold_result.final_losses == want
        knn = run_cv(data, plan, PipelineConfig(reducer="identity", k=3))
        assert all(r.final_losses == () for r in knn.fold_results)

    def test_same_bytes_with_one_and_two_blas_threads(self):
        # run_fold holds every loaded OpenBLAS to one thread, so the host's
        # thread count cannot reach the seeded codes or the metrics
        counts = pipeline._openblas_thread_counts()
        if not counts:
            pytest.skip("no OpenBLAS with a thread-count API is loaded")
        data = synth.gaussian_blobs(n_samples=200, n_classes=10, n_features=256, seed=13)
        plan = make_folds(data, 1, 5, seed=13)
        cfg = PipelineConfig(reducer="ae", ppl=(0.25,), k=5, train_cfg=fast_ae)
        saved = [get() for get, _ in counts]
        runs = []
        try:
            for threads in (1, 2):
                for _, set_ in counts:
                    set_(threads)
                runs.append(run_cv(data, plan, cfg))
        finally:
            for (_, set_), threads in zip(counts, saved):
                set_(threads)
        one, two = runs
        assert (one.accuracy, one.fscore, one.auc_score) == (two.accuracy, two.fscore, two.auc_score)
        for a, b in zip(one.fold_results, two.fold_results):
            assert a.predictions.tobytes() == b.predictions.tobytes()
            assert a.scores.tobytes() == b.scores.tobytes()


@needs_fork
class TestForkedFits:
    """An autoencoder's folds fit in forked children, then encode and
    classify one by one in the parent."""

    @pytest.mark.parametrize("ppl", [(0.25,), (0.5, 0.25)])
    def test_same_bytes_with_one_and_two_workers(self, ppl):
        data = synth.gaussian_blobs(n_samples=150, n_classes=4, n_features=24, seed=14)
        plan = make_folds(data, 2, 3, seed=14)
        cfg = PipelineConfig(reducer="ae", ppl=ppl, k=5, train_cfg=fast_ae)
        one = run_cv(data, plan, cfg, workers=1)
        two = run_cv(data, plan, cfg, workers=2)
        assert (one.fold_workers, two.fold_workers) == (1, 2)
        assert (one.accuracy, one.fscore, one.auc_score) == (two.accuracy, two.fscore, two.auc_score)
        for a, b in zip(one.fold_results, two.fold_results, strict=True):
            assert a.predictions.tobytes() == b.predictions.tobytes()
            assert a.scores.tobytes() == b.scores.tobytes()
            assert a.test_indices.tobytes() == b.test_indices.tobytes()
            assert a.effective_dim == b.effective_dim
            assert b.fit_seconds > 0.0
        assert_no_child_left()

    def test_no_child_is_alive_while_a_fold_classifies(self, monkeypatch):
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
        data = blob_data(n=100, seed=15)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        result = run_cv(data, make_folds(data, 2, 5, seed=15), cfg, workers=2)
        assert result.fold_workers == 2
        assert alone == [True] * 10

    def test_workers_default_to_the_usable_cpus_and_only_an_autoencoder_forks(self):
        data = blob_data(n=100, seed=16)
        plan = make_folds(data, 1, 4, seed=16)
        ae = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        assert run_cv(data, plan, ae).fold_workers == min(pipeline.usable_cpus(), 4)
        assert run_cv(data, plan, ae, workers=9).fold_workers == 4
        for cfg in (PipelineConfig(reducer="identity", k=3),
                    PipelineConfig(reducer="pca", target_dim=2, k=3)):
            assert run_cv(data, plan, cfg, workers=2).fold_workers == 1
        with pytest.raises(ValueError, match="workers"):
            run_cv(data, plan, ae, workers=0)

    @staticmethod
    def failing_fit(monkeypatch, plan, rep, fold, fail):
        """`_fit_fold` calling `fail()` on the training side of (rep, fold);
        a forked child inherits the patch."""
        real_fit = pipeline._fit_fold
        train_rows = np.flatnonzero(plan.assignments[rep] != fold)

        def fit(train, cfg):
            if np.array_equal(train.indices, train_rows):
                fail()
            return real_fit(train, cfg)

        monkeypatch.setattr(pipeline, "_fit_fold", fit)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fit_failure_names_its_fold(self, monkeypatch, workers):
        data = blob_data(n=100, seed=17)
        plan = make_folds(data, 2, 4, seed=17)

        def fail():
            raise ArithmeticError("weights diverged")

        self.failing_fit(monkeypatch, plan, 1, 2, fail)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        with pytest.raises(ArithmeticError, match=r"^rep 1 fold 2: weights diverged$"):
            run_cv(data, plan, cfg, workers=workers)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "die, how",
        [(lambda: os._exit(3), "exited with status 3"),
         (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")],
        ids=["exit-3", "sigkill"],
    )
    def test_child_dying_without_sending_names_its_folds(self, monkeypatch, die, how):
        data = blob_data(n=100, seed=18)
        plan = make_folds(data, 1, 4, seed=18)
        self.failing_fit(monkeypatch, plan, 0, 1, die)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        # split i goes to child i mod 2, so the second child holds folds 1 and 3
        expected = f"the fold worker fitting rep 0 fold 1, rep 0 fold 3 {how} before sending its fits"
        with pytest.raises(RuntimeError, match=f"^{expected}$"):
            run_cv(data, plan, cfg, workers=2)
        assert_no_child_left()

    def test_children_fit_on_one_blas_thread_and_the_parent_gets_its_count_back(
        self, monkeypatch, tmp_path
    ):
        # the children are forked inside the parent's hold and set no count
        # themselves, so each fits on the one thread it was forked with
        counts = pipeline._openblas_thread_counts()
        if not counts:
            pytest.skip("no OpenBLAS with a thread-count API is loaded")
        log = tmp_path / "fits.log"
        real_fit = pipeline._fit_fold

        def fit(train, cfg):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {[get() for get, _ in counts]}\n")
            return real_fit(train, cfg)

        monkeypatch.setattr(pipeline, "_fit_fold", fit)
        data = blob_data(n=100, seed=19)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        saved = [get() for get, _ in counts]
        try:
            for _, set_ in counts:
                set_(2)
            result = run_cv(data, make_folds(data, 1, 4, seed=19), cfg, workers=2)
            after = [get() for get, _ in counts]
        finally:
            for (_, set_), threads in zip(counts, saved):
                set_(threads)
        fits = [line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]
        pids = {pid for pid, _ in fits}
        assert result.fold_workers == 2 and len(fits) == 4
        assert len(pids) == 2 and str(os.getpid()) not in pids
        assert {seen for _, seen in fits} == {str([1] * len(counts))}
        assert after == [2] * len(counts)
        assert_no_child_left()

    def test_unpicklable_fit_failure_is_sent_as_a_runtime_error(self, monkeypatch):
        data = blob_data(n=100, seed=20)
        plan = make_folds(data, 2, 4, seed=20)

        def fail():
            exc = ArithmeticError("weights diverged")
            exc.lock = threading.Lock()  # cannot cross a pipe
            raise exc

        self.failing_fit(monkeypatch, plan, 1, 2, fail)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        with pytest.raises(RuntimeError) as caught:
            run_cv(data, plan, cfg, workers=2)
        assert str(caught.value) == "rep 1 fold 2: ArithmeticError: weights diverged"
        assert_no_child_left()

    def test_a_failure_is_raised_while_an_earlier_child_still_fits(self, monkeypatch):
        data = blob_data(n=100, seed=22)
        plan = make_folds(data, 1, 4, seed=22)

        def fail():
            raise ArithmeticError("weights diverged")

        # split i goes to child i mod 2: child 0 sleeps on fold 0 while
        # child 1 fails at once on fold 1
        self.failing_fit(monkeypatch, plan, 0, 0, lambda: time.sleep(30))
        self.failing_fit(monkeypatch, plan, 0, 1, fail)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        t0 = time.perf_counter()
        with pytest.raises(ArithmeticError, match=r"^rep 0 fold 1: weights diverged$"):
            run_cv(data, plan, cfg, workers=2)
        assert time.perf_counter() - t0 < 10
        assert_no_child_left()

    def test_fits_arriving_out_of_order_come_back_in_plan_order(self, monkeypatch):
        data = blob_data(n=100, seed=23)
        plan = make_folds(data, 2, 4, seed=23)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)
        one = run_cv(data, plan, cfg, workers=1)
        # child 0 holds folds 0 and 2 of each repetition; it sends last
        self.failing_fit(monkeypatch, plan, 0, 0, lambda: time.sleep(1))
        two = run_cv(data, plan, cfg, workers=2)
        assert two.fold_workers == 2
        assert (one.accuracy, one.fscore, one.auc_score) == (two.accuracy, two.fscore, two.auc_score)
        for a, b in zip(one.fold_results, two.fold_results, strict=True):
            assert a.predictions.tobytes() == b.predictions.tobytes()
            assert a.scores.tobytes() == b.scores.tobytes()
            assert a.test_indices.tobytes() == b.test_indices.tobytes()
        assert_no_child_left()

    def test_a_daemonic_caller_fits_its_folds_in_process(self):
        # multiprocessing lets a daemonic process start no children, so
        # run_cv there fits in process whatever `workers` asks for
        data = blob_data(n=100, seed=21)
        plan = make_folds(data, 2, 4, seed=21)
        cfg = PipelineConfig(reducer="ae", ppl=(0.5,), k=3, train_cfg=fast_ae)

        def summary(result):
            return (
                result.fold_workers,
                (result.accuracy, result.fscore, result.auc_score),
                [(r.predictions.tobytes(), r.scores.tobytes(), r.test_indices.tobytes())
                 for r in result.fold_results],
            )

        fork = multiprocessing.get_context("fork")
        reader, writer = fork.Pipe(duplex=False)

        def in_daemon():
            try:
                writer.send(summary(run_cv(data, plan, cfg, workers=2)))
            except Exception as exc:
                writer.send(repr(exc))

        daemon = fork.Process(target=in_daemon, daemon=True)
        daemon.start()
        writer.close()
        try:
            assert reader.poll(60)
            got = reader.recv()
        finally:
            reader.close()
            daemon.join(timeout=60)
        assert daemon.exitcode == 0
        want = summary(run_cv(data, plan, cfg, workers=1))
        assert want[0] == 1
        assert got == want
        assert_no_child_left()


class TestFoldMemory:
    def test_identity_fold_holds_one_normalized_copy_per_side(self):
        # 16000 x 200 training rows (24.4 MiB) and 4000 test rows (6.1 MiB)
        # on a line through the unit cube, where the kd-tree is quick. The
        # fold may hold one normalized copy per side, the raw training
        # rows while it fits the normalizer, and the kNN scratch; a raw
        # copy of the training rows kept through the fold, or a temporary
        # in the normalization, passes the bound.
        rng = np.random.default_rng(17)
        n_train, n_test, d = 16000, 4000, 200
        labels = rng.integers(0, 4, size=n_train + n_test)
        features = (rng.random((labels.size, 1)) + labels[:, None]) * rng.random((1, d))
        data = Dataset(features=features, labels=labels, class_names=("a", "b", "c", "d"))
        train, test = np.arange(n_train), np.arange(n_train, labels.size)
        cfg = PipelineConfig(reducer="identity", k=5)
        peak = traced_peak(lambda: run_fold(data.subset(train), data.subset(test), cfg))
        row_bytes = 8 * d
        assert peak < (2 * n_train + n_test) * row_bytes + 4 * 2**20

    @pytest.mark.parametrize("prefitted", [False, True])
    def test_identity_fold_normalizes_each_side_in_its_own_gather(self, prefitted):
        # the fold above, fitted here or (as by run_cv's fold workers)
        # before: each side's gather is the fold's own, so it is normalized
        # in place and the fold holds one copy per side (30.5 MiB) and the
        # kNN scratch. A normalized copy of the training rows beside their
        # gather (24.4 MiB), or of the test rows (6.1 MiB), breaks the bound.
        rng = np.random.default_rng(17)
        n_train, n_test, d = 16000, 4000, 200
        labels = rng.integers(0, 4, size=n_train + n_test)
        features = (rng.random((labels.size, 1)) + labels[:, None]) * rng.random((1, d))
        data = Dataset(features=features, labels=labels, class_names=("a", "b", "c", "d"))
        train, test = np.arange(n_train), np.arange(n_train, labels.size)
        cfg = PipelineConfig(reducer="identity", k=5)
        fitted = (*fit_fold_model(data.subset(train), cfg), 0.0) if prefitted else None
        peak = traced_peak(
            lambda: run_fold(data.subset(train), data.subset(test), cfg, fitted=fitted)
        )
        assert peak < (n_train + n_test) * 8 * d + 4 * 2**20

    def test_subset_view_gathers_the_parent_rows_without_a_copy(self):
        data = blob_data(n=2000, features=100, seed=18)
        rows = np.random.default_rng(18).permutation(2000)[:1500]
        peak = traced_peak(lambda: data.subset(rows))
        view = data.subset(rows)
        assert view.source is data.features
        assert view.features.tobytes() == data.features[rows].tobytes()
        assert (view.n_samples, view.n_features) == (1500, 100)
        # the labels and indices of 1500 rows, not their 1.2 MB of features
        assert peak < 1500 * 8 * 100 / 10


def fold_result(**changes) -> FoldResult:
    """A valid three-row, three-class, k = 2 fold result, with `changes`."""
    fields = dict(
        predictions=np.array([0, 2, 1]),
        true_labels=np.array([0, 1, 1]),
        votes=np.array([[2, 0, 0], [0, 1, 1], [1, 1, 0]]),
        k=2,
        test_indices=np.arange(3),
        n_classes=3,
        effective_dim=4,
        fit_seconds=0.0,
        encode_seconds=0.0,
        classify_seconds=0.0,
        final_losses=(),
    )
    return FoldResult(**{**fields, **changes})


class TestFoldResult:
    def test_rows_stored_narrow_with_scores_as_votes_over_k(self):
        result = fold_result()
        assert result.predictions.dtype == result.true_labels.dtype == np.uint8
        assert result.votes.dtype == np.uint8
        assert result.predictions.tolist() == [0, 2, 1]
        want = np.array([[2, 0, 0], [0, 1, 1], [1, 1, 0]]) / 2
        assert result.scores.dtype == np.float64
        assert result.scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"votes": np.array([[2, 0, 0], [0, 1, 1]])}, "votes have shape"),
            ({"votes": np.array([[2, 0], [0, 2], [1, 1]])}, "votes have shape"),
            ({"votes": np.array([2, 0, 0])}, "votes have shape"),
            ({"votes": np.array([[2, 0, 0], [0, 1, 0], [1, 1, 0]])}, "sum to k=2"),
            ({"votes": np.array([[3, 0, -1], [0, 1, 1], [1, 1, 0]])}, "non-negative counts"),
            ({"votes": np.array([[2.0, 0, 0], [0, 1, 1], [1, 1, 0]])}, "non-negative counts"),
            ({"k": 0, "votes": np.zeros((3, 3), dtype=int)}, "k must be >= 1"),
            ({"k": 3}, "sum to k=3"),
            ({"predictions": np.array([0, 3, 1])}, r"lie in \[0, 3\)"),
            ({"true_labels": np.array([0, -1, 1])}, r"lie in \[0, 3\)"),
            ({"predictions": np.array([0.0, 2.0, 1.0])}, "vector of class indices"),
            ({"true_labels": np.array([0, 1])}, "one prediction per test row"),
            ({"classify_seconds": -1.0}, "non-negative"),
        ],
    )
    def test_rejects_what_it_cannot_store(self, changes, match):
        with pytest.raises(ValueError, match=match):
            fold_result(**changes)

    def test_300_classes_and_k_300_widen_to_uint16_with_the_same_score_bits(self):
        # three rows of each of 300 classes; two of each train, k = 300
        rng = np.random.default_rng(30)
        labels = np.repeat(np.arange(300), 3)
        features = rng.random((900, 3)) + labels[:, None] / 300
        data = Dataset(
            features=features, labels=labels, class_names=tuple(f"c{i}" for i in range(300))
        )
        rows = np.arange(900)
        train, test = data.subset(rows[rows % 3 != 0]), data.subset(rows[rows % 3 == 0])
        result = run_fold(train, test, PipelineConfig(reducer="identity", k=300))
        assert result.predictions.dtype == result.true_labels.dtype == np.uint16
        assert result.votes.dtype == np.uint16
        assert result.k == 300
        stats = fit_normalizer(train.features)
        model = KnnModel(
            references=stats.apply(train.features), labels=train.labels, k=300, n_classes=300
        )
        want_labels, want_fractions = classify_batch(model, stats.apply(test.features))
        assert result.predictions.tolist() == want_labels.tolist()
        assert result.true_labels.tolist() == test.labels.tolist()
        assert result.scores.tobytes() == want_fractions.tobytes()

    def test_retained_run_cv_result_takes_few_bytes_per_test_row(self):
        # a semeion-shaped identity run keeps, per test row, two one-byte
        # class indices, ten one-byte vote counts and an int64 test index:
        # 20 bytes, and a little for the ten folds' objects. int64 labels
        # and float64 vote fractions took 104.
        data = synth.semeion_like(n_samples=1593, seed=31)
        plan = make_folds(data, 2, 5, seed=31)
        cfg = PipelineConfig(reducer="identity", k=5)
        run_cv(data, plan, cfg)  # first-use caches are not the result's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_cv(data, plan, cfg)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = sum(len(fold.predictions) for fold in result.fold_results)
        assert rows == 2 * 1593
        assert retained / rows < 32


class TestConfigValidation:
    def test_unknown_reducer(self):
        with pytest.raises(ValueError):
            PipelineConfig(reducer="tsne")

    def test_bad_k(self):
        with pytest.raises(ValueError):
            PipelineConfig(reducer="identity", k=0)

    def test_bad_ppl(self):
        with pytest.raises(ValueError):
            PipelineConfig(reducer="ae", ppl=(0.5, -1.0))

    @pytest.mark.parametrize("reducer", ["ae", "pca"])
    @pytest.mark.parametrize("fraction", [float("inf"), float("nan")])
    def test_non_finite_ppl_rejected(self, reducer, fraction):
        with pytest.raises(ValueError, match="positive and finite"):
            PipelineConfig(reducer=reducer, ppl=(fraction,))

    @pytest.mark.parametrize("reducer", ["pca", "lda"])
    @pytest.mark.parametrize("ppl", [(0.5, 0.25), ()])
    def test_projection_needs_one_fraction_without_target_dim(self, reducer, ppl):
        with pytest.raises(ValueError, match="single ppl fraction"):
            PipelineConfig(reducer=reducer, ppl=ppl)

    @pytest.mark.parametrize("reducer", ["ae", "identity"])
    def test_target_dim_rejected_where_it_would_be_ignored(self, reducer):
        # reducer = ae with target_dim = 10 once trained ae_0.75 without a word
        with pytest.raises(ValueError, match=f"{reducer} takes no target_dim, got 10"):
            PipelineConfig(reducer=reducer, target_dim=10)

    @pytest.mark.parametrize("ppl", [(0.5, 0.25), ()])
    def test_target_dim_overrides_ppl(self, ppl):
        assert PipelineConfig(reducer="pca", ppl=ppl, target_dim=3).label() == "pca_3"

    def test_labels(self):
        assert PipelineConfig(reducer="identity").label() == "knn"
        assert PipelineConfig(reducer="ae", ppl=(0.75,)).label() == "ae_0.75"
        assert (
            PipelineConfig(reducer="ae", ppl=(1.5, 0.25, 1.5)).label()
            == "ae_1.5-0.25-1.5"
        )
        assert PipelineConfig(reducer="pca", ppl=(0.5,)).label() == "pca_0.5"
        assert PipelineConfig(reducer="lda", target_dim=7).label() == "lda_7"


def numpy_cv_oracle(features, labels, n_classes, plan, k, positive=1):
    """Per-fold (predictions, vote fractions) and the (accuracy, fscore, auc)
    means of identity-reducer cross-validation, built from numpy alone:
    min-max scaling fitted on the training fold (a constant feature gets
    range one, test values are clamped into [0, 1]), the broadcast distance
    formula, the documented tie rules (equal distances prefer the lower
    reference index; a vote tie goes to the tied class with the nearest
    member, then to the lower class index), and metrics recomputed from the
    predictions: binary problems score class `positive`, others take macro F
    over all classes and one-vs-rest AUC over the classes present, each AUC
    counted over every (positive, negative) pair with ties as one half."""
    folds, per_fold = [], []
    for _, _, train, test in plan.iter_splits():
        lo, hi = features[train].min(axis=0), features[train].max(axis=0)
        hi = np.where(hi == lo, lo + 1.0, hi)
        refs = np.clip((features[train] - lo) / (hi - lo), 0.0, 1.0)
        queries = np.clip((features[test] - lo) / (hi - lo), 0.0, 1.0)
        dist = np.sqrt(((queries[:, None, :] - refs[None, :, :]) ** 2).sum(axis=2))
        kk = min(k, len(train))
        predictions, scores = [], []
        for row in dist:
            order = np.lexsort((np.arange(len(row)), row))[:kk]
            votes = labels[train][order]
            counts = np.bincount(votes, minlength=n_classes)
            tied = np.flatnonzero(counts == counts.max())
            predictions.append(min((row[order][votes == c].min(), c) for c in tied)[1])
            scores.append(counts / kk)
        predictions, scores = np.array(predictions), np.array(scores)
        folds.append((predictions, scores))

        true = labels[test]
        f1 = []
        for c in range(n_classes):
            tp = np.count_nonzero((predictions == c) & (true == c))
            fp = np.count_nonzero((predictions == c) & (true != c))
            fn = np.count_nonzero((predictions != c) & (true == c))
            f1.append(0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))

        def pair_auc(column, is_positive):
            pos, neg = column[is_positive][:, None], column[~is_positive][None, :]
            return np.mean((pos > neg) + 0.5 * (pos == neg))

        if n_classes == 2:
            fscore = f1[positive]
            area = pair_auc(scores[:, positive], true == positive)
        else:
            fscore = np.mean(f1)
            area = np.mean([pair_auc(scores[:, c], true == c) for c in np.unique(true)])
        per_fold.append((np.mean(predictions == true), fscore, area))
    return folds, np.mean(per_fold, axis=0)


@st.composite
def cv_problems(draw):
    """Small datasets with 2 to 7 classes of skewed sizes, duplicated rows,
    integer-grid or normal features and sometimes a constant column."""
    n_classes = draw(st.integers(2, 7))
    n_folds = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(n_folds, 24), min_size=n_classes, max_size=n_classes))
    n, d = sum(sizes), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        features = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    else:
        features = rng.normal(size=(n, d)) * rng.choice([1e-3, 1.0, 1e3], size=d)
    copies = draw(st.integers(0, n // 2))
    features[rng.choice(n, size=copies, replace=False)] = features[rng.choice(n, size=copies)]
    if draw(st.booleans()):
        features[:, 0] = 4.0
    labels = rng.permutation(np.repeat(np.arange(n_classes), sizes))
    k = draw(st.integers(1, 7))
    return features, labels, n_classes, n_folds, draw(st.integers(1, 2)), k, draw(st.integers(0, 999))


class TestRunCvAgainstNumpyOracle:
    @settings(max_examples=60, deadline=None)
    @given(cv_problems())
    def test_identity_predictions_scores_and_metrics(self, problem):
        features, labels, n_classes, n_folds, reps, k, seed = problem
        data = Dataset(
            features=features,
            labels=labels,
            class_names=tuple(f"c{i}" for i in range(n_classes)),
        )
        plan = make_folds(data, reps, n_folds, seed)
        result = run_cv(data, plan, PipelineConfig(reducer="identity", k=k))
        folds, metrics = numpy_cv_oracle(features, labels, n_classes, plan, k)
        assert len(result.fold_results) == len(folds) == reps * n_folds
        for got, (predictions, scores) in zip(result.fold_results, folds):
            assert np.array_equal(got.predictions, predictions)
            assert got.scores.shape == scores.shape
            assert got.scores.tobytes() == scores.tobytes()
        got_metrics = [result.accuracy, result.fscore, result.auc_score]
        np.testing.assert_allclose(got_metrics, metrics, rtol=0, atol=1e-12)
