import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest
import scipy.linalg

import aeknn
from aeknn.autoencoder import TrainConfig
from aeknn.pipeline import PipelineConfig, fit_reducer
from aeknn.reducers import (
    AeReducer,
    IdentityReducer,
    LdaReducer,
    PcaReducer,
    fit_lda,
    fit_pca,
    jacobi_eigh,
    load_reducer,
    save_reducer,
)


class TestJacobi:
    def test_matches_library_eigensolver(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8, 12):
            m = rng.normal(size=(n, n))
            a = (m + m.T) / 2.0
            values, vectors = jacobi_eigh(a)
            ref_values = np.sort(np.linalg.eigvalsh(a))[::-1]
            np.testing.assert_allclose(values, ref_values, atol=1e-10)
            np.testing.assert_allclose(vectors @ np.diag(values) @ vectors.T, a, atol=1e-9)
            np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), atol=1e-10)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 6))
        a = (m + m.T) / 2.0
        w1, v1 = jacobi_eigh(a)
        w2, v2 = jacobi_eigh(a)
        assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


class TestEigensolverInputChecks:
    def test_rejects_non_finite_input_by_name(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                jacobi_eigh(np.array([[1.0, bad], [bad, 1.0]]))

    def test_small_asymmetry_is_not_forgiven_relatively(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[1.0, 2.0], [2.00001, 1.0]]))

    def test_gram_covariances_pass(self):
        rng = np.random.default_rng(12)
        for d in (3, 85):
            x = rng.normal(size=(40, d)) * rng.uniform(0.1, 100.0, size=d)
            centered = x - x.mean(axis=0)
            values, _ = jacobi_eigh(centered.T @ centered / 39)
            assert values.shape == (d,)

    def test_symmetrized_lda_reduction_passes(self):
        # the matrix fit_lda hands over: L^-1 S_b L^-T, symmetrized first
        rng = np.random.default_rng(13)
        m = rng.normal(size=(30, 30))
        chol = np.linalg.cholesky(m @ m.T + 30.0 * np.eye(30))
        g = rng.normal(size=(30, 4))
        reduced = np.linalg.solve(chol, np.linalg.solve(chol, g @ g.T).T).T
        values, _ = jacobi_eigh((reduced + reduced.T) / 2.0)
        assert values.shape == (30,)


def assert_sign_convention(components):
    for col in components.T:
        assert col[np.argmax(np.abs(col))] > 0


class TestPcaOracle:
    @pytest.mark.parametrize("d", [85, 256])
    def test_benchmark_widths(self, d):
        rng = np.random.default_rng(d)
        latent = rng.normal(size=(400, 16)) @ rng.normal(size=(16, d))
        x = 1.0 / (1.0 + np.exp(-latent)) + 0.05 * rng.normal(size=(400, d))
        model = fit_pca(x, target_dim=d)
        cov = np.cov(x, rowvar=False)
        want = np.linalg.eigvalsh(cov)[::-1]
        largest = want[0]
        assert np.max(np.abs(model.eigenvalues - want)) <= 1e-9 * largest
        v = model.components
        residual = cov @ v - v * model.eigenvalues
        assert np.linalg.norm(residual) <= 1e-9 * largest
        np.testing.assert_allclose(v.T @ v, np.eye(d), rtol=0, atol=1e-12)
        assert_sign_convention(v)

    @pytest.mark.parametrize("case", ["duplicated-columns", "identity-like"])
    def test_repeated_eigenvalues_are_repeatable_and_descending(self, case):
        if case == "duplicated-columns":
            half = np.random.default_rng(14).normal(size=(50, 6))
            x = np.hstack([half, half])  # six zero eigenvalues
        else:
            x = np.vstack([np.eye(8), -np.eye(8)])  # covariance = I * 2/15
        first = fit_pca(x, target_dim=x.shape[1])
        second = fit_pca(x, target_dim=x.shape[1])
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.components, second.components)
        assert np.all(np.diff(first.eigenvalues) <= 0)
        v = first.components
        np.testing.assert_allclose(v.T @ v, np.eye(x.shape[1]), rtol=0, atol=1e-12)
        assert_sign_convention(v)


class TestPca:
    def test_collinear_points_give_diagonal_component(self):
        t = np.linspace(-2, 2, 9)
        train = np.column_stack([t, t])
        model = fit_pca(train, target_dim=1)
        direction = model.components[:, 0]
        np.testing.assert_allclose(np.abs(direction), [1 / np.sqrt(2)] * 2, atol=1e-10)
        assert direction[0] > 0  # sign convention
        assert abs(model.eigenvalues[1]) < 1e-10

    def test_projection_matches_library_oracle_up_to_sign(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(8, 5))
        model = fit_pca(train, target_dim=5)
        cov = np.cov(train, rowvar=False)
        ref_values, ref_vectors = np.linalg.eigh(cov)
        ref_values = ref_values[::-1]
        ref_vectors = ref_vectors[:, ::-1]
        np.testing.assert_allclose(model.eigenvalues, ref_values, atol=1e-8)
        for j in range(5):
            dot = abs(float(model.components[:, j] @ ref_vectors[:, j]))
            assert abs(dot - 1.0) < 1e-8

    def test_full_dimension_preserves_pairwise_distances(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(12, 6))
        model = fit_pca(train, target_dim=6)
        projected = model.transform(train)
        for i in range(12):
            for j in range(i):
                original = np.linalg.norm(train[i] - train[j])
                reduced = np.linalg.norm(projected[i] - projected[j])
                assert abs(original - reduced) < 1e-8

    def test_eigenvalue_sum_equals_total_variance(self):
        rng = np.random.default_rng(4)
        train = rng.normal(size=(20, 7)) * rng.uniform(0.1, 5.0, size=7)
        model = fit_pca(train, target_dim=3)
        total_variance = np.var(train, axis=0, ddof=1).sum()
        assert abs(model.eigenvalues.sum() - total_variance) / total_variance < 1e-8

    def test_transformed_training_columns_are_uncorrelated(self):
        rng = np.random.default_rng(5)
        train = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 5))
        model = fit_pca(train, target_dim=5)
        projected = model.transform(train)
        cov = np.cov(projected, rowvar=False)
        off_diagonal = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off_diagonal)) < 1e-8

    def test_target_dim_bounds(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((5, 3)), target_dim=4)

    def test_shape_contract(self):
        rng = np.random.default_rng(6)
        model = fit_pca(rng.normal(size=(10, 4)), target_dim=2)
        out = model.transform(rng.normal(size=(7, 4)))
        assert out.shape == (7, 2)


def two_blobs(n_per_class=40, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, 2))
    b = rng.normal(size=(n_per_class, 2)) + np.array([separation, 0.0])
    train = np.vstack([a, b])
    labels = np.repeat([0, 1], n_per_class)
    return train, labels


class TestLda:
    def test_separated_blobs_project_far_apart(self):
        train, labels = two_blobs(separation=10.0)
        model = fit_lda(train, labels, target_dim=1)
        projected = model.transform(train)[:, 0]
        mean_gap = abs(projected[labels == 0].mean() - projected[labels == 1].mean())
        within_std = max(
            projected[labels == 0].std(ddof=1), projected[labels == 1].std(ddof=1)
        )
        assert mean_gap > 5.0 * within_std

    def test_effective_dim_capped_at_classes_minus_one(self):
        train, labels = two_blobs()
        model = fit_lda(train, labels, target_dim=10)
        assert model.effective_dim == 1

    def test_consistent_relabeling_gives_same_projection_up_to_sign(self):
        train, labels = two_blobs(seed=3)
        perm = np.random.default_rng(4).permutation(train.shape[0])
        base = fit_lda(train, labels, target_dim=1).projection[:, 0]
        shuffled = fit_lda(train[perm], labels[perm], target_dim=1).projection[:, 0]
        alignment = abs(float(base @ shuffled) / (np.linalg.norm(base) * np.linalg.norm(shuffled)))
        assert abs(alignment - 1.0) < 1e-8

    def test_translation_leaves_directions_unchanged(self):
        train, labels = two_blobs(seed=5)
        base = fit_lda(train, labels, target_dim=1).projection[:, 0]
        shifted = fit_lda(train + np.array([100.0, -40.0]), labels, target_dim=1).projection[:, 0]
        alignment = abs(float(base @ shifted))
        assert abs(alignment - 1.0) < 1e-8

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_lda(np.random.default_rng(0).normal(size=(6, 2)), [0] * 6, target_dim=1)

    def test_tiny_class_rejected(self):
        train = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValueError, match="two members"):
            fit_lda(train, [0, 0, 0, 0, 1], target_dim=1)

    def test_high_dimensional_low_sample_is_regularized(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(8, 30))  # singular within-class scatter
        labels = np.repeat([0, 1], 4)
        model = fit_lda(train, labels, target_dim=1)
        assert np.all(np.isfinite(model.projection))


class TestLdaOracle:
    @pytest.mark.parametrize("n_classes, d", [(3, 85), (7, 19)])
    def test_generalized_eigenproblem(self, n_classes, d):
        rng = np.random.default_rng(100 + n_classes)
        centres = rng.normal(scale=2.0, size=(n_classes, d))
        labels = np.repeat(np.arange(n_classes), 60)
        train = centres[labels] + rng.normal(size=(labels.size, d)) @ rng.normal(size=(d, d))
        model = fit_lda(train, labels, target_dim=d)

        # the scatters as fit_lda documents them
        mean = train.mean(axis=0)
        s_w = np.zeros((d, d))
        s_b = np.zeros((d, d))
        for c in range(n_classes):
            members = train[labels == c]
            dev = members - members.mean(axis=0)
            s_w += dev.T @ dev
            gap = members.mean(axis=0) - mean
            s_b += members.shape[0] * np.outer(gap, gap)
        s_w_reg = s_w + 1e-6 * np.trace(s_w) / d * np.eye(d)

        want = scipy.linalg.eigh(s_b, s_w_reg, eigvals_only=True)[::-1][: n_classes - 1]
        assert model.effective_dim == n_classes - 1
        assert np.all(np.diff(model.eigenvalues) <= 0)
        np.testing.assert_allclose(model.eigenvalues, want, rtol=1e-9, atol=0)
        for v, lam in zip(model.projection.T, model.eigenvalues):
            residual = s_b @ v - lam * (s_w_reg @ v)
            assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(s_b @ v)


def fit(reducer, train, labels=None, **fields):
    """`fit_reducer` of the `PipelineConfig` made of `reducer` and `fields`."""
    return fit_reducer(PipelineConfig(reducer=reducer, **fields), train, labels)


class TestFitReducer:
    def test_identity_is_identity(self):
        rng = np.random.default_rng(7)
        train = rng.normal(size=(10, 4))
        reducer = fit("identity", train)
        probe = rng.normal(size=(3, 4))
        assert np.array_equal(reducer.transform(probe), probe)
        assert reducer.effective_dim == 4

    def test_ae_half_of_128_features(self):
        rng = np.random.default_rng(8)
        train = rng.uniform(size=(30, 128))
        reducer = fit("ae", train, ppl=(0.5,), train_cfg=TrainConfig(epochs=1, seed=0))
        assert reducer.effective_dim == 64
        assert reducer.transform(train).shape == (30, 64)

    def test_lda_cap_on_binary_data(self):
        train, labels = two_blobs()
        reducer = fit("lda", train, labels, target_dim=64)
        assert reducer.effective_dim == 1

    @pytest.mark.parametrize("fields, width", [
        ({"ppl": (0.75,)}, 14),
        # wider than the input: PCA keeps every one of the 19 directions
        ({"ppl": (1.5,)}, 19),
        ({"target_dim": 40}, 19),
    ], ids=["ppl-0.75", "ppl-1.5", "target_dim-40"])
    def test_pca_dim_from_fraction(self, fields, width):
        rng = np.random.default_rng(9)
        reducer = fit("pca", rng.normal(size=(20, 19)), **fields)
        assert reducer.effective_dim == width

    def test_row_and_column_contract(self):
        rng = np.random.default_rng(10)
        train = rng.uniform(size=(25, 10))
        labels = np.repeat([0, 1, 2, 3, 4], 5)
        for reducer in [
            fit("identity", train),
            fit("pca", train, target_dim=4),
            fit("lda", train, labels, target_dim=4),
            fit("ae", train, ppl=(0.4,), train_cfg=TrainConfig(epochs=1, seed=0)),
        ]:
            out = reducer.transform(train)
            assert out.shape == (25, reducer.effective_dim)

    def test_every_kind_takes_only_a_matrix_of_its_width(self):
        train = np.random.default_rng(11).uniform(size=(24, 4))
        labels = np.repeat([0, 1, 2], 8)
        for reducer in [
            fit("identity", train),
            fit("pca", train, target_dim=2),
            fit("lda", train, labels, target_dim=2),
            fit("ae", train, ppl=(0.5,), train_cfg=TrainConfig(epochs=1, seed=0)),
        ]:
            with pytest.raises(ValueError, match=r"^input has shape \(4,\), expected \(\*, 4\)$"):
                reducer.transform(train[0])
            with pytest.raises(ValueError, match=r"^input has shape \(24, 3\), expected \(\*, 4\)$"):
                reducer.transform(train[:, :3])
            assert reducer.transform(train[:1]).shape == (1, reducer.effective_dim)


def one_of_each_kind(train):
    """Identity, PCA, LDA and AE reducers fitted on a 24 x 6 matrix."""
    labels = np.repeat([0, 1, 2], 8)
    return [
        fit("identity", train),
        fit("pca", train, target_dim=3),
        fit("lda", train, labels, target_dim=2),
        fit("ae", train, ppl=(0.5,), train_cfg=TrainConfig(epochs=1, seed=3)),
    ]


class TestSerialization:
    def test_round_trip_every_kind(self, tmp_path):
        rng = np.random.default_rng(11)
        reducers = one_of_each_kind(rng.uniform(size=(24, 6)))
        # the keys of format version 1, as earlier versions of this module wrote them
        header = {"format_version", "kind"}
        keys = [
            header | {"dim"},
            header | {"mean", "components", "eigenvalues"},
            header | {"mean", "projection", "eigenvalues"},
            header | {"ppl", "input_dim", "n_layers", "w_0", "b_0", "act_0"},
        ]
        probe = rng.uniform(size=(5, 6))
        for i, (reducer, want) in enumerate(zip(reducers, keys)):
            path = tmp_path / f"reducer_{i}.npz"
            save_reducer(reducer, path)
            with np.load(path) as data:
                assert set(data.files) == want
            loaded = load_reducer(path)
            assert type(loaded) is type(reducer)
            assert loaded.kind == reducer.kind
            assert loaded.effective_dim == reducer.effective_dim
            assert np.array_equal(loaded.transform(probe), reducer.transform(probe))
        assert type(load_reducer(tmp_path / "reducer_0.npz").effective_dim) is int

    def test_two_layer_ae_round_trip_is_exact(self, tmp_path):
        data = np.random.default_rng(3).uniform(size=(20, 7))
        reducer = fit("ae", data, ppl=(0.75, 0.5), train_cfg=TrainConfig(epochs=2, seed=5))
        path = tmp_path / "ae.npz"
        save_reducer(reducer, path)
        loaded = load_reducer(path)
        assert loaded.ppl == reducer.ppl
        assert loaded.stack.input_dim == reducer.stack.input_dim
        assert len(loaded.stack.layers) == len(reducer.stack.layers) == 2
        for la, lb in zip(reducer.stack.layers, loaded.stack.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)
            assert la.activation == lb.activation
        assert np.array_equal(loaded.transform(data), reducer.transform(data))

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.int64(99), kind=np.str_("identity"), dim=np.int64(1))
        with pytest.raises(ValueError, match="version"):
            load_reducer(path)

    def test_lda_file_with_class_means_loads(self, tmp_path):
        # earlier versions also wrote the class means, which nothing reads
        train, labels = two_blobs(seed=9)
        reducer = fit_lda(train, labels, target_dim=1)
        class_means = np.vstack([train[labels == c].mean(axis=0) for c in (0, 1)])
        path = tmp_path / "lda.npz"
        np.savez(
            path,
            format_version=np.int64(1),
            kind=np.str_("lda"),
            mean=reducer.mean,
            class_means=class_means,
            projection=reducer.projection,
            eigenvalues=reducer.eigenvalues,
        )
        loaded = load_reducer(path)
        assert isinstance(loaded, LdaReducer)
        assert np.array_equal(loaded.eigenvalues, reducer.eigenvalues)
        assert np.array_equal(loaded.transform(train), reducer.transform(train))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "umap.npz"
        np.savez(path, format_version=np.int64(1), kind=np.str_("umap"))
        with pytest.raises(ValueError, match="unknown reducer kind 'umap'"):
            load_reducer(path)


class TestFittedReducers:
    def test_fields_cannot_be_reassigned(self):
        rng = np.random.default_rng(15)
        for reducer in one_of_each_kind(rng.uniform(size=(24, 6))):
            name = dataclasses.fields(reducer)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(reducer, name, getattr(reducer, name))


def _package_modules():
    yield aeknn
    for info in pkgutil.iter_modules(aeknn.__path__):
        yield importlib.import_module(f"aeknn.{info.name}")


def test_dataclasses_holding_arrays_compare_by_identity():
    # value equality over numpy fields raises on == and makes hash() raise;
    # every dataclass holding arrays, itself or through a field, compares by
    # identity, and the rest keep value equality
    classes = {
        cls
        for module in _package_modules()
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and isinstance(cls, type)
        and cls.__module__.startswith("aeknn")
    }
    holding = {cls for cls in classes if any("ndarray" in str(f.type) for f in dataclasses.fields(cls))}
    while True:
        names = {cls.__name__ for cls in holding}
        grown = holding | {
            cls for cls in classes
            if any(name in str(f.type) for f in dataclasses.fields(cls) for name in names)
        }
        if grown == holding:
            break
        holding = grown
    assert {"PcaReducer", "LdaReducer", "AeReducer", "AutoencoderStack", "EncoderLayer",
            "Dataset", "SubsetView", "KnnModel", "FoldResult", "CvResult"} <= names
    for cls in holding:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    for cls in classes - holding:
        assert cls.__eq__ is not object.__eq__, cls
    assert {c.__name__ for c in classes - holding} >= {"PipelineConfig", "TrainConfig"}

    rng = np.random.default_rng(16)
    train = rng.uniform(size=(24, 6))
    for reducer, twin in zip(one_of_each_kind(train), one_of_each_kind(train)):
        assert reducer == reducer and hash(reducer) == hash(reducer)
        if not isinstance(reducer, IdentityReducer):
            assert reducer != twin and len({reducer, twin}) == 2
    stack = one_of_each_kind(train)[3].stack
    assert stack == stack and stack.layers[0] == stack.layers[0]
    assert len({stack, *stack.layers}) == 1 + len(stack.layers)
    assert TrainConfig(epochs=2) == TrainConfig(epochs=2)


@pytest.mark.parametrize("module", list(_package_modules()), ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
