import numpy as np
import pytest

from aeknn.autoencoder import (
    ActivationKind,
    AutoencoderStack,
    EncoderLayer,
    LayerParams,
    TrainConfig,
    TrainingDivergedError,
    build_stack,
    encode,
    forward,
    gradients,
    init_layer,
    layer_size,
    load_stack,
    reconstruction_loss,
    save_stack,
    train_layer,
)


class TestLayerSize:
    @pytest.mark.parametrize(
        "n,fraction,expected",
        [(19, 0.75, 14), (100, 0.5, 50), (617, 1.5, 926), (128, 0.5, 64), (2, 0.1, 1)],
    )
    def test_rounding_half_away_from_zero(self, n, fraction, expected):
        assert layer_size(n, fraction) == expected

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            layer_size(0, 0.5)
        with pytest.raises(ValueError):
            layer_size(10, 0.0)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert ActivationKind.SIGMOID.apply(np.array([0.0]))[0] == 0.5

    def test_sigmoid_saturation_is_finite(self):
        out = ActivationKind.SIGMOID.apply(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_relu_and_derivatives(self):
        x = np.array([-2.0, 0.0, 3.0])
        relu = ActivationKind.RELU
        assert relu.apply(x).tolist() == [0.0, 0.0, 3.0]
        assert relu.derivative_from_output(relu.apply(x)).tolist() == [0.0, 0.0, 1.0]
        sigmoid = ActivationKind.SIGMOID
        analytic = np.exp(-x) / (1.0 + np.exp(-x)) ** 2
        np.testing.assert_allclose(
            sigmoid.derivative_from_output(sigmoid.apply(x)), analytic, rtol=1e-14
        )


def split_by_sign_sigmoid(x):
    """Reference sigmoid: each sign half through its own overflow-free form."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def pre_activation_derivative(kind, x):
    """Reference derivative evaluated from the pre-activation values."""
    if kind is ActivationKind.SIGMOID:
        s = split_by_sign_sigmoid(x)
        return s * (1.0 - s)
    return (x > 0.0).astype(np.float64)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestActivationOracles:
    @pytest.fixture(scope="class")
    def points(self):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0, 1e-300, -1e-300]
        wide = 30.0 * np.random.default_rng(17).normal(size=10**6)
        return np.concatenate([wide, special])

    def test_sigmoid_bitwise_equals_split_by_sign(self, points):
        assert same_bits(ActivationKind.SIGMOID.apply(points), split_by_sign_sigmoid(points))

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_output_derivative_bitwise_equals_pre_activation_derivative(self, kind, points):
        from_output = kind.derivative_from_output(kind.apply(points))
        assert same_bits(from_output, pre_activation_derivative(kind, points))


def manual_layer(w_enc, b_enc, w_dec, b_dec, hidden=ActivationKind.SIGMOID, out=ActivationKind.SIGMOID):
    return LayerParams(
        w_enc=np.asarray(w_enc, float),
        b_enc=np.asarray(b_enc, float),
        w_dec=np.asarray(w_dec, float),
        b_dec=np.asarray(b_dec, float),
        act_hidden=hidden,
        act_out=out,
    )


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        layer = manual_layer(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        z, _ = forward(layer, np.array([9.0, -3.0, 0.1, 2.0]))
        assert np.all(z == 0.5)

    def test_relu_identity_passes_positive(self):
        layer = manual_layer([[1.0]], [0.0], [[1.0]], [0.0],
                             hidden=ActivationKind.RELU, out=ActivationKind.RELU)
        z, x_rec = forward(layer, np.array([2.0]))
        assert z[0] == 2.0 and x_rec[0] == 2.0

    def test_matches_hand_rolled_matrix_vector_oracle(self):
        rng = np.random.default_rng(7)
        layer = init_layer(2, 3, rng)
        x = rng.normal(size=2)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        # independent dense math: explicit loops, no shared helpers
        pre_hidden = [
            sum(layer.w_enc[i, j] * x[j] for j in range(2)) + layer.b_enc[i]
            for i in range(3)
        ]
        z_ref = [sig(v) for v in pre_hidden]
        pre_out = [
            sum(layer.w_dec[i, j] * z_ref[j] for j in range(3)) + layer.b_dec[i]
            for i in range(2)
        ]
        rec_ref = [sig(v) for v in pre_out]

        z, x_rec = forward(layer, x)
        np.testing.assert_allclose(z, z_ref, atol=1e-12)
        np.testing.assert_allclose(x_rec, rec_ref, atol=1e-12)

    def test_dimension_mismatch(self):
        layer = manual_layer(np.zeros((2, 3)), np.zeros(2), np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            forward(layer, np.zeros(4))


def finite_difference_grads(layer, batch, step=1e-5):
    """Central differences on the batch-mean reconstruction loss."""
    arrays = {
        "w_enc": layer.w_enc.copy(),
        "b_enc": layer.b_enc.copy(),
        "w_dec": layer.w_dec.copy(),
        "b_dec": layer.b_dec.copy(),
    }

    def loss_with(name, flat_index, delta):
        trial = {k: v.copy() for k, v in arrays.items()}
        trial[name].flat[flat_index] += delta
        probe = LayerParams(
            w_enc=trial["w_enc"],
            b_enc=trial["b_enc"],
            w_dec=trial["w_dec"],
            b_dec=trial["b_dec"],
            act_hidden=layer.act_hidden,
            act_out=layer.act_out,
        )
        return reconstruction_loss(probe, batch)

    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        for idx in range(arr.size):
            up = loss_with(name, idx, step)
            down = loss_with(name, idx, -step)
            g.flat[idx] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestGradients:
    def test_zero_at_perfect_reconstruction(self):
        # relu identity reconstructs positive inputs exactly
        layer = manual_layer(
            np.eye(3), np.zeros(3), np.eye(3), np.zeros(3),
            hidden=ActivationKind.RELU, out=ActivationKind.RELU,
        )
        batch = np.array([[0.2, 0.5, 1.0], [2.0, 0.1, 0.7]])
        grads = gradients(layer, batch)
        for g in (grads.w_enc, grads.b_enc, grads.w_dec, grads.b_dec):
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("act", [ActivationKind.SIGMOID, ActivationKind.RELU])
    def test_matches_central_finite_differences(self, act):
        rng = np.random.default_rng(42)
        for _ in range(4):
            d = int(rng.integers(2, 7))
            h = int(rng.integers(2, 6))
            layer = init_layer(d, h, rng, act_hidden=act, act_out=ActivationKind.SIGMOID)
            batch = rng.uniform(0.05, 0.95, size=(5, d))
            analytic = gradients(layer, batch)
            numeric = finite_difference_grads(layer, batch)
            for name in ("w_enc", "b_enc", "w_dec", "b_dec"):
                assert max_rel_error(getattr(analytic, name), numeric[name]) < 1e-4

    def test_scalar_sigmoid_case_against_hand_chain_rule(self):
        w, b, wd, bd = 0.7, 0.1, -0.4, 0.3
        x = 0.6
        layer = manual_layer([[w]], [b], [[wd]], [bd])

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        a = w * x + b
        z = sig(a)
        c = wd * z + bd
        xr = sig(c)
        # loss = (xr - x)^2 for one sample in one dimension
        dl_dxr = 2.0 * (xr - x)
        dl_dc = dl_dxr * xr * (1 - xr)
        dl_dwd = dl_dc * z
        dl_dbd = dl_dc
        dl_dz = dl_dc * wd
        dl_da = dl_dz * z * (1 - z)
        dl_dw = dl_da * x
        dl_db = dl_da

        grads = gradients(layer, np.array([[x]]))
        np.testing.assert_allclose(grads.w_dec[0, 0], dl_dwd, rtol=1e-12)
        np.testing.assert_allclose(grads.b_dec[0], dl_dbd, rtol=1e-12)
        np.testing.assert_allclose(grads.w_enc[0, 0], dl_dw, rtol=1e-12)
        np.testing.assert_allclose(grads.b_enc[0], dl_db, rtol=1e-12)


def rank3_benchmark(n=200, d=20, seed=3):
    rng = np.random.default_rng(seed)
    latent = rng.uniform(size=(n, 3))
    mix = rng.normal(size=(3, d))
    raw = latent @ mix
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    return 0.05 + 0.9 * (raw - lo) / (hi - lo)


class TestTrainLayer:
    def test_constant_dataset_fit_by_biases(self):
        point = np.array([0.3, 0.8, 0.55, 0.2])
        data = np.tile(point, (40, 1))
        cfg = TrainConfig(epochs=50, batch_size=8, learning_rate=1.0, seed=2)
        params, _ = train_layer(data, 2, cfg)
        _, rec = forward(params, point)
        assert float(np.mean((rec - point) ** 2)) < 1e-3

    def test_zero_learning_rate_keeps_initialization(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(size=(30, 5))
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=9)
        params, _ = train_layer(data, 3, cfg)
        init = init_layer(5, 3, np.random.default_rng(9))
        assert np.array_equal(params.w_enc, init.w_enc)
        assert np.array_equal(params.b_enc, init.b_enc)
        assert np.array_equal(params.w_dec, init.w_dec)
        assert np.array_equal(params.b_dec, init.b_dec)

    def test_rank3_loss_at_least_halves(self):
        data = rank3_benchmark(n=800)
        cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=2.0, seed=1)
        _, history = train_layer(data, 3, cfg)
        assert history[-1] <= 0.5 * history[0]

    def test_non_finite_loss_reported_with_location(self):
        # data far outside any sane range overflows the first loss evaluation,
        # which must be caught and located rather than propagated as inf/nan
        rng = np.random.default_rng(0)
        data = rng.uniform(1e200, 2e200, size=(64, 4))
        cfg = TrainConfig(
            epochs=5,
            batch_size=16,
            learning_rate=0.01,
            seed=0,
            act_hidden=ActivationKind.RELU,
            act_out=ActivationKind.RELU,
        )
        with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
            train_layer(data, 4, cfg)

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            train_layer(np.zeros((0, 4)), 2, TrainConfig())

    @pytest.mark.parametrize("hidden", [ActivationKind.SIGMOID, ActivationKind.RELU])
    def test_one_full_batch_epoch_is_one_checked_gradient_step(self, hidden):
        # training takes exactly the step `gradients` computes, which the
        # finite-difference checks cover
        data = np.random.default_rng(21).uniform(size=(12, 5))
        cfg = TrainConfig(
            epochs=1,
            batch_size=16,
            learning_rate=0.7,
            seed=3,
            shuffle_each_epoch=False,
            act_hidden=hidden,
            act_out=ActivationKind.SIGMOID,
        )
        params, _ = train_layer(data, 3, cfg)
        init = init_layer(5, 3, np.random.default_rng(3), hidden, ActivationKind.SIGMOID)
        grads = gradients(init, data)
        for name in ("w_enc", "b_enc", "w_dec", "b_dec"):
            want = getattr(init, name) - cfg.learning_rate * getattr(grads, name)
            assert same_bits(getattr(params, name), want), name


class TestBuildStack:
    def test_half_of_128_features_is_64(self):
        data = np.random.default_rng(1).uniform(size=(40, 128))
        stack = build_stack(data, (0.5,), TrainConfig(epochs=1, seed=0))
        assert len(stack.layers) == 1
        assert stack.output_dim == 64

    def test_fractions_always_of_original_width(self):
        data = np.random.default_rng(2).uniform(size=(30, 100))
        stack = build_stack(data, (1.5, 0.25, 1.5), TrainConfig(epochs=1, seed=0))
        assert [layer.output_dim for layer in stack.layers] == [150, 25, 150]

    def test_encoding_shape_contract(self):
        data = np.random.default_rng(3).uniform(size=(25, 10))
        stack = build_stack(data, (0.5,), TrainConfig(epochs=1, seed=0))
        assert encode(stack, data).shape == (25, stack.output_dim)

    def test_same_seed_bitwise_identical(self):
        data = np.random.default_rng(4).uniform(size=(30, 8))
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.5, seed=77)
        a = build_stack(data, (0.75, 0.5), cfg)
        b = build_stack(data, (0.75, 0.5), cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)

    def test_shape_chain_matches_last_fraction(self):
        data = np.random.default_rng(5).uniform(size=(20, 19))
        stack = build_stack(data, (1.5, 0.75), TrainConfig(epochs=1, seed=0))
        assert stack.output_dim == layer_size(19, 0.75)

    def test_loss_history_retrievable_per_layer(self):
        data = np.random.default_rng(6).uniform(size=(20, 6))
        stack = build_stack(data, (0.5, 0.5), TrainConfig(epochs=4, seed=0))
        assert len(stack.loss_histories) == 2
        assert all(len(h) == 4 for h in stack.loss_histories)


class TestEncode:
    def test_empty_stack_is_identity(self):
        stack = AutoencoderStack(layers=(), input_dim=5)
        x = np.random.default_rng(0).normal(size=(4, 5))
        assert np.array_equal(encode(stack, x), x)

    def test_single_layer_matches_forward(self):
        rng = np.random.default_rng(1)
        params = init_layer(4, 2, rng)
        stack = AutoencoderStack(
            layers=(EncoderLayer(w=params.w_enc, b=params.b_enc, activation=params.act_hidden),),
            input_dim=4,
        )
        x = rng.uniform(size=4)
        z, _ = forward(params, x)
        assert np.array_equal(encode(stack, x), z)

    def test_matrix_equals_row_by_row(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(12, 6))
        stack = build_stack(data, (0.5,), TrainConfig(epochs=1, seed=0))
        batch = encode(stack, data)
        rows = np.vstack([encode(stack, row) for row in data])
        # BLAS blocking makes matrix and vector products differ in final ulps
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        stack = AutoencoderStack(layers=(), input_dim=3)
        with pytest.raises(ValueError):
            encode(stack, np.zeros(4))


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        data = np.random.default_rng(3).uniform(size=(20, 7))
        stack = build_stack(data, (0.75, 0.5), TrainConfig(epochs=2, seed=5))
        path = tmp_path / "stack.npz"
        save_stack(stack, path)
        loaded = load_stack(path)
        assert loaded.input_dim == stack.input_dim
        assert len(loaded.layers) == len(stack.layers)
        for la, lb in zip(stack.layers, loaded.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)
            assert la.activation == lb.activation
        assert np.array_equal(encode(loaded, data), encode(stack, data))

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.int64(99), input_dim=np.int64(1), n_layers=np.int64(0))
        with pytest.raises(ValueError, match="version"):
            load_stack(path)
