import math

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
    init_layer,
    layer_size,
    loss_and_gradients,
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

    @pytest.mark.parametrize("fraction", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_fraction_rejected(self, fraction):
        with pytest.raises(ValueError, match="positive and finite"):
            layer_size(10, fraction)


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


class TestActivationsInPlace:
    """The `out=` forms that training writes into its workspace are bitwise
    the allocating forms."""

    @pytest.fixture(scope="class")
    def edges(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 800.0, -800.0,
                  tiny, -tiny, 1e-310, -1e-310, 0.5, -0.5]
        x = np.array(values * 7)
        assert np.signbit(x[4]) != np.signbit(x[5])  # both NaN signs
        return x

    @pytest.mark.parametrize("kind", list(ActivationKind))
    @pytest.mark.parametrize("aliased", [False, True], ids=["fresh-out", "out-is-x"])
    def test_apply_into_out_equals_allocating_form(self, kind, edges, aliased):
        want = kind.apply(edges)
        x = edges.copy()
        out = x if aliased else np.full_like(x, 7.0)
        got = kind.apply(x, out=out, scratch=np.full_like(x, 3.0))
        assert got is out
        assert same_bits(got, want)

    @pytest.mark.parametrize("kind", list(ActivationKind))
    def test_derivative_into_out_equals_allocating_form(self, kind, edges):
        y = kind.apply(edges)
        out = np.full_like(y, 7.0)
        got = kind.derivative_from_output(y, out=out)
        assert got is out
        assert same_bits(got, kind.derivative_from_output(y))

    def test_relu_derivative_in_a_float_buffer_is_the_cast_mask(self, edges):
        y = ActivationKind.RELU.apply(edges)
        out = np.full_like(y, 7.0)
        ActivationKind.RELU.derivative_from_output(y, out=out)
        assert same_bits(out, (y > 0).astype(np.float64))


PARAMS = ("w_enc", "b_enc", "w_dec", "b_dec")


def manual_layer(w_enc, b_enc, w_dec, b_dec, hidden=ActivationKind.SIGMOID, out=ActivationKind.SIGMOID,
                 dtype=np.float64):
    return LayerParams(
        w_enc=np.asarray(w_enc, dtype),
        b_enc=np.asarray(b_enc, dtype),
        w_dec=np.asarray(w_dec, dtype),
        b_dec=np.asarray(b_dec, dtype),
        act_hidden=hidden,
        act_out=out,
    )


def float32_layer(layer):
    """`layer` as `train_layer` trains it: its parameters rounded to float32."""
    return manual_layer(*(getattr(layer, name) for name in PARAMS),
                        hidden=layer.act_hidden, out=layer.act_out, dtype=np.float32)


def encoder_stack(layer):
    """The one-layer stack keeping `layer`'s encoder half."""
    return AutoencoderStack(
        layers=(EncoderLayer(w=layer.w_enc, b=layer.b_enc, activation=layer.act_hidden),),
        input_dim=layer.input_dim,
    )


def loop_forward(layer, batch):
    """Independent dense math: explicit loops over plain floats, no shared
    helpers. Returns each row's codes and the batch-mean reconstruction
    error ||x - x_rec||^2 / d."""

    def act(kind, v):
        if kind is ActivationKind.SIGMOID:
            return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))
        return v if v > 0.0 else 0.0

    h, d = layer.w_enc.shape
    codes, total = [], 0.0
    for x in batch.tolist():
        z = [
            act(layer.act_hidden, sum(layer.w_enc[i, j] * x[j] for j in range(d)) + layer.b_enc[i])
            for i in range(h)
        ]
        rec = [
            act(layer.act_out, sum(layer.w_dec[i, j] * z[j] for j in range(h)) + layer.b_dec[i])
            for i in range(d)
        ]
        codes.append(z)
        total += sum((x[i] - rec[i]) ** 2 for i in range(d)) / d
    return np.array(codes), total / len(batch)


def layer_with_biases(rng, d, h, hidden=ActivationKind.SIGMOID, out=ActivationKind.SIGMOID):
    """An initialized layer whose biases, zero after init, are drawn too."""
    base = init_layer(d, h, rng, act_hidden=hidden, act_out=out)
    return manual_layer(base.w_enc, rng.uniform(-0.5, 0.5, size=h),
                        base.w_dec, rng.uniform(-0.5, 0.5, size=d), hidden, out)


class TestForward:
    def test_zero_weights_sigmoid_gives_half(self):
        layer = manual_layer(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 3)), np.zeros(4))
        x = np.array([[9.0, -3.0, 0.1, 2.0]])
        assert np.all(encode(encoder_stack(layer), x) == 0.5)
        loss, _ = loss_and_gradients(layer, x)
        assert loss == float(np.mean((x - 0.5) ** 2))

    def test_relu_identity_passes_positive(self):
        layer = manual_layer([[1.0]], [0.0], [[1.0]], [0.0],
                             hidden=ActivationKind.RELU, out=ActivationKind.RELU)
        x = np.array([[2.0]])
        assert encode(encoder_stack(layer), x)[0, 0] == 2.0
        assert loss_and_gradients(layer, x)[0] == 0.0

    def test_matches_hand_rolled_matrix_vector_oracle(self):
        rng = np.random.default_rng(7)
        for hidden in ActivationKind:
            for out in ActivationKind:
                layer = layer_with_biases(rng, 4, 3, hidden, out)
                batch = rng.normal(size=(5, 4))
                _, loss_ref = loop_forward(layer, batch)
                loss, _ = loss_and_gradients(layer, batch)
                assert abs(loss - loss_ref) <= 1e-12, (hidden, out)

    def test_dimension_mismatch(self):
        # a batch is always a (rows, input_dim) matrix, one row included
        layer = manual_layer(np.zeros((2, 3)), np.zeros(2), np.zeros((3, 2)), np.zeros(3))
        for shape in [(3,), (2, 4), (2, 2), (1, 2, 3)]:
            with pytest.raises(ValueError, match="expected"):
                loss_and_gradients(layer, np.zeros(shape))


def finite_difference_grads(layer, batch, step=1e-5):
    """Central differences on the training step's own batch-mean loss."""
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
        return loss_and_gradients(probe, batch)[0]

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
        loss, grads = loss_and_gradients(layer, batch)
        assert loss == 0.0
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
            _, analytic = loss_and_gradients(layer, batch)
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

        loss, grads = loss_and_gradients(layer, np.array([[x]]))
        np.testing.assert_allclose(loss, (xr - x) ** 2, rtol=1e-12)
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
        assert loss_and_gradients(params, point[None, :])[0] < 1e-3

    def test_zero_learning_rate_keeps_initialization(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(size=(30, 5))
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=9)
        params, _ = train_layer(data, 3, cfg)
        # the initialization, rounded to float32 for training and back
        init = float32_layer(init_layer(5, 3, np.random.default_rng(9)))
        for name in PARAMS:
            assert same_bits(getattr(params, name), getattr(init, name).astype(np.float64)), name

    def test_rank3_loss_at_least_halves(self):
        data = rank3_benchmark(n=800)
        cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=2.0, seed=1)
        _, history = train_layer(data, 3, cfg)
        assert history[-1] <= 0.5 * history[0]

    def test_non_finite_loss_reported_with_location(self):
        # data far outside any sane range, though within float32's, overflows
        # the first loss evaluation (its squares pass 3.4e38), which must be
        # caught and located rather than propagated as inf/nan
        rng = np.random.default_rng(0)
        data = rng.uniform(1e30, 2e30, size=(64, 4))
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

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan, -0.5])
    def test_config_rejects_a_negative_or_non_finite_learning_rate(self, rate):
        # an infinite rate once diverged at the first batch of every fold
        with pytest.raises(ValueError, match="learning_rate must be non-negative and finite"):
            TrainConfig(learning_rate=rate)

    def test_config_rejects_a_negative_seed(self):
        # which numpy's generators refuse only when a fold is fitted
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("batch_size", 8.5), ("seed", 1.5), ("epochs", 3.0),
        ("batch_size", True), ("seed", False), ("epochs", "3"),
    ])
    def test_config_rejects_a_count_that_is_not_an_integer(self, name, value):
        # a float count once failed only inside a fold worker, as a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            TrainConfig(**{name: value})

    def test_config_takes_numpy_integers(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(4), seed=np.uint8(3))
        params, history = train_layer(np.random.default_rng(0).uniform(size=(10, 3)), 2, cfg)
        assert len(history) == 2

    @pytest.mark.parametrize("hidden", [ActivationKind.SIGMOID, ActivationKind.RELU])
    def test_one_full_batch_epoch_is_one_checked_gradient_step(self, hidden):
        # training takes exactly the step `loss_and_gradients` computes,
        # which the finite-difference checks cover
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
        init = float32_layer(
            init_layer(5, 3, np.random.default_rng(3), hidden, ActivationKind.SIGMOID)
        )
        _, grads = loss_and_gradients(init, data)
        for name in PARAMS:
            want = getattr(init, name) - cfg.learning_rate * getattr(grads, name)
            assert want.dtype == np.float32
            assert same_bits(getattr(params, name), want.astype(np.float64)), name

    @pytest.mark.parametrize("hidden", [ActivationKind.SIGMOID, ActivationKind.RELU])
    def test_unshuffled_epochs_are_sequential_checked_gradient_steps(self, hidden):
        # 29 rows in batches of 8: three full batches and a short one per epoch
        data = np.random.default_rng(22).uniform(size=(29, 5))
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.7, seed=4,
                          shuffle_each_epoch=False, act_hidden=hidden,
                          act_out=ActivationKind.SIGMOID)
        params, history = train_layer(data, 3, cfg)
        init = float32_layer(
            init_layer(5, 3, np.random.default_rng(4), hidden, ActivationKind.SIGMOID)
        )
        arrays = {name: getattr(init, name).copy() for name in PARAMS}
        want_history = []
        for _ in range(cfg.epochs):
            epoch_loss = 0.0
            for start in range(0, 29, 8):
                batch = data[start : start + 8]
                layer = manual_layer(**arrays, hidden=hidden, dtype=np.float32)
                loss, grads = loss_and_gradients(layer, batch)
                epoch_loss += loss * batch.shape[0]
                for name in arrays:
                    arrays[name] = arrays[name] - cfg.learning_rate * getattr(grads, name)
            want_history.append(epoch_loss / 29)
        for name, want in arrays.items():
            assert same_bits(getattr(params, name), want.astype(np.float64)), name
        assert history == want_history

    def test_gradients_are_not_shared_between_calls(self):
        rng = np.random.default_rng(23)
        layer = layer_with_biases(rng, 6, 4)
        first_loss, first = loss_and_gradients(layer, rng.uniform(size=(9, 6)))
        kept = {name: getattr(first, name).copy() for name in ("w_enc", "b_enc", "w_dec", "b_dec")}
        second_loss, second = loss_and_gradients(layer, rng.uniform(size=(9, 6)))
        assert first_loss != second_loss
        for name, want in kept.items():
            assert same_bits(getattr(first, name), want), name
            assert not np.shares_memory(getattr(first, name), getattr(second, name)), name


def allocating_sigmoid(x):
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def reference_activation(kind, x):
    return allocating_sigmoid(x) if kind is ActivationKind.SIGMOID else np.maximum(x, 0.0)


def reference_train_layer(data, hidden_size, cfg):
    """Mini-batch descent in its allocating form, in float32: the rows and
    the initialization rounded to float32 once, a fresh array for every
    intermediate, the masked-select sigmoid, `derivative_from_output`,
    `param -= lr * grad`, each batch's loss its float32 sum of squares over
    its size, and the trained parameters returned as float64."""
    rng = np.random.default_rng(cfg.seed)
    n, d = data.shape
    data = data.astype(np.float32)
    init = init_layer(d, hidden_size, rng, cfg.act_hidden, cfg.act_out)
    w_enc, b_enc, w_dec, b_dec = (getattr(init, name).astype(np.float32) for name in PARAMS)
    history, order = [], np.arange(n)
    for _ in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = data[order[start : start + cfg.batch_size]]
            m = batch.shape[0]
            z = reference_activation(cfg.act_hidden, batch @ w_enc.T + b_enc)
            x_rec = reference_activation(cfg.act_out, z @ w_dec.T + b_dec)
            residual = x_rec - batch
            epoch_loss += float(np.sum(residual**2)) / residual.size * m
            g_out = (2.0 / (d * m)) * residual * cfg.act_out.derivative_from_output(x_rec)
            g_hidden = (g_out @ w_dec) * cfg.act_hidden.derivative_from_output(z)
            w_enc -= cfg.learning_rate * (g_hidden.T @ batch)
            b_enc -= cfg.learning_rate * g_hidden.sum(axis=0)
            w_dec -= cfg.learning_rate * (g_out.T @ z)
            b_dec -= cfg.learning_rate * g_out.sum(axis=0)
        history.append(epoch_loss / n)
    assert w_enc.dtype == w_dec.dtype == b_enc.dtype == b_dec.dtype == np.float32
    return tuple(a.astype(np.float64) for a in (w_enc, b_enc, w_dec, b_dec)), history


class TestFloat32Training:
    """Layers train in float32 and come back as float64."""

    @pytest.mark.parametrize("hidden", list(ActivationKind))
    @pytest.mark.parametrize("d, h, m", [(256, 64, 32), (12, 5, 7), (5, 3, 1), (40, 60, 20)])
    def test_float32_gradients_match_float64(self, hidden, d, h, m):
        # The same float32-rounded layer and batch through the one step in
        # both precisions. Over 200 random layers (widths 2-300, hidden
        # 1-100, batches 1-64) the normwise relative error of a float32
        # gradient was at most 1.1e-6 (9 float32 epsilons) and of the loss
        # 1.3e-7; the bounds are ten times that. Criterion 1 checks the
        # float64 step against finite differences.
        rng = np.random.default_rng(d * h + m)
        layer64 = layer_with_biases(rng, d, h, hidden)
        layer64 = manual_layer(*(getattr(float32_layer(layer64), name) for name in PARAMS),
                               hidden=hidden)
        batch = rng.uniform(size=(m, d)).astype(np.float32).astype(np.float64)
        loss64, grads64 = loss_and_gradients(layer64, batch)
        loss32, grads32 = loss_and_gradients(float32_layer(layer64), batch)
        assert abs(loss32 - loss64) <= 1.3e-6 * loss64
        for name in PARAMS:
            got, want = getattr(grads32, name), getattr(grads64, name)
            assert got.dtype == np.float32 and want.dtype == np.float64
            error = np.linalg.norm(got.astype(np.float64) - want)
            assert error <= 1.1e-5 * np.linalg.norm(want), name

    @pytest.mark.parametrize("hidden", list(ActivationKind))
    def test_trained_parameters_are_float64_holding_float32_values(self, hidden):
        data = rank3_benchmark(n=100, d=9)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=1.0, seed=6, act_hidden=hidden)
        params, history = train_layer(data, 4, cfg)
        for name in PARAMS:
            value = getattr(params, name)
            assert value.dtype == np.float64, name
            assert same_bits(value.astype(np.float32).astype(np.float64), value), name
        assert all(isinstance(loss, float) for loss in history)
        stack = build_stack(data, (0.5, 0.25), cfg)
        assert all(layer.w.dtype == layer.b.dtype == np.float64 for layer in stack.layers)
        assert encode(stack, data).dtype == np.float64

    @pytest.mark.parametrize("value", [1e200, -3.5e38, np.finfo(np.float64).max])
    def test_finite_input_beyond_float32_range_is_a_value_error(self, value):
        # it would be inf in float32, then a misleading divergence at epoch 0
        data = np.random.default_rng(8).uniform(size=(20, 3))
        data[7, 1] = value
        with pytest.raises(ValueError, match=r"beyond float32's range \(\|x\| > 3.403e\+38\)"):
            train_layer(data, 2, TrainConfig(epochs=1))

    def test_non_finite_input_still_diverges(self):
        data = np.random.default_rng(8).uniform(size=(20, 3))
        data[7, 1] = np.inf
        with pytest.raises(TrainingDivergedError, match="epoch 0, batch"):
            train_layer(data, 2, TrainConfig(epochs=1))


class TestTrainLayerBitwise:
    """`train_layer` writes every step into one float32 workspace; its
    weights, biases and losses are the float32 allocating loop's, bit for
    bit."""

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(31).uniform(size=(203, 12))

    @pytest.mark.parametrize("hidden", list(ActivationKind))
    @pytest.mark.parametrize("out", list(ActivationKind))
    @pytest.mark.parametrize("learning_rate", [1.0, 0.01])
    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("batch_size", [7, 32, 101, 500])
    def test_equals_the_allocating_loop(self, data, hidden, out, learning_rate, shuffle, batch_size):
        # 203 rows: batches of 7 divide them evenly, of 32 leave 11 rows and
        # of 101 one row, and 500 is one batch holding every row
        cfg = TrainConfig(epochs=3, batch_size=batch_size, learning_rate=learning_rate, seed=5,
                          shuffle_each_epoch=shuffle, act_hidden=hidden, act_out=out)
        params, history = train_layer(data, 5, cfg)
        want, want_history = reference_train_layer(data, 5, cfg)
        for name, ref in zip(("w_enc", "b_enc", "w_dec", "b_dec"), want):
            assert same_bits(getattr(params, name), ref), name
        assert np.array(history).tobytes() == np.array(want_history).tobytes()


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

    def test_divergence_names_the_layer(self):
        data = np.random.default_rng(0).uniform(1e30, 2e30, size=(64, 4))
        cfg = TrainConfig(epochs=2, batch_size=16, act_hidden=ActivationKind.RELU,
                          act_out=ActivationKind.RELU)
        with pytest.raises(TrainingDivergedError,
                           match=r"^layer 0 \(4 -> 2\): non-finite loss at epoch 0, batch 0$"):
            build_stack(data, (0.5,), cfg)

    def test_divergence_in_a_later_layer_names_it_and_its_input_width(self, monkeypatch):
        import aeknn.autoencoder as autoencoder

        trained = []

        def diverging_second_layer(working, size, cfg, rng):
            if trained:
                raise TrainingDivergedError("non-finite loss at epoch 2, batch 7")
            trained.append(size)
            return train_layer(working, size, cfg, rng=rng)

        monkeypatch.setattr(autoencoder, "train_layer", diverging_second_layer)
        data = np.random.default_rng(9).uniform(size=(20, 256))
        with pytest.raises(TrainingDivergedError,
                           match=r"^layer 1 \(384 -> 64\): non-finite loss at epoch 2, batch 7$"):
            build_stack(data, (1.5, 0.25, 1.5), TrainConfig(epochs=1))
        assert trained == [384]

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
        # the codes of the explicit-loop forward pass, on both activations
        rng = np.random.default_rng(1)
        for hidden in ActivationKind:
            params = layer_with_biases(rng, 4, 2, hidden)
            x = rng.normal(size=(6, 4))
            codes_ref, _ = loop_forward(params, x)
            np.testing.assert_allclose(
                encode(encoder_stack(params), x), codes_ref, rtol=0, atol=1e-12
            )

    def test_matrix_equals_row_by_row(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(size=(12, 6))
        stack = build_stack(data, (0.5,), TrainConfig(epochs=1, seed=0))
        batch = encode(stack, data)
        rows = np.vstack([encode(stack, row[None, :]) for row in data])
        # BLAS blocking makes matrix and vector products differ in final ulps
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        # the empty stack checks its input too; one row is a (1, d) matrix
        stack = AutoencoderStack(layers=(), input_dim=3)
        for shape in [(2, 4), (3,), (1, 2, 3)]:
            with pytest.raises(ValueError, match="expected"):
                encode(stack, np.zeros(shape))

