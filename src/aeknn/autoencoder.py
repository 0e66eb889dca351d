"""Single-hidden-layer autoencoders trained by mini-batch gradient descent,
and their greedy layer-wise stacking.

Each layer is a full encode/decode pair trained to reproduce its input under
mean squared error; after training, the decoder half is discarded and only
the encoder (weights, bias, activation) is kept. A stack is built layer by
layer: every new layer is trained on the previous layers' encoding of the
training data, and layer widths are fractions of the ORIGINAL feature count,
never of the intermediate widths.

Gradients are exact analytic derivatives of the batch-mean reconstruction
error. `gradients` and every batch of `train_layer` run through one
forward/backward step, so checking `gradients` against finite differences
checks the arithmetic that trains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ActivationKind",
    "LayerParams",
    "Gradients",
    "TrainConfig",
    "EncoderLayer",
    "AutoencoderStack",
    "TrainingDivergedError",
    "layer_size",
    "init_layer",
    "forward",
    "reconstruction_loss",
    "gradients",
    "train_layer",
    "build_stack",
    "encode",
    "save_stack",
    "load_stack",
]


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite loss shows up during training."""


class ActivationKind(str, Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self is ActivationKind.SIGMOID:
            # exp only ever sees -|x|, so it cannot overflow: 1 / (1 + e^-x)
            # for x >= 0 and e^x / (1 + e^x) below. np.minimum returns its
            # first argument when both are NaN, so a NaN keeps its sign.
            e = np.exp(np.minimum(x, -x))
            return np.where(x >= 0, 1.0, e) / (1.0 + e)
        return np.maximum(x, 0.0)

    def derivative_from_output(self, y: np.ndarray) -> np.ndarray:
        """Exact derivative at x, given the activation's output y = apply(x)."""
        if self is ActivationKind.SIGMOID:
            return y * (1.0 - y)
        return (y > 0.0).astype(np.float64)


@dataclass(frozen=True)
class LayerParams:
    """One encode/decode pair. Encoder and decoder weights are independent
    (untied); their shapes are transposes of each other."""

    w_enc: np.ndarray  # (hidden, input)
    b_enc: np.ndarray  # (hidden,)
    w_dec: np.ndarray  # (input, hidden)
    b_dec: np.ndarray  # (input,)
    act_hidden: ActivationKind = ActivationKind.SIGMOID
    act_out: ActivationKind = ActivationKind.SIGMOID

    def __post_init__(self):
        h, d = self.w_enc.shape
        if self.w_dec.shape != (d, h):
            raise ValueError(
                f"decoder weights {self.w_dec.shape} are not the transpose shape of "
                f"encoder weights {self.w_enc.shape}"
            )
        if self.b_enc.shape != (h,) or self.b_dec.shape != (d,):
            raise ValueError("bias shapes do not match weight shapes")
        for a in (self.w_enc, self.b_enc, self.w_dec, self.b_dec):
            if not np.all(np.isfinite(a)):
                raise ValueError("layer parameters contain non-finite values")

    @property
    def input_dim(self) -> int:
        return self.w_enc.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_enc.shape[0]


@dataclass(frozen=True)
class Gradients:
    w_enc: np.ndarray
    b_enc: np.ndarray
    w_dec: np.ndarray
    b_dec: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0
    shuffle_each_epoch: bool = True
    act_hidden: ActivationKind = ActivationKind.SIGMOID
    act_out: ActivationKind = ActivationKind.SIGMOID

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be non-negative")


def layer_size(n_features: int, fraction: float) -> int:
    """Hidden-layer width: round(fraction * n_features) half away from zero,
    never below one."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if not fraction > 0:
        raise ValueError("fraction must be positive")
    return max(1, int(math.floor(fraction * n_features + 0.5)))


def init_layer(
    input_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    act_hidden: ActivationKind = ActivationKind.SIGMOID,
    act_out: ActivationKind = ActivationKind.SIGMOID,
) -> LayerParams:
    """Weights uniform in [-r, r] with r = sqrt(6 / (fan_in + fan_out)); zero biases."""
    r = math.sqrt(6.0 / (input_dim + hidden_dim))
    return LayerParams(
        w_enc=rng.uniform(-r, r, size=(hidden_dim, input_dim)),
        b_enc=np.zeros(hidden_dim),
        w_dec=rng.uniform(-r, r, size=(input_dim, hidden_dim)),
        b_dec=np.zeros(input_dim),
        act_hidden=act_hidden,
        act_out=act_out,
    )


def _as_batch(x: np.ndarray, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"{what} has shape {x.shape}, expected (*, {dim})")
    return x, single


def forward(layer: LayerParams, x: np.ndarray):
    """Encode then decode. Accepts a vector or a matrix of row vectors and
    returns (hidden, reconstruction) with matching leading shape."""
    batch, single = _as_batch(x, layer.input_dim, "input")
    z = layer.act_hidden.apply(batch @ layer.w_enc.T + layer.b_enc)
    x_rec = layer.act_out.apply(z @ layer.w_dec.T + layer.b_dec)
    if single:
        return z[0], x_rec[0]
    return z, x_rec


def reconstruction_loss(layer: LayerParams, batch: np.ndarray) -> float:
    """Mean over the batch of ||x - x_rec||^2 / input_dim."""
    batch, _ = _as_batch(batch, layer.input_dim, "batch")
    _, x_rec = forward(layer, batch)
    return float(np.mean((batch - x_rec) ** 2))


def _loss_and_gradients(layer: LayerParams, batch: np.ndarray) -> tuple[float, Gradients]:
    """One forward/backward pass: the batch-mean reconstruction error and its
    analytic gradients. Non-finite values pass through silently; the caller
    decides whether a non-finite loss is an error."""
    n, d = batch.shape
    with np.errstate(over="ignore", invalid="ignore"):
        z = layer.act_hidden.apply(batch @ layer.w_enc.T + layer.b_enc)
        x_rec = layer.act_out.apply(z @ layer.w_dec.T + layer.b_dec)
        residual = x_rec - batch
        loss = float(np.mean(residual**2))
        g_out = (2.0 / (d * n)) * residual * layer.act_out.derivative_from_output(x_rec)
        g_hidden = (g_out @ layer.w_dec) * layer.act_hidden.derivative_from_output(z)
        grads = Gradients(
            w_enc=g_hidden.T @ batch,
            b_enc=g_hidden.sum(axis=0),
            w_dec=g_out.T @ z,
            b_dec=g_out.sum(axis=0),
        )
    return loss, grads


def gradients(layer: LayerParams, batch: np.ndarray) -> Gradients:
    """Analytic gradients of the batch-mean reconstruction error.

    The per-sample loss is ||x - x_rec||^2 / d with d the input width, so
    the output-side error signal carries a 2 / (d * n) factor. This is the
    step `train_layer` takes on every batch.
    """
    batch, _ = _as_batch(batch, layer.input_dim, "batch")
    return _loss_and_gradients(layer, batch)[1]


def train_layer(
    data: np.ndarray,
    hidden_size: int,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[LayerParams, list[float]]:
    """Train one encode/decode layer by mini-batch gradient descent.

    Returns the trained parameters and the per-epoch mean loss history
    (losses measured on each batch before its update, averaged over the
    epoch's samples; the final short batch contributes its actual size).
    Raises TrainingDivergedError, naming epoch and batch, if the loss goes
    non-finite.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("training data must be a non-empty matrix")
    if hidden_size < 1:
        raise ValueError("hidden_size must be >= 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n, d = data.shape
    # the arrays of `layer` are updated in place; nothing outside this
    # function sees them until they are validated again as a new LayerParams
    layer = init_layer(d, hidden_size, rng, cfg.act_hidden, cfg.act_out)
    params = (layer.w_enc, layer.b_enc, layer.w_dec, layer.b_dec)

    history: list[float] = []
    order = np.arange(n)
    for epoch in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            batch = data[order[start : start + cfg.batch_size]]
            loss, grads = _loss_and_gradients(layer, batch)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            epoch_loss += loss * batch.shape[0]
            steps = (grads.w_enc, grads.b_enc, grads.w_dec, grads.b_dec)
            for param, grad in zip(params, steps):
                param -= cfg.learning_rate * grad
        history.append(epoch_loss / n)

    trained = LayerParams(
        w_enc=layer.w_enc,
        b_enc=layer.b_enc,
        w_dec=layer.w_dec,
        b_dec=layer.b_dec,
        act_hidden=cfg.act_hidden,
        act_out=cfg.act_out,
    )
    return trained, history


@dataclass(frozen=True)
class EncoderLayer:
    """Kept half of a trained layer."""

    w: np.ndarray  # (hidden, input)
    b: np.ndarray  # (hidden,)
    activation: ActivationKind

    @property
    def input_dim(self) -> int:
        return self.w.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.activation.apply(x @ self.w.T + self.b)


@dataclass(frozen=True)
class AutoencoderStack:
    """Ordered encoder layers; decoders existed only during training.

    The empty stack is the identity map. `loss_histories` keeps each layer's
    per-epoch training losses (not part of the serialized format).
    """

    layers: tuple[EncoderLayer, ...]
    input_dim: int
    loss_histories: tuple[tuple[float, ...], ...] = field(default=(), compare=False)

    def __post_init__(self):
        dim = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.input_dim != dim:
                raise ValueError(
                    f"layer {i} expects {layer.input_dim} inputs, previous width is {dim}"
                )
            dim = layer.output_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim if self.layers else self.input_dim


def build_stack(train: np.ndarray, ppl, cfg: TrainConfig) -> AutoencoderStack:
    """Greedy layer-wise construction.

    `ppl` is a sequence of positive fractions; layer i has width
    layer_size(original_feature_count, ppl[i]) and is trained to reconstruct
    the encoding produced by layers 0..i-1, which re-encodes the working data
    after every layer. Encoders are kept in order, decoders dropped.
    """
    train = np.asarray(train, dtype=np.float64)
    if train.ndim != 2 or train.shape[0] < 1:
        raise ValueError("training data must be a non-empty matrix")
    fractions = tuple(float(f) for f in ppl)
    if not fractions:
        raise ValueError("ppl must name at least one layer")
    d0 = train.shape[1]
    sizes = [layer_size(d0, f) for f in fractions]

    rng = np.random.default_rng(cfg.seed)
    working = train
    encoders: list[EncoderLayer] = []
    histories: list[tuple[float, ...]] = []
    for size in sizes:
        params, losses = train_layer(working, size, cfg, rng=rng)
        enc = EncoderLayer(w=params.w_enc, b=params.b_enc, activation=params.act_hidden)
        working = enc.apply(working)
        encoders.append(enc)
        histories.append(tuple(losses))
    return AutoencoderStack(
        layers=tuple(encoders), input_dim=d0, loss_histories=tuple(histories)
    )


def encode(stack: AutoencoderStack, x: np.ndarray) -> np.ndarray:
    """Run the encoder chain. Accepts a vector or matrix; the empty stack
    returns its input unchanged."""
    batch, single = _as_batch(x, stack.input_dim, "input")
    for layer in stack.layers:
        batch = layer.apply(batch)
    return batch[0] if single else batch


_STACK_FORMAT_VERSION = 1


def save_stack(stack: AutoencoderStack, path) -> None:
    """Versioned binary serialization; weights round-trip bitwise."""
    payload = {
        "format_version": np.int64(_STACK_FORMAT_VERSION),
        "input_dim": np.int64(stack.input_dim),
        "n_layers": np.int64(len(stack.layers)),
    }
    for i, layer in enumerate(stack.layers):
        payload[f"w_{i}"] = layer.w
        payload[f"b_{i}"] = layer.b
        payload[f"act_{i}"] = np.str_(layer.activation.value)
    np.savez(path, **payload)


def load_stack(path) -> AutoencoderStack:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _STACK_FORMAT_VERSION:
            raise ValueError(f"unsupported stack format version {version}")
        n_layers = int(data["n_layers"])
        layers = tuple(
            EncoderLayer(
                w=data[f"w_{i}"],
                b=data[f"b_{i}"],
                activation=ActivationKind(str(data[f"act_{i}"])),
            )
            for i in range(n_layers)
        )
        return AutoencoderStack(layers=layers, input_dim=int(data["input_dim"]))
