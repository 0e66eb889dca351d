"""Single-hidden-layer autoencoders trained by mini-batch gradient descent,
and their greedy layer-wise stacking.

Each layer is a full encode/decode pair trained to reproduce its input under
mean squared error; after training, the decoder half is discarded and only
the encoder (weights, bias, activation) is kept. A stack is built layer by
layer: every new layer is trained on the previous layers' encoding of the
training data, and layer widths are fractions of the ORIGINAL feature count,
never of the intermediate widths.

Gradients are exact analytic derivatives of the batch-mean reconstruction
error. One private step computes them, in the dtype of the layer's
parameters: `train_layer` runs every batch through it in one workspace
allocated per layer, every product and ufunc writing into it with `out=` and
the update subtracting lr * grad in place, and `loss_and_gradients` runs it
in a workspace of its own. So checking those gradients against finite
differences of its own loss (in float64) checks the arithmetic that trains,
and training's bytes are those of the allocating form, a fresh array per
intermediate, run in float32.

Layers train in float32, as mixed-precision training does (Micikevicius et
al., arXiv:1710.03740): `train_layer` casts its input rows and the float64
initialization to float32 once, and casts the trained parameters back to
float64. The kept encoders, `encode`, the codes and the kNN that reads them
stay float64. A batch-32 step at 256 -> 64 took 114 us against 181 us in
float64 (one BLAS thread, a 2-CPU x86-64 host), and on the semeion, image
and coil2000 bench shapes (seeds 11-13, 5-NN, 1 x 5 folds, lr 1.0 x 10
epochs and 0.01 x 50) `run_cv`'s accuracy, F-score and AUC equalled float64
training's in all 18 runs.

The sigmoid is 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, with
e = exp(min(x, -x)), so exp cannot overflow. Its numerator is
maximum(e, x >= 0) rather than a masked select: e <= 1, so that is 1 for
x >= 0 and e below, and `maximum` returns e's NaN as it is, bit for bit
where(x >= 0, 1, e).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
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
    "loss_and_gradients",
    "train_layer",
    "build_stack",
    "encode",
]


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite loss shows up during training."""


_TRAIN_DTYPE = np.float32  # what every layer trains in; see the module docstring


class ActivationKind(str, Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"

    def apply(
        self, x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """The activation of x, written into `out` when given (`out` may be
        x itself). The sigmoid works in `scratch` when given, an array of
        x's shape apart from `out`."""
        if out is None:
            out = np.empty(x.shape)
        if self is ActivationKind.SIGMOID:
            # exp only ever sees -|x|, so it cannot overflow: 1 / (1 + e^-x)
            # for x >= 0 and e^x / (1 + e^x) below. np.minimum returns its
            # first argument when both are NaN, so a NaN keeps its sign.
            # e <= 1, so maximum(e, x >= 0) is 1 for x >= 0 and e below, and
            # it returns e's NaN as it is: bitwise where(x >= 0, 1, e).
            e = np.negative(x, out=scratch)
            np.minimum(x, e, out=e)
            np.exp(e, out=e)
            np.greater_equal(x, 0.0, out=out)
            np.maximum(e, out, out=out)
            np.add(e, 1.0, out=e)
            return np.divide(out, e, out=out)
        return np.maximum(x, 0.0, out=out)

    def derivative_from_output(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Exact derivative at x, given the activation's output y = apply(x),
        written into `out` when given (`out` must not be y), else into a new
        array of y's dtype."""
        if self is ActivationKind.SIGMOID:
            out = np.subtract(1.0, y, out=out)
            return np.multiply(y, out, out=out)
        return np.greater(y, 0.0, out=np.empty(y.shape, y.dtype) if out is None else out)


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        for name in ("epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(
                f"learning_rate must be non-negative and finite, got {self.learning_rate}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def layer_size(n_features: int, fraction: float) -> int:
    """Hidden-layer width: round(fraction * n_features) half away from zero,
    never below one."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if not (math.isfinite(fraction) and fraction > 0):
        raise ValueError(f"fraction must be positive and finite, got {fraction}")
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


def _cast(layer: LayerParams, dtype) -> LayerParams:
    """`layer` with its four parameter arrays cast to `dtype`."""
    return replace(layer, **{name: getattr(layer, name).astype(dtype)
                             for name in ("w_enc", "b_enc", "w_dec", "b_dec")})


class _Workspace:
    """Every array one training step writes, in `dtype`, for batches of up
    to `rows` rows of an (input_dim -> hidden_dim) layer; a step of m rows
    works in the first m rows of each."""

    def __init__(self, rows: int, input_dim: int, hidden_dim: int, dtype):
        self.x_rec = np.empty((rows, input_dim), dtype)
        self.g_out = np.empty((rows, input_dim), dtype)  # residual, then output-side error
        self.tmp_in = np.empty((rows, input_dim), dtype)
        self.z = np.empty((rows, hidden_dim), dtype)
        self.g_hidden = np.empty((rows, hidden_dim), dtype)
        self.tmp_hidden = np.empty((rows, hidden_dim), dtype)
        self.grads = Gradients(
            w_enc=np.empty((hidden_dim, input_dim), dtype),
            b_enc=np.empty(hidden_dim, dtype),
            w_dec=np.empty((input_dim, hidden_dim), dtype),
            b_dec=np.empty(input_dim, dtype),
        )


def _step(layer: LayerParams, batch: np.ndarray, ws: _Workspace) -> float:
    """One forward/backward pass over an (m, input_dim) batch, every array
    written into the first m rows of `ws`: returns the batch-mean
    reconstruction error and leaves its gradients in `ws.grads`. The batch,
    the parameters and `ws` share one dtype, and the arithmetic runs in it:
    the Python-float constants and learning rate take it too (NEP 50)."""
    n, d = batch.shape
    x_rec, g_out, tmp_in = ws.x_rec[:n], ws.g_out[:n], ws.tmp_in[:n]
    z, g_hidden, tmp_hidden = ws.z[:n], ws.g_hidden[:n], ws.tmp_hidden[:n]
    grads = ws.grads
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(batch, layer.w_enc.T, out=z)
        np.add(z, layer.b_enc, out=z)
        layer.act_hidden.apply(z, out=z, scratch=tmp_hidden)
        np.matmul(z, layer.w_dec.T, out=x_rec)
        np.add(x_rec, layer.b_dec, out=x_rec)
        layer.act_out.apply(x_rec, out=x_rec, scratch=tmp_in)
        np.subtract(x_rec, batch, out=g_out)
        np.square(g_out, out=tmp_in)
        # one pairwise sum, as np.mean makes it, divided as a Python float
        loss = float(np.add.reduce(tmp_in, axis=None)) / tmp_in.size
        np.multiply(g_out, 2.0 / (d * n), out=g_out)
        layer.act_out.derivative_from_output(x_rec, out=tmp_in)
        np.multiply(g_out, tmp_in, out=g_out)
        np.matmul(g_out, layer.w_dec, out=g_hidden)
        layer.act_hidden.derivative_from_output(z, out=tmp_hidden)
        np.multiply(g_hidden, tmp_hidden, out=g_hidden)
        np.matmul(g_hidden.T, batch, out=grads.w_enc)
        np.add.reduce(g_hidden, axis=0, out=grads.b_enc)
        np.matmul(g_out.T, z, out=grads.w_dec)
        np.add.reduce(g_out, axis=0, out=grads.b_dec)
    return loss


def loss_and_gradients(layer: LayerParams, batch: np.ndarray) -> tuple[float, Gradients]:
    """One forward/backward pass over a (rows, input_dim) batch: the
    batch-mean reconstruction error and its analytic gradients.

    The per-sample loss is ||x - x_rec||^2 / d with d the input width, so
    the output-side error signal carries a 2 / (d * n) factor. Non-finite
    values pass through silently; the caller decides whether a non-finite
    loss is an error. This is the step `train_layer` takes on every batch,
    run in a workspace of its own, so the gradients returned are fresh
    arrays. It runs in the dtype of the layer's parameters, the batch cast
    to it: float64 for a layer `init_layer` made, float32 for one as
    `train_layer` trains it.
    """
    dtype = layer.w_enc.dtype
    batch = np.asarray(batch, dtype=dtype)
    if batch.ndim != 2 or batch.shape[1] != layer.input_dim:
        raise ValueError(f"batch has shape {batch.shape}, expected (*, {layer.input_dim})")
    ws = _Workspace(batch.shape[0], layer.input_dim, layer.hidden_dim, dtype)
    return _step(layer, batch, ws), ws.grads


def train_layer(
    data: np.ndarray,
    hidden_size: int,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[LayerParams, list[float]]:
    """Train one encode/decode layer by mini-batch gradient descent, in
    float32.

    Returns the trained parameters, float64 arrays of float32 values, and
    the per-epoch mean loss history (losses measured on each batch before
    its update, averaged over the epoch's samples; the final short batch
    contributes its actual size). Raises TrainingDivergedError, naming epoch
    and batch, if the loss goes non-finite, and ValueError if a finite input
    value lies beyond float32's range. The input rows and `init_layer`'s
    float64 draws are cast to float32 once. Every batch is gathered into one
    buffer and runs through `_step` in one workspace, both allocated for the
    layer, and the update subtracts lr * grad from the parameters in place.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise ValueError("training data must be a non-empty matrix")
    if hidden_size < 1:
        raise ValueError("hidden_size must be >= 1")
    with np.errstate(over="ignore"):
        data32 = data.astype(_TRAIN_DTYPE)
    if np.isinf(data32).any() and np.isfinite(data[np.isinf(data32)]).any():
        raise ValueError(
            f"training data holds finite values beyond float32's range "
            f"(|x| > {float(np.finfo(_TRAIN_DTYPE).max):.4g}), which layers are trained in"
        )
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n, d = data.shape
    # the arrays of `layer` are updated in place; nothing outside this
    # function sees them until they are cast back to float64
    layer = _cast(init_layer(d, hidden_size, rng, cfg.act_hidden, cfg.act_out), _TRAIN_DTYPE)
    batch_rows = min(cfg.batch_size, n)
    ws = _Workspace(batch_rows, d, hidden_size, _TRAIN_DTYPE)
    gathered = np.empty((batch_rows, d), _TRAIN_DTYPE)  # each batch's rows
    steps = (
        (layer.w_enc, ws.grads.w_enc),
        (layer.b_enc, ws.grads.b_enc),
        (layer.w_dec, ws.grads.w_dec),
        (layer.b_dec, ws.grads.b_dec),
    )

    history: list[float] = []
    order = np.arange(n)
    for epoch in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            rows = order[start : start + cfg.batch_size]
            # the rows are in range, so "clip" changes nothing; "raise" would
            # gather into a buffer and copy that into `out`
            batch = np.take(data32, rows, axis=0, out=gathered[: rows.size], mode="clip")
            loss = _step(layer, batch, ws)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            epoch_loss += loss * rows.size
            for param, grad in steps:
                np.multiply(grad, cfg.learning_rate, out=grad)
                np.subtract(param, grad, out=param)
        history.append(epoch_loss / n)
    return _cast(layer, np.float64), history


@dataclass(frozen=True, eq=False)
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
        a = x @ self.w.T
        a += self.b
        return self.activation.apply(a, out=a)


@dataclass(frozen=True, eq=False)
class AutoencoderStack:
    """Ordered encoder layers; decoders existed only during training.

    The empty stack is the identity map. `loss_histories` keeps each layer's
    per-epoch training losses (`reducers.save_reducer` does not write them).
    """

    layers: tuple[EncoderLayer, ...]
    input_dim: int
    loss_histories: tuple[tuple[float, ...], ...] = ()

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
    the encoding produced by layers 0..i-1, so the working data is re-encoded
    before every layer after the first. Encoders are kept in order, decoders
    dropped. A layer that diverges is named in the TrainingDivergedError, as
    `layer i (input width -> width): ...`.
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
    for i, size in enumerate(sizes):
        if encoders:
            working = encoders[-1].apply(working)
        try:
            params, losses = train_layer(working, size, cfg, rng=rng)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"layer {i} ({working.shape[1]} -> {size}): {exc}") from exc
        encoders.append(EncoderLayer(w=params.w_enc, b=params.b_enc, activation=params.act_hidden))
        histories.append(tuple(losses))
    return AutoencoderStack(
        layers=tuple(encoders), input_dim=d0, loss_histories=tuple(histories)
    )


def encode(stack: AutoencoderStack, x: np.ndarray) -> np.ndarray:
    """Run the encoder chain over a (rows, input_dim) matrix; the empty stack
    returns its input unchanged."""
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != stack.input_dim:
        raise ValueError(f"input has shape {batch.shape}, expected (*, {stack.input_dim})")
    for layer in stack.layers:
        batch = layer.apply(batch)
    return batch
