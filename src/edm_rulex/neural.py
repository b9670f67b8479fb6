"""One-hidden-layer feed-forward network with logistic units.

Trained by per-pattern gradient descent with momentum against one-hot
targets.  A trained network is immutable in practice (nothing mutates it
outside train) and its per-class output activation is the fitness surface
the genetic search climbs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import NumericError, ValidationError
from .schema import AttributeSchema, DatasetIndex
from .util import read_json

log = logging.getLogger(__name__)


# Pre-activations are clipped here so exp never overflows; a unit whose
# pre-activation reaches the clip is saturated and training reports it.
SIGMOID_CLIP = 500.0


def sigmoid(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-u))`` with ``u`` clipped to +-SIGMOID_CLIP, written into
    ``out`` when given (``out`` may be ``u`` itself).

    Each step is one ufunc working in place on the first step's result, so
    training can run it on preallocated buffers; the values are the same
    bits as ``1.0 / (1.0 + np.exp(-np.clip(u, -SIGMOID_CLIP, SIGMOID_CLIP)))``.
    """
    s = np.minimum(u, SIGMOID_CLIP, out=out)
    np.maximum(s, -SIGMOID_CLIP, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


@dataclass
class TrainConfig:
    learning_rate: float = 0.2
    momentum: float = 0.9
    max_epochs: int = 5000
    target_mse: float = 0.01
    hidden_size: int | None = None  # default 2 * ceil(sqrt(input_size))
    init_scale: float = 0.5  # weights uniform in +-init_scale/sqrt(fan_in)
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValidationError(f"learning rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValidationError(f"momentum must be in [0,1), got {self.momentum}")
        if self.max_epochs < 1:
            raise ValidationError(f"max epochs must be >= 1, got {self.max_epochs}")
        if self.target_mse <= 0:
            raise ValidationError(f"target mse must be > 0, got {self.target_mse}")
        if self.hidden_size is not None and self.hidden_size < 1:
            raise ValidationError(f"hidden size must be >= 1, got {self.hidden_size}")

    def resolve_hidden(self, input_size: int) -> int:
        if self.hidden_size is not None:
            return self.hidden_size
        return 2 * math.ceil(math.sqrt(input_size))


@dataclass
class Network:
    """Weights and biases; logistic activation on both layers.

    v: (hidden, input) input-to-hidden weights, b_h: hidden biases,
    w: (output, hidden) hidden-to-output weights, b_o: output biases.
    """

    v: np.ndarray
    b_h: np.ndarray
    w: np.ndarray
    b_o: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def input_size(self) -> int:
        return self.v.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.v.shape[0]

    @property
    def output_size(self) -> int:
        return self.w.shape[0]

    def __post_init__(self):
        if self.v.shape[0] != self.b_h.shape[0] or self.w.shape[1] != self.v.shape[0]:
            raise ValidationError("inconsistent layer shapes")
        if self.w.shape[0] != self.b_o.shape[0]:
            raise ValidationError("inconsistent output shapes")
        for arr in (self.v, self.b_h, self.w, self.b_o):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("network weights must be finite")


@dataclass
class TrainResult:
    network: Network
    mse_history: list[float]
    epochs_run: int

    @property
    def final_mse(self) -> float:
        return self.mse_history[-1]


def init_network(schema: AttributeSchema, config: TrainConfig) -> Network:
    """Fresh network sized by the schema, seeded uniform init."""
    input_size = schema.total_predictive_bits
    output_size = schema.target_bits
    hidden = config.resolve_hidden(input_size)
    rng = np.random.default_rng(config.seed)
    r_v = config.init_scale / math.sqrt(input_size)
    r_w = config.init_scale / math.sqrt(hidden)
    return Network(
        v=rng.uniform(-r_v, r_v, size=(hidden, input_size)),
        b_h=rng.uniform(-r_v, r_v, size=hidden),
        w=rng.uniform(-r_w, r_w, size=(output_size, hidden)),
        b_o=rng.uniform(-r_w, r_w, size=output_size),
    )


def _as_input(net: Network, bits) -> np.ndarray:
    x = np.asarray(bits, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != net.input_size:
        raise ValidationError(
            f"input length {x.shape[-1] if x.ndim else 0} does not match "
            f"network input size {net.input_size}"
        )
    return x


def forward(net: Network, bits) -> np.ndarray:
    """Output activations, every component in (0,1): ``(O,)`` for one bit
    string ``(B,)``, ``(P, O)`` for a population ``(P, B)``.

    The products are ``np.einsum`` rather than BLAS, whose reduction order
    can depend on the batch size; here each row's result is the same bits
    whether it is passed alone or with any number of others.
    """
    x = _as_input(net, bits)
    rows = np.atleast_2d(x)
    h = sigmoid(np.einsum("pi,hi->ph", rows, net.v) + net.b_h)
    y = sigmoid(np.einsum("ph,oh->po", h, net.w) + net.b_o)
    return y if x.ndim == 2 else y[0]


def class_score(net: Network, chromosome, class_index: int):
    """The output activation of one class node: a float for one chromosome,
    a ``float[P]`` array for a population.  Pure, safe to call concurrently."""
    if not 0 <= class_index < net.output_size:
        raise ValidationError(
            f"class index {class_index} out of range for {net.output_size} outputs"
        )
    y = forward(net, chromosome)[..., class_index]
    return float(y) if y.ndim == 0 else y


def _arrays(net: Network, dataset: DatasetIndex) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's bits as floats and its class indices as one-hot rows."""
    sizes = (dataset.bits.shape[1], dataset.schema.target_bits)
    if sizes != (net.input_size, net.output_size):
        raise ValidationError(
            f"dataset has {sizes[0]} bits and {sizes[1]} classes, "
            f"network expects {net.input_size} and {net.output_size}"
        )
    return dataset.bits.astype(float), np.eye(net.output_size)[dataset.target]


def _batch_pass(net: Network, x: np.ndarray):
    """Hidden and output pre-activations and the outputs for a batch."""
    u_h = x @ net.v.T + net.b_h
    u_o = sigmoid(u_h) @ net.w.T + net.b_o
    return u_h, u_o, sigmoid(u_o)


def dataset_mse(net: Network, dataset: DatasetIndex) -> float:
    """Mean squared output error over all patterns and output units."""
    x, t = _arrays(net, dataset)
    return float(np.mean((_batch_pass(net, x)[2] - t) ** 2))


def loss_and_gradients(net: Network, dataset: DatasetIndex):
    """Mean half-squared error over the dataset and its analytic gradients.

    Returns (loss, {"v": dV, "b_h": ..., "w": ..., "b_o": ...}) averaged over
    patterns, matching what finite differences of the same loss give.
    """
    x, t = _arrays(net, dataset)
    n = x.shape[0]
    h = sigmoid(x @ net.v.T + net.b_h)
    y = sigmoid(h @ net.w.T + net.b_o)
    e = y - t
    loss = float(0.5 * np.sum(e**2) / n)
    d_o = e * y * (1 - y)
    d_h = (d_o @ net.w) * h * (1 - h)
    grads = {
        "w": d_o.T @ h / n,
        "b_o": d_o.sum(axis=0) / n,
        "v": d_h.T @ x / n,
        "b_h": d_h.sum(axis=0) / n,
    }
    return loss, grads


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views into ``flat``, one per shape."""
    out, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return out


def train(net: Network, dataset: DatasetIndex, config: TrainConfig) -> TrainResult:
    """Per-pattern gradient descent with momentum until the mse target or the
    epoch budget.

    Pattern order is reshuffled once per epoch from the seeded generator, so
    training is deterministic for a fixed config.  The mse history records the
    full-dataset mse after each epoch; only the final value is a contract.
    A non-finite mse, or a pre-activation over the dataset that reaches the
    sigmoid clip after an epoch, is a NumericError.

    The weights, their velocities and the per-pattern gradient each live in
    one flat vector, with the layers as views into it, and every update
    writes into buffers allocated once, so the momentum step is three
    whole-vector operations.  Each element sees the same floating-point
    operations in the same order as ``vel = mom * vel - lr * grad;
    theta += vel`` on fresh arrays.  The caller's arrays in ``net`` get the
    weights back after every epoch and hold the trained values at the end.
    """
    if len(dataset) == 0:
        raise ValidationError("cannot train on an empty dataset")
    x, t = _arrays(net, dataset)
    rng = np.random.default_rng(config.seed)
    lr, mom = config.learning_rate, config.momentum
    layers = (net.v, net.b_h, net.w, net.b_o)
    shapes = [a.shape for a in layers]
    theta = np.concatenate([a.ravel() for a in layers])
    vel = np.zeros_like(theta)
    grad = np.empty_like(theta)
    v, b_h, w, b_o = _views(theta, shapes)
    # the output and hidden deltas are the bias gradients
    g_v, d_h, g_w, d_o = _views(grad, shapes)
    w_t, d_h_col, d_o_col = w.T, d_h[:, None], d_o[:, None]
    h, slope_h = np.empty_like(b_h), np.empty_like(b_h)
    y, slope_o = np.empty_like(b_o), np.empty_like(b_o)
    history: list[float] = []
    epochs_run = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(dataset))
        for i in order:
            xi = x[i]
            np.dot(v, xi, out=h)
            h += b_h
            sigmoid(h, out=h)
            np.dot(w, h, out=y)
            y += b_o
            sigmoid(y, out=y)
            # d_o = (y - t) * y * (1 - y)
            np.subtract(y, t[i], out=d_o)
            d_o *= y
            np.subtract(1.0, y, out=slope_o)
            d_o *= slope_o
            # d_h = (w.T @ d_o) * h * (1 - h)
            np.dot(w_t, d_o, out=d_h)
            d_h *= h
            np.subtract(1.0, h, out=slope_h)
            d_h *= slope_h
            np.multiply(d_o_col, h, out=g_w)
            np.multiply(d_h_col, xi, out=g_v)
            vel *= mom
            grad *= lr
            vel -= grad
            theta += vel
        for dst, src in zip(layers, (v, b_h, w, b_o)):
            dst[...] = src
        u_h, u_o, y_all = _batch_pass(net, x)
        mse = float(np.mean((y_all - t) ** 2))
        if not np.isfinite(mse):
            raise NumericError(
                f"training diverged at epoch {epoch + 1} (non-finite loss); "
                "try a smaller learning rate"
            )
        for layer, u in (("hidden", u_h), ("output", u_o)):
            if np.abs(u).max() >= SIGMOID_CLIP:
                raise NumericError(
                    f"training saturated at epoch {epoch + 1}: a {layer} layer "
                    f"pre-activation reached the sigmoid clip (+-{SIGMOID_CLIP:g}); "
                    "try a smaller learning rate"
                )
        history.append(mse)
        epochs_run = epoch + 1
        if mse <= config.target_mse:
            break
    log.info("trained %d epochs, final mse %.5f", epochs_run, history[-1])
    return TrainResult(network=net, mse_history=history, epochs_run=epochs_run)


def network_to_dict(net: Network) -> dict:
    return {
        "input_size": net.input_size,
        "hidden_size": net.hidden_size,
        "output_size": net.output_size,
        "v": net.v.tolist(),
        "b_h": net.b_h.tolist(),
        "w": net.w.tolist(),
        "b_o": net.b_o.tolist(),
        "metadata": net.metadata,
    }


def network_from_dict(doc: Mapping) -> Network:
    try:
        net = Network(
            v=np.asarray(doc["v"], dtype=float),
            b_h=np.asarray(doc["b_h"], dtype=float),
            w=np.asarray(doc["w"], dtype=float),
            b_o=np.asarray(doc["b_o"], dtype=float),
            metadata=dict(doc.get("metadata", {})),
        )
    except KeyError as e:
        raise ValidationError(f"network document lacks the field {e.args[0]!r}") from None
    declared = (doc.get("input_size"), doc.get("hidden_size"), doc.get("output_size"))
    actual = (net.input_size, net.hidden_size, net.output_size)
    if tuple(d for d in declared if d is not None) and declared != actual:
        raise ValidationError(f"declared sizes {declared} do not match arrays {actual}")
    return net


def load_network(path: str | Path) -> Network:
    return network_from_dict(read_json(path))
