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
from .util import check, check_indexable, read_json

log = logging.getLogger(__name__)


# Pre-activations are clipped here so exp never overflows; a unit whose
# pre-activation reaches the clip is saturated and training reports it.
SIGMOID_CLIP = 500.0
# An output activation within this of 0 or 1 is saturated: its slope y(1-y)
# is below it too, so per-pattern updates barely move it.
SATURATION_TOL = 1e-3


def sigmoid(u: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-u))`` with ``u`` clipped to +-SIGMOID_CLIP.

    Each step works in place on the first step's result; the values are the
    same bits as ``1.0 / (1.0 + np.exp(-np.clip(u, -SIGMOID_CLIP, SIGMOID_CLIP)))``.
    Only the lower clip is applied, to ``-u``: above +SIGMOID_CLIP,
    ``exp(-u)`` is below ``exp(-500)``, about 7e-218, which vanishes against
    the 1 it is added to, so clipped or not the result is exactly 1.0.  A NaN
    stays NaN.
    """
    return _sigmoid_of_negated(np.negative(u))


def _sigmoid_of_negated(s: np.ndarray) -> np.ndarray:
    """``sigmoid(-s)``, computed in place in the float array ``s``."""
    np.minimum(s, SIGMOID_CLIP, out=s)
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
        # NaN passes every comparison below, and inf steps or stops nothing
        for name, value in (
            ("learning rate", self.learning_rate),
            ("target mse", self.target_mse),
            ("init scale", self.init_scale),
        ):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
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
        if (self.v.ndim, self.b_h.ndim, self.w.ndim, self.b_o.ndim) != (2, 1, 2, 1):
            raise ValidationError("network needs matrices v and w and bias vectors b_h and b_o")
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

    @property
    def epochs_run(self) -> int:
        return len(self.mse_history)

    @property
    def final_mse(self) -> float:
        return self.mse_history[-1]


def init_network(schema: AttributeSchema, config: TrainConfig) -> Network:
    """Fresh network sized by the schema, seeded uniform init."""
    input_size = schema.total_predictive_bits
    output_size = schema.target_bits
    hidden = config.resolve_hidden(input_size)
    check_indexable(f"hidden size {hidden}", (hidden, max(input_size, output_size)), float)
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
    if x.ndim == 0 or x.shape[-1] != net.input_size:
        raise ValidationError(
            f"input length {x.shape[-1] if x.ndim else 0} does not match "
            f"network input size {net.input_size}"
        )
    return x


def _hidden(net: Network, x: np.ndarray) -> np.ndarray:
    """The hidden activations ``float[N, H]`` of float rows ``x`` ``[N, I]``.
    The pre-activation is formed negated, as ``-b_h - x·v``, which is exactly
    ``-(x·v + b_h)``, and the sigmoid is applied in place to the product."""
    s = np.einsum("pi,hi->ph", x, net.v)
    np.subtract(-net.b_h, s, out=s)
    return _sigmoid_of_negated(s)


def forward(net: Network, bits) -> np.ndarray:
    """Output activations, every component in (0,1): ``(O,)`` for one bit
    string ``(B,)``, ``(..., O)`` for a batch ``(..., B)`` such as a
    population ``(P, B)`` or a stack of them ``(R, P, B)``.

    The products are ``np.einsum`` rather than BLAS, whose reduction order
    can depend on the batch size; here each row's result is the same bits
    whether it is passed alone or with any number of others.
    """
    x = _as_input(net, bits)
    h = _hidden(net, x.reshape(-1, x.shape[-1]))
    y = sigmoid(np.einsum("ph,oh->po", h, net.w) + net.b_o)
    return y.reshape(*x.shape[:-1], net.output_size)


def class_score(net: Network, stack, classes) -> np.ndarray:
    """One class node's activations per run: for a stack of populations
    ``(R, P, B)`` and ``classes`` of shape ``intp[R]``, row r of the
    ``float[R, P]`` result is class ``classes[r]``'s output over run r's
    population.  One chromosome's score is ``forward(net, bits)[..., k]``,
    to the bit: only each run's class output is computed, by the same
    einsum reduction over the hidden layer.  Pure, safe to call
    concurrently."""
    k = np.asarray(classes)
    if k.ndim != 1:
        raise ValidationError(
            f"classes must hold one class index per run, shape (R,); got shape {k.shape}"
        )
    if ((k < 0) | (k >= net.output_size)).any():
        raise ValidationError(f"class index {classes} out of range for {net.output_size} outputs")
    x = _as_input(net, stack)
    if x.ndim < 2 or x.shape[0] != k.shape[0]:
        raise ValidationError(
            f"{k.shape[0]} class indices need a stack of {k.shape[0]} runs, got shape {x.shape[:-1]}"
        )
    h = _hidden(net, x.reshape(-1, x.shape[-1]))
    h = h.reshape(len(k), math.prod(x.shape[1:-1]), net.hidden_size)  # (R, P, H)
    s = np.einsum("rph,rh->rp", h, net.w[k])
    np.subtract(-net.b_o[k, None], s, out=s)
    return _sigmoid_of_negated(s).reshape(x.shape[:-1])


def _arrays(net: Network, dataset: DatasetIndex) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's bits and its class indices as one-hot float rows."""
    sizes = (dataset.bits.shape[1], dataset.schema.target_bits)
    if sizes != (net.input_size, net.output_size):
        raise ValidationError(
            f"dataset has {sizes[0]} bits and {sizes[1]} classes, "
            f"network expects {net.input_size} and {net.output_size}"
        )
    return dataset.bits, np.eye(net.output_size)[dataset.target]


def _batch_pass(net: Network, x_neg: np.ndarray) -> tuple[str | None, np.ndarray]:
    """The outputs for a batch given as its negated float rows ``-x``, and
    the first layer, "hidden" or "output", one of whose pre-activations
    reaches the sigmoid clip, else None.  The hidden layer lives in one
    ``float[N, H]`` buffer: the pre-activation is tested for the clip, then
    turned into the activation in place.  Negation is exact, so ``b_h - (-x)
    @ v.T`` is the same bits as ``x @ v.T + b_h``."""
    clipped = None
    u_h = x_neg @ net.v.T
    np.subtract(net.b_h, u_h, out=u_h)
    if u_h.max() >= SIGMOID_CLIP or u_h.min() <= -SIGMOID_CLIP:  # |u| >= clip; a NaN is neither
        clipped = "hidden"
    h = _sigmoid_of_negated(np.negative(u_h, out=u_h))
    u_o = h @ net.w.T + net.b_o
    if clipped is None and (u_o.max() >= SIGMOID_CLIP or u_o.min() <= -SIGMOID_CLIP):
        clipped = "output"
    return clipped, sigmoid(u_o)


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
    sigmoid clip after an epoch, is a NumericError.  So is a network that
    ends saturated short of the clip: every output activation over the
    dataset within SATURATION_TOL of 0 or 1, with the same rounded outputs,
    and so one prediction, for every record of a dataset with several
    classes.

    The weights, their velocities and the per-pattern step each live in one
    flat vector, with the layers as views into it, and every update writes
    into buffers allocated once: 25 numpy calls per pattern, with the
    functions bound to locals, the five matrix products as the bound ``dot``
    methods of their fixed operands (the same routine as ``np.dot``, without
    its dispatch), and the constants held as arrays, which numpy takes
    without converting a Python object per call.  Each weight sees the same
    floating-point operations in the same order as ``vel = mom * vel - lr *
    grad; theta += vel`` on fresh arrays, so the weights are the same bits.
    Signs are laid out so that no negation costs a call; rounding to nearest
    is symmetric under negation, so an operation on negated operands gives
    the negated result:

    - the inputs are kept as ``-x``, the one float copy of the rows, so
      ``v @ (-x) - b_h`` is the negated hidden pre-activation that the
      sigmoid's ``exp`` takes; the outer product for ``v`` and the pass over
      the dataset after each epoch read the same ``-x``;
    - both layers' activations are kept negated, as ``-1 / (1 + exp(-u))``,
      in one buffer, so one ``1 + (-a)`` gives both slopes ``1 - h`` and
      ``1 - y``;
    - ``step`` holds ``-dE/dtheta`` and, in ``v``'s block, ``+dE/dv``;
      ``rate`` is ``-lr`` on that block and ``+lr`` elsewhere, so the
      momentum step is ``vel *= mom; step *= rate; vel += step; theta +=
      vel``; ``-h`` turns the deltas into ``-dE/dw`` and ``-dE/db_h``, and
      ``-x`` then gives ``+dE/dv``;
    - ``theta`` stores ``-b_o``, so the output delta ``dE/db_o`` is its
      step, ``-dE/d(-b_o)``, and ``w @ (-h) + (-b_o)`` is the negated output
      pre-activation.

    The two outer products are matrix products with an inner dimension of
    one, so each element is the one rounded product.  Such a product and
    ``t - y`` may give a zero of the other sign than the textbook update; a
    zero's sign changes no nonzero value downstream, and reaches a weight
    only where that weight and its velocity are both exactly zero.  The
    output bias can also take the other zero where it and its velocity
    cancel exactly: the sum is ``+0.0``, which ``theta`` holds as ``-b_o``,
    so ``b_o`` comes back as ``-0.0`` where the textbook update gives
    ``+0.0``.

    The caller's arrays in ``net`` get the weights back after every epoch and
    hold the trained values at the end; ``dataset`` is not modified.
    """
    if len(dataset) == 0:
        raise ValidationError("cannot train on an empty dataset")
    bits, t = _arrays(net, dataset)
    x_neg = np.negative(bits, dtype=float)  # the one float copy of the rows
    x_neg_rows = x_neg[:, None, :]  # row i as a (1, B) matrix
    one_hot = list(np.eye(net.output_size))
    targets = [one_hot[k] for k in dataset.target.tolist()]  # references to the K rows
    rng = np.random.default_rng(config.seed)
    mom = np.array(config.momentum, dtype=float)
    one, minus_one, clip = np.array(1.0), np.array(-1.0), np.array(SIGMOID_CLIP)
    shapes = [a.shape for a in (net.v, net.b_h, net.w, net.b_o)]
    theta = np.concatenate([net.v.ravel(), net.b_h, net.w.ravel(), -net.b_o])
    vel = np.zeros_like(theta)
    step = np.empty_like(theta)
    v, b_h, w, b_o_neg = _views(theta, shapes)
    # the bias slots of the step are the deltas: -d_h for b_h, d_o for -b_o
    step_v, d_h_neg, step_w, d_o = _views(step, shapes)
    # -lr on the v block, whose step is formed from -x, and +lr elsewhere
    rate = np.full_like(theta, config.learning_rate)
    rate[: step_v.size] *= -1.0
    hidden, outputs = len(b_h), len(d_o)
    act_neg, slope = np.empty(hidden + outputs), np.empty(hidden + outputs)
    h_neg, y_neg = act_neg[:hidden], act_neg[hidden:]
    slope_h, slope_o = slope[:hidden], slope[hidden:]
    s_h, s_o = np.empty(hidden), np.empty(outputs)
    h_neg_row = h_neg[None, :]
    # bound ndarray.dot skips np.dot's __array_function__ dispatch
    v_dot, w_dot, w_t_dot = v.dot, w.dot, w.T.dot
    d_o_col_dot, d_h_col_dot = d_o[:, None].dot, d_h_neg[:, None].dot
    add, sub, mul, div = np.add, np.subtract, np.multiply, np.divide
    exp, minimum = np.exp, np.minimum
    history: list[float] = []
    for epoch in range(config.max_epochs):
        for i in rng.permutation(len(dataset)).tolist():
            # s = 1 + exp(-u) and the activation -1 / s, hidden then output
            v_dot(x_neg[i], s_h)
            sub(s_h, b_h, s_h)
            minimum(s_h, clip, out=s_h)
            exp(s_h, s_h)
            add(s_h, one, s_h)
            div(minus_one, s_h, h_neg)
            w_dot(h_neg, s_o)
            add(s_o, b_o_neg, s_o)
            minimum(s_o, clip, out=s_o)
            exp(s_o, s_o)
            add(s_o, one, s_o)
            div(minus_one, s_o, y_neg)
            add(act_neg, one, slope)
            # d_o = (t - y) * (-y) * (1 - y)
            add(y_neg, targets[i], d_o)
            mul(d_o, y_neg, d_o)
            mul(d_o, slope_o, d_o)
            # -d_h = (w.T @ d_o) * (-h) * (1 - h)
            w_t_dot(d_o, d_h_neg)
            mul(d_h_neg, h_neg, d_h_neg)
            mul(d_h_neg, slope_h, d_h_neg)
            d_o_col_dot(h_neg_row, step_w)
            d_h_col_dot(x_neg_rows[i], step_v)
            mul(vel, mom, vel)
            mul(step, rate, step)
            add(vel, step, vel)
            add(theta, vel, theta)
        net.v[...], net.b_h[...], net.w[...] = v, b_h, w
        np.negative(b_o_neg, out=net.b_o)
        clipped, y_all = _batch_pass(net, x_neg)
        mse = float(np.mean((y_all - t) ** 2))
        if not np.isfinite(mse):
            raise NumericError(
                f"training diverged at epoch {epoch + 1} (non-finite loss); "
                "try a smaller learning rate"
            )
        if clipped:
            raise NumericError(
                f"training saturated at epoch {epoch + 1}: a pre-activation of the "
                f"{clipped} layer reached the sigmoid clip (+-{SIGMOID_CLIP:g}); "
                "try a smaller learning rate"
            )
        history.append(mse)
        if mse <= config.target_mse:
            break
    given = y_all > 0.5  # what a saturated output says for each record
    if (
        (np.minimum(y_all, 1.0 - y_all) < SATURATION_TOL).all()
        and (given == given[0]).all()
        and (t != t[0]).any()
    ):
        raise NumericError(
            f"training saturated after {len(history)} epochs: every output layer activation is "
            f"within {SATURATION_TOL:g} of 0 or 1 and the network gives every record the same "
            "output, though the records have several classes; try a smaller learning rate"
        )
    log.info("trained %d epochs, final mse %.5f", len(history), history[-1])
    return TrainResult(network=net, mse_history=history)


def network_to_dict(net: Network) -> dict:
    """``model.json``: the weights, biases and metadata.  The layer sizes are
    not recorded: they are the arrays' shapes."""
    return {
        "v": net.v.tolist(),
        "b_h": net.b_h.tolist(),
        "w": net.w.tolist(),
        "b_o": net.b_o.tolist(),
        "metadata": net.metadata,
    }


NETWORK_SHAPE = {"v": [[float]], "b_h": [float], "w": [[float]], "b_o": [float],
                 "metadata?": {"schema_hash?": str, "discretization_hash?": str}}


def network_from_dict(doc: Mapping) -> Network:
    doc = check(doc, NETWORK_SHAPE, "network document")
    try:
        arrays = {name: np.asarray(doc[name], dtype=float) for name in ("v", "b_h", "w", "b_o")}
    except ValueError:
        raise ValidationError("network document: v and w must be rectangular matrices") from None
    return Network(**arrays, metadata=doc.get("metadata", {}))


def load_network(path: str | Path) -> Network:
    return network_from_dict(read_json(path, NETWORK_SHAPE))
