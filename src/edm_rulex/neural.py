"""One-hidden-layer feed-forward network with logistic units.

Trained by per-pattern gradient descent with momentum against one-hot
targets.  A trained network is immutable in practice (nothing mutates it
outside train) and its per-class output activation is the fitness surface
the genetic search climbs: ``class_score(net, classes)`` builds that fitness
once per search, from the network as it is then, and the search calls it
once per generation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

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
# forward, class_score and train take rows into float buffers at most this
# many at a time: at 76 bits and 18 hidden units a block's float input and
# hidden layer take 0.8 MB, where a float copy of 100 000 rows would take 61 MB
BLOCK_ROWS = 1024


def _sigmoid_of_negated(s: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-u))`` for ``s = -u``, computed in place in the float
    array ``s``, with ``u`` clipped to +-SIGMOID_CLIP.

    Only the lower clip is applied, to ``-u``: above +SIGMOID_CLIP,
    ``exp(-u)`` is below ``exp(-500)``, about 7e-218, which vanishes against
    the 1 it is added to, so clipped or not the result is exactly 1.0.  The
    values are the same bits as ``1.0 / (1.0 + np.exp(-np.clip(u,
    -SIGMOID_CLIP, SIGMOID_CLIP)))``, and a NaN stays NaN.
    """
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
    x = np.asarray(bits)
    if x.ndim == 0 or x.shape[-1] != net.input_size:
        raise ValidationError(
            f"input length {x.shape[-1] if x.ndim else 0} does not match "
            f"network input size {net.input_size}"
        )
    return x


def _grid_weights(v: np.ndarray) -> np.ndarray:
    """The input weights ``v`` ``[H, I]``, transposed to a C-contiguous
    ``[I, H]`` and each hidden unit's rounded onto a grid on which sums of
    bit-string rows are exact.

    Unit h's weights are rounded to the nearest multiple of ``2**(e_h - 52)``,
    where ``Σ_i |v[h, i]| = m · 2**e_h`` with ``m`` in [0.5, 1)
    (``np.frexp``): each weight moves by at most half a step, about 2**-53
    of the unit's absolute sum, the size of one float64 rounding of it.
    Every sum of a subset of the unit's rounded weights is then a multiple
    of the step below ``2**(e_h + 1)`` in magnitude, which float64 holds
    exactly, so for a row of 0s and 1s every partial sum of ``x @
    _grid_weights(v)`` is exact, in whatever order BLAS adds (the
    pre-rounding of Demmel and Nguyen's reproducible summation).  A unit of
    zero weights stays zero.  A unit whose absolute sum reaches ``2**1023``
    could have partial sums past float64's range, and is a NumericError
    naming it; training reports it as saturation, which only a learning
    rate large enough to skip past the SIGMOID_CLIP check within one epoch
    reaches.
    """
    with np.errstate(over="ignore"):  # an infinite sum is reported below
        total = np.abs(v).sum(axis=1)
    if total.max(initial=0.0) >= 2.0**1023:  # a NaN passes, and scores NaN
        h = int(np.argmax(total >= 2.0**1023))
        raise NumericError(
            f"hidden layer: the input weights of hidden unit {h} sum to {total[h]:g} "
            "in magnitude, past the 2**1023 that exact hidden-layer sums allow"
        )
    _, e = np.frexp(total)
    vq = np.ldexp(v.T, 52 - e, order="C")  # each unit's grid step is now 1
    np.rint(vq, out=vq)
    return np.ldexp(vq, e - 52, out=vq)


def _pass(net: Network, rows: np.ndarray, window: np.ndarray, out: np.ndarray) -> str | None:
    """Write the output activations of ``rows`` ``[N, I]`` into ``out``
    ``float[N, O]`` and give the first layer, "hidden" or "output", one of
    whose pre-activations reaches the sigmoid clip, else None: "hidden" if
    any row's hidden pre-activation does, whatever block it lies in.

    The rows are taken in order, ``len(window)`` at a time, each block copied
    into the float buffer ``window``, so the pass holds no float copy of all
    rows, only a block's hidden layer besides ``out``.  The hidden layer is
    one BLAS product over ``_grid_weights``, whose sums are exact for bit
    strings, with the pre-activation formed negated, as ``-b_h - x·v``,
    which is exactly ``-(x·v + b_h)``; the output layer is one
    ``np.einsum``, whose reduction order is fixed.  So for bit strings each
    row's outputs are the same bits in any block and under any number of
    BLAS threads.  Each layer's pre-activation is tested for the clip, then
    turned into the activation in place.
    """
    g, b_h_neg = _grid_weights(net.v), -net.b_h
    hidden = output = False
    for lo in range(0, len(rows), len(window)):
        part = rows[lo : lo + len(window)]
        x = window[: len(part)]
        x[...] = part
        s = x @ g
        np.subtract(b_h_neg, s, out=s)
        hidden |= s.max() >= SIGMOID_CLIP or s.min() <= -SIGMOID_CLIP  # a NaN is neither
        u = np.einsum("ph,oh->po", _sigmoid_of_negated(s), net.w, out=out[lo : lo + len(part)])
        u += net.b_o
        output |= u.max() >= SIGMOID_CLIP or u.min() <= -SIGMOID_CLIP
        _sigmoid_of_negated(np.negative(u, out=u))
    return "hidden" if hidden else "output" if output else None


def forward(net: Network, bits) -> np.ndarray:
    """Output activations, every component in (0, 1]: ``(O,)`` for one bit
    string ``(B,)``, ``(..., O)`` for a batch ``(..., B)`` such as a
    population ``(P, B)`` or a stack of them ``(R, P, B)``.  An output whose
    pre-activation passes about 37 is exactly 1.0.

    For bit strings (every entry 0 or 1) each row's result is the same bits
    whether it is passed alone or with any number of others, under any
    number of BLAS threads (``_pass``).  Other inputs are computed as well,
    without that promise.
    """
    x = _as_input(net, bits)
    rows = x.reshape(-1, x.shape[-1])
    y = np.empty((len(rows), net.output_size))
    _pass(net, rows, np.empty((min(len(rows), BLOCK_ROWS) or 1, net.input_size)), y)
    return y.reshape(*x.shape[:-1], net.output_size)


def class_score(net: Network, classes) -> Callable[[np.ndarray], np.ndarray]:
    """The GA's fitness for one class node per run: for ``classes`` of shape
    ``intp[R]``, a function ``score(stack)`` that maps a stack of
    populations ``(R, P, B)`` to the ``float[R, P]`` array whose row r is
    class ``classes[r]``'s output over run r's population.  For bit strings
    one chromosome's score is ``forward(net, bits)[..., k]``, to the bit, at
    any stack size and BLAS thread count: the hidden layer is ``forward``'s
    exact one, and only each run's class output is computed, by the same
    einsum reduction over the hidden units.  An empty ``classes`` scores a
    stack of 0 runs as a ``(0, P)`` array.

    The classes are checked, and the grid weights, ``-b_h`` and each run's
    class weights and negated bias are built, once here, not once per
    generation; so ``score`` works from a snapshot of the network as it was
    when built, and a later in-place edit of ``net`` does not reach it.
    ``score`` takes the stack in blocks of at most ``BLOCK_ROWS``
    chromosomes, whole runs or, for a run longer than that, parts of one,
    so the float copy of the input and the hidden layer stay bounded
    however many runs the stack holds; a row's score does not depend on its
    block.  ``score`` holds no buffer between calls: it is pure, safe to
    call concurrently."""
    k = np.asarray(classes)
    if k.ndim != 1:
        raise ValidationError(
            f"classes must hold one class index per run, shape (R,); got shape {k.shape}"
        )
    if not k.size:
        k = k.astype(np.intp)  # np.asarray([]) is float64
    if k.dtype.kind not in "iu":
        raise ValidationError(f"class indices must be integers, got dtype {k.dtype}")
    if k.size and (k.min() < 0 or k.max() >= net.output_size):
        r = int(np.flatnonzero((k < 0) | (k >= net.output_size))[0])
        raise ValidationError(
            f"class index {k[r]} of run {r} out of range for {net.output_size} outputs"
        )
    g, b_h_neg = _grid_weights(net.v), -net.b_h
    w, b_o_neg = net.w[k], -net.b_o[k, None]

    def score(stack) -> np.ndarray:
        x = _as_input(net, stack)
        if x.ndim < 2 or x.shape[0] != k.shape[0]:
            raise ValidationError(
                f"{k.shape[0]} class indices need a stack of {k.shape[0]} runs, got shape {x.shape[:-1]}"
            )
        shape, size = x.shape[:-1], math.prod(x.shape[1:-1])
        x = x.reshape(len(k), size, net.input_size)
        scores = np.empty((len(k), size))
        rows = min(size, BLOCK_ROWS) or 1  # a block's rows of each of its runs
        runs = BLOCK_ROWS // rows
        for r in range(0, len(k), runs):
            for p in range(0, size, rows):
                s = scores[r : r + runs, p : p + rows]
                # one BLAS product per run (matmul loops over the runs):
                # OpenBLAS runs a product as small as one population on one
                # thread, where one product over a wide stack took two in each
                # of extract's processes, which already fill the CPUs, and at
                # times doubled a batch's time
                u_h = x[r : r + runs, p : p + rows].astype(float) @ g
                h = _sigmoid_of_negated(np.subtract(b_h_neg, u_h, out=u_h))
                np.einsum("rph,rh->rp", h, w[r : r + runs], out=s)
                np.subtract(b_o_neg[r : r + runs], s, out=s)
                _sigmoid_of_negated(s)
        return scores.reshape(shape)

    return score


def _arrays(net: Network, dataset: DatasetIndex) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's bits and its class indices as one-hot float rows."""
    sizes = (dataset.bits.shape[1], dataset.schema.target_bits)
    if sizes != (net.input_size, net.output_size):
        raise ValidationError(
            f"dataset has {sizes[0]} bits and {sizes[1]} classes, "
            f"network expects {net.input_size} and {net.output_size}"
        )
    return dataset.bits, np.eye(net.output_size)[dataset.target]


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive reshaped views into ``flat``, one per shape."""
    out, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return out


def _aligned_vectors(*sizes: int) -> list[np.ndarray]:
    """Zeroed float vectors of ``sizes``, carved from one buffer so that each
    starts on a 64-byte boundary, a cache line: where numpy places a small
    array otherwise follows the process's allocation history, and with it
    the speed of every call that reads the array."""
    padded = [-(-n // 8) * 8 for n in sizes]
    buf = np.zeros(sum(padded) + 7)
    at = -buf.ctypes.data % 64 // 8
    out = []
    for n, pad in zip(sizes, padded):
        out.append(buf[at : at + n])
        at += pad
    return out


def train(net: Network, dataset: DatasetIndex, config: TrainConfig) -> TrainResult:
    """Per-pattern gradient descent with momentum until the mse target or the
    epoch budget.

    Pattern order is reshuffled once per epoch from the seeded generator, so
    training is deterministic for a fixed config.  The mse history records the
    full-dataset mse after each epoch, the mse of ``forward``'s outputs to the
    bit; only the final value is a contract.  A non-finite mse, or a
    pre-activation over the dataset that reaches the sigmoid clip after an
    epoch, is a NumericError.  So is a network that ends saturated short of
    the clip: every output activation over the dataset within SATURATION_TOL
    of 0 or 1, with the same rounded outputs, and so one prediction, for
    every record of a dataset with several classes.

    The weights, their velocities and the per-pattern step each live in one
    flat vector, with the layers as views into it, and every update writes
    into buffers allocated once, each vector on a cache line's boundary
    (``_aligned_vectors``): 25 numpy calls per pattern, with the
    functions bound to locals.  The five matrix products are ``dot``
    methods, the routine of ``np.dot`` without its dispatch: four are bound
    to their fixed operands, and the hidden one is ``(-x) @ v.T`` on the
    pattern's row of the window (below), one of the window's ``(1, B)`` row
    views made once per call, which the ``v`` outer product reads too; it
    is the same BLAS call as ``v @ (-x)``.
    The constants 1, -1 and the clip are vectors of each layer's shape,
    which numpy takes without converting a Python object or broadcasting a
    0-d array per call.  Each weight sees the same floating-point
    operations in the same order as ``vel = mom * vel - lr * grad; theta +=
    vel`` on fresh arrays, so the weights are the same bits.
    Signs are laid out so that no negation costs a call; rounding to nearest
    is symmetric under negation, so an operation on negated operands gives
    the negated result:

    - ``theta`` holds ``v, -b_h, w, -b_o`` and the inputs are read as
      ``-x``, so ``v @ (-x) + (-b_h)`` is the negated hidden pre-activation
      that the sigmoid's ``exp`` takes, and ``w @ (-h) + (-b_o)`` the
      negated output one; the outer product for ``v`` reads the same ``-x``;
    - both layers' activations are kept negated, as ``-1 / (1 + exp(-u))``,
      in one buffer, so one ``1 + (-a)`` gives both slopes ``1 - h`` and
      ``1 - y``;
    - the bias slots of ``step`` are the deltas: ``-d_h`` for ``-b_h`` and
      ``d_o`` for ``-b_o``; ``-h`` turns ``d_o`` into ``-dE/dw``;
    - only the contiguous tail ``-b_h | w | -b_o`` of ``step`` is scaled by
      the learning rate, one multiply by ``rate``, which is ``-lr`` on the
      ``-b_h`` slot and ``+lr`` on the rest: the slot then holds ``lr *
      d_h``, the step of ``-b_h``, and the ``v`` block's outer product is
      formed from it against ``-x``.  Every input bit is 0 or 1, so ``(lr *
      d_h) * x`` is exactly ``lr * (d_h * x)``, the textbook step (while
      ``lr * d_h`` is finite; if not, neither is ``b_h``), and no
      multiply by ``lr`` runs over the ``v`` block; the momentum step is
      then ``vel *= mom; vel += step; theta += vel``;
    - after each epoch the biases are written back as ``0.0 - stored``
      rather than negated: a bias that cancels exactly with its velocity
      sums to ``+0.0``, which comes back ``+0.0``, as the textbook update
      gives.  Only a caller-built network whose bias starts at ``-0.0`` can
      keep a ``-0.0`` bias in the textbook update; ``init_network`` never
      draws one.

    The two outer products are matrix products with an inner dimension of
    one, so each element is the one rounded product.  Such a product and
    ``t - y`` may give a zero of the other sign than the textbook update; a
    zero's sign changes no nonzero value downstream, and reaches a weight
    only where that weight and its velocity are both exactly zero.

    The rows are read through a window: one float buffer of at most
    ``BLOCK_ROWS`` rows, so training holds ``BLOCK_ROWS * B`` floats of
    input however many records the dataset has, where a float copy of the
    dataset takes 8 bytes per bit.  Each epoch fills it with ``-x`` from
    ``dataset.bits`` one block of the permutation at a time, and the
    updates run over its row views in that order, so no pattern pays for
    indexing; the values and the BLAS calls on them are those of a whole
    copy, and so are the weights.  The pass after each epoch is
    ``forward``'s own (``_pass``), which refills the window block by block
    in row order; the weights never read it.  The epochs run with float
    overflow ignored: a step large enough to overflow drives the network to
    the clip, past the range of exact hidden sums (``_grid_weights``) or to
    a non-finite mse, which the pass after the epoch reports.

    The caller's arrays in ``net`` get the weights back after every epoch and
    hold the trained values at the end; ``dataset`` is not modified.
    """
    if len(dataset) == 0:
        raise ValidationError("cannot train on an empty dataset")
    bits, t = _arrays(net, dataset)
    window = np.empty((min(len(dataset), BLOCK_ROWS), net.input_size))
    rows = list(window[:, None, :])  # each row of the window as a (1, B) matrix
    y_all = np.empty((len(dataset), net.output_size))
    one_hot = list(np.eye(net.output_size))
    targets = [one_hot[k] for k in dataset.target.tolist()]  # references to the K rows
    rng = np.random.default_rng(config.seed)
    mom = np.array(config.momentum, dtype=float)
    shapes = [a.shape for a in (net.v, net.b_h, net.w, net.b_o)]
    hidden, outputs = net.hidden_size, net.output_size
    size, both = sum(math.prod(shape) for shape in shapes), hidden + outputs
    (
        theta, vel, step, rate, one, act_neg, slope, s_h, s_o,
        minus_one_h, minus_one_o, clip_h, clip_o,
    ) = _aligned_vectors(
        size, size, size, size - net.v.size, both, both, both, hidden, outputs,
        hidden, outputs, hidden, outputs,
    )
    np.concatenate([net.v.ravel(), -net.b_h, net.w.ravel(), -net.b_o], out=theta)
    v, b_h_neg, w, b_o_neg = _views(theta, shapes)
    # the bias slots of the step are the deltas: -d_h for -b_h, d_o for -b_o
    step_v, d_h_neg, step_w, d_o = _views(step, shapes)
    # the tail -b_h | w | -b_o of the step, scaled by -lr on -b_h and +lr on the rest
    tail = step[step_v.size :]
    rate.fill(config.learning_rate)
    rate[:hidden] *= -1.0
    # the constants as vectors of their operands' shapes, not 0-d arrays
    for const, value in ((one, 1.0), (minus_one_h, -1.0), (minus_one_o, -1.0),
                         (clip_h, SIGMOID_CLIP), (clip_o, SIGMOID_CLIP)):
        const.fill(value)
    one_h, one_o = one[:hidden], one[hidden:]
    h_neg, y_neg = act_neg[:hidden], act_neg[hidden:]
    slope_h, slope_o = slope[:hidden], slope[hidden:]
    s_h_row, h_neg_row = s_h[None, :], h_neg[None, :]
    # bound ndarray.dot skips np.dot's __array_function__ dispatch; the v
    # block's outer product reads the b_h slot after it is scaled, lr * d_h
    v_t, w_dot, w_t_dot = v.T, w.dot, w.T.dot
    d_o_col_dot, lr_d_h_col_dot = d_o[:, None].dot, d_h_neg[:, None].dot
    add, mul, div = np.add, np.multiply, np.divide
    exp, minimum = np.exp, np.minimum
    history: list[float] = []
    with np.errstate(over="ignore"):  # the pass after each epoch reports the failure
        for epoch in range(config.max_epochs):
            order = rng.permutation(len(dataset))
            for lo in range(0, len(order), len(window)):
                part = order[lo : lo + len(window)]
                np.negative(bits.take(part, axis=0), dtype=float, out=window[: len(part)])
                # (-x) @ v.T on the row's (1, B) view is the one BLAS call of
                # v @ (-x), and the same view is the v block's outer product operand
                for x_row, i in zip(rows, part.tolist()):
                    # s = 1 + exp(-u) and the activation -1 / s, hidden then output
                    x_row.dot(v_t, s_h_row)
                    add(s_h, b_h_neg, s_h)
                    minimum(s_h, clip_h, out=s_h)
                    exp(s_h, s_h)
                    add(s_h, one_h, s_h)
                    div(minus_one_h, s_h, h_neg)
                    w_dot(h_neg, s_o)
                    add(s_o, b_o_neg, s_o)
                    minimum(s_o, clip_o, out=s_o)
                    exp(s_o, s_o)
                    add(s_o, one_o, s_o)
                    div(minus_one_o, s_o, y_neg)
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
                    mul(tail, rate, tail)
                    lr_d_h_col_dot(x_row, step_v)
                    mul(vel, mom, vel)
                    add(vel, step, vel)
                    add(theta, vel, theta)
            net.v[...], net.w[...] = v, w
            # 0.0 - (+0.0) is +0.0: a bias that cancels exactly comes back +0.0
            np.subtract(0.0, b_h_neg, out=net.b_h)
            np.subtract(0.0, b_o_neg, out=net.b_o)
            try:
                clipped = _pass(net, bits, window, y_all)
            except NumericError as e:  # a step so large that weights sum past 2**1023
                raise NumericError(
                    f"training saturated at epoch {epoch + 1}: {e}; try a smaller learning rate"
                ) from None
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
