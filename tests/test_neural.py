import copy
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (
    enumerate_class_scores,
    random_bit_dataset,
    random_records,
    reference_sigmoid,
    reference_train,
    train_step_gradient_error,
    twelve_bit_schema,
)

from edm_rulex import neural, studydata
from edm_rulex.errors import NumericError, ValidationError
from edm_rulex.neural import (
    SIGMOID_CLIP,
    Network,
    TrainConfig,
    _grid_weights,
    class_score,
    forward,
    init_network,
    load_network,
    network_to_dict,
    train,
)
from edm_rulex.schema import ROLE_TARGET, Attribute, AttributeSchema, DatasetIndex, StudentRecord, encode_dataset
from edm_rulex.util import write_json


def zero_net(inputs, hidden, outputs):
    return Network(
        v=np.zeros((hidden, inputs)),
        b_h=np.zeros(hidden),
        w=np.zeros((outputs, hidden)),
        b_o=np.zeros(outputs),
    )


def test_init_deterministic():
    schema = twelve_bit_schema()
    cfg = TrainConfig(seed=99)
    a, b = init_network(schema, cfg), init_network(schema, cfg)
    assert np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)
    assert np.array_equal(a.b_h, b.b_h) and np.array_equal(a.b_o, b.b_o)


def test_init_zero_scale():
    net = init_network(twelve_bit_schema(), TrainConfig(init_scale=0.0))
    assert not net.v.any() and not net.w.any()


def test_init_sizes_default_schema():
    schema = studydata.default_student_schema()
    net = init_network(schema, TrainConfig())
    assert net.input_size == 76
    assert net.output_size == 4
    assert net.hidden_size == 2 * math.ceil(math.sqrt(76))


def test_forward_zero_weights():
    net = zero_net(5, 3, 4)
    assert np.allclose(forward(net, np.zeros(5, dtype=np.uint8)), 0.5)
    assert np.allclose(forward(net, np.ones(5, dtype=np.uint8)), 0.5)


def test_forward_hand_example():
    # 1-1-1 net with unit weights, zero biases, x = 1
    net = Network(v=np.array([[1.0]]), b_h=np.zeros(1), w=np.array([[1.0]]), b_o=np.zeros(1))
    h = 1 / (1 + math.exp(-1))
    expected = 1 / (1 + math.exp(-h))
    y = forward(net, np.array([1], dtype=np.uint8))
    assert math.isclose(y[0], expected, rel_tol=1e-12)
    assert abs(h - 0.7311) < 1e-4 and abs(y[0] - 0.6750) < 1e-4


def test_forward_open_interval():
    rng = np.random.default_rng(5)
    for _ in range(100):
        net = Network(
            v=rng.normal(scale=3, size=(4, 8)),
            b_h=rng.normal(size=4),
            w=rng.normal(scale=3, size=(3, 4)),
            b_o=rng.normal(size=3),
        )
        for _ in range(100):
            y = forward(net, rng.integers(0, 2, 8))
            assert np.all(y > 0) and np.all(y < 1)


def test_forward_length_mismatch():
    with pytest.raises(ValidationError, match="length"):
        forward(zero_net(5, 2, 2), np.zeros(4, dtype=np.uint8))


def test_class_score_matches_forward():
    rng = np.random.default_rng(2)
    net = Network(
        v=rng.normal(size=(3, 6)),
        b_h=rng.normal(size=3),
        w=rng.normal(size=(2, 3)),
        b_o=rng.normal(size=2),
    )
    bits = rng.integers(0, 2, 6)
    assert class_score(net, bits[None, None], [1])[0, 0] == forward(net, bits)[1]
    assert class_score(zero_net(6, 2, 2), bits[None, None], [0])[0, 0] == 0.5
    with pytest.raises(ValidationError):
        class_score(net, bits[None, None], [2])


@pytest.mark.parametrize("classes", [1, np.intp(1), [[1]]], ids=["int", "0-d", "2-d"])
def test_class_score_takes_one_class_per_run_only(classes):
    net = zero_net(6, 2, 2)
    with pytest.raises(ValidationError, match="one class index per run"):
        class_score(net, np.zeros((1, 3, 6), dtype=np.uint8), classes)


@pytest.mark.parametrize(
    "classes, message",
    [
        ([0.0, 1.0], "must be integers, got dtype float64"),
        ([True, False], "must be integers, got dtype bool"),
        ([0, 7], "class index 7 of run 1 out of range for 2 outputs"),
        ([-1, 0], "class index -1 of run 0 out of range for 2 outputs"),
    ],
    ids=["float", "bool", "past-last", "negative"],
)
def test_class_score_rejects_class_indices(classes, message):
    # each is a ValidationError naming the dtype or the first bad index and its run
    with pytest.raises(ValidationError, match=message):
        class_score(zero_net(6, 2, 2), np.zeros((2, 3, 6), dtype=np.uint8), classes)


def test_forward_population_shapes():
    rng = np.random.default_rng(3)
    net = Network(
        v=rng.normal(size=(4, 7)),
        b_h=rng.normal(size=4),
        w=rng.normal(size=(3, 4)),
        b_o=rng.normal(size=3),
    )
    pop = rng.integers(0, 2, (9, 7), dtype=np.uint8)
    y = forward(net, pop)
    assert y.shape == (9, 3)
    assert np.array_equal(y[4], forward(net, pop[4]))
    scores = class_score(net, pop[None], [2])
    assert isinstance(scores, np.ndarray) and scores.shape == (1, 9)
    with pytest.raises(ValidationError, match="length"):
        forward(net, pop[:, :6])


def test_class_score_one_class_per_run():
    # a stack of populations, each scored on its own class, in one forward pass
    rng = np.random.default_rng(5)
    net = Network(
        v=rng.normal(size=(4, 7)),
        b_h=rng.normal(size=4),
        w=rng.normal(size=(3, 4)),
        b_o=rng.normal(size=3),
    )
    stack = rng.integers(0, 2, (4, 9, 7), dtype=np.uint8)
    classes = [2, 0, 2, 1]
    assert forward(net, stack).shape == (4, 9, 3)
    scores = class_score(net, stack, classes)
    assert scores.shape == (4, 9)
    for r, k in enumerate(classes):
        assert np.array_equal(scores[r], class_score(net, stack[r : r + 1], [k])[0])
    assert np.array_equal(class_score(net, stack[:, 0], classes), scores[:, 0])
    with pytest.raises(ValidationError, match="out of range"):
        class_score(net, stack, [0, 1, 3, 0])
    with pytest.raises(ValidationError, match="stack of 3 runs"):
        class_score(net, stack, [0, 1, 2])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(1, 60),
    hidden=st.integers(1, 20),
    outputs=st.integers(1, 5),
    runs=st.integers(1, 5),
    rows=st.integers(1, 130),
    scale=st.floats(0.1, 5.0),
)
@example(seed=1, bits=9, hidden=1, outputs=3, runs=2, rows=7, scale=2.0)
@example(seed=2, bits=12, hidden=6, outputs=1, runs=3, rows=5, scale=1.0)
@example(seed=3, bits=33, hidden=17, outputs=4, runs=5, rows=100, scale=3.0)
def test_class_score_batch_equals_single(seed, bits, hidden, outputs, runs, rows, scale):
    # each row's score is the same bits whether scored alone or in a stack of
    # runs of any size, each run on its own class
    rng = np.random.default_rng(seed)
    net = Network(
        v=rng.normal(scale=scale, size=(hidden, bits)),
        b_h=rng.normal(size=hidden),
        w=rng.normal(scale=scale, size=(outputs, hidden)),
        b_o=rng.normal(size=outputs),
    )
    stack = rng.integers(0, 2, (runs, rows, bits), dtype=np.uint8)
    classes = rng.integers(outputs, size=runs)
    batch = class_score(net, stack, classes)
    assert batch.shape == (runs, rows)
    for r, k in enumerate(classes):
        for i in range(rows):
            assert batch[r, i] == forward(net, stack[r, i])[k]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    runs=st.integers(1, 6),
    rows=st.integers(1, 40),
    block=st.integers(1, 250),
    middle=st.booleans(),
)
@example(seed=4, runs=3, rows=7, block=5, middle=False)  # blocks end inside runs
@example(seed=5, runs=5, rows=6, block=13, middle=False)  # blocks of two whole runs
@example(seed=6, runs=2, rows=12, block=1, middle=True)  # one chromosome per block
def test_class_score_blocks_give_the_unblocked_bits(seed, runs, rows, block, middle):
    # scored BLOCK_ROWS chromosomes at a time, whole runs or parts of one, a
    # stack gives the same bits as scored in one block
    rng = np.random.default_rng(seed)
    net = Network(
        v=rng.normal(size=(9, 30)), b_h=rng.normal(size=9),
        w=rng.normal(size=(4, 9)), b_o=rng.normal(size=4),
    )
    shape = (runs, 2, rows, 30) if middle else (runs, rows, 30)  # a run may span several axes
    stack = rng.integers(0, 2, shape, dtype=np.uint8)
    classes = rng.integers(4, size=runs)
    whole = class_score(net, stack, classes)
    default, neural.BLOCK_ROWS = neural.BLOCK_ROWS, block
    try:
        blocked = class_score(net, stack, classes)
    finally:
        neural.BLOCK_ROWS = default
    assert whole.size <= default and blocked.shape == whole.shape == shape[:-1]
    assert blocked.tobytes() == whole.tobytes()


def test_class_score_memory_does_not_grow_with_the_stack():
    # four runs of 10 000 chromosomes of 76 bits: their float copy alone
    # would take 24 MB; scored a block at a time, the peak stays near the
    # 0.3 MB of the float64 scores
    import tracemalloc

    net = init_network(studydata.default_student_schema(), TrainConfig(seed=1))
    stack = np.random.default_rng(0).integers(0, 2, (4, 10_000, 76), dtype=np.uint8)
    tracemalloc.start()
    try:
        class_score(net, stack, [0, 1, 2, 3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_train_memory_does_not_grow_with_the_dataset():
    # 20 000 records of 76 bits: a float copy of the rows alone would take
    # 12 MB; read through the window of BLOCK_ROWS rows, the peak stays
    # near the per-record outputs, targets and squared errors
    import tracemalloc

    schema = studydata.default_student_schema()
    widths = schema.code_layout[0]
    codes = np.random.default_rng(0).integers(0, widths, (20_000, len(widths)))
    index = DatasetIndex(schema, codes)
    cfg = TrainConfig(max_epochs=1, seed=1)
    net = init_network(schema, cfg)
    tracemalloc.start()
    try:
        train(net, index, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hidden=st.integers(1, 24),
    inputs=st.integers(1, 90),
    rows=st.integers(1, 300),
    low=st.floats(-300.0, 300.0),
    span=st.floats(0.0, 600.0),
    zero_share=st.floats(0.0, 1.0),
)
@example(seed=1, hidden=24, inputs=90, rows=300, low=-300.0, span=600.0, zero_share=0.3)
@example(seed=2, hidden=1, inputs=1, rows=1, low=300.0, span=0.0, zero_share=0.0)
@example(seed=3, hidden=5, inputs=76, rows=200, low=-320.0, span=10.0, zero_share=0.0)
def test_grid_weights_give_exact_sums_for_bit_strings(seed, hidden, inputs, rows, low, span, zero_share):
    # each hidden unit's weights at its own scale, from 1e-300 to 1e300 (and
    # subnormal in one example), some units all zero: for 0/1 rows the BLAS
    # product equals the exactly rounded sum of the selected rounded weights
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(low, min(low + span, 300.0), size=(hidden, 1))
    v = rng.normal(size=(hidden, inputs)) * scales
    v[rng.random(hidden) < zero_share] = 0.0
    vq = _grid_weights(v)
    assert vq.shape == (inputs, hidden) and vq.flags.c_contiguous
    x = rng.integers(0, 2, (rows, inputs)).astype(float)
    s = x @ vq
    for r in range(rows):
        picked = vq[x[r] == 1.0]
        for h in range(hidden):
            assert s[r, h] == math.fsum(picked[:, h]), (r, h)
    # each weight lies within half a grid step of the original, and a zero
    # unit stays zero
    _, e = np.frexp(np.abs(v).sum(axis=1))
    assert (np.abs(vq - v.T) <= np.ldexp(0.5, e - 52)).all()
    assert (vq[:, ~v.any(axis=1)] == 0.0).all()


@pytest.mark.parametrize(
    "weights, total",
    [([1e308, 1e308], "inf"), ([2.0**1022, 2.0**1022], "8.98847e+307")],
    ids=["overflowing", "at-2**1023"],
)
def test_hidden_unit_whose_weights_sum_past_float64_is_a_numeric_error(weights, total):
    # only a hand-written model holds such a unit; its sums of bit strings
    # could leave float64's range, so it is named rather than scored
    v = np.zeros((3, 2))
    v[1] = weights
    net = Network(v=v, b_h=np.zeros(3), w=np.ones((2, 3)), b_o=np.zeros(2))
    message = re.escape(f"hidden layer: the input weights of hidden unit 1 sum to {total} in magnitude")
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(NumericError, match=message):
            class_score(net, np.ones((1, 4, 2), dtype=np.uint8), [0])
        with pytest.raises(NumericError, match=message):
            forward(net, np.ones(2, dtype=np.uint8))
        v[1] = np.nextafter(2.0**1022, 0.0)
        assert np.isfinite(class_score(net, np.ones((1, 4, 2), dtype=np.uint8), [0])).all()


def test_class_score_argmax_matches_enumeration():
    schema = twelve_bit_schema()
    rng = np.random.default_rng(17)
    records = random_records(schema, 60, rng)
    encoded = encode_dataset(records, schema)
    cfg = TrainConfig(max_epochs=60, hidden_size=6, seed=4)
    result = train(init_network(schema, cfg), encoded, cfg)
    net = result.network
    scores = enumerate_class_scores(net, 0)
    best = int(np.argmax(scores))
    best_loop, best_val = 0, -1.0
    for i in range(2**12):
        bits = (i >> np.arange(12)) & 1
        val = forward(net, bits)[0]
        if val > best_val:
            best_loop, best_val = i, val
    assert best_loop == best


def test_monotone_link():
    # d y_k / d w[k][j] = y_k (1 - y_k) h_j >= 0 whenever h_j > 0
    rng = np.random.default_rng(8)
    net = Network(
        v=rng.normal(size=(4, 6)),
        b_h=rng.normal(size=4),
        w=rng.normal(size=(3, 4)),
        b_o=rng.normal(size=3),
    )
    bits = rng.integers(0, 2, 6)
    base = forward(net, bits)[1]
    net.w[1, 2] += 0.25  # sigmoid hidden activations are always positive
    assert forward(net, bits)[1] >= base


def test_train_memorizes_single_record():
    schema = twelve_bit_schema()
    rng = np.random.default_rng(0)
    encoded = encode_dataset(random_records(schema, 1, rng), schema)
    cfg = TrainConfig(max_epochs=500, seed=1)
    result = train(init_network(schema, cfg), encoded, cfg)
    assert result.final_mse < 0.01
    assert result.epochs_run <= 500


def test_train_separable_toy_task():
    # T copies A; B is irrelevant: 4 patterns, default config
    from edm_rulex.schema import Attribute, AttributeSchema, ROLE_TARGET, StudentRecord

    schema = AttributeSchema(
        (
            Attribute("A", ("a1", "a2")),
            Attribute("B", ("b1", "b2")),
            Attribute("T", ("t1", "t2"), ROLE_TARGET),
        )
    )
    records = [
        StudentRecord({"A": a, "B": b, "T": "t1" if a == "a1" else "t2"})
        for a in ("a1", "a2")
        for b in ("b1", "b2")
    ]
    encoded = encode_dataset(records, schema)
    cfg = TrainConfig(seed=3)
    result = train(init_network(schema, cfg), encoded, cfg)
    for bits, target_index in zip(encoded.bits, encoded.target):
        assert int(np.argmax(forward(result.network, bits))) == target_index


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    dataset = random_bit_dataset(8, rng)  # a 6-3-2 network below
    worst = 0.0
    for draw in range(5):
        net = Network(
            v=rng.uniform(-0.5, 0.5, (3, 6)),
            b_h=rng.uniform(-0.5, 0.5, 3),
            w=rng.uniform(-0.5, 0.5, (2, 3)),
            b_o=rng.uniform(-0.5, 0.5, 2),
        )
        worst = max(worst, train_step_gradient_error(net, dataset))
    assert worst < 1e-5


def test_train_empty_dataset():
    with pytest.raises(ValidationError, match="empty"):
        train(zero_net(3, 2, 2), [], TrainConfig())


@pytest.mark.parametrize("hidden", [0, -1])
def test_train_config_rejects_empty_hidden_layer(hidden):
    with pytest.raises(ValidationError, match="hidden size"):
        TrainConfig(hidden_size=hidden)


def test_train_divergence_reports_rate():
    schema = twelve_bit_schema()
    rng = np.random.default_rng(0)
    encoded = encode_dataset(random_records(schema, 4, rng), schema)
    cfg = TrainConfig(max_epochs=3, seed=1)
    net = init_network(schema, cfg)
    net.v[0, 0] = np.nan  # simulate a blown-up run
    with pytest.raises(NumericError, match="smaller learning rate"):
        train(net, encoded, cfg)


def test_train_deterministic():
    schema = twelve_bit_schema()
    rng = np.random.default_rng(1)
    records = random_records(schema, 30, rng)
    encoded = encode_dataset(records, schema)
    cfg = TrainConfig(max_epochs=20, seed=11)
    r1 = train(init_network(schema, cfg), encoded, cfg)
    r2 = train(init_network(schema, cfg), encoded, cfg)
    assert np.array_equal(r1.network.v, r2.network.v)
    assert r1.mse_history == r2.mse_history


def test_network_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    net = Network(
        v=rng.normal(size=(3, 5)),
        b_h=rng.normal(size=3),
        w=rng.normal(size=(2, 3)),
        b_o=rng.normal(size=2),
        metadata={"note": "round trip"},
    )
    path = tmp_path / "net.json"
    write_json(path, network_to_dict(net))
    back = load_network(path)
    assert np.array_equal(back.v, net.v) and np.array_equal(back.b_o, net.b_o)
    assert back.metadata == net.metadata


def test_config_validation():
    for bad in (
        dict(learning_rate=0.0),
        dict(momentum=1.0),
        dict(max_epochs=0),
        dict(target_mse=0.0),
    ):
        with pytest.raises(ValidationError):
            TrainConfig(**bad)


@pytest.mark.parametrize(
    "field, name",
    [("learning_rate", "learning rate"), ("target_mse", "target mse"), ("init_scale", "init scale")],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        TrainConfig(**{field: value})


LAYERS = ("v", "b_h", "w", "b_o")


def assert_same_weights(got, expected):
    # bit for bit: tobytes also tells -0.0 from 0.0
    for name in LAYERS:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()


def assert_same_training(got, expected):
    assert_same_weights(got.network, expected.network)
    assert got.mse_history == expected.mse_history
    assert got.epochs_run == expected.epochs_run


def test_forward_output_layer_matches_clipped_formula():
    # two hidden units whose biases hold them at exactly 1.0, so output k's
    # pre-activation is w[k, 0] + w[k, 1] + 0.0: u itself for a finite u
    # beside a zero, and +-inf for two +-1e308
    rng = np.random.default_rng(12)
    edges = [0.0, -0.0, 1e-300, -1e-300, SIGMOID_CLIP, -SIGMOID_CLIP, 499.999, -499.999, 1e6, -1e6]
    # exp overflows past 709.78 and underflows to 0 past 745.13
    edges += [709.0, -709.0, 745.0, -745.0]
    u = np.concatenate([edges, rng.normal(scale=40, size=500), rng.normal(scale=800, size=500)])
    w = np.vstack([np.column_stack([u, np.zeros_like(u)]), [[1e308, 1e308], [-1e308, -1e308]]])
    u = np.append(u, [np.inf, -np.inf])
    net = Network(v=np.zeros((2, 1)), b_h=np.full(2, 100.0), w=w, b_o=np.zeros(len(w)))
    expected = 1.0 / (1.0 + np.exp(-np.clip(u, -SIGMOID_CLIP, SIGMOID_CLIP)))
    with np.errstate(over="ignore"):  # 1e308 + 1e308
        assert forward(net, [1]).tobytes() == expected.tobytes()
    assert np.isnan(forward(net, [np.nan])).all()


@settings(max_examples=80, deadline=None)
@given(
    levels=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    classes=st.integers(2, 4),
    n_records=st.integers(1, 25),
    hidden=st.integers(1, 8),
    learning_rate=st.floats(0.01, 2.0),
    momentum=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    max_epochs=st.integers(1, 6),
    target_mse=st.sampled_from([1e-9, 0.05, 0.2]),
    init_scale=st.sampled_from([0.5, 0.0, 50.0]),
    seed=st.integers(0, 2**32 - 1),
)
# all weights zero: each hidden update is a zero, and the oracle's b_h stays +0.0;
# train stores -b_h and writes it back as 0.0 - (-b_h), +0.0 too, where negation would
# give -0.0.  The one bias this leaves at the other zero is one that starts at -0.0,
# which the oracle can keep: only a caller-built network holds one, as init_network
# draws +0.0 (uniform(-0.0, 0.0) is +0.0)
@example(
    levels=[2], classes=2, n_records=1, hidden=1, learning_rate=1.0, momentum=0.0, max_epochs=1,
    target_mse=1e-9, init_scale=0.0, seed=0,
)
def test_train_equals_reference_bit_for_bit(
    levels, classes, n_records, hidden, learning_rate, momentum, max_epochs, target_mse, init_scale, seed
):
    schema = AttributeSchema(
        tuple(Attribute(f"A{j}", tuple(f"a{j}_{k}" for k in range(m))) for j, m in enumerate(levels))
        + (Attribute("T", tuple(f"t{k}" for k in range(classes)), ROLE_TARGET),)
    )
    encoded = encode_dataset(random_records(schema, n_records, np.random.default_rng(seed)), schema)
    cfg = TrainConfig(
        learning_rate=learning_rate,
        momentum=momentum,
        max_epochs=max_epochs,
        target_mse=target_mse,
        hidden_size=hidden,
        init_scale=init_scale,
        seed=seed,
    )
    oracle, net = init_network(schema, cfg), init_network(schema, cfg)
    try:
        expected = reference_train(oracle, encoded, cfg)
    except NumericError:
        with pytest.raises(NumericError):
            train(net, encoded, cfg)
        # both stop after the same epoch, with its weights in the caller's arrays
        if all(np.isfinite(getattr(oracle, name)).all() for name in LAYERS):
            assert_same_weights(net, oracle)
        return
    try:
        result = train(net, encoded, cfg)
    except NumericError as e:
        # the oracle has no check for a network saturated short of the clip
        assert "saturated after" in str(e)
        assert_same_weights(net, oracle)
        return
    assert_same_training(result, expected)


@pytest.mark.parametrize("block", [1, 3, 4, 7])
@pytest.mark.parametrize("n_records, seed", [(1, 0), (6, 1), (8, 2), (23, 3), (40, 4)])
def test_train_in_blocks_equals_reference_bit_for_bit(monkeypatch, block, n_records, seed):
    # the window is refilled at every block of the permutation and of the
    # pass after each epoch, which is forward's, exact at any block size, so
    # the oracle's mse is forward's over all rows at once
    schema = studydata.default_student_schema()
    encoded = encode_dataset(random_records(schema, n_records, np.random.default_rng(seed)), schema)
    cfg = TrainConfig(max_epochs=3, target_mse=1e-9, seed=seed)
    monkeypatch.setattr(neural, "BLOCK_ROWS", block)
    expected = reference_train(init_network(schema, cfg), encoded, cfg)
    assert_same_training(train(init_network(schema, cfg), encoded, cfg), expected)


def test_train_logs_the_mse_of_forward(monkeypatch):
    # the pass after each epoch is forward's own, so the logged mse is the
    # mse of forward's outputs to the bit, at any block size; a raw product
    # over a block of rows may round otherwise than over more rows
    schema = studydata.default_student_schema()
    widths = schema.code_layout[0]
    index = DatasetIndex(schema, np.random.default_rng(97).integers(0, widths, (97, len(widths))))
    cfg = TrainConfig(max_epochs=3, seed=1)
    histories = []
    for block in (1, 3, 1024):
        monkeypatch.setattr(neural, "BLOCK_ROWS", block)
        result = train(init_network(schema, cfg), index, cfg)
        y = forward(result.network, index.bits)
        assert result.final_mse == float(np.mean((y - np.eye(4)[index.target]) ** 2))
        histories.append(result.mse_history)
    assert histories[0] == histories[1] == histories[2]


def test_train_names_the_hidden_layer_when_it_clips_only_in_a_later_block(monkeypatch):
    # blocks of two rows: record 0 drives the output pre-activation past the
    # clip (800) in the first block, record 2 the hidden one (600) in the
    # second, where the output's stays at 400; the rate is too small to move
    # either back
    schema = AttributeSchema((Attribute("A", ("a0", "a1")), Attribute("T", ("t0", "t1"), ROLE_TARGET)))
    encoded = DatasetIndex.from_arrays(schema, [[0, 1], [0, 0], [1, 0], [0, 0]], [0, 1, 0, 1])
    net = zero_net(2, 2, 2)
    net.v[0, 0] = SIGMOID_CLIP + 100.0  # hidden unit 0 clips on bit 0
    net.v[1, 1] = 50.0  # hidden unit 1 is 1.0 on bit 1 and 0.5 without it
    net.w[0, 1] = 1.6 * SIGMOID_CLIP
    cfg = TrainConfig(learning_rate=1e-9, momentum=0.0, hidden_size=2, max_epochs=3, seed=1)
    monkeypatch.setattr(neural, "BLOCK_ROWS", 2)
    with pytest.raises(NumericError, match="saturated at epoch 1: a pre-activation of the hidden layer reached"):
        train(net, encoded, cfg)


def test_train_gives_back_an_output_bias_that_cancels_as_plus_zero():
    # with these weights and this rate the first output bias and its
    # velocity cancel exactly: the textbook update's sum is +0.0, and train,
    # which stores -b_o, must give back +0.0 too, not the negation -0.0
    schema = AttributeSchema(
        (Attribute("A", ("a0", "a1")), Attribute("T", ("t0", "t1"), ROLE_TARGET))
    )
    encoded = encode_dataset([StudentRecord({"A": "a0", "T": "t0"})], schema)
    cfg = TrainConfig(
        learning_rate=21.62675517505845, momentum=0.0, max_epochs=1, target_mse=1e-9, hidden_size=1,
    )
    start = zero_net(2, 1, 2)
    start.b_o[:] = [-2.0, 0.3]
    oracle, net = copy.deepcopy(start), copy.deepcopy(start)
    expected = reference_train(oracle, encoded, cfg)
    assert oracle.b_o[0] == 0.0 and not np.signbit(oracle.b_o[0])
    assert_same_training(train(net, encoded, cfg), expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_through_the_sigmoid_clip_equals_reference():
    # two hidden units and their outgoing weights scaled into the thousands
    # drive hidden and output pre-activations past both signs of the clip
    # within the first epoch, so updates run the clipped and the saturated
    # (y exactly 1.0) sigmoid while the other units keep learning
    schema = twelve_bit_schema()
    encoded = encode_dataset(random_records(schema, 30, np.random.default_rng(21)), schema)
    cfg = TrainConfig(hidden_size=6, max_epochs=3, seed=12)
    start = init_network(schema, cfg)
    start.v[:2] *= 4000.0
    start.w[:, :2] *= 4000.0
    u_h = encoded.bits @ start.v.T + start.b_h
    u_o = reference_sigmoid(u_h) @ start.w.T + start.b_o
    for u in (u_h, u_o):
        assert u.max() > SIGMOID_CLIP and u.min() < -SIGMOID_CLIP
    assert (forward(start, encoded.bits) == 1.0).any()
    oracle, net = copy.deepcopy(start), copy.deepcopy(start)
    with pytest.raises(NumericError, match="reference training failed at epoch 1"):
        reference_train(oracle, encoded, cfg)
    with pytest.raises(NumericError, match="saturated at epoch 1"):
        train(net, encoded, cfg)
    for name in LAYERS:
        assert np.isfinite(getattr(oracle, name)).all()
        assert not np.array_equal(getattr(net, name), getattr(start, name))
    assert_same_weights(net, oracle)


@pytest.mark.parametrize("layer", ["hidden", "output"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_train_names_the_one_layer_whose_pre_activation_reaches_the_clip(layer, sign):
    # one unit's bias alone puts its pre-activation past one sign of the
    # clip, on every record; the learning rate is too small to move it back
    schema = twelve_bit_schema()
    encoded = encode_dataset(random_records(schema, 10, np.random.default_rng(3)), schema)
    net = zero_net(schema.total_predictive_bits, 2, schema.target_bits)
    (net.b_h if layer == "hidden" else net.b_o)[1] = sign * (SIGMOID_CLIP + 100.0)
    cfg = TrainConfig(learning_rate=1e-9, momentum=0.0, hidden_size=2, max_epochs=3, seed=1)
    with pytest.raises(NumericError, match=f"saturated at epoch 1: a pre-activation of the {layer} layer reached"):
        train(net, encoded, cfg)


def test_train_equals_reference_when_stopping_at_target():
    schema = twelve_bit_schema()
    encoded = encode_dataset(random_records(schema, 1, np.random.default_rng(0)), schema)
    cfg = TrainConfig(max_epochs=500, seed=1)
    result = train(init_network(schema, cfg), encoded, cfg)
    assert result.epochs_run < cfg.max_epochs and result.final_mse <= cfg.target_mse
    assert_same_training(result, reference_train(init_network(schema, cfg), encoded, cfg))


def test_train_writes_into_callers_arrays():
    schema = twelve_bit_schema()
    encoded = encode_dataset(random_records(schema, 20, np.random.default_rng(4)), schema)
    cfg = TrainConfig(max_epochs=3, seed=5)
    net = init_network(schema, cfg)
    arrays = {name: getattr(net, name) for name in LAYERS}
    before = {name: a.copy() for name, a in arrays.items()}
    result = train(net, encoded, cfg)
    assert result.network is net
    expected = reference_train(init_network(schema, cfg), encoded, cfg).network
    for name, a in arrays.items():
        assert getattr(net, name) is a
        assert not np.array_equal(a, before[name])
        assert a.tobytes() == getattr(expected, name).tobytes()


def test_train_leaves_the_dataset_unchanged():
    schema = twelve_bit_schema()
    encoded = encode_dataset(random_records(schema, 20, np.random.default_rng(6)), schema)
    bits, target = encoded.bits.copy(), encoded.target.copy()
    cfg = TrainConfig(max_epochs=3, seed=5)
    train(init_network(schema, cfg), encoded, cfg)
    assert encoded.bits.dtype == bits.dtype and encoded.bits.tobytes() == bits.tobytes()
    assert encoded.target.dtype == target.dtype and encoded.target.tobytes() == target.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_train_emits_no_runtime_warning():
    schema = studydata.default_student_schema()
    encoded = encode_dataset(random_records(schema, 60, np.random.default_rng(9)), schema)
    cfg = TrainConfig(max_epochs=5, seed=2)
    result = train(init_network(schema, cfg), encoded, cfg)
    assert result.epochs_run == 5 and np.isfinite(result.final_mse)
