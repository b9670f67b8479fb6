"""Tests of the benchmark's own arithmetic, checks and input generation.

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import hostclock
import run
import worker
import workloads
from spans import SpanRecorder

from edm_rulex.neural import Network
from edm_rulex.rulekit import Rule, RuleSet
from edm_rulex.schema import ROLE_TARGET, Attribute, AttributeSchema, StudentRecord

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_and_tallies():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    with rec.span("a"):  # [0, 10]
        clock.now = 1.0
        with rec.span("b"):  # [1, 4]
            clock.now = 2.0
            with rec.span("d"):  # [2, 3]
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with rec.span("c"):  # [5, 7]
            clock.now = 7.0
        for _ in range(3):
            rec.tally("hot", 0.5)
        clock.now = 10.0
    own = {rec.spans[i].name: t for i, t in rec.self_times().items()}
    assert own == {"a": 10 - 3 - 2 - 1.5, "b": 3 - 1, "d": 1, "c": 2}
    assert rec.self_total("") + 1.5 == pytest.approx(10.0)  # self times and tallies tile the root
    assert rec.tally_total("hot", under="a") == (3, 1.5)
    assert rec.tally_total("hot", under="b") == (0, 0.0)


def test_tallied_call_inside_tallied_call_counts_once():
    rec = SpanRecorder()
    inner = rec.tallied("stat", lambda: 1)
    outer = rec.tallied("stat", lambda: inner() + 1)
    with rec.span("stage"):
        assert outer() == 2
        assert inner() == 1
    assert rec.tally_total("stat")[0] == 2


def test_spanned_runs_hook_with_arguments_and_result():
    rec = SpanRecorder()
    seen = []
    double = rec.spanned("lib.double", lambda x: 2 * x, after=lambda a, k, r: seen.append((a, r)))
    assert double(4) == 8
    assert seen == [((4,), 8)] and rec.n_spans("lib.double") == 1


def two_rule_case():
    schema = AttributeSchema(
        (
            Attribute("A", ("a1", "a2", "a3")),
            Attribute("B", ("b1", "b2")),
            Attribute("T", ("t1", "t2"), ROLE_TARGET),
        )
    )
    rows = [("a1", "b1", "t1"), ("a1", "b2", "t2"), ("a2", "b2", "t2"), ("a3", "b1", "t2")]
    records = [StudentRecord({"A": a, "B": b, "T": t}) for a, b, t in rows]
    # one hidden unit that fires on B = b2 (bit 4); it drives t2 up and t1 down
    net = Network(
        v=np.array([[0.0, 0.0, 0.0, 0.0, 10.0]]),
        b_h=np.array([-5.0]),
        w=np.array([[-10.0], [10.0]]),
        b_o=np.array([5.0, -5.0]),
    )
    rules = (
        Rule(terms=(("A", ("a1",)),), consequent="t1", support=2, confidence=0.5, coverage=0.5),
        Rule(terms=(("B", ("b2",)),), consequent="t2", support=2, confidence=1.0, coverage=0.5),
    )
    return schema, records, net, RuleSet(rules=rules, default="t1")


def test_rule_fidelity_on_two_rules():
    schema, records, net, ruleset = two_rule_case()
    # rules predict t1, t1, t2, t1; the network says t1, t2, t2, t1
    assert checks.rule_fidelity(ruleset, net, records, schema) == 0.75


def test_ruleset_recomputation_on_two_rules():
    schema, records, _, ruleset = two_rule_case()
    assert checks.ruleset_mismatches({"training_accuracy": 0.5}, ruleset, records, schema) == []
    wrong = RuleSet(rules=(ruleset.rules[0], replace(ruleset.rules[1], support=3)), default="t1")
    problems = checks.ruleset_mismatches({"training_accuracy": 0.75}, wrong, records, schema)
    assert problems == [
        "rule 1 support: recorded 3, recomputed 2",
        "training_accuracy: recorded 0.75, recomputed 0.5",
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    def written(seed, name):
        files = workloads.write_inputs(workload, seed, tmp_path / name)
        return {key: path.read_bytes() for key, path in files.items()}

    first = written(11, "first")
    assert written(11, "again") == first
    assert written(12, "other") != first


def test_planted_rules_cover_every_class():
    from edm_rulex.studydata import default_student_schema

    labels = {pair["then"] for pair in workloads.PLANTED_RULES}
    assert labels == set(default_student_schema().target.levels)
    assert workloads.PLANTED_RULES[-1]["when"] == {}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    quality = {"rule_accuracy": 1.0, "rule_fidelity": 1.0, "train_mse": 0.0}
    layers = worker.layer_metrics(SpanRecorder(), {"audit": []}, quality)
    layers["trace.overhead_s"] = 0.0
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_stage_repeats_until_its_window_or_run_cap():
    assert worker.wants_more([])
    assert worker.wants_more([0.1, 0.1])
    assert not worker.wants_more([worker.STAGE_WINDOW_S])
    assert not worker.wants_more([0.5 * worker.STAGE_WINDOW_S] * 2)
    assert not worker.wants_more([1e-3] * worker.MAX_RUNS)


def test_host_clock_scales_wall_time_by_probed_speed():
    assert hostclock.speed([hostclock.PROBE_REF_S, hostclock.PROBE_REF_S / 3]) == pytest.approx(2.0)
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock(interval=0.005) as clock:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.samples) > 2  # before, after, and from the timer
    assert 0 < clock.wall_s < 0.05
    assert clock.ref_s == pytest.approx(clock.wall_s * hostclock.speed(clock.samples))
