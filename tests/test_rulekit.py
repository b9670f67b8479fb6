import json
import logging
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from helpers import random_records, reference_extract, reference_refine, twelve_bit_schema
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edm_rulex import studydata
from edm_rulex.errors import NumericError, ValidationError
from edm_rulex.evolver import GaConfig
from edm_rulex.neural import TrainConfig, forward, init_network, train
from edm_rulex.rulekit import (
    DatasetIndex,
    Rule,
    RuleSet,
    cover,
    decode_chromosome,
    evaluate_rule,
    extract_ruleset,
    format_rule,
    format_ruleset,
    majority_class,
    parse_rule,
    parse_ruleset,
    refine_rule,
    ruleset_from_dict,
    ruleset_to_dict,
)
from edm_rulex.schema import Attribute, AttributeSchema, StudentRecord, encode_dataset
from edm_rulex.synthgen import (
    PlantedRuleSpec,
    default_discretization,
    plant_rules,
    sample_population,
)
from edm_rulex.util import derive_seed


def bits(s):
    return np.array([int(c) for c in s.replace("|", "")], dtype=np.uint8)


def test_decode_one_hot(toy_schema):
    rule = decode_chromosome(bits("010|10"), toy_schema, 0)
    assert rule.terms == (("A", ("a2",)), ("B", ("b1",)))
    assert rule.consequent == "t1"


def test_decode_or_and_dont_care(toy_schema):
    rule = decode_chromosome(bits("110|00"), toy_schema, 0)
    assert rule.terms == (("A", ("a1", "a2")),)  # B dropped as don't-care


def test_decode_tautology(toy_schema):
    rule = decode_chromosome(bits("111|11"), toy_schema, 1)
    assert rule.terms == ()
    assert rule.consequent == "t2"


def test_decode_total(toy_schema):
    rng = np.random.default_rng(0)
    for _ in range(500):
        rule = decode_chromosome(rng.integers(0, 2, 5, dtype=np.uint8), toy_schema, 0)
        for attr, levels in rule.terms:
            full = toy_schema.attribute(attr).levels
            assert 0 < len(levels) < len(full)
            assert set(levels) <= set(full)


def matches(rule, records, schema):
    """Per record: does ``rule`` match?  Read off ``predict_index`` of a
    one-rule ruleset whose default is another class."""
    other = next(t for t in schema.target.levels if t != rule.consequent)
    ruleset = RuleSet(rules=(rule,), default=other)
    k = schema.target.level_index(rule.consequent)
    return (ruleset.predict_index(DatasetIndex(schema, records)) == k).tolist()


def test_predict_index_basics(toy_schema):
    record = StudentRecord({"A": "a2", "B": "b1", "T": "t1"})
    assert matches(Rule(terms=(), consequent="t1"), [record], toy_schema) == [True]
    assert matches(Rule(terms=(("A", ("a2",)),), consequent="t1"), [record], toy_schema) == [True]
    assert matches(Rule(terms=(("A", ("a1",)),), consequent="t1"), [record], toy_schema) == [False]


def test_predict_index_brute_force_agreement(toy_schema):
    rng = np.random.default_rng(1)
    records = random_records(toy_schema, 100, rng)
    for _ in range(100):
        terms = []
        for attr in toy_schema.predictive:
            k = rng.integers(0, len(attr.levels) + 1)
            chosen = tuple(
                np.array(attr.levels)[np.sort(rng.permutation(len(attr.levels))[:k])]
            )
            if 0 < len(chosen) < len(attr.levels):
                terms.append((attr.name, chosen))
        rule = Rule(terms=tuple(terms), consequent="t1")
        got = matches(rule, records, toy_schema)
        for record, matched in zip(records, got):
            # independent evaluation: raw set membership per term
            expected = True
            for attr, levels in rule.terms:
                if record.values[attr] not in levels:
                    expected = False
                    break
            assert matched == expected


def test_predict_and_accuracy_reject_an_unknown_attribute_alike(toy_schema):
    records = random_records(toy_schema, 5, np.random.default_rng(0))
    ruleset = RuleSet(rules=(Rule(terms=(("Z", ("z1",)),), consequent="t1"),), default="t2")
    with pytest.raises(ValidationError) as from_accuracy:
        ruleset.accuracy(records, toy_schema)
    assert "'Z'" in str(from_accuracy.value)
    with pytest.raises(ValidationError) as from_predict:
        ruleset.predict(records[0])
    assert str(from_predict.value) == str(from_accuracy.value)


def test_evaluate_hand_count(toy_schema):
    records = [
        StudentRecord({"A": "a1", "B": "b1", "T": "t1"}),
        StudentRecord({"A": "a1", "B": "b2", "T": "t2"}),
        StudentRecord({"A": "a2", "B": "b1", "T": "t1"}),
        StudentRecord({"A": "a3", "B": "b1", "T": "t2"}),
    ]
    rule = Rule(terms=(("A", ("a1",)),), consequent="t1")
    m = evaluate_rule(rule, records, toy_schema)
    assert (m.support, m.confidence, m.coverage) == (2, 0.5, 0.5)


def test_evaluate_empty_antecedent_gives_prior(toy_schema):
    rng = np.random.default_rng(2)
    records = random_records(toy_schema, 200, rng)
    prior = sum(r.values["T"] == "t1" for r in records) / len(records)
    m = evaluate_rule(Rule(terms=(), consequent="t1"), records, toy_schema)
    assert m.coverage == 1.0
    assert m.confidence == pytest.approx(prior)


def test_evaluate_vacuous(toy_schema):
    records = [StudentRecord({"A": "a1", "B": "b1", "T": "t1"})]
    rule = Rule(terms=(("A", ("a3",)),), consequent="t1")
    m = evaluate_rule(rule, records, toy_schema)
    assert m.vacuous and m.support == 0 and m.confidence == 0.0


def test_evaluate_rejects_an_unknown_consequent_whether_or_not_it_matches(toy_schema):
    index = DatasetIndex(toy_schema, [StudentRecord({"A": "a1", "B": "b1", "T": "t1"})])
    for levels in (("a3",), ("a1",)):  # matches no record, then the one record
        with pytest.raises(ValidationError, match="unknown token 'zzz'"):
            evaluate_rule(Rule(terms=(("A", levels),), consequent="zzz"), index)


def test_refine_drops_redundant_term(toy_schema):
    # T depends only on A; the B term is redundant
    rng = np.random.default_rng(3)
    records = []
    for _ in range(200):
        a = toy_schema.attribute("A").levels[rng.integers(3)]
        b = toy_schema.attribute("B").levels[rng.integers(2)]
        records.append(StudentRecord({"A": a, "B": b, "T": "t1" if a == "a1" else "t2"}))
    rule = Rule(terms=(("A", ("a1",)), ("B", ("b1",))), consequent="t1")
    before = evaluate_rule(rule, records, toy_schema).confidence
    refined = refine_rule(rule, DatasetIndex(toy_schema, records))
    assert refined.terms == (("A", ("a1",)),)
    assert refined.confidence == before == 1.0


def test_refine_keeps_essential_term(toy_schema):
    records = [
        StudentRecord({"A": "a1", "B": "b1", "T": "t1"}),
        StudentRecord({"A": "a2", "B": "b1", "T": "t2"}),
        StudentRecord({"A": "a1", "B": "b2", "T": "t1"}),
        StudentRecord({"A": "a3", "B": "b2", "T": "t2"}),
    ]
    rule = Rule(terms=(("A", ("a1",)),), consequent="t1")
    refined = refine_rule(rule, DatasetIndex(toy_schema, records))
    assert refined.terms == rule.terms


def test_refine_epsilon_one_drops_everything(toy_schema):
    rng = np.random.default_rng(5)
    records = random_records(toy_schema, 50, rng)
    rule = Rule(terms=(("A", ("a1",)), ("B", ("b2",))), consequent="t1")
    refined = refine_rule(rule, DatasetIndex(toy_schema, records), epsilon=1.0)
    assert refined.terms == ()


def test_refine_never_lowers_confidence_beyond_epsilon(toy_schema):
    rng = np.random.default_rng(6)
    records = random_records(toy_schema, 120, rng)
    for _ in range(50):
        chromosome = rng.integers(0, 2, 5, dtype=np.uint8)
        rule = decode_chromosome(chromosome, toy_schema, int(rng.integers(2)))
        before = evaluate_rule(rule, records, toy_schema).confidence
        refined = refine_rule(rule, DatasetIndex(toy_schema, records), epsilon=0.0)
        assert refined.confidence >= before - 1e-12


@st.composite
def twelve_bit_records(draw, max_size=40):
    """Records over twelve_bit_schema, level indices drawn per attribute."""
    schema = twelve_bit_schema()
    rows = draw(
        st.lists(
            st.tuples(*(st.integers(0, len(a.levels) - 1) for a in schema.attributes)),
            min_size=1,
            max_size=max_size,
        )
    )
    return schema, [
        StudentRecord({a.name: a.levels[i] for a, i in zip(schema.attributes, row)})
        for row in rows
    ]


CHROMOSOME = st.lists(st.integers(0, 1), min_size=12, max_size=12)


@settings(max_examples=300, deadline=None)
@given(
    data=twelve_bit_records(),
    chromosome=CHROMOSOME,
    class_index=st.integers(0, 1),
    epsilon=st.sampled_from([0.0, 0.05, 1.0]),
)
def test_refine_matches_reference(data, chromosome, class_index, epsilon):
    schema, records = data
    rule = decode_chromosome(np.array(chromosome, dtype=np.uint8), schema, class_index)
    got = refine_rule(rule, DatasetIndex(schema, records), epsilon=epsilon)
    want = reference_refine(rule, records, schema, epsilon)
    fields = ("terms", "support", "confidence", "coverage", "vacuous")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]


@settings(max_examples=300, deadline=None)
@given(
    data=twelve_bit_records(),
    chromosome=CHROMOSOME,
    class_index=st.integers(0, 1),
    epsilon=st.floats(0.0, 2.0),
)
def test_refine_explains_a_record_of_its_class(data, chromosome, class_index, epsilon):
    # covering relies on this: refinement never stops at confidence 0, and the
    # empty rule's confidence is the class's share, so every refined rule
    # explains some record of its class
    schema, records = data
    index = DatasetIndex(schema, records)
    assume((index.target == class_index).any())
    rule = decode_chromosome(np.array(chromosome, dtype=np.uint8), schema, class_index)
    refined = refine_rule(rule, index, epsilon=epsilon)
    assert refined.confidence > 0
    assert (index.antecedent_mask(refined) & index.consequent_mask(refined)).any()


def test_refine_tie_drops_earliest_term(toy_schema):
    # dropping A and dropping B both leave confidence 0.5, equal to the
    # current rule's; the earliest term (A) goes, and the empty rule (3/7)
    # is then rejected
    rows = [
        ("a1", "b1", "t1"), ("a1", "b1", "t2"),
        ("a2", "b1", "t1"), ("a2", "b1", "t2"),
        ("a1", "b2", "t1"), ("a1", "b2", "t2"),
        ("a3", "b2", "t2"),
    ]
    records = [StudentRecord({"A": a, "B": b, "T": t}) for a, b, t in rows]
    rule = Rule(terms=(("A", ("a1",)), ("B", ("b1",))), consequent="t1")
    refined = refine_rule(rule, DatasetIndex(toy_schema, records))
    assert refined.terms == (("B", ("b1",)),)
    assert (refined.support, refined.confidence) == (4, 0.5)
    assert refined == reference_refine(rule, records, toy_schema)


def test_refine_candidates_without_support(toy_schema):
    # no record has A = a3 or B = b2: the rule and both one-term drops match
    # nothing (confidence 0), so every drop is accepted down to the empty rule
    records = [
        StudentRecord({"A": "a1", "B": "b1", "T": "t1"}),
        StudentRecord({"A": "a2", "B": "b1", "T": "t2"}),
    ]
    rule = Rule(terms=(("A", ("a3",)), ("B", ("b2",))), consequent="t1")
    assert evaluate_rule(rule, records, toy_schema).vacuous
    refined = refine_rule(rule, DatasetIndex(toy_schema, records))
    assert refined.terms == ()
    assert (refined.support, refined.confidence, refined.vacuous) == (2, 0.5, False)
    assert refined == reference_refine(rule, records, toy_schema)
    # one drop without support, one with: the supported drop wins
    rule = Rule(terms=(("A", ("a1",)), ("B", ("b2",))), consequent="t1")
    refined = refine_rule(rule, DatasetIndex(toy_schema, records))
    assert refined == reference_refine(rule, records, toy_schema)
    assert refined.terms == (("A", ("a1",)),)


def test_refine_repeated_attribute_drops_together(toy_schema):
    rng = np.random.default_rng(11)
    records = random_records(toy_schema, 60, rng)
    rule = Rule(
        terms=(("A", ("a1", "a2")), ("B", ("b1",)), ("A", ("a2", "a3"))), consequent="t2"
    )
    for epsilon in (0.0, 0.05, 1.0):
        got = refine_rule(rule, DatasetIndex(toy_schema, records), epsilon=epsilon)
        assert got == reference_refine(rule, records, toy_schema, epsilon)


def test_refine_evaluates_the_rule_once(toy_schema, monkeypatch):
    from edm_rulex import rulekit

    calls = []
    original = rulekit.evaluate_rule
    monkeypatch.setattr(
        rulekit, "evaluate_rule", lambda *a, **k: calls.append(a) or original(*a, **k)
    )
    records = random_records(toy_schema, 80, np.random.default_rng(4))
    rule = Rule(terms=(("A", ("a1", "a3")), ("B", ("b2",))), consequent="t1")
    refine_rule(rule, DatasetIndex(toy_schema, records), epsilon=1.0)
    assert len(calls) == 1


def test_refine_empty_dataset(toy_schema):
    with pytest.raises(ValidationError, match="non-empty"):
        refine_rule(Rule(terms=(), consequent="t1"), DatasetIndex(toy_schema, []))


def test_index_codes_and_unknown_token(toy_schema):
    records = [
        StudentRecord({"A": "a3", "B": "b1", "T": "t2"}),
        StudentRecord({"A": "a1", "B": "b2", "T": "t1"}),
    ]
    index = DatasetIndex(toy_schema, records)
    assert index.bits.tolist() == [[0, 0, 1, 1, 0], [1, 0, 0, 0, 1]]
    assert index.target.tolist() == [1, 0]
    records.append(StudentRecord({"A": "a1", "B": "b7", "T": "t1"}))
    with pytest.raises(ValidationError, match="b7"):
        DatasetIndex(toy_schema, records)


def test_index_rejects_record_without_attribute(toy_schema):
    records = [
        StudentRecord({"A": "a1", "B": "b1", "T": "t1"}),
        StudentRecord({"B": "b2", "T": "t2"}),
    ]
    with pytest.raises(ValidationError, match=r"missing=\['A'\]"):
        DatasetIndex(toy_schema, records)


def test_evaluate_rule_needs_schema_for_records(toy_schema):
    records = random_records(toy_schema, 5, np.random.default_rng(0))
    rule = Rule(terms=(("A", ("a1",)),), consequent="t1")
    with pytest.raises(ValidationError, match="schema"):
        evaluate_rule(rule, records)
    assert evaluate_rule(rule, DatasetIndex(toy_schema, records)) == evaluate_rule(
        rule, records, toy_schema
    )


def test_index_on_another_schema_is_rejected(toy_schema):
    # same layout, other names: reading the index's bits under them would
    # give wrong counts, not an error
    renamed = AttributeSchema((Attribute("X", ("a1", "a2", "a3")), *toy_schema.attributes[1:]))
    index = DatasetIndex(toy_schema, random_records(toy_schema, 5, np.random.default_rng(0)))
    rule = Rule(terms=(("X", ("a1",)),), consequent="t1")
    with pytest.raises(ValidationError, match="another schema"):
        evaluate_rule(rule, index, renamed)
    with pytest.raises(ValidationError, match="another schema"):
        RuleSet(rules=(rule,), default="t1").accuracy(index, renamed)


def test_term_misses_columns(toy_schema):
    records = [
        StudentRecord({"A": "a1", "B": "b1", "T": "t1"}),
        StudentRecord({"A": "a2", "B": "b2", "T": "t2"}),
        StudentRecord({"A": "a3", "B": "b1", "T": "t1"}),
    ]
    index = DatasetIndex(toy_schema, records)
    rule = Rule(terms=(("A", ("a1", "a3")), ("B", ("b1",))), consequent="t1")
    misses = index.misses([[t] for t in rule.terms])
    assert misses.dtype == bool
    assert misses.tolist() == [[False, False], [True, True], [False, False]]
    assert index.antecedent_mask(rule).tolist() == [True, False, True]
    assert index.misses([[t] for t in Rule(terms=(), consequent="t1").terms]).shape == (3, 0)
    assert index.antecedent_mask(Rule(terms=(), consequent="t1")).all()


# a term on any predictive attribute of twelve_bit_schema, naming any subset of
# its levels: none, some or all of them
TERM = st.sampled_from(twelve_bit_schema().predictive).flatmap(
    lambda a: st.tuples(st.just(a.name), st.lists(st.sampled_from(a.levels), unique=True).map(tuple))
)
# groups of up to five terms over four attributes, so attributes often repeat
GROUPS = st.lists(st.lists(TERM, max_size=5), max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=twelve_bit_records(), groups=GROUPS)
def test_misses_matches_token_membership(data, groups):
    schema, records = data
    got = DatasetIndex(schema, records).misses(groups)
    want = [
        [any(r.values[name] not in levels for name, levels in group) for group in groups]
        for r in records
    ]
    assert got.dtype == bool and got.shape == (len(records), len(groups))
    assert got.tolist() == want


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.lists(st.integers(0, 1), min_size=12, max_size=12), min_size=1, max_size=30),
    groups=GROUPS,
)
def test_misses_reads_bits_that_are_not_one_hot(rows, groups):
    # a record misses a term when no level bit of the term is set in its row,
    # read bit by bit, whether its segment is one-hot, multi-hot or all zero
    schema = twelve_bit_schema()
    index = DatasetIndex.from_arrays(schema, rows, [0] * len(rows))

    def missed(row, name, levels):
        offset, _ = schema.segments[name]
        return not any(row[offset + schema.attribute(name).level_index(t)] for t in levels)

    want = [[any(missed(row, *term) for term in group) for group in groups] for row in rows]
    assert index.misses(groups).tolist() == want


def test_misses_on_multi_hot_and_all_zero_segments(toy_schema):
    # row 0: A's segment sets a1 and a3; row 1: A's segment is all zero, so it
    # misses even the term naming every level of A
    index = DatasetIndex.from_arrays(toy_schema, [[1, 0, 1, 1, 0], [0, 0, 0, 0, 1]], [0, 1])
    groups = [
        [("A", ("a1",))],
        [("A", ("a2",))],
        [("A", ("a2", "a3"))],
        [("A", ("a1", "a2", "a3"))],
        [("B", ("b2",))],
        [("A", ("a3",)), ("B", ("b1",))],
        [("A", ())],
        [],
    ]
    assert index.misses(groups).tolist() == [
        [False, True, False, False, True, False, True, False],
        [True, True, True, True, False, True, True, False],
    ]


@settings(max_examples=200, deadline=None)
@given(
    data=twelve_bit_records(),
    rules=st.lists(st.tuples(st.lists(TERM, max_size=4), st.integers(0, 1)), max_size=6),
    default=st.integers(0, 1),
)
def test_predict_index_takes_the_first_matching_rule(data, rules, default):
    schema, records = data
    levels = schema.target.levels
    ruleset = RuleSet(
        rules=tuple(Rule(terms=tuple(terms), consequent=levels[k]) for terms, k in rules),
        default=levels[default],
    )
    want = []
    for r in records:
        first = [k for terms, k in rules if all(r.values[name] in ls for name, ls in terms)]
        want.append(first[0] if first else default)
    assert ruleset.predict_index(DatasetIndex(schema, records)).tolist() == want


def test_predict_index_order_decides_overlapping_rules(toy_schema):
    records = [StudentRecord({"A": "a1", "B": "b1", "T": "t1"})]
    index = DatasetIndex(toy_schema, records)
    a1 = Rule(terms=(("A", ("a1",)),), consequent="t1")
    b1 = Rule(terms=(("B", ("b1",)),), consequent="t2")
    assert RuleSet(rules=(a1, b1), default="t1").predict_index(index).tolist() == [0]
    assert RuleSet(rules=(b1, a1), default="t1").predict_index(index).tolist() == [1]


@pytest.mark.parametrize(
    "term, message",
    [
        (("Z", ("z1",)), "schema has no attribute named 'Z'"),
        (("T", ("t1",)), "attribute 'T' is the target and has no bits"),
    ],
)
def test_a_term_off_the_bits_raises_one_error_from_every_matcher(toy_schema, term, message):
    index = DatasetIndex(toy_schema, random_records(toy_schema, 5, np.random.default_rng(0)))
    rule = Rule(terms=(("A", ("a1",)), term), consequent="t1")
    calls = [
        lambda: index.misses([[], [term]]),
        lambda: index.antecedent_mask(rule),
        lambda: RuleSet(rules=(rule,), default="t2").predict_index(index),
        lambda: RuleSet(rules=(rule,), default="t2").accuracy(index, toy_schema),
        lambda: evaluate_rule(rule, index),
        lambda: refine_rule(rule, index),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as raised:
            call()
        assert str(raised.value) == message


@settings(max_examples=200, deadline=None)
@given(
    data=twelve_bit_records(max_size=60),
    rules=st.lists(st.tuples(CHROMOSOME, st.integers(0, 1)), max_size=5),
    default=st.integers(0, 1),
    indexed=st.booleans(),
)
def test_accuracy_matches_predict_loop(data, rules, default, indexed):
    schema, records = data
    levels = schema.target.levels
    ruleset = RuleSet(
        rules=tuple(
            decode_chromosome(np.array(c, dtype=np.uint8), schema, k) for c, k in rules
        ),
        default=levels[default],
    )
    expected = sum(ruleset.predict(r) == r.values["T"] for r in records) / len(records)
    dataset = DatasetIndex(schema, records) if indexed else records
    assert ruleset.accuracy(dataset, schema) == expected


def test_accuracy_rejects_unknown_consequent(toy_schema):
    records = random_records(toy_schema, 5, np.random.default_rng(0))
    ruleset = RuleSet(rules=(Rule(terms=(), consequent="t9"),), default="t1")
    with pytest.raises(ValidationError, match="t9"):
        ruleset.accuracy(records, toy_schema)
    with pytest.raises(ValidationError, match="non-empty"):
        ruleset.accuracy([], toy_schema)


def test_majority_class(toy_schema):
    records = [
        StudentRecord({"A": "a1", "B": "b1", "T": "t2"}),
        StudentRecord({"A": "a1", "B": "b1", "T": "t2"}),
        StudentRecord({"A": "a1", "B": "b1", "T": "t1"}),
    ]
    assert majority_class(DatasetIndex(toy_schema, records)) == "t2"
    # tie resolves to schema level order
    assert majority_class(DatasetIndex(toy_schema, records[1:])) == "t1"


def _planted_cohort(n_per_gender, seed, truth, noise=0.0):
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_per_gender, n_per_gender, seed=seed)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    planted = PlantedRuleSpec(truth=truth, noise=noise)
    records = DatasetIndex(schema, plant_rules(cohort, planted, disc, schema, seed=seed + 1)).records()
    return schema, records


def test_extract_recovers_planted_rule():
    truth = RuleSet(rules=(Rule(terms=(("Unit 1", ("F",)),), consequent="F"),), default="P")
    schema, records = _planted_cohort(300, seed=42, truth=truth)
    encoded = encode_dataset(records, schema)
    tc = TrainConfig(max_epochs=200, seed=0)
    net = train(init_network(schema, tc), encoded, tc).network
    ruleset = extract_ruleset(
        net,
        encoded,
        ga_config=GaConfig(population_size=60, generations=40), seed=5,
        per_class_rule_budget=3,
    )
    index = DatasetIndex(schema, records)
    truth = index.antecedent_mask(Rule(terms=(("Unit 1", ("F",)),), consequent="F"))
    equivalent = [
        r
        for r in ruleset.rules
        if r.consequent == "F" and np.array_equal(index.antecedent_mask(r), truth)
    ]
    assert equivalent, [format_rule(r, schema) for r in ruleset.rules]


# records of toy_schema (A, B, target T), in index order 0-7
COVER_ROWS = ("a1 b1 t1", "a1 b2 t1", "a1 b1 t2", "a2 b1 t1", "a2 b2 t2", "a3 b2 t2", "a3 b1 t2", "a2 b2 t1")


def _cover_index(schema):
    return DatasetIndex(schema, [StudentRecord(dict(zip("ABT", row.split()))) for row in COVER_ROWS])


def _scripted(script):
    """A propose whose rule for class k in round r has the terms
    ``script[r, k]``, measured on k's working set, with the working set's
    size as how it was found; and the list of its calls' rounds, live
    classes and working sets."""
    calls = []

    def propose(round_no, live, working):
        calls.append((round_no, list(live), {k: working[k] for k in live}))
        for k in live:
            rule = Rule(terms=script[round_no, k], consequent=working[k].schema.target.levels[k])
            yield evaluate_rule(rule, working[k]), {"proposed": len(working[k])}

    return propose, calls


A1, A2, A3 = (("A", ("a1",)),), (("A", ("a2",)),), (("A", ("a3",)),)
B1, B2 = (("B", ("b1",)),), (("B", ("b2",)),)
# at threshold 0.5: t1's A = a3 (0 of 2) is rejected in round 0; t2's A = a3
# (2 of 2) and A = a1 and B = b1 (1 of 2) are accepted, and its A = a2 (1 of
# 3) is rejected in round 2
COVER_SCRIPT = {(0, 0): A3, (0, 1): A3, (1, 1): A1 + B1, (2, 1): A2}


def test_cover_stops_a_class_at_its_first_rejected_round(toy_schema):
    propose, calls = _scripted(COVER_SCRIPT)
    audit, rules = cover(_cover_index(toy_schema), range(2), propose, 5, 0.5)
    assert [(r, live) for r, live, _ in calls] == [(0, [0, 1]), (1, [1]), (2, [1])]
    assert [e["accepted"] for e in audit[0]] == [False] and rules[0] == []
    assert [e["accepted"] for e in audit[1]] == [True, True, False]
    assert [rule.terms for rule in rules[1]] == [A3, A1 + B1]


@pytest.mark.parametrize("budget", [0, 1, 2])
def test_cover_runs_at_most_budget_rounds(toy_schema, budget):
    propose, calls = _scripted(COVER_SCRIPT)
    audit, rules = cover(_cover_index(toy_schema), range(2), propose, budget, 0.5)
    assert [(r, live) for r, live, _ in calls] == [(0, [0, 1]), (1, [1])][:budget]
    assert len(audit[1]) == len(rules[1]) == budget
    assert len(audit[0]) == min(budget, 1)


def test_cover_never_proposes_for_a_class_with_no_record_left(toy_schema):
    # t2's empty rule explains every t2 record in round 0, and t1's two
    # rules every t1 record by round 1; no class has a record in round 2
    propose, calls = _scripted({(0, 0): A1, (0, 1): (), (1, 0): A2})
    audit, rules = cover(_cover_index(toy_schema), range(2), propose, 5, 0.5)
    assert [(r, live) for r, live, _ in calls] == [(0, [0, 1]), (1, [0])]
    assert [len(audit[k]) for k in range(2)] == [2, 1] and all(e["accepted"] for e in audit[0] + audit[1])
    # a slice whose index holds no record of a class never proposes for it
    index = _cover_index(toy_schema)
    propose, calls = _scripted({(0, 0): ()})
    cover(index.subset(index.target == 0), range(2), propose, 5, 0.5)
    assert [(r, live) for r, live, _ in calls] == [(0, [0])]


def test_cover_removes_what_an_accepted_rule_explains_from_its_class_alone(toy_schema):
    # t1's A = a1 explains records 0 and 1, not record 2 (a t2 record it
    # matches), then B = b2 explains record 7; t2's A = a3 explains 5 and 6,
    # then A = a2 and B = b2 explains 4
    index = _cover_index(toy_schema)
    propose, calls = _scripted({
        (0, 0): A1, (0, 1): A3, (1, 0): B2, (1, 1): A2 + B2, (2, 0): B1, (2, 1): A1 + B1,
    })
    audit, _ = cover(index, range(2), propose, 3, 0.3)
    assert len(calls) == 3
    left = {0: [0, 1, 2, 3, 4, 5, 6, 7], 1: [0, 1, 2, 3, 4, 5, 6, 7]}
    gone = [{0: [0, 1], 1: [5, 6]}, {0: [7], 1: [4]}]
    for round_no, (_, live, working) in enumerate(calls):
        assert live == [0, 1]
        for k in live:
            rows = left[k]
            assert np.array_equal(working[k].bits, index.bits[rows]), (round_no, k)
            assert np.array_equal(working[k].target, index.target[rows]), (round_no, k)
            assert audit[k][round_no]["proposed"] == len(rows)
            if round_no < 2:
                left[k] = [i for i in rows if i not in gone[round_no][k]]
                assert audit[k][round_no]["outcome"] == f"accepted, removed {len(gone[round_no][k])} records"


def test_cover_measures_accepted_rules_on_the_index_and_audits_the_working_set(toy_schema):
    # t1's B = b2 in round 1 holds 1 of its 3 working records (7 of 4, 5
    # and 7), but 2 of its 4 records of the index (1, 4, 5 and 7)
    propose, _ = _scripted({(0, 0): A1, (1, 0): B2, (2, 0): A3})
    audit, rules = cover(_cover_index(toy_schema), range(1), propose, 3, 0.3)
    assert rules == {0: [
        Rule(terms=A1, consequent="t1", support=3, confidence=2 / 3, coverage=3 / 8),
        Rule(terms=B2, consequent="t1", support=4, confidence=0.5, coverage=0.5),
    ]}
    assert audit[0][1] == {
        "class": "t1", "round": 1, "proposed": 6, "working_confidence": 1 / 3, "working_support": 3,
        "accepted": True, "outcome": "accepted, removed 1 records",
    }
    assert audit[0][2]["working_support"] == 2 and not audit[0][2]["accepted"]


def test_cover_accepts_a_rule_exactly_at_the_threshold(toy_schema):
    # t2's empty rule holds 4 of 8 records: confidence 0.5 exactly
    propose, _ = _scripted({(0, 0): A1, (0, 1): ()})
    audit, rules = cover(_cover_index(toy_schema), range(2), propose, 1, 0.5)
    assert audit[1][0]["working_confidence"] == 0.5 and audit[1][0]["accepted"]
    assert rules[1] == [Rule(terms=(), consequent="t2", support=8, confidence=0.5, coverage=1.0)]


def test_extract_evolves_each_round_in_lockstep(monkeypatch):
    # one evolve call per batch of covering rounds (rounds 0-1, 2-3, then 4),
    # over every round of the batch of each class still covering at its
    # start, with the fitness built through rulekit.class_score once per
    # batch and called once per generation
    from edm_rulex import rulekit, util

    truth = RuleSet(rules=(Rule(terms=(("Unit 1", ("F",)),), consequent="F"),), default="P")
    schema, records = _planted_cohort(150, seed=3, truth=truth)
    tc = TrainConfig(max_epochs=60, seed=2)
    net = train(init_network(schema, tc), encode_dataset(records, schema), tc).network
    batches, scored = [], []
    evolve, class_score = rulekit.evolve, rulekit.class_score

    def counted_evolve(fitness, bit_length, config, seeds):
        batches.append(list(seeds))
        return evolve(fitness, bit_length, config, seeds)

    def counted_score(net, classes):
        score = class_score(net, classes)

        def counted(pop):
            scored.append(list(classes))
            return score(pop)

        return counted

    monkeypatch.setattr(rulekit, "evolve", counted_evolve)
    monkeypatch.setattr(rulekit, "class_score", counted_score)
    monkeypatch.setattr(util, "_usable_cpus", lambda: 1)  # no child process: every call counts here
    ruleset = extract_ruleset(
        net, DatasetIndex(schema, records),
        ga_config=GaConfig(population_size=20, generations=4), seed=20,
        per_class_rule_budget=5,
    )
    tokens = schema.target.levels
    expected = []
    for rounds in (range(0, 2), range(2, 4), range(4, 5)):
        classes = [tokens.index(e["class"]) for e in ruleset.audit if e["round"] == rounds[0]]
        expected.append([(k, r) for k in classes for r in rounds])
    assert all(expected)  # some class is still covering in round 4
    assert batches == [[derive_seed(20, f"class-{k}", r) for k, r in runs] for runs in expected]
    assert scored == [[k for k, _ in runs] for runs in expected for _ in range(5)]


@pytest.fixture(scope="module")
def split_case():
    # four classes, so the first batch has four classes to split
    truth = RuleSet(rules=(
        Rule(terms=(("Unit 1", ("F",)),), consequent="F"),
        Rule(terms=(("Unit 3", ("V.G",)),), consequent="V.G"),
        Rule(terms=(("Unit 5", ("G",)),), consequent="G"),
    ), default="P")
    schema, records = _planted_cohort(150, seed=3, truth=truth)
    tc = TrainConfig(max_epochs=60, seed=2)
    return train(init_network(schema, tc), encode_dataset(records, schema), tc).network, DatasetIndex(schema, records)


@pytest.fixture(scope="module")
def small_case():
    # split_case's truth on 20 records: class P is rejected in round 2, the
    # first round of the second batch of rounds
    truth = RuleSet(rules=(
        Rule(terms=(("Unit 1", ("F",)),), consequent="F"),
        Rule(terms=(("Unit 3", ("V.G",)),), consequent="V.G"),
        Rule(terms=(("Unit 5", ("G",)),), consequent="G"),
    ), default="P")
    schema, records = _planted_cohort(10, seed=3, truth=truth)
    tc = TrainConfig(max_epochs=60, seed=2)
    return train(init_network(schema, tc), encode_dataset(records, schema), tc).network, DatasetIndex(schema, records)


BATCH_STARTS = (0, 2, 4, 8)  # the first rounds of extract_ruleset's batches, up to round 15


@pytest.mark.parametrize("seed", [8, 21])
@pytest.mark.parametrize("case", ["split_case", "small_case"])
def test_extract_equals_the_round_by_round_reference(case, seed, request, monkeypatch):
    # extract_ruleset evolves each class's rounds in batches and drops the
    # runs a class does not use; its rules and audit are those of covering
    # round by round, at any budget and over any number of processes
    from edm_rulex import util

    net, index = request.getfixturevalue(case)
    config = GaConfig(population_size=20, generations=6)
    for budget in (0, 1, 2, 3, 5, 9):
        expected = reference_extract(net, index, config, budget, seed=seed)
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(util, "_usable_cpus", lambda: workers)
            assert extract_ruleset(net, index, ga_config=config, per_class_rule_budget=budget, seed=seed) == expected
    # at budget 9 some class leaves covering inside a batch: in split_case one
    # whose working set empties after a round followed by one of its batch, in
    # small_case one rejected in the first round of a batch after the first
    last = {}
    for entry in expected.audit:
        last[entry["class"]] = entry
    if case == "split_case":
        assert any(e["accepted"] and e["round"] + 1 not in (*BATCH_STARTS, 9) for e in last.values())
    else:
        assert any(not e["accepted"] and e["round"] in BATCH_STARTS[1:] for e in last.values())


@pytest.mark.parametrize("seed", [8, 21])
@pytest.mark.parametrize("budget", [1, 3])
def test_extract_gives_the_same_ruleset_over_any_number_of_processes(split_case, monkeypatch, seed, budget):
    # each round's runs are split over forked children; the joined results
    # are the runs' own, so the ruleset is the one this process gives alone
    from edm_rulex import util

    net, index = split_case
    got = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(util, "_usable_cpus", lambda: workers)
        got.append(extract_ruleset(
            net, index, ga_config=GaConfig(population_size=20, generations=6), seed=seed,
            per_class_rule_budget=budget,
        ))
    assert got[0].rules and len(got[0].audit) >= 4
    assert got[1] == got[0] and got[2] == got[0]  # audit entries, champions included


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("budget", [5, 9])
def test_extract_forks_once_per_call(split_case, monkeypatch, workers, budget):
    # the classes are split once and each process covers its own classes to
    # the end, so split_case's four classes make min(workers, 4) - 1
    # children however many batches of rounds the budget holds
    from edm_rulex import util

    net, index = split_case
    config = GaConfig(population_size=20, generations=6)
    expected = reference_extract(net, index, config, budget, seed=8)
    fork, made = os.fork, []

    def counted_fork():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(util, "_usable_cpus", lambda: workers)
    assert extract_ruleset(net, index, ga_config=config, per_class_rule_budget=budget, seed=8) == expected
    assert len(made) == min(workers, 4) - 1


@pytest.mark.parametrize("workers", [1, 3])
def test_extract_logs_each_class_in_class_and_round_order(split_case, monkeypatch, caplog, workers):
    # this process logs from the entries the slices return: class by class in
    # level order, each round's outcome in round order (a rejected round too)
    # after its champion_ties warning, then the class's GA runs evolved and
    # used, where used is its audit entries and evolved counts dropped runs
    from edm_rulex import util

    net, index = split_case
    monkeypatch.setattr(util, "_usable_cpus", lambda: workers)
    with caplog.at_level(logging.INFO, logger="edm_rulex.rulekit"):
        ruleset = extract_ruleset(
            net, index, ga_config=GaConfig(population_size=20, generations=6), seed=8, per_class_rule_budget=9,
        )
    messages = [r.getMessage() for r in caplog.records if r.name == "edm_rulex.rulekit"]
    patterns, counts = [], []
    for token in index.schema.target.levels:
        entries = [e for e in ruleset.audit if e["class"] == token]
        for e in entries:
            if e["champion_ties"] > 1:
                patterns.append(re.escape(
                    f"class {token} round {e['round']}: {e['champion_ties']} distinct chromosomes of the last "
                    f"population tie with the champion's fitness {e['best_fitness']!r}; the GA chose among them"
                ))
            patterns.append(re.escape(
                f"class {token} round {e['round']}: {e['outcome']} (confidence {e['working_confidence']:.3f})"
            ))
        patterns.append(rf"class {re.escape(token)}: (\d+) GA runs evolved, (\d+) used")
        counts.append(len(entries))
    assert len(messages) == len(patterns)
    evolved = []
    for message, pattern in zip(messages, patterns):
        found = re.fullmatch(pattern, message)
        assert found, (message, pattern)
        if found.groups():
            evolved.append(tuple(map(int, found.groups())))
    assert [used for _, used in evolved] == counts
    assert all(n >= m for n, m in evolved) and any(n > m for n, m in evolved)
    assert any("rejected" in m for m in messages)


@pytest.mark.parametrize("workers, forks", [(2, 0), (3, 0), (4, 1), (4, 2)])
def test_extract_evolves_the_slices_it_cannot_fork_itself(split_case, monkeypatch, workers, forks):
    # once os.fork fails (no process id or memory to spare), this process
    # evolves that slice and every later one; the ruleset is the same
    from edm_rulex import util

    net, index = split_case
    config = GaConfig(population_size=20, generations=6)
    monkeypatch.setattr(util, "_usable_cpus", lambda: 1)
    alone = extract_ruleset(net, index, ga_config=config, per_class_rule_budget=3, seed=8)
    fork, made = os.fork, []

    def fork_while_ids_last():
        if len(made) == forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", fork_while_ids_last)
    monkeypatch.setattr(util, "_usable_cpus", lambda: workers)
    assert extract_ruleset(net, index, ga_config=config, per_class_rule_budget=3, seed=8) == alone
    assert len(made) == forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _TwoPartError(Exception):
    """An exception that pickles but does not unpickle: its one argument is
    the joined message, and rebuilding it needs two."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


def _child_fails_numerically(stage):
    if stage == "fitness":
        raise NumericError(f"fitness of class 1 overflowed in process {os.getpid()}")


def _child_fails_unpicklably(stage):
    if stage == "fitness":
        raise _TwoPartError("fitness of class 1 overflowed", f"process {os.getpid()}")


def _child_fails_to_refine(stage):
    if stage == "refine":
        raise ValidationError(f"refining class 1 failed in process {os.getpid()}")


@pytest.mark.parametrize(
    "fail, raised, message",
    [
        (_child_fails_numerically, NumericError, r"fitness of class 1 overflowed in process (\d+)"),
        (_child_fails_unpicklably, RuntimeError, r"_TwoPartError: fitness of class 1 overflowed in process (\d+)"),
        (lambda stage: stage == "fitness" and os._exit(1), ChildProcessError,
         r"a GA worker process ended without sending its results()"),
        # a child also decodes and refines its runs' champions
        (_child_fails_to_refine, ValidationError, r"refining class 1 failed in process (\d+)"),
    ],
)
def test_extract_raises_a_childs_error_and_leaves_no_process(split_case, monkeypatch, fail, raised, message):
    # of the first batch's four classes, class 1 (P) is the first child's;
    # ``fail`` is called with "fitness" as the run is scored and with
    # "refine" as its champion is refined; the parent raises the child's
    # error with its type and message, or names the child's death, and
    # leaves no child to reap
    from edm_rulex import rulekit, util

    net, index = split_case
    class_score, refine_rule = rulekit.class_score, rulekit.refine_rule

    def failing_score(net, classes):
        score = class_score(net, classes)

        def failing(pop):
            if 1 in classes:
                fail("fitness")
            return score(pop)

        return failing

    def failing_refine(rule, *args, **kwargs):
        if rule.consequent == index.schema.target.levels[1]:
            fail("refine")
        return refine_rule(rule, *args, **kwargs)

    monkeypatch.setattr(rulekit, "class_score", failing_score)
    monkeypatch.setattr(rulekit, "refine_rule", failing_refine)
    monkeypatch.setattr(util, "_usable_cpus", lambda: 4)
    with pytest.raises(raised) as caught:
        extract_ruleset(net, index, ga_config=GaConfig(population_size=20, generations=3), seed=8)
    assert type(caught.value) is raised
    found = re.fullmatch(message, str(caught.value))
    assert found and found.group(1) != str(os.getpid())  # raised in a child
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_extract_kills_its_children_when_its_own_slice_fails(split_case, monkeypatch):
    # the children's fitness takes a minute, so the parent's error ends the
    # call within seconds only when the parent kills them before it reaps them
    from edm_rulex import rulekit, util

    net, index = split_case
    parent, class_score = os.getpid(), rulekit.class_score

    def slow_score(net, classes):
        score = class_score(net, classes)

        def slow(pop):
            if os.getpid() == parent:
                raise ValidationError("the parent's slice fails")
            time.sleep(60)
            return score(pop)

        return slow

    monkeypatch.setattr(rulekit, "class_score", slow_score)
    monkeypatch.setattr(util, "_usable_cpus", lambda: 3)
    start = time.monotonic()
    with pytest.raises(ValidationError, match="the parent's slice fails"):
        extract_ruleset(net, index, ga_config=GaConfig(population_size=20, generations=3), seed=8)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_extract_single_class_dataset():
    truth = RuleSet(rules=(), default="G")
    schema, records = _planted_cohort(40, seed=9, truth=truth)
    net_cfg = TrainConfig(max_epochs=50, seed=1)
    encoded = encode_dataset(records, schema)
    net = train(init_network(schema, net_cfg), encoded, net_cfg).network
    ruleset = extract_ruleset(
        net,
        encoded,
        ga_config=GaConfig(population_size=30, generations=15), seed=2,
        per_class_rule_budget=2,
    )
    assert ruleset.default == "G"
    assert all(r.consequent == "G" for r in ruleset.rules)
    assert len(ruleset.rules) <= 1
    if ruleset.rules:
        assert ruleset.rules[0].terms == ()  # empty antecedent catches everything


def test_extract_metrics_match_recount():
    truth = RuleSet(rules=(Rule(terms=(("Unit 1", ("F",)),), consequent="F"),), default="P")
    schema, records = _planted_cohort(150, seed=3, truth=truth)
    encoded = encode_dataset(records, schema)
    tc = TrainConfig(max_epochs=120, seed=2)
    net = train(init_network(schema, tc), encoded, tc).network
    ruleset = extract_ruleset(
        net,
        encoded,
        ga_config=GaConfig(population_size=40, generations=25), seed=8,
        per_class_rule_budget=2,
    )
    assert ruleset.rules
    for rule in ruleset.rules:
        # independent recount by raw set membership over the full dataset
        matches = [r for r in records if all(r.values[a] in ls for a, ls in rule.terms)]
        hits = [r for r in matches if r.values["Reasoning"] == rule.consequent]
        assert rule.support == len(matches)
        assert rule.confidence == pytest.approx(len(hits) / len(matches))
        assert rule.coverage == pytest.approx(len(matches) / len(records))


def test_ruleset_text_round_trip():
    truth = RuleSet(
        rules=(
            Rule(terms=(("Unit 1", ("F", "P")),), consequent="F"),
            Rule(terms=(("Unit 2", ("G",)),), consequent="G"),
        ),
        default="P",
    )
    schema, records = _planted_cohort(60, seed=4, truth=truth)
    tc = TrainConfig(max_epochs=40, seed=1)
    net = train(init_network(schema, tc), encode_dataset(records, schema), tc).network
    ruleset = extract_ruleset(
        net, DatasetIndex(schema, records),
        ga_config=GaConfig(population_size=30, generations=15), seed=3
    )
    assert ruleset.rules
    back = parse_ruleset(format_ruleset(ruleset, schema), schema)
    # a rule is its terms, its consequent and its metrics, which the text does not hold
    assert back.rules == tuple(replace(r, support=None, confidence=None, coverage=None) for r in ruleset.rules)
    assert back.default == ruleset.default
    assert ruleset_from_dict(json.loads(json.dumps(ruleset_to_dict(ruleset)))) == ruleset


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "last line"),
        ("If Unit 1 = F → Then Reasoning = F\n", "last line"),
        ("Default Reasoning = X\n", "last line"),
        ("If Unit 9 = F → Then Reasoning = F\nDefault Reasoning = P\n", "Unit 9"),
    ],
)
def test_parse_ruleset_rejects_bad_text(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_ruleset(text, studydata.default_student_schema())


def test_extract_empty_dataset(toy_schema):
    net = init_network(toy_schema, TrainConfig(seed=0))
    with pytest.raises(ValidationError, match="empty"):
        extract_ruleset(net, DatasetIndex(toy_schema, []))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(per_class_rule_budget=-1), "budget"),
        (dict(confidence_threshold=1.5), "confidence"),
        (dict(confidence_threshold=-0.1), "confidence"),
        (dict(epsilon=-1.0), "epsilon"),
    ],
)
def test_extract_rejects_bad_options(toy_schema, kwargs, field):
    net = init_network(toy_schema, TrainConfig(seed=0))
    records = random_records(toy_schema, 10, np.random.default_rng(0))
    with pytest.raises(ValidationError, match=field):
        extract_ruleset(net, DatasetIndex(toy_schema, records), **kwargs)


def test_format_rule_reference_grammar():
    schema = studydata.default_student_schema()
    rule1 = Rule(terms=(("Unit 1", ("F",)),), consequent="F")
    assert format_rule(rule1, schema) == "If Unit 1 = F → Then Reasoning = F"
    rule10 = Rule(terms=(("Ambition", ("L",)), ("Gender", ("Fe",))), consequent="P")
    assert format_rule(rule10, schema) == "If Gender = Fe and Ambition = L → Then Reasoning = P"
    empty = Rule(terms=(), consequent="P")
    assert format_rule(empty, schema) == "If true → Then Reasoning = P"
    disjunction = Rule(terms=(("Unit 1", ("P", "F")),), consequent="F")
    assert format_rule(disjunction, schema) == "If (Unit 1 = F or Unit 1 = P) → Then Reasoning = F"


def test_format_rule_groups_multi_level_terms():
    schema = studydata.default_student_schema()
    rule = Rule(terms=(("Unit 3", ("F",)), ("Unit 1", ("P", "F"))), consequent="F")
    text = "If (Unit 1 = F or Unit 1 = P) and Unit 3 = F → Then Reasoning = F"
    assert format_rule(rule, schema) == text
    assert parse_rule(text, schema) == Rule(
        terms=(("Unit 1", ("F", "P")), ("Unit 3", ("F",))), consequent="F"
    )


@pytest.mark.parametrize(
    "terms, consequent, message",
    [
        # each of these printed a line that parse_rule rejects or reads as another rule
        ((("Unit 1", ("F", "X")),), "F", "unknown token 'X' for attribute 'Unit 1'"),
        ((("Unit 1", ("F",)), ("Unit 2", ("X",))), "F", "unknown token 'X' for attribute 'Unit 2'"),
        ((("Unit 1", ("F",)), ("Unit 2", ())), "F", "rule term on 'Unit 2' names no levels"),
        ((("Reasoning", ("F",)),), "G", "attribute 'Reasoning' is the target"),
        ((("Unit 1", ("F",)),), "Q", "unknown token 'Q' for attribute 'Reasoning'"),
        # a bare KeyError
        ((("Shoe size", ("F",)),), "F", "schema has no attribute named 'Shoe size'"),
    ],
)
def test_format_rule_refuses_a_rule_it_cannot_write_back(terms, consequent, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        format_rule(Rule(terms=terms, consequent=consequent), studydata.default_student_schema())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_decoded_rule_reads_back_from_its_text(data):
    schema = studydata.default_student_schema()
    chromosome = data.draw(st.lists(st.integers(0, 1), min_size=schema.total_predictive_bits,
                                    max_size=schema.total_predictive_bits))
    rule = decode_chromosome(np.array(chromosome), schema, data.draw(st.integers(0, schema.target_bits - 1)))
    assert parse_rule(format_rule(rule, schema), schema) == rule


@st.composite
def study_rules(draw):
    schema = studydata.default_student_schema()
    attrs = draw(st.permutations(schema.predictive))
    terms = []
    for attr in attrs[: draw(st.integers(0, len(attrs)))]:
        keep = draw(st.lists(st.booleans(), min_size=len(attr.levels), max_size=len(attr.levels)))
        levels = tuple(t for t, k in zip(attr.levels, keep) if k)
        if levels:
            terms.append((attr.name, levels))
    return Rule(terms=tuple(terms), consequent=draw(st.sampled_from(schema.target.levels)))


@settings(max_examples=300, deadline=None)
@given(rule=study_rules())
def test_parse_rule_round_trip(rule):
    # attribute names such as "Summing and taking notes" contain " and "
    schema = studydata.default_student_schema()
    parsed = parse_rule(format_rule(rule, schema), schema)
    assert parsed.consequent == rule.consequent
    assert sorted(parsed.terms) == sorted(rule.terms)


@pytest.mark.parametrize(
    "text, message",
    [
        ("Unit 1 = F → Then Reasoning = F", "If"),
        ("If Unit 1 = F", "Then"),
        ("If Unit 1 = F → Then Reasoning = X", "consequent"),
        ("If Unit 1 = F → Then Unit 2 = F", "consequent"),
        ("If Unit 1 = F or Unit 1 = P → Then Reasoning = F", "attribute"),
        ("If (Unit 1 = F or Unit 2 = P) → Then Reasoning = F", "one attribute"),
        ("If (Unit 1 = F or Unit 1 = P → Then Reasoning = F", "unclosed"),
        ("If Unit 9 = F → Then Reasoning = F", "attribute"),
        ("If Unit 1 = X → Then Reasoning = F", "attribute"),
        ("If (Unit 1 = F) Unit 2 = F → Then Reasoning = F", "and"),
    ],
)
def test_parse_rule_rejects_text_outside_grammar(text, message):
    with pytest.raises(ValidationError, match=message):
        parse_rule(text, studydata.default_student_schema())


def test_ruleset_first_match_and_default(toy_schema):
    ruleset = RuleSet(
        rules=(
            Rule(terms=(("A", ("a1",)),), consequent="t1"),
            Rule(terms=(("A", ("a1", "a2")),), consequent="t2"),
        ),
        default="t2",
    )
    assert ruleset.predict(StudentRecord({"A": "a1", "B": "b1", "T": "t1"})) == "t1"
    assert ruleset.predict(StudentRecord({"A": "a2", "B": "b1", "T": "t1"})) == "t2"
    assert ruleset.predict(StudentRecord({"A": "a3", "B": "b1", "T": "t1"})) == "t2"


def test_ruleset_json_round_trip(toy_schema):
    ruleset = RuleSet(
        rules=(
            Rule(
                terms=(("A", ("a1", "a3")),),
                consequent="t1",
                support=10,
                confidence=0.9,
                coverage=0.2,
            ),
        ),
        default="t2",
        audit=({"class": "t1", "round": 0, "accepted": True, "chromosome": [1, 0, 1, 0, 0],
                "best_fitness": 0.88, "champion_ties": 1},),
    )
    doc = ruleset_to_dict(ruleset)
    back = ruleset_from_dict(doc)
    assert back == ruleset
    assert format_rule(back.rules[0], toy_schema) == "If (A = a1 or A = a3) → Then T = t1"


def test_ruleset_fidelity_to_network():
    # extracted rules track the network's training accuracy at a moderate
    # fit; a net driven to the mse floor memorizes 97 records far beyond
    # what any comprehensible ruleset expresses
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(seed=7)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    from edm_rulex.synthgen import discretize_cohort

    records = DatasetIndex(schema, discretize_cohort(cohort, disc, schema)).records()
    encoded = encode_dataset(records, schema)
    tc = TrainConfig(max_epochs=3, seed=0)
    net = train(init_network(schema, tc), encoded, tc).network
    net_hits = sum(
        int(np.argmax(forward(net, bits))) == target_index
        for bits, target_index in zip(encoded.bits, encoded.target)
    )
    net_accuracy = net_hits / len(encoded)
    ruleset = extract_ruleset(
        net,
        encoded,
        ga_config=GaConfig(population_size=100, generations=60), seed=1,
        per_class_rule_budget=12,
    )
    assert ruleset.accuracy(records, schema) >= net_accuracy - 0.15
