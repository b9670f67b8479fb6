"""End-to-end rule extraction: evolve chromosomes, decode, refine, cover.

A planted two-rule labeling gives a known ground truth.  For each class the
genetic algorithm finds a chromosome maximizing that class's network output;
decoding reads set bits as included levels; greedy refinement cancels the
redundant attributes; sequential covering removes explained records and
repeats.
"""

from edm_rulex import (
    GaConfig,
    PlantedRuleSpec,
    TrainConfig,
    default_population_spec,
    default_student_schema,
    extract_ruleset,
    format_rule,
    init_network,
    plant_rules,
    sample_population,
    train,
)
from edm_rulex import studydata
from edm_rulex.synthgen import default_discretization

schema = default_student_schema()
spec = default_population_spec(n_male=500, n_female=500, seed=6)
cohort = sample_population(spec)
disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
planted = PlantedRuleSpec(
    pairs=(
        ((("Unit 1", ("F",)),), "F"),
        ((("Unit 2", ("F",)),), "F"),
        ((), "P"),
    ),
    noise=0.0,
)
encoded = plant_rules(cohort, planted, disc, schema, seed=1)  # a DatasetIndex
print("planted ground truth:")
print("  Unit 1 = F            -> Reasoning = F")
print("  Unit 2 = F            -> Reasoning = F")
print("  otherwise             -> Reasoning = P")
print()

tc = TrainConfig(max_epochs=200, target_mse=1e-5, seed=0)
net = train(init_network(schema, tc), encoded, tc).network

ruleset = extract_ruleset(
    net,
    encoded,  # the same bit matrix the network was trained on; rules decode under its schema
    ga_config=GaConfig(population_size=100, generations=60, seed=2),
    per_class_rule_budget=4,
)

print("extracted rules (confidence / support):")
for rule in ruleset.rules:
    print(f"  [{rule.confidence:.2f} / {rule.support:4d}] {format_rule(rule, schema)}")
print(f"  default class: {ruleset.default}")
print(f"  training accuracy: {ruleset.accuracy(encoded, schema):.3f}")
print()

print("extraction audit:")
for entry in ruleset.audit:
    print(f"  class {entry['class']} round {entry['round']}: {entry['outcome']}")
