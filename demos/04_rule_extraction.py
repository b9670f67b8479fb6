"""End-to-end rule extraction: evolve chromosomes, decode, refine, cover.

A planted two-rule labeling gives a known ground truth.  For each class the
genetic algorithm finds a chromosome maximizing that class's network output;
decoding reads set bits as included levels; greedy refinement cancels the
redundant attributes; sequential covering removes explained records and
repeats.
"""

from edm_rulex import (
    DatasetIndex,
    GaConfig,
    PlantedRuleSpec,
    Rule,
    RuleSet,
    TrainConfig,
    default_population_spec,
    decode_chromosome,
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
truth = RuleSet(
    rules=(
        Rule(terms=(("Unit 1", ("F",)),), consequent="F"),
        Rule(terms=(("Unit 2", ("F",)),), consequent="F"),
    ),
    default="P",
)
encoded = DatasetIndex(schema, plant_rules(cohort, PlantedRuleSpec(truth=truth), disc, schema, seed=1))
print("planted ground truth:")
for rule in truth.rules:
    print(f"  {format_rule(rule, schema)}")
print(f"  default class: {truth.default}")
print()

tc = TrainConfig(max_epochs=200, target_mse=1e-5, seed=0)
net = train(init_network(schema, tc), encoded, tc).network

ruleset = extract_ruleset(
    net,
    encoded,  # the same bit matrix the network was trained on; rules decode under its schema
    ga_config=GaConfig(population_size=100, generations=60),
    per_class_rule_budget=4,
    seed=2,
)

print("extracted rules (confidence / support):")
for rule in ruleset.rules:
    print(f"  [{rule.confidence:.2f} / {rule.support:4d}] {format_rule(rule, schema)}")
print(f"  default class: {ruleset.default}")
print(f"  training accuracy: {ruleset.accuracy(encoded, schema):.3f}")
print()

print("extraction audit (each round's GA champion, decoded):")
for entry in ruleset.audit:
    k = schema.target.levels.index(entry["class"])
    champion = decode_chromosome(entry["chromosome"], schema, k)
    print(f"  class {entry['class']} round {entry['round']}: {entry['outcome']}; "
          f"champion of {len(champion.terms)} terms at fitness {entry['best_fitness']:.4f}")
