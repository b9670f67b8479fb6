"""Train the network on an encoded cohort and inspect class scores.

The cohort is labeled by a planted rule (Unit 1 = F forces a failing
reasoning grade) so we know what the network should learn.  The per-class
output activation is the fitness surface the genetic search will climb.
"""

import numpy as np

from edm_rulex import (
    PlantedRuleSpec,
    StudentRecord,
    TrainConfig,
    class_score,
    default_population_spec,
    default_student_schema,
    init_network,
    plant_rules,
    sample_population,
    train,
)
from edm_rulex import studydata
from edm_rulex.schema import encode_record
from edm_rulex.synthgen import default_discretization

schema = default_student_schema()
spec = default_population_spec(n_male=400, n_female=400, seed=3)
cohort = sample_population(spec)
disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
planted = PlantedRuleSpec(
    pairs=(((("Unit 1", ("F",)),), "F"), ((), "P")),
    noise=0.0,
)
encoded = plant_rules(cohort, planted, disc, schema, seed=4)  # a DatasetIndex

config = TrainConfig(max_epochs=300, target_mse=0.005, seed=0)
net = init_network(schema, config)
print(f"network: {net.input_size}-{net.hidden_size}-{net.output_size}")

result = train(net, encoded, config)
history = result.mse_history
shown = " -> ".join(f"{m:.4f}" for m in history[:5])
print(f"mse per epoch: {shown}{' -> ...' if len(history) > 5 else ''}")
print(f"stopped after {result.epochs_run} epochs at mse {result.final_mse:.5f}")
print()

print("== class scores react to the planted antecedent ==")
f_index = schema.target.levels.index("F")
base = {a.name: a.levels[1 if len(a.levels) > 2 else 0] for a in schema.predictive}
for unit1 in ("F", "P", "G", "V.G"):
    probe = dict(base, **{"Unit 1": unit1, "Reasoning": "P"})
    bits = encode_record(StudentRecord(probe), schema).bits
    print(f"  Unit 1 = {unit1:3s} -> score toward Reasoning=F: "
          f"{class_score(result.network, bits, f_index):.3f}")

# one population call per class scores every encoded record at once
scores = np.stack(
    [class_score(result.network, encoded.bits, k) for k in range(schema.target_bits)], axis=1
)
accuracy = np.mean(np.argmax(scores, axis=1) == encoded.target)
print(f"\ntraining accuracy: {accuracy:.3f}")
