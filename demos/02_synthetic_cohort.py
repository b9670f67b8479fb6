"""Generate a synthetic cohort and check it reproduces its targets.

The default population spec carries per-gender means, spreads, and a
one-factor correlation structure that plants every published
dimension-reasoning correlation exactly.  Sampling is deterministic for a
fixed seed.
"""

import numpy as np

from edm_rulex import default_population_spec, default_student_schema, sample_population
from edm_rulex import studydata
from edm_rulex.synthgen import default_discretization, discretize_cohort

schema = default_student_schema()

print("== small cohort at the study's size (49 + 48) ==")
spec = default_population_spec(seed=7)
cohort = sample_population(spec)
for token, rows in cohort.groups.items():
    print(f"  group {token}: {rows.shape[0]} rows x {rows.shape[1]} raw dimensions")

disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
index = discretize_cohort(cohort, disc, schema)  # the encoded cohort: bits and class indices
counts = np.bincount(index.target, minlength=schema.target_bits).tolist()
print(f"  reasoning level counts: { dict(zip(schema.target.levels, counts)) }")
print()

print("== a large cohort recovers the generation targets ==")
big = default_population_spec(n_male=10000, n_female=10000, seed=1)
big_cohort = sample_population(big)
dim = big.dimensions.index("Management of study time")
for token, g in big.groups.items():
    rows = big_cohort.groups[token]
    target_mean = g.means[dim]
    print(f"  {token} 'Management of study time': sample mean {rows[:, dim].mean():7.3f} "
          f"vs target {target_mean:7.3f}")

reasoning_col = big.dimensions.index("Reasoning")
print()
print("  planted correlations with Reasoning (female group):")
rows = big_cohort.groups["Fe"]
g = big.groups["Fe"]
for name in ("Self-reliance", "Challenge", "Management of dispersants", "Unit 1"):
    j = big.dimensions.index(name)
    sample_r = np.corrcoef(rows[:, j], rows[:, reasoning_col])[0, 1]
    spec_r = g.correlation[j][reasoning_col]
    print(f"    {name:28s} sample r = {sample_r:+.3f}   target = {spec_r:+.3f}")
