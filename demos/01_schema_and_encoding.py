"""Walk through the attribute schema, discretization, and bit encoding.

Every categorical attribute occupies a contiguous bit segment, one bit per
level.  A student record becomes a fixed-length bit string with exactly one
set bit per segment, which is also the chromosome layout the genetic search
uses later.
"""

import numpy as np

from edm_rulex import default_student_schema
from edm_rulex.schema import DatasetIndex, StudentRecord, discretize_column

schema = default_student_schema()

print("== the bundled student schema ==")
print(f"{len(schema.predictive)} predictive attributes, "
      f"{schema.total_predictive_bits} predictive bits, "
      f"target {schema.target.name!r} with levels {schema.target.levels}")
print()
for attr in schema.attributes[:6]:
    offset, width = (schema.segments.get(attr.name) or (None, None)) if attr.role == "predictive" else (None, None)
    print(f"  {attr.name:35s} levels={attr.levels} segment_offset={offset}")
print("  ...")
print()

print("== discretizing raw scores ==")
unit = schema.attribute("Unit 1")
scores = np.array([43.0, 60.0, 72.0, 80.0, 95.0])
for score, code in zip(scores, discretize_column(scores, (50.0, 65.0, 80.0), unit)):
    print(f"  unit score {score:5.1f} -> {unit.levels[code]}")
print("  (a boundary score such as 80 joins the upper band)")
print()

print("== encoding one record ==")
values = {a.name: a.levels[0] for a in schema.attributes}
values.update({"Gender": "Fe", "Ambition": "H", "Unit 1": "G", "Reasoning": "P"})
record = StudentRecord(values)
index = DatasetIndex(schema, [record])  # a dataset of one record
bits, target = index.bits[0], int(index.target[0])
print(f"  bits ({bits.size} total): {''.join(map(str, bits[:24]))}...")
print(f"  target index: {target} ({schema.target.levels[target]})")

gender_offset, gender_width = schema.segments["Gender"]
print(f"  Gender segment bits: {bits[gender_offset:gender_offset + gender_width]}")

back = index.records()[0]
print(f"  the index row reads back as the record: {back == record}")
print()

print("== round trip over random records ==")
rng = np.random.default_rng(0)
records = [
    StudentRecord({a.name: a.levels[rng.integers(len(a.levels))] for a in schema.attributes})
    for _ in range(500)
]
ok = sum(back == rec for back, rec in zip(DatasetIndex(schema, records).records(), records))
print(f"  {ok}/500 records read back unchanged from their index rows")
