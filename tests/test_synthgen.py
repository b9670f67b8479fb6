import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edm_rulex import studydata
from edm_rulex.errors import NumericError, ValidationError
from edm_rulex.rulekit import Rule, RuleSet
from edm_rulex.schema import ROLE_TARGET, Attribute, AttributeSchema, DatasetIndex, read_index_csv, write_index_csv
from edm_rulex.synthgen import (
    GroupSpec,
    PlantedRuleSpec,
    PopulationSpec,
    RawCohort,
    cholesky_factor,
    default_discretization,
    discretize_cohort,
    nearest_pd_correlation,
    parse_raw_csv,
    plant_rules,
    sample_population,
    target_checks,
    tertile_cuts,
    write_raw_csv,
)

from helpers import written


def _spec(dims, n, means, sds, corr, seed=0, token="g"):
    return PopulationSpec(
        dimensions=tuple(dims),
        groups={token: GroupSpec(n, tuple(means), tuple(sds), tuple(map(tuple, corr)))},
        seed=seed,
    )


def test_cholesky_identity():
    lower = cholesky_factor(np.eye(3))
    assert np.allclose(lower, np.eye(3))


def test_cholesky_closed_form():
    lower = cholesky_factor(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert np.allclose(lower, [[1.0, 0.0], [0.5, np.sqrt(0.75)]])
    assert abs(lower[1, 1] - 0.8660) < 1e-4


def test_cholesky_reconstruction():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(10, 10))
    spd = m.T @ m + np.eye(10)
    lower = cholesky_factor(spd)
    assert np.abs(lower @ lower.T - spd).max() < 1e-10
    assert np.allclose(np.triu(lower, 1), 0)


def test_cholesky_not_pd_names_minor():
    bad = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    with pytest.raises(NumericError, match="order 3"):
        cholesky_factor(bad)
    with pytest.raises(ValidationError, match="symmetric"):
        cholesky_factor(np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_nearest_pd_repair():
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    fixed = nearest_pd_correlation(bad)
    assert np.linalg.eigvalsh(fixed).min() > 0
    assert np.allclose(np.diag(fixed), 1.0)
    cholesky_factor(fixed)  # must not raise


def test_sample_population_means():
    spec = _spec(["x", "y"], 10000, [0.0, 5.0], [1.0, 2.0], np.eye(2), seed=5)
    cohort = sample_population(spec)
    rows = cohort.groups["g"]
    for j, (mean, sd) in enumerate([(0.0, 1.0), (5.0, 2.0)]):
        assert abs(rows[:, j].mean() - mean) < 3 * sd / np.sqrt(10000)


def test_sample_population_zero_sd():
    spec = _spec(["x", "y"], 20, [1.5, -2.0], [0.0, 0.0], np.eye(2), seed=1)
    rows = sample_population(spec).groups["g"]
    assert np.allclose(rows, [1.5, -2.0])


def test_female_study_time_grand_mean():
    # target mean recovered across 200 reseeded cohorts of n=48
    target = studydata.SCALE_MOMENTS["Management of study time"][studydata.FEMALE][0]
    dim = studydata.RAW_DIMENSIONS.index("Management of study time")
    total, count = 0.0, 0
    for seed in range(200):
        spec = studydata.default_population_spec(n_male=2, n_female=48, seed=seed)
        rows = sample_population(spec).groups[studydata.FEMALE]
        total += rows[:, dim].sum()
        count += rows.shape[0]
    assert abs(total / count - target) < 0.1
    assert target == 17.333


def test_identity_correlation_stays_flat():
    spec = _spec(["a", "b", "c"], 10000, [0, 0, 0], [1, 1, 1], np.eye(3), seed=9)
    rows = sample_population(spec).groups["g"]
    corr = np.corrcoef(rows, rowvar=False)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.abs(off).max() < 0.05


def test_planted_correlation_recovered():
    corr = [[1.0, 0.7], [0.7, 1.0]]
    spec = _spec(["a", "b"], 10000, [0, 0], [1, 3], corr, seed=13)
    rows = sample_population(spec).groups["g"]
    r = np.corrcoef(rows, rowvar=False)[0, 1]
    assert abs(r - 0.7) < 0.05


def test_generation_deterministic():
    schema = studydata.default_student_schema()
    outputs = []
    for _ in range(2):
        spec = studydata.default_population_spec(seed=21)
        cohort = sample_population(spec)
        disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
        codes = discretize_cohort(cohort, disc, schema)
        outputs.append(written(write_index_csv, schema, codes) + written(write_raw_csv, cohort))
    assert outputs[0] == outputs[1]


def test_population_spec_round_trip_preserves_group_order():
    spec = studydata.default_population_spec(seed=3)
    doc = json.loads(json.dumps(spec.to_dict(), sort_keys=True))  # key order destroyed
    back = PopulationSpec.from_dict(doc)
    assert list(back.groups) == list(spec.groups) == ["Ma", "Fe"]
    assert back == spec


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(sds=(-1.0, 1.0)),
        dict(corr=[[1.0, 0.5], [0.4, 1.0]]),
        dict(corr=[[1.0, 1.5], [1.5, 1.0]]),
        dict(corr=[[0.9, 0.0], [0.0, 1.0]]),
    ],
)
def test_population_spec_validation(kwargs):
    base = dict(n=10, means=(0.0, 0.0), sds=(1.0, 1.0), corr=np.eye(2))
    base.update(kwargs)
    with pytest.raises(ValidationError):
        _spec(["x", "y"], base["n"], base["means"], base["sds"], base["corr"])


def _unit1_planted(noise=0.0):
    truth = RuleSet(rules=(Rule(terms=(("Unit 1", ("F",)),), consequent="F"),), default="P")
    return PlantedRuleSpec(truth=truth, noise=noise)


def test_plant_rules_noiseless():
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=300, n_female=300, seed=2)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    records = DatasetIndex(schema, plant_rules(cohort, _unit1_planted(), disc, schema, seed=0)).records()
    assert len(records) == 600
    for r in records:
        expected = "F" if r.values["Unit 1"] == "F" else "P"
        assert r.values["Reasoning"] == expected


def test_plant_rules_noise_fraction():
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=5000, n_female=5000, seed=2)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    target = schema.attributes.index(schema.target)
    clean = plant_rules(cohort, _unit1_planted(0.0), disc, schema, seed=0)
    noisy = plant_rules(cohort, _unit1_planted(0.1), disc, schema, seed=123)
    assert np.array_equal(np.delete(clean, target, axis=1), np.delete(noisy, target, axis=1))
    flipped = int((clean[:, target] != noisy[:, target]).sum())
    assert 0.08 <= flipped / len(clean) <= 0.12


@pytest.mark.parametrize("noise", [None, 0.0, 0.3])
def test_cohort_index_keeps_the_codes_of_its_bits_and_labels(noise):
    # the level codes a cohort builder returns, which write_cohort writes,
    # are the codes that an index built from them encodes in its one-hot
    # bits and its labels (noisy ones too); the index keeps no copy of them.
    # The codes are uint8, the narrowest dtype for the schema's four levels
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=40, n_female=40, seed=5)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    if noise is None:
        codes = discretize_cohort(cohort, disc, schema)
    else:
        codes = plant_rules(cohort, _unit1_planted(noise), disc, schema, seed=3)
    index = DatasetIndex(schema, codes)
    decoded = np.column_stack([index.column(a.name) for a in schema.attributes])
    assert codes.dtype == schema.code_dtype == np.uint8 and np.array_equal(codes, decoded)
    assert not hasattr(index, "codes")


def test_plant_rules_catch_all_only():
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=5, n_female=5, seed=2)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    planted = PlantedRuleSpec(truth=RuleSet(rules=(), default="G"), noise=0.0)
    codes = plant_rules(cohort, planted, disc, schema, seed=0)
    assert set(codes[:, schema.attributes.index(schema.target)].tolist()) == {schema.target.level_index("G")}


def test_planted_spec_requires_catch_all():
    # a catch-all before the last rule would hide every rule after it
    early = [{"when": {}, "then": "G"}, {"when": {"Unit 1": ["F"]}, "then": "F"}, {"when": {}, "then": "P"}]
    for rules in ([], [{"when": {"Unit 1": ["F"]}, "then": "F"}], early):
        with pytest.raises(ValidationError, match="catch-all"):
            PlantedRuleSpec.from_dict({"rules": rules, "noise": 0.0})


def test_planted_spec_json_round_trip():
    # the last rule is the default; the others are the truth's rules in order
    doc = {
        "rules": [
            {"when": {"Unit 2": ["F"], "Gender": ["Ma"]}, "then": "F"},
            {"when": {"Unit 5": ["G"]}, "then": "G"},
            {"when": {"Unit 4": ["G", "V.G"]}, "then": "V.G"},
            {"when": {}, "then": "P"},
        ],
        "noise": 0.25,
    }
    planted = PlantedRuleSpec.from_dict(doc)
    assert planted.truth == RuleSet(
        rules=(
            Rule(terms=(("Gender", ("Ma",)), ("Unit 2", ("F",))), consequent="F"),
            Rule(terms=(("Unit 5", ("G",)),), consequent="G"),
            Rule(terms=(("Unit 4", ("G", "V.G")),), consequent="V.G"),
        ),
        default="P",
    )
    assert planted.to_dict() == doc


def test_tertile_example():
    rng = np.random.default_rng(0)
    lo, hi = tertile_cuts(rng.random(10**5))
    assert abs(lo - 1 / 3) < 0.01 and abs(hi - 2 / 3) < 0.01


# any float, NaNs of any sign and payload included; values rounded to a tenth,
# which tie; and the values whose order or sign numpy's arithmetic treats apart
_SAMPLE_VALUES = st.one_of(
    st.floats(),
    st.floats(-3, 3).map(lambda x: round(x, 1)),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.integers(1, 300).flatmap(lambda n: st.lists(_SAMPLE_VALUES, min_size=n, max_size=n)),
    st.tuples(_SAMPLE_VALUES, st.integers(1, 300)).map(lambda pair: [pair[0]] * pair[1]),
))
@example([math.inf])  # one value: both cuts at it, as (inf - inf)·0 makes them NaN
@example([1.0, math.inf, 2.0, 3.0])  # an index on an order statistic: g = 0 next to inf
@example([0.0, -0.0] * 5)  # zeros of both signs, which compare equal
def test_tertile_cuts_equal_numpy_quantile(values):
    sample = np.array(values)
    with np.errstate(all="ignore"):  # numpy's interpolation warns of inf - inf; the cuts do not
        expected = np.quantile(sample, [1 / 3, 2 / 3])
    assert np.array(tertile_cuts(sample)).tobytes() == expected.tobytes()  # -0.0 and NaN bits too


def test_sample_population_names_the_group_and_dimension_whose_scores_overflow():
    spec = _spec(["a", "b"], 10, [0.0, 1.7e308], [1.0, 1.7e308], np.eye(2))
    with pytest.raises(ValidationError, match=r"group 'g', dimension 'b': mean 1\.7e\+308"):
        sample_population(spec)


def test_sample_population_repairs_a_non_pd_correlation():
    bad = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
    spec = _spec(["a", "b", "c"], 10, [0, 0, 0], [1, 1, 1], bad)
    rows = sample_population(spec).groups["g"]  # repaired silently
    assert rows.shape == (10, 3) and np.all(np.isfinite(rows))


def test_cohort_write_read_round_trip(tmp_path):
    from edm_rulex.schema import parse_dataset_csv
    from edm_rulex.synthgen import build_metadata, write_cohort

    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=250, n_female=250, seed=7)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    codes = discretize_cohort(cohort, disc, schema)
    index = DatasetIndex(schema, codes)
    records = index.records()
    paths = write_cohort(tmp_path / "cohort", schema, codes, cohort, build_metadata(spec, schema, disc))
    parsed = parse_dataset_csv(paths["csv"].read_text(), schema)
    assert len(parsed) == 500
    assert [r.values for r in parsed] == [r.values for r in records]
    with open(paths["csv"], encoding="utf-8") as stream:
        back = read_index_csv(stream, schema)
    assert np.array_equal(back.bits, index.bits) and np.array_equal(back.target, index.target)
    with open(paths["raw"], encoding="utf-8") as stream:
        dims, raw = parse_raw_csv(stream)
    assert dims == cohort.dimensions
    stacked = np.vstack([cohort.groups["Ma"], cohort.groups["Fe"]])
    assert np.array_equal(raw, stacked)  # repr() round-trips floats exactly


def test_write_cohort_appends_the_suffixes_to_a_dotted_stem(tmp_path):
    # Path.with_suffix replaced the stem's own '.v2', writing cohort.csv
    from edm_rulex.synthgen import build_metadata, write_cohort

    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=20, n_female=20, seed=7)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    codes = discretize_cohort(cohort, disc, schema)
    paths = write_cohort(tmp_path / "cohort.v2", schema, codes, cohort, build_metadata(spec, schema, disc))
    names = {"csv": "cohort.v2.csv", "raw": "cohort.v2.raw.csv", "meta": "cohort.v2.meta.json",
             "npy": "cohort.v2.npy", "raw_npy": "cohort.v2.raw.npy"}
    assert {key: path.name for key, path in paths.items()} == names
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names.values())


def test_noisy_planted_cohort_bytes():
    # The records whose label the noise flips depend only on the seed and the
    # record count, so they are pinned on their own; the SHA-256 then pins the
    # per-record order of the noise draws, including each flip's new level
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=40, n_female=40, seed=3)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    rules = [
        {"when": {"Unit 1": ["F"]}, "then": "F"},
        {"when": {"Unit 3": ["V.G"], "Gender": ["Fe"]}, "then": "V.G"},
        {"when": {"Unit 5": ["G", "V.G"]}, "then": "G"},
        {"when": {}, "then": "P"},
    ]
    clean, noisy = (
        plant_rules(cohort, PlantedRuleSpec.from_dict({"rules": rules, "noise": noise}), disc, schema, seed=11)
        for noise in (0.0, 0.1)
    )
    target = schema.attributes.index(schema.target)
    flipped = np.flatnonzero(clean[:, target] != noisy[:, target]).tolist()
    assert flipped == [3, 5, 31, 38, 45, 49, 50, 54, 56, 61, 64, 66, 67]
    digest = hashlib.sha256(written(write_index_csv, schema, noisy).encode()).hexdigest()
    assert digest == "c1a2fc8b4669c17a1a9ef7ae86e931827476d8f016dd86eff88f4fd6a2dc422e"


def test_plant_rules_rejects_unknown_planted_token():
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=5, n_female=5, seed=2)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    truth = RuleSet(rules=(Rule(terms=(("Unit 1", ("X",)),), consequent="F"),), default="P")
    planted = PlantedRuleSpec(truth=truth, noise=0.0)
    with pytest.raises(ValidationError, match="'X'"):
        plant_rules(cohort, planted, disc, schema, seed=0)


def test_plant_rules_with_noise_needs_a_second_target_level():
    # a flip draws one of the target's other levels, of which there are none
    schema = AttributeSchema(
        (Attribute("g", ("g",)), Attribute("x", ("L", "M", "H")), Attribute("y", ("only",), ROLE_TARGET))
    )
    cohort = sample_population(_spec(["x", "y"], 6, [0.0, 0.0], [1.0, 1.0], np.eye(2)))
    disc = {"x": tertile_cuts(cohort.matrix[:, 0])}
    truth = RuleSet(rules=(), default="only")
    with pytest.raises(ValidationError, match=r"planted noise 0\.1 .* target 'y' has only one"):
        plant_rules(cohort, PlantedRuleSpec(truth=truth, noise=0.1), disc, schema, seed=0)
    labelled = plant_rules(cohort, PlantedRuleSpec(truth=truth, noise=0.0), disc, schema, seed=0)
    assert labelled[:, 2].tolist() == [0] * 6


def test_raw_csv_round_trips_doubles_exactly():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-300, 300, (200, 3))
    cohort = RawCohort(("a", "b", "c"), values, {"g": len(values)})
    dims, matrix = parse_raw_csv(io.StringIO(written(write_raw_csv, cohort)))
    assert dims == ("a", "b", "c")
    assert matrix.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "body, message",
    [
        ("1.0,2.0\n3.0,oops\n", "row 2, column 'b': 'oops' is not a number"),
        ("1.0,2.0\n3.0\n4.0,x\n", "row 2: expected 2 columns, got 1"),
        ("1.0\n", "row 1: expected 2 columns, got 1"),
    ],
)
def test_parse_raw_csv_names_bad_row_and_column(body, message):
    with pytest.raises(ValidationError, match=message):
        parse_raw_csv(io.StringIO("a,b\n" + body))


@pytest.mark.parametrize(
    "dims, rows, message",
    [
        (("x",), 4, "the raw table lacks the spec's dimensions y"),
        (("x", "y"), 3, "the spec has 4 rows in its groups, the raw table has 3"),
    ],
)
def test_target_checks_name_the_spec_and_table_not_files(dims, rows, message):
    spec = _spec(["x", "y"], 4, [0.0, 0.0], [1.0, 1.0], np.eye(2))
    schema = AttributeSchema((Attribute("group", ("g",)), Attribute("t", ("t",), ROLE_TARGET)))
    index = DatasetIndex(schema, np.zeros((rows, 2), dtype=int))
    with pytest.raises(ValidationError) as raised:
        target_checks(spec, dims, np.zeros((rows, len(dims))), index)
    assert str(raised.value) == message
    assert ".csv" not in message and ".json" not in message
