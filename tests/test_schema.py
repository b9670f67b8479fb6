import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edm_rulex import studydata
from edm_rulex.errors import ValidationError
from edm_rulex.schema import (
    ROLE_TARGET,
    Attribute,
    AttributeSchema,
    StudentRecord,
    DatasetIndex,
    _chunk_codes,
    discretize_column,
    encode_dataset,
    encode_record,
    load_schema,
    parse_dataset_csv,
    read_index_csv,
    schema_hash,
    write_index_csv,
)
from edm_rulex.synthgen import RawCohort, discretize_cohort

from helpers import index_csv, written


def test_load_schema_layout(toy_schema):
    doc = [
        {"name": "A", "levels": ["a1", "a2", "a3"], "role": "predictive"},
        {"name": "T", "levels": ["t1", "t2"], "role": "target"},
    ]
    schema = load_schema(doc)
    assert schema.total_predictive_bits == 3
    assert schema.target_bits == 2
    assert schema.segments == {"A": (0, 3)}


def test_default_schema_shape():
    schema = studydata.default_student_schema()
    assert len(schema.predictive) == 24
    assert schema.total_predictive_bits == 76
    assert schema.target.name == "Reasoning"
    assert schema.target.levels == ("F", "P", "G", "V.G")
    # Gender precedes the motivation block so rule text renders in schema order
    names = [a.name for a in schema.attributes]
    assert names.index("Gender") < names.index("Ambition")
    # segments are contiguous and cover the whole layout
    offset = 0
    for a in schema.predictive:
        assert schema.segments[a.name] == (offset, len(a.levels))
        offset += len(a.levels)
    assert offset == schema.total_predictive_bits


@pytest.mark.parametrize(
    "attrs",
    [
        [{"name": "Unit 1", "levels": ["F", "P"]}, {"name": "Unit 1", "levels": ["F", "P"], "role": "target"}],
        [{"name": "A", "levels": []}, {"name": "T", "levels": ["t"], "role": "target"}],
        [{"name": "A", "levels": ["x", "x"]}, {"name": "T", "levels": ["t"], "role": "target"}],
        [{"name": "A", "levels": ["a"]}],
        [{"name": "A", "levels": ["a"], "role": "target"}, {"name": "B", "levels": ["b"], "role": "target"}],
    ],
)
def test_bad_schema_documents(attrs):
    with pytest.raises(ValidationError):
        load_schema(attrs)


GRADE = Attribute("Unit 1", ("F", "P", "G", "V.G"))


def test_discretize_grade_bands():
    cuts = (50.0, 65.0, 80.0)
    below, above = np.nextafter(80.0, -np.inf), np.nextafter(80.0, np.inf)
    codes = discretize_column(np.array([72, 80, 49.999, 50, below, above]), cuts, GRADE)
    # a boundary score joins the upper band; its neighbours stay on their sides
    assert [GRADE.levels[c] for c in codes] == ["G", "V.G", "F", "P", "G", "V.G"]
    with pytest.raises(ValidationError, match=r"'Unit 1', row 1: .*nan"):
        discretize_column(np.array([float("nan")]), cuts, GRADE)


@pytest.mark.parametrize(
    "cuts",
    [(50.0, 50.0, 80.0), (50.0, 80.0, 65.0), (50.0, 65.0), (50.0, 65.0, 80.0, 90.0), ()],
)
def test_discretize_column_rejects_cuts_that_do_not_fit_the_levels(cuts):
    message = (
        "dimension 'Unit 1': need 3 strictly increasing cut points for its levels "
        f"['F', 'P', 'G', 'V.G'], got {list(cuts)}"
    )
    with pytest.raises(ValidationError, match=re.escape(message)):
        discretize_column(np.array([60.0]), cuts, GRADE)


def test_discretize_missing_entry():
    # raw dimension y has no cut points, so attribute y gets no levels
    schema = AttributeSchema(
        (
            Attribute("G", ("g",)),
            Attribute("x", ("lo", "hi")),
            Attribute("y", ("lo", "hi")),
            Attribute("T", ("lo", "hi"), ROLE_TARGET),
        )
    )
    cohort = RawCohort(("x", "y", "T"), np.array([[0.1, 0.2, 0.7]]), {"g": 1})
    with pytest.raises(ValidationError, match="y"):
        discretize_cohort(cohort, {"x": (0.5,), "T": (0.5,)}, schema)


@pytest.mark.parametrize("levels, dtype", [(300, np.uint16), (3, np.uint8)])
def test_narrow_level_codes_give_the_index_intp_codes_give(levels, dtype):
    # an attribute of 300 levels makes the schema's codes uint16, and 90 more
    # of three levels lay out past 255 bits while keeping them uint8; every
    # later segment's offset is past 255, more than a uint8 code holds, so
    # each column is widened before its offset is added
    attrs = (
        Attribute("A", tuple(f"a{k}" for k in range(levels))),
        *(Attribute(f"B{j}", ("x", "y", "z")) for j in range(90)),
        Attribute("T", ("t0", "t1"), ROLE_TARGET),
    )
    schema = AttributeSchema(attrs)
    assert schema.code_dtype == dtype and schema.total_predictive_bits > 255
    widths = schema.code_layout[0]
    codes = np.random.default_rng(3).integers(0, widths, (200, len(widths)))
    want = DatasetIndex(schema, codes.astype(np.intp))
    text = written(write_index_csv, schema, codes)
    read = _chunk_codes(list(csv.reader(io.StringIO(text)))[1:], 0, schema)
    assert read.dtype == dtype and np.array_equal(read, codes)
    for index in (DatasetIndex(schema, read), read_index_csv(io.StringIO(text), schema)):
        assert index.bits.tobytes() == want.bits.tobytes()
        assert index.target.dtype == np.intp and np.array_equal(index.target, want.target)


def test_discretize_column_names_dimension_of_non_finite_score():
    with pytest.raises(ValidationError, match=r"'Unit 3', row 2: .*inf"):
        discretize_column(np.array([0.1, np.inf, np.nan]), (0.5,), Attribute("Unit 3", ("lo", "hi")))


def test_empirical_tertiles_uniform():
    # tertiles of a big uniform sample sit near 1/3 and 2/3
    rng = np.random.default_rng(42)
    sample = rng.random(10**5)
    cuts = tuple(np.quantile(sample, [1 / 3, 2 / 3]))
    assert math.isclose(cuts[0], 1 / 3, abs_tol=0.01)
    assert math.isclose(cuts[1], 2 / 3, abs_tol=0.01)
    attr = Attribute("u", ("L", "M", "H"))
    assert attr.levels[discretize_column(np.array([0.5]), cuts, attr)[0]] == "M"


def test_discretization_monotone():
    rng = np.random.default_rng(1)
    attr = Attribute("x", ("a", "b", "c", "d"))
    for _ in range(50):
        cuts = tuple(np.sort(rng.normal(size=3)))
        scores = np.sort(rng.normal(size=20) * 2)
        idx = discretize_column(scores, cuts, attr).tolist()
        assert idx == sorted(idx)


def test_encode_trivial(toy_schema):
    rec = StudentRecord({"A": "a2", "B": "b1", "T": "t2"})
    vec = encode_record(rec, toy_schema)
    assert vec.bits.tolist() == [0, 1, 0, 1, 0]
    assert vec.target_index == 1


def test_encode_first_levels(toy_schema):
    rec = StudentRecord({"A": "a1", "B": "b1", "T": "t1"})
    vec = encode_record(rec, toy_schema)
    assert vec.bits.tolist() == [1, 0, 0, 1, 0]
    # exactly one set bit per segment
    assert vec.bits[0:3].sum() == 1 and vec.bits[3:5].sum() == 1


def test_encode_unknown_token(toy_schema):
    with pytest.raises(ValidationError, match="a9"):
        encode_record(StudentRecord({"A": "a9", "B": "b1", "T": "t1"}), toy_schema)


def test_encode_decode_round_trip():
    schema = studydata.default_student_schema()
    rng = np.random.default_rng(7)
    records = [
        StudentRecord({a.name: a.levels[rng.integers(len(a.levels))] for a in schema.attributes})
        for _ in range(1000)
    ]
    assert DatasetIndex(schema, records).records() == records


def test_encoding_is_stable():
    schema = studydata.default_student_schema()
    rec = StudentRecord(
        {a.name: a.levels[0] for a in schema.attributes}
    )
    a = encode_record(rec, schema)
    b = encode_record(rec, schema)
    assert a.bits.tobytes() == b.bits.tobytes() and a.target_index == b.target_index
    assert schema_hash(schema) == schema_hash(studydata.default_student_schema())


@settings(max_examples=200, deadline=None)
@given(
    levels=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    classes=st.integers(1, 4),
    draws=st.lists(st.lists(st.integers(0, 4), min_size=7, max_size=7), max_size=30),
)
def test_encode_dataset_rows_equal_encode_record(levels, classes, draws):
    schema = AttributeSchema(
        tuple(Attribute(f"A{j}", tuple(f"a{j}_{k}" for k in range(m))) for j, m in enumerate(levels))
        + (Attribute("T", tuple(f"t{k}" for k in range(classes)), ROLE_TARGET),)
    )
    records = [
        StudentRecord({a.name: a.levels[d % len(a.levels)] for a, d in zip(schema.attributes, draw)})
        for draw in draws
    ]
    data = encode_dataset(records, schema)
    assert data.bits.dtype == np.uint8
    assert data.bits.shape == (len(records), schema.total_predictive_bits)
    assert len(data) == len(records)
    for i, record in enumerate(records):
        vec = encode_record(record, schema)
        assert data.bits[i].tolist() == vec.bits.tolist()
        assert data.target[i] == vec.target_index


def test_encode_dataset_keeps_record_errors(toy_schema):
    good = StudentRecord({"A": "a1", "B": "b1", "T": "t1"})
    for bad in (
        StudentRecord({"A": "a9", "B": "b1", "T": "t1"}),
        StudentRecord({"A": "a1", "B": "b1", "T": "t7"}),
        StudentRecord({"A": "a1", "T": "t1"}),
        StudentRecord({"A": "a1", "B": "b1", "T": "t1", "C": "c1"}),
    ):
        with pytest.raises(ValidationError) as expected:
            toy_schema.validate_record(bad)
        with pytest.raises(ValidationError, match=re.escape(str(expected.value))):
            encode_dataset([good, bad, good], toy_schema)


def test_parse_csv_valid(toy_schema):
    text = "A,B,T\na1,b1,t1\na2,b2,t2\na3,b1,t1\n"
    records = parse_dataset_csv(text, toy_schema)
    assert len(records) == 3
    assert records[1].values == {"A": "a2", "B": "b2", "T": "t2"}


def test_parse_csv_bad_token_names_row_and_attribute():
    schema = studydata.default_student_schema()
    header = ",".join(a.name for a in schema.attributes)
    good = ",".join(a.levels[0] for a in schema.attributes)
    bad = good.replace("F", "VG", 1)  # first unit gets token VG instead of F
    with pytest.raises(ValidationError) as err:
        parse_dataset_csv(f"{header}\n{good}\n{bad}\n", schema)
    assert "row 2" in str(err.value)
    assert "Unit 1" in str(err.value)
    assert "VG" in str(err.value)


def test_parse_csv_ragged_row(toy_schema):
    with pytest.raises(ValidationError, match="row 1"):
        parse_dataset_csv("A,B,T\na1,b1\n", toy_schema)


def test_parse_csv_header_mismatch(toy_schema):
    with pytest.raises(ValidationError, match="header"):
        parse_dataset_csv("A,T,B\na1,t1,b1\n", toy_schema)
    with pytest.raises(ValidationError, match="empty"):
        parse_dataset_csv("", toy_schema)


def test_csv_round_trip(toy_schema):
    rng = np.random.default_rng(3)
    records = [
        StudentRecord(
            {a.name: a.levels[rng.integers(len(a.levels))] for a in toy_schema.attributes}
        )
        for _ in range(50)
    ]
    text = index_csv(DatasetIndex(toy_schema, records))
    assert parse_dataset_csv(text, toy_schema) == records


def test_an_index_builds_from_level_codes_of_any_integer_dtype():
    # uint64 codes passed the range check, then failed as indices
    schema = studydata.default_student_schema()
    widths = [len(a.levels) for a in schema.attributes]
    codes = np.random.default_rng(4).integers(0, widths, size=(50, len(widths)))
    want, text = DatasetIndex(schema, codes.astype(np.intp)), written(write_index_csv, schema, codes)
    for dtype in (np.int32, np.uint8, np.uint64):
        got = DatasetIndex(schema, codes.astype(dtype))
        for name in ("bits", "target"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert written(write_index_csv, schema, codes.astype(dtype)) == text


@pytest.mark.parametrize("codes", [[[0, -1, 0]], [[3, 0, 0]], [[0, 0]], [[0.0, 0.0, 0.0]]])
def test_write_index_csv_rejects_codes_that_do_not_fit(toy_schema, codes):
    with pytest.raises(ValidationError, match="do not fit the schema"):
        written(write_index_csv, toy_schema, np.array(codes))


def test_read_index_csv_equals_index_of_parsed_records():
    schema = studydata.default_student_schema()
    rng = np.random.default_rng(5)
    records = [
        StudentRecord({a.name: a.levels[rng.integers(len(a.levels))] for a in schema.attributes})
        for _ in range(300)
    ]
    text = index_csv(DatasetIndex(schema, records))
    index = read_index_csv(io.StringIO(text), schema)
    expected = DatasetIndex(schema, parse_dataset_csv(text, schema))
    assert index.bits.dtype == np.uint8 and index.target.dtype == np.intp
    assert np.array_equal(index.bits, expected.bits)
    assert np.array_equal(index.target, expected.target)
    assert index_csv(index) == text


@pytest.mark.parametrize(
    "rows, message",
    [
        # a late column of an early row wins over an early column of a later row
        (["a1,b9,t1", "a9,b1,t1"], "row 1, attribute 'B': unknown token 'b9'"),
        # within a row, the earliest attribute
        (["a1,b1,t1", "a9,b9,t9"], "row 2, attribute 'A': unknown token 'a9'"),
        # a ragged row does not hide an earlier bad token, nor a bad token an earlier ragged row
        (["a1,b1,t1", "a1,b1,t9", "a1,b1"], "row 2, attribute 'T': unknown token 't9'"),
        (["a1,b1", "a9,b1,t1"], "row 1: expected 3 columns, got 2"),
        # blank lines count as rows
        (["a1,b1,t1", "", "a1,b2,t1,x"], "row 3: expected 3 columns, got 4"),
    ],
)
def test_read_index_csv_reports_first_bad_row(toy_schema, rows, message):
    text = "A,B,T\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValidationError, match=re.escape(message)):
        read_index_csv(io.StringIO(text), toy_schema)
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_dataset_csv(text, toy_schema)
