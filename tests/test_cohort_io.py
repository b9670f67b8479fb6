"""Cohort CSVs move through the readers and writers a chunk of rows at a time.

The round trips run at lengths around the chunk length, where an off-by-one
in the chunking would drop, repeat or misnumber a row.  The raw writer's
tests also force one, two and three CPUs, over which it splits its rows
into forked processes.  The memory tests pin what reading a 10 000-row
cohort costs beyond its arrays, and what the generate and stats stages hold
for a 20 000-row one.
"""

import io
import os
import re
import tracemalloc

import numpy as np
import pytest

from edm_rulex import cli, studydata, util
from edm_rulex.errors import ValidationError
from edm_rulex.schema import CHUNK_ROWS, DatasetIndex, read_index_csv, write_index_csv
from edm_rulex.synthgen import (
    RawCohort,
    build_metadata,
    default_discretization,
    discretize_cohort,
    parse_raw_csv,
    sample_population,
    write_cohort,
    write_raw_csv,
)

from helpers import written

# tracemalloc peaks, in bytes, of reading the cohort of test_readers_hold_one_chunk.
# Measured 2.3 MB (raw) and 5.0 MB (tokens) with numpy 2.4 on Python 3.11; the
# bounds leave about twice and 1.3 times that.  Readers that hold the whole
# text peaked at 29 MB and 13.8 MB, and the token reader peaked at 8.7 MB while
# the index build held [N, A] temporaries.
RAW_PEAK_BOUND = 4.5e6
INDEX_PEAK_BOUND = 6.5e6

# tracemalloc peaks of the generate and stats stages at 20 000 records of the
# default spec, seed 7: 3.7 MiB of raw scores, 0.5 MiB of uint8 level codes
# and 1.4 MiB of bits.  Measured 6.4 MiB and 8.3 MiB with numpy 2.4 on
# Python 3.11.  Holding the raw table twice (the groups and their stacked
# copy, or the table and each group's rows) and the codes as int64 peaked at
# 12.3 MiB and 12.9 MiB.
GENERATE_PEAK_BOUND = 8 * 2**20
STATS_PEAK_BOUND = 11 * 2**20


def _peak(read, path, *args):
    with open(path, encoding="utf-8") as stream:
        tracemalloc.start()
        try:
            read(stream, *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_readers_hold_one_chunk(tmp_path):
    schema = studydata.default_student_schema()
    spec = studydata.default_population_spec(n_male=5000, n_female=5000, seed=7)
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
    codes = discretize_cohort(cohort, disc, schema)
    paths = write_cohort(tmp_path / "cohort", schema, codes, cohort, build_metadata(spec, schema, disc))
    assert paths["raw"].stat().st_size > 4e6  # the raw table's text is larger than the bound
    assert _peak(parse_raw_csv, paths["raw"]) < RAW_PEAK_BOUND
    assert _peak(read_index_csv, paths["csv"], schema) < INDEX_PEAK_BOUND


def test_an_index_build_holds_one_column_of_temporaries():
    # the bits were set through [N, A] intp temporaries: 3.8 MB beyond the
    # bits and target at 10 000 records of the student schema, against about
    # 0.1 MB column by column
    schema = studydata.default_student_schema()
    widths, predictive, offsets, _ = schema.code_layout
    codes = np.random.default_rng(10).integers(0, widths, size=(10_000, len(widths)))
    tracemalloc.start()
    try:
        index = DatasetIndex(schema, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - index.bits.nbytes - index.target.nbytes < 4 * codes[:, 0].nbytes
    bits = np.zeros_like(index.bits)
    bits[np.arange(len(codes))[:, None], codes[:, predictive] + offsets] = 1
    assert np.array_equal(index.bits, bits)


def _stage_peak(*argv):
    tracemalloc.start()
    try:
        assert cli.main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_holds_each_table_once(tmp_path):
    assert _stage_peak("generate", "--n", 20_000, "--seed", 7, "--out", tmp_path) < GENERATE_PEAK_BOUND


def test_stats_holds_each_table_once(tmp_path):
    assert cli.main(["generate", "--n", "20000", "--seed", "7", "--out", str(tmp_path)]) == 0
    assert _stage_peak("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) < STATS_PEAK_BOUND


def test_the_groups_of_a_sampled_cohort_are_rows_of_its_matrix():
    spec = studydata.default_population_spec(n_male=30, n_female=20, seed=7)
    cohort = sample_population(spec)
    assert [len(rows) for rows in cohort.groups.values()] == [30, 20]
    for rows in cohort.groups.values():
        assert np.shares_memory(rows, cohort.matrix)
    assert np.array_equal(np.concatenate(list(cohort.groups.values())), cohort.matrix)
    with pytest.raises(ValidationError, match="the groups have 49 rows in all, the raw matrix has 50"):
        RawCohort(cohort.dimensions, cohort.matrix, {"Ma": 30, "Fe": 19})


@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_write_read_round_trip_at_chunk_edges(n):
    schema = studydata.default_student_schema()
    rng = np.random.default_rng(n)
    widths = [len(a.levels) for a in schema.attributes]
    codes = rng.integers(0, widths, size=(n, len(widths)))
    index = DatasetIndex(schema, codes)
    text = written(write_index_csv, schema, codes)
    assert text.count("\n") == n + 1
    back = read_index_csv(io.StringIO(text), schema)
    assert np.array_equal(back.bits, index.bits) and np.array_equal(back.target, index.target)

    values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    text = written(write_raw_csv, RawCohort(("a", "b", "c"), values, {"g": len(values)}))
    assert text.count("\n") == n + 1
    dims, matrix = parse_raw_csv(io.StringIO(text))
    assert dims == ("a", "b", "c") and matrix.tobytes() == values.tobytes()


def _raw_cohort(n: int) -> tuple[RawCohort, str]:
    """A cohort of ``n`` rows of three columns, and its raw CSV as one
    process formats it, row by row."""
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    text = "a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
    return RawCohort(("a", "b", "c"), values, {"g": len(values)}), text


@pytest.mark.parametrize(
    "n", [0, 1, CHUNK_ROWS - 1, 2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS, 2 * CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7]
)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_raw_csv_is_the_same_on_any_number_of_cpus(monkeypatch, n, workers):
    # one slice per CPU, each of at least CHUNK_ROWS rows: a forked child
    # formats each slice after the first, fewer than 2 * CHUNK_ROWS rows fork
    # nothing, and the bytes stay one process's
    cohort, text = _raw_cohort(n)
    fork, made = os.fork, []

    def counted_fork():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(util, "_usable_cpus", lambda: workers)
    assert written(write_raw_csv, cohort) == text
    assert len(made) == max(0, min(workers, n // CHUNK_ROWS) - 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forks", [0, 1])
def test_raw_csv_formats_the_slices_it_cannot_fork_itself(monkeypatch, forks):
    # os.fork fails on the first or the second of three slices' forks; this
    # process formats that slice and the rest, to the same bytes
    cohort, text = _raw_cohort(3 * CHUNK_ROWS + 7)
    fork, made = os.fork, []

    def fork_while_ids_last():
        if len(made) == forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", fork_while_ids_last)
    monkeypatch.setattr(util, "_usable_cpus", lambda: 3)
    assert written(write_raw_csv, cohort) == text
    assert len(made) == forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bad_row", [CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 3])
def test_bad_row_numbers_count_across_chunks(toy_schema, bad_row):
    rows = ["a1,b1,t1"] * (2 * CHUNK_ROWS + 5)
    rows[bad_row - 1] = "a1,b7,t1"
    rows[1] = ""  # a blank line still counts as a row
    with pytest.raises(ValidationError, match=re.escape(f"row {bad_row}, attribute 'B'")):
        read_index_csv(io.StringIO("A,B,T\n" + "\n".join(rows) + "\n"), toy_schema)


def test_raw_error_row_after_a_byte_order_mark(tmp_path):
    # the error path seeks back to the first row through the utf-8-sig decoder
    path = tmp_path / "raw.csv"
    path.write_text("\ufeffa,b\n1.0,2.0\n3.0,x\n", encoding="utf-8")
    with open(path, encoding="utf-8-sig") as stream:
        with pytest.raises(ValidationError, match="row 2, column 'b': 'x' is not a number"):
            parse_raw_csv(stream)
