"""A generated cohort's ``.npy`` companions stand in for its CSVs.

``generate`` saves the level codes behind ``cohort.csv`` and the raw table
behind ``cohort.raw.csv`` with ``np.save`` and records both files' SHA-256 in
``cohort.meta.json``'s ``companions``.  A stage reads an array only while both
hashes hold and its schema is the sidecar's; then it must see what the CSV
holds, bit for bit, and in every other case it reads the CSV and writes what
a run without the companions writes.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from edm_rulex import cli
from edm_rulex.schema import load_schema, read_index_csv
from edm_rulex.synthgen import parse_raw_csv, read_raw_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import workloads
finally:
    sys.path.pop(0)

ARTIFACTS = ("model.json", "train_log.json", "ruleset.json", "rules.txt", "stats.json")
COMPANIONS = ("cohort.npy", "cohort.raw.npy")


def run(*argv):
    return cli.main([str(a) for a in argv])


def _stage_options(data, *flags):
    """``cli._options`` of a ``stats`` run on ``data``."""
    args = cli.build_parser().parse_args(["stats", "--data", str(data), "--out", "unused", *flags])
    return cli._options(args, "stats")


def _loaded(opts, path):
    """``cli._companion`` of a cohort CSV as a stage calls it: the codes
    behind the dataset CSV, or the scores behind the ``.raw.csv``."""
    if path.name.endswith(".raw.csv"):
        with open(path, encoding="utf-8-sig") as stream:
            return cli._companion(opts, path, "f", len(read_raw_header(stream)))
    return cli._companion(opts, path, "iu", len(opts["schema"].attributes))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_the_companions_hold_what_the_csvs_hold(tmp_path, workload):
    inputs = workloads.write_inputs(workload, 7, tmp_path / "inputs")
    (stage, argv), *_ = workloads.stage_argv(workload, 7, inputs, tmp_path / "run")
    assert stage == "generate" and cli.main(argv) == 0
    data, raw = tmp_path / "run" / "cohort.csv", tmp_path / "run" / "cohort.raw.csv"
    opts = _stage_options(data)
    assert _loaded(opts, data) is not None and _loaded(opts, raw) is not None

    index = cli._read_cohort(opts)
    with open(data, encoding="utf-8") as stream:
        parsed = read_index_csv(stream, opts["schema"])
    for name in ("bits", "target"):
        got, want = getattr(index, name), getattr(parsed, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with open(raw, encoding="utf-8") as stream:
        _, table = parse_raw_csv(stream)
    saved = _loaded(opts, raw)
    assert (saved.dtype, saved.shape, saved.tobytes()) == (table.dtype, table.shape, table.tobytes())


@pytest.fixture(scope="module")
def cohorts(tmp_path_factory):
    """Two generated 97-record cohorts, seeds 7 and 8, each alone in its directory."""
    d = tmp_path_factory.mktemp("cohorts")
    for seed in (7, 8):
        assert run("generate", "--n", "97", "--seed", seed, "--out", d / str(seed)) == 0
    return d


def _edit_token(path):
    # the first record's first token becomes another level of its attribute
    meta = json.loads(path.with_suffix(".meta.json").read_text())
    levels = meta["schema"][0]["levels"]
    header, first, *rest = path.read_text().splitlines(keepends=True)
    token, tail = first.split(",", 1)
    other = levels[(levels.index(token) + 1) % len(levels)]
    path.write_text("".join([header, f"{other},{tail}", *rest]))


def _edit_score(path):
    header, first, *rest = path.read_text().splitlines(keepends=True)
    score, tail = first.split(",", 1)
    path.write_text("".join([header, f"{float(score) + 7.5!r},{tail}", *rest]))


def _edit_codes(path):
    codes = np.load(path)
    codes[0, 0] = (codes[0, 0] + 1) % 2
    np.save(path, codes)


def _edit_raw(path):
    table = np.load(path)
    table[0, 0] += 7.5
    np.save(path, table)


def _bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def _dotted(run_dir, second):
    # a second cohort copied as cohort.v2.* beside the first cohort's companions
    for suffix in ("csv", "raw.csv", "meta.json"):
        shutil.copy(second / f"cohort.{suffix}", run_dir / f"cohort.v2.{suffix}")


BOTH = ("csv", "raw.csv")
# case -> (edit of a copy of the seed-7 cohort's directory, the CSVs read as text)
FALLBACKS = {
    "edited cohort.csv": (lambda d, _: _edit_token(d / "cohort.csv"), ("csv",)),
    "edited cohort.raw.csv": (lambda d, _: _edit_score(d / "cohort.raw.csv"), ("raw.csv",)),
    "edited cohort.npy": (lambda d, _: _edit_codes(d / "cohort.npy"), ("csv",)),
    "edited cohort.raw.npy": (lambda d, _: _edit_raw(d / "cohort.raw.npy"), ("raw.csv",)),
    "missing cohort.npy": (lambda d, _: (d / "cohort.npy").unlink(), ("csv",)),
    "byte order mark": (lambda d, _: [_bom(d / f"cohort.{suffix}") for suffix in BOTH], BOTH),
    "--schema": (lambda d, _: None, BOTH),
    "cohort.v2": (_dotted, BOTH),
}


def _stages(run_dir, data, flags):
    assert run("train", "--data", data, "--epochs", "5", "--seed", "7", "--out", run_dir, *flags) == 0
    assert run(
        "extract", "--data", data, "--model", run_dir / "model.json", "--pop", "20",
        "--generations", "10", "--budget", "1", "--seed", "7", "--out", run_dir, *flags,
    ) == 0
    assert run("stats", "--data", data, "--out", run_dir, *flags) == 0


@pytest.mark.parametrize("case", FALLBACKS)
def test_a_stage_reads_the_csv_when_a_companion_does_not_match(cohorts, tmp_path, case):
    edit, as_text = FALLBACKS[case]
    runs = {}
    for kind in ("kept", "deleted"):
        run_dir = tmp_path / kind
        shutil.copytree(cohorts / "7", run_dir)
        edit(run_dir, cohorts / "8")
        if kind == "deleted":
            for name in COMPANIONS:
                (run_dir / name).unlink(missing_ok=True)
        stem = run_dir / ("cohort.v2" if case == "cohort.v2" else "cohort")
        data, flags = stem.with_name(stem.name + ".csv"), ()
        if case == "--schema":
            schema = json.loads((run_dir / "cohort.meta.json").read_text())["schema"]
            (run_dir / "schema.json").write_text(json.dumps(schema))
            flags = ("--schema", run_dir / "schema.json")
        opts = _stage_options(data, *map(str, flags))
        for suffix in as_text:
            assert _loaded(opts, stem.with_name(f"{stem.name}.{suffix}")) is None
        _stages(run_dir, data, flags)
        runs[kind] = run_dir
    for name in ARTIFACTS:
        assert (runs["kept"] / name).read_bytes() == (runs["deleted"] / name).read_bytes(), name


def test_the_companions_give_the_bytes_of_the_csvs(cohorts, tmp_path):
    kept, deleted = tmp_path / "kept", tmp_path / "deleted"
    for run_dir in (kept, deleted):
        shutil.copytree(cohorts / "7", run_dir)
    for name in COMPANIONS:
        (deleted / name).unlink()
    for run_dir in (kept, deleted):
        _stages(run_dir, run_dir / "cohort.csv", ())
    for name in ARTIFACTS:
        assert (kept / name).read_bytes() == (deleted / name).read_bytes(), name


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda entry: entry.pop("npy_hash"), "companions['cohort.csv'] lacks the field 'npy_hash'"),
        (lambda entry: entry.update(csv_hash=None),
         "companions['cohort.csv'].csv_hash must be str, got None"),
    ],
)
def test_a_malformed_companions_entry_exits_2(cohorts, tmp_path, capsys, edit, field):
    run_dir = tmp_path / "run"
    shutil.copytree(cohorts / "7", run_dir)
    meta = json.loads((run_dir / "cohort.meta.json").read_text())
    edit(meta["companions"]["cohort.csv"])
    (run_dir / "cohort.meta.json").write_text(json.dumps(meta))
    assert run("train", "--data", run_dir / "cohort.csv", "--epochs", "1", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_companion_that_does_not_fit_its_csv_exits_2(cohorts, tmp_path, capsys):
    # an array whose recorded hashes hold but whose table is not the CSV's
    run_dir = tmp_path / "run"
    shutil.copytree(cohorts / "7", run_dir)
    np.save(run_dir / "cohort.raw.npy", np.load(run_dir / "cohort.raw.npy")[:, :3])
    np.save(run_dir / "cohort.npy", np.load(run_dir / "cohort.npy").astype(float))
    meta = json.loads((run_dir / "cohort.meta.json").read_text())
    for name, entry in meta["companions"].items():
        entry["npy_hash"] = cli.file_sha256((run_dir / name).with_suffix(".npy"))
    (run_dir / "cohort.meta.json").write_text(json.dumps(meta))
    width = len(load_schema(meta["schema"]).attributes)
    assert run("train", "--data", run_dir / "cohort.csv", "--epochs", "1", "--out", tmp_path / "a") == 2
    err = capsys.readouterr().err
    assert f"the array saved for cohort.csv is float64[97, {width}], not a table of {width} columns" in err
    np.save(run_dir / "cohort.npy", np.load(run_dir / "cohort.npy").astype(np.intp))
    meta["companions"]["cohort.csv"]["npy_hash"] = cli.file_sha256(run_dir / "cohort.npy")
    (run_dir / "cohort.meta.json").write_text(json.dumps(meta))
    assert run("stats", "--data", run_dir / "cohort.csv", "--out", tmp_path / "b") == 2
    assert "the array saved for cohort.raw.csv is float64[97, 3]" in capsys.readouterr().err
    for garbage in (b"not an array", (run_dir / "cohort.npy").read_bytes()[:-8]):
        (run_dir / "cohort.npy").write_bytes(garbage)
        meta["companions"]["cohort.csv"]["npy_hash"] = cli.file_sha256(run_dir / "cohort.npy")
        (run_dir / "cohort.meta.json").write_text(json.dumps(meta))
        assert run("train", "--data", run_dir / "cohort.csv", "--epochs", "1", "--out", tmp_path / "c") == 2
        err = capsys.readouterr().err
        assert "cohort.npy is not a readable .npy file" in err and "Traceback" not in err
