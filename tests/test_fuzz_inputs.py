"""Every malformed input ends in a clean exit, never a traceback.

One small run is built per module.  Each example changes one field of one
JSON document a stage reads (a run artifact, the ``--config`` file, the
population spec or the planted-rule spec): it deletes the field or sets it
to null, ``[]``, ``{}``, a scalar of another type or a non-finite number.
It then runs, in-process, a stage that reads that document.  No exception may
escape ``cli.main``, and the exit code must be 0, 2, 3 or 4 (exit 1 belongs to
``report --strict``, which is not run here).  The CSV inputs get the same
treatment with a truncated row, an extra column, a BOM, an empty file and a
header that names a column twice.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edm_rulex import cli, studydata

CLEAN_EXITS = (0, 2, 3, 4)
PLANTED = {"rules": [{"when": {"Unit 1": ["F"]}, "then": "F"}, {"when": {}, "then": "P"}], "noise": 0.0}
# what a field may be changed to; DELETE removes it from its object or list
DELETE = object()
REPLACEMENTS = (DELETE, None, [], {}, "x", 1.5, True, -1, 0, float("inf"), float("-inf"), float("nan"))


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """A directory holding the input documents of generate and train and, in
    ``run/``, a 60-record planted cohort, a 3-epoch model, a one-rule-per-class
    ruleset, its statistics and report.  Returns the directory and, for each
    file, the argvs of the stages that read it, with paths relative to the
    directory."""
    d = tmp_path_factory.mktemp("fuzz")
    spec = studydata.default_population_spec().to_dict()
    (d / "spec.json").write_text(json.dumps({**spec, "score_maxima": studydata.SCORE_MAXIMA}))
    (d / "planted.json").write_text(json.dumps(PLANTED))
    (d / "config.json").write_text(json.dumps({"seed": 4, "train": {"hidden": 4, "rate": 0.2}}))
    run_dir, cohort, model = Path("run"), Path("run/cohort.csv"), Path("run/model.json")
    generate = ["generate", "--spec", Path("spec.json"), "--planted", Path("planted.json"), "--n", "60"]
    train = ["train", "--config", Path("config.json"), "--data", cohort, "--epochs", "3"]
    extract = ["extract", "--data", cohort, "--model", model, "--seed", "4", "--pop", "10",
               "--generations", "2", "--budget", "1"]
    stats = ["stats", "--data", cohort]
    for argv in (generate, train, extract, stats):
        assert _run_in(d, [*argv, "--out", run_dir]) == 0
    report = ["report", run_dir]
    assert _run_in(d, report) == 0
    readers = {
        "spec.json": [generate],
        "planted.json": [generate],
        "config.json": [train],
        "cohort.meta.json": [train, stats, report],
        "model.json": [extract, report],
        "train_log.json": [report],
        "ruleset.json": [report],
        "stats.json": [report],
        "cohort.csv": [train, extract, report],
        "cohort.raw.csv": [stats, report],
    }
    return d, readers


def _run_in(d, argv):
    """``cli.main`` on ``argv`` with its paths taken relative to ``d``."""
    return cli.main([str(d / a) if isinstance(a, Path) else a for a in argv])


def _run_on_copy(d, argv, name, edit):
    """Copy ``d``, apply ``edit`` to the copy's ``name``, and run ``argv`` (a
    stage other than report writing to ``out/``) in the copy; returns the
    exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "fuzz"
        shutil.copytree(d, copy)
        edit(copy / name if (copy / name).exists() else copy / "run" / name)
        if argv[0] != "report":
            argv = [*argv, "--out", Path("out")]
        return _run_in(copy, argv)


@st.composite
def field_edits(draw, doc):
    """A path into ``doc`` (keys and indices; empty for the whole document)
    and what to put there."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
        path.append(key)
        node = node[key]
    replacements = REPLACEMENTS if path else REPLACEMENTS[1:]
    return path, draw(st.sampled_from(replacements))


def _apply(doc, path, value):
    if not path:
        return value
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_changed_json_field_exits_cleanly(fuzz_run, data):
    d, readers = fuzz_run
    name = data.draw(st.sampled_from(sorted(n for n in readers if n.endswith(".json"))), label="file")
    doc = json.loads((d / name if (d / name).exists() else d / "run" / name).read_text())
    path, value = data.draw(field_edits(doc), label="edit")
    argv = data.draw(st.sampled_from(readers[name]), label="stage")

    def edit(target):
        target.write_text(json.dumps(_apply(doc, path, value)))

    assert _run_on_copy(d, argv, name, edit) in CLEAN_EXITS


def _truncated_row(lines):
    return lines[:2] + [lines[2].rsplit(",", 3)[0]] + lines[3:]


def _extra_column(lines):
    return lines[:2] + [lines[2] + ",7"] + lines[3:]


def _bom(lines):
    return ["\ufeff" + lines[0]] + lines[1:]


def _empty(lines):
    return []


def _duplicate_header(lines):
    names = lines[0].split(",")
    names[1] = names[0]
    return [",".join(names)] + lines[1:]


@pytest.mark.parametrize("name", ["cohort.csv", "cohort.raw.csv"])
@pytest.mark.parametrize("corrupt", [_truncated_row, _extra_column, _bom, _empty, _duplicate_header])
def test_a_malformed_csv_exits_cleanly(fuzz_run, name, corrupt):
    d, readers = fuzz_run

    def edit(target):
        lines = target.read_text(encoding="utf-8").splitlines()
        target.write_text("".join(line + "\n" for line in corrupt(lines)), encoding="utf-8")

    for argv in readers[name]:
        assert _run_on_copy(d, argv, name, edit) in CLEAN_EXITS
