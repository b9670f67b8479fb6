import hashlib
import json
import shutil
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from edm_rulex import cli, rulekit
from edm_rulex.rulekit import parse_rule, parse_ruleset, ruleset_from_dict
from edm_rulex.schema import load_schema, write_dataset_csv
from edm_rulex.schema import Attribute, AttributeSchema, ROLE_TARGET, StudentRecord


def run(*argv):
    return cli.main([str(a) for a in argv])


PLANTED = {
    "rules": [
        {"when": {"Unit 1": ["F"]}, "then": "F"},
        {"when": {}, "then": "P"},
    ],
    "noise": 0.0,
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One complete pipeline run on a planted cohort, shared read-only."""
    d = tmp_path_factory.mktemp("run")
    planted = d / "planted.json"
    planted.write_text(json.dumps(PLANTED))
    assert run("generate", "--out", d, "--seed", "13", "--n", "800", "--planted", planted) == 0
    assert run("train", "--data", d / "cohort.csv", "--out", d, "--seed", "13", "--epochs", "150") == 0
    assert (
        run(
            "extract",
            "--data", d / "cohort.csv",
            "--model", d / "model.json",
            "--out", d,
            "--seed", "13",
            "--pop", "80",
            "--generations", "50",
            "--budget", "3",
        )
        == 0
    )
    assert run("stats", "--data", d / "cohort.csv", "--out", d) == 0
    assert run("report", d) == 0
    return d


def test_generate_row_count(tmp_path):
    assert run("generate", "--spec", "study-default", "--n", "97", "--seed", "7", "--out", tmp_path) == 0
    rows = (tmp_path / "cohort.csv").read_text().strip().splitlines()
    assert len(rows) == 98  # header + 97 records
    assert (tmp_path / "cohort.meta.json").exists()
    meta = json.loads((tmp_path / "cohort.meta.json").read_text())
    assert meta["generator"] == "numpy-pcg64"
    assert meta["n_per_group"] == {"Ma": 49, "Fe": 48}


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("generate", "--spec", "study-default", "--n", "97", "--seed", "7", "--out", out) == 0
    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_rejects_empty_cohort(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run("generate", "--n", "0", "--seed", "1", "--out", out) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "cohort.csv").exists()


def test_train_deterministic(full_run, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("train", "--data", full_run / "cohort.csv", "--out", out, "--seed", "3", "--epochs", "20") == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    assert (a / "train_log.json").read_bytes() == (b / "train_log.json").read_bytes()


def test_train_corrupt_csv_diagnostics(full_run, tmp_path, capsys):
    lines = (full_run / "cohort.csv").read_text().splitlines()
    lines[3] = lines[3].replace(",", ",,", 1)  # ragged row 3
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run("train", "--data", bad, "--out", tmp_path, "--seed", "0") == 2
    err = capsys.readouterr().err
    assert "row 3" in err


def test_train_toy_separable_reaches_target(tmp_path):
    schema = AttributeSchema(
        (
            Attribute("A", ("a1", "a2")),
            Attribute("B", ("b1", "b2")),
            Attribute("T", ("t1", "t2"), ROLE_TARGET),
        )
    )
    records = [
        StudentRecord({"A": a, "B": b, "T": "t1" if a == "a1" else "t2"})
        for a in ("a1", "a2")
        for b in ("b1", "b2")
    ]
    (tmp_path / "toy.csv").write_text(write_dataset_csv(records, schema))
    (tmp_path / "toy.schema.json").write_text(
        json.dumps(
            [
                {"name": "A", "levels": ["a1", "a2"], "role": "predictive"},
                {"name": "B", "levels": ["b1", "b2"], "role": "predictive"},
                {"name": "T", "levels": ["t1", "t2"], "role": "target"},
            ]
        )
    )
    assert (
        run(
            "train",
            "--data", tmp_path / "toy.csv",
            "--schema", tmp_path / "toy.schema.json",
            "--out", tmp_path,
            "--seed", "1",
        )
        == 0
    )
    log = json.loads((tmp_path / "train_log.json").read_text())
    assert log["final_mse"] < 0.01


def test_train_reports_saturation(full_run, tmp_path, capsys):
    # a huge step drives pre-activations to the sigmoid clip, which used to
    # hide the divergence behind a finite mse and exit 0
    rc = run(
        "train", "--data", full_run / "cohort.csv", "--out", tmp_path, "--seed", "0",
        "--rate", "1e6", "--epochs", "5",
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "saturated" in err and "layer" in err and "smaller learning rate" in err
    assert "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


def test_extract_recovers_planted_rule_text(full_run):
    text = (full_run / "rules.txt").read_text()
    assert "If Unit 1 = F → Then Reasoning = F" in text.splitlines()
    ruleset = json.loads((full_run / "ruleset.json").read_text())
    assert ruleset["training_accuracy"] >= 0.98


def test_extract_rules_sorted_by_class_then_confidence(full_run):
    ruleset = json.loads((full_run / "ruleset.json").read_text())
    levels = ("F", "P", "G", "V.G")
    keys = [
        (levels.index(r["consequent"]), -r["confidence"]) for r in ruleset["rules"]
    ]
    assert keys == sorted(keys)


def test_rules_txt_parses_back_to_ruleset(full_run):
    schema = load_schema(json.loads((full_run / "cohort.meta.json").read_text())["schema"])
    ruleset = json.loads((full_run / "ruleset.json").read_text())
    *lines, default = (full_run / "rules.txt").read_text().splitlines()
    assert default == f"Default Reasoning = {ruleset['default']}"
    assert len(lines) == len(ruleset["rules"])
    for line, doc in zip(lines, ruleset["rules"]):
        parsed = parse_rule(line, schema)
        assert parsed.consequent == doc["consequent"]
        assert sorted(parsed.terms) == sorted((t["attribute"], tuple(t["levels"])) for t in doc["terms"])


def test_rules_txt_reads_back_as_a_whole(full_run):
    schema = load_schema(json.loads((full_run / "cohort.meta.json").read_text())["schema"])
    recorded = ruleset_from_dict(json.loads((full_run / "ruleset.json").read_text()))
    back = parse_ruleset((full_run / "rules.txt").read_text(), schema)
    assert back.default == recorded.default
    assert [(r.terms, r.consequent) for r in back.rules] == [
        (r.terms, r.consequent) for r in recorded.rules
    ]


def test_extract_builds_one_dataset_index(full_run, tmp_path, monkeypatch):
    builds = []
    original = rulekit.DatasetIndex.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(rulekit.DatasetIndex, "__init__", counting_init)
    rc = run(
        "extract",
        "--data", full_run / "cohort.csv",
        "--model", full_run / "model.json",
        "--out", tmp_path,
        "--seed", "13",
        "--pop", "20",
        "--generations", "5",
        "--budget", "1",
    )
    assert rc == 0
    assert len(builds) == 1


def test_extract_schema_mismatch(full_run, tmp_path, capsys):
    model = json.loads((full_run / "model.json").read_text())
    model["metadata"]["schema_hash"] = "0" * 64
    wrong = tmp_path / "wrong_model.json"
    wrong.write_text(json.dumps(model))
    rc = run(
        "extract",
        "--data", full_run / "cohort.csv",
        "--model", wrong,
        "--out", tmp_path,
        "--seed", "0",
    )
    assert rc == 2
    assert "schema mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", ["0", "-1"])
def test_train_rejects_empty_hidden_layer(full_run, tmp_path, capsys, hidden):
    rc = run("train", "--data", full_run / "cohort.csv", "--out", tmp_path, "--seed", "0", "--hidden", hidden)
    assert rc == 2
    err = capsys.readouterr().err
    assert "hidden size" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--budget", "-1", "budget"),
        ("--confidence", "1.5", "confidence"),
        ("--epsilon", "-1", "epsilon"),
    ],
)
def test_extract_rejects_bad_options(full_run, tmp_path, capsys, flag, value, field):
    rc = run(
        "extract",
        "--data", full_run / "cohort.csv",
        "--model", full_run / "model.json",
        "--out", tmp_path,
        "--seed", "0",
        flag, value,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "ruleset.json").exists()


def test_extract_single_class_dataset(tmp_path):
    planted = tmp_path / "planted.json"
    planted.write_text(json.dumps({"rules": [{"when": {}, "then": "P"}], "noise": 0.0}))
    assert run("generate", "--out", tmp_path, "--seed", "5", "--n", "60", "--planted", planted) == 0
    assert run("train", "--data", tmp_path / "cohort.csv", "--out", tmp_path, "--seed", "5", "--epochs", "40") == 0
    assert (
        run(
            "extract",
            "--data", tmp_path / "cohort.csv",
            "--model", tmp_path / "model.json",
            "--out", tmp_path,
            "--seed", "5",
            "--pop", "30",
            "--generations", "15",
            "--budget", "2",
        )
        == 0
    )
    ruleset = json.loads((tmp_path / "ruleset.json").read_text())
    assert ruleset["default"] == "P"
    assert all(r["consequent"] == "P" for r in ruleset["rules"])
    assert len(ruleset["rules"]) <= 1


def test_stats_direction_and_schema(full_run):
    stats = json.loads((full_run / "stats.json").read_text())
    tt = stats["sections"]["target_group_ttest"]
    assert tt["groups"]["Fe"]["mean"] > tt["groups"]["Ma"]["mean"]
    with resources.files("edm_rulex.data").joinpath("stats_report.schema.json").open() as fh:
        schema_doc = json.load(fh)
    jsonschema.validate(stats, schema_doc)


def test_stats_default_schema_skips_nothing(full_run, capsys):
    sections = json.loads((full_run / "stats.json").read_text())["sections"]
    assert "skipped_blocks" not in sections
    assert set(sections["blocks"]) == {"learning_skills", "motivation", "interaction"}


def test_stats_names_skipped_blocks(tmp_path, capsys):
    from edm_rulex import studydata

    # a custom schema with every learning-skill scale but only two
    # motivation scales and no interaction scale
    kept = studydata.LEARNING_SKILLS + ("Challenge", "Ambition")
    schema = [{"name": "Gender", "levels": ["Ma", "Fe"], "role": "predictive"}]
    schema += [{"name": d, "levels": ["L", "M", "H"], "role": "predictive"} for d in kept]
    schema += [{"name": "Reasoning", "levels": ["F", "P", "G", "V.G"], "role": "target"}]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    full = studydata.default_population_spec(seed=3).to_dict()
    cols = [full["dimensions"].index(d) for d in kept + ("Reasoning",)]
    spec = dict(full, dimensions=[full["dimensions"][j] for j in cols])
    spec["groups"] = {
        token: {
            "n": g["n"],
            "means": [g["means"][j] for j in cols],
            "sds": [g["sds"][j] for j in cols],
            "correlation": [[g["correlation"][i][j] for j in cols] for i in cols],
        }
        for token, g in full["groups"].items()
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run(
        "generate", "--spec", tmp_path / "spec.json", "--schema", tmp_path / "schema.json",
        "--seed", "3", "--out", tmp_path,
    ) == 0
    capsys.readouterr()
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 0
    err = capsys.readouterr().err
    missing_motivation = [d for d in studydata.MOTIVATION if d not in kept]
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 2
    assert "'motivation'" in warnings[0] and all(d in warnings[0] for d in missing_motivation)
    assert "'interaction'" in warnings[1] and all(d in warnings[1] for d in studydata.INTERACTION)
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert list(stats["sections"]["blocks"]) == ["learning_skills"]
    assert stats["sections"]["skipped_blocks"] == {
        "motivation": missing_motivation,
        "interaction": list(studydata.INTERACTION),
    }
    with resources.files("edm_rulex.data").joinpath("stats_report.schema.json").open() as fh:
        jsonschema.validate(stats, json.load(fh))


def test_stats_insufficient_data(tmp_path, capsys):
    assert run("generate", "--out", tmp_path, "--seed", "2", "--n", "2") == 0
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 2
    assert "insufficient" in capsys.readouterr().err


def test_stats_requires_raw_sidecar(full_run, tmp_path, capsys):
    shutil.copy(full_run / "cohort.csv", tmp_path / "cohort.csv")
    shutil.copy(full_run / "cohort.meta.json", tmp_path / "cohort.meta.json")
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 2
    assert "raw" in capsys.readouterr().err


def test_report_complete(full_run):
    text = (full_run / "report.txt").read_text()
    for section in (
        "Artifacts and config hashes",
        "Extracted rules",
        "Cohort statistics",
        "Cohort means vs generation targets",
        "Overall target checks: PASS",
    ):
        assert section in text
    assert "[FAIL]" not in text
    # the report is about the run: the paper's constant reference rows are tested elsewhere
    assert "Reference target checks" not in text
    assert "Recomputed reference rows" not in text


def test_report_rejects_a_population_spec_that_does_not_fit_the_raw_table(
    full_run, tmp_path, capsys
):
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    meta = json.loads((broken / "cohort.meta.json").read_text())
    meta["population_spec"]["groups"]["Ma"]["n"] += 5
    (broken / "cohort.meta.json").write_text(json.dumps(meta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("report", broken) == 2
    err = capsys.readouterr().err
    assert "population_spec" in err and "805" in err and "800" in err
    assert "Traceback" not in err


def test_report_strict_passes(full_run, capsys):
    assert run("report", "--strict", full_run) == 0
    assert "error" not in capsys.readouterr().err


def test_report_strict_exit_code_on_failed_checks(full_run, tmp_path, capsys):
    failing = tmp_path / "failing"
    shutil.copytree(full_run, failing)
    # move one generation target far from the cohort's mean
    meta = json.loads((failing / "cohort.meta.json").read_text())
    meta["population_spec"]["groups"]["Ma"]["means"][0] += 1000.0
    (failing / "cohort.meta.json").write_text(json.dumps(meta))
    assert run("report", failing) == 0
    assert "Overall target checks: FAIL" in (failing / "report.txt").read_text()
    capsys.readouterr()
    assert run("report", "--strict", failing) == 1
    assert "target checks failed" in capsys.readouterr().err
    assert "Overall target checks: FAIL" in (failing / "report.txt").read_text()


def test_report_missing_artifact(full_run, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    (broken / "model.json").unlink()
    assert run("report", broken) == 2
    assert "model.json" in capsys.readouterr().err


def test_report_corrupt_json_artifact(full_run, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    (broken / "train_log.json").write_text('{"epochs_run": 3,')
    assert run("report", broken) == 2
    err = capsys.readouterr().err
    assert "train_log.json" in err and "not valid JSON" in err


@pytest.mark.parametrize("stage", ["stats", "report"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (
            lambda cells: [cells[0], "oops", *cells[2:]],
            "row 3, column 'Management of study time': 'oops' is not a number",
        ),
        (lambda cells: cells[:-1], "row 3: expected 24 columns, got 23"),
    ],
)
def test_malformed_raw_csv_exits_2(full_run, tmp_path, capsys, stage, corrupt, message):
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    lines = (broken / "cohort.raw.csv").read_text().splitlines()
    lines[3] = ",".join(corrupt(lines[3].split(",")))
    (broken / "cohort.raw.csv").write_text("\n".join(lines) + "\n")
    if stage == "stats":
        assert run("stats", "--data", broken / "cohort.csv", "--out", broken) == 2
    else:
        # stats.json recorded the raw table's hash, so report stops before parsing it
        assert run("report", broken) == 2
        message = "hash mismatch: stats.json was made from a different cohort.raw.csv"
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _check_lines(report):
    return [line for line in report.read_text().splitlines() if line.startswith("  [")]


@pytest.mark.parametrize("reshape", ["cut Unit 5", "swap Unit 4 and Unit 5"])
def test_report_reads_raw_columns_by_name(full_run, tmp_path, capsys, reshape):
    reshaped = tmp_path / "reshaped"
    shutil.copytree(full_run, reshaped)
    raw = reshaped / "cohort.raw.csv"
    rows = [line.split(",") for line in raw.read_text().splitlines()]
    u4, u5 = rows[0].index("Unit 4"), rows[0].index("Unit 5")
    order = list(range(len(rows[0])))
    if reshape.startswith("cut"):
        del order[u5]
    else:
        order[u4], order[u5] = u5, u4
    raw.write_text("".join(",".join(row[j] for j in order) + "\n" for row in rows))
    # stats records the reshaped table's hash, so report reaches the table itself
    assert run("stats", "--data", reshaped / "cohort.csv", "--out", reshaped) == 0
    capsys.readouterr()
    if reshape.startswith("cut"):
        assert run("report", reshaped) == 2
        err = capsys.readouterr().err
        assert "cohort.raw.csv" in err and "Unit 5" in err and "Traceback" not in err
    else:
        assert run("report", reshaped) == 0
        assert _check_lines(reshaped / "report.txt") == _check_lines(full_run / "report.txt")


def test_report_rejects_a_raw_table_edited_after_stats(full_run, tmp_path, capsys):
    stale = tmp_path / "stale"
    shutil.copytree(full_run, stale)
    lines = (stale / "cohort.raw.csv").read_text().splitlines()
    lines[3] = ",".join(["1.0", *lines[3].split(",")[1:]])
    (stale / "cohort.raw.csv").write_text("\n".join(lines) + "\n")
    assert run("report", stale) == 2
    err = capsys.readouterr().err
    assert "hash mismatch" in err and "cohort.raw.csv" in err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda log: [], "train_log.json must be an object"),
        (lambda log: {**log, "final_mse": log["final_mse"] * 2}, "final_mse"),
        (lambda log: {k: v for k, v in log.items() if k != "epochs_run"}, "epochs_run"),
    ],
)
def test_report_checks_train_log_against_model(full_run, tmp_path, capsys, edit, field):
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    log = json.loads((broken / "train_log.json").read_text())
    (broken / "train_log.json").write_text(json.dumps(edit(log)))
    assert run("report", broken) == 2
    assert field in capsys.readouterr().err


def test_perfbench_span_patches_resolve():
    # every package name the benchmark's tracer wraps must still exist
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from spans import SpanRecorder, install
    finally:
        sys.path.pop(0)
    originals = (cli.plant_rules, cli.parse_dataset_csv, rulekit.RuleSet.accuracy)
    uninstall = install(SpanRecorder())
    try:
        assert cli.plant_rules is not originals[0]
    finally:
        uninstall()
    assert (cli.plant_rules, cli.parse_dataset_csv, rulekit.RuleSet.accuracy) == originals


def test_report_deterministic(full_run):
    before = (full_run / "report.txt").read_bytes()
    assert run("report", full_run) == 0
    assert (full_run / "report.txt").read_bytes() == before


def test_report_hash_mismatch(full_run, tmp_path, capsys):
    stale = tmp_path / "stale"
    shutil.copytree(full_run, stale)
    # regenerate the cohort with another seed; the model no longer matches
    assert run("generate", "--out", stale, "--seed", "99", "--n", "800") == 0
    assert run("report", stale) == 2
    assert "hash mismatch" in capsys.readouterr().err


def test_report_rejects_an_input_from_outside_the_run(full_run, tmp_path, capsys):
    moved = tmp_path / "moved"
    shutil.copytree(full_run, moved)
    model = json.loads((moved / "model.json").read_text())
    model["metadata"]["inputs"]["dataset"] = "elsewhere.csv"
    (moved / "model.json").write_text(json.dumps(model))
    assert run("report", moved) == 2
    assert "model.json input dataset 'elsewhere.csv' is not a file of this run" in capsys.readouterr().err


def test_report_accepts_a_schema_from_outside_the_run(full_run, tmp_path):
    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    meta = json.loads((run_dir / "cohort.meta.json").read_text())
    schema = _write(tmp_path / "schema.json", meta["schema"])
    assert run("stats", "--data", run_dir / "cohort.csv", "--schema", schema, "--out", run_dir) == 0
    assert run("report", "--strict", run_dir) == 0


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"seed": 7, "generate": {"n": 30, "out": str(tmp_path / "gen")}})
    )
    assert run("generate", "--config", config) == 0
    rows = (tmp_path / "gen" / "cohort.csv").read_text().strip().splitlines()
    assert len(rows) == 31


@pytest.mark.parametrize(
    "text, message", [("{seed: 7}", "not valid JSON"), ("[7]", "must be a JSON object")]
)
def test_train_rejects_invalid_config_json(full_run, tmp_path, capsys, text, message):
    config = tmp_path / "bad.json"
    config.write_text(text)
    assert run("train", "--config", config, "--data", full_run / "cohort.csv", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and message in err
    assert not (tmp_path / "model.json").exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 60-record cohort, a 3-epoch model and the files every option can name,
    each unlike its option's default: a spec with other means, and a schema
    that calls Gender "Sex" and drops Unit 5, with no sidecar meta, so only
    --schema names it."""
    from edm_rulex import studydata
    from edm_rulex.schema import schema_document

    d = tmp_path_factory.mktemp("small")
    spec = studydata.default_population_spec().to_dict()
    spec["groups"]["Ma"]["means"][0] += 1.0
    _write(d / "spec.json", spec)
    _write(d / "planted.json", PLANTED)
    schema = schema_document(studydata.default_student_schema())
    schema = [{**a, "name": "Sex"} if a["name"] == "Gender" else a for a in schema]
    _write(d / "schema.json", [a for a in schema if a["name"] != "Unit 5"])
    assert run("generate", "--out", d, "--seed", "5", "--n", "60", "--schema", d / "schema.json") == 0
    (d / "cohort.meta.json").unlink()
    assert run(
        "train", "--data", d / "cohort.csv", "--schema", d / "schema.json", "--out", d,
        "--seed", "5", "--epochs", "3",
    ) == 0
    return d


def _option_values(d):
    """A value for every option in cli.OPTIONS but --out, small enough to run fast."""
    cohort = {"data": d / "cohort.csv", "schema": d / "schema.json"}
    return {
        "generate": {
            "seed": 3, "spec": d / "spec.json", "n": 40, "planted": d / "planted.json",
            "schema": d / "schema.json",
        },
        "train": {
            "seed": 3, **cohort, "hidden": 4, "rate": 0.1, "momentum": 0.5, "epochs": 3,
            "mse_target": 0.5,
        },
        "extract": {
            "seed": 3, **cohort, "model": d / "model.json", "pop": 10, "generations": 3,
            "crossover": 0.5, "mutation": 0.1, "tournament": 2, "elitism": 1, "confidence": 0.5,
            "epsilon": 0.1, "budget": 1,
        },
        "stats": {**cohort, "group_by": "Sex"},
    }


@pytest.mark.parametrize(
    "stage, option",
    [(stage, name) for stage, options in cli.OPTIONS.items() for name, *_ in options],
)
def test_config_key_and_flag_give_the_same_artifacts(small_run, tmp_path, stage, option):
    for how in ("flag", "config"):
        flags = {**_option_values(small_run)[stage], "out": tmp_path / how}
        section = {} if how == "flag" else {option: flags.pop(option)}
        config = tmp_path / f"{how}.json"
        config.write_text(json.dumps({stage: section}, default=str))
        argv = [stage, "--config", config]
        for name, value in flags.items():
            argv += [f"--{name.replace('_', '-')}", value]
        assert run(*argv) == 0
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    names = sorted(path.name for path in by_flag.iterdir())
    assert names and names == sorted(path.name for path in by_config.iterdir())
    for name in names:
        assert (by_flag / name).read_bytes() == (by_config / name).read_bytes(), name


def test_unknown_spec_path(tmp_path, capsys):
    assert run("generate", "--spec", tmp_path / "nope.json", "--out", tmp_path, "--seed", "1") == 4


def test_generate_rejects_a_nested_list_level(tmp_path, capsys):
    planted = tmp_path / "planted.json"
    rules = [{"when": {"Unit 1": [["F"]]}, "then": "F"}, {"when": {}, "then": "P"}]
    planted.write_text(json.dumps({"rules": rules, "noise": 0.0}))
    assert run("generate", "--out", tmp_path, "--seed", "5", "--n", "60", "--planted", planted) == 2
    assert "unknown token ['F'] for attribute 'Unit 1'" in capsys.readouterr().err


def _write(path, doc):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "case, field",
    [
        ("corrupt model", "model.json"),
        ("model without v", "'v'"),
        ("spec without groups", "'groups'"),
        ("planted rule without when", "'when'"),
        ("config epochs not a number", "'epochs'"),
        ("stats without sections", "'sections'"),
        ("model not an object", "network document must be a JSON object, got list"),
        ("model w not a matrix", "network needs matrices v and w"),
        ("spec not an object", "population spec must be a JSON object, got list"),
        ("spec group n not a number", "group 'Ma' field 'n' does not convert: 'abc'"),
    ],
)
def test_malformed_json_inputs_exit_2(full_run, tmp_path, capsys, case, field):
    from edm_rulex import studydata

    run_dir = tmp_path / "run"
    shutil.copytree(full_run, run_dir)
    data, model = run_dir / "cohort.csv", run_dir / "model.json"
    out = tmp_path / "out"
    model_edits = {
        "corrupt model": lambda doc: '{"v": [',
        "model without v": lambda doc: _without(doc, "v"),
        "model not an object": lambda doc: [1, 2],
        "model w not a matrix": lambda doc: {**doc, "w": doc["b_o"]},
    }
    if case in model_edits:
        _write(model, model_edits[case](json.loads(model.read_text())))
        argv = ("extract", "--data", data, "--model", model, "--out", out)
    elif case.startswith("spec"):
        spec = studydata.default_population_spec().to_dict()
        if case == "spec without groups":
            spec = _without(spec, "groups")
        elif case == "spec not an object":
            spec = []
        else:
            spec["groups"]["Ma"]["n"] = "abc"
        argv = ("generate", "--spec", _write(tmp_path / "spec.json", spec), "--out", out)
    elif case == "planted rule without when":
        planted = {"rules": [{"then": "F"}, {"when": {}, "then": "P"}], "noise": 0.0}
        argv = ("generate", "--planted", _write(tmp_path / "planted.json", planted), "--out", out)
    elif case == "config epochs not a number":
        config = _write(tmp_path / "config.json", {"train": {"epochs": "abc"}})
        argv = ("train", "--config", config, "--data", data, "--out", out)
    else:
        stats = run_dir / "stats.json"
        _write(stats, _without(json.loads(stats.read_text()), "sections"))
        argv = ("report", run_dir)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    """The paper-sized default cohort at seed 7, trained a pinned 20 epochs."""
    d = tmp_path_factory.mktemp("study")
    assert run("generate", "--n", "97", "--seed", "7", "--out", d) == 0
    assert run(
        "train", "--data", d / "cohort.csv", "--epochs", "20", "--mse-target", "1e-9",
        "--seed", "7", "--out", d,
    ) == 0
    return d


def test_budget_5_ruleset_bytes(study_run, tmp_path):
    # SHA-256 of ruleset.json as written when each class's GA runs were
    # evolved one at a time, class after class; with budget 5 the classes
    # leave covering in different rounds, so it pins the round-major join
    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json", "model.json"):
        shutil.copy(study_run / name, tmp_path / name)
    assert run(
        "extract", "--data", tmp_path / "cohort.csv", "--model", tmp_path / "model.json",
        "--budget", "5", "--seed", "7", "--out", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "ruleset.json").read_text())
    rounds = {}
    for entry in doc["audit"]:
        rounds[entry["class"]] = rounds.get(entry["class"], 0) + 1
    assert rounds == {"F": 3, "P": 3, "G": 5, "V.G": 3}
    digest = hashlib.sha256((tmp_path / "ruleset.json").read_bytes()).hexdigest()
    assert digest == "4feea41a85b15ce8853325a9906a2383e6e3bfba7226dfc7090cfaf3f650faa2"


def test_train_saturated_short_of_the_clip_exits_3(study_run, tmp_path, capsys):
    # at rate 5 every output sinks to about 0 for every record long before
    # the sigmoid clip: mse 0.25 and one answer for a four-class cohort
    rc = run(
        "train", "--data", study_run / "cohort.csv", "--rate", "5", "--epochs", "50",
        "--seed", "7", "--out", tmp_path,
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "saturated" in err and "output layer" in err and "smaller learning rate" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--rate", "nan", "learning rate"),
        ("--rate", "inf", "learning rate"),
        ("--mse-target", "nan", "target mse"),
        ("--mse-target", "inf", "target mse"),
    ],
)
def test_train_rejects_non_finite_options(study_run, tmp_path, capsys, flag, value, name):
    # NaN passed every range check: --rate nan trained and exited 3 as a
    # divergence, and --mse-target nan trained the whole budget and exited 0
    rc = run(
        "train", "--data", study_run / "cohort.csv", flag, value, "--epochs", "2",
        "--seed", "7", "--out", tmp_path,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{name} must be finite, got {value}" in err and "Traceback" not in err
    assert not (tmp_path / "model.json").exists()


def test_config_key_naming_no_option_exits_2(tmp_path, capsys):
    config = _write(tmp_path / "config.json", {"generate": {"N": 30}})
    assert run("generate", "--config", config, "--seed", "7", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config section 'generate' has no option named 'N'" in err
    assert not (tmp_path / "out").exists()


def test_stats_group_by_needs_two_levels(study_run, tmp_path, capsys):
    assert run("stats", "--data", study_run / "cohort.csv", "--group-by", "Unit 1", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "--group-by 'Unit 1' has 4 levels" in err and "exactly 2" in err
    assert not (tmp_path / "stats.json").exists()
