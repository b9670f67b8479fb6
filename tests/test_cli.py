import json
import shutil
from importlib import resources

import jsonschema
import pytest

from edm_rulex import cli, rulekit
from edm_rulex.rulekit import parse_rule
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
        "Reference target checks",
    ):
        assert section in text
    assert "[FAIL]" not in text


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


def test_unknown_spec_path(tmp_path, capsys):
    assert run("generate", "--spec", tmp_path / "nope.json", "--out", tmp_path, "--seed", "1") == 4
