import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from edm_rulex import cli, rulekit, util
from edm_rulex.neural import TrainConfig, init_network, load_network
from edm_rulex.rulekit import parse_rule, parse_ruleset, ruleset_from_dict
from edm_rulex.schema import DatasetIndex, load_schema, schema_document
from edm_rulex.schema import Attribute, AttributeSchema, ROLE_TARGET, StudentRecord

from helpers import index_csv, reference_stats_sections, reference_train


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
    # the spec is recorded once: its seed, group order and sizes live only in population_spec
    assert set(meta) == {
        "config_hash", "master_seed", "generator", "population_spec", "schema", "discretization", "planted",
        "companions",
    }
    # each CSV's companion array, with both files' hashes as written
    names = ["cohort.csv", "cohort.meta.json", "cohort.npy", "cohort.raw.csv", "cohort.raw.npy"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    hashed = {name: util.file_sha256(tmp_path / name) for name in names}
    assert meta["companions"] == {
        csv: {"csv_hash": hashed[csv], "npy_hash": hashed[npy]}
        for csv, npy in (("cohort.csv", "cohort.npy"), ("cohort.raw.csv", "cohort.raw.npy"))
    }
    spec = meta["population_spec"]
    assert spec["group_order"] == ["Ma", "Fe"]
    assert {token: g["n"] for token, g in spec["groups"].items()} == {"Ma": 49, "Fe": 48}
    # a discretization is each raw dimension's cut points; the schema names the levels
    levels = {a["name"]: a["levels"] for a in meta["schema"]}
    assert set(meta["discretization"]) == set(spec["dimensions"])
    for dim, cuts in meta["discretization"].items():
        assert len(cuts) == len(levels[dim]) - 1 and all(isinstance(c, float) for c in cuts)


def test_train_stage_writes_the_reference_weights(tmp_path):
    # the stage reads the cohort from its .npy companion and seeds the network
    # from derive_seed(seed, "train"); on the default 76-bit layout and hidden
    # size its model is the per-pattern oracle's, bit for bit
    assert run("generate", "--n", "97", "--seed", "7", "--out", tmp_path) == 0
    assert (tmp_path / "cohort.npy").exists()
    argv = ("train", "--data", tmp_path / "cohort.csv", "--epochs", "3", "--mse-target", "1e-9")
    assert run(*argv, "--seed", "7", "--out", tmp_path) == 0
    schema = load_schema(json.loads((tmp_path / "cohort.meta.json").read_text())["schema"])
    assert schema.total_predictive_bits == 76
    config = TrainConfig(max_epochs=3, target_mse=1e-9, seed=util.derive_seed(7, "train"))
    index = DatasetIndex(schema, np.load(tmp_path / "cohort.npy"))
    expected = reference_train(init_network(schema, config), index, config)
    got = load_network(tmp_path / "model.json")
    for name in ("v", "b_h", "w", "b_o"):
        # tobytes also tells -0.0 from 0.0
        assert getattr(got, name).tobytes() == getattr(expected.network, name).tobytes()
    assert json.loads((tmp_path / "train_log.json").read_text())["mse_history"] == expected.mse_history


@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
@pytest.mark.parametrize(
    "array",
    [
        np.arange(12, dtype=np.int8).reshape(3, 4),
        np.asfortranarray(np.arange(12, dtype=">i8").reshape(4, 3)),
        np.linspace(-1.0, 1.0, 10).reshape(5, 2),
    ],
    ids=["int8", "fortran-big-endian-int64", "float64"],
)
def test_a_companion_table_is_a_read_only_view_of_the_hashed_bytes(array, version):
    stream = io.BytesIO()
    np.lib.format.write_array(stream, array, version=version)
    data = stream.getvalue()
    table, loaded = cli._npy_view(data), np.load(io.BytesIO(data))
    assert (table.dtype, table.shape, table.tobytes()) == (loaded.dtype, loaded.shape, loaded.tobytes())
    assert np.shares_memory(table, np.frombuffer(data, np.uint8))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1


def test_a_companion_in_npy_format_3_exits_2(tmp_path, capsys):
    # np.save writes format 3.0 only for structured dtypes with non-latin-1
    # field names, never for a table of codes or scores
    assert run("generate", "--n", "97", "--seed", "7", "--out", tmp_path) == 0
    npy = tmp_path / "cohort.npy"
    codes = np.load(npy)
    with open(npy, "wb") as stream:
        np.lib.format.write_array(stream, codes, version=(3, 0))
    meta = json.loads((tmp_path / "cohort.meta.json").read_text())
    meta["companions"]["cohort.csv"]["npy_hash"] = util.file_sha256(npy)
    (tmp_path / "cohort.meta.json").write_text(json.dumps(meta))
    assert run("train", "--data", tmp_path / "cohort.csv", "--epochs", "1", "--out", tmp_path / "run") == 2
    err = capsys.readouterr().err
    assert "cohort.npy is not a readable .npy file: format version 3.0 is not 1.0 or 2.0" in err
    assert "Traceback" not in err


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("generate", "--spec", "study-default", "--n", "97", "--seed", "7", "--out", out) == 0
    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _spec_with(tmp_path, dim, mean, sd):
    """The default population spec with ``dim``'s mean and sd set in both
    groups, written to ``tmp_path / "spec.json"``."""
    from edm_rulex import studydata

    spec = studydata.default_population_spec().to_dict()
    j = spec["dimensions"].index(dim)
    for group in spec["groups"].values():
        group["means"][j], group["sds"][j] = mean, sd
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return tmp_path / "spec.json"


def test_generate_names_the_dimension_whose_cuts_coincide(tmp_path, capsys):
    # with sd 0 both tertiles of Challenge are 20, so its three levels get no cut between them
    spec = _spec_with(tmp_path, "Challenge", 20.0, 0.0)
    out = tmp_path / "out"
    assert run("generate", "--spec", spec, "--n", "60", "--seed", "1", "--out", out) == 2
    err = capsys.readouterr().err
    assert "dimension 'Challenge'" in err and "[20.0, 20.0]" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_names_the_group_and_dimension_whose_scores_overflow(tmp_path):
    # mean + sd * z passes float64's 1.8e308; the sampler reports it before any
    # cut is taken, and warns of no overflow on the way, so even under
    # -W error::RuntimeWarning the stage exits 2 with its message
    spec = _spec_with(tmp_path, "Challenge", 1.7e308, 1.7e308)
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "edm_rulex.cli", "generate",
         "--spec", str(spec), "--n", "60", "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "group 'Ma', dimension 'Challenge'" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_stats_names_the_block_whose_scatter_overflows(tmp_path, capsys):
    # scores near 1e300 are finite, but their squares are not: the learning
    # skills block's MANOVA scatter overflows, a numeric failure of that block
    spec = _spec_with(tmp_path, "Management of dispersants", 1e300, 1e299)
    assert run("generate", "--spec", spec, "--n", "97", "--seed", "7", "--out", tmp_path) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert "stats block 'learning_skills'" in err and "overflow" in err
    assert not (tmp_path / "stats.json").exists()


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
    (tmp_path / "toy.csv").write_text(index_csv(DatasetIndex(schema, records)))
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", ["1e6", "1e308"])
def test_train_reports_saturation(full_run, tmp_path, capsys, rate):
    # a huge step drives pre-activations to the sigmoid clip, which used to
    # hide the divergence behind a finite mse and exit 0; at 1e308 the
    # updates overflow, which is reported the same way, with no warning
    rc = run(
        "train", "--data", full_run / "cohort.csv", "--out", tmp_path, "--seed", "0",
        "--rate", rate, "--epochs", "5",
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


def test_extract_rejects_a_non_string_schema_hash(full_run, tmp_path, capsys):
    model = json.loads((full_run / "model.json").read_text())
    model["metadata"]["schema_hash"] = 12345
    wrong = _write(tmp_path / "wrong_model.json", model)
    out = tmp_path / "out"
    rc = run("extract", "--data", full_run / "cohort.csv", "--model", wrong, "--out", out, "--seed", "0")
    assert rc == 2
    err = capsys.readouterr().err
    assert "wrong_model.json.metadata.schema_hash must be str, got 12345" in err and "Traceback" not in err
    assert not out.exists()


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


def _assert_stats_values(stats):
    """``stats.json`` holds to ``cli.STATS_SHAPE`` and to the ranges of its values."""
    stats = util.check(stats, cli.STATS_SHAPE, "stats.json")
    sections, inputs = stats["sections"], stats["inputs"]
    digests = [stats["config_hash"]] + [v for k, v in inputs.items() if k.endswith("_hash")]
    assert {"dataset", "dataset_hash"} <= inputs.keys() and isinstance(inputs["dataset"], str)
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    tt = sections["target_group_ttest"]
    assert all(g["n"] >= 2 and g["sd"] >= 0 for g in tt["groups"].values())
    assert tt["df"] > 0 and tt["method"] in ("pooled", "welch")
    tests = [tt]
    for block in sections["blocks"].values():
        assert 0 < block["wilks"]["lambda"] <= 1 and block["alpha"] <= 1
        tests += [block["wilks"], *block["univariate"].values(), *block["levene"].values()]
    for row in tests:
        assert all(0 <= row[k] <= 1 for k in ("p", "eta_squared") if k in row)
        assert all(row[k] >= 0 for k in ("f", "w", "ss_h", "ss_e") if k in row)
        assert row is tt or all(df >= 1 for df in row["df"])
        assert row.get("significance", "not") in ("0.01", "0.05", "not")
    skipped = sections.get("skipped_blocks")
    assert skipped is None or (skipped and all(skipped.values()))
    partials = sections["partial_correlations"]["groups"].values()
    assert all(-1 <= r <= 1 for entry in partials for r in entry.values())


def test_stats_direction_and_schema(full_run):
    stats = json.loads((full_run / "stats.json").read_text())
    tt = stats["sections"]["target_group_ttest"]
    assert tt["groups"]["Fe"]["mean"] > tt["groups"]["Ma"]["mean"]
    _assert_stats_values(stats)


_LEVENE = ("sections", "blocks", "motivation", "levene", "Total")
DELETE = object()  # _set's value that removes the field


@pytest.mark.parametrize(
    "path, value",
    [
        (("config_hash",), "abc"),
        (("inputs", "raw_hash"), "0" * 63),
        (("sections", "target_group_ttest", "groups", "Ma", "n"), 1),
        (("sections", "target_group_ttest", "groups", "Ma", "sd"), -0.1),
        (("sections", "target_group_ttest", "df"), 0.0),
        (("sections", "target_group_ttest", "p"), 1.5),
        (("sections", "target_group_ttest", "method"), "student"),
        (("sections", "target_group_ttest", "significance"), "0.1"),
        (("sections", "blocks", "motivation", "wilks", "lambda"), 0.0),
        (("sections", "blocks", "motivation", "wilks", "lambda"), 1.1),
        (("sections", "blocks", "motivation", "wilks", "eta_squared"), -0.1),
        (("sections", "blocks", "motivation", "wilks", "df", 0), 0),
        (("sections", "blocks", "motivation", "univariate", "Total", "ss_e"), -1.0),
        (("sections", "blocks", "motivation", "univariate", "Total", "significance"), "yes"),
        ((*_LEVENE, "w"), -1.0),
        ((*_LEVENE, "p"), -0.1),
        ((*_LEVENE, "df", 1), 0),
        (("sections", "blocks", "motivation", "alpha"), 1.2),
        (("sections", "skipped_blocks"), {"motivation": []}),
        (("sections", "partial_correlations", "groups", "Fe", "Challenge"), -1.5),
        (("inputs", "dataset"), DELETE),
    ],
)
def test_stats_value_check_rejects_each_range(full_run, path, value):
    stats = _set(json.loads((full_run / "stats.json").read_text()), path, value)
    with pytest.raises(AssertionError):
        _assert_stats_values(stats)


def test_stats_default_schema_skips_nothing(full_run, capsys):
    sections = json.loads((full_run / "stats.json").read_text())["sections"]
    assert "skipped_blocks" not in sections
    assert set(sections["blocks"]) == {"learning_skills", "motivation", "interaction"}


def _generate_with_scales(out, kept):
    """Generate a seed-3 cohort whose schema and raw table hold only the ``kept`` scales."""
    from edm_rulex import studydata

    schema = [{"name": "Gender", "levels": ["Ma", "Fe"], "role": "predictive"}]
    schema += [{"name": d, "levels": ["L", "M", "H"], "role": "predictive"} for d in kept]
    schema += [{"name": "Reasoning", "levels": ["F", "P", "G", "V.G"], "role": "target"}]
    out.mkdir()
    (out / "schema.json").write_text(json.dumps(schema))
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
    (out / "spec.json").write_text(json.dumps(spec))
    assert run(
        "generate", "--spec", out / "spec.json", "--schema", out / "schema.json",
        "--seed", "3", "--out", out,
    ) == 0


def test_stats_names_skipped_blocks(tmp_path, capsys):
    from edm_rulex import studydata

    # a custom schema with every learning-skill scale but only two
    # motivation scales and no interaction scale
    kept = studydata.LEARNING_SKILLS + ("Challenge", "Ambition")
    _generate_with_scales(tmp_path / "run", kept)
    capsys.readouterr()
    assert run("stats", "--data", tmp_path / "run" / "cohort.csv", "--out", tmp_path / "run") == 0
    err = capsys.readouterr().err
    missing_motivation = [d for d in studydata.MOTIVATION if d not in kept]
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 2
    assert "'motivation'" in warnings[0] and all(d in warnings[0] for d in missing_motivation)
    assert "'interaction'" in warnings[1] and all(d in warnings[1] for d in studydata.INTERACTION)
    stats = json.loads((tmp_path / "run" / "stats.json").read_text())
    assert list(stats["sections"]["blocks"]) == ["learning_skills"]
    assert stats["sections"]["skipped_blocks"] == {
        "motivation": missing_motivation,
        "interaction": list(studydata.INTERACTION),
    }
    _assert_stats_values(stats)

    # with every interaction scale the partial correlations are taken, but
    # only over the blocks reported: the skipped motivation block has none
    _generate_with_scales(tmp_path / "control", kept + studydata.INTERACTION)
    assert run("stats", "--data", tmp_path / "control" / "cohort.csv", "--out", tmp_path / "control") == 0
    sections = json.loads((tmp_path / "control" / "stats.json").read_text())["sections"]
    assert set(sections["blocks"]) == {"learning_skills", "interaction"}
    assert set(sections["skipped_blocks"]) == {"motivation"}
    partials = sections["partial_correlations"]
    assert partials["control"] == "+".join(studydata.INTERACTION)
    for entry in partials["groups"].values():
        assert set(entry) == {*studydata.LEARNING_SKILLS, "Total (learning_skills)"}


def test_stats_insufficient_data(tmp_path, capsys):
    assert run("generate", "--out", tmp_path, "--seed", "2", "--n", "2") == 0
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 2
    assert "insufficient" in capsys.readouterr().err


def test_stats_requires_raw_sidecar(full_run, tmp_path, capsys):
    shutil.copy(full_run / "cohort.csv", tmp_path / "cohort.csv")
    shutil.copy(full_run / "cohort.meta.json", tmp_path / "cohort.meta.json")
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 2
    assert "raw" in capsys.readouterr().err


def test_stats_reads_the_sidecars_of_a_dotted_cohort_name(study_run, tmp_path):
    # --data X.csv reads X.raw.csv and X.meta.json; cohort.v2.csv read the
    # cohort.raw.csv of the other cohort in its directory
    other, mixed = tmp_path / "other", tmp_path / "mixed"
    assert run("generate", "--n", "97", "--seed", "8", "--out", other) == 0
    mixed.mkdir()
    for suffix in ("csv", "raw.csv", "meta.json"):
        shutil.copy(study_run / f"cohort.{suffix}", mixed / f"cohort.{suffix}")
        shutil.copy(other / f"cohort.{suffix}", mixed / f"cohort.v2.{suffix}")
    assert run("stats", "--data", other / "cohort.csv", "--out", tmp_path / "own") == 0
    assert run("stats", "--data", mixed / "cohort.v2.csv", "--out", tmp_path / "dotted") == 0
    own, dotted = (json.loads((tmp_path / d / "stats.json").read_text()) for d in ("own", "dotted"))
    assert dotted["sections"] == own["sections"]
    assert dotted["inputs"]["raw"] == "cohort.v2.raw.csv"


@pytest.mark.parametrize("level, code", [("verbose", 2), ("info", 0)])
def test_edm_rulex_log_must_name_a_level(full_run, capsys, monkeypatch, level, code):
    # logging.basicConfig raised ValueError before main's error handling
    monkeypatch.setenv("EDM_RULEX_LOG", level)
    assert run("report", full_run) == code
    err = capsys.readouterr().err
    if code:
        assert err.splitlines() == ["error: EDM_RULEX_LOG='verbose' is not DEBUG, INFO, WARNING, ERROR or CRITICAL"]


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


def test_stats_rejects_a_population_spec_that_does_not_fit_the_raw_table(
    full_run, tmp_path, capsys
):
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    meta = json.loads((broken / "cohort.meta.json").read_text())
    meta["population_spec"]["groups"]["Ma"]["n"] += 5
    (broken / "cohort.meta.json").write_text(json.dumps(meta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("stats", "--data", broken / "cohort.csv", "--out", broken) == 2
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
    # stats checks the targets and records the edited sidecar's hash
    assert run("stats", "--data", failing / "cohort.csv", "--out", failing) == 0
    assert run("report", failing) == 0
    assert "Overall target checks: FAIL" in (failing / "report.txt").read_text()
    capsys.readouterr()
    assert run("report", "--strict", failing) == 1
    assert "target checks failed" in capsys.readouterr().err
    assert "Overall target checks: FAIL" in (failing / "report.txt").read_text()


def test_target_checks_pass_correct_cohorts():
    # generate's default cohort at n = 97 under 200 of its seeds: with each
    # of the 48 checks at 3 SE, 20 of the seeds failed; the family-wise
    # tolerance fails a correct cohort about 1 time in 400
    from edm_rulex import studydata
    from edm_rulex.synthgen import PopulationSpec, default_discretization, discretize_cohort
    from edm_rulex.synthgen import sample_population, target_checks

    base, schema = studydata.default_population_spec(), studydata.default_student_schema()
    failed = 0
    for seed in range(200):
        spec = PopulationSpec(base.dimensions, base.groups, util.derive_seed(seed, "generate"))
        cohort = sample_population(spec)
        disc = default_discretization(cohort, schema, studydata.SCORE_MAXIMA)
        index = DatasetIndex(schema, discretize_cohort(cohort, disc, schema))
        z, checks = target_checks(spec, cohort.dimensions, cohort.matrix, index)
        failed += not all(ok for *_, ok in checks)
    assert len(checks) == 48 and z == pytest.approx(4.03, abs=0.005)
    assert failed <= 4  # 2 %


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
def test_stats_reads_raw_columns_by_name(full_run, tmp_path, capsys, reshape):
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
    capsys.readouterr()
    if reshape.startswith("cut"):
        assert run("stats", "--data", reshaped / "cohort.csv", "--out", reshaped) == 2
        err = capsys.readouterr().err
        assert "cohort.raw.csv" in err and "Unit 5" in err and "Traceback" not in err
    else:
        assert run("stats", "--data", reshaped / "cohort.csv", "--out", reshaped) == 0
        assert run("report", reshaped) == 0
        assert _check_lines(reshaped / "report.txt") == _check_lines(full_run / "report.txt")


def test_stats_records_the_target_checks_of_the_raw_table(full_run):
    from edm_rulex.schema import read_index_csv
    from edm_rulex.synthgen import PopulationSpec, parse_raw_csv, target_checks

    meta = json.loads((full_run / "cohort.meta.json").read_text())
    with open(full_run / "cohort.raw.csv", encoding="utf-8") as stream:
        raw_dims, raw_matrix = parse_raw_csv(stream)
    with open(full_run / "cohort.csv", encoding="utf-8") as stream:
        index = read_index_csv(stream, load_schema(meta["schema"]))
    spec = PopulationSpec.from_dict(meta["population_spec"])
    z, checks = target_checks(spec, raw_dims, raw_matrix, index)
    stats = json.loads((full_run / "stats.json").read_text())
    assert stats["sections"]["target_checks"] == {"z": z, "checks": [list(c) for c in checks]}
    assert len(checks) == 48 and all(isinstance(c[5], bool) for c in checks)
    assert stats["inputs"]["meta"] == "cohort.meta.json"
    assert stats["inputs"]["meta_hash"] == util.file_sha256(full_run / "cohort.meta.json")


def test_report_parses_no_csv(full_run, tmp_path, monkeypatch):
    import numpy as np

    from edm_rulex import schema, synthgen

    copy = tmp_path / "run"
    shutil.copytree(full_run, copy)

    def refuse(*args, **kwargs):
        raise AssertionError("report parsed a CSV")

    for owner, name in ((cli, "parse_raw_csv"), (synthgen, "parse_raw_csv"), (np, "loadtxt"),
                        (cli, "read_index_csv"), (schema, "read_index_csv")):
        monkeypatch.setattr(owner, name, refuse)
    assert run("report", copy) == 0
    assert (copy / "report.txt").read_bytes() == (full_run / "report.txt").read_bytes()


def test_report_rejects_a_meta_edited_after_stats(full_run, tmp_path, capsys):
    # the target checks in stats.json were taken against the sidecar's spec
    stale = tmp_path / "stale"
    shutil.copytree(full_run, stale)
    meta = json.loads((stale / "cohort.meta.json").read_text())
    meta["population_spec"]["groups"]["Ma"]["means"][0] += 1000.0
    (stale / "cohort.meta.json").write_text(json.dumps(meta))
    assert run("report", stale) == 2
    err = capsys.readouterr().err
    assert "hash mismatch: stats.json was made from a different cohort.meta.json" in err


def test_stats_without_a_population_spec_records_no_target_checks(full_run, tmp_path, capsys):
    bare, run_dir = tmp_path / "bare", tmp_path / "run"
    bare.mkdir()
    shutil.copytree(full_run, run_dir)
    for name in ("cohort.csv", "cohort.raw.csv"):
        shutil.copy(full_run / name, bare / name)
    # a sidecar without a population spec still gives the schema, so it is an input
    meta = json.loads((full_run / "cohort.meta.json").read_text())
    _write(bare / "cohort.meta.json", _without(meta, "population_spec"))
    assert run("stats", "--data", bare / "cohort.csv", "--out", bare) == 0
    stats = json.loads((bare / "stats.json").read_text())
    assert "target_checks" not in stats["sections"] and stats["inputs"]["meta"] == "cohort.meta.json"
    # with no sidecar, stats reads the built-in schema, and report finds no target checks
    (bare / "cohort.meta.json").unlink()
    assert run("stats", "--data", bare / "cohort.csv", "--out", run_dir) == 0
    stats = json.loads((run_dir / "stats.json").read_text())
    assert "target_checks" not in stats["sections"] and "meta" not in stats["inputs"]
    capsys.readouterr()
    assert run("report", run_dir) == 2
    err = capsys.readouterr().err
    assert "stats.json.sections lacks the field 'target_checks'" in err and "Traceback" not in err


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
        (lambda log: [], "train_log.json must be a JSON object"),
        (lambda log: {**log, "final_mse": log["final_mse"] * 2}, "final_mse"),
        # a train_log.json of another run, or a history that ends elsewhere, was accepted
        (lambda log: {**log, "config_hash": "0" * 64}, "train_log.json config_hash '0000"),
        (lambda log: {**log, "mse_history": []}, "does not match an empty mse_history"),
        (lambda log: {**log, "mse_history": log["mse_history"][:-1] + [0.5]}, "mse_history[-1] 0.5"),
        (lambda log: _without(log, "mse_history"), "train_log.json lacks the field 'mse_history'"),
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
    assert "planted.json.rules[0].when['Unit 1'][0] must be str, got ['F']" in capsys.readouterr().err


def test_generate_rejects_a_planted_term_with_no_levels(tmp_path, capsys):
    # the term matched no record, so every label came from the catch-all
    planted = tmp_path / "planted.json"
    rules = [{"when": {"Unit 1": []}, "then": "G"}, {"when": {}, "then": "P"}]
    planted.write_text(json.dumps({"rules": rules}))
    out = tmp_path / "out"
    assert run("generate", "--out", out, "--seed", "5", "--n", "60", "--planted", planted) == 2
    err = capsys.readouterr().err
    assert "rules[0].when['Unit 1'] names no levels" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_rejects_a_planted_catch_all_before_the_last_rule(tmp_path, capsys):
    # the first catch-all matched every record, so all 60 were labelled G
    planted = tmp_path / "planted.json"
    rules = [{"when": {}, "then": "G"}, {"when": {"Unit 1": ["F"]}, "then": "F"}, {"when": {}, "then": "P"}]
    planted.write_text(json.dumps({"rules": rules}))
    out = tmp_path / "out"
    assert run("generate", "--out", out, "--seed", "1", "--n", "60", "--planted", planted) == 2
    err = capsys.readouterr().err
    assert "rules[0] is a catch-all" in err and "Traceback" not in err
    assert not out.exists()


def test_generate_rejects_planted_noise_on_a_one_level_target(tmp_path, capsys):
    # a noisy label flips to another target level, and this target has none
    schema = _write(tmp_path / "schema.json", [
        {"name": "Gender", "levels": ["Ma", "Fe"]},
        {"name": "Challenge", "levels": ["L", "M", "H"]},
        {"name": "Reasoning", "levels": ["G"], "role": "target"},
    ])
    planted = _write(tmp_path / "planted.json", {"rules": [{"when": {}, "then": "G"}], "noise": 0.1})
    out = tmp_path / "out"
    argv = ("--schema", schema, "--planted", planted, "--out", out, "--seed", "1", "--n", "60")
    assert run("generate", *argv) == 2
    err = capsys.readouterr().err
    assert "planted noise 0.1" in err and "target 'Reasoning'" in err and "Traceback" not in err
    assert not out.exists()


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
        ("config epochs not a number", "config.json.train.epochs must be int, got 'abc'"),
        ("stats without sections", "'sections'"),
        ("model not an object", "model.json must be a JSON object, got [1, 2]"),
        ("model w not a matrix", "model.json.w[0] must be a list"),
        ("spec not an object", "spec.json must be a JSON object, got []"),
        ("spec group n not a number", "spec.json.groups['Ma'].n must be int, got 'abc'"),
        ("sidecar spec group n not a number",
         "cohort.meta.json.population_spec.groups['Ma'].n must be int, got 'abc'"),
        # every stage holds the sidecar's cut points to their shape, since extract hashes them
        ("sidecar cut not a number", "cohort.meta.json.discretization['Unit 1'][0] must be float, got 'low'"),
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
    elif case.startswith("sidecar"):
        meta = json.loads((run_dir / "cohort.meta.json").read_text())
        if case == "sidecar cut not a number":
            meta["discretization"]["Unit 1"][0] = "low"
        else:
            meta["population_spec"]["groups"]["Ma"]["n"] = "abc"
        _write(run_dir / "cohort.meta.json", meta)
        argv = ("stats", "--data", data, "--out", out)
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
    # evolved one at a time, class after class, under the GA's draws since
    # the mutation clock (one uniform block and one block of geometric gaps
    # per run and generation), and checked then to be the same bytes on one
    # CPU, on two and under DEBUG logging; with budget 5 the classes leave
    # covering in different rounds, so it pins the round-major join
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
    assert rounds == {"F": 5, "P": 4, "G": 5, "V.G": 3}
    digest = hashlib.sha256((tmp_path / "ruleset.json").read_bytes()).hexdigest()
    assert digest == "2efe7feae160217f7b0664e7293f7d9703d5a345db670e8a830c0fbe92b17c70"


def test_each_audit_entry_records_its_runs_champion(study_run, tmp_path):
    # accepted and rejected rounds alike: re-evolving an entry's one run
    # alone, from its ga_seed, gives its chromosome, best fitness and ties;
    # the rules record no chromosome or fitness of their own
    from edm_rulex.evolver import GaConfig, evolve
    from edm_rulex.neural import class_score

    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json", "model.json"):
        shutil.copy(study_run / name, tmp_path / name)
    assert run(
        "extract", "--data", tmp_path / "cohort.csv", "--model", tmp_path / "model.json",
        "--budget", "5", "--seed", "7", "--out", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "ruleset.json").read_text())
    schema = load_schema(json.loads((tmp_path / "cohort.meta.json").read_text())["schema"])
    net = load_network(tmp_path / "model.json")
    assert {e["accepted"] for e in doc["audit"]} == {True, False}
    for entry in doc["audit"]:
        k = schema.target.levels.index(entry["class"])
        alone = evolve(
            lambda pop: class_score(net, pop, [k]), schema.total_predictive_bits, [GaConfig(seed=entry["ga_seed"])]
        )[0]
        assert entry["chromosome"] == alone.best_chromosome.tolist()
        assert len(entry["chromosome"]) == schema.total_predictive_bits
        assert entry["best_fitness"] == alone.best_fitness
        assert entry["champion_ties"] == alone.champion_ties
        assert "decoded_terms" not in entry
    assert {key for rule in doc["rules"] for key in rule} == {"terms", "consequent", "support", "confidence", "coverage"}


def test_each_audit_entry_records_the_generation_of_its_champion(study_run, tmp_path):
    # the generation whose running best first reached the champion's
    # fitness, 0 for the initial population, as re-evolving the entry's run
    # alone from its ga_seed gives it
    from edm_rulex.evolver import GaConfig, evolve
    from edm_rulex.neural import class_score

    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json", "model.json"):
        shutil.copy(study_run / name, tmp_path / name)
    assert run(
        "extract", "--data", tmp_path / "cohort.csv", "--model", tmp_path / "model.json",
        "--budget", "2", "--generations", "60", "--seed", "7", "--out", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "ruleset.json").read_text())
    schema = load_schema(json.loads((tmp_path / "cohort.meta.json").read_text())["schema"])
    net = load_network(tmp_path / "model.json")
    for entry in doc["audit"]:
        k = schema.target.levels.index(entry["class"])
        alone = evolve(
            lambda pop: class_score(net, pop, [k]), schema.total_predictive_bits,
            [GaConfig(generations=60, seed=entry["ga_seed"])],
        )[0]
        assert entry["champion_generation"] == alone.champion_generation
        assert 0 <= entry["champion_generation"] <= entry["ga_generations"] == 60


def test_no_stage_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 1 MB of resident memory and 9 ms to import, in the
    # parent and in each forked child; np.quantile and np.unique(..., axis=0)
    # would import it, so tertile cuts are taken by selection and champion
    # ties are counted without it.  Every stage in one fresh interpreter, as
    # perfbench runs them, since this one may hold it
    src = Path(cli.__file__).resolve().parents[1]
    d = str(tmp_path)
    stages = [
        ["generate", "--n", "97", "--seed", "7", "--out", d],
        ["train", "--data", f"{d}/cohort.csv", "--epochs", "5", "--seed", "7", "--out", d],
        ["extract", "--data", f"{d}/cohort.csv", "--model", f"{d}/model.json", "--budget", "2",
         "--seed", "7", "--out", d],
        ["stats", "--data", f"{d}/cohort.csv", "--out", d],
        ["report", d],
    ]
    code = (
        "import json, sys; from edm_rulex import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(stages)], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "False"  # numpy.ma not in sys.modules


def test_library_ruleset_is_the_written_ruleset(study_run, tmp_path):
    # extract_ruleset orders each class's rules by confidence itself, so
    # ruleset.json holds its rules in the order the library returns them
    from edm_rulex.evolver import GaConfig
    from edm_rulex.neural import load_network
    from edm_rulex.schema import read_index_csv

    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json", "model.json"):
        shutil.copy(study_run / name, tmp_path / name)
    settings = {"budget": 5, "confidence": 0.5, "epsilon": 0.05}
    flags = [x for name, value in settings.items() for x in (f"--{name}", value)]
    assert run(
        "extract", "--data", tmp_path / "cohort.csv", "--model", tmp_path / "model.json",
        *flags, "--seed", "7", "--out", tmp_path,
    ) == 0
    written_rules = json.loads((tmp_path / "ruleset.json").read_text())["rules"]
    schema = load_schema(json.loads((tmp_path / "cohort.meta.json").read_text())["schema"])
    with open(tmp_path / "cohort.csv", encoding="utf-8") as stream:
        index = read_index_csv(stream, schema)
    ruleset = rulekit.extract_ruleset(
        load_network(tmp_path / "model.json"), index,
        ga_config=GaConfig(seed=util.derive_seed(7, "extract")),
        per_class_rule_budget=settings["budget"],
        confidence_threshold=settings["confidence"],
        epsilon=settings["epsilon"],
    )
    confidences = {}
    for rule in ruleset.rules:
        confidences.setdefault(rule.consequent, set()).add(rule.confidence)
    assert any(len(c) > 1 for c in confidences.values())  # some class has an order to get wrong
    keys = [(schema.target.levels.index(r["consequent"]), -r["confidence"]) for r in written_rules]
    assert keys == sorted(keys)
    assert [(r.terms, r.consequent) for r in ruleset.rules] == [
        (tuple((t["attribute"], tuple(t["levels"])) for t in r["terms"]), r["consequent"])
        for r in written_rules
    ]


def test_extract_matches_each_refined_rule_once(study_run, monkeypatch):
    # in each covering round refine_rule matches the rule once for its miss
    # matrix and evaluate_rule once per call; the round itself matches the
    # refined rule again only when it accepts it, to drop the records it explains
    from edm_rulex.evolver import GaConfig
    from edm_rulex.schema import read_index_csv

    schema = load_schema(json.loads((study_run / "cohort.meta.json").read_text())["schema"])
    with open(study_run / "cohort.csv", encoding="utf-8") as stream:
        index = read_index_csv(stream, schema)
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(DatasetIndex, "misses")
    counted(rulekit, "refine_rule")
    counted(rulekit, "evaluate_rule")
    monkeypatch.setattr(util, "_usable_cpus", lambda: 1)  # no child process: every call counts here
    ruleset = rulekit.extract_ruleset(
        load_network(study_run / "model.json"), index,
        ga_config=GaConfig(seed=util.derive_seed(7, "extract")), per_class_rule_budget=5,
    )
    # the rounds in the order they ran: batch by batch (rounds 0-1, 2-3 and
    # 4, each batch starting at a power of two), class by class in each
    # batch, and round by round in each class
    levels = schema.target.levels
    entries = sorted(
        ruleset.audit,
        key=lambda e: (max(e["round"], 1).bit_length(), levels.index(e["class"]), e["round"]),
    )
    assert {e["accepted"] for e in entries} == {True, False}
    starts = [i for i, name in enumerate(calls) if name == "refine_rule"]
    assert starts[0] == 0 and len(starts) == len(entries)
    for entry, start, end in zip(entries, starts, starts[1:] + [len(calls)]):
        made = calls[start:end]
        assert made.count("misses") == 1 + made.count("evaluate_rule") + entry["accepted"], (entry, made)


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
def test_extract_names_a_hidden_unit_whose_weights_sum_past_float64(study_run, tmp_path, capsys):
    # a hand-written model.json whose hidden unit 3 has input weights summing
    # past float64's range: exit 3 naming the layer and unit, not NaN fitness
    model = json.loads((study_run / "model.json").read_text())
    model["v"][3] = [1e308] * len(model["v"][3])
    (tmp_path / "model.json").write_text(json.dumps(model))
    rc = run(
        "extract", "--data", study_run / "cohort.csv", "--model", tmp_path / "model.json",
        "--budget", "1", "--generations", "2", "--seed", "7", "--out", tmp_path,
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "hidden layer: the input weights of hidden unit 3 sum to inf" in err
    assert "Traceback" not in err and not (tmp_path / "ruleset.json").exists()


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


def test_a_byte_order_mark_changes_no_result(study_run, tmp_path):
    # with a BOM, stats skipped the learning_skills block (its first raw
    # column read as '\ufeffManagement') and train exited 2 on the header
    plain, bom = tmp_path / "plain", tmp_path / "bom"
    bom.mkdir()
    assert run("stats", "--data", study_run / "cohort.csv", "--out", plain) == 0
    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json"):
        text = (study_run / name).read_text(encoding="utf-8")
        (bom / name).write_text(("\ufeff" if name.endswith(".csv") else "") + text, encoding="utf-8")
    assert run(
        "train", "--data", bom / "cohort.csv", "--epochs", "20", "--mse-target", "1e-9",
        "--seed", "7", "--out", bom,
    ) == 0
    assert run("stats", "--data", bom / "cohort.csv", "--out", bom) == 0
    stats = [json.loads((d / "stats.json").read_text()) for d in (plain, bom)]
    assert stats[0]["sections"] == stats[1]["sections"]
    assert "skipped_blocks" not in stats[1]["sections"]
    models = [json.loads((d / "model.json").read_text()) for d in (study_run, bom)]
    for name in ("v", "b_h", "w", "b_o"):
        assert models[0][name] == models[1][name]


@pytest.mark.parametrize("bom", ["config", "spec", "planted"])
def test_a_byte_order_mark_in_a_json_input_changes_no_result(tmp_path, bom):
    # json.loads refused the file: Unexpected UTF-8 BOM (decode using utf-8-sig)
    from edm_rulex import studydata

    docs = {"config": {"seed": 7, "generate": {"n": 60}}, "planted": PLANTED,
            "spec": studydata.default_population_spec().to_dict()}
    for side in ("plain", "bom"):
        d = tmp_path / side
        d.mkdir()
        for name, doc in docs.items():
            mark = "\ufeff" if side == "bom" and name == bom else ""
            (d / f"{name}.json").write_text(mark + json.dumps(doc), encoding="utf-8")
        assert run(
            "generate", "--config", d / "config.json", "--spec", d / "spec.json",
            "--planted", d / "planted.json", "--out", d / "run",
        ) == 0
    for name in ("cohort.csv", "cohort.raw.csv", "cohort.meta.json"):
        assert (tmp_path / "bom" / "run" / name).read_bytes() == (tmp_path / "plain" / "run" / name).read_bytes()


@pytest.mark.parametrize("hidden", [10**40, 10**400])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_train_rejects_a_hidden_width_numpy_cannot_allocate(study_run, tmp_path, capsys, hidden, via):
    # 10**400 overflowed math.sqrt in init_network and 10**40 exceeded
    # numpy's largest dimension, each as a traceback
    if via == "flag":
        option = ["--hidden", hidden]
    else:
        option = ["--config", _write(tmp_path / "config.json", {"train": {"hidden": hidden}})]
    out = tmp_path / "out"
    assert run("train", "--data", study_run / "cohort.csv", *option, "--seed", "7", "--out", out) == 2
    err = capsys.readouterr().err
    assert f"hidden size {hidden} is too large" in err and "Traceback" not in err
    assert not (out / "model.json").exists()


def test_stats_group_by_needs_two_levels(study_run, tmp_path, capsys):
    assert run("stats", "--data", study_run / "cohort.csv", "--group-by", "Unit 1", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert "--group-by 'Unit 1' has 4 levels" in err and "exactly 2" in err
    assert not (tmp_path / "stats.json").exists()


def test_config_top_level_key_naming_no_stage_exits_2(full_run, tmp_path, capsys):
    # a misspelled section or top-level key was ignored: train ran on its defaults
    config = _write(tmp_path / "config.json", {"trian": {"epochs": 3}, "sed": 5})
    out = tmp_path / "out"
    assert run("train", "--config", config, "--data", full_run / "cohort.csv", "--out", out) == 2
    err = capsys.readouterr().err
    assert "config.json has no key named 'trian', 'sed'" in err and "Traceback" not in err
    assert not out.exists()


def _set(doc, path, value):
    """``doc`` with the field at ``path`` (keys and indices) set to ``value``,
    or removed for ``DELETE``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


_MOTIVATION = ("sections", "blocks", "motivation")


@pytest.mark.parametrize(
    "artifact, path, value, field",
    [
        ("ruleset.json", ("rules",), None, "ruleset.json.rules must be a list, got None"),
        ("ruleset.json", ("rules", 0), None, "ruleset.json.rules[0] must be a JSON object, got None"),
        ("ruleset.json", ("rules", 0, "confidence"), None, "ruleset.json.rules[0].confidence must be float"),
        ("ruleset.json", ("rules", 0, "confidence"), "x", "ruleset.json.rules[0].confidence must be float"),
        ("ruleset.json", ("rules", 0, "confidence"), [], "ruleset.json.rules[0].confidence must be float"),
        ("stats.json", ("sections",), None, "stats.json.sections must be a JSON object, got None"),
        ("stats.json", ("sections", "blocks"), None, "stats.json.sections.blocks must be a JSON object"),
        ("stats.json", ("sections", "blocks", "motivation", "alpha"), None, "'motivation'].alpha must be float"),
        ("stats.json", ("sections", "blocks", "motivation", "alpha"), "x", "'motivation'].alpha must be float"),
        ("stats.json", ("sections", "blocks", "motivation", "alpha"), [], "'motivation'].alpha must be float"),
        ("stats.json", ("sections", "blocks", "motivation", "wilks", "df"), [], "wilks.df must be a list of 2"),
        ("stats.json", ("sections", "blocks", "motivation", "wilks", "p"), "x", "wilks.p must be float, got 'x'"),
        # report read only the t-test, the Wilks rows and alpha of stats.json
        ("stats.json", (*_MOTIVATION, "wilks", "df", 0), 8.0, "wilks.df[0] must be int, got 8.0"),
        ("stats.json", (*_MOTIVATION, "univariate", "Total", "ms_e"), DELETE,
         "univariate['Total'] lacks the field 'ms_e'"),
        ("stats.json", (*_MOTIVATION, "univariate", "Total", "df"), [1.0, 95],
         "univariate['Total'].df[0] must be int, got 1.0"),
        ("stats.json", (*_MOTIVATION, "univariate", "Total", "significance"), 0.01,
         "univariate['Total'].significance must be str"),
        ("stats.json", (*_MOTIVATION, "levene"), DELETE, "['motivation'] lacks the field 'levene'"),
        ("stats.json", (*_MOTIVATION, "levene", "Total", "w"), "x", "levene['Total'].w must be float, got 'x'"),
        ("stats.json", (*_MOTIVATION, "levene", "Total", "df"), [1], "levene['Total'].df must be a list of 2"),
        ("stats.json", ("sections", "target_group_ttest", "method"), DELETE,
         "target_group_ttest lacks the field 'method'"),
        ("stats.json", ("sections", "partial_correlations"), None,
         "stats.json.sections.partial_correlations must be a JSON object, got None"),
        ("stats.json", ("sections", "partial_correlations"), DELETE,
         "stats.json.sections lacks the field 'partial_correlations'"),
        ("stats.json", ("sections", "partial_correlations", "control"), DELETE,
         "partial_correlations lacks the field 'control'"),
        ("stats.json", ("sections", "partial_correlations", "groups", "Fe", "Challenge"), "x",
         "partial_correlations.groups['Fe']['Challenge'] must be float, got 'x'"),
        ("stats.json", ("sections", "skipped_blocks"), "x",
         "stats.json.sections.skipped_blocks must be a JSON object, got 'x'"),
        ("stats.json", ("sections", "skipped_blocks"), {"motivation": "Challenge"},
         "skipped_blocks['motivation'] must be a list, got 'Challenge'"),
        # without population_spec, report checked no generation target and exited 0
        ("cohort.meta.json", ("population_spec",), DELETE,
         "cohort.meta.json lacks the field 'population_spec'"),
        ("cohort.meta.json", ("population_spec",), None,
         "cohort.meta.json.population_spec must be a JSON object, got None"),
        # report reads the target checks that stats recorded
        ("stats.json", ("sections", "target_checks"), None,
         "stats.json.sections.target_checks must be a JSON object, got None"),
        ("stats.json", ("sections", "target_checks", "checks", 0, 5), "yes",
         "stats.json.sections.target_checks.checks[0][5] must be bool, got 'yes'"),
    ],
)
def test_report_names_the_malformed_field(full_run, tmp_path, capsys, artifact, path, value, field):
    # each of these was a raw traceback (TypeError, KeyError or IndexError)
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    _write(broken / artifact, _set(json.loads((broken / artifact).read_text()), path, value))
    assert run("report", broken) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, path, value, field",
    [
        ("spec.json", ("groups", "Ma", "n"), 1.5, "spec.json.groups['Ma'].n must be int, got 1.5"),
        ("spec.json", ("groups", "Ma", "n"), True, "spec.json.groups['Ma'].n must be int, got True"),
        ("spec.json", ("seed",), 2.7, "spec.json.seed must be int, got 2.7"),
        ("config.json", ("seed",), 1.9, "config.json.seed must be int, got 1.9"),
        ("config.json", ("generate", "n"), 30.7, "config.json.generate.n must be int, got 30.7"),
        ("planted.json", ("noise",), "0.1", "planted.json.noise must be float, got '0.1'"),
        ("planted.json", ("rules", 0, "when"), "F", "planted.json.rules[0].when must be a JSON object"),
        ("planted.json", ("rules", 0, "when", "Unit 1"), "F", "when['Unit 1'] must be a list, got 'F'"),
    ],
)
def test_generate_converts_no_json_value(tmp_path, capsys, name, path, value, field):
    # each of these was converted on read (int(1.5), float("0.1"), a string
    # iterated as a level list) and generated a cohort
    from edm_rulex import studydata

    docs = {
        "spec.json": studydata.default_population_spec().to_dict(),
        "config.json": {"seed": 5, "generate": {"n": 60}},
        "planted.json": PLANTED,
    }
    docs[name] = _set(docs[name], path, value)
    spec, config, planted = (_write(tmp_path / file, doc) for file, doc in docs.items())
    out = tmp_path / "out"
    assert run("generate", "--spec", spec, "--config", config, "--planted", planted, "--out", out) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()


def test_generate_rejects_a_ragged_correlation_matrix(tmp_path, capsys):
    # np.asarray raised a ValueError traceback on the inhomogeneous rows
    from edm_rulex import studydata

    spec = studydata.default_population_spec().to_dict()
    spec["groups"]["Fe"]["correlation"][3] = [1.0]
    out = tmp_path / "out"
    assert run("generate", "--spec", _write(tmp_path / "spec.json", spec), "--out", out) == 2
    err = capsys.readouterr().err
    assert "group 'Fe': correlation must be 24x24" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda lines: ["garbage"], "rules.txt does not parse"),
        (lambda lines: lines[:1] + lines[-1:], "rules.txt line 2 'Default Reasoning = "),
        (lambda lines: lines[1:2] + lines[:1] + lines[2:], "rules.txt line 1 "),
        (lambda lines: lines[:-1] + ["Default Reasoning = V.G"], "'Default Reasoning = V.G' differs"),
    ],
)
def test_report_checks_rules_txt_against_ruleset(full_run, tmp_path, capsys, edit, line):
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    lines = (broken / "rules.txt").read_text().splitlines()
    assert len(lines) >= 3 and lines[0] != lines[1] and lines[-1] != "Default Reasoning = V.G"
    (broken / "rules.txt").write_text("\n".join(edit(lines)) + "\n")
    assert run("report", broken) == 2
    err = capsys.readouterr().err
    assert line in err and "Traceback" not in err


def test_report_rejects_a_rule_term_naming_the_target(full_run, tmp_path, capsys):
    # RuleSet.predict matched such a term against each record's own label,
    # while RuleSet.accuracy raised; report named only rules.txt
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    ruleset = json.loads((broken / "ruleset.json").read_text())
    terms = ruleset["rules"][0]["terms"]
    terms.append({"attribute": "Reasoning", "levels": ["G"]})
    _write(broken / "ruleset.json", ruleset)
    assert run("report", broken) == 2
    err = capsys.readouterr().err
    field = f"ruleset.json.rules[0].terms[{len(terms) - 1}].attribute names the target 'Reasoning'"
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        # format_rule cannot write a term of an attribute the schema lacks
        (lambda rule: rule["terms"].append({"attribute": "Shoe size", "levels": ["F"]}),
         "rules.txt line 1"),
    ],
)
def test_report_rejects_a_rule_text_that_is_not_its_rule(full_run, tmp_path, capsys, edit, message):
    # report prints format_rule of each rule, so a rule that rules.txt does
    # not hold stops it before any line is written
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    ruleset = json.loads((broken / "ruleset.json").read_text())
    edit(ruleset["rules"][0])
    _write(broken / "ruleset.json", ruleset)
    assert run("report", broken) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert (broken / "report.txt").read_bytes() == (full_run / "report.txt").read_bytes()


@pytest.mark.parametrize("repeat", [False, True])
def test_report_reads_terms_and_levels_in_any_order(full_run, tmp_path, capsys, repeat):
    # report compared each term's levels as listed, so a ruleset.json whose
    # term ["P", "F"] format_rule writes as "(... = F or ... = P)" exited 2;
    # a repeated term is still refused, as format_rule writes it twice
    shuffled = tmp_path / "shuffled"
    shutil.copytree(full_run, shuffled)
    (shuffled / "report.txt").unlink()
    doc = json.loads((shuffled / "ruleset.json").read_text())
    for rule in doc["rules"]:
        rule["terms"] = [{**t, "levels": t["levels"][::-1]} for t in rule["terms"][::-1]]
    if repeat:
        doc["rules"][0]["terms"] *= 2
    assert doc != json.loads((full_run / "ruleset.json").read_text())
    util.write_json(shuffled / "ruleset.json", doc)
    if repeat:
        assert run("report", shuffled) == 2
        err = capsys.readouterr().err
        assert "rules.txt line 1 " in err and "differs from ruleset.json" in err and "Traceback" not in err
        assert not (shuffled / "report.txt").exists()
    else:
        assert run("report", shuffled) == 0
        assert (shuffled / "report.txt").read_bytes() == (full_run / "report.txt").read_bytes()


@pytest.mark.parametrize("text", ["as written", "stale"])
def test_report_reads_a_run_directory_in_the_earlier_format(full_run, tmp_path, text):
    # ruleset.json's rules once held their text, vacuous flag, fitness and
    # chromosome, and train_log.json its epochs_run; no artifact records
    # either file as an input, so such a run still reports, and it prints
    # each rule from its terms, never a recorded text
    old = tmp_path / "old"
    shutil.copytree(full_run, old)
    (old / "report.txt").unlink()
    doc = json.loads((old / "ruleset.json").read_text())
    lines = (old / "rules.txt").read_text().splitlines()
    for rule, line in zip(doc["rules"], lines):
        rule.update(text=line if text == "as written" else "If Gender = Fe → Then Reasoning = V.G",
                    vacuous=rule["support"] == 0, fitness=0.9, chromosome=[0, 1])
    util.write_json(old / "ruleset.json", doc)
    log = json.loads((old / "train_log.json").read_text())
    util.write_json(old / "train_log.json", {**log, "epochs_run": len(log["mse_history"])})
    assert run("report", old) == 0
    assert (old / "report.txt").read_bytes() == (full_run / "report.txt").read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda model: model["b_h"].pop(), "inconsistent layer shapes"),
        (lambda model: model["w"][0].pop(), "v and w must be rectangular matrices"),
    ],
)
def test_report_reads_the_layer_sizes_off_the_model_arrays(full_run, tmp_path, capsys, edit, message):
    # model.json records no sizes; report reads them off the arrays, so
    # arrays that do not make a network exit 2 naming the file
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    model = json.loads((broken / "model.json").read_text())
    assert not {"input_size", "hidden_size", "output_size"} & set(model)
    net = load_network(broken / "model.json")
    report = (broken / "report.txt").read_text()
    assert f"Model: {net.input_size}-{net.hidden_size}-{net.output_size}, " in report
    edit(model)
    _write(broken / "model.json", model)
    assert run("report", broken) == 2
    err = capsys.readouterr().err
    assert "model.json" in err and message in err and "Traceback" not in err


def test_report_reads_a_rules_txt_with_a_byte_order_mark(full_run, tmp_path):
    # rules.txt was read as plain UTF-8, so its first line began with U+FEFF and did not parse
    bom = tmp_path / "bom"
    shutil.copytree(full_run, bom)
    (bom / "report.txt").unlink()
    (bom / "rules.txt").write_bytes(b"\xef\xbb\xbf" + (full_run / "rules.txt").read_bytes())
    assert run("report", bom) == 0
    assert (bom / "report.txt").read_bytes() == (full_run / "report.txt").read_bytes()


_FAST_EXTRACT = ("--pop", "20", "--generations", "5", "--budget", "1", "--seed", "7")


def test_extract_rejects_a_cohort_cut_at_other_points(study_run, tmp_path, capsys):
    # two cohorts of one spec share a schema but not their tertile cuts, and a
    # model trained on one read the other's levels as its own and exited 0
    other = tmp_path / "seed8"
    assert run("generate", "--n", "97", "--seed", "8", "--out", other) == 0
    trained_on = json.loads((study_run / "model.json").read_text())["metadata"]["discretization_hash"]
    given = util.config_hash(json.loads((other / "cohort.meta.json").read_text())["discretization"])
    assert trained_on != given
    out = tmp_path / "out"
    model = study_run / "model.json"
    assert run("extract", "--data", other / "cohort.csv", "--model", model, *_FAST_EXTRACT, "--out", out) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and not out.exists()
    assert err.splitlines() == [f"error: discretization mismatch between model and dataset: "
                                f"model has {trained_on[:12]}..., dataset has {given[:12]}..."]
    assert run("extract", "--data", study_run / "cohort.csv", "--model", model, *_FAST_EXTRACT, "--out", out) == 0


@pytest.mark.parametrize("side", ["model", "dataset"])
def test_extract_checks_no_cuts_that_one_side_lacks(study_run, tmp_path, side):
    # a model from before the cuts were recorded, or a hand-made cohort with no sidecar
    other = tmp_path / "seed8"
    assert run("generate", "--n", "97", "--seed", "8", "--out", other) == 0
    model = json.loads((study_run / "model.json").read_text())
    data = other / "cohort.csv"
    if side == "model":
        del model["metadata"]["discretization_hash"]
    else:
        (other / "cohort.meta.json").unlink()
    _write(tmp_path / "model.json", model)
    assert run("extract", "--data", data, "--model", tmp_path / "model.json", *_FAST_EXTRACT,
               "--out", tmp_path / "out") == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("source", ["cohort.raw.csv", "cohort.raw.npy"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_stats_names_a_non_finite_raw_score(tmp_path, capsys, value, source):
    # stats printed numpy's RuntimeWarnings, then "x must be in [0,1], got nan"
    assert run("generate", "--n", "60", "--seed", "7", "--out", tmp_path) == 0
    raw, npy = tmp_path / "cohort.raw.csv", tmp_path / "cohort.raw.npy"
    header, *rows = raw.read_text(encoding="utf-8").splitlines(keepends=True)
    if source == "cohort.raw.csv":
        npy.unlink()
        cells = rows[4].split(",")
        cells[2] = value
        raw.write_text("".join([header, *rows[:4], ",".join(cells), *rows[5:]]), encoding="utf-8")
    else:
        table = np.load(npy)
        table[4, 2] = float(value)
        np.save(npy, table)
        meta = json.loads((tmp_path / "cohort.meta.json").read_text())
        meta["companions"]["cohort.raw.csv"]["npy_hash"] = util.file_sha256(npy)
        _write(tmp_path / "cohort.meta.json", meta)
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 2
    err = capsys.readouterr().err
    column = header.split(",")[2]
    assert err == f"error: cohort.raw.csv row 5, column {column!r}: score {float(value)!r} is not finite\n"
    assert not (tmp_path / "stats.json").exists()


def test_target_checks_split_a_shuffled_cohort_by_its_group_column(study_run, tmp_path):
    # the checks took each group's rows by position, so shuffling the rows
    # of both CSVs the same way moved the means and failed a check
    shuffled = tmp_path / "shuffled"
    shuffled.mkdir()
    shutil.copy(study_run / "cohort.meta.json", shuffled)
    order = np.random.default_rng(0).permutation(97)
    for name in ("cohort.csv", "cohort.raw.csv"):
        header, *rows = (study_run / name).read_text(encoding="utf-8").splitlines(keepends=True)
        (shuffled / name).write_text("".join([header, *(rows[i] for i in order)]), encoding="utf-8")
    checks = {}
    for key, data in (("plain", study_run / "cohort.csv"), ("shuffled", shuffled / "cohort.csv")):
        assert run("stats", "--data", data, "--out", tmp_path / key) == 0
        stats = json.loads((tmp_path / key / "stats.json").read_text())
        checks[key] = stats["sections"]["target_checks"]["checks"]
    assert len(checks["plain"]) == len(checks["shuffled"]) == 48
    for (*key, mean, target, tol, ok), (*key2, mean2, target2, tol2, ok2) in zip(*checks.values()):
        assert (key, target, tol, ok) == (key2, target2, tol2, ok2)
        assert abs(mean - mean2) <= 1e-12


def test_stats_of_interleaved_groups_equal_the_row_copy_oracle(tmp_path):
    # stats gathers each statistic's columns of a group's rows by index; with
    # the groups' rows interleaved, every number equals the computation on
    # copies of each group's whole rows, down to the last bit
    from edm_rulex.schema import read_index_csv
    from edm_rulex.synthgen import PopulationSpec, parse_raw_csv

    assert run("generate", "--n", "400", "--seed", "7", "--out", tmp_path) == 0
    order = np.random.default_rng(4).permutation(400)
    for name in ("cohort.csv", "cohort.raw.csv"):
        header, *rows = (tmp_path / name).read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / name).write_text("".join([header, *(rows[i] for i in order)]), encoding="utf-8")
        npy = (tmp_path / name).with_suffix(".npy")
        np.save(npy, np.load(npy)[order])
    meta = json.loads((tmp_path / "cohort.meta.json").read_text())
    for name, entry in meta["companions"].items():
        entry.update(csv_hash=cli.file_sha256(tmp_path / name),
                     npy_hash=cli.file_sha256((tmp_path / name).with_suffix(".npy")))
    (tmp_path / "cohort.meta.json").write_text(json.dumps(meta))
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 0

    schema = load_schema(meta["schema"])
    with open(tmp_path / "cohort.csv", encoding="utf-8") as stream:
        index = read_index_csv(stream, schema)
    with open(tmp_path / "cohort.raw.csv", encoding="utf-8") as stream:
        raw_dims, raw_matrix = parse_raw_csv(stream)
    assert (np.diff(index.column("Gender")) != 0).sum() > 100  # the groups interleave
    spec = PopulationSpec.from_dict(meta["population_spec"])
    want = reference_stats_sections(index, raw_dims, raw_matrix, "Gender", spec)
    assert json.loads((tmp_path / "stats.json").read_text())["sections"] == want


def test_stats_with_a_non_finite_statistic_exits_3(tmp_path, capsys):
    # equal within-group deviations make Levene's W infinite; stats wrote
    # the bare token Infinity into stats.json and exited 0
    assert run("generate", "--n", "60", "--seed", "7", "--out", tmp_path) == 0
    with open(tmp_path / "cohort.csv", encoding="utf-8") as f:
        genders = [row["Gender"] for row in csv.DictReader(f)]
    raw = tmp_path / "cohort.raw.csv"
    lines = raw.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    j = header.index("Management of dispersants")
    seen = {"Ma": 0, "Fe": 0}
    for i, gender in enumerate(genders, start=1):
        cells = lines[i].split(",")
        cells[j] = "20.0" if seen[gender] % 2 == 0 else ("22.0" if gender == "Ma" else "24.0")
        seen[gender] += 1
        lines[i] = ",".join(cells)
    assert all(count % 2 == 0 for count in seen.values())
    raw.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    assert run("stats", "--data", tmp_path / "cohort.csv", "--out", tmp_path) == 3
    err = capsys.readouterr().err
    assert "stats.json would hold stats.json['sections']['blocks']['learning_skills']" in err
    assert "['levene']['Management of dispersants']['w'] = inf" in err and "Traceback" not in err
    assert not (tmp_path / "stats.json").exists()


# report parses no raw table, so stats is the one stage that reads its header
@pytest.mark.parametrize("stage", ["stats"])
def test_a_raw_header_naming_a_column_twice_exits_2(full_run, tmp_path, capsys, stage):
    # stats computed 'Management of dispersants' from the second such column
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    raw = broken / "cohort.raw.csv"
    text = raw.read_text(encoding="utf-8")
    raw.write_text(text.replace("Management of study time", "Management of dispersants", 1), encoding="utf-8")
    assert run(stage, "--data", broken / "cohort.csv", "--out", broken) == 2
    err = capsys.readouterr().err
    assert "raw CSV header names 'Management of dispersants' more than once" in err
    assert "Traceback" not in err


HUGE = 10**20  # past numpy's index range, so no array of it is ever asked for


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "stage, option, message",
    [
        ("extract", "pop", f"population size {HUGE} is too large"),
        ("extract", "tournament", f"tournament size {HUGE} is too large"),
        ("generate", "n", "group 'Ma': n "),
    ],
)
def test_a_size_past_numpy_index_range_exits_2(full_run, tmp_path, capsys, stage, option, message, via):
    # each of these ended in an OverflowError or ValueError traceback
    if via == "flag":
        argv = [f"--{option}", HUGE]
    else:
        argv = ["--config", _write(tmp_path / "config.json", {stage: {option: HUGE}})]
    if stage == "extract":
        argv += ["--data", full_run / "cohort.csv", "--model", full_run / "model.json"]
    out = tmp_path / "out"
    assert run(stage, *argv, "--seed", "7", "--out", out) == 2
    err = capsys.readouterr().err
    assert message in err and "is too large" in err and "exceeds the largest array numpy can index" in err
    assert "Traceback" not in err and not out.exists()


def test_a_population_past_numpy_index_range_on_a_small_schema_exits_2(tmp_path, capsys):
    # on 4 bits the uint8 stack of 5 * 10**17 chromosomes fits numpy's index
    # range, but the GA's float64 uniform block does not; the message named
    # the default tournament size, 3, rather than the population
    schema = AttributeSchema((
        Attribute("A", ("a1", "a2")), Attribute("B", ("b1", "b2")), Attribute("T", ("t1", "t2"), ROLE_TARGET),
    ))
    records = [StudentRecord({"A": a, "B": b, "T": "t1" if a == "a1" else "t2"}) for a in ("a1", "a2") for b in ("b1", "b2")]
    (tmp_path / "toy.csv").write_text(index_csv(DatasetIndex(schema, records)))
    _write(tmp_path / "toy.schema.json", schema_document(schema))
    cohort = ["--data", tmp_path / "toy.csv", "--schema", tmp_path / "toy.schema.json", "--seed", "1"]
    assert run("train", *cohort, "--out", tmp_path) == 0
    out = tmp_path / "out"
    assert run("extract", *cohort, "--model", tmp_path / "model.json", "--pop", 5 * 10**17, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"population size {5 * 10**17} is too large" in err and "bytes of float64" in err
    assert "tournament" not in err and "Traceback" not in err and not out.exists()


# Inside numpy's index range, but every array of it that generate or extract
# asks for needs more than 2**57 bytes, which no address space maps, so the
# allocation fails before anything is allocated.
UNMAPPABLE = 10**16


@pytest.mark.parametrize("stage, option", [("extract", "pop"), ("generate", "n")])
def test_a_size_past_the_address_space_exits_3(full_run, tmp_path, capsys, stage, option):
    # a half cohort's float64 scores of 24 dimensions; one GA run's 76-bit population
    assert min(UNMAPPABLE // 2 * 24 * 8, UNMAPPABLE * 76) > 2**57
    argv = [f"--{option}", UNMAPPABLE]
    if stage == "extract":
        argv += ["--data", full_run / "cohort.csv", "--model", full_run / "model.json", "--budget", "1"]
    out = tmp_path / "out"
    assert run(stage, *argv, "--seed", "7", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "stage, option, size, elements, message",
    [
        # a half cohort's float64 scores of 24 dimensions
        ("generate", "n", 2 * 10**17, 10**17 * 24, "group 'Ma': n "),
        # a hidden layer's float64 weights on 76 inputs
        ("train", "hidden", 2 * 10**16, 2 * 10**16 * 76, f"hidden size {2 * 10**16} is too large"),
    ],
)
def test_a_size_whose_bytes_pass_numpy_index_range_exits_2(
    study_run, tmp_path, capsys, stage, option, size, elements, message
):
    # inside numpy's index range by elements, but not by bytes; each ended
    # in a ValueError traceback, exit 1
    assert elements < np.iinfo(np.intp).max < elements * 8
    argv = [f"--{option}", size]
    if stage == "train":
        argv += ["--data", study_run / "cohort.csv"]
    out = tmp_path / "out"
    assert run(stage, *argv, "--seed", "7", "--out", out) == 2
    err = capsys.readouterr().err
    assert message in err and "is too large" in err and "bytes of float64" in err
    assert "Traceback" not in err and not out.exists()


def test_a_spec_group_size_past_numpy_index_range_exits_2(tmp_path, capsys):
    from edm_rulex import studydata

    spec = studydata.default_population_spec().to_dict()
    spec["groups"]["Fe"]["n"] = HUGE
    out = tmp_path / "out"
    assert run("generate", "--spec", _write(tmp_path / "spec.json", spec), "--out", out) == 2
    err = capsys.readouterr().err
    assert f"group 'Fe': n {HUGE} is too large: an array of {HUGE} x 24 exceeds" in err
    assert "Traceback" not in err and not out.exists()


def test_a_cohort_past_numpy_index_range_exits_2(tmp_path, capsys):
    # each group's table fits numpy's index range but the one raw matrix of
    # both does not; sample_population would ask numpy for it before any draw
    from edm_rulex import studydata

    spec = studydata.default_population_spec().to_dict()
    n = np.iinfo(np.intp).max // (24 * 8) // 2 + 1
    for group in spec["groups"].values():
        group["n"] = n
    out = tmp_path / "out"
    assert run("generate", "--spec", _write(tmp_path / "spec.json", spec), "--out", out) == 2
    err = capsys.readouterr().err
    assert f"cohort of {2 * n} rows is too large: an array of {2 * n} x 24 exceeds" in err
    assert "Traceback" not in err and not out.exists()


def _empty_dimensions(spec):
    spec["dimensions"] = []
    for g in spec["groups"].values():
        g["means"], g["sds"], g["correlation"] = [], [], []


def _empty_groups(spec):
    spec["groups"], spec["group_order"] = {}, []


@pytest.mark.parametrize("n", [None, "60"])
@pytest.mark.parametrize(
    "edit, field", [(_empty_groups, "groups"), (_empty_dimensions, "dimensions")], ids=["groups", "dimensions"]
)
def test_generate_rejects_a_spec_with_nothing_to_sample(tmp_path, capsys, edit, field, n):
    # no groups raised "need at least one array to concatenate"; no dimensions
    # named no spec field ("cholesky_factor needs a square matrix")
    from edm_rulex import studydata

    spec = studydata.default_population_spec().to_dict()
    edit(spec)
    out = tmp_path / "out"
    argv = ["generate", "--spec", _write(tmp_path / "spec.json", spec), "--out", out]
    assert run(*argv, *(["--n", n] if n else [])) == 2
    err = capsys.readouterr().err
    assert f"population spec: {field} is empty" in err and "Traceback" not in err
    assert not out.exists()


def _append_bytes(data):
    def edit(path):
        with open(path, "ab") as f:
            f.write(data)
    return edit


def _second_line_starts_with(data):
    def edit(path):
        head, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head + b"\n" + data + rest)
    return edit


@pytest.mark.parametrize(
    "stage, name, edit",
    [
        ("train", "config.json", lambda path: path.write_bytes(b"\xff\xfe")),
        ("train", "config.json", lambda path: path.write_text("[" * 100_000)),
        ("train", "cohort.csv", _second_line_starts_with("é".encode("latin-1"))),
        ("train", "cohort.csv", _second_line_starts_with(b"x" * 200_000)),
        ("stats", "cohort.raw.csv", _second_line_starts_with(b"x" * 200_000)),
        ("report", "rules.txt", _append_bytes(b"\xff")),
        ("report", "ruleset.json", _append_bytes(b"\xff")),
    ],
    ids=["config-not-utf8", "config-nested-past-recursion-limit", "csv-latin1", "csv-long-field",
         "raw-csv-long-field", "rules-txt-not-utf8", "ruleset-json-not-utf8"],
)
def test_input_that_cannot_be_decoded_exits_2(full_run, tmp_path, capsys, stage, name, edit):
    # each raised UnicodeDecodeError, RecursionError or csv.Error, exit 1
    broken = tmp_path / "broken"
    shutil.copytree(full_run, broken)
    edit(broken / name)
    argv = {
        "train": ["train", "--data", broken / "cohort.csv", "--out", tmp_path / "out"],
        "stats": ["stats", "--data", broken / "cohort.csv", "--out", tmp_path / "out"],
        "report": ["report", broken],
    }[stage]
    if name == "config.json":
        argv += ["--config", broken / name]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()
