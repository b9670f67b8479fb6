"""Output checks and rule-quality figures, computed outside the timed region."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

ARTIFACTS = (
    "cohort.csv",
    "cohort.raw.csv",
    "cohort.meta.json",
    "model.json",
    "train_log.json",
    "ruleset.json",
    "rules.txt",
    "stats.json",
    "report.txt",
)


def artifact_hashes(run_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (run_dir / name).exists()
    }


def rule_fidelity(ruleset, net, records, schema) -> float:
    """Share of records where the ruleset's first-match prediction equals the
    network's argmax class."""
    from edm_rulex.neural import forward
    from edm_rulex.schema import encode_record

    levels = schema.target.levels
    agree = sum(
        ruleset.predict(r) == levels[int(np.argmax(forward(net, encode_record(r, schema).bits)))]
        for r in records
    )
    return agree / len(records)


def ruleset_mismatches(doc: dict, ruleset, records, schema) -> list[str]:
    """Recorded rule metrics and training accuracy that differ from a fresh
    ``evaluate_rule`` / ``RuleSet.accuracy`` over the cohort."""
    from edm_rulex.rulekit import evaluate_rule

    problems = []
    for i, rule in enumerate(ruleset.rules):
        fresh = evaluate_rule(rule, records, schema)
        for field in ("support", "confidence", "coverage"):
            recorded, recomputed = getattr(rule, field), getattr(fresh, field)
            if recorded != recomputed:
                problems.append(f"rule {i} {field}: recorded {recorded}, recomputed {recomputed}")
    accuracy = ruleset.accuracy(records, schema)
    if doc.get("training_accuracy") != accuracy:
        problems.append(
            f"training_accuracy: recorded {doc.get('training_accuracy')}, recomputed {accuracy}"
        )
    return problems


def quality(run_dir: Path) -> tuple[dict[str, float], list[str], dict]:
    """(rule_accuracy, rule_fidelity, train_mse), the ruleset check's
    problems, and the ruleset document."""
    from edm_rulex.neural import load_network
    from edm_rulex.rulekit import ruleset_from_dict
    from edm_rulex.schema import load_schema, parse_dataset_csv

    meta = json.loads((run_dir / "cohort.meta.json").read_text(encoding="utf-8"))
    schema = load_schema(meta["schema"])
    records = parse_dataset_csv((run_dir / "cohort.csv").read_text(encoding="utf-8"), schema)
    doc = json.loads((run_dir / "ruleset.json").read_text(encoding="utf-8"))
    ruleset = ruleset_from_dict(doc)
    net = load_network(run_dir / "model.json")
    train_log = json.loads((run_dir / "train_log.json").read_text(encoding="utf-8"))
    figures = {
        "rule_accuracy": doc["training_accuracy"],
        "rule_fidelity": rule_fidelity(ruleset, net, records, schema),
        "train_mse": train_log["final_mse"],
    }
    return figures, ruleset_mismatches(doc, ruleset, records, schema), doc
