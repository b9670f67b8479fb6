"""Command-line pipeline: generate -> train -> extract -> stats -> report.

Every stage writes JSON (plus CSV for cohorts) into a run directory, embeds
the SHA-256 of its effective config and of its inputs, and derives its seed
from one master seed, so a whole run is pinned by a single integer and two
runs of the same config produce byte-identical artifacts.

Exit codes: 0 success, 1 failed target checks (``report --strict`` only),
2 validation failure, 3 numeric failure, 4 I/O failure.  Set
EDM_RULEX_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import studydata
from .errors import NumericError, ValidationError
from .evolver import GaConfig
from .neural import (
    TrainConfig,
    init_network,
    load_network,
    network_to_dict,
    train,
)
from .psychostats import (
    cronbach_alpha,
    levene_w,
    manova_wilks,
    partial_r,
    significance_label,
    t_test,
)
from .rulekit import RuleSet, extract_ruleset, format_ruleset, ruleset_to_dict
from .schema import AttributeSchema, load_schema, read_index_csv, schema_hash
# perfbench/spans.py wraps cli.encode_dataset and cli.parse_dataset_csv; keep the names here
from .schema import encode_dataset, parse_dataset_csv  # noqa: F401
from .synthgen import (
    GroupSpec,
    PlantedRuleSpec,
    PopulationSpec,
    build_metadata,
    default_discretization,
    discretize_cohort,
    parse_raw_csv,
    plant_rules,
    sample_population,
    write_cohort,
)
from .util import config_hash, derive_seed, file_sha256, read_json, write_json

log = logging.getLogger(__name__)

STUDY_DEFAULT_SPEC = "study-default"


def _stage_config(args, stage: str) -> dict:
    """Stage section of --config, if any."""
    if getattr(args, "config", None):
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise ValidationError(f"config {args.config} must be a JSON object")
        section = doc.get(stage, {})
        if not isinstance(section, dict):
            raise ValidationError(f"config section {stage!r} must be an object")
        merged = dict(section)
        if "seed" in doc and merged.get("seed") is None:
            merged.setdefault("seed", doc["seed"])
        if "out" in doc:
            merged.setdefault("out", doc["out"])
        return merged
    return {}


def _pick(args, conf: dict, name: str, kind: type, default=None):
    """The flag's value, else the config's, converted to ``kind``; else ``default``."""
    value = getattr(args, name, None)
    if value is None:
        value = conf.get(name)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name!r} must be {kind.__name__}, got {value!r}") from None


def _resolve_schema(args, meta: dict | None) -> AttributeSchema:
    path = getattr(args, "schema", None)
    if path:
        return load_schema(Path(path).read_text(encoding="utf-8"))
    if meta and meta.get("schema"):
        return load_schema(meta["schema"])
    return studydata.default_student_schema()


def _sibling_meta(csv_path: Path) -> dict | None:
    meta_path = csv_path.with_suffix("").with_suffix(".meta.json")
    if meta_path.exists():
        return read_json(meta_path)
    return None


def _load_dataset(args):
    csv_path = Path(args.data)
    meta = _sibling_meta(csv_path)
    schema = _resolve_schema(args, meta)
    index = read_index_csv(csv_path.read_text(encoding="utf-8"), schema)
    return schema, index, meta, csv_path


# ---------------------------------------------------------------------------
# generate


def _rescale_groups(spec: PopulationSpec, total: int) -> PopulationSpec:
    if total < 1:
        raise ValidationError(f"cohort size must be >= 1, got {total}")
    base_total = sum(g.n for g in spec.groups.values())
    tokens = list(spec.groups)
    counts: dict[str, int] = {}
    acc = 0
    for i, token in enumerate(tokens):
        if i == len(tokens) - 1:
            counts[token] = total - acc
        else:
            counts[token] = round(total * spec.groups[token].n / base_total)
            acc += counts[token]
    if any(c < 1 for c in counts.values()):
        raise ValidationError(f"cohort size {total} leaves an empty group: {counts}")
    groups = {
        token: GroupSpec(counts[token], g.means, g.sds, g.correlation)
        for token, g in spec.groups.items()
    }
    return PopulationSpec(spec.dimensions, groups, spec.seed)


def cmd_generate(args) -> int:
    conf = _stage_config(args, "generate")
    master = _pick(args, conf, "seed", int, 0)
    out = Path(_pick(args, conf, "out", str) or _fail("--out is required"))
    spec_arg = _pick(args, conf, "spec", str, STUDY_DEFAULT_SPEC)
    n = _pick(args, conf, "n", int)
    planted_path = _pick(args, conf, "planted", str)

    if spec_arg == STUDY_DEFAULT_SPEC:
        spec = studydata.default_population_spec()
        maxima = dict(studydata.SCORE_MAXIMA)
    else:
        doc = read_json(spec_arg)
        spec = PopulationSpec.from_dict(doc)
        maxima = {k: float(v) for k, v in doc.get("score_maxima", {}).items()}
        maxima = maxima or dict(studydata.SCORE_MAXIMA)
    if n is not None:
        spec = _rescale_groups(spec, n)
    spec = PopulationSpec(spec.dimensions, spec.groups, derive_seed(master, "generate"))

    schema = _resolve_schema(args, None)
    planted = None
    if planted_path:
        planted = PlantedRuleSpec.from_dict(read_json(planted_path))

    effective = {
        "stage": "generate",
        "master_seed": master,
        "spec": spec.to_dict(),
        "planted": planted.to_dict() if planted else None,
        "score_maxima": maxima,
        "schema_hash": schema_hash(schema),
    }
    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, maxima, studydata.GRADE_FRACTIONS)
    if planted is not None:
        index = plant_rules(cohort, planted, disc, schema, derive_seed(master, "generate-labels"))
    else:
        index = discretize_cohort(cohort, disc, schema)
    meta = build_metadata(spec, schema, disc, planted)
    meta["master_seed"] = master
    meta["config_hash"] = config_hash(effective)
    meta["population_spec"] = spec.to_dict()
    paths = write_cohort(out / "cohort", index, cohort, meta)
    print(f"wrote {paths['csv']} ({len(index)} rows), {paths['raw']}, {paths['meta']}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    conf = _stage_config(args, "train")
    master = _pick(args, conf, "seed", int, 0)
    out = Path(_pick(args, conf, "out", str) or _fail("--out is required"))
    schema, index, _meta, csv_path = _load_dataset(args)
    config = TrainConfig(
        learning_rate=_pick(args, conf, "rate", float, 0.2),
        momentum=_pick(args, conf, "momentum", float, 0.9),
        max_epochs=_pick(args, conf, "epochs", int, 5000),
        target_mse=_pick(args, conf, "mse_target", float, 0.01),
        hidden_size=_pick(args, conf, "hidden", int),
        seed=derive_seed(master, "train"),
    )
    net = init_network(schema, config)
    result = train(net, index, config)
    effective = {
        "stage": "train",
        "master_seed": master,
        "learning_rate": config.learning_rate,
        "momentum": config.momentum,
        "max_epochs": config.max_epochs,
        "target_mse": config.target_mse,
        "hidden_size": config.resolve_hidden(schema.total_predictive_bits),
        "dataset": csv_path.name,
        "dataset_hash": file_sha256(csv_path),
        "schema_hash": schema_hash(schema),
    }
    net.metadata = {
        "config_hash": config_hash(effective),
        "master_seed": master,
        "train_seed": config.seed,
        "schema_hash": effective["schema_hash"],
        "dataset": csv_path.name,
        "dataset_hash": effective["dataset_hash"],
        "final_mse": result.final_mse,
        "epochs_run": result.epochs_run,
    }
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "model.json", network_to_dict(net))
    write_json(
        out / "train_log.json",
        {
            "config_hash": net.metadata["config_hash"],
            "epochs_run": result.epochs_run,
            "final_mse": result.final_mse,
            "mse_history": result.mse_history,
        },
    )
    print(
        f"wrote {out / 'model.json'} "
        f"(mse {result.final_mse:.5f} after {result.epochs_run} epochs)"
    )
    return 0


# ---------------------------------------------------------------------------
# extract


def _sorted_ruleset(ruleset: RuleSet, schema: AttributeSchema) -> RuleSet:
    class_order = {token: i for i, token in enumerate(schema.target.levels)}
    rules = tuple(
        sorted(
            ruleset.rules,
            key=lambda r: (class_order[r.consequent], -(r.confidence or 0.0)),
        )
    )
    return RuleSet(rules=rules, default=ruleset.default, audit=ruleset.audit)


def cmd_extract(args) -> int:
    conf = _stage_config(args, "extract")
    master = _pick(args, conf, "seed", int, 0)
    out = Path(_pick(args, conf, "out", str) or _fail("--out is required"))
    schema, index, _meta, csv_path = _load_dataset(args)
    model_path = Path(_pick(args, conf, "model", str) or _fail("--model is required"))
    net = load_network(model_path)
    trained_on = net.metadata.get("schema_hash")
    if trained_on is not None and trained_on != schema_hash(schema):
        raise ValidationError(
            "schema mismatch between model and dataset: "
            f"model has {trained_on[:12]}..., dataset has {schema_hash(schema)[:12]}..."
        )
    ga = GaConfig(
        population_size=_pick(args, conf, "pop", int, 100),
        generations=_pick(args, conf, "generations", int, 200),
        crossover_prob=_pick(args, conf, "crossover", float, 0.8),
        mutation_prob=_pick(args, conf, "mutation", float, 0.02),
        tournament_size=_pick(args, conf, "tournament", int, 3),
        elitism=_pick(args, conf, "elitism", int, 2),
        seed=derive_seed(master, "extract"),
    )
    confidence = _pick(args, conf, "confidence", float, 0.7)
    epsilon = _pick(args, conf, "epsilon", float, 0.0)
    budget = _pick(args, conf, "budget", int, 5)
    ruleset = extract_ruleset(
        net,
        index,
        schema,
        ga_config=ga,
        per_class_rule_budget=budget,
        confidence_threshold=confidence,
        epsilon=epsilon,
    )
    ruleset = _sorted_ruleset(ruleset, schema)
    effective = {
        "stage": "extract",
        "master_seed": master,
        "pop": ga.population_size,
        "generations": ga.generations,
        "crossover": ga.crossover_prob,
        "mutation": ga.mutation_prob,
        "tournament": ga.tournament_size,
        "elitism": ga.elitism,
        "confidence": confidence,
        "epsilon": epsilon,
        "budget": budget,
        "dataset": csv_path.name,
        "dataset_hash": file_sha256(csv_path),
        "model": model_path.name,
        "model_hash": file_sha256(model_path),
        "schema_hash": schema_hash(schema),
    }
    doc = ruleset_to_dict(ruleset, schema)
    doc["config_hash"] = config_hash(effective)
    doc["inputs"] = {
        "dataset": csv_path.name,
        "dataset_hash": effective["dataset_hash"],
        "model": model_path.name,
        "model_hash": effective["model_hash"],
    }
    doc["training_accuracy"] = ruleset.accuracy(index, schema)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "ruleset.json", doc)
    (out / "rules.txt").write_text(format_ruleset(ruleset, schema), encoding="utf-8")
    print(
        f"wrote {out / 'ruleset.json'} ({len(ruleset.rules)} rules, "
        f"training accuracy {doc['training_accuracy']:.3f})"
    )
    return 0


# ---------------------------------------------------------------------------
# stats


def _gender_split(index, raw_matrix, group_by: str):
    codes = index.column(group_by)
    groups: dict[str, np.ndarray] = {}
    for k, token in enumerate(index.schema.attribute(group_by).levels):
        rows = raw_matrix[codes == k]
        if len(rows):
            groups[token] = rows
    if len(groups) < 2:
        raise ValidationError(
            f"need at least 2 non-empty {group_by!r} groups for group statistics"
        )
    if any(rows.shape[0] < 2 for rows in groups.values()):
        raise ValidationError("insufficient data: every group needs at least 2 records")
    return groups


def cmd_stats(args) -> int:
    conf = _stage_config(args, "stats")
    out = Path(_pick(args, conf, "out", str) or _fail("--out is required"))
    group_by = _pick(args, conf, "group_by", str, studydata.GENDER)
    schema, index, _meta, csv_path = _load_dataset(args)
    raw_path = csv_path.with_suffix("").with_suffix(".raw.csv")
    if not raw_path.exists():
        raise ValidationError(
            f"stats needs raw scores; no sidecar {raw_path.name} next to the dataset"
        )
    raw_dims, raw_matrix = parse_raw_csv(raw_path.read_text(encoding="utf-8"))
    if raw_matrix.shape[0] != len(index):
        raise ValidationError(
            f"raw table has {raw_matrix.shape[0]} rows, dataset has {len(index)}"
        )
    col = {d: j for j, d in enumerate(raw_dims)}
    target_dim = schema.target.name
    if target_dim not in col:
        raise ValidationError(f"raw table lacks the target dimension {target_dim!r}")
    groups = _gender_split(index, raw_matrix, group_by)
    tokens = list(groups)

    # target comparison across the first two groups
    a, b = groups[tokens[0]][:, col[target_dim]], groups[tokens[1]][:, col[target_dim]]
    tres = t_test(a, b, method="welch")
    sections: dict = {
        "target_group_ttest": {
            "groups": {
                token: {
                    "n": int(rows.shape[0]),
                    "mean": float(rows[:, col[target_dim]].mean()),
                    "sd": float(rows[:, col[target_dim]].std(ddof=1)),
                }
                for token, rows in groups.items()
            },
            "t": tres.t,
            "df": tres.df,
            "p": tres.p,
            "method": tres.method,
            "significance": significance_label(tres.p),
        }
    }

    blocks: dict = {}
    skipped: dict = {}
    for block_name, dims in studydata.MEASURE_BLOCKS.items():
        present = [d for d in dims if d in col]
        if len(present) != len(dims):
            skipped[block_name] = [d for d in dims if d not in col]
            print(
                f"warning: stats skips block {block_name!r}; the raw table lacks "
                f"{', '.join(skipped[block_name])}",
                file=sys.stderr,
            )
            continue
        idx = [col[d] for d in present]
        per_group = [groups[t][:, idx] for t in tokens]
        wres = manova_wilks(per_group)
        series = {d: [groups[t][:, col[d]] for t in tokens] for d in present}
        series["Total"] = [g.sum(axis=1) for g in per_group]
        univariate, levene = {}, {}
        for d, samples in series.items():
            univariate[d] = _anova_from_groups(samples)
            lv = levene_w(samples)
            levene[d] = {"w": lv.w, "df": list(lv.df), "p": lv.p}
        blocks[block_name] = {
            "wilks": {
                "lambda": wres.wilks_lambda,
                "f": wres.f,
                "df": list(wres.df),
                "p": wres.p,
                "eta_squared": wres.eta_squared,
            },
            "univariate": univariate,
            "levene": levene,
            "alpha": cronbach_alpha(raw_matrix[:, idx]),
        }
    sections["blocks"] = blocks
    if skipped:
        sections["skipped_blocks"] = skipped

    control_dims = [d for d in studydata.MEASURE_BLOCKS["interaction"] if d in col]
    partials: dict = {"control": "+".join(control_dims) or "none", "groups": {}}
    if control_dims:
        for token in tokens:
            rows = groups[token]
            control = rows[:, [col[d] for d in control_dims]].sum(axis=1)
            y = rows[:, col[target_dim]]
            entry = {}
            for block_name in ("learning_skills", "motivation"):
                dims = [d for d in studydata.MEASURE_BLOCKS[block_name] if d in col]
                if not dims:
                    continue
                for d in dims:
                    entry[d] = partial_r(rows[:, col[d]], y, control)
                entry[f"Total ({block_name})"] = partial_r(
                    rows[:, [col[d] for d in dims]].sum(axis=1), y, control
                )
            partials["groups"][token] = entry
    sections["partial_correlations"] = partials

    effective = {
        "stage": "stats",
        "group_by": group_by,
        "dataset": csv_path.name,
        "dataset_hash": file_sha256(csv_path),
        "raw_hash": file_sha256(raw_path),
        "schema_hash": schema_hash(schema),
    }
    report = {
        "config_hash": config_hash(effective),
        "inputs": {
            "dataset": csv_path.name,
            "dataset_hash": effective["dataset_hash"],
            "raw_hash": effective["raw_hash"],
        },
        "sections": sections,
    }
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "stats.json", report)
    print(f"wrote {out / 'stats.json'}")
    return 0


def _anova_from_groups(series) -> dict:
    from .psychostats import anova_oneway

    row = anova_oneway(series)
    return {
        "ss_h": row.ss_hypothesis,
        "ss_e": row.ss_error,
        "df": [row.df_hypothesis, row.df_error],
        "ms_h": row.ms_hypothesis,
        "ms_e": row.ms_error,
        "f": row.f,
        "p": row.p,
        "eta_squared": row.eta_squared,
        "significance": significance_label(row.p),
    }


# ---------------------------------------------------------------------------
# report


REQUIRED_ARTIFACTS = (
    "cohort.csv",
    "cohort.raw.csv",
    "cohort.meta.json",
    "model.json",
    "train_log.json",
    "ruleset.json",
    "rules.txt",
    "stats.json",
)


def _check(line_ok: bool, text: str, lines: list[str]) -> bool:
    lines.append(f"  [{'PASS' if line_ok else 'FAIL'}] {text}")
    return line_ok


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    missing = [name for name in REQUIRED_ARTIFACTS if not (run_dir / name).exists()]
    if missing:
        raise ValidationError(f"missing run artifacts: {', '.join(missing)}")
    meta = read_json(run_dir / "cohort.meta.json")
    model = read_json(run_dir / "model.json")
    train_log = read_json(run_dir / "train_log.json")
    ruleset = read_json(run_dir / "ruleset.json")
    stats = read_json(run_dir / "stats.json")

    # integrity: recorded input hashes must match the files on disk
    cohort_hash = file_sha256(run_dir / "cohort.csv")
    model_hash = file_sha256(run_dir / "model.json")
    problems = []
    if model.get("metadata", {}).get("dataset_hash") != cohort_hash:
        problems.append("model.json was trained on a different cohort.csv")
    if ruleset.get("inputs", {}).get("dataset_hash") != cohort_hash:
        problems.append("ruleset.json was extracted from a different cohort.csv")
    if ruleset.get("inputs", {}).get("model_hash") != model_hash:
        problems.append("ruleset.json was extracted from a different model.json")
    if stats.get("inputs", {}).get("dataset_hash") != cohort_hash:
        problems.append("stats.json was computed from a different cohort.csv")
    if problems:
        raise ValidationError("artifact hash mismatch: " + "; ".join(problems))
    md = model.get("metadata", {})
    if not isinstance(train_log, dict):
        raise ValidationError("train_log.json must be an object with final_mse and epochs_run")
    for field in ("final_mse", "epochs_run"):
        if train_log.get(field) != md.get(field):
            raise ValidationError(
                f"train_log.json {field} {train_log.get(field)!r} does not match "
                f"model.json metadata {field} {md.get(field)!r}"
            )

    lines: list[str] = []
    lines.append("edm-rulex run report")
    lines.append("====================")
    lines.append("")
    lines.append("Artifacts and config hashes")
    lines.append(f"  cohort.meta.json  {meta.get('config_hash', '?')}")
    lines.append(f"  model.json        {model.get('metadata', {}).get('config_hash', '?')}")
    lines.append(f"  ruleset.json      {ruleset.get('config_hash', '?')}")
    lines.append(f"  stats.json        {stats.get('config_hash', '?')}")
    lines.append(f"  master seed       {meta.get('master_seed', '?')}")
    lines.append("")
    n_per_group = meta.get("n_per_group", {})
    group_order = meta.get("group_order", list(n_per_group))
    lines.append(
        "Cohort: "
        + ", ".join(f"{k}={n_per_group[k]}" for k in group_order)
        + f"; generator {meta.get('generator', '?')}; spec {meta.get('spec_hash', '?')[:12]}"
    )
    lines.append(
        f"Model: {model.get('input_size')}-{model.get('hidden_size')}-{model.get('output_size')}, "
        f"final mse {md.get('final_mse', float('nan')):.5f} after {md.get('epochs_run', '?')} epochs"
    )
    lines.append("")
    lines.append("Extracted rules (confidence, support)")
    for rule in ruleset.get("rules", []):
        lines.append(
            f"  {rule['text']}   ({rule['confidence']:.3f}, {rule['support']})"
        )
    lines.append(f"  Default class: {ruleset.get('default')}")
    lines.append(f"  Ruleset training accuracy: {ruleset.get('training_accuracy', float('nan')):.3f}")
    lines.append("")

    lines.append("Cohort statistics")
    try:
        tt = stats["sections"]["target_group_ttest"]
        group_bits = ", ".join(
            f"{tok}: mean {g['mean']:.2f} sd {g['sd']:.2f} (n={g['n']})"
            for tok, g in tt["groups"].items()
        )
        lines.append(f"  target by group: {group_bits}")
        lines.append(
            f"  t = {tt['t']:.3f}, df = {tt['df']:.1f}, p = {tt['p']:.2e} ({tt['significance']})"
        )
        for block, entry in stats["sections"]["blocks"].items():
            w = entry["wilks"]
            lines.append(
                f"  {block}: Wilks lambda {w['lambda']:.3f}, F({w['df'][0]},{w['df'][1]}) = "
                f"{w['f']:.2f}, p = {w['p']:.2e}, eta^2 = {w['eta_squared']:.3f}, "
                f"alpha = {entry['alpha']:.3f}"
            )
    except KeyError as e:
        raise ValidationError(f"stats.json lacks the field {e.args[0]!r}") from None
    lines.append("")

    all_ok = True
    lines.append("Cohort means vs generation targets (3 SE tolerance at cohort n)")
    pop_spec = meta.get("population_spec")
    if pop_spec:
        spec = PopulationSpec.from_dict(pop_spec)
        _, raw_matrix = parse_raw_csv((run_dir / "cohort.raw.csv").read_text(encoding="utf-8"))
        spec_rows = sum(g.n for g in spec.groups.values())
        if spec_rows != raw_matrix.shape[0]:
            raise ValidationError(
                f"cohort.meta.json population_spec has {spec_rows} rows in its groups, "
                f"cohort.raw.csv has {raw_matrix.shape[0]}"
            )
        offset = 0
        for token, g in spec.groups.items():
            rows = raw_matrix[offset : offset + g.n]
            offset += g.n
            for j, dim in enumerate(spec.dimensions):
                if g.sds[j] == 0:
                    continue
                tol = 3 * g.sds[j] / (g.n**0.5)
                sample = float(rows[:, j].mean())
                all_ok &= _check(
                    abs(sample - g.means[j]) <= tol,
                    f"{token} / {dim}: mean {sample:.3f} vs {g.means[j]:.3f} (tol {tol:.3f})",
                    lines,
                )
    lines.append("")
    lines.append(f"Overall target checks: {'PASS' if all_ok else 'FAIL'}")
    lines.append("")

    text = "\n".join(lines)
    (run_dir / "report.txt").write_text(text, encoding="utf-8")
    print(f"wrote {run_dir / 'report.txt'}")
    if args.strict and not all_ok:
        print("error: target checks failed (see report.txt)", file=sys.stderr)
        return 1
    return 0


def _fail(message: str):
    raise ValidationError(message)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edm-rulex",
        description="rule extraction and cohort statistics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file with per-stage sections")
        p.add_argument("--seed", type=int, help="master seed (stage seeds derive from it)")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("generate", help="generate a synthetic cohort")
    common(p)
    p.add_argument("--spec", help=f"'{STUDY_DEFAULT_SPEC}' or a population spec JSON path")
    p.add_argument("--n", type=int, help="total cohort size (split across groups)")
    p.add_argument("--planted", help="planted rule spec JSON for ground-truth labels")
    p.add_argument("--schema", help="schema JSON path (default: built-in student schema)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the network on a cohort CSV")
    common(p)
    p.add_argument("--data", required=True, help="cohort CSV path")
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--hidden", type=int, help="hidden layer width")
    p.add_argument("--rate", type=float, help="learning rate")
    p.add_argument("--momentum", type=float, help="momentum")
    p.add_argument("--epochs", type=int, help="epoch budget")
    p.add_argument("--mse-target", dest="mse_target", type=float, help="stop at this mse")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract a ruleset from a trained model")
    common(p)
    p.add_argument("--data", required=True, help="cohort CSV path")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--pop", type=int, help="GA population size")
    p.add_argument("--generations", type=int, help="GA generations")
    p.add_argument("--crossover", type=float, help="crossover probability")
    p.add_argument("--mutation", type=float, help="per-bit mutation probability")
    p.add_argument("--tournament", type=int, help="tournament size")
    p.add_argument("--elitism", type=int, help="elite count")
    p.add_argument("--confidence", type=float, help="rule acceptance threshold")
    p.add_argument("--epsilon", type=float, help="refinement confidence slack")
    p.add_argument("--budget", type=int, help="rules per class")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("stats", help="statistical report for a cohort with raw scores")
    common(p)
    p.add_argument("--data", required=True, help="cohort CSV path (needs .raw.csv sidecar)")
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--group-by", dest="group_by", help="grouping attribute (default Gender)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("run_dir", help="directory holding the run artifacts")
    p.add_argument(
        "--strict", action="store_true", help="exit 1 when any target check fails"
    )
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("EDM_RULEX_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
