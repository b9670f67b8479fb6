"""Command-line pipeline: generate -> train -> extract -> stats -> report.

Every stage writes JSON (plus CSV for cohorts, each with the ``.npy`` copy
that later stages read through ``_companion`` while the sidecar's hashes
hold) into a run directory, embeds the SHA-256 of its effective config and
of its inputs, and derives its seed from one master seed, so a whole run is
pinned by a single integer and two runs of the same config produce
byte-identical artifacts.

Each stage's options are declared once, in ``OPTIONS``: the flag, the
``--config`` key, the type and the default (the library's) all come from it.

Exit codes: 0 success, 1 failed target checks (``report --strict`` only),
2 validation failure, 3 numeric or memory failure, 4 I/O failure.  Set
EDM_RULEX_LOG=INFO (or DEBUG) for progress logging.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import rulekit, studydata
from .errors import NumericError, ValidationError
from .evolver import GaConfig
from .neural import TrainConfig, init_network, load_network, network_from_dict, network_to_dict, train
from .psychostats import (
    cronbach_alpha,
    levene_w,
    manova_wilks,
    mean_sd,
    partial_r,
    significance_label,
    t_test,
)
from .rulekit import extract_ruleset, format_rule, format_ruleset, parse_ruleset
from .rulekit import ruleset_from_dict, ruleset_to_dict
from .schema import SCHEMA_SHAPE, AttributeSchema, DatasetIndex, load_schema, read_index_csv, schema_hash
# perfbench/spans.py wraps cli.encode_dataset and cli.parse_dataset_csv; keep the names here
from .schema import encode_dataset, parse_dataset_csv  # noqa: F401
from .synthgen import COMPANIONS_SHAPE, PLANTED_SPEC_SHAPE, PlantedRuleSpec, PopulationSpec
from .synthgen import build_metadata, default_discretization, spec_hash, target_checks
from .synthgen import discretize_cohort, parse_raw_csv, plant_rules, read_raw_header
from .synthgen import sample_population, write_cohort
from .util import config_hash, derive_seed, file_sha256, read_json, sha256_hex, write_json

log = logging.getLogger(__name__)

STUDY_DEFAULT_SPEC = "study-default"
REQUIRED = object()  # the default of an option that has none

_SEED = ("seed", int, 0, "master seed (stage seeds derive from it)")
_OUT = ("out", Path, REQUIRED, "output directory")
_DATA = ("data", Path, REQUIRED, "cohort CSV path")
_SCHEMA = ("schema", Path, None, "schema JSON path (default: the one in the cohort's .meta.json "
           "sidecar, else the built-in student schema)")

# stage -> (name, type, default, help).  The flag is --name (with '-' for '_'),
# the --config section key is name; the flag wins over the key, the key over
# the default.  Path options are files; the others make up the config hash.
OPTIONS = {
    "generate": (
        _SEED,
        _OUT,
        ("spec", str, STUDY_DEFAULT_SPEC, f"'{STUDY_DEFAULT_SPEC}' or a population spec JSON path"),
        ("n", int, None, "total cohort size, split across groups (default: the spec's sizes)"),
        ("planted", Path, None, "planted rule spec JSON for ground-truth labels"),
        _SCHEMA,
    ),
    "train": (
        _SEED,
        _OUT,
        _DATA,
        _SCHEMA,
        ("hidden", int, TrainConfig.hidden_size, "hidden width (default: 2*ceil(sqrt(inputs)))"),
        ("rate", float, TrainConfig.learning_rate, "learning rate"),
        ("momentum", float, TrainConfig.momentum, "momentum"),
        ("epochs", int, TrainConfig.max_epochs, "epoch budget"),
        ("mse_target", float, TrainConfig.target_mse, "stop at this mse"),
    ),
    "extract": (
        _SEED,
        _OUT,
        _DATA,
        ("model", Path, REQUIRED, "model JSON path"),
        _SCHEMA,
        ("pop", int, GaConfig.population_size, "GA population size"),
        ("generations", int, GaConfig.generations, "GA generations"),
        ("crossover", float, GaConfig.crossover_prob, "crossover probability"),
        ("mutation", float, GaConfig.mutation_prob, "per-bit mutation probability"),
        ("tournament", int, GaConfig.tournament_size, "tournament size"),
        ("elitism", int, GaConfig.elitism, "elite count"),
        ("confidence", float, rulekit.DEFAULT_CONFIDENCE_THRESHOLD, "rule acceptance threshold"),
        ("epsilon", float, rulekit.DEFAULT_EPSILON, "refinement confidence slack"),
        ("budget", int, rulekit.DEFAULT_RULE_BUDGET, "rules per class"),
    ),
    "stats": (
        _OUT,
        ("data", Path, REQUIRED, "cohort CSV path (needs the .raw.csv sidecar)"),
        _SCHEMA,
        ("group_by", str, studydata.GENDER, "grouping attribute"),
    ),
}


def _options(args, stage: str) -> dict:
    """The stage's options, each from its flag, else its ``--config`` key, else
    its default, as its type.  ``meta`` is the cohort's sidecar meta, read once
    from ``sidecar`` (``{}`` without a cohort or a sidecar).  ``schema`` is the
    schema: the ``--schema`` file's, else the one in the sidecar meta, else
    the built-in student schema.  ``companions`` is the sidecar's when the
    schema is the sidecar's too, else ``{}``; ``hashes`` holds each input
    file's SHA-256 once ``_sha256`` has read it.  ``cuts_hash`` is the
    ``config_hash`` of the sidecar's cut points, None without them."""
    conf = {}
    if args.config:
        shape = {f"{s}?": {f"{name}?": str if kind is Path else kind for name, kind, *_ in options}
                 for s, options in OPTIONS.items()}
        doc = read_json(args.config, {"seed?": int, "out?": str, **shape})
        section, names = doc.get(stage, {}), [name for name, *_ in OPTIONS[stage]]
        for keys, allowed, what, listing in (
            (doc, ("seed", "out", *OPTIONS), f"config {args.config} has no key", "its top-level keys are"),
            (section, names, f"config section {stage!r} has no option", f"{stage} takes"),
        ):
            unknown = [key for key in keys if key not in allowed]
            if unknown:
                raise ValidationError(
                    f"{what} named {', '.join(map(repr, unknown))}; {listing} {', '.join(allowed)}"
                )
        conf = {key: doc[key] for key in ("seed", "out") if key in doc}
        conf.update(section)
    options = {}
    for name, kind, default, _ in OPTIONS[stage]:
        value = getattr(args, name)
        if value is None:
            value = conf.get(name)
        if value is None:
            if default is REQUIRED:
                raise ValidationError(f"--{name.replace('_', '-')} (config key {name!r}) is required")
            options[name] = default
            continue
        options[name] = kind(value)
    sidecar = options.get("data") and options["data"].with_suffix(".meta.json")
    shape = {"schema?": SCHEMA_SHAPE, "companions?": COMPANIONS_SHAPE, "discretization?": {str: [float]}}
    meta = read_json(sidecar, shape) if sidecar and sidecar.exists() else {}
    cuts = meta.get("discretization")
    cuts_hash = config_hash(cuts) if cuts else None
    options.update(sidecar=sidecar, meta=meta, companions={}, hashes={}, cuts_hash=cuts_hash)
    if options["schema"]:
        options["schema"] = load_schema(read_json(options["schema"], SCHEMA_SHAPE))
    elif "schema" in meta:
        options["schema"] = load_schema(meta["schema"])
        options["companions"] = meta.get("companions", {})  # their codes are this schema's
    else:
        options["schema"] = studydata.default_student_schema()
    return options


def _sha256(options: dict, path: Path) -> str:
    """SHA-256 of an input file of the stage, read once per stage."""
    if path not in options["hashes"]:
        options["hashes"][path] = file_sha256(path)
    return options["hashes"][path]


def _provenance(stage: str, options: dict, **resolved) -> tuple[str, dict]:
    """``(config_hash, inputs)`` of a stage's artifact.  The hash covers the
    stage's non-file options by value, with ``resolved`` values in their
    place, the schema by hash, and the input files.  A path in ``resolved`` is
    an input file: ``inputs`` records its name under its key and its SHA-256
    under the key plus ``_hash``."""
    values = {name: options[name] for name, kind, _, _ in OPTIONS[stage] if kind is not Path}
    inputs = {}
    for key, value in resolved.items():
        if isinstance(value, Path):
            inputs[key], inputs[f"{key}_hash"] = value.name, _sha256(options, value)
        else:
            values[key] = value
    values.update(stage=stage, schema_hash=schema_hash(options["schema"]), inputs=inputs)
    return config_hash(values), inputs


_INPUTS = {str: str}  # _provenance's inputs: file names, and their SHA-256 under key + _hash


def _read_csv(read, path: Path, *args):
    """``read(stream, *args)`` on the cohort CSV at ``path``; a UTF-8 byte
    order mark before the header is skipped.  Text that is not UTF-8, or a
    field past ``csv``'s size limit, is a ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as stream:
            return read(stream, *args)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ValidationError(f"{path} is not a readable CSV: {e}") from None


def _companion(options: dict, path: Path, kind: str, columns: int) -> np.ndarray | None:
    """The table of the CSV at ``path`` as ``generate`` saved it, in
    ``path.with_suffix(".npy")``, or None, to read the CSV instead: when
    ``companions`` has no entry for the CSV, the array is missing, or either
    file's SHA-256 is not the one recorded there.  An array that does not
    load, or is not a table of ``columns`` columns whose dtype kind is in
    ``kind``, is a ValidationError.  The table is a read-only view of the
    bytes that were hashed (``_npy_view``), so it is held once."""
    entry, npy = options["companions"].get(path.name), path.with_suffix(".npy")
    if entry is None or not npy.is_file() or _sha256(options, path) != entry["csv_hash"]:
        return None
    data = npy.read_bytes()
    if sha256_hex(data) != entry["npy_hash"]:
        return None
    try:
        table = _npy_view(data)
    except ValueError as e:
        raise ValidationError(f"{npy} is not a readable .npy file: {e}") from None
    if table.dtype.kind not in kind or table.ndim != 2 or table.shape[1] != columns:
        raise ValidationError(f"the array saved for {path.name} is {table.dtype}{list(table.shape)}, "
                              f"not a table of {columns} columns of dtype kind {kind!r}")
    return table


def _npy_view(data: bytes) -> np.ndarray:
    """The array of the ``.npy`` file ``data``, as a read-only view of its
    bytes where ``np.load`` would copy them.  A file that is not in format
    1.0 or 2.0, the ones ``np.save`` writes for an int or float table, or
    whose data does not fit its header, is a ValueError."""
    stream, fmt = io.BytesIO(data), np.lib.format
    version = fmt.read_magic(stream)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"format version {version[0]}.{version[1]} is not 1.0 or 2.0")
    read_header = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
    shape, fortran_order, dtype = read_header(stream)
    flat = np.frombuffer(data, dtype, count=math.prod(shape), offset=stream.tell())
    return flat.reshape(shape, order="F" if fortran_order else "C")


def _read_cohort(options: dict) -> DatasetIndex:
    codes = _companion(options, options["data"], "iu", len(options["schema"].attributes))
    if codes is None:
        return _read_csv(read_index_csv, options["data"], options["schema"])
    return DatasetIndex(options["schema"], codes)


# ---------------------------------------------------------------------------
# generate


def _rescale_groups(spec: PopulationSpec, total: int) -> PopulationSpec:
    if total < 1:
        raise ValidationError(f"cohort size must be >= 1, got {total}")
    sizes = [g.n for g in spec.groups.values()]
    counts = [round(total * n / sum(sizes)) for n in sizes[:-1]]
    counts = dict(zip(spec.groups, counts + [total - sum(counts)]))
    if any(c < 1 for c in counts.values()):
        raise ValidationError(f"cohort size {total} leaves an empty group: {counts}")
    groups = {token: dataclasses.replace(g, n=counts[token]) for token, g in spec.groups.items()}
    return PopulationSpec(spec.dimensions, groups, spec.seed)


def cmd_generate(args) -> int:
    opts = _options(args, "generate")
    if opts["spec"] == STUDY_DEFAULT_SPEC:
        spec = studydata.default_population_spec()
        maxima = dict(studydata.SCORE_MAXIMA)
    else:
        doc = read_json(opts["spec"], {"score_maxima?": {str: float}})
        spec = PopulationSpec.from_dict(doc, str(opts["spec"]))
        maxima = {k: float(v) for k, v in doc.get("score_maxima", {}).items()}
        maxima = maxima or dict(studydata.SCORE_MAXIMA)
    if opts["n"] is not None:
        spec = _rescale_groups(spec, opts["n"])
    spec = PopulationSpec(spec.dimensions, spec.groups, derive_seed(opts["seed"], "generate"))
    schema = opts["schema"]
    planted = None
    if opts["planted"]:
        planted = PlantedRuleSpec.from_dict(read_json(opts["planted"], PLANTED_SPEC_SHAPE))

    cohort = sample_population(spec)
    disc = default_discretization(cohort, schema, maxima)
    if planted is not None:
        seed = derive_seed(opts["seed"], "generate-labels")
        codes = plant_rules(cohort, planted, disc, schema, seed)
    else:
        codes = discretize_cohort(cohort, disc, schema)
    meta = build_metadata(spec, schema, disc, planted)
    meta["master_seed"] = opts["seed"]
    meta["config_hash"], _ = _provenance(
        "generate", opts, spec=meta["population_spec"], planted=meta["planted"], score_maxima=maxima
    )
    paths = write_cohort(opts["out"] / "cohort", schema, codes, cohort, meta)
    print(f"wrote {paths['csv']} ({len(codes)} rows), {paths['raw']}, {paths['meta']}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    opts = _options(args, "train")
    schema, index, out = opts["schema"], _read_cohort(opts), opts["out"]
    config = TrainConfig(
        learning_rate=opts["rate"],
        momentum=opts["momentum"],
        max_epochs=opts["epochs"],
        target_mse=opts["mse_target"],
        hidden_size=opts["hidden"],
        seed=derive_seed(opts["seed"], "train"),
    )
    net = init_network(schema, config)
    result = train(net, index, config)
    digest, inputs = _provenance("train", opts, dataset=opts["data"], hidden=net.hidden_size)
    net.metadata = {
        "config_hash": digest,
        "master_seed": opts["seed"],
        "train_seed": config.seed,
        "schema_hash": schema_hash(schema),
        "inputs": inputs,
        "discretization_hash": opts["cuts_hash"],
    }
    write_json(out / "model.json", network_to_dict(net))
    train_log = {"config_hash": digest, "final_mse": result.final_mse, "mse_history": result.mse_history}
    write_json(out / "train_log.json", train_log)
    print(f"wrote {out / 'model.json'} (mse {result.final_mse:.5f} after {result.epochs_run} epochs)")
    return 0


# ---------------------------------------------------------------------------
# extract


def cmd_extract(args) -> int:
    opts = _options(args, "extract")
    schema, index, out = opts["schema"], _read_cohort(opts), opts["out"]
    net = load_network(opts["model"])
    for what, ours in (("schema", schema_hash(schema)), ("discretization", opts["cuts_hash"])):
        theirs = net.metadata.get(f"{what}_hash")
        if theirs and ours and theirs != ours:
            raise ValidationError(f"{what} mismatch between model and dataset: "
                                  f"model has {theirs[:12]}..., dataset has {ours[:12]}...")
    ga = GaConfig(
        population_size=opts["pop"],
        generations=opts["generations"],
        crossover_prob=opts["crossover"],
        mutation_prob=opts["mutation"],
        tournament_size=opts["tournament"],
        elitism=opts["elitism"],
    )
    ruleset = extract_ruleset(
        net,
        index,
        ga_config=ga,
        per_class_rule_budget=opts["budget"],
        confidence_threshold=opts["confidence"],
        epsilon=opts["epsilon"],
        seed=derive_seed(opts["seed"], "extract"),
    )
    doc = ruleset_to_dict(ruleset)
    doc["config_hash"], doc["inputs"] = _provenance(
        "extract", opts, dataset=opts["data"], model=opts["model"]
    )
    doc["training_accuracy"] = ruleset.accuracy(index, schema)
    write_json(out / "ruleset.json", doc)
    (out / "rules.txt").write_text(format_ruleset(ruleset, schema), encoding="utf-8")
    print(
        f"wrote {out / 'ruleset.json'} ({len(ruleset.rules)} rules, "
        f"training accuracy {doc['training_accuracy']:.3f})"
    )
    return 0


# ---------------------------------------------------------------------------
# stats


def _group_split(index: DatasetIndex, group_by: str) -> dict[str, np.ndarray]:
    """Per level of attribute ``group_by``, in level order: the indices of
    its records, the rows of the raw table each group statistic reads.  Each
    level needs at least 2 records."""
    codes = index.column(group_by)
    groups: dict[str, np.ndarray] = {}
    for k, token in enumerate(index.schema.attribute(group_by).levels):
        groups[token] = rows = np.flatnonzero(codes == k)
        if len(rows) < 2:
            raise ValidationError(f"insufficient data: group {token!r} of {group_by!r} has {len(rows)} record"
                                  f"{'' if len(rows) == 1 else 's'}; the group statistics need at least 2 in each")
    return groups


def _gather(raw_matrix: np.ndarray, rows: np.ndarray, columns: list[int]) -> np.ndarray:
    """``raw_matrix[rows][:, columns]``, without a copy of the whole rows:
    the same values in the same column-major layout, so each reduction and
    product over the block adds in the same order and gives the same bits."""
    return raw_matrix.T[np.ix_(columns, rows)].T


_PAIR = (int, int)  # integer degrees of freedom (hypothesis, error)
# synthgen.target_checks: z and one (group, dimension, sample, target, tol, ok) per check
_TARGET_CHECKS = {"z": float, "checks": [(str, str, float, float, float, bool)]}
_STATS_SECTIONS = {
    "target_group_ttest": {"groups": {str: {"n": int, "mean": float, "sd": float}}, "t": float,
                           "df": float, "p": float, "method": str, "significance": str},
    "blocks": {str: {
        "wilks": {"lambda": float, "f": float, "df": _PAIR, "p": float, "eta_squared": float},
        "univariate": {str: {"ss_h": float, "ss_e": float, "df": _PAIR, "ms_h": float, "ms_e": float,
                             "f": float, "p": float, "eta_squared": float, "significance": str}},
        "levene": {str: {"w": float, "df": _PAIR, "p": float}},
        "alpha": float}},
    "skipped_blocks?": {str: [str]},  # block -> the raw dimensions it lacks
    "partial_correlations": {"control": str, "groups": {str: {str: float}}}}
# stats.json as cmd_stats writes it; no target checks when the cohort's sidecar has no population spec
STATS_SHAPE = {"config_hash": str, "inputs": _INPUTS,
               "sections": {**_STATS_SECTIONS, "target_checks?": _TARGET_CHECKS}}


def cmd_stats(args) -> int:
    opts = _options(args, "stats")
    schema = opts["schema"]
    levels = schema.attribute(opts["group_by"]).levels
    if len(levels) != 2:
        raise ValidationError(
            f"--group-by {opts['group_by']!r} has {len(levels)} levels; "
            "the group statistics compare exactly 2"
        )
    index = _read_cohort(opts)
    raw_path = opts["data"].with_suffix(".raw.csv")
    if not raw_path.exists():
        raise ValidationError(
            f"stats needs raw scores; no sidecar {raw_path.name} next to the dataset"
        )
    raw_dims = _read_csv(read_raw_header, raw_path)
    raw_matrix = _companion(opts, raw_path, "f", len(raw_dims))
    if raw_matrix is None:
        _, raw_matrix = _read_csv(parse_raw_csv, raw_path)
    if raw_matrix.shape[0] != len(index):
        raise ValidationError(f"raw table has {raw_matrix.shape[0]} rows, dataset has {len(index)}")
    bad = np.argwhere(~np.isfinite(raw_matrix))
    if len(bad):
        row, column = bad[0]
        raise ValidationError(f"{raw_path.name} row {row + 1}, column {raw_dims[column]!r}: "
                              f"score {float(raw_matrix[row, column])!r} is not finite")
    # only stats reads the sidecar's population spec, so only stats checks its shape
    sidecar = opts["sidecar"]
    sections: dict = {}
    if opts["meta"].get("population_spec") is not None:
        spec = PopulationSpec.from_dict(opts["meta"]["population_spec"], f"{sidecar}.population_spec")
        try:
            z, checks = target_checks(spec, raw_dims, raw_matrix, index)
        except ValidationError as e:
            raise ValidationError(
                f"{sidecar.name} population_spec does not fit {raw_path.name}: {e}"
            ) from None
        sections["target_checks"] = {"z": z, "checks": checks}
    col = {d: j for j, d in enumerate(raw_dims)}
    target_dim = schema.target.name
    if target_dim not in col:
        raise ValidationError(f"raw table lacks the target dimension {target_dim!r}")
    groups = _group_split(index, opts["group_by"])
    tokens = list(groups)

    # target comparison across the first two groups
    target = {token: raw_matrix[rows, col[target_dim]] for token, rows in groups.items()}
    try:
        tres = t_test(target[tokens[0]], target[tokens[1]], method="welch")
    except (ValidationError, NumericError) as e:
        raise type(e)(f"stats target t-test of {target_dim!r} by {opts['group_by']!r}: {e}") from None
    sections["target_group_ttest"] = {
        "groups": {token: dict(zip(("n", "mean", "sd"), (len(y), *mean_sd(y)))) for token, y in target.items()},
        "t": tres.t, "df": tres.df, "p": tres.p, "method": tres.method, "significance": significance_label(tres.p)}

    # with every interaction scale, each other block's columns and total are
    # correlated with the target, controlling for each group's interaction total
    control_dims = studydata.MEASURE_BLOCKS["interaction"]
    controls = None
    if all(d in col for d in control_dims):
        controls = [_gather(raw_matrix, groups[t], [col[d] for d in control_dims]).sum(axis=1) for t in tokens]
    partials = {"control": "+".join(control_dims) if controls else "none",
                "groups": {t: {} for t in tokens} if controls else {}}
    blocks, skipped = {}, {}
    for block_name, dims in studydata.MEASURE_BLOCKS.items():
        missing = [d for d in dims if d not in col]
        if missing:
            skipped[block_name] = missing
            print(f"warning: stats skips block {block_name!r}; the raw table lacks {', '.join(missing)}",
                  file=sys.stderr)
            continue
        idx = [col[d] for d in dims]
        per_group = [_gather(raw_matrix, groups[t], idx) for t in tokens]
        try:  # the block's first statistic: a scatter too small, singular or overflowing is named by its block
            wres = manova_wilks(per_group)
        except (ValidationError, NumericError) as e:
            raise type(e)(f"stats block {block_name!r}: {e}") from None
        # each dimension's samples are its columns of the groups' gathered blocks
        series = {d: [g[:, j] for g in per_group] for j, d in enumerate(dims)}
        series["Total"] = [g.sum(axis=1) for g in per_group]
        univariate, levene = {}, {}
        for d, samples in series.items():
            univariate[d] = _anova_from_groups(samples)
            lv = levene_w(samples)
            levene[d] = {"w": lv.w, "df": list(lv.df), "p": lv.p}
        for i, token in enumerate(tokens if controls and block_name != "interaction" else ()):
            for d, samples in series.items():
                name = f"Total ({block_name})" if d == "Total" else d
                try:
                    partials["groups"][token][name] = partial_r(samples[i], target[token], controls[i])
                except (ValidationError, NumericError) as e:
                    raise type(e)(f"stats partial correlation {name!r}, group {token!r}: {e}") from None
        del per_group, series  # the block's matrices and their column views go before cronbach_alpha's copy
        blocks[block_name] = {
            "wilks": {"lambda": wres.wilks_lambda, "f": wres.f, "df": list(wres.df), "p": wres.p,
                      "eta_squared": wres.eta_squared},
            "univariate": univariate, "levene": levene, "alpha": cronbach_alpha(raw_matrix[:, idx])}
    sections["blocks"] = blocks
    if skipped:
        sections["skipped_blocks"] = skipped
    sections["partial_correlations"] = partials

    files = {"dataset": opts["data"], "raw": raw_path}
    if sidecar.exists():
        files["meta"] = sidecar
    digest, inputs = _provenance("stats", opts, **files)
    stats = {"config_hash": digest, "inputs": inputs, "sections": sections}
    write_json(opts["out"] / "stats.json", stats)
    print(f"wrote {opts['out'] / 'stats.json'}")
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
    "cohort.csv", "cohort.raw.csv", "cohort.meta.json", "model.json", "train_log.json",
    "ruleset.json", "rules.txt", "stats.json",
)


# the fields of each JSON artifact that report reads; all of stats.json, target checks required;
# PopulationSpec.from_dict holds the population spec to its shape, network_from_dict the model
REPORT_SHAPES = {
    "cohort.meta.json": {"config_hash": str, "master_seed": int, "generator": str,
                         "schema": SCHEMA_SHAPE, "population_spec": object},
    "model.json": {"metadata": {"config_hash": str, "inputs": _INPUTS}},
    "train_log.json": {"config_hash": str, "final_mse": float, "mse_history": [float]},
    "ruleset.json": {"config_hash": str, "inputs": _INPUTS, "default": str,
                     "rules": [{"confidence": float, "support": int}], "training_accuracy": float},
    "stats.json": {**STATS_SHAPE, "sections": {**_STATS_SECTIONS, "target_checks": _TARGET_CHECKS}},
}


def _check_ruleset(path: Path, ruleset: dict, schema: AttributeSchema) -> rulekit.RuleSet:
    """``ruleset.json``'s ruleset, once no rule term names the target and
    ``rules.txt`` at ``path`` (a byte order mark skipped) parses back to its
    rules, in order, and its default, so ``format_rule`` writes their lines.
    Rules compare by their ``format_rule`` lines, which list terms and levels
    in schema order, whatever order ``ruleset.json`` lists them in."""
    recorded = ruleset_from_dict(ruleset)
    for i, rule in enumerate(recorded.rules):
        for j, (name, _) in enumerate(rule.terms):
            if name == schema.target.name:
                raise ValidationError(
                    f"ruleset.json.rules[{i}].terms[{j}].attribute names the target {name!r}, "
                    "which a rule can only conclude"
                )
    try:
        text = path.read_text(encoding="utf-8-sig")
        written = parse_ruleset(text, schema)
    except (UnicodeDecodeError, ValidationError) as e:
        raise ValidationError(f"{path.name} does not parse: {e}") from None

    def formatted(rule: rulekit.Rule) -> str | None:
        try:
            return format_rule(rule, schema)
        except ValidationError:  # a rule format_rule cannot write is on no line of rules.txt
            return None

    got, want = ([formatted(r) for r in rs.rules] + [rs.default] for rs in (written, recorded))
    # one entry per line, the default last, so a shorter list differs within its length
    for n, (line, a, b) in enumerate(zip(text.splitlines(), got, want), start=1):
        if a != b:
            raise ValidationError(f"{path.name} line {n} {line!r} differs from ruleset.json")
    return recorded


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    missing = [name for name in REQUIRED_ARTIFACTS if not (run_dir / name).exists()]
    if missing:
        raise ValidationError(f"missing run artifacts: {', '.join(missing)}")
    docs = (read_json(run_dir / name, shape) for name, shape in REPORT_SHAPES.items())
    meta, model, train_log, ruleset, stats = docs
    spec = PopulationSpec.from_dict(meta["population_spec"], f"{run_dir}/cohort.meta.json.population_spec")
    try:
        net = network_from_dict(model)
    except ValidationError as e:
        raise ValidationError(f"{run_dir}/model.json: {e}") from None
    md = model["metadata"]

    # integrity: every recorded input is a file of this run, unchanged since
    on_disk = {name: file_sha256(run_dir / name) for name in REQUIRED_ARTIFACTS}
    problems = []
    for artifact, inputs in (
        ("model.json", md["inputs"]),
        ("ruleset.json", ruleset["inputs"]),
        ("stats.json", stats["inputs"]),
    ):
        files = {k: v for k, v in inputs.items() if f"{k}_hash" in inputs}
        if not files:
            problems.append(f"{artifact} records no input files")
        for key, name in files.items():
            if name not in on_disk:
                problems.append(f"{artifact} input {key} {name!r} is not a file of this run")
            elif inputs[f"{key}_hash"] != on_disk[name]:
                problems.append(f"{artifact} was made from a different {name}")
    if problems:
        raise ValidationError("artifact hash mismatch: " + "; ".join(problems))
    if train_log["config_hash"] != md["config_hash"]:
        raise ValidationError(f"train_log.json config_hash {train_log['config_hash']!r} does not match "
                              f"model.json metadata config_hash {md['config_hash']!r}")
    history, final_mse = train_log["mse_history"], train_log["final_mse"]
    if not history or history[-1] != final_mse:
        last = f"mse_history[-1] {history[-1]!r}" if history else "an empty mse_history"
        raise ValidationError(f"train_log.json final_mse {final_mse!r} does not match {last}")
    schema = load_schema(meta["schema"])
    rules = _check_ruleset(run_dir / "rules.txt", ruleset, schema).rules

    lines = ["edm-rulex run report", "====================", "", "Artifacts and config hashes"]
    for name, doc in (("cohort.meta.json", meta), ("model.json", md), ("ruleset.json", ruleset),
                      ("stats.json", stats)):
        lines.append(f"  {name:<18}{doc['config_hash']}")
    lines += [f"  master seed       {meta['master_seed']}", ""]
    lines.append(
        "Cohort: "
        + ", ".join(f"{token}={g.n}" for token, g in spec.groups.items())
        + f"; generator {meta['generator']}; spec {spec_hash(spec)[:12]}"
    )
    lines.append(
        f"Model: {net.input_size}-{net.hidden_size}-{net.output_size}, "
        f"final mse {final_mse:.5f} after {len(history)} epochs"
    )
    lines += ["", "Extracted rules (confidence, support)"]
    for rule in rules:
        lines.append(f"  {format_rule(rule, schema)}   ({rule.confidence:.3f}, {rule.support})")
    lines.append(f"  Default class: {ruleset['default']}")
    lines += [f"  Ruleset training accuracy: {ruleset['training_accuracy']:.3f}", ""]

    lines.append("Cohort statistics")
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
    lines.append("")

    checked = stats["sections"]["target_checks"]
    z, checks = checked["z"], checked["checks"]
    lines.append(
        f"Cohort means vs generation targets ({z:.2f} SE tolerance at cohort n, {len(checks)} checks)"
    )
    all_ok = True
    for token, dim, sample, target, tol, ok in checks:
        all_ok &= ok
        lines.append(
            f"  [{'PASS' if ok else 'FAIL'}] {token} / {dim}: "
            f"mean {sample:.3f} vs {target:.3f} (tol {tol:.3f})"
        )
    lines += ["", f"Overall target checks: {'PASS' if all_ok else 'FAIL'}", ""]

    text = "\n".join(lines)
    (run_dir / "report.txt").write_text(text, encoding="utf-8")
    print(f"wrote {run_dir / 'report.txt'}")
    if args.strict and not all_ok:
        print("error: target checks failed (see report.txt)", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edm-rulex", description="rule extraction and cohort statistics pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage, func, about in (
        ("generate", cmd_generate, "generate a synthetic cohort"),
        ("train", cmd_train, "train the network on a cohort CSV"),
        ("extract", cmd_extract, "extract a ruleset from a trained model"),
        ("stats", cmd_stats, "statistical report for a cohort with raw scores"),
    ):
        p = sub.add_parser(stage, help=about)
        p.add_argument("--config", help="JSON config: top-level seed and out, a section per stage")
        for name, kind, default, text in OPTIONS[stage]:
            if default is REQUIRED:
                text += " (required)"
            elif default is not None:
                text += f" (default: {default})"
            p.add_argument("--" + name.replace("_", "-"), type=kind, help=text)
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("run_dir", help="directory holding the run artifacts")
    p.add_argument("--strict", action="store_true", help="exit 1 when any target check fails")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("EDM_RULEX_LOG")
        if level is not None:  # on the package's logger, so it holds where the host configured logging
            if not isinstance(logging.getLevelName(level.upper()), int):  # a level's name gives its number
                raise ValidationError(f"EDM_RULEX_LOG={level!r} is not DEBUG, INFO, WARNING, ERROR or CRITICAL")
            logging.getLogger("edm_rulex").setLevel(level.upper())
        logging.basicConfig()  # a stderr handler, where the host has none
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
