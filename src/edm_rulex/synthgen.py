"""Synthetic cohort generation from per-group summary statistics.

Cohorts are drawn per group (gender) from a correlated Gaussian whose means,
spreads, and correlation matrix are explicit inputs.  The cohort then moves
as columns: each raw dimension is discretized into a level-code column in
one step and the group token fills the group attribute's column, giving the
records' level codes ``intp[N, A]``, from which ``DatasetIndex`` encodes
them.  Labels come either from discretizing the target's raw score or from
a planted rule list, matched by ``RuleSet.predict_index``; the latter gives
the extraction pipeline a known ground truth to recover.  ``write_cohort``
writes the token CSV and its ``.npy`` companion from the level codes, and
the raw score table and its companion from the score matrix, the CSVs a
chunk of rows at a time; the sidecar holds both pairs' hashes.

Generation is deterministic for a fixed spec and seed and records its
pseudo-random algorithm identifier in the sidecar metadata; byte equality is
promised within one implementation, statistical agreement across them.
"""

from __future__ import annotations

import csv
import logging
import statistics
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import NumericError, ValidationError
from .rulekit import Rule, RuleSet
from .schema import (
    CHUNK_ROWS,
    AttributeSchema,
    DatasetIndex,
    discretize_column,
    schema_document,
    write_index_csv,
)
from .util import check, check_indexable, config_hash, file_sha256, split_over_cpus, write_json

log = logging.getLogger(__name__)

GENERATOR_ID = "numpy-pcg64"

# A graded (four-level) dimension's cut points, as fractions of its maximum score.
GRADE_FRACTIONS = (0.50, 0.65, 0.80)

_EIGEN_FLOOR = 1e-6  # nearest_pd_correlation clips eigenvalues here


@dataclass(frozen=True)
class GroupSpec:
    """Moments of one group: count, per-dimension means/sds, correlation."""

    n: int
    means: tuple[float, ...]
    sds: tuple[float, ...]
    correlation: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class PopulationSpec:
    """Named dimensions plus one GroupSpec per group token, and the seed."""

    dimensions: tuple[str, ...]
    groups: Mapping[str, GroupSpec]
    seed: int = 0

    def __post_init__(self):
        d = len(self.dimensions)
        for name, value in (("dimensions", self.dimensions), ("groups", self.groups)):
            if not value:
                raise ValidationError(f"population spec: {name} is empty; it needs at least one entry")
        if len(set(self.dimensions)) != d:
            raise ValidationError("duplicate dimension names in population spec")
        for token, g in self.groups.items():
            if g.n < 1:
                raise ValidationError(f"group {token!r}: n must be >= 1, got {g.n}")
            check_indexable(f"group {token!r}: n {g.n}", (g.n, d), float)
            if len(g.means) != d or len(g.sds) != d:
                raise ValidationError(f"group {token!r}: means/sds length != {d}")
            if any(s < 0 for s in g.sds):
                raise ValidationError(f"group {token!r}: negative sd")
            if len(g.correlation) != d or any(len(row) != d for row in g.correlation):
                raise ValidationError(f"group {token!r}: correlation must be {d}x{d}")
            c = np.asarray(g.correlation, dtype=float)
            if not np.allclose(c, c.T, atol=1e-12):
                raise ValidationError(f"group {token!r}: correlation matrix not symmetric")
            if not np.allclose(np.diag(c), 1.0, atol=1e-12):
                raise ValidationError(f"group {token!r}: correlation diagonal must be 1")
            if np.any(np.abs(c) > 1 + 1e-12):
                raise ValidationError(f"group {token!r}: correlation entries must be in [-1,1]")

    def to_dict(self) -> dict:
        # group_order survives key-sorting JSON writers; from_dict restores it
        return {
            "dimensions": list(self.dimensions),
            "group_order": list(self.groups),
            "groups": {
                token: {
                    "n": g.n,
                    "means": list(g.means),
                    "sds": list(g.sds),
                    "correlation": [list(row) for row in g.correlation],
                }
                for token, g in self.groups.items()
            },
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: Mapping, where: str = "population spec") -> "PopulationSpec":
        """The spec a JSON document describes; a document that does not fit
        ``POPULATION_SPEC_SHAPE`` is a ValidationError naming ``where`` and
        the field."""
        doc = check(doc, POPULATION_SPEC_SHAPE, where)
        groups = doc["groups"]
        order = doc.get("group_order", list(groups))
        if sorted(order) != sorted(groups):
            raise ValidationError("group_order does not match the groups mapping")

        def group(g: Mapping) -> GroupSpec:
            means, sds = tuple(map(float, g["means"])), tuple(map(float, g["sds"]))
            return GroupSpec(g["n"], means, sds, tuple(tuple(map(float, r)) for r in g["correlation"]))

        return PopulationSpec(
            dimensions=tuple(doc["dimensions"]),
            groups={token: group(groups[token]) for token in order},
            seed=doc.get("seed", 0),
        )


POPULATION_SPEC_SHAPE = {"dimensions": [str], "group_order?": [str], "seed?": int, "groups": {
    str: {"n": int, "means": [float], "sds": [float], "correlation": [[float]]}}}


def spec_hash(spec: PopulationSpec) -> str:
    return config_hash(spec.to_dict())


@dataclass(frozen=True)
class RawCohort:
    """Sampled raw scores: one (n, d) matrix per group, shared dimension list."""

    dimensions: tuple[str, ...]
    groups: Mapping[str, np.ndarray]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Every group's rows stacked in group order: the cohort's record order."""
        return np.concatenate(list(self.groups.values()), axis=0)


@dataclass(frozen=True)
class PlantedRuleSpec:
    """The planted truth: a record takes the level of the first of ``truth``'s
    rules it matches, else ``truth``'s default (in JSON, the last rule: a
    catch-all, with an empty ``when``).  With probability ``noise`` a label is
    flipped to a uniformly random other level.
    """

    truth: RuleSet
    noise: float = 0.0

    def __post_init__(self):
        if not 0 <= self.noise < 1:
            raise ValidationError(f"noise rate must be in [0,1), got {self.noise}")

    def to_dict(self) -> dict:
        rules = [
            {"when": {attr: list(levels) for attr, levels in r.terms}, "then": r.consequent}
            for r in self.truth.rules
        ]
        catch_all = {"when": {}, "then": self.truth.default}
        return {"rules": [*rules, catch_all], "noise": self.noise}

    @staticmethod
    def from_dict(doc: Mapping) -> "PlantedRuleSpec":
        doc = check(doc, PLANTED_SPEC_SHAPE, "planted rule spec")
        if not doc["rules"] or doc["rules"][-1]["when"]:
            raise ValidationError("planted rule spec must end with a catch-all rule (empty 'when')")
        *rules, catch_all = doc["rules"]
        for i, rule in enumerate(rules):
            if not rule["when"]:
                raise ValidationError(f"planted rule spec.rules[{i}] is a catch-all (empty 'when'), "
                                      "which hides every later rule; only the last rule may be one")
            for attr, levels in rule["when"].items():
                if not levels:
                    raise ValidationError(f"planted rule spec.rules[{i}].when[{attr!r}] names no levels")
        truth = tuple(
            Rule(tuple(sorted((attr, tuple(ls)) for attr, ls in r["when"].items())), r["then"])
            for r in rules
        )
        return PlantedRuleSpec(RuleSet(truth, catch_all["then"]), float(doc.get("noise", 0.0)))


PLANTED_SPEC_SHAPE = {"rules": [{"when": {str: [str]}, "then": str}], "noise?": float}


def cholesky_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L@L.T equal to the input.

    Raises NumericError naming the first non-positive leading minor when the
    matrix is not positive definite.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"cholesky_factor needs a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValidationError("cholesky_factor needs a symmetric matrix")
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= 0:
            raise NumericError(
                f"matrix is not positive definite: leading minor of order {j + 1} "
                f"has non-positive pivot {pivot:.3e}"
            )
        lower[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def nearest_pd_correlation(matrix: np.ndarray) -> np.ndarray:
    """Repair a symmetric matrix to a positive definite correlation matrix.

    Eigenvalues are clipped at 1e-6 and the result rescaled back to a unit
    diagonal.
    """
    a = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eigh((a + a.T) / 2)
    clipped = np.clip(vals, _EIGEN_FLOOR, None)
    repaired = (vecs * clipped) @ vecs.T
    d = np.sqrt(np.diag(repaired))
    repaired = repaired / np.outer(d, d)
    np.fill_diagonal(repaired, 1.0)
    return repaired


def sample_population(spec: PopulationSpec) -> RawCohort:
    """Draw each group's raw score table from its correlated Gaussian.

    Rows are ``mean + sd * (L @ z)`` with z standard normal from the seeded
    generator; deterministic for a fixed spec.  A correlation matrix that is
    not positive definite is first repaired by eigenvalue clipping.
    """
    rng = np.random.default_rng(spec.seed)
    groups: dict[str, np.ndarray] = {}
    for token, g in spec.groups.items():
        corr = np.asarray(g.correlation, dtype=float)
        try:
            lower = cholesky_factor(corr)
        except NumericError:
            log.info("group %s: correlation repaired to nearest PD", token)
            lower = cholesky_factor(nearest_pd_correlation(corr))
        rows = rng.standard_normal((g.n, len(spec.dimensions))) @ lower.T
        rows *= g.sds
        rows += g.means  # the same bits as means + rows: addition commutes
        groups[token] = rows
    return RawCohort(dimensions=spec.dimensions, groups=groups)


# A correct cohort fails the whole family of target checks at this rate, the
# rate at which it fails one 3-SE check.
TARGET_CHECK_ERROR_RATE = 0.0027


def target_checks(spec: PopulationSpec, raw_dims, raw_matrix: np.ndarray, index: DatasetIndex):
    """The cohort's means against its generation targets: ``(z, checks)``,
    one check ``(group, dimension, sample mean, target mean, tolerance, ok)``
    per group and dimension of non-zero sd, in spec order; ok when the means
    differ by at most the tolerance.  Each tolerance is z standard errors at
    the group's row count, with z the Bonferroni bound that holds the family
    of m checks to ``TARGET_CHECK_ERROR_RATE`` (3.00 at m = 1, 4.03 at m = 48).
    Raw row i is record i of ``index``, whose group attribute column groups
    the rows, in any order; the table's columns are read by name."""
    col = {d: j for j, d in enumerate(raw_dims)}
    missing = [d for d in spec.dimensions if d not in col]
    if missing:
        raise ValidationError(f"the raw table lacks the spec's dimensions {', '.join(missing)}")
    spec_rows = sum(g.n for g in spec.groups.values())
    if spec_rows != len(raw_matrix):
        raise ValidationError(f"the spec has {spec_rows} rows in its groups, "
                              f"the raw table has {len(raw_matrix)}")
    attr = _group_attribute(spec.groups, index.schema)
    group = index.column(attr.name)
    checks = []
    for token, g in spec.groups.items():
        rows = raw_matrix[group == attr.level_index(token)]
        if not len(rows):
            raise ValidationError(f"the table has no rows of the spec's group {token!r}")
        for j, dim in enumerate(spec.dimensions):
            if g.sds[j] != 0:
                sample = float(rows[:, col[dim]].mean())
                checks.append((token, dim, sample, g.means[j], g.sds[j] / len(rows) ** 0.5))
    z = statistics.NormalDist().inv_cdf(1 - TARGET_CHECK_ERROR_RATE / (2 * max(len(checks), 1)))
    return z, [
        (token, dim, sample, mean, z * se, abs(sample - mean) <= z * se)
        for token, dim, sample, mean, se in checks
    ]


def tertile_cuts(values: np.ndarray) -> tuple[float, float]:
    """Empirical tertile boundaries of a sample."""
    q = np.quantile(np.asarray(values, dtype=float), [1 / 3, 2 / 3])
    return float(q[0]), float(q[1])


def default_discretization(
    cohort: RawCohort, schema: AttributeSchema, score_maxima: Mapping[str, float]
) -> dict[str, tuple[float, ...]]:
    """Ascending cut points for every raw dimension that names a schema
    attribute; band i is level i of that attribute.

    Three-level attributes get pooled-sample tertiles; other attributes get
    ``GRADE_FRACTIONS`` of the dimension's maximum score.
    """
    pooled = cohort.matrix
    cuts: dict[str, tuple[float, ...]] = {}
    by_name = {a.name: a for a in schema.attributes}
    for j, dim in enumerate(cohort.dimensions):
        attr = by_name.get(dim)
        if attr is None:
            continue
        if len(attr.levels) == 3:
            cuts[dim] = tertile_cuts(pooled[:, j])
        elif dim in score_maxima:
            cuts[dim] = tuple(f * score_maxima[dim] for f in GRADE_FRACTIONS)
        else:
            raise ValidationError(
                f"dimension {dim!r} has {len(attr.levels)} levels and no score maximum; "
                "cannot build default cuts"
            )
    return cuts


def _group_attribute(groups: Mapping[str, object], schema: AttributeSchema):
    """The predictive attribute whose levels contain every group token."""
    tokens = set(groups)
    candidates = [a for a in schema.predictive if tokens <= set(a.levels)]
    if len(candidates) != 1:
        raise ValidationError(
            f"cannot identify the group attribute for group tokens {sorted(tokens)}; "
            f"candidates: {[a.name for a in candidates]}"
        )
    return candidates[0]


def _cohort_codes(
    cohort: RawCohort, disc: Mapping[str, Sequence[float]], schema: AttributeSchema, labelled: bool
) -> np.ndarray:
    """Level codes of the cohort's records, one column per schema attribute:
    the group token, or the codes of the attribute's raw dimension.  With
    ``labelled`` the caller supplies the target and its column stays 0."""
    group_attr = _group_attribute(cohort.groups, schema)
    scored = {d for d in cohort.dimensions if d in disc} | {group_attr.name}
    if labelled:
        scored.add(schema.target.name)
    missing = [a.name for a in schema.attributes if a.name not in scored]
    if missing:
        raise ValidationError(f"raw cohort provides no scores for attributes {missing}")
    matrix = cohort.matrix
    codes = np.zeros((len(matrix), len(schema.attributes)), dtype=np.intp)
    for j, attr in enumerate(schema.attributes):
        if attr is group_attr:
            group_codes = [attr.level_index(token) for token in cohort.groups]
            codes[:, j] = np.repeat(group_codes, [len(rows) for rows in cohort.groups.values()])
        elif not (labelled and attr is schema.target):
            scores = matrix[:, cohort.dimensions.index(attr.name)]
            codes[:, j] = discretize_column(scores, disc[attr.name], attr)
    return codes


def discretize_cohort(
    cohort: RawCohort, disc: Mapping[str, Sequence[float]], schema: AttributeSchema
) -> np.ndarray:
    """The cohort's level codes ``intp[N, A]``; each target level comes from
    the target's raw score."""
    return _cohort_codes(cohort, disc, schema, labelled=False)


def plant_rules(
    cohort: RawCohort,
    planted: PlantedRuleSpec,
    disc: Mapping[str, Sequence[float]],
    schema: AttributeSchema,
    seed: int,
) -> np.ndarray:
    """The cohort's level codes ``intp[N, A]``, each record labelled by the
    planted truth's first matching rule, else its default, with optional
    noise.

    Predictive levels come from discretization exactly as in
    discretize_cohort; only the target column is overridden.  With noise,
    each record in order draws whether it flips and, if so, which other
    level it takes, so the draws do not depend on how the labels were
    matched.
    """
    if planted.noise > 0 and schema.target_bits == 1:
        raise ValidationError(f"planted noise {planted.noise} flips labels to another level, "
                              f"but target {schema.target.name!r} has only one")
    codes = _cohort_codes(cohort, disc, schema, labelled=True)
    target = planted.truth.predict_index(DatasetIndex(schema, codes))
    if planted.noise > 0:
        rng = np.random.default_rng(seed)
        for i, label in enumerate(target.tolist()):
            if rng.random() < planted.noise:
                other = int(rng.integers(0, schema.target_bits - 1))
                target[i] = other + (other >= label)  # the other levels, in level order
    codes[:, schema.attributes.index(schema.target)] = target
    return codes


# Rows per piece of raw CSV text that write_raw_csv writes, or that a child
# sends it: a piece of 64 rows holds far less than a chunk of rows as floats
# and costs little to pickle.
_PIECE_ROWS = 64


def write_raw_csv(cohort: RawCohort, out: TextIO) -> None:
    """Write the raw score table to ``out`` as CSV with full float precision
    (byte-stable).  ``util.split_over_cpus`` cuts the rows into contiguous
    slices of at least ``CHUNK_ROWS`` rows, one per usable CPU: this process
    formats the first and a forked child each other, ``_PIECE_ROWS`` rows at
    a time, and the pieces are written in row order, so the bytes do not
    depend on the number of CPUs."""
    csv.writer(out, lineterminator="\n").writerow(cohort.dimensions)
    matrix = cohort.matrix

    def pieces(part: slice) -> Iterator[str]:
        block = matrix[part]
        for start in range(0, len(block), _PIECE_ROWS):
            rows = block[start : start + _PIECE_ROWS].tolist()
            # a float's repr() never needs CSV quoting
            yield "".join([",".join(map(repr, row)) + "\n" for row in rows])

    out.writelines(split_over_cpus(pieces, len(matrix), CHUNK_ROWS, "CSV writer"))


def read_raw_header(stream: TextIO) -> tuple[str, ...]:
    """The column names on the first line of a raw score CSV stream.  An
    empty stream or a column named twice is a ValidationError naming it."""
    header_line = stream.readline().removesuffix("\n")
    if not header_line:
        raise ValidationError("raw CSV is empty")
    header = tuple(next(csv.reader([header_line])))
    twice = sorted({name for name in header if header.count(name) > 1})
    if twice:
        raise ValidationError(f"raw CSV header names {', '.join(map(repr, twice))} more than once")
    return header


def parse_raw_csv(stream: TextIO) -> tuple[tuple[str, ...], np.ndarray]:
    """Header (``read_raw_header``) and ``float[N, D]`` table of a raw score
    CSV stream, which must be seekable.  A cell that is not a number, or a
    row of the wrong width, is a ValidationError naming the first such row
    (1-based, blank lines counted) and column.

    ``np.loadtxt`` reads the rows from the stream; only when it fails is the
    stream read again from the first row, to find the row to report."""
    header = read_raw_header(stream)
    body = stream.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            matrix = np.loadtxt(stream, delimiter=",", ndmin=2, comments=None)
        if matrix.size == 0:
            return header, np.empty((0, len(header)))
        if matrix.shape[1] == len(header):
            return header, matrix
    except ValueError:
        pass
    stream.seek(body)
    for rownum, row in enumerate(csv.reader(stream), start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise ValidationError(
                f"raw CSV row {rownum}: expected {len(header)} columns, got {len(row)}"
            )
        for name, cell in zip(header, row):
            try:
                float(cell)
            except ValueError:
                raise ValidationError(
                    f"raw CSV row {rownum}, column {name!r}: {cell!r} is not a number"
                ) from None
    raise ValidationError("raw CSV is not a table of numbers")


# cohort.meta.json's companions: CSV file name -> its and its array's (suffix .npy) SHA-256
COMPANIONS_SHAPE = {str: {"csv_hash": str, "npy_hash": str}}


def write_cohort(
    stem: str | Path, schema: AttributeSchema, codes: np.ndarray, cohort: RawCohort, meta: Mapping
) -> dict[str, Path]:
    """Write ``<stem>.csv``, ``<stem>.raw.csv`` and ``<stem>.meta.json``, and
    beside each CSV its table as ``np.save`` writes it: the level codes
    ``intp[N, A]`` in ``<stem>.npy`` and the raw scores in
    ``<stem>.raw.npy``.  The meta gains
    ``companions``: per CSV file name, the SHA-256 of the CSV and of its
    array, so a reader can tell they still agree.  The raw CSV's rows are
    formatted on all usable CPUs (``write_raw_csv``), to the same bytes on
    any number of them."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        key: stem.with_name(stem.name + suffix)
        for key, suffix in (("csv", ".csv"), ("raw", ".raw.csv"), ("meta", ".meta.json"),
                            ("npy", ".npy"), ("raw_npy", ".raw.npy"))
    }
    with open(paths["csv"], "w", encoding="utf-8") as out:
        write_index_csv(schema, codes, out)
    with open(paths["raw"], "w", encoding="utf-8") as out:
        write_raw_csv(cohort, out)
    np.save(paths["npy"], codes)
    np.save(paths["raw_npy"], cohort.matrix)
    companions = {
        paths[table].name: {"csv_hash": file_sha256(paths[table]), "npy_hash": file_sha256(paths[npy])}
        for table, npy in (("csv", "npy"), ("raw", "raw_npy"))
    }
    write_json(paths["meta"], {**meta, "companions": companions})
    return paths


def build_metadata(
    spec: PopulationSpec,
    schema: AttributeSchema,
    disc: Mapping[str, Sequence[float]],
    planted: PlantedRuleSpec | None = None,
) -> dict:
    """Sidecar metadata: generator id, population spec, schema, cuts, planted truth."""
    return {
        "generator": GENERATOR_ID,
        "population_spec": spec.to_dict(),
        "schema": schema_document(schema),
        "discretization": {dim: list(cuts) for dim, cuts in disc.items()},
        "planted": planted.to_dict() if planted is not None else None,
    }
