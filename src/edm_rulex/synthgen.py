"""Synthetic cohort generation from per-group summary statistics.

Cohorts are drawn per group (gender) from a correlated Gaussian whose means,
spreads, and correlation matrix are explicit inputs.  The cohort then moves
as columns: each raw dimension is discretized into a level-code column in
one step, the group token fills the group attribute's column, and the
records are encoded once into a ``DatasetIndex``.  Labels come either from
discretizing the target's raw score or from a planted rule list, matched
over that index by ``RuleSet.predict_index``; the latter gives the
extraction pipeline a known ground truth to recover.  ``write_cohort``
writes the index's token CSV and the raw score table from the arrays.

Generation is deterministic for a fixed spec and seed and records its
pseudo-random algorithm identifier in the sidecar metadata; byte equality is
promised within one implementation, statistical agreement across them.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .rulekit import Rule, RuleSet
from .schema import (
    AttributeSchema,
    DatasetIndex,
    DimensionCuts,
    DiscretizationSpec,
    discretize_column,
    schema_document,
    schema_hash,
    write_index_csv,
)
from .util import config_hash, write_json

log = logging.getLogger(__name__)

GENERATOR_ID = "numpy-pcg64"


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
        if len(set(self.dimensions)) != d:
            raise ValidationError("duplicate dimension names in population spec")
        for token, g in self.groups.items():
            if g.n < 1:
                raise ValidationError(f"group {token!r}: n must be >= 1, got {g.n}")
            if len(g.means) != d or len(g.sds) != d:
                raise ValidationError(f"group {token!r}: means/sds length != {d}")
            if any(s < 0 for s in g.sds):
                raise ValidationError(f"group {token!r}: negative sd")
            c = np.asarray(g.correlation, dtype=float)
            if c.shape != (d, d):
                raise ValidationError(f"group {token!r}: correlation must be {d}x{d}")
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
    def from_dict(doc: Mapping) -> "PopulationSpec":
        try:
            order = doc.get("group_order", list(doc["groups"]))
            if sorted(order) != sorted(doc["groups"]):
                raise ValidationError("group_order does not match the groups mapping")
            groups = {
                token: GroupSpec(
                    n=int(doc["groups"][token]["n"]),
                    means=tuple(float(x) for x in doc["groups"][token]["means"]),
                    sds=tuple(float(x) for x in doc["groups"][token]["sds"]),
                    correlation=tuple(
                        tuple(float(x) for x in row) for row in doc["groups"][token]["correlation"]
                    ),
                )
                for token in order
            }
            dimensions = tuple(doc["dimensions"])
        except KeyError as e:
            raise ValidationError(f"population spec lacks the field {e.args[0]!r}") from None
        return PopulationSpec(dimensions=dimensions, groups=groups, seed=int(doc.get("seed", 0)))


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
    """Ordered (antecedent, target level) pairs; first match labels a record.

    The last pair must be a catch-all (empty antecedent).  With probability
    ``noise`` a label is flipped to a uniformly random other level.
    """

    pairs: tuple[tuple[tuple[tuple[str, tuple[str, ...]], ...], str], ...]
    noise: float = 0.0

    def __post_init__(self):
        if not self.pairs:
            raise ValidationError("planted rule spec has no pairs")
        if not 0 <= self.noise < 1:
            raise ValidationError(f"noise rate must be in [0,1), got {self.noise}")
        if self.pairs[-1][0] != ():
            raise ValidationError(
                "planted rule spec must end with a catch-all pair (empty antecedent)"
            )

    def to_dict(self) -> dict:
        return {
            "rules": [
                {"when": {attr: list(levels) for attr, levels in terms}, "then": label}
                for terms, label in self.pairs
            ],
            "noise": self.noise,
        }

    @staticmethod
    def from_dict(doc: Mapping) -> "PlantedRuleSpec":
        try:
            pairs = tuple(
                (
                    tuple(sorted((attr, tuple(levels)) for attr, levels in rule["when"].items())),
                    str(rule["then"]),
                )
                for rule in doc["rules"]
            )
        except KeyError as e:
            raise ValidationError(f"planted rule spec lacks the field {e.args[0]!r}") from None
        return PlantedRuleSpec(pairs=pairs, noise=float(doc.get("noise", 0.0)))


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


def nearest_pd_correlation(matrix: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    """Repair a symmetric matrix to a positive definite correlation matrix.

    Eigenvalues are clipped at ``floor`` and the result rescaled back to a
    unit diagonal.
    """
    a = np.asarray(matrix, dtype=float)
    vals, vecs = np.linalg.eigh((a + a.T) / 2)
    clipped = np.clip(vals, floor, None)
    repaired = (vecs * clipped) @ vecs.T
    d = np.sqrt(np.diag(repaired))
    repaired = repaired / np.outer(d, d)
    np.fill_diagonal(repaired, 1.0)
    return repaired


def sample_population(spec: PopulationSpec, repair: bool = True) -> RawCohort:
    """Draw each group's raw score table from its correlated Gaussian.

    Rows are ``mean + sd * (L @ z)`` with z standard normal from the seeded
    generator; deterministic for a fixed spec.  When ``repair`` is on,
    non-positive-definite correlation inputs are first repaired by eigenvalue
    clipping; otherwise the Cholesky failure propagates.
    """
    rng = np.random.default_rng(spec.seed)
    groups: dict[str, np.ndarray] = {}
    for token, g in spec.groups.items():
        corr = np.asarray(g.correlation, dtype=float)
        if repair:
            try:
                lower = cholesky_factor(corr)
            except NumericError:
                log.info("group %s: correlation repaired to nearest PD", token)
                lower = cholesky_factor(nearest_pd_correlation(corr))
        else:
            lower = cholesky_factor(corr)
        z = rng.standard_normal((g.n, len(spec.dimensions)))
        rows = np.asarray(g.means) + (z @ lower.T) * np.asarray(g.sds)
        groups[token] = rows
    return RawCohort(dimensions=spec.dimensions, groups=groups)


def tertile_cuts(values: np.ndarray) -> tuple[float, float]:
    """Empirical tertile boundaries of a sample."""
    q = np.quantile(np.asarray(values, dtype=float), [1 / 3, 2 / 3])
    return float(q[0]), float(q[1])


def default_discretization(
    cohort: RawCohort,
    schema: AttributeSchema,
    score_maxima: Mapping[str, float],
    grade_fractions: Sequence[float] = (0.50, 0.65, 0.80),
) -> DiscretizationSpec:
    """Cut points for every raw dimension that names a schema attribute.

    Three-level attributes get pooled-sample tertiles; graded attributes
    (four levels) get fixed fractions of the dimension's maximum score.
    """
    pooled = cohort.matrix
    dims: dict[str, DimensionCuts] = {}
    by_name = {a.name: a for a in schema.attributes}
    for j, dim in enumerate(cohort.dimensions):
        attr = by_name.get(dim)
        if attr is None:
            continue
        if len(attr.levels) == 3:
            dims[dim] = DimensionCuts(cuts=tertile_cuts(pooled[:, j]), tokens=attr.levels)
        elif dim in score_maxima:
            cuts = tuple(f * score_maxima[dim] for f in grade_fractions)
            if len(cuts) + 1 != len(attr.levels):
                raise ValidationError(
                    f"dimension {dim!r}: {len(cuts)} grade cuts do not fit {len(attr.levels)} levels"
                )
            dims[dim] = DimensionCuts(cuts=cuts, tokens=attr.levels)
        else:
            raise ValidationError(
                f"dimension {dim!r} has {len(attr.levels)} levels and no score maximum; "
                "cannot build default cuts"
            )
    return DiscretizationSpec(dims)


def _group_attribute(cohort: RawCohort, schema: AttributeSchema):
    """The predictive attribute whose levels contain every group token."""
    tokens = set(cohort.groups)
    candidates = [a for a in schema.predictive if tokens <= set(a.levels)]
    if len(candidates) != 1:
        raise ValidationError(
            f"cannot identify the group attribute for group tokens {sorted(tokens)}; "
            f"candidates: {[a.name for a in candidates]}"
        )
    return candidates[0]


def _cohort_codes(
    cohort: RawCohort, disc: DiscretizationSpec, schema: AttributeSchema, labelled: bool
) -> np.ndarray:
    """Level codes of the cohort's records, one column per schema attribute:
    the group token, or the bands of the attribute's raw dimension.  With
    ``labelled`` the caller supplies the target and its column stays 0."""
    group_attr = _group_attribute(cohort, schema)
    scored = {d for d in cohort.dimensions if d in disc.dimensions} | {group_attr.name}
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
            cuts = disc.dimensions[attr.name]
            scores = matrix[:, cohort.dimensions.index(attr.name)]
            bands = discretize_column(scores, cuts, attr.name)
            codes[:, j] = np.array([attr.level_index(t) for t in cuts.tokens])[bands]
    return codes


def discretize_cohort(
    cohort: RawCohort, disc: DiscretizationSpec, schema: AttributeSchema
) -> DatasetIndex:
    """Encode the cohort; each target level comes from the target's raw score."""
    return DatasetIndex(schema, _cohort_codes(cohort, disc, schema, labelled=False))


def plant_rules(
    cohort: RawCohort,
    planted: PlantedRuleSpec,
    disc: DiscretizationSpec,
    schema: AttributeSchema,
    seed: int,
) -> DatasetIndex:
    """Label records by the first matching planted pair, with optional noise.

    Predictive levels come from discretization exactly as in
    discretize_cohort; only the target is overridden.  With noise, each
    record in order draws whether it flips and, if so, which other level
    it takes, so the draws do not depend on how the labels were matched.
    """
    truth = RuleSet(
        rules=tuple(Rule(terms=terms, consequent=then) for terms, then in planted.pairs),
        default=planted.pairs[-1][1],
    )
    index = DatasetIndex(schema, _cohort_codes(cohort, disc, schema, labelled=True))
    target = truth.predict_index(index)
    if planted.noise > 0:
        rng = np.random.default_rng(seed)
        for i, label in enumerate(target.tolist()):
            if rng.random() < planted.noise:
                other = int(rng.integers(0, schema.target_bits - 1))
                target[i] = other + (other >= label)  # the other levels, in level order
    return DatasetIndex.from_arrays(schema, index.bits, target)


def write_raw_csv(cohort: RawCohort) -> str:
    """Raw score table as CSV with full float precision (byte-stable)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cohort.dimensions)
    # a float's repr() never needs CSV quoting
    buf.writelines(",".join(map(repr, row)) + "\n" for row in cohort.matrix.tolist())
    return buf.getvalue()


def parse_raw_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and ``float[N, D]`` table of a raw score CSV.  A cell that is not
    a number, or a row of the wrong width, is a ValidationError naming the
    first such row (1-based, blank lines counted) and column."""
    header_line, _, body = text.partition("\n")
    if not header_line:
        raise ValidationError("raw CSV is empty")
    header = tuple(next(csv.reader([header_line])))
    if not body.strip():
        return header, np.empty((0, len(header)))
    try:
        matrix = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
        if matrix.shape[1] == len(header):
            return header, matrix
    except ValueError:
        pass
    for rownum, row in enumerate(csv.reader(io.StringIO(body)), start=1):
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


def write_cohort(
    stem: str | Path,
    index: DatasetIndex,
    cohort: RawCohort,
    meta: Mapping,
) -> dict[str, Path]:
    """Write ``<stem>.csv``, ``<stem>.raw.csv`` and ``<stem>.meta.json``."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": stem.with_suffix(".csv"),
        "raw": stem.with_suffix(".raw.csv"),
        "meta": stem.with_suffix(".meta.json"),
    }
    paths["csv"].write_text(write_index_csv(index), encoding="utf-8")
    paths["raw"].write_text(write_raw_csv(cohort), encoding="utf-8")
    write_json(paths["meta"], dict(meta))
    return paths


def build_metadata(
    spec: PopulationSpec,
    schema: AttributeSchema,
    disc: DiscretizationSpec,
    planted: PlantedRuleSpec | None = None,
) -> dict:
    """Sidecar metadata: seed, generator id, spec hash, group sizes, schema."""
    return {
        "seed": spec.seed,
        "generator": GENERATOR_ID,
        "spec_hash": spec_hash(spec),
        "group_order": list(spec.groups),
        "n_per_group": {token: g.n for token, g in spec.groups.items()},
        "schema": schema_document(schema),
        "schema_hash": schema_hash(schema),
        "discretization": disc.to_dict(),
        "planted": planted.to_dict() if planted is not None else None,
    }
