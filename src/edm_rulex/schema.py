"""Attribute schema, score discretization, and the binary segment encoding.

A schema is an ordered list of categorical attributes, each with an ordered
level list and a role (predictive or target).  Predictive attributes are laid
out as contiguous bit segments, one bit per level, which gives every valid
record a fixed-length one-hot-per-segment encoding and gives the genetic
search its chromosome layout.

A dataset is encoded once, into a ``DatasetIndex``: the bit matrix that
training reads and rules are matched against, plus the class vector.  It is
built from level codes, one integer column per attribute: ``discretize_column``
turns a raw score column into codes, ``read_index_csv`` turns the token
columns of a dataset CSV into codes, and ``write_index_csv`` writes an index
back as tokens.  ``parse_dataset_csv`` and ``write_dataset_csv`` are the same
reader and writer seen as ``StudentRecord`` lists.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .util import config_hash

ROLE_PREDICTIVE = "predictive"
ROLE_TARGET = "target"


@dataclass(frozen=True)
class Attribute:
    """One categorical attribute: a name, its ordered levels, and a role."""

    name: str
    levels: tuple[str, ...]
    role: str = ROLE_PREDICTIVE

    def __post_init__(self):
        if self.role not in (ROLE_PREDICTIVE, ROLE_TARGET):
            raise ValidationError(f"unknown role {self.role!r} for attribute {self.name!r}")
        if len(self.levels) == 0:
            raise ValidationError(f"attribute {self.name!r} declares zero levels")
        if len(set(self.levels)) != len(self.levels):
            raise ValidationError(f"attribute {self.name!r} has duplicate level tokens")

    @cached_property
    def code(self) -> dict[str, int]:
        """Level token -> its index in ``levels``."""
        return {token: k for k, token in enumerate(self.levels)}

    def level_index(self, token: str) -> int:
        try:
            return self.code[token]
        except (KeyError, TypeError):  # TypeError: an unhashable token
            raise ValidationError(
                f"unknown token {token!r} for attribute {self.name!r}; "
                f"expected one of {list(self.levels)}"
            ) from None


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attribute list with a computed, stable bit-segment layout.

    Segments are contiguous and non-overlapping in attribute order, covering
    exactly ``[0, total_predictive_bits)``.  Instances are immutable and safe
    to share across threads.
    """

    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate attribute names: {dupes}")
        targets = [a for a in self.attributes if a.role == ROLE_TARGET]
        if len(targets) == 0:
            raise ValidationError("schema declares no target attribute")
        if len(targets) > 1:
            raise ValidationError(
                f"schema declares {len(targets)} target attributes; exactly one is required"
            )

    @cached_property
    def predictive(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.role == ROLE_PREDICTIVE)

    @cached_property
    def target(self) -> Attribute:
        return next(a for a in self.attributes if a.role == ROLE_TARGET)

    @cached_property
    def segments(self) -> dict[str, tuple[int, int]]:
        """Per predictive attribute: (bit offset, bit width) in layout order."""
        out: dict[str, tuple[int, int]] = {}
        offset = 0
        for a in self.predictive:
            out[a.name] = (offset, len(a.levels))
            offset += len(a.levels)
        return out

    @cached_property
    def total_predictive_bits(self) -> int:
        return sum(len(a.levels) for a in self.predictive)

    @cached_property
    def code_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """For level codes ``intp[N, A]``: every attribute's level count, the
        predictive columns, their segment offsets, and the target column."""
        widths = np.array([len(a.levels) for a in self.attributes], dtype=np.intp)
        predictive = np.flatnonzero([a.role == ROLE_PREDICTIVE for a in self.attributes])
        offsets = np.array([self.segments[a.name][0] for a in self.predictive], dtype=np.intp)
        return widths, predictive, offsets, self.attributes.index(self.target)

    @property
    def target_bits(self) -> int:
        return len(self.target.levels)

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise ValidationError(f"schema has no attribute named {name!r}")

    def level_bits(self, name: str, levels: Iterable[str]) -> list[int]:
        """Layout positions of the given levels of predictive attribute ``name``."""
        attr = self.attribute(name)
        if attr.role != ROLE_PREDICTIVE:
            raise ValidationError(f"attribute {name!r} is the target and has no bits")
        offset, _ = self.segments[name]
        return [offset + attr.level_index(t) for t in levels]

    def validate_record(self, record: "StudentRecord") -> None:
        """Check that the record carries exactly the schema's attributes with
        known tokens."""
        expected = {a.name for a in self.attributes}
        got = set(record.values)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValidationError(f"record attributes mismatch: missing={missing} extra={extra}")
        for a in self.attributes:
            a.level_index(record.values[a.name])


@dataclass(frozen=True)
class StudentRecord:
    """One student: a level token per attribute."""

    values: Mapping[str, str]


@dataclass(frozen=True)
class EncodedVector:
    """Fixed-length bit string over the predictive segments plus class index."""

    bits: np.ndarray  # uint8, shape (total_predictive_bits,)
    target_index: int


@dataclass(frozen=True)
class DimensionCuts:
    """Ascending cut points and the level tokens of the bands they bound.

    ``len(tokens) == len(cuts) + 1``; band i is ``[cuts[i-1], cuts[i])``
    (left-closed), scores below the first cut map to tokens[0] and scores at
    or above the last cut map to tokens[-1].
    """

    cuts: tuple[float, ...]
    tokens: tuple[str, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValidationError(f"cut points must be strictly increasing, got {self.cuts}")
        if len(self.tokens) != len(self.cuts) + 1:
            raise ValidationError(
                f"need {len(self.cuts) + 1} tokens for {len(self.cuts)} cuts, got {len(self.tokens)}"
            )


@dataclass(frozen=True)
class DiscretizationSpec:
    """Per raw dimension: the cut points mapping scores to level tokens."""

    dimensions: Mapping[str, DimensionCuts] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            name: {"cuts": list(dc.cuts), "tokens": list(dc.tokens)}
            for name, dc in self.dimensions.items()
        }

    @staticmethod
    def from_dict(doc: Mapping) -> "DiscretizationSpec":
        dims = {
            name: DimensionCuts(tuple(entry["cuts"]), tuple(entry["tokens"]))
            for name, entry in doc.items()
        }
        return DiscretizationSpec(dims)


def load_schema(document: str | Sequence[Mapping]) -> AttributeSchema:
    """Build a schema from its JSON document.

    The document is a list of ``{"name": ..., "levels": [...], "role": ...}``
    objects, or the JSON text of one.  Role defaults to predictive.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ValidationError(f"schema document is not valid JSON: {e}") from None
    if not isinstance(document, Sequence) or isinstance(document, (str, bytes)):
        raise ValidationError("schema document must be a list of attribute objects")
    attrs = []
    for entry in document:
        try:
            attrs.append(
                Attribute(
                    name=str(entry["name"]),
                    levels=tuple(str(t) for t in entry["levels"]),
                    role=str(entry.get("role", ROLE_PREDICTIVE)),
                )
            )
        except KeyError as e:
            raise ValidationError(f"schema attribute entry missing key {e}") from None
    return AttributeSchema(tuple(attrs))


def schema_document(schema: AttributeSchema) -> list[dict]:
    """Inverse of load_schema: the plain-JSON form of a schema."""
    return [
        {"name": a.name, "levels": list(a.levels), "role": a.role} for a in schema.attributes
    ]


def schema_hash(schema: AttributeSchema) -> str:
    return config_hash(schema_document(schema))


def discretize_value(score: float, cuts: DimensionCuts) -> str:
    """Map a raw score to its band token (boundaries belong to the upper band)."""
    if not np.isfinite(score):
        raise ValidationError(f"cannot discretize non-finite score {score!r}")
    idx = int(np.searchsorted(np.asarray(cuts.cuts), score, side="right"))
    return cuts.tokens[idx]


def discretize_column(scores: np.ndarray, cuts: DimensionCuts, name: str) -> np.ndarray:
    """Band index of every score of raw dimension ``name``, as ``discretize_value``
    maps one score: ``intp[N]`` into ``cuts.tokens``."""
    scores = np.asarray(scores, dtype=float)
    finite = np.isfinite(scores)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValidationError(
            f"dimension {name!r}, row {row + 1}: "
            f"cannot discretize non-finite score {float(scores[row])!r}"
        )
    return np.searchsorted(np.asarray(cuts.cuts), scores, side="right")


def encode_record(record: StudentRecord, schema: AttributeSchema) -> EncodedVector:
    """One-hot encode the predictive segments; target becomes a class index."""
    schema.validate_record(record)
    bits = np.zeros(schema.total_predictive_bits, dtype=np.uint8)
    for a in schema.predictive:
        offset, _ = schema.segments[a.name]
        bits[offset + a.level_index(record.values[a.name])] = 1
    return EncodedVector(bits=bits, target_index=schema.target.level_index(record.values[schema.target.name]))


def decode_vector(vec: EncodedVector, schema: AttributeSchema) -> StudentRecord:
    """Invert encode_record.  Requires exactly one set bit per segment."""
    bits = np.asarray(vec.bits, dtype=np.uint8)
    if bits.shape != (schema.total_predictive_bits,):
        raise ValidationError(
            f"bit string has length {bits.shape}, schema expects {schema.total_predictive_bits}"
        )
    values: dict[str, str] = {}
    for a in schema.predictive:
        offset, width = schema.segments[a.name]
        seg = bits[offset : offset + width]
        on = np.flatnonzero(seg)
        if len(on) != 1:
            raise ValidationError(
                f"segment for {a.name!r} is not one-hot ({seg.tolist()}); cannot decode a record"
            )
        values[a.name] = a.levels[int(on[0])]
    if not 0 <= vec.target_index < schema.target_bits:
        raise ValidationError(f"target index {vec.target_index} out of range")
    values[schema.target.name] = schema.target.levels[vec.target_index]
    return StudentRecord(values=values)


class DatasetIndex:
    """A dataset encoded once: ``bits`` is ``uint8[N, B]``, each record's
    one-hot-per-segment bit string in the chromosome layout, and ``target``
    is ``intp[N]``, each record's class index.  Training reads the two
    arrays; a rule term is missed where none of its level bits is set.

    ``rows`` is either the records or their level codes, ``intp[N, A]`` with
    one column per schema attribute in schema order.  A record that
    ``validate_record`` rejects raises its ValidationError."""

    def __init__(self, schema: AttributeSchema, rows: Iterable[StudentRecord] | np.ndarray):
        codes = rows if isinstance(rows, np.ndarray) else _record_codes(schema, list(rows))
        widths, predictive, offsets, target = schema.code_layout
        fits = codes.ndim == 2 and codes.shape[1] == len(widths)
        if not (fits and ((codes >= 0) & (codes < widths)).all()):
            raise ValidationError(f"level codes of shape {codes.shape} do not fit the schema")
        self.schema = schema
        self.bits = np.zeros((len(codes), schema.total_predictive_bits), dtype=np.uint8)
        self.bits[np.arange(len(codes))[:, None], codes[:, predictive] + offsets] = 1
        self.target = codes[:, target].astype(np.intp)

    @classmethod
    def from_arrays(cls, schema: AttributeSchema, bits, target) -> "DatasetIndex":
        """An index over given arrays, taken as they are (bits need not be one-hot)."""
        index = object.__new__(cls)
        index.schema = schema
        index.bits = np.asarray(bits, dtype=np.uint8)
        index.target = np.asarray(target, dtype=np.intp)
        return index

    def __len__(self) -> int:
        return len(self.target)

    def column(self, name: str) -> np.ndarray:
        """``intp[N]``: every record's level index of attribute ``name``."""
        attr = self.schema.attribute(name)
        if attr.role == ROLE_TARGET:
            return self.target
        offset, width = self.schema.segments[name]
        segment = self.bits[:, offset : offset + width]
        if not (segment.sum(axis=1) == 1).all():
            raise ValidationError(f"segment for {name!r} is not one-hot in every row")
        return segment.argmax(axis=1)

    def tokens(self) -> list[list[str]]:
        """One level-token column per schema attribute, in schema order."""
        return [
            np.asarray(a.levels, dtype=object)[self.column(a.name)].tolist()
            for a in self.schema.attributes
        ]

    def records(self) -> list[StudentRecord]:
        """The records the index encodes (bits must be one-hot)."""
        names = [a.name for a in self.schema.attributes]
        return [StudentRecord(values=dict(zip(names, row))) for row in zip(*self.tokens())]

    def term_misses(self, rule) -> np.ndarray:
        """``bool[N, T]``: true where record n has none of term j's level bits set."""
        misses = np.empty((len(self), len(rule.terms)), dtype=bool)
        for j, (name, levels) in enumerate(rule.terms):
            misses[:, j] = ~self.bits[:, self.schema.level_bits(name, levels)].any(axis=1)
        return misses

    def antecedent_mask(self, rule) -> np.ndarray:
        return ~self.term_misses(rule).any(axis=1)

    def consequent_mask(self, rule) -> np.ndarray:
        return self.target == self.schema.target.level_index(rule.consequent)

    def subset(self, keep: np.ndarray) -> "DatasetIndex":
        return DatasetIndex.from_arrays(self.schema, self.bits[keep], self.target[keep])


def _record_codes(schema: AttributeSchema, records: list[StudentRecord]) -> np.ndarray:
    """Level codes of records, one attribute column at a time; the first record
    ``validate_record`` rejects raises its own error."""
    codes = np.empty((len(records), len(schema.attributes)), dtype=np.intp)
    try:
        for j, attr in enumerate(schema.attributes):
            code, name = attr.code, attr.name
            codes[:, j] = [code[r.values[name]] for r in records]
        valid = all(len(r.values) == len(schema.attributes) for r in records)
    except (KeyError, TypeError):
        valid = False
    if not valid:
        for r in records:
            schema.validate_record(r)
    return codes


def encode_dataset(records: Iterable[StudentRecord], schema: AttributeSchema) -> DatasetIndex:
    """Encode a dataset: the bit matrix row i is ``encode_record(records[i]).bits``.
    A record ``validate_record`` rejects raises its ValidationError."""
    return DatasetIndex(schema, records)


def read_index_csv(text: str, schema: AttributeSchema) -> DatasetIndex:
    """Read a level-token CSV whose header is the schema's attribute names.

    Tokens become level codes one column at a time.  The first bad row (in
    row order; blank lines count as rows and are skipped) is reported with
    its data row number (1-based) and, for an unknown token, the earliest
    offending attribute.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("dataset CSV is empty") from None
    expected = [a.name for a in schema.attributes]
    if header != expected:
        raise ValidationError(f"header mismatch: expected {expected}, got {header}")
    lines = list(reader)
    rows = [row for row in lines if row]
    if any(len(row) != len(expected) for row in rows):
        _raise_first_row_error(lines, schema)
    codes = np.empty((len(rows), len(expected)), dtype=np.intp)
    try:
        for j, (attr, column) in enumerate(zip(schema.attributes, zip(*rows))):
            codes[:, j] = list(map(attr.code.__getitem__, column))
    except KeyError:
        _raise_first_row_error(lines, schema)
    return DatasetIndex(schema, codes)


def _raise_first_row_error(lines: list[list[str]], schema: AttributeSchema):
    """Raise the error of the first row that is ragged or has an unknown token."""
    for rownum, row in enumerate(lines, start=1):
        if not row:
            continue
        if len(row) != len(schema.attributes):
            raise ValidationError(
                f"row {rownum}: expected {len(schema.attributes)} columns, got {len(row)}"
            )
        for attr, token in zip(schema.attributes, row):
            if token not in attr.code:
                raise ValidationError(
                    f"row {rownum}, attribute {attr.name!r}: unknown token {token!r}"
                )


def write_index_csv(index: DatasetIndex) -> str:
    """Render an index as the schema-conformant token CSV (byte-stable)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([a.name for a in index.schema.attributes])
    writer.writerows(zip(*index.tokens()))
    return buf.getvalue()


def parse_dataset_csv(text: str, schema: AttributeSchema) -> list[StudentRecord]:
    """``read_index_csv`` as records."""
    return read_index_csv(text, schema).records()


def write_dataset_csv(records: Iterable[StudentRecord], schema: AttributeSchema) -> str:
    """``write_index_csv`` of the records' index."""
    return write_index_csv(DatasetIndex(schema, records))
