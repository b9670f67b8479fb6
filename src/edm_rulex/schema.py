"""Attribute schema, score discretization, and the binary segment encoding.

A schema is an ordered list of categorical attributes, each with an ordered
level list and a role (predictive or target).  Predictive attributes are laid
out as contiguous bit segments, one bit per level, which gives every valid
record a fixed-length one-hot-per-segment encoding and gives the genetic
search its chromosome layout.

A dataset is encoded once, into a ``DatasetIndex``: the bit matrix that
training reads and rules are matched against, plus the class vector.  It is
built from level codes, one column per attribute, held in the schema's
narrow unsigned ``code_dtype``: ``discretize_column`` turns a raw score
column into codes, ``read_index_csv`` turns the token columns of a dataset
CSV stream into codes, and ``write_index_csv`` writes codes back as tokens
to a stream, both a chunk of rows at a time;
``DatasetIndex.records`` gives the rows back as ``StudentRecord`` values, and
``parse_dataset_csv`` is the reader seen that way, on the CSV's text.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .errors import ValidationError
from .util import check, config_hash

ROLE_PREDICTIVE = "predictive"
ROLE_TARGET = "target"

# Rows per chunk when a cohort CSV is read or written: a reader or writer
# holds one chunk's text and token lists besides the arrays.
CHUNK_ROWS = 1024


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
    def code_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds every attribute's largest
        level index, in which the schema's level codes are held: uint8 for
        attributes of up to 256 levels, uint16 for up to 65 536."""
        return np.min_scalar_type(max(len(a.levels) for a in self.attributes) - 1)

    @cached_property
    def code_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """For level codes ``[N, A]``: every attribute's level count, the
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


SCHEMA_SHAPE = [{"name": str, "levels": [str], "role?": str}]


def load_schema(document: list[Mapping]) -> AttributeSchema:
    """Build a schema from its JSON document: a list of ``{"name": ...,
    "levels": [...], "role": ...}`` objects.  Role defaults to predictive."""
    document = check(document, SCHEMA_SHAPE, "schema document")
    attrs = (Attribute(e["name"], tuple(e["levels"]), e.get("role", ROLE_PREDICTIVE)) for e in document)
    return AttributeSchema(tuple(attrs))


def schema_document(schema: AttributeSchema) -> list[dict]:
    """Inverse of load_schema: the plain-JSON form of a schema."""
    return [
        {"name": a.name, "levels": list(a.levels), "role": a.role} for a in schema.attributes
    ]


def schema_hash(schema: AttributeSchema) -> str:
    return config_hash(schema_document(schema))


def discretize_column(scores: np.ndarray, cuts: Sequence[float], attribute: Attribute) -> np.ndarray:
    """Level code of every score of the attribute's raw dimension: ``intp[N]``,
    band i of the ascending ``cuts`` being level i and a score at a cut point
    joining the upper band.  Cuts that do not strictly increase or do not
    number one fewer than the levels, or a non-finite score, are a
    ValidationError naming the dimension."""
    name = attribute.name
    if len(cuts) != len(attribute.levels) - 1 or any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValidationError(
            f"dimension {name!r}: need {len(attribute.levels) - 1} strictly increasing cut points "
            f"for its levels {list(attribute.levels)}, got {list(cuts)}"
        )
    scores = np.asarray(scores, dtype=float)
    finite = np.isfinite(scores)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValidationError(
            f"dimension {name!r}, row {row + 1}: "
            f"cannot discretize non-finite score {float(scores[row])!r}"
        )
    return np.searchsorted(np.asarray(cuts, dtype=float), scores, side="right")


def encode_record(record: StudentRecord, schema: AttributeSchema) -> EncodedVector:
    """One-hot encode the predictive segments; target becomes a class index."""
    schema.validate_record(record)
    bits = np.zeros(schema.total_predictive_bits, dtype=np.uint8)
    for a in schema.predictive:
        offset, _ = schema.segments[a.name]
        bits[offset + a.level_index(record.values[a.name])] = 1
    return EncodedVector(bits=bits, target_index=schema.target.level_index(record.values[schema.target.name]))


class DatasetIndex:
    """A dataset encoded once: ``bits`` is ``uint8[N, B]``, each record's
    one-hot-per-segment bit string in the chromosome layout, and ``target``
    is ``intp[N]``, each record's class index.  Training reads the two
    arrays, and every rule is matched against the bits through ``misses``.

    ``rows`` is either the records or their level codes, an ``[N, A]``
    array of any integer dtype (the schema's ``code_dtype`` as the readers
    and generators give them) with one column per schema attribute in schema
    order (``_fit_codes``).  A record that ``validate_record`` rejects raises
    its ValidationError.  The bits are set one attribute column at a time,
    each column widened to ``intp`` before its segment offset is added, so
    the build holds no ``[N, A]`` temporary besides the codes, and narrow
    codes never wrap past a segment offset of 256 or more.  The index does
    not keep the codes it is built from, so a cohort read for training holds
    no second copy of its table."""

    def __init__(self, schema: AttributeSchema, rows: Iterable[StudentRecord] | np.ndarray):
        codes = rows if isinstance(rows, np.ndarray) else _record_codes(schema, list(rows))
        codes = _fit_codes(schema, codes)
        _, predictive, offsets, target = schema.code_layout
        self.schema = schema
        self.bits = np.zeros((len(codes), schema.total_predictive_bits), dtype=np.uint8)
        rows = np.arange(len(codes))
        for column, offset in zip(predictive, offsets):
            self.bits[rows, np.add(codes[:, column], offset, dtype=np.intp)] = 1
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

    def records(self) -> list[StudentRecord]:
        """The records the index encodes (bits must be one-hot)."""
        attrs = self.schema.attributes
        names = [a.name for a in attrs]
        tokens = [np.asarray(a.levels, dtype=object)[self.column(a.name)].tolist() for a in attrs]
        return [StudentRecord(values=dict(zip(names, row))) for row in zip(*tokens)]

    def misses(self, groups: Sequence[Iterable[tuple[str, Iterable[str]]]]) -> np.ndarray:
        """``bool[N, G]``: true where record n has none of the level bits of some
        ``(attribute, levels)`` term of ``groups[g]`` set; no record misses an empty
        group.  Built as ``[G, N]`` and transposed, so each column is contiguous."""
        misses = np.zeros((len(groups), len(self)), dtype=bool)
        for row, terms in zip(misses, groups):
            for name, levels in terms:
                row |= ~self.bits[:, self.schema.level_bits(name, levels)].any(axis=1)
        return misses.T

    def antecedent_mask(self, rule) -> np.ndarray:
        return ~self.misses([rule.terms])[:, 0]

    def consequent_mask(self, rule) -> np.ndarray:
        return self.target == self.schema.target.level_index(rule.consequent)

    def subset(self, keep: np.ndarray) -> "DatasetIndex":
        return DatasetIndex.from_arrays(self.schema, self.bits[keep], self.target[keep])


def _fit_codes(schema: AttributeSchema, codes: np.ndarray) -> np.ndarray:
    """Level codes ``[N, A]`` of any integer dtype, as they are, once each
    code is one of its attribute's level indices; codes that do not fit are
    a ValidationError."""
    widths = schema.code_layout[0]
    fits = codes.ndim == 2 and codes.shape[1] == len(widths) and codes.dtype.kind in "iu"
    if not (fits and codes.min(initial=0) >= 0 and (codes.max(axis=0, initial=0) < widths).all()):
        raise ValidationError(f"level codes of shape {codes.shape} do not fit the schema")
    return codes


def _record_codes(schema: AttributeSchema, records: list[StudentRecord]) -> np.ndarray:
    """Level codes of records, one attribute column at a time; the first record
    ``validate_record`` rejects raises its own error."""
    codes = np.empty((len(records), len(schema.attributes)), dtype=schema.code_dtype)
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


def read_index_csv(stream: TextIO, schema: AttributeSchema) -> DatasetIndex:
    """Read a level-token CSV whose header is the schema's attribute names.

    The rows are read ``CHUNK_ROWS`` at a time, and each chunk's tokens
    become level codes of the schema's ``code_dtype`` one column at a time,
    so the stream's text is never held whole.  The first bad row (in row
    order; blank lines count as rows and are skipped) is reported with its
    data row number (1-based) and, for an unknown token, the earliest
    offending attribute.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ValidationError("dataset CSV is empty")
    expected = [a.name for a in schema.attributes]
    if header != expected:
        raise ValidationError(f"header mismatch: expected {expected}, got {header}")
    chunks = [np.empty((0, len(expected)), dtype=schema.code_dtype)]
    read = 0  # data rows before the chunk, blank lines included
    while lines := list(itertools.islice(reader, CHUNK_ROWS)):
        chunks.append(_chunk_codes(lines, read, schema))
        read += len(lines)
    return DatasetIndex(schema, np.concatenate(chunks))


def _chunk_codes(lines: list[list[str]], read: int, schema: AttributeSchema) -> np.ndarray:
    """Level codes of a chunk of CSV rows that follows ``read`` data rows."""
    rows = [row for row in lines if row]
    if any(len(row) != len(schema.attributes) for row in rows):
        _raise_first_row_error(lines, read, schema)
    codes = np.empty((len(rows), len(schema.attributes)), dtype=schema.code_dtype)
    try:
        for j, (attr, column) in enumerate(zip(schema.attributes, zip(*rows))):
            codes[:, j] = list(map(attr.code.__getitem__, column))
    except KeyError:
        _raise_first_row_error(lines, read, schema)
    return codes


def _raise_first_row_error(lines: list[list[str]], read: int, schema: AttributeSchema):
    """Raise the error of the first row that is ragged or has an unknown token."""
    for rownum, row in enumerate(lines, start=read + 1):
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


def write_index_csv(schema: AttributeSchema, codes: np.ndarray, out: TextIO) -> None:
    """Write level codes, as ``DatasetIndex`` takes them, to ``out`` as the
    schema-conformant token CSV (byte-stable), ``CHUNK_ROWS`` rows at a time."""
    codes = _fit_codes(schema, codes)
    levels = [np.asarray(a.levels, dtype=object) for a in schema.attributes]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([a.name for a in schema.attributes])
    for start in range(0, len(codes), CHUNK_ROWS):
        chunk = codes[start : start + CHUNK_ROWS]
        writer.writerows(zip(*(tokens[chunk[:, j]].tolist() for j, tokens in enumerate(levels))))


def parse_dataset_csv(text: str, schema: AttributeSchema) -> list[StudentRecord]:
    """``read_index_csv`` of the CSV text, as records."""
    return read_index_csv(io.StringIO(text), schema).records()
