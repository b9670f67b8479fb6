"""Hashing, seed derivation and JSON artifact I/O for reproducible runs.

Every run artifact embeds the SHA-256 of the canonical JSON of the config
that produced it, and all stage seeds are derived from one master seed so a
single integer pins the whole pipeline.  Every JSON artifact is written and
read through ``write_json`` and ``read_json``; ``read_field`` takes one field
of a parsed document and names it when it is missing or does not convert.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

from .errors import ValidationError


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with sorted keys and no whitespace (stable bytes)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def config_hash(obj: Any) -> str:
    return sha256_hex(canonical_json(obj))


def file_sha256(path: str | Path) -> str:
    return sha256_hex(Path(path).read_bytes())


def derive_seed(master: int, stage: str, index: int | None = None) -> int:
    """Derive a 64-bit stage seed from a master seed.

    The derivation is SHA-256 over the text ``"{master}:{stage}"`` (or
    ``"{master}:{stage}:{index}"`` when an index is given), taking the first
    8 bytes big-endian.  Any implementation of the same recipe reproduces the
    same stage seeds.
    """
    text = f"{master}:{stage}" if index is None else f"{master}:{stage}:{index}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def write_json(path: str | Path, obj: Any) -> None:
    """Write ``obj`` as an artifact: sorted keys, two-space indent, final newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; invalid JSON is a ValidationError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path} is not valid JSON: {e}") from None


_ABSENT = object()


def read_field(doc: Any, key: str, convert, what: str, default: Any = _ABSENT) -> Any:
    """``convert(doc[key])``, or ``default`` when ``key`` is absent and one is
    given.  A ``doc`` that is not an object, a missing key, or a value that
    ``convert`` rejects is a ValidationError naming ``what`` and ``key``."""
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    if key not in doc:
        if default is not _ABSENT:
            return default
        raise ValidationError(f"{what} lacks the field {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, AttributeError):
        raise ValidationError(f"{what} field {key!r} does not convert: {doc[key]!r}") from None
