"""Hashing, seed derivation and JSON artifact I/O for reproducible runs.

Every run artifact embeds the SHA-256 of the canonical JSON of the config
that produced it, and all stage seeds are derived from one master seed so a
single integer pins the whole pipeline.  Every JSON artifact is written and
read through ``write_json`` and ``read_json``, which holds the document to
the shape its reader declares (``check``): no value is converted on read.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .errors import NumericError, ValidationError


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
    """SHA-256 of a file's bytes, read a block at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


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
    """Write ``obj`` as an artifact: sorted keys, two-space indent, final newline.
    A non-finite number, which JSON cannot hold, is a NumericError naming the
    file and the field, and nothing is written."""
    path = Path(path)
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        at = _non_finite(obj, path.name)
        raise NumericError(f"{path} would hold {at}, and JSON has no non-finite numbers") from None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


def _non_finite(obj: Any, where: str) -> str | None:
    """``path = value`` of the first non-finite float in ``obj``, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else f"{where} = {obj}"
    if not isinstance(obj, (dict, list, tuple)):
        return None
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    return next(filter(None, (_non_finite(v, f"{where}[{k!r}]") for k, v in items)), None)


def check_indexable(what: str, shape: tuple[int, ...]) -> None:
    """A ValidationError ``what is too large`` when an array of ``shape`` has
    more elements than numpy can index, so no such array is ever asked for."""
    if math.prod(shape) > np.iinfo(np.intp).max:
        raise ValidationError(
            f"{what} is too large: an array of {' x '.join(map(str, shape))} "
            "exceeds the largest array numpy can index"
        )


def read_json(path: str | Path, shape: Any = object) -> Any:
    """Parse a JSON file and ``check`` it against ``shape``; a UTF-8 byte
    order mark before the document is skipped.  Invalid JSON, text that is
    not UTF-8, or nesting past Python's recursion limit is a ValidationError
    naming the file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ValidationError(f"{path} is not valid JSON: {e}") from None
    return check(doc, shape, str(path))


def check(value: Any, shape: Any, where: str) -> Any:
    """``value`` held to ``shape``: ``str``, ``bool``, ``int`` (not a bool),
    ``float`` (a finite int or float, not a bool), ``object`` (any value),
    ``[item]``, ``(item, ...)`` (a list of exactly those), ``{str: item}`` (an
    object with any keys), or a dict of field shapes, where a name ending in
    ``?`` may be absent or null (and a null one is dropped); other fields pass.
    A misfit is a ValidationError naming ``where`` and the field's path."""
    if isinstance(shape, dict):
        ok, kind = isinstance(value, dict), "a JSON object"
    elif isinstance(shape, (list, tuple)):
        ok = isinstance(value, list) and (isinstance(shape, list) or len(value) == len(shape))
        kind = "a list" if isinstance(shape, list) else f"a list of {len(shape)}"
    elif shape is float:
        ok, kind = type(value) in (int, float) and abs(value) <= sys.float_info.max, "float"
    else:
        ok, kind = type(value) is int if shape is int else isinstance(value, shape), shape.__name__
    if not ok:
        raise ValidationError(f"{where} must be {kind}, got {reprlib.repr(value)}")
    if isinstance(shape, (list, tuple)):
        items = shape * len(value) if isinstance(shape, list) else shape
        return [check(x, s, f"{where}[{i}]") for i, (x, s) in enumerate(zip(value, items))]
    if isinstance(shape, dict) and str in shape:
        return {k: check(v, shape[str], f"{where}[{k!r}]") for k, v in value.items()}
    if isinstance(shape, dict):
        value = dict(value)
        for name, item in shape.items():
            key = name.removesuffix("?")
            if key != name and value.get(key) is None:
                value.pop(key, None)
            elif key not in value:
                raise ValidationError(f"{where} lacks the field {key!r}")
            else:
                value[key] = check(value[key], item, f"{where}.{key}")
    return value
