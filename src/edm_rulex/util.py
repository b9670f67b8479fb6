"""Hashing, seed derivation, JSON artifact I/O and work split over CPUs.

Every run artifact embeds the SHA-256 of the canonical JSON of the config
that produced it, and all stage seeds are derived from one master seed so a
single integer pins the whole pipeline.  Every JSON artifact is written and
read through ``write_json`` and ``read_json``, which holds the document to
the shape its reader declares (``check``): no value is converted on read.
``split_over_cpus`` is the one place that forks: ``extract``'s classes and
``generate``'s raw score CSV run through it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import reprlib
import sys
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NoReturn

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


def check_indexable(what: str, shape: tuple[int, ...], dtype) -> None:
    """A ValidationError ``what is too large`` when an array of ``shape`` and
    ``dtype`` takes more bytes than numpy can index, for which numpy itself
    raises a bare ValueError; so no such array is ever asked for."""
    dtype = np.dtype(dtype)
    size, limit = math.prod(shape) * dtype.itemsize, np.iinfo(np.intp).max
    if size > limit:
        raise ValidationError(
            f"{what} is too large: an array of {' x '.join(map(str, shape))} exceeds the largest "
            f"array numpy can index ({size} bytes of {dtype}, over its limit of {limit})"
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


def _all_fit(items: list, shape: Any) -> bool:
    """Whether every item fits the scalar shape ``float``, ``int`` or
    ``str`` as ``check`` reads it, tested in one comprehension; False for
    any other shape."""
    if shape is float:
        return all([type(x) in (int, float) and abs(x) <= sys.float_info.max for x in items])
    if shape is int:
        return all([type(x) is int for x in items])
    if shape is str:
        return all([isinstance(x, str) for x in items])
    return False


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
    if isinstance(shape, list) and _all_fit(value, shape[0]):
        return list(value)  # recursing would only name the first item that does not fit
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


_SIGKILL = 9  # POSIX; the signal module is not otherwise loaded


def _cpu_quota(cgroup: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """CPUs' worth of time the cgroups of this process allow, inf where none
    is set: for each cgroup that ``cgroup`` lists, its ``cpu.max`` under v2,
    or under v1 its ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us``, read
    under ``root``.  A missing or unreadable file, or a quota of ``max`` or
    -1, sets no limit."""
    quota = math.inf
    try:
        lines = Path(cgroup).read_text().splitlines()
    except OSError:
        lines = []
    for line in lines:
        try:
            _, controllers, path = line.split(":", 2)
            where = Path(root, controllers, path.lstrip("/"))
            if not controllers:
                limit, period = (where / "cpu.max").read_text().split()
            elif "cpu" in controllers.split(","):
                limit, period = ((where / f"cpu.cfs_{name}_us").read_text() for name in ("quota", "period"))
            else:
                continue
            limit, period = int(limit), int(period)
        except (OSError, ValueError):
            continue
        if limit > 0 and period > 0:
            quota = min(quota, limit / period)
    return quota


def _usable_cpus() -> int:
    """CPUs this process may use: those ``taskset`` or a container leaves it
    (``os.sched_getaffinity``), no more than its CPU quota (``_cpu_quota``,
    rounded down) and at least 1; 1 where a fork is unavailable or unsafe:
    no ``os.fork`` or ``os.sched_getaffinity``, or other threads running,
    which a forked child would not have."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) or threading.active_count() > 1:
        return 1
    return max(1, int(min(len(os.sched_getaffinity(0)), _cpu_quota())))


def split_over_cpus(work: Callable[[slice], Iterable], n: int, min_size: int, what: str) -> Iterator:
    """The items of ``work(part)`` for each part of ``range(n)`` cut into
    contiguous slices, in order: one slice per usable CPU, each of at least
    ``min_size`` items (so one slice where ``n < 2 * min_size``).

    This process does the first slice, and yields its items as ``work``
    gives them.  A child made with ``os.fork`` does each other slice and
    pickles its items, or its exception, into a pipe, from which they are
    read one at a time.  Where no pipe or child can be made (the host is out
    of process ids, memory or file descriptors), this process does that
    slice and every later one itself, as one part.  An exception in any
    slice is raised here with its type and message; a child that ends
    without sending is a ChildProcessError naming ``what``.  No child
    outlives the iteration: on an error, or when the iterator is closed
    early, the children are killed, and every child is reaped.
    """
    workers = max(1, min(_usable_cpus(), n // min_size))
    bounds = [n * i // workers for i in range(workers + 1)]
    slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pids, pipes, rest = [], [], None
    try:
        for part in slices[1:]:
            try:
                pid, read_end = _fork(work, part, pipes)
            except OSError:
                rest = slice(part.start, n)
                break
            pids.append(pid)
            pipes.append(read_end)
        yield from work(slices[0])
        for read_end in pipes:
            yield from _received(read_end, what)
        if rest is not None:
            yield from work(rest)
    except BaseException:
        for pid in pids:
            os.kill(pid, _SIGKILL)
        raise
    finally:
        for fd in pipes:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _fork(work: Callable[[slice], Iterable], part: slice, read_ends: list[int]) -> tuple[int, int]:
    """The pid of a forked child that sends the items of ``work(part)``
    back, and the read end of its pipe; the child closes ``read_ends``, the
    parent's other pipes.  An OSError, with no pipe end left open, where no
    pipe or process can be made."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        _child(work, part, write_end, [*read_ends, read_end])
    os.close(write_end)
    return pid, read_end


def _child(work: Callable[[slice], Iterable], part: slice, write_end: int, read_ends: list[int]) -> NoReturn:
    """A forked child's whole life: close the parent's read ends, make the
    items of ``work(part)``, pickle their count and then each of them, or
    only its exception, into ``write_end``, and leave by ``os._exit``, so
    that nothing of the parent's (exit handlers, buffered output, a test
    runner's hooks) runs twice."""
    try:
        for fd in read_ends:
            os.close(fd)
        try:
            items = list(work(part))
            head = len(items)
        except BaseException as error:  # sent to the parent, which raises it
            items, head = [], error
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:  # a type its arguments do not rebuild
                head = RuntimeError(f"{type(error).__name__}: {error}")
        with open(write_end, "wb") as pipe:
            for payload in [head, *items]:
                pickle.dump(payload, pipe)
    finally:
        os._exit(0)


def _received(read_end: int, what: str) -> Iterator:
    """The items a child sends through ``read_end``, each unpickled as it is
    read; the exception it sent is raised."""
    with open(read_end, "rb", closefd=False) as pipe:
        try:
            head = pickle.load(pipe)
            for _ in range(0 if isinstance(head, BaseException) else head):
                yield pickle.load(pipe)
        except (pickle.UnpicklingError, EOFError):
            raise ChildProcessError(f"a {what} process ended without sending its results") from None
    if isinstance(head, BaseException):
        raise head
