"""One reader for every record the program loads from outside.

`from_record` builds a dataclass (a config section, a quadruple, a gallery
entry, a checkpoint's model config, ...) from JSON using the class's own
fields and annotations: unknown keys, missing keys (any, with complete=True)
and wrongly typed values are rejected by dotted path, and lists become
tuples where a tuple is declared. The reader of each class and annotation
is built once, so a record costs one loop over its fields' prebuilt
readers, and a list of one scalar type one type test per item. A record whose class declares a range or
a `rules` method then goes through `check_ranges`, so no loader checks it
again. Errors take the caller's class: ConfigError (exit 1) for config
files, DataError (exit 2) for artifacts.
`dataclasses.asdict` (or `vars` for a flat record) plus `canonical_json` or
`write_json` write what this reads.

`check_ranges` alone decides which values a config or report field accepts,
from the range each field declares once in its dataclass field metadata, and
runs a record's cross-field `rules`; `validate` runs it on a section built in
code.

The binary files (world.bin, checkpoints) share one container: a magic line,
a little-endian u64 header length, a canonical JSON header, then raw
little-endian float64 blocks, written without a copy, and blocks that sit
back to back in one array in one write.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import operator
import struct
import types
import typing
from pathlib import Path
from typing import Iterable

import numpy as np

from focalcir.errors import ConfigError

_SCALARS = (int, float, str, bool)


# built once: json.dumps with options builds a new encoder on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload) -> bytes:
    """Sorted keys, no whitespace, repr floats: equal payloads, equal bytes."""
    return _CANONICAL.encode(payload).encode()


def write_json(path, payload) -> None:
    """Indented, sorted JSON plus a newline: the form of every file people read."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def parse_json(raw: str | bytes, error: type[Exception], where) -> object:
    """json.loads that raises `error` naming `where` on malformed input."""
    try:
        return json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"{where} is not valid JSON: {exc}") from None


def open_file(path, error: type[Exception]):
    """open(path, "rb"), raising `error` naming the file if it cannot be read."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


def from_record(cls, data, error: type[Exception], path: str = "", complete: bool = False):
    """Builds `cls`, a dataclass or an annotation such as dict[str, SomeClass],
    from JSON data; `path` is the data's dotted location for error messages.

    int, str and bool values must have exactly that JSON type (true is not an
    int); a float field also takes an int and stores it as a float; `Any`
    takes any JSON value as it is. `X | None`, tuples, `list[X]`,
    `dict[str, X]` and nested dataclasses are checked element by element. A
    missing key is an error unless the field has a default and complete is
    False: artifacts are always written whole, config sections may leave
    fields at their defaults."""
    return _reader(cls)(data, error, path, complete)


@functools.cache
def _fields(cls) -> tuple[dict[str, object], frozenset[str], bool]:
    """(field name -> annotation, names without a default, whether to check_ranges)."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = frozenset(
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    checked = hasattr(cls, "rules") or any(f.metadata for f in fields)
    return {f.name: hints[f.name] for f in fields}, required, checked


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _show(value) -> str:
    return f"{type(value).__name__} {value!r:.40}"


@functools.cache
def _reader(tp):
    """The function (value, error, path, complete) that reads JSON data as the
    annotation `tp`, built once per annotation from the readers of its parts,
    so reading a value dispatches on no typing form."""
    if tp in _SCALARS:
        def read(value, error, path, complete):
            if type(value) is tp:
                return value
            if tp is float and type(value) is int:
                return float(value)
            raise error(f"{path!r} must be {tp.__name__}, got {_show(value)}")
        return read
    if tp is typing.Any:
        return lambda value, error, path, complete: value
    if dataclasses.is_dataclass(tp):
        return _record_reader(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    inner = [a for a in args if a is not type(None)]
    if (origin is types.UnionType or origin is typing.Union) and len(inner) == 1:
        read_inner = _reader(inner[0])
        optional = len(args) > 1

        def read(value, error, path, complete):
            if value is None and optional:
                return None
            return read_inner(value, error, path, complete)
        return read
    if origin is tuple or origin is list:
        fixed = origin is tuple and args[-1] is not Ellipsis
        parts = [(a, _reader(a)) for a in (args if fixed else args[:1])]
        # a value whose items all have the one scalar type declared is read as it is
        declared = set(args) - {Ellipsis}
        scalar = args[0] if declared == {args[0]} and args[0] in _SCALARS else None

        def read(value, error, path, complete):
            if not isinstance(value, (list, tuple)):
                raise error(f"{path!r} must be a list, got {_show(value)}")
            if fixed and len(value) != len(parts):
                raise error(f"{path!r} must hold {len(parts)} values, got {len(value)}")
            if scalar is not None:
                for v in value:
                    if type(v) is not scalar:
                        break
                else:
                    return tuple(value) if origin is tuple else list(value)
            items = [v if type(v) is a else read_item(v, error, f"{path}[{i}]", complete)
                     for i, ((a, read_item), v)
                     in enumerate(zip(parts if fixed else itertools.repeat(parts[0]), value))]
            return tuple(items) if origin is tuple else items
        return read
    if origin is dict:
        read_value = _reader(args[1])

        def read(value, error, path, complete):
            if not isinstance(value, dict):
                raise error(f"{path!r} must be a JSON object, got {_show(value)}")
            return {k: read_value(v, error, _join(path, k), complete) for k, v in value.items()}
        return read

    def read(value, error, path, complete):
        raise TypeError(f"from_record cannot read annotation {tp!r}")
    return read


def _record_reader(cls):
    """The reader of a dataclass: one loop over its fields' prebuilt readers."""
    hints, required, checked = _fields(cls)
    readers = {k: (tp, _reader(tp)) for k, tp in hints.items()}

    def read(data, error, path, complete):
        if not isinstance(data, dict):
            where = f" {path!r}" if path else ""
            raise error(f"{cls.__name__}{where} must be a JSON object, got {_show(data)}")
        if data.keys() != hints.keys():
            if data.keys() - hints.keys():
                unknown = sorted(_join(path, k) for k in data if k not in hints)
                raise error(f"unknown keys {unknown} in {cls.__name__}")
            missing = [_join(path, k) for k in hints
                       if k not in data and (complete or k in required)]
            if missing:
                raise error(f"missing keys {missing} in {cls.__name__}")
        kwargs = {}
        for k, v in data.items():
            tp, read_value = readers[k]
            # a value of exactly the annotated scalar type needs no further check
            kwargs[k] = v if type(v) is tp else read_value(v, error, _join(path, k), complete)
        record = cls(**kwargs)
        if checked:
            check_ranges(record, error, path)
        return record
    return read


# ---------------------------------------------------------------------------
# declared ranges

_RANGES = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "lt": (operator.lt, "<"),
           "le": (operator.le, "<="), "choices": (lambda v, options: v in options, "one of")}


def check_ranges(value, error: type[Exception], path: str = "",
                 declared=types.MappingProxyType({})) -> None:
    """Checks a dataclass instance against the ranges its fields declare in
    their metadata: bounds such as {"ge": 1} or {"gt": 0.0, "lt": 1.0}, or
    {"choices": (...)}. A tuple field's range holds for each element, None
    passes, and every float must be finite. Nested records, tuples and dict
    values are walked; a value out of range raises `error` naming its path,
    and so does a rule that a record's `rules` method, run once its fields
    are in range, reports broken."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            check_ranges(getattr(value, f.name), error, _join(path, f.name), f.metadata)
        if hasattr(value, "rules") and (broken := value.rules()):
            raise error(f"{path}: {broken}" if path else broken)
    elif isinstance(value, (tuple, list)):
        for i, v in enumerate(value):
            check_ranges(v, error, f"{path}[{i}]", declared)
    elif isinstance(value, dict):
        for k, v in value.items():
            check_ranges(v, error, _join(path, k), declared)
    elif value is not None:
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{path!r} must be finite, got {value!r}")
        if not all(_RANGES[k][0](value, limit) for k, limit in declared.items()):
            want = " and ".join(f"{_RANGES[k][1]} {limit!r}" for k, limit in declared.items())
            raise error(f"{path!r} must be {want}, got {value!r}")


class ConfigSection:
    """A config record: `validate` checks the ranges its fields declare, then
    the class's cross-field `rules`; either raises ConfigError."""

    def validate(self) -> None:
        check_ranges(self, ConfigError)

    def rules(self) -> str | None:
        """The message of the first cross-field rule the record breaks, or
        None; rules only ever see values already in range."""


# ---------------------------------------------------------------------------
# the binary container


def write_container(path, magic: bytes, header: dict, blocks: Iterable[np.ndarray]) -> None:
    blob = canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for span in _spans(blocks):
            fh.write(span)


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _spans(blocks: Iterable[np.ndarray]):
    """The blocks as little-endian float64 arrays, in order, none of them
    copied. Blocks that sit back to back in one C-contiguous float64 array,
    such as the rows of a world pool or the grids loaded from one buffer, come
    out joined as one view of that array, so each such stretch is one write."""
    base, start, end = None, 0, 0  # the open run: base's bytes [start, end)
    for block in blocks:
        block = np.ascontiguousarray(block, dtype="<f8")
        if base is not None and block.base is base and _address(block) == end:
            end += block.nbytes
            continue
        if base is not None:
            yield _stretch(base, start, end)
        owner, base = block.base, None
        if (isinstance(owner, np.ndarray) and owner.dtype == block.dtype
                and owner.flags.c_contiguous
                and (_address(block) - _address(owner)) % 8 == 0):
            base, start = owner, _address(block)
            end = start + block.nbytes
        else:
            yield block
    if base is not None:
        yield _stretch(base, start, end)


def _stretch(base: np.ndarray, start: int, end: int) -> np.ndarray:
    """The view of a C-contiguous base array from address start to end."""
    at = _address(base)
    return base.reshape(-1)[(start - at) // 8:(end - at) // 8]


def read_header(fh, magic: bytes, error: type[Exception], path, kind: str) -> dict:
    """Checks the magic line and returns the JSON header that follows it."""
    if fh.read(len(magic)) != magic:
        raise error(f"{path} is not a {kind}")
    raw = fh.read(8)
    if len(raw) != 8:
        raise error(f"{path} is truncated")
    (hlen,) = struct.unpack("<Q", raw)
    header = parse_json(fh.read(hlen), error, f"the header of {path}")
    if not isinstance(header, dict):
        raise error(f"the header of {path} is not a JSON object")
    if header.get("version") != 1:
        raise error(f"unsupported {kind} version {header.get('version')!r} in {path}")
    return header


def read_block(fh, shape: tuple[int, ...], error: type[Exception], what) -> np.ndarray:
    count = math.prod(shape)
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise error(f"{what} is truncated")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
