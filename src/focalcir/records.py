"""One reader for every record the program loads from outside.

`from_record` builds a dataclass (a config section, a quadruple, a gallery
entry, a checkpoint's model config, ...) from JSON using the class's own
fields and annotations: unknown keys, missing keys (any, with complete=True)
and wrongly typed values are rejected by dotted path, and lists become
tuples where a tuple is declared. Errors take the caller's class: ConfigError
(exit 1) for config files, DataError or CheckpointError (exit 2) for
artifacts. `dataclasses.asdict` (or `vars` for a flat record) plus
`canonical_json` or `write_json` write what this reads.

The binary files (world.bin, checkpoints) share one container: a magic line,
a little-endian u64 header length, a canonical JSON header, then raw
little-endian float64 blocks.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import struct
import types
import typing
from pathlib import Path
from typing import Iterable

import numpy as np

_SCALARS = (int, float, str, bool)


def canonical_json(payload) -> bytes:
    """Sorted keys, no whitespace, repr floats: equal payloads, equal bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


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
    return _convert(cls, data, error, path, complete)


@functools.cache
def _fields(cls) -> tuple[dict[str, object], frozenset[str]]:
    """(field name -> resolved annotation, names without a default)."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = frozenset(
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    return {f.name: hints[f.name] for f in fields}, required


_RECORD = object()


@functools.cache
def _form(tp) -> tuple[object, tuple]:
    """(origin, args) of an annotation, with origin _RECORD for a dataclass."""
    if dataclasses.is_dataclass(tp):
        return _RECORD, ()
    return typing.get_origin(tp), typing.get_args(tp)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _show(value) -> str:
    return f"{type(value).__name__} {value!r:.40}"


def _convert(tp, value, error, path: str, complete: bool):
    if tp in _SCALARS:
        if type(value) is tp:
            return value
        if tp is float and type(value) is int:
            return float(value)
        raise error(f"{path!r} must be {tp.__name__}, got {_show(value)}")
    if tp is typing.Any:
        return value
    origin, args = _form(tp)
    if origin is _RECORD:
        return _record(tp, value, error, path, complete)
    if origin is types.UnionType or origin is typing.Union:
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _convert(inner, value, error, path, complete)
    if origin is tuple or origin is list:
        if not isinstance(value, (list, tuple)):
            raise error(f"{path!r} must be a list, got {_show(value)}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise error(f"{path!r} must hold {len(args)} values, got {len(value)}")
        else:
            args = (args[0],) * len(value)
        items = [v if type(v) is a else _convert(a, v, error, f"{path}[{i}]", complete)
                 for i, (a, v) in enumerate(zip(args, value))]
        return tuple(items) if origin is tuple else items
    if origin is dict:
        if not isinstance(value, dict):
            raise error(f"{path!r} must be a JSON object, got {_show(value)}")
        return {k: _convert(args[1], v, error, _join(path, k), complete)
                for k, v in value.items()}
    raise TypeError(f"from_record cannot read annotation {tp!r}")


def _record(cls, data, error, path: str, complete: bool):
    if not isinstance(data, dict):
        where = f" {path!r}" if path else ""
        raise error(f"{cls.__name__}{where} must be a JSON object, got {_show(data)}")
    hints, required = _fields(cls)
    if data.keys() - hints.keys():
        unknown = sorted(_join(path, k) for k in data if k not in hints)
        raise error(f"unknown keys {unknown} in {cls.__name__}")
    if len(data) < len(hints):
        missing = [_join(path, k) for k in hints
                   if k not in data and (complete or k in required)]
        if missing:
            raise error(f"missing keys {missing} in {cls.__name__}")
    kwargs = {}
    for k, v in data.items():
        tp = hints[k]
        # a value of exactly the annotated scalar type needs no further check
        kwargs[k] = v if type(v) is tp else _convert(tp, v, error, _join(path, k), complete)
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# the binary container


def write_container(path, magic: bytes, header: dict, blocks: Iterable[np.ndarray]) -> None:
    blob = canonical_json(header)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


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
