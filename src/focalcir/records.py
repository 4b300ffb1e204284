"""One reader for every record the program loads from outside.

`from_record` builds a dataclass (a config section, a quadruple, a gallery
entry, a checkpoint's model config, ...) from JSON using the class's own
fields and annotations: unknown keys, missing keys (any, with complete=True)
and wrongly typed values are rejected by dotted path, and lists become
tuples where a tuple is declared. In the same pass it enforces what each
field declares once in its metadata, a range or a rule (such as
`geometry.BOX`), and the class's cross-field `rules`: the reader of each
class and annotation is built once with these checks in it, so a record
costs one loop over its fields' prebuilt readers. A record built in code is
checked by reading `dataclasses.asdict(record)` back, as
`ConfigSection.validate` does. Errors take the caller's class: ConfigError
(exit 1) for config files, DataError (exit 2) for artifacts.
`dataclasses.asdict` (or `vars` for a flat record) plus `canonical_json` or
`write_json` write what this reads.

The binary files (world.bin, checkpoints) share one container: a magic line,
a little-endian u64 header length, a canonical JSON header, then raw
little-endian float64 blocks, written without a copy, and blocks that sit
back to back in one array in one write. It ends with its last block.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import reprlib
import struct
import types
import typing
from pathlib import Path
from typing import Iterable

import numpy as np

from focalcir.errors import ConfigError

_SCALARS = (int, float, str, bool)

# the field metadata of an id: the empty string names nothing
ID = {"rule": (bool, "must be non-empty")}
# the field metadata of a list of ids
IDS = {"rule": (all, "must hold no empty id")}


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
    int); a float field also takes an int and stores it as a float, and every
    float must be finite; `Any` takes any JSON value whose floats are finite.
    `X | None`, tuples, `list[X]`, `dict[str, X]` and nested dataclasses are
    checked element by element. A missing key is an error unless the field
    has a default and complete is False: artifacts are always written whole,
    config sections may leave fields at their defaults. A field's metadata
    may declare bounds ({"ge": 1}, {"gt": 0.0, "lt": 1.0}, {"choices": ...})
    for each scalar it holds, None passing, or a rule {"rule": (holds, words)}
    on its whole value, tested in place of finiteness; a class's `rules()`
    names the first cross-field rule that a record in range breaks, or None."""
    return _reader(cls)(data, error, path, complete)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _show(value) -> str:
    return f"{type(value).__name__} {value!r:.40}"


_RANGES = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "lt": (operator.lt, "<"),
           "le": (operator.le, "<="), "choices": (lambda v, o: v in o, "one of")}


def _check(scalar, declared: tuple, many: bool):
    """The function (value, error, path) that checks a value read as the
    scalar type `scalar` (a tuple or list of it when `many`) against its
    field's declarations, or None if there is nothing to check."""
    bounds = [(k, limit) for k, limit in declared if k != "rule"]
    holds, words = dict(declared).get("rule", (None, ""))
    finite = scalar is float and holds is None  # a rule fails non-finite values itself
    if holds is None and not finite and not bounds:
        return None

    def check(value, error, path):
        if holds is not None and not holds(value):
            # a long list shows its first few items
            raise error(f"{path}: {reprlib.repr(list(value)) if many else repr(value)} {words}")
        if not finite and not bounds:  # a rule alone, as on a box
            return
        for i, v in enumerate(value if many else (value,)):
            where = f"{path}[{i}]" if many else path
            if finite and not math.isfinite(v):
                raise error(f"{where!r} must be finite, got {v!r}")
            if not all(_RANGES[k][0](v, limit) for k, limit in bounds):
                want = " and ".join(f"{_RANGES[k][1]} {limit!r}" for k, limit in bounds)
                raise error(f"{where!r} must be {want}, got {v!r}")
    return check


def _finite(value, error, path, complete):
    """Any JSON value as it is, once each float in it is finite."""
    if type(value) is float and not math.isfinite(value):
        raise error(f"{path!r} must be finite, got {value!r}")
    for k, v in value.items() if type(value) is dict else ():
        _finite(v, error, _join(path, k), complete)
    for i, v in enumerate(value) if type(value) is list else ():
        _finite(v, error, f"{path}[{i}]", complete)
    return value


@functools.cache
def _reader(tp, declared: tuple = ()):
    """The function (value, error, path, complete) that reads JSON data as the
    annotation `tp` of a field that declares `declared`, its metadata's
    items; built once per pair from the readers of its parts, so reading a
    value dispatches on no typing form."""
    if tp in _SCALARS:
        check = _check(tp, declared, many=False)

        def read(value, error, path, complete):
            if type(value) is not tp:
                if tp is not float or type(value) is not int:
                    raise error(f"{path!r} must be {tp.__name__}, got {_show(value)}")
                value = float(value)
            if check is not None:
                check(value, error, path)
            return value
        return read
    if tp is typing.Any or dataclasses.is_dataclass(tp):
        return _finite if tp is typing.Any else _record_reader(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    inner = [a for a in args if a is not type(None)]
    if (origin is types.UnionType or origin is typing.Union) and len(inner) == 1:
        read_inner = _reader(inner[0], declared)  # X | None

        def read(value, error, path, complete):
            return None if value is None else read_inner(value, error, path, complete)
        return read
    if (origin is tuple or origin is list) and len(set(args) - {Ellipsis}) == 1:
        item, read_item = args[0], _reader(args[0])
        length = len(args) if origin is tuple and args[-1] is not Ellipsis else None
        check = _check(item, declared, many=True)
        scalar = item if item in _SCALARS else None

        def read(value, error, path, complete):
            if not isinstance(value, (list, tuple)):
                raise error(f"{path!r} must be a list, got {_show(value)}")
            if length is not None and len(value) != length:
                raise error(f"{path!r} must hold {length} values, got {len(value)}")
            # a value whose items all have the scalar type declared is taken as it is
            slow = scalar is None
            for v in () if slow else value:
                if type(v) is not scalar:
                    slow = True
                    break
            items = [v if type(v) is item else read_item(v, error, f"{path}[{i}]", complete)
                     for i, v in enumerate(value)] if slow else value
            if check is not None:
                check(items, error, path)
            return tuple(items) if origin is tuple else list(items)
        return read
    if origin is dict:
        read_value = _reader(args[1], declared)

        def read(value, error, path, complete):
            if not isinstance(value, dict):
                raise error(f"{path!r} must be a JSON object, got {_show(value)}")
            return {k: read_value(v, error, _join(path, k), complete) for k, v in value.items()}
        return read
    raise TypeError(f"from_record cannot read annotation {tp!r}")


def _record_reader(cls):
    """The reader of a dataclass: one loop over its fields' prebuilt readers,
    then the class's `rules`."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
    # (the scalar type a value needs no reader at, the rule it must keep there
    # if the field declares one, the field's reader): an id costs one bool()
    readers = {f.name: (hints[f.name] if hints[f.name] in (int, str, bool)
                        and f.metadata.keys() <= {"rule"} else None,
                        f.metadata.get("rule", (None,))[0],
                        _reader(hints[f.name], tuple(f.metadata.items())))
               for f in fields}
    rules = getattr(cls, "rules", None)

    def read(data, error, path, complete):
        if not isinstance(data, dict):
            where = f" {path!r}" if path else ""
            raise error(f"{cls.__name__}{where} must be a JSON object, got {_show(data)}")
        if data.keys() != readers.keys():
            if data.keys() - readers.keys():
                unknown = sorted(_join(path, k) for k in data if k not in readers)
                raise error(f"unknown keys {unknown} in {cls.__name__}")
            missing = [_join(path, k) for k in readers
                       if k not in data and (complete or k in required)]
            if missing:
                raise error(f"missing keys {missing} in {cls.__name__}")
        kwargs, prefix = {}, f"{path}." if path else ""
        for k, v in data.items():
            plain, holds, read_value = readers[k]
            kwargs[k] = (v if type(v) is plain and (holds is None or holds(v))
                         else read_value(v, error, prefix + k, complete))
        record = cls(**kwargs)
        if rules is not None and (broken := record.rules()):
            raise error(f"{path}: {broken}" if path else broken)
        return record
    return read


class ConfigSection:
    """A config record: `validate` reads it back through `from_record`, so
    its declared ranges and cross-field `rules` hold, or raises ConfigError."""

    def validate(self) -> None:
        from_record(type(self), dataclasses.asdict(self), ConfigError)


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


def read_end(fh, error: type[Exception], path, last: str) -> None:
    if fh.read(1):  # a file spliced from two, or a doubled tail
        raise error(f"{path} has bytes after its last {last}")


def read_block(fh, shape: tuple[int, ...], error: type[Exception], what) -> np.ndarray:
    count = math.prod(shape)
    raw = fh.read(8 * count)
    if len(raw) != 8 * count:
        raise error(f"{what} is truncated")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
