from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import pytest

from focalcir.errors import ConfigError, DataError
from focalcir.records import from_record


@dataclass
class Inner:
    size: int
    scale: float = 1.0


@dataclass
class Outer:
    name: str
    grid: tuple[int, int] = (2, 2)
    betas: tuple[float, ...] = ()
    cap: int | None = None
    items: list[Inner] = field(default_factory=list)
    by_key: dict[str, Inner] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError, match="'size' must be int, got bool True"):
        from_record(Inner, {"size": True}, ConfigError)


def test_int_for_float_is_stored_as_float():
    got = from_record(Inner, {"size": 3, "scale": 2}, ConfigError)
    assert got == Inner(3, 2.0)
    assert type(got.scale) is float
    with pytest.raises(ConfigError, match="'scale' must be float"):
        from_record(Inner, {"size": 3, "scale": "2"}, ConfigError)


def test_lists_become_tuples_where_declared():
    got = from_record(Outer, {"name": "a", "grid": [4, 4], "betas": [0, 0.5],
                              "items": [{"size": 1}]}, ConfigError)
    assert got.grid == (4, 4) and got.betas == (0.0, 0.5)
    assert got.items == [Inner(1)]
    assert type(got.items) is list


def test_fixed_length_tuple_checks_its_length():
    with pytest.raises(ConfigError, match="'grid' must hold 2 values, got 3"):
        from_record(Outer, {"name": "a", "grid": [4, 4, 4]}, ConfigError)
    with pytest.raises(ConfigError, match="'grid' must be a list, got int 8"):
        from_record(Outer, {"name": "a", "grid": 8}, ConfigError)


def test_optional_takes_none_or_its_type():
    assert from_record(Outer, {"name": "a", "cap": None}, ConfigError).cap is None
    assert from_record(Outer, {"name": "a", "cap": 3}, ConfigError).cap == 3
    with pytest.raises(ConfigError, match="'cap' must be int, got str"):
        from_record(Outer, {"name": "a", "cap": "3"}, ConfigError)


def test_errors_name_the_nested_dotted_path():
    with pytest.raises(DataError, match=r"'run\.by_key\.x\.size' must be int"):
        from_record(Outer, {"name": "a", "by_key": {"x": {"size": "1"}}}, DataError, "run")
    # a list element is named by its index
    with pytest.raises(DataError, match=r"unknown keys \['run\.items\[1\]\.sise'\] in Inner"):
        from_record(Outer, {"name": "a", "items": [{"size": 1}, {"sise": 1}]}, DataError, "run")
    with pytest.raises(DataError, match=r"Inner 'run\.items\[0\]' must be a JSON object"):
        from_record(Outer, {"name": "a", "items": ["x"]}, DataError, "run")


def test_complete_names_every_missing_key():
    # defaults fill in unless the record must be whole; a field without a
    # default is required either way
    assert from_record(Inner, {"size": 1}, DataError) == Inner(1)
    with pytest.raises(DataError, match=r"missing keys \['scale'\] in Inner"):
        from_record(Inner, {"size": 1}, DataError, complete=True)
    with pytest.raises(DataError, match=r"missing keys \['r\.name'\] in Outer"):
        from_record(Outer, {}, DataError, "r")


def test_any_takes_a_value_as_it_is():
    raw = {"k": [1, "x", {"y": None}], "n": 2}
    assert from_record(Outer, {"name": "a", "extra": raw}, DataError).extra == raw
    with pytest.raises(DataError, match="'extra' must be a JSON object, got list"):
        from_record(Outer, {"name": "a", "extra": [1]}, DataError)
