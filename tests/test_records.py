from __future__ import annotations

import importlib
import pkgutil
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any

import pytest

import focalcir
from focalcir.benchgen.filtering import PRESETS, FilterThresholds
from focalcir.benchgen.gallery import GalleryEntry
from focalcir.benchgen.io import ImageRecord, WorldHeader
from focalcir.benchgen.pipeline import BenchmarkSettings
from focalcir.benchgen.quadruples import Quadruple
from focalcir.benchgen.world import WorldConfig
from focalcir.config import BenchSettings, EvalSettings, RunConfig
from focalcir.errors import ConfigError, DataError
from focalcir.evaluation import SubsetMetrics
from focalcir.geometry import in_bounds
from focalcir.model import (
    CheckpointHeader,
    EncoderRecord,
    ModelConfig,
    ParamRecord,
    TrainConfig,
)
from focalcir.records import ID, from_record


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


# one valid record of every class that declares a range or rules
CHECKED = [
    RunConfig(), WorldConfig(subset="fashion"), PRESETS["fashion"], ModelConfig(),
    TrainConfig(), BenchSettings(), EvalSettings(),
    BenchmarkSettings(seed=0, d_model=32, l_text=4, train_cap=8, eval_cap=20, n_distractors=320),
    EncoderRecord(seed=0, d_latent=16, d_model=32, l_text=4),
    ImageRecord("fashion/c0/i0/im0", "fashion/c0/i0", "fashion/c0", "fashion/ctx0", "fashion",
                (0.1, 0.2, 0.5, 0.6), (8, 8, 16), False),
    Quadruple(ref_image_id="fashion/c0/i0/im0", bbox=(0.1, 0.2, 0.5, 0.6),
              text_context_id="fashion/ctx1", target_image_id="fashion/c0/i0/im1",
              instance_id="fashion/c0/i0", category_id="fashion/c0", subset="fashion"),
    GalleryEntry("fashion/c0/i0/im1", "fashion/c0/i0", "fashion/c0", True),
    SubsetMetrics(r_at_1=0.3, r_at_5=0.6, rid_at_1=0.5, n_queries=10),
    CheckpointHeader(version=1, meta={"final_loss": 0.5}, seed=0, model_config=ModelConfig(),
                     encoder=EncoderRecord(seed=0, d_latent=16, d_model=32, l_text=4),
                     params=(ParamRecord("w", (2, 2)),)),
    WorldHeader(version=1, seed=0, config_hash="", configs={"fashion": WorldConfig("fashion")},
                context_ids=["fashion/ctx0"], identity_ids=["fashion/c0/i0"],
                category_ids=["fashion/c0"], n_reserve=0,
                images=[ImageRecord("fashion/c0/i0/im0", "fashion/c0/i0", "fashion/c0",
                                    "fashion/ctx0", "fashion", (0.1, 0.2, 0.5, 0.6), (8, 8, 16),
                                    False)]),
]
# a value that breaks each field rule, made from a value that keeps it
BREAKS = {in_bounds: lambda box: (box[2], box[1], box[0], box[3]),  # swapped x corners
          ID["rule"][0]: lambda _: ""}


def declaring_classes():
    """Every dataclass of the package that declares a range, a field rule or
    `rules`, found by walking its modules."""
    found = set()
    for info in pkgutil.walk_packages(focalcir.__path__, "focalcir."):
        for obj in vars(importlib.import_module(info.name)).values():
            if (isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == info.name
                    and (hasattr(obj, "rules") or any(f.metadata for f in fields(obj)))):
                found.add(obj)
    return found


def test_every_declaring_class_has_a_checked_record():
    assert {ImageRecord, Quadruple, GalleryEntry, SubsetMetrics,
            CheckpointHeader} <= declaring_classes()
    assert declaring_classes() <= {type(r) for r in CHECKED}


def broken(record, data, path):
    """Breaks, in `data` (the record as a dict), the first field of the record
    or of a record nested in it that declares a lower bound, setting it one
    below; else the last field with a rule (an ImageRecord's box, a
    Quadruple's category_id). Returns the dotted key named."""
    for f in fields(record):
        if {"ge", "gt"} & f.metadata.keys():
            bad = f.metadata.get("ge", f.metadata.get("gt")) - 1
            if isinstance(data[f.name], tuple):
                data[f.name] = [bad, *data[f.name][1:]]
                return f"{path}.{f.name}[0]"
            data[f.name] = bad
            return f"{path}.{f.name}"
        value = getattr(record, f.name)
        if is_dataclass(value) and (key := broken(value, data[f.name], f"{path}.{f.name}")):
            return key
    for f in reversed(fields(record)):
        if "rule" in f.metadata:
            data[f.name] = BREAKS[f.metadata["rule"][0]](data[f.name])
            return f"{path}.{f.name}"
    return None


@pytest.mark.parametrize("record", CHECKED, ids=lambda r: type(r).__name__)
def test_from_record_checks_the_declared_ranges(record):
    data = asdict(record)
    assert from_record(type(record), data, DataError, "r") == record
    key = broken(record, data, "r")
    assert key is not None, f"{type(record).__name__} declares nothing this test can break"
    with pytest.raises(DataError, match=re.escape(repr(key)) + "|" + re.escape(f"{key}: ")):
        from_record(type(record), data, DataError, "r")


@pytest.mark.parametrize(
    "cls, data, message",
    [
        (WorldConfig, {"subset": "x", "bbox_size_range": [0.6, 0.3]},
         "r: bbox_size_range (0.6, 0.3) must satisfy"),
        (FilterThresholds,
         {"tau_valid": 4, "tau_high": 0.9, "tau_centric": 0.95, "tau_count": 2},
         "r: tau_centric 0.95 exceeds tau_high 0.9"),
        (ModelConfig, {"d_model": 9, "n_heads": 2}, "r: d_model 9 not divisible by n_heads 2"),
        (EvalSettings, {"betas": []}, "r: 'betas' must hold at least one value"),
        (RunConfig, {"world": []}, "r: at least one world subset is required"),
        (WorldHeader, {**asdict(CHECKED[-1]), "identity_ids": ["x", "y", "x"]},
         "r: identity_ids lists 'x' twice"),
    ],
)
def test_from_record_runs_the_rules_raising_the_callers_error(cls, data, message):
    with pytest.raises(DataError, match=re.escape(message)):
        from_record(cls, data, DataError, "r")
