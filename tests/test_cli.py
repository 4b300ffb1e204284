import argparse
import dataclasses
import hashlib
import json
import math
import platform
import re
import struct
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalcir.benchgen.filtering import FilterThresholds
from focalcir.benchgen.gallery import GalleryEntry
from focalcir.benchgen.io import ImageRecord, WorldHeader
from focalcir.benchgen.pipeline import BenchmarkSettings, SubsetStats
from focalcir.benchgen.quadruples import Quadruple
from focalcir.benchgen.world import WorldConfig
from focalcir import cli, errors
from focalcir.cli import build_parser, main
from focalcir.config import BenchSettings, EvalSettings, RunConfig, run_config_from_dict
from focalcir.evaluation import evaluate_model
from focalcir.geometry import BOX
from focalcir.records import ID, IDS
from focalcir.model import (
    CheckpointHeader,
    EncoderRecord,
    ModelConfig,
    ModelParams,
    ParamRecord,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)
from focalcir.benchgen import load_benchmark


def run_dict(out, two_subsets=False):
    world = [
        {"subset": "fashion", "n_categories": 2, "instances_per_category": 4,
         "images_per_instance": 6, "n_contexts": 6, "grid": [4, 4], "d_latent": 8,
         "bbox_size_range": [0.3, 0.6], "reserve_instances_per_category": 3,
         "reserve_images_per_instance": 3}
    ]
    thresholds = {"fashion": {"tau_valid": 4, "tau_high": 0.95,
                              "tau_centric": 0.9, "tau_count": 3}}
    if two_subsets:
        car = dict(world[0])
        car["subset"] = "car"
        world.append(car)
        thresholds["car"] = dict(thresholds["fashion"])
    return {
        "seed": 17,
        "out": str(out),
        "world": world,
        "thresholds": thresholds,
        "model": {"d_model": 16, "d_embed": 16, "m_queries": 2, "k_probes": 2,
                  "l_text": 2, "n_blocks": 1, "crm_layers": 1},
        "train": {"epochs": 2, "batch_size": 8},
        "bench": {"train_cap": 3, "eval_cap": 5, "n_distractors": 6},
        "eval": {"betas": [0, 2]},
    }


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One generated + trained run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg_path = root / "run.json"
    out = root / "out"
    cfg_path.write_text(json.dumps(run_dict(out)))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return cfg_path, out


def file_hashes(directory):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(directory).iterdir()) if f.is_file()
    }


# -- gen ------------------------------------------------------------------------


def test_gen_writes_all_artifacts(run_dir):
    _, out = run_dir
    names = {f.name for f in out.iterdir()}
    assert {"world.bin", "quadruples_train.jsonl", "quadruples_eval.jsonl",
            "gallery_fashion.jsonl", "stats.json", "resolved_config.json"} <= names
    stats = json.loads((out / "stats.json").read_text())
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert stats["config_hash"] == resolved["config_hash"]


def test_gen_rerun_is_byte_identical(run_dir, capsys):
    cfg_path, out = run_dir
    before = file_hashes(out)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    after = file_hashes(out)
    gen_files = {"world.bin", "quadruples_train.jsonl", "quadruples_eval.jsonl",
                 "gallery_fashion.jsonl", "stats.json", "resolved_config.json"}
    for name in gen_files:
        assert after[name] == before[name], name


def test_bad_config_key_exits_1_naming_it(tmp_path, capsys):
    data = run_dict(tmp_path / "o")
    data["model"]["d_modle"] = 9
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["gen", "--config", str(p)]) == 1
    assert "d_modle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d["train"].update(epochs="10"), "'train.epochs'"),
        (lambda d: d["model"].update(d_model="32"), "'model.d_model'"),
        (lambda d: d.update(seed="x"), "'seed'"),
        (lambda d: d.update(train=["x"]), "'train'"),
        (lambda d: d["world"][0].update(grid=8), "'world[0].grid'"),
        (lambda d: d["eval"].update(betas="0,1"), "'eval.betas'"),
        (lambda d: d["train"].update(subsets="car"), "'train.subsets'"),
        (lambda d: d["model"].update(n_blocks=True), "'model.n_blocks'"),
        (lambda d: d["train"].update(fixed_beta="0"), "'train.fixed_beta'"),
    ],
)
def test_wrongly_typed_config_value_exits_1_naming_it(tmp_path, capsys, mutate, key):
    data = run_dict(tmp_path / "o")
    mutate(data)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["gen", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [("n_heads", 0), ("n_heads", -1), ("n_heads", 3), ("crm_variant", "gru"),
     ("modulation", "matrix")],
)
def test_bad_model_value_exits_1_naming_it(tmp_path, capsys, key, value):
    data = run_dict(tmp_path / "o")
    data["model"][key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["gen", "--config", str(p)]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# each config class, where run_dict holds one instance of it, and its dotted key
SECTIONS = [
    (RunConfig, (), ""), (WorldConfig, ("world", 0), "world[0]."),
    (FilterThresholds, ("thresholds", "fashion"), "thresholds.fashion."),
    (ModelConfig, ("model",), "model."), (TrainConfig, ("train",), "train."),
    (BenchSettings, ("bench",), "bench."), (EvalSettings, ("eval",), "eval."),
]
BOUNDS = ("gt", "ge", "lt", "le")


def numeric_fields():
    """(section, field, element type, is a tuple) for every int or float field
    of every config class, tuple and optional fields included."""
    out = []
    for section in SECTIONS:
        hints = typing.get_type_hints(section[0])
        for f in dataclasses.fields(section[0]):
            tp, args = hints[f.name], typing.get_args(hints[f.name])
            is_tuple = typing.get_origin(tp) is tuple
            if is_tuple or type(None) in args:  # tuple[X, X], tuple[X, ...] or X | None
                tp = args[0]
            if tp in (int, float):
                out.append((section, f, tp, is_tuple))
    return out


def _outside(bound: str, limit, scalar):
    """The value next to `limit` on the wrong side of `bound`."""
    if bound in ("gt", "lt"):
        return limit
    step = -1 if bound == "ge" else 1
    return limit + step if scalar is int else math.nextafter(limit, step * math.inf)


def out_of_range_cases():
    cases = []
    for (_, at, prefix), f, scalar, is_tuple in numeric_fields():
        key = prefix + f.name + ("[0]" if is_tuple else "")
        bad = [_outside(b, f.metadata[b], scalar) for b in BOUNDS if b in f.metadata]
        if scalar is float:
            bad += [math.nan, math.inf, -math.inf]
        cases += [pytest.param(at, f.name, is_tuple, v, key, id=f"{key}={v!r}") for v in bad]
    return cases


@pytest.mark.parametrize("at, name, is_tuple, value, key", out_of_range_cases())
def test_every_out_of_range_value_exits_1_naming_it(tmp_path, capsys, at, name, is_tuple,
                                                     value, key):
    data = run_dict(tmp_path / "o")
    section = data
    for k in at:
        section = section[k]
    if is_tuple:
        section[name] = [value] + list(section[name][1:])
    else:
        section[name] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))  # NaN and Infinity are JSON that json.loads accepts
    assert main(["train", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert repr(key) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_every_numeric_config_field_declares_a_range():
    fields = {f"{section[0].__name__}.{f.name}": f for section, f, _, _ in numeric_fields()}
    # tuple, optional and plain fields are all found
    assert {"WorldConfig.grid", "TrainConfig.fixed_beta", "RunConfig.seed"} <= fields.keys()
    assert [k for k, f in fields.items() if not any(b in f.metadata for b in BOUNDS)] == []


@pytest.mark.parametrize(
    "command, flag, at",
    [("gen", "--out", "file"), ("train", "--checkpoint", "file/ckpt.bin"),
     ("train", "--checkpoint", "dir")],
)
def test_unwritable_output_path_exits_1_naming_it(run_dir, tmp_path, capsys, command, flag, at):
    cfg_path, _ = run_dir
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    path = str(tmp_path / at)
    assert main([command, "--config", str(cfg_path), flag, path]) == 1
    err = capsys.readouterr().err
    assert path.removesuffix("/ckpt.bin") in err
    assert "Traceback" not in err


def test_unknown_flag_exits_1(capsys):
    assert main(["gen", "--wat"]) == 1
    capsys.readouterr()


def test_the_allocator_hook_is_glibc_only_and_repeatable(monkeypatch):
    # main calls it once per command, and tests call main many times
    glibc = platform.libc_ver()[0] == "glibc"
    assert cli._keep_freed_heap() is glibc and cli._keep_freed_heap() is glibc
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    assert cli._keep_freed_heap() is False
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append(1))
    assert main(["gen", "--wat"]) == 1 and calls == [1]


def test_cli_surface_is_pinned():
    # the run config states a run: a flag that overrode a hashed key would
    # let two runs that computed different things stamp one config hash
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    surface = {name: {a.dest for a in p._actions if a.dest != "help"}
               for name, p in commands.choices.items()}
    assert surface == {
        "gen": {"config", "out"},
        "train": {"config", "out", "checkpoint"},
        "eval": {"config", "out", "subsets", "checkpoint"},
        "ablate": {"kind", "config", "out", "checkpoint"},
        "gradcheck": {"config"},
    }


@pytest.mark.parametrize("argv", [
    *([*command, "--seed", "5"] for command in
      (["gen"], ["train"], ["eval"], ["ablate", "beta"], ["gradcheck"])),
    ["train", "--subsets", "car"],
    ["ablate", "beta", "--betas", "0,1,4"],
    ["gradcheck", "--out", "x"],
], ids=" ".join)
def test_flag_that_shadowed_a_config_key_exits_1_as_unrecognized(tmp_path, monkeypatch, capsys,
                                                                  argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# -- train ----------------------------------------------------------------------


def test_train_writes_checkpoint_and_loss_log(run_dir):
    _, out = run_dir
    params, meta = load_checkpoint(out / "checkpoint.bin")
    assert meta["train_subsets"] == ["fashion"]
    assert meta["fixed_beta"] is None
    log = (out / "checkpoint_loss_log.tsv").read_text().strip().split("\n")
    assert log[0].startswith("# config_hash=")
    assert log[1] == "epoch\tloss\tmean_beta"
    assert len(log) == 2 + 2  # one row per epoch


def test_train_subsets_filter_recorded_in_manifest(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    data = run_dict(out, two_subsets=True)
    cfg_path.write_text(json.dumps(data))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    data["train"]["subsets"] = ["car"]
    cfg_path.write_text(json.dumps(data))
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    _, meta = load_checkpoint(out / "checkpoint.bin")
    assert meta["train_subsets"] == ["car"]

    data["train"]["subsets"] = ["boat"]
    cfg_path.write_text(json.dumps(data))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "boat" in capsys.readouterr().err


def test_configs_that_differ_only_in_train_subsets_stamp_different_hashes(tmp_path, capsys):
    # a leave-one-out run is a config of its own, so its artifacts say which
    # subsets it trained on
    cfg_path = tmp_path / "run.json"
    data = run_dict(tmp_path / "out", two_subsets=True)
    data["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(data))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    stamps = []
    for subsets in (None, ["car"]):
        data["train"]["subsets"] = subsets
        cfg_path.write_text(json.dumps(data))
        ckpt = tmp_path / f"{subsets}.bin"
        assert main(["train", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        digest = run_config_from_dict(data).digest()
        header = ckpt.with_name(ckpt.stem + "_loss_log.tsv").read_text().split("\n")[0]
        assert load_checkpoint(ckpt)[1]["config_hash"] == digest
        assert header == f"# config_hash={digest} seed=17"
        stamps.append(digest)
    capsys.readouterr()
    assert stamps[0] != stamps[1]


@pytest.mark.parametrize("command", [["gen"], ["train"], ["eval"], ["ablate", "beta"],
                                     ["ablate", "caam"], ["ablate", "robustness"],
                                     ["ablate", "roicrop"]], ids=" ".join)
def test_train_subsets_outside_the_world_exit_1_at_every_command(tmp_path, capsys, command):
    data = run_dict(tmp_path / "o")
    data["train"]["subsets"] = ["fashion", "boat"]
    p = tmp_path / "run.json"
    p.write_text(json.dumps(data))
    assert main([*command, "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "train.subsets names unknown subset 'boat'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, section, key, value, named", [
    # 1e308 * sqrt(d_k) overflows to inf, and inf times a mask's 0 is NaN
    (["ablate", "beta"], "eval", "betas", [0, 1e308], "'eval.betas[1]' 1e+308"),
    # the one-subset world's reserve pool holds 9 images per category
    (["gen"], "bench", "n_distractors", 1000, "n_distractors 1000 needs 500 distractors"),
], ids=["beta-overflows", "distractors-exceed-the-reserve"])
def test_a_config_the_run_cannot_meet_exits_1_naming_the_key(tmp_path, capsys, command,
                                                             section, key, value, named):
    data = run_dict(tmp_path / "o")
    data[section][key] = value
    p = tmp_path / "run.json"
    p.write_text(json.dumps(data))
    assert main([*command, "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()  # gen builds before it writes anything


@pytest.mark.parametrize(
    "subsets, flag, message",
    [
        (None, "fashion,fashion", "--subsets names 'fashion' twice"),
        (["fashion", "fashion"], None, "train: 'subsets' names 'fashion' twice"),
        ([], None, "train: 'subsets' must name at least one subset"),
    ],
)
def test_repeated_or_empty_subset_list_exits_1_naming_it(run_dir, tmp_path, capsys,
                                                         subsets, flag, message):
    # subsets are a set: a checkpoint records them sorted, and ablate roicrop
    # compares that record with the run's
    cfg_path, _ = run_dir
    data = json.loads(cfg_path.read_text())
    data["out"] = str(tmp_path / "o")
    if subsets is not None:
        data["train"]["subsets"] = subsets
    p = tmp_path / "run.json"
    p.write_text(json.dumps(data))
    for command in (["gen"], ["train"], ["ablate", "roicrop"]) if flag is None else (["eval"],):
        argv = [*command, "--config", str(p)] + (["--subsets", flag] if flag else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_first_record(path, edit):
    head, first, *rest = path.read_text().splitlines()
    rec = json.loads(first)
    edit(rec)
    path.write_text("\n".join([head, json.dumps(rec), *rest]) + "\n")


def _truncate(path, size):
    path.write_bytes(path.read_bytes()[:size])


def _append_zeros(path):
    path.write_bytes(path.read_bytes() + bytes(16))


@pytest.mark.parametrize(
    "name, damage",
    [
        ("stats.json", lambda p: p.write_text("{not json")),
        ("stats.json", lambda p: _edit_json(p, lambda d: d.pop("settings"))),
        ("stats.json", lambda p: _edit_json(p, lambda d: d["settings"].pop("d_model"))),
        ("stats.json", lambda p: _edit_json(p, lambda d: d["thresholds"]["fashion"].update(x=1))),
        ("stats.json", lambda p: _edit_json(p, lambda d: d["thresholds"].update(fashion="0.9"))),
        ("quadruples_train.jsonl", lambda p: p.write_text(p.read_text() + "{oops\n")),
        ("quadruples_eval.jsonl", lambda p: _edit_first_record(p, lambda r: r.pop("bbox"))),
        ("gallery_fashion.jsonl", lambda p: _edit_first_record(p, lambda r: r.pop("is_target"))),
        ("gallery_fashion.jsonl", lambda p: p.unlink()),
        ("world.bin", lambda p: _truncate(p, 40)),
        ("world.bin", _append_zeros),
    ],
)
def test_train_on_damaged_artifact_exits_2_naming_the_file(run_dir, tmp_path, capsys,
                                                           name, damage):
    cfg_path, out = run_dir
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    damage(copy / name)
    assert main(["train", "--config", str(cfg_path), "--out", str(copy)]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("name", ["world.bin", "quadruples_train.jsonl",
                                  "quadruples_eval.jsonl", "gallery_fashion.jsonl"])
def test_file_from_another_run_exits_2_naming_the_key_and_both_values(run_dir, tmp_path,
                                                                      capsys, name):
    # a file of a seed-18 run in the seed-17 run: each file's header holds
    # the seed and config hash that stats.json records
    cfg_path, out = run_dir
    other = tmp_path / "other"
    other_cfg = tmp_path / "other.json"
    other_cfg.write_text(json.dumps(run_dict(other) | {"seed": 18}))
    assert main(["gen", "--config", str(other_cfg)]) == 0
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    (copy / name).write_bytes((other / name).read_bytes())
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path), "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    assert f"{copy / name}: seed 18 is not the seed 17 of {copy / 'stats.json'}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, key, value, message", [
    ("quadruples_eval.jsonl", "version", 99, "unsupported JSONL version 99 in {path}"),
    ("gallery_fashion.jsonl", "version", 99, "unsupported JSONL version 99 in {path}"),
    ("quadruples_eval.jsonl", "config_hash", "beef",
     "{path}: config_hash 'beef' is not the config_hash {digest!r} of {stats}"),
    ("world.bin", "config_hash", "beef",
     "{path}: config_hash 'beef' is not the config_hash {digest!r} of {stats}"),
])
def test_file_header_of_another_version_or_config_exits_2_naming_it(run_dir, tmp_path, capsys,
                                                                    name, key, value, message):
    cfg_path, out = run_dir
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    path = copy / name
    if name == "world.bin":
        _rewrite_header(path, lambda h: h.update({key: value}))
    else:
        head, *rest = path.read_text().splitlines()
        path.write_text("\n".join([json.dumps(json.loads(head) | {key: value}), *rest]) + "\n")
    assert main(["eval", "--config", str(cfg_path), "--out", str(copy)]) == 2
    digest = json.loads((out / "stats.json").read_text())["config_hash"]
    err = capsys.readouterr().err
    assert message.format(path=path, digest=digest, stats=copy / "stats.json") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["quadruples_train.jsonl", "quadruples_eval.jsonl"])
def test_quadruple_of_an_unknown_subset_exits_2_naming_it(run_dir, tmp_path, capsys, name):
    # such a quadruple would drop out of every per-subset loop unnoticed
    cfg_path, out = run_dir
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    _edit_first_record(copy / name, lambda r: r.update(subset="boat"))
    assert main(["eval", "--config", str(cfg_path), "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    assert f"{name}[0].subset: 'boat'" in err and "Traceback" not in err


@pytest.mark.parametrize("name, key, value", [
    ("quadruples_eval.jsonl", "instance_id", "fashion/nope"),
    ("quadruples_eval.jsonl", "category_id", "fashion/nope"),
    ("quadruples_eval.jsonl", "target_image_id", "nope"),
    ("quadruples_eval.jsonl", "ref_image_id", "nope"),
    ("quadruples_eval.jsonl", "text_context_id", "nope"),
    ("quadruples_eval.jsonl", "bbox", [0.6, 0.1, 0.2, 0.5]),
    ("quadruples_eval.jsonl", "bbox", [0.1, 0.1, float("nan"), 0.5]),
    ("quadruples_eval.jsonl", "bbox", [0.1, 0.1, 0.5, float("inf")]),
    ("quadruples_train.jsonl", "ref_image_id", "nope"),
    ("gallery_fashion.jsonl", "image_id", "nope"),
    ("gallery_fashion.jsonl", "instance_id", "fashion/nope"),
    ("gallery_fashion.jsonl", "category_id", "fashion/nope"),
    # a box between the centers of the 4x4 grid (odd multiples of 1/8)
    ("quadruples_train.jsonl", "bbox", [0.9, 0.9, 0.95, 0.95]),
    ("quadruples_eval.jsonl", "bbox", [0.9, 0.9, 0.95, 0.95]),
    ("gallery_fashion.jsonl", "is_target", False),
])
def test_record_that_disagrees_with_the_world_exits_2_naming_it(run_dir, tmp_path, capsys,
                                                               name, key, value):
    # every file is checked on load, so eval also refuses a damaged train file,
    # and a gallery entry of the wrong instance cannot miscount R_ID silently
    cfg_path, out = run_dir
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    _edit_first_record(copy / name, lambda r: r.update({key: value}))
    assert main(["eval", "--config", str(cfg_path), "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    # the gallery rules hold for a file as a whole, not for one entry
    where = f"{name}: " if key == "is_target" else f"{name}[0].{key}: "
    assert where in err and "Traceback" not in err


def test_train_on_a_single_example_exits_3(run_dir, tmp_path, capsys):
    # a batch of one is skipped, so the run would write an untrained model
    # with a NaN loss
    cfg_path, out = run_dir
    copy = tmp_path / "copy"
    copy.mkdir()
    for name in ("world.bin", "quadruples_train.jsonl", "quadruples_eval.jsonl",
                 "gallery_fashion.jsonl", "stats.json"):
        (copy / name).write_bytes((out / name).read_bytes())
    train_file = copy / "quadruples_train.jsonl"
    train_file.write_text("\n".join(train_file.read_text().splitlines()[:2]) + "\n")
    # stats.json counts what its files hold
    quads = [json.loads(line) for name in ("quadruples_train.jsonl", "quadruples_eval.jsonl")
             for line in (copy / name).read_text().splitlines()[1:]]
    _edit_json(copy / "stats.json", lambda d: d["stats"]["fashion"].update(
        train_quadruples=1, instances_with_pairs=len({q["instance_id"] for q in quads})))
    assert main(["train", "--config", str(cfg_path), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert "training needs at least 2 examples, got 1" in err and "Traceback" not in err
    assert not (copy / "checkpoint.bin").exists()


def _rewrite_header(path, edit):
    """Edits the JSON header of a binary container (world.bin or a checkpoint)."""
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1  # after the magic line
    (hlen,) = struct.unpack("<Q", raw[start : start + 8])
    header = json.loads(raw[start + 8 : start + 8 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:start] + struct.pack("<Q", len(blob)) + blob + raw[start + 8 + hlen :])


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda h: h["images"][0].pop("grid_shape"), "images[0].grid_shape"),
        (lambda h: h.update(seed=str(h["seed"])), "world.bin.seed"),
        (lambda h: h.update(n_images=5), "world.bin.n_images"),
        (lambda h: h.update(n_reserve=h["n_reserve"] - 1), "n_reserve"),
        (lambda h: h["configs"]["fashion"].update(bbox_size_range=[math.nan, 0.6]),
         "world.bin.configs.fashion.bbox_size_range[0]' must be finite"),
        (lambda h: h["configs"]["fashion"].update(bbox_size_range=[0.6, 0.3]),
         "world.bin.configs.fashion: bbox_size_range (0.6, 0.3) must satisfy"),
    ],
)
def test_train_on_world_with_damaged_header_exits_2_naming_the_key(run_dir, tmp_path, capsys,
                                                                   edit, key):
    cfg_path, out = run_dir
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    _rewrite_header(copy / "world.bin", edit)
    assert main(["train", "--config", str(cfg_path), "--out", str(copy)]) == 2
    err = capsys.readouterr().err
    assert "world.bin" in err and key in err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d["thresholds"]["fashion"].update(tau_high=math.nan),
         "stats.json.thresholds.fashion.tau_high' must be finite"),
        (lambda d: d["settings"].update(n_distractors=-5),
         "stats.json.settings.n_distractors' must be >= 0, got -5"),
        (lambda d: d["thresholds"]["fashion"].update(tau_centric=0.99),
         "stats.json.thresholds.fashion: tau_centric 0.99 exceeds tau_high 0.95"),
    ],
)
def test_eval_on_stats_with_out_of_range_value_exits_2_naming_the_key(run_dir, tmp_path,
                                                                      capsys, edit, key):
    cfg_path, out = run_dir
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    _edit_json(copy / "stats.json", edit)
    assert main(["eval", "--config", str(cfg_path), "--out", str(copy)]) == 2
    assert key in capsys.readouterr().err


DATA_FILES = ("world.bin", "quadruples_train.jsonl", "quadruples_eval.jsonl",
              "gallery_fashion.jsonl", "stats.json")
# one value of each JSON type; a damage picks one the damaged key does not take
JSON_VALUES = ("x", 7, 2.5, True, None, [1], {"k": 1})


def _edit_records(path, edit):
    """Calls edit on the records of one artifact, as (where, record, class)
    triples in which `where` prefixes a key of the record in the loader's
    messages and the record reads as the class, and writes the records back:
    world.bin's images, a JSONL file's records, or the sections of
    stats.json."""
    if path.name == "world.bin":
        _rewrite_header(path, lambda h: edit(
            [(f"{path}.images[{i}]", r, ImageRecord) for i, r in enumerate(h["images"])]))
    elif path.name == "stats.json":
        _edit_json(path, lambda d: edit(
            [(f"{path}.settings", d["settings"], BenchmarkSettings)]
            + [(f"{path}.{part}.{s}", d[part][s], cls)
               for part, cls in (("thresholds", FilterThresholds), ("stats", SubsetStats))
               for s in sorted(d[part])]))
    else:
        head, *lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        cls = GalleryEntry if path.name.startswith("gallery_") else Quadruple
        edit([(f"{path}[{i}]", r, cls) for i, r in enumerate(records)])
        path.write_text("\n".join([head, *map(json.dumps, records)]) + "\n")


def _edit_headers(path, edit):
    """Calls edit on the header keys of world.bin or a checkpoint that
    `_edit_records` leaves out, as (where, record, class, keys) items whose
    keys are the ones to damage, and writes the header back: world.bin's
    id lists, n_reserve and subset configs, and a checkpoint's version,
    seed, model config, encoder record and parameter records."""
    def sections(h):
        if path.name == "world.bin":
            return ([(str(path), h, WorldHeader,
                      ["category_ids", "context_ids", "identity_ids", "n_reserve"])]
                    + [(f"{path}.configs.{s}", c, WorldConfig) for s, c in h["configs"].items()])
        return ([(str(path), h, CheckpointHeader, ["seed", "version"]),
                 (f"{path}.model_config", h["model_config"], ModelConfig),
                 (f"{path}.encoder", h["encoder"], EncoderRecord)]
                + [(f"{path}.params[{i}]", r, ParamRecord) for i, r in enumerate(h["params"])])
    _rewrite_header(path, lambda h: edit(sections(h)))


def _damage(draw, records) -> str:
    """Damages one key of one record: a value of another JSON type, NaN, a
    list one item too long or too short, an unknown key, a deleted key, or,
    where the record's class declares a range, a choice or the box rule for
    the key, a value just outside it, where it declares an id, an empty id
    or, on a key that refers to something (not an image's own image_id), a
    dangling one, and where it declares a list of ids, an empty id put in
    place of one or inserted. A record item may name the keys to damage as
    its fourth entry. Returns the dotted path the loader must name."""
    where, record, cls, *keys = draw(st.sampled_from(records))
    key = draw(st.sampled_from(keys[0] if keys else sorted(record)))
    value = record[key]
    declared = {f.name: f.metadata for f in dataclasses.fields(cls)}[key]
    kinds = ["type", "nan", "unknown", "delete"] + (["length"] if isinstance(value, list) else [])
    # half the damages of a key that declares a range or rule break it
    kind = "range" if declared and draw(st.booleans()) else draw(st.sampled_from(kinds))
    if kind == "type":  # a float takes an int too
        record[key] = draw(st.sampled_from([
            v for v in JSON_VALUES
            if type(v) is not type(value) and not (type(value) is float and type(v) is int)]))
    elif kind == "nan":
        record[key] = math.nan
    elif kind == "length":
        record[key] = draw(st.sampled_from([value[:-1], value + value[:1]]))
    elif kind == "range" and declared.get("rule") == BOX["rule"]:
        # a corner at -0.5 or 1.5, or x0 and x1 (or y0 and y1) swapped
        i, how = draw(st.integers(0, 3)), draw(st.sampled_from(["-0.5", "1.5", "swap"]))
        if how == "swap":
            j = (i + 2) % 4
            value[i], value[j] = value[j], value[i]
        else:
            value[i] = float(how)
    elif kind == "range" and declared.get("rule") == ID["rule"]:
        refers = not (cls is ImageRecord and key == "image_id")
        record[key] = draw(st.sampled_from(["", "nope"] if refers else [""]))
    elif kind == "range" and declared.get("rule") == IDS["rule"]:
        if draw(st.booleans()):
            value[draw(st.integers(0, len(value) - 1))] = ""
        else:
            value.insert(draw(st.integers(0, len(value))), "")
    elif kind == "range" and "choices" in declared:
        record[key] = "nope"
    elif kind == "range":
        bound = draw(st.sampled_from([b for b in BOUNDS if b in declared]))
        record[key] = _outside(bound, declared[bound], type(value))
    elif kind == "unknown":
        key = "extra"
        record[key] = 1
    else:
        del record[key]
    return f"{where}.{key}"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_damaged_record_is_named_by_file_record_and_key(run_dir, data):
    _, out = run_dir
    name = data.draw(st.sampled_from(DATA_FILES))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for f in DATA_FILES:
            (copy / f).write_bytes((out / f).read_bytes())
        named = []
        _edit_records(copy / name, lambda records: named.append(_damage(data.draw, records)))
        with pytest.raises(errors.DataError) as info:
            load_benchmark(copy)
    assert named[0] in str(info.value)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_a_damaged_header_key_is_named_by_file_and_key(run_dir, data):
    _, out = run_dir
    name = data.draw(st.sampled_from(["world.bin", "checkpoint.bin"]))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for f in (*DATA_FILES, "checkpoint.bin"):
            (copy / f).write_bytes((out / f).read_bytes())
        named = []
        _edit_headers(copy / name, lambda records: named.append(_damage(data.draw, records)))
        with pytest.raises(errors.DataError) as info:
            load_benchmark(copy) if name == "world.bin" else load_checkpoint(copy / name)
    # the file, and the key's dotted path within it
    assert str(copy / name) in str(info.value)
    assert named[0].removeprefix(f"{copy / name}.") in str(info.value)


@pytest.mark.parametrize("name, damage, key", [
    ("world.bin", lambda rs: rs[3][1].update(bbox=[0.1, 0.1, 0.5]), "world.bin.images[3].bbox"),
    ("quadruples_eval.jsonl", lambda rs: rs[2][1].update(text_context_id=math.nan),
     "quadruples_eval.jsonl[2].text_context_id"),
    ("quadruples_train.jsonl", lambda rs: rs[1][1]["bbox"].__setitem__(2, 1.5),
     "quadruples_train.jsonl[1].bbox"),
    ("world.bin", lambda rs: rs[0][1].update(context_id=""), "world.bin.images[0].context_id"),
    ("world.bin", lambda rs: rs[2][1].update(instance_id="nope"),
     "world.bin.images[2].instance_id"),
])
def test_a_damaged_record_exits_2_through_the_cli(run_dir, tmp_path, capsys, name, damage, key):
    cfg_path, out = run_dir
    for f in DATA_FILES:
        (tmp_path / f).write_bytes((out / f).read_bytes())
    _edit_records(tmp_path / name, damage)
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / key}" in err and "Traceback" not in err


@pytest.mark.parametrize("name, damage, key", [
    ("checkpoint.bin", lambda rs: rs[3][1]["shape"].pop(), "checkpoint.bin.params[0].shape"),
    ("checkpoint.bin", lambda rs: rs[0][1].update(seed=-1), "checkpoint.bin.seed"),
    ("checkpoint.bin", lambda rs: rs[1][1].update(modulation="nope"),
     "checkpoint.bin.model_config.modulation"),
    ("world.bin", lambda rs: rs[0][1]["context_ids"].append(rs[0][1]["context_ids"][0]),
     "world.bin: context_ids"),
    ("world.bin", lambda rs: rs[0][1]["identity_ids"].__setitem__(0, ""),
     "world.bin.identity_ids"),
    ("world.bin", lambda rs: rs[1][1].update(grid=[4, 0]), "world.bin.configs.fashion.grid"),
])
def test_a_damaged_header_exits_2_through_the_cli(run_dir, tmp_path, capsys, name, damage, key):
    cfg_path, out = run_dir
    for f in (*DATA_FILES, "checkpoint.bin"):
        (tmp_path / f).write_bytes((out / f).read_bytes())
    _edit_headers(tmp_path / name, damage)
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / key}" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("eval_quadruples", 9999), ("gallery_size", 1),
                                        ("instances_with_pairs", 0)])
def test_stats_counts_that_disagree_with_the_files_exit_2(run_dir, tmp_path, capsys,
                                                          key, value):
    # gen's summary and the acceptance gate read these counts
    cfg_path, out = run_dir
    for f in DATA_FILES:
        (tmp_path / f).write_bytes((out / f).read_bytes())
    want = json.loads((out / "stats.json").read_text())["stats"]["fashion"][key]
    _edit_json(tmp_path / "stats.json", lambda d: d["stats"]["fashion"].update({key: value}))
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path}/stats.json.stats.fashion.{key}: {value} is not the {want}" in err
    assert "Traceback" not in err


def test_stats_of_another_subset_set_exit_2(run_dir, tmp_path):
    _, out = run_dir
    for f in DATA_FILES:
        (tmp_path / f).write_bytes((out / f).read_bytes())
    _edit_json(tmp_path / "stats.json", lambda d: d["stats"].update(car=d["stats"]["fashion"]))
    with pytest.raises(errors.DataError, match=re.escape(
            "stats.json.stats: subsets ['car', 'fashion'] are not the world's ['fashion']")):
        load_benchmark(tmp_path)


def test_a_checkpoint_that_runs_past_its_header_exits_2(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    ckpt = tmp_path / "ckpt.bin"
    ckpt.write_bytes((out / "checkpoint.bin").read_bytes() + bytes(64))
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt} has bytes after its last parameter" in err and "Traceback" not in err


def test_a_bad_box_on_an_image_no_quadruple_refs_exits_2_naming_it(run_dir, tmp_path, capsys):
    # every world.bin image box is range-checked, not only a quadruple ref's
    cfg_path, out = run_dir
    for f in DATA_FILES:
        (tmp_path / f).write_bytes((out / f).read_bytes())
    refs = {json.loads(line)["ref_image_id"]
            for name in ("quadruples_train.jsonl", "quadruples_eval.jsonl")
            for line in (out / name).read_text().splitlines()[1:]}
    named = []

    def damage(records):
        where, record, _ = next(r for r in records if r[1]["image_id"] not in refs)
        record["bbox"] = [math.nan, 5.0, -1.0, 0.5]
        named.append(f"{where}.bbox")

    _edit_records(tmp_path / "world.bin", damage)
    with pytest.raises(errors.DataError) as info:
        load_benchmark(tmp_path)
    assert named[0] in str(info.value)
    assert main(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert named[0] in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, message", [
    ("context_id", "nope", "'nope' is not in the header's context_ids"),
    ("instance_id", "nope", "'nope' is not in the header's identity_ids"),
    ("category_id", "nope", "'nope' is not in the header's category_ids"),
    ("context_id", "", "'' must be non-empty"),
    ("image_id", "", "'' must be non-empty"),
])
def test_an_image_id_that_names_nothing_exits_2_naming_it(run_dir, tmp_path, key, value,
                                                          message):
    # an image's ids resolve against the world header, and no id is empty
    _, out = run_dir
    for f in DATA_FILES:
        (tmp_path / f).write_bytes((out / f).read_bytes())
    named = []

    def damage(records):
        where, record, _ = records[-1]  # a reserve image, which no quadruple refers to
        record[key] = value
        named.append(f"{where}.{key}: {message}")

    _edit_records(tmp_path / "world.bin", damage)
    with pytest.raises(errors.DataError, match=re.escape(named[0])):
        load_benchmark(tmp_path)


# the exit-code contract: one class per code, and the base class as a check failure
EXIT_CODES = {
    "ConfigError": (1, "config error: "),
    "DataError": (2, "data error: "),
    "ContractError": (3, "check failure: "),
    "FocalCirError": (3, "check failure: "),
}


def test_errors_defines_one_class_per_exit_code():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, name):
    code, prefix = EXIT_CODES[name]

    def fail(cfg):
        raise getattr(errors, name)("the message")

    monkeypatch.setattr(cli, "cmd_gen", fail)
    assert main(["gen"]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix + "the message") and "Traceback" not in err


def test_train_rerun_checkpoint_is_byte_identical(run_dir, capsys):
    cfg_path, out = run_dir
    before = (out / "checkpoint.bin").read_bytes()
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (out / "checkpoint.bin").read_bytes() == before


def _gen_files_copy(out, copy):
    """A fresh run directory holding the files gen wrote to out."""
    copy.mkdir()
    for name in ("world.bin", "quadruples_train.jsonl", "quadruples_eval.jsonl",
                 "gallery_fashion.jsonl", "stats.json", "resolved_config.json"):
        (copy / name).write_bytes((out / name).read_bytes())
    return copy


def _two_subsets_renamed(d):
    d["world"][0]["subset"] = "car"
    d["thresholds"] = {"car": d["thresholds"]["fashion"]}


def _n_contexts_7(d):
    d["world"][0]["n_contexts"] = 7


@pytest.mark.parametrize("command, edit, key, ours, theirs", [
    (["train"], _n_contexts_7, "world[0].n_contexts", "7", "6"),
    (["eval"], _n_contexts_7, "world[0].n_contexts", "7", "6"),
    (["ablate", "beta"], _n_contexts_7, "world[0].n_contexts", "7", "6"),
    (["ablate", "caam"], _n_contexts_7, "world[0].n_contexts", "7", "6"),
    (["train"], lambda d: d.update(seed=18), "seed", "18", "17"),
    (["train"], lambda d: d["bench"].update(n_distractors=7), "bench.n_distractors", "7", "6"),
    (["train"], lambda d: d["model"].update(d_model=8, d_embed=8), "model.d_model", "8", "16"),
    (["train"], lambda d: d["thresholds"]["fashion"].update(tau_high=0.9),
     "thresholds.fashion.tau_high", "0.9", "0.95"),
    (["train"], _two_subsets_renamed, "world", "['car']", "['fashion']"),
])
def test_a_config_other_than_gens_exits_2_naming_the_key(run_dir, tmp_path, capsys,
                                                         command, edit, key, ours, theirs):
    cfg_path, out = run_dir
    copy = _gen_files_copy(out, tmp_path / "copy")
    trained = (out / "checkpoint.bin").read_bytes()
    (copy / "checkpoint.bin").write_bytes(trained)
    data = json.loads(cfg_path.read_text())
    data["out"] = str(copy)
    edit(data)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    assert main([*command, "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"the run config's {key} is {ours}, but the benchmark in {copy} was made with {theirs}" \
        in err and "Traceback" not in err
    assert (copy / "checkpoint.bin").read_bytes() == trained
    assert not any(copy.glob("metrics.*")) and not any(copy.glob("ablate_*"))


def test_only_gen_writes_the_resolved_config(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    copy = _gen_files_copy(out, tmp_path / "copy")
    before = (copy / "resolved_config.json").read_bytes()
    data = json.loads(cfg_path.read_text())
    data["out"] = str(copy)
    data["train"]["epochs"] = 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["eval", "--config", str(p)]) == 0
    capsys.readouterr()
    assert (copy / "resolved_config.json").read_bytes() == before
    # the outputs still carry the digest of the config that made them
    digest = run_config_from_dict(data).digest()
    assert digest != json.loads(before)["config_hash"]
    assert load_checkpoint(copy / "checkpoint.bin")[1]["config_hash"] == digest
    assert json.loads((copy / "metrics.json").read_text())["config_hash"] == digest


# -- eval -----------------------------------------------------------------------


def test_eval_writes_metrics(run_dir, capsys):
    cfg_path, out = run_dir
    assert main(["eval", "--config", str(cfg_path)]) == 0
    stdout = capsys.readouterr().out
    assert "macro:" in stdout
    saved = json.loads((out / "metrics.json").read_text())
    assert set(saved["per_subset"]) == {"fashion"}
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert saved["config_hash"] == resolved["config_hash"]


def test_eval_untrained_zero_head_equals_baseline(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    bench = load_benchmark(out)
    cfg = run_config_from_dict(json.loads(cfg_path.read_text()))
    fresh = ModelParams(cfg.model, bench.encoders, seed=cfg.seed)
    ckpt = tmp_path / "fresh.bin"
    save_checkpoint(ckpt, fresh)
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    saved = json.loads((out / "metrics.json").read_text())

    baseline = evaluate_model(fresh, bench, beta_override=0.0)
    assert saved["per_subset"] == baseline.to_dict()["per_subset"]


def test_eval_missing_inputs_exit_2(tmp_path, run_dir, capsys):
    cfg_path, _ = run_dir
    p = tmp_path / "cfg.json"
    data = run_dict(tmp_path / "empty")
    p.write_text(json.dumps(data))
    assert main(["eval", "--config", str(p)]) == 2
    assert "stats.json" in capsys.readouterr().err

    assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                 str(tmp_path / "nope.bin")]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_eval_checkpoint_with_removed_model_key_exits_2(tmp_path, run_dir, capsys):
    cfg_path, out = run_dir
    raw = (out / "checkpoint.bin").read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    header["model_config"]["caam_shares_encoder"] = True
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    old = tmp_path / "old.bin"
    old.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(old)]) == 2
    assert "caam_shares_encoder" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("d_latent", 100), ("d_model", 8), ("l_text", 3)])
def test_eval_checkpoint_whose_encoder_disagrees_with_its_model_exits_2(run_dir, tmp_path,
                                                                        capsys, key, value):
    cfg_path, out = run_dir
    ckpt = tmp_path / "ckpt.bin"
    ckpt.write_bytes((out / "checkpoint.bin").read_bytes())
    _rewrite_header(ckpt, lambda h: h["encoder"].update({key: value}))
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: encoder.{key} {value}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["eval"], ["ablate", "beta"], ["ablate", "robustness"],
                                     ["ablate", "roicrop"]], ids=" ".join)
def test_checkpoint_from_another_encoder_exits_2(run_dir, tmp_path, capsys, command):
    # the model would be scored on patches and texts of an encoder it never saw
    cfg_path, out = run_dir
    ckpt = tmp_path / "ckpt.bin"
    ckpt.write_bytes((out / "checkpoint.bin").read_bytes())
    _rewrite_header(ckpt, lambda h: h["encoder"].update(seed=999))
    assert main([*command, "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: encoder.seed is 999" in err and "Traceback" not in err


def test_eval_unknown_subset_exits_1(run_dir, capsys):
    cfg_path, _ = run_dir
    assert main(["eval", "--config", str(cfg_path), "--subsets", "boat"]) == 1
    assert "boat" in capsys.readouterr().err


def test_eval_records_the_checkpoint_it_scored(tmp_path, capsys):
    # a leave-one-out checkpoint scored under the full run's config: the
    # metrics carry the run's hash and name the checkpoint's own
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    data = run_dict(out, two_subsets=True)
    data["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(data))
    ckpt = tmp_path / "fashion.bin"
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(_fashion_only(data, tmp_path)),
                 "--checkpoint", str(ckpt)]) == 0
    assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    saved = json.loads((out / "metrics.json").read_text())
    meta = load_checkpoint(ckpt)[1]
    assert saved["config_hash"] == run_config_from_dict(data).digest() != meta["config_hash"]
    assert saved["checkpoint"] == {"config_hash": meta["config_hash"],
                                   "train_subsets": ["fashion"]}


def test_text_outputs_name_the_checkpoint_they_scored(tmp_path, capsys):
    # the full run's checkpoint and a leave-one-out one, scored under the
    # full run's config: the .txt twins tell them apart as the .json ones do
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    data = run_dict(out, two_subsets=True)
    data["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(data))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    full, loo = tmp_path / "full.bin", tmp_path / "fashion.bin"
    assert main(["train", "--config", str(cfg_path), "--checkpoint", str(full)]) == 0
    assert main(["train", "--config", str(_fashion_only(data, tmp_path)),
                 "--checkpoint", str(loo)]) == 0
    texts = {}
    for ckpt in (full, loo):
        meta = load_checkpoint(ckpt)[1]
        stamp = (f'checkpoint.config_hash="{meta["config_hash"]}" checkpoint.train_subsets='
                 + json.dumps(meta["train_subsets"], separators=(",", ":")))
        for command in (["eval"], ["ablate", "beta"], ["ablate", "robustness"]):
            assert main([*command, "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        metrics = (out / "metrics.txt").read_text()
        assert metrics.endswith(f"seed: 17\n{stamp}\n")
        kinds = ["beta", "robustness"]
        if ckpt == full:  # roicrop scores only a checkpoint of the run's own subsets
            assert main(["ablate", "roicrop", "--config", str(cfg_path),
                         "--checkpoint", str(ckpt)]) == 0
            kinds.append("roicrop")
        for kind in kinds:
            first = (out / f"ablate_{kind}.txt").read_text().split("\n")[0]
            assert first == f"# config_hash={run_config_from_dict(data).digest()} seed=17 {stamp}"
        texts[ckpt] = metrics.split("config_hash: ")[1]
    capsys.readouterr()
    assert texts[full] != texts[loo]


# -- ablate ----------------------------------------------------------------------


def _with_betas(run_dir, tmp_path, betas):
    """A copy of the run's config whose eval.betas grid is betas."""
    cfg_path, _ = run_dir
    data = json.loads(cfg_path.read_text())
    data["eval"]["betas"] = betas
    p = tmp_path / "run.json"
    p.write_text(json.dumps(data))
    return p


def test_ablate_beta_rows_match_grid(run_dir, tmp_path, capsys):
    _, out = run_dir
    cfg_path = _with_betas(run_dir, tmp_path, [0, 1, 4])
    assert main(["ablate", "beta", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    saved = json.loads((out / "ablate_beta.json").read_text())
    labels = [r["label"] for r in saved["rows"]]
    assert labels == ["0*sqrt(dk)", "1*sqrt(dk)", "4*sqrt(dk)", "adaptive"]
    assert saved["grid_units"] == [0.0, 1.0, 4.0]
    text = (out / "ablate_beta.txt").read_text()
    assert text.startswith("# config_hash=")
    assert text.count("\n") == 1 + 1 + 4  # provenance + header + rows


def test_ablate_beta_bad_grid_exits_1(run_dir, tmp_path, capsys):
    cfg_path = _with_betas(run_dir, tmp_path, [0, "x"])
    assert main(["ablate", "beta", "--config", str(cfg_path)]) == 1
    assert "'eval.betas[1]'" in capsys.readouterr().err


@pytest.mark.parametrize("betas", ["-1", "nan", "inf", "0,-inf", " , "])
def test_ablate_beta_out_of_range_grid_exits_1_naming_betas(run_dir, tmp_path, capsys, betas):
    grid = [float(s) for s in betas.split(",") if s.strip()]  # NaN and Infinity are JSON too
    cfg_path = _with_betas(run_dir, tmp_path, grid)
    assert main(["ablate", "beta", "--config", str(cfg_path)]) == 1
    assert "betas" in capsys.readouterr().err


def test_ablate_robustness_rows(run_dir, capsys):
    cfg_path, out = run_dir
    assert main(["ablate", "robustness", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    saved = json.loads((out / "ablate_robustness.json").read_text())
    labels = [r["label"] for r in saved["rows"]]
    assert labels == ["iou=1 scale", "iou=0.8 scale", "iou=0.5 scale_shift", "no-bbox"]
    assert saved["rows"][0]["achieved_mean_iou"] == 1.0
    assert saved["rows"][-1]["achieved_mean_iou"] is None


def test_ablate_caam_follows_the_run_config_and_reruns_byte_identically(run_dir, capsys):
    cfg_path, out = run_dir
    assert main(["ablate", "caam", "--config", str(cfg_path)]) == 0
    first = file_hashes(out)
    saved = json.loads((out / "ablate_caam.json").read_text())
    # the run's model section sets k_probes 2 and crm_layers 1
    assert [r["label"] for r in saved["rows"]] == [
        f"crm={crm} layers=1 K=2 form={form}"
        for crm in ("avg", "mlp", "transformer") for form in ("scalar", "vector")]
    assert main(["ablate", "caam", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    again = file_hashes(out)
    for name in ("ablate_caam.json", "ablate_caam.txt"):
        assert again[name] == first[name], name


def test_ablate_roicrop_comparison_rows(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    data = run_dict(out)
    data["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(data))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["ablate", "roicrop", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    saved = json.loads((out / "ablate_roicrop.json").read_text())
    assert [r["label"] for r in saved["rows"]] == ["baseline-beta0", "roi-crop", "adaptive"]
    assert saved["checkpoint"] is None  # no checkpoint yet: the adaptive row trained here


def test_ablate_roicrop_trains_every_row_on_train_subsets(tmp_path, capsys, monkeypatch):
    import focalcir.cli as cli
    import focalcir.harness as harness

    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    data = run_dict(out, two_subsets=True)
    # a car query is told apart from a fashion one by its grid
    data["world"][1].update(grid=[3, 4], bbox_size_range=[0.4, 0.6])
    data["train"].update(epochs=1, subsets=["fashion"])
    cfg_path.write_text(json.dumps(data))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    grids = []

    def spy(params, examples, cfg, _train=cli.train):
        grids.append({tuple(ex.query.grid) for ex in examples})
        return _train(params, examples, cfg)

    monkeypatch.setattr(cli, "train", spy)
    monkeypatch.setattr(harness, "train", spy)
    assert main(["ablate", "roicrop", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert grids == [{(4, 4)}] * 3  # baseline-beta0, roi-crop, adaptive


def _fashion_only(data, tmp_path):
    """A copy of a two-subset run config that trains on fashion alone."""
    p = tmp_path / "fashion.json"
    p.write_text(json.dumps({**data, "train": {**data["train"], "subsets": ["fashion"]}}))
    return p


def test_ablate_roicrop_rejects_a_checkpoint_trained_on_other_subsets(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    data = run_dict(out, two_subsets=True)
    data["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(data))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(_fashion_only(data, tmp_path))]) == 0
    capsys.readouterr()
    assert main(["ablate", "roicrop", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "['fashion']" in err and "['car', 'fashion']" in err
    assert not (out / "ablate_roicrop.json").exists()

    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["ablate", "roicrop", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    saved = json.loads((out / "ablate_roicrop.json").read_text())
    _, meta = load_checkpoint(out / "checkpoint.bin")
    assert saved["checkpoint"] == {"config_hash": meta["config_hash"],
                                   "train_subsets": ["car", "fashion"]}


def test_ablate_beta_and_robustness_record_their_checkpoint(tmp_path, capsys):
    # evaluating a checkpoint trained on fewer subsets is legitimate here
    # (a leave-one-out model), so it is recorded, not rejected
    cfg_path = tmp_path / "run.json"
    out = tmp_path / "out"
    data = run_dict(out, two_subsets=True)
    data["train"]["epochs"] = 1
    cfg_path.write_text(json.dumps(data))
    ckpt = tmp_path / "fashion.bin"
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(_fashion_only(data, tmp_path)),
                 "--checkpoint", str(ckpt)]) == 0
    _, meta = load_checkpoint(ckpt)
    for kind in ("beta", "robustness"):
        assert main(["ablate", kind, "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        saved = json.loads((out / f"ablate_{kind}.json").read_text())
        assert saved["checkpoint"] == {"config_hash": meta["config_hash"],
                                       "train_subsets": ["fashion"]}, kind
    capsys.readouterr()


def test_ablate_kind_is_validated(run_dir, capsys):
    cfg_path, _ = run_dir
    assert main(["ablate", "nothing", "--config", str(cfg_path)]) == 1
    capsys.readouterr()


# -- gradcheck --------------------------------------------------------------------


def test_gradcheck_passes_on_tiny_dims(capsys):
    assert main(["gradcheck"]) == 0
    stdout = capsys.readouterr().out
    assert "worst relative error" in stdout
    assert "FAIL" not in stdout
