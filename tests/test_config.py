import json
import re

import pytest

from focalcir.benchgen import FilterThresholds, WorldConfig
from focalcir.config import (
    BenchSettings,
    EvalSettings,
    RunConfig,
    load_run_config,
    run_config_from_dict,
    write_resolved_config,
)
from focalcir.errors import ConfigError


def tiny_run_dict(**overrides):
    base = {
        "seed": 17,
        "out": "runs/x",
        "world": [
            {"subset": "fashion", "n_categories": 2, "instances_per_category": 4,
             "images_per_instance": 6, "n_contexts": 6, "grid": [4, 4], "d_latent": 8,
             "bbox_size_range": [0.3, 0.6], "reserve_instances_per_category": 3,
             "reserve_images_per_instance": 3}
        ],
        "thresholds": {"fashion": {"tau_valid": 4, "tau_high": 0.95,
                                   "tau_centric": 0.9, "tau_count": 3}},
        "model": {"d_model": 16, "d_embed": 16, "m_queries": 2, "k_probes": 2,
                  "l_text": 2, "n_blocks": 1, "crm_layers": 1},
        "train": {"epochs": 2, "batch_size": 8},
        "bench": {"train_cap": 3, "eval_cap": 5, "n_distractors": 6},
        "eval": {"betas": [0, 1, 4]},
    }
    base.update(overrides)
    return base


def test_defaults_validate_and_cover_presets():
    cfg = RunConfig()
    cfg.validate()
    assert {c.subset for c in cfg.world} == {"fashion", "car", "product", "landmark"}
    assert cfg.thresholds is None
    assert cfg.eval.betas == (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def test_default_digest_is_pinned():
    # every artifact embeds this hash, so a change to the defaults or to
    # the serialized form of the config shows up here first
    assert RunConfig().digest() == "306f7165a22d1082"


def test_from_dict_round_trip_preserves_digest():
    cfg = run_config_from_dict(tiny_run_dict())
    again = run_config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_digest_ignores_out_but_not_seed():
    a = run_config_from_dict(tiny_run_dict())
    b = run_config_from_dict(tiny_run_dict(out="elsewhere"))
    c = run_config_from_dict(tiny_run_dict(seed=18))
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_train_seed_is_rejected_and_left_out_of_the_digest():
    # cmd_train and cmd_ablate train from the top-level seed, so a train.seed
    # would change the config hash and nothing else
    data = tiny_run_dict(train={"epochs": 2, "batch_size": 8, "seed": 7})
    with pytest.raises(ConfigError, match="'train.seed' is not a setting: the top-level "
                                          "'seed' drives training"):
        run_config_from_dict(data)
    assert "seed" not in run_config_from_dict(tiny_run_dict()).to_dict()["train"]


def test_tuple_fields_coerced_from_lists():
    cfg = run_config_from_dict(tiny_run_dict())
    assert cfg.world[0].grid == (4, 4)
    assert cfg.world[0].bbox_size_range == (0.3, 0.6)
    assert cfg.eval.betas == (0.0, 1.0, 4.0)


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda d: d.update(sead=1), "'sead'"),
        (lambda d: d["model"].update(d_modle=9), "'model.d_modle'"),
        (lambda d: d["world"][0].update(gird=[2, 2]), "'world[0].gird'"),
        (lambda d: d["train"].update(lr=0.1), "'train.lr'"),
        (lambda d: d["eval"].update(jobs=2), "'eval.jobs'"),
        (lambda d: d["eval"].update(n_jobs=2), "'eval.n_jobs'"),
        (lambda d: d["model"].update(caam_shares_encoder=False), "'model.caam_shares_encoder'"),
        (lambda d: d["thresholds"]["fashion"].update(tau_max=1), "'thresholds.fashion.tau_max'"),
    ],
)
def test_unknown_keys_rejected_by_name(mutate, key):
    data = tiny_run_dict()
    mutate(data)
    with pytest.raises(ConfigError, match=re.escape(key)):
        run_config_from_dict(data)


def test_thresholds_must_cover_every_subset():
    data = tiny_run_dict()
    data["thresholds"] = {}
    data["thresholds"]["car"] = {"tau_valid": 4, "tau_high": 0.95,
                                 "tau_centric": 0.9, "tau_count": 3}
    with pytest.raises(ConfigError):
        run_config_from_dict(data)

    data = tiny_run_dict()
    data["world"][0]["subset"] = "custom"
    del data["thresholds"]  # no preset named "custom"
    with pytest.raises(ConfigError, match="custom"):
        run_config_from_dict(data)


def test_duplicate_subset_and_latent_mismatch_rejected():
    data = tiny_run_dict()
    data["world"].append(dict(data["world"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        run_config_from_dict(data)
    data = tiny_run_dict()
    clone = dict(data["world"][0])
    clone["subset"] = "car"
    clone["d_latent"] = 12
    data["world"].append(clone)
    data["thresholds"]["car"] = data["thresholds"]["fashion"]
    with pytest.raises(ConfigError, match="d_latent"):
        run_config_from_dict(data)


def test_settings_validation():
    with pytest.raises(ConfigError):
        BenchSettings(train_cap=0).validate()
    with pytest.raises(ConfigError):
        EvalSettings(betas=()).validate()
    with pytest.raises(ConfigError):
        EvalSettings(betas=(-1.0,)).validate()


def test_load_run_config_overrides_and_errors(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(tiny_run_dict()))
    cfg = load_run_config(path, seed=99, out=str(tmp_path / "o"))
    assert cfg.seed == 99
    assert cfg.out == str(tmp_path / "o")

    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(bad)

    defaults = load_run_config(None)
    assert defaults.seed == 0


def test_write_resolved_config(tmp_path):
    cfg = run_config_from_dict(tiny_run_dict(out=str(tmp_path)))
    digest = write_resolved_config(tmp_path, cfg)
    saved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert saved["config_hash"] == digest == cfg.digest()
    assert saved["config"]["seed"] == 17
    assert saved["config"]["world"][0]["grid"] == [4, 4]


def test_world_config_types_survive_round_trip():
    cfg = run_config_from_dict(tiny_run_dict())
    assert isinstance(cfg.world[0], WorldConfig)
    assert isinstance(cfg.thresholds["fashion"], FilterThresholds)
