"""Run configuration: desk defaults, strict dict loading, canonical hashing.

A RunConfig covers every knob a run can turn (world generation, model dims,
training, thresholds, sweep grids) plus the single seed and the output
directory. Loading is strict: unknown keys are rejected by name so a typoed
override fails loudly instead of silently using a default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from focalcir.benchgen.filtering import PRESETS, FilterThresholds
from focalcir.benchgen.pipeline import default_world_configs
from focalcir.benchgen.world import WorldConfig
from focalcir.errors import ConfigError
from focalcir.harness import DEFAULT_SWEEP_UNITS
from focalcir.model import ModelConfig, TrainConfig, config_digest


@dataclass
class BenchSettings:
    """Knobs for assembling quadruples and galleries from a generated world."""

    train_cap: int = 8
    eval_cap: int = 20
    n_distractors: int = 320

    def validate(self) -> None:
        if self.train_cap < 1 or self.eval_cap < 1:
            raise ConfigError("per-instance quadruple caps must be >= 1")
        if self.n_distractors < 0:
            raise ConfigError("n_distractors must be >= 0")


@dataclass
class EvalSettings:
    betas: tuple[float, ...] = DEFAULT_SWEEP_UNITS  # sweep grid, units of sqrt(d_k)

    def validate(self) -> None:
        if not self.betas or any(b < 0 for b in self.betas):
            raise ConfigError("beta sweep grid must be non-empty and non-negative")


@dataclass
class RunConfig:
    seed: int = 0
    out: str = "runs/default"
    world: tuple[WorldConfig, ...] = field(
        default_factory=lambda: tuple(default_world_configs())
    )
    thresholds: dict[str, FilterThresholds] | None = None  # None: named presets
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    bench: BenchSettings = field(default_factory=BenchSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.world:
            raise ConfigError("at least one world subset is required")
        seen = set()
        for cfg in self.world:
            cfg.validate()
            if cfg.subset in seen:
                raise ConfigError(f"duplicate world subset {cfg.subset!r}")
            seen.add(cfg.subset)
            if self.thresholds is None and cfg.subset not in PRESETS:
                raise ConfigError(
                    f"no threshold preset for subset {cfg.subset!r}; set thresholds"
                )
        if self.thresholds is not None:
            for subset, th in self.thresholds.items():
                th.validate()
                if subset not in seen:
                    raise ConfigError(f"thresholds given for unknown subset {subset!r}")
            missing = seen - set(self.thresholds)
            if missing:
                raise ConfigError(f"missing thresholds for subset {sorted(missing)[0]!r}")
        self.model.validate()
        self.train.validate()
        self.bench.validate()
        self.eval.validate()
        latents = {c.d_latent for c in self.world}
        if len(latents) != 1:
            raise ConfigError(f"subsets disagree on d_latent: {sorted(latents)}")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "out": self.out,
            "world": [dataclasses.asdict(c) for c in self.world],
            "thresholds": None
            if self.thresholds is None
            else {s: dataclasses.asdict(t) for s, t in sorted(self.thresholds.items())},
            "model": dataclasses.asdict(self.model),
            "train": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in dataclasses.asdict(self.train).items()
            },
            "bench": dataclasses.asdict(self.bench),
            "eval": {"betas": list(self.eval.betas)},
        }

    def digest(self) -> str:
        # the output directory is where a run lands, not what it computes,
        # so it stays out of the experiment's identity
        payload = self.to_dict()
        del payload["out"]
        return config_digest(payload)


_TUPLE_FIELDS = {"grid", "bbox_size_range", "betas", "subsets"}


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or 'top level'} must be a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown config key {path + key!r}")
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad value in config section {path or 'top level'}: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    """Strict load: unknown keys anywhere raise ConfigError naming the key."""
    if not isinstance(data, dict):
        raise ConfigError("run config must be a JSON object")
    top = {"seed", "out", "world", "thresholds", "model", "train", "bench", "eval"}
    for key in data:
        if key not in top:
            raise ConfigError(f"unknown config key {key!r}")

    kwargs = {}
    if "seed" in data:
        kwargs["seed"] = int(data["seed"])
    if "out" in data:
        kwargs["out"] = str(data["out"])
    if "world" in data:
        worlds = data["world"]
        if not isinstance(worlds, list):
            raise ConfigError("config key 'world' must be a list of subset configs")
        kwargs["world"] = tuple(_build(WorldConfig, w, "world.") for w in worlds)
    if "thresholds" in data and data["thresholds"] is not None:
        raw = data["thresholds"]
        if not isinstance(raw, dict):
            raise ConfigError("config key 'thresholds' must map subset -> thresholds")
        kwargs["thresholds"] = {
            s: _build(FilterThresholds, t, f"thresholds.{s}.") for s, t in raw.items()
        }
    if "model" in data:
        kwargs["model"] = _build(ModelConfig, data["model"], "model.")
    if "train" in data:
        section = dict(data["train"])
        if isinstance(section.get("subsets"), list):
            section["subsets"] = tuple(section["subsets"])
        kwargs["train"] = _build(TrainConfig, section, "train.")
    if "bench" in data:
        kwargs["bench"] = _build(BenchSettings, data["bench"], "bench.")
    if "eval" in data:
        kwargs["eval"] = _build(EvalSettings, data["eval"], "eval.")

    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def load_run_config(path: str | Path | None, seed: int | None = None,
                    out: str | None = None) -> RunConfig:
    """Config file (or defaults) with CLI-level seed/out overrides applied."""
    if path is None:
        cfg = RunConfig()
        cfg.validate()
    else:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
        cfg = run_config_from_dict(data)
    if seed is not None or out is not None:
        cfg = dataclasses.replace(
            cfg,
            seed=cfg.seed if seed is None else seed,
            out=cfg.out if out is None else out,
        )
        cfg.validate()
    return cfg


def write_resolved_config(out_dir: str | Path, cfg: RunConfig) -> str:
    """Writes resolved_config.json and returns the config digest."""
    payload = cfg.to_dict()
    digest = cfg.digest()
    path = Path(out_dir) / "resolved_config.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"config_hash": digest, "config": payload},
                   indent=2, sort_keys=True) + "\n"
    )
    return digest
