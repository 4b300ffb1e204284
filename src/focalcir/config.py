"""Run configuration: desk defaults, strict dict loading, canonical hashing.

A RunConfig covers every knob a run can turn (world generation, model dims,
training, thresholds, sweep grids) plus the single seed and the output
directory. Loading is strict: unknown keys, wrongly typed values and values
out of their field's declared range are rejected by dotted path, so a
typoed override fails loudly instead of silently using a default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from focalcir.benchgen.filtering import PRESETS, FilterThresholds
from focalcir.benchgen.pipeline import default_world_configs
from focalcir.benchgen.world import WorldConfig
from focalcir.errors import ConfigError
from focalcir.harness import DEFAULT_SWEEP_UNITS
from focalcir.model import ModelConfig, TrainConfig, config_digest
from focalcir.records import ConfigSection, from_record, parse_json, write_json


@dataclass
class BenchSettings(ConfigSection):
    """Knobs for assembling quadruples and galleries from a generated world."""

    train_cap: int = field(default=8, metadata={"ge": 1})  # per-instance quadruple caps
    eval_cap: int = field(default=20, metadata={"ge": 1})
    n_distractors: int = field(default=320, metadata={"ge": 0})


@dataclass
class EvalSettings(ConfigSection):
    # the sweep grid, in units of sqrt(d_k)
    betas: tuple[float, ...] = field(default=DEFAULT_SWEEP_UNITS, metadata={"ge": 0.0})

    def rules(self) -> str | None:
        if not self.betas:
            return "'betas' must hold at least one value"


@dataclass
class RunConfig(ConfigSection):
    seed: int = field(default=0, metadata={"ge": 0})
    out: str = "runs/default"
    world: tuple[WorldConfig, ...] = field(
        default_factory=lambda: tuple(default_world_configs())
    )
    thresholds: dict[str, FilterThresholds] | None = None  # None: named presets
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    bench: BenchSettings = field(default_factory=BenchSettings)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def rules(self) -> str | None:
        if not self.world:
            return "at least one world subset is required"
        seen = set()
        for cfg in self.world:
            if cfg.subset in seen:
                return f"duplicate world subset {cfg.subset!r}"
            seen.add(cfg.subset)
            if self.thresholds is None and cfg.subset not in PRESETS:
                return f"no threshold preset for subset {cfg.subset!r}; set thresholds"
        if self.thresholds is not None:
            for subset in self.thresholds:
                if subset not in seen:
                    return f"thresholds given for unknown subset {subset!r}"
            missing = seen - set(self.thresholds)
            if missing:
                return f"missing thresholds for subset {sorted(missing)[0]!r}"
        latents = {c.d_latent for c in self.world}
        if len(latents) != 1:
            return f"subsets disagree on d_latent: {sorted(latents)}"

    def to_dict(self) -> dict:
        # the top-level seed drives training, so train.seed is no setting
        payload = dataclasses.asdict(self)
        del payload["train"]["seed"]
        return payload

    def digest(self) -> str:
        # the output directory is where a run lands, not what it computes,
        # so it stays out of the experiment's identity
        payload = self.to_dict()
        del payload["out"]
        return config_digest(payload)


def run_config_from_dict(data: dict) -> RunConfig:
    """Strict load: unknown keys, wrongly typed and out-of-range values and
    broken cross-field rules anywhere raise ConfigError naming the key."""
    train = data.get("train") if isinstance(data, dict) else None
    if isinstance(train, dict) and "seed" in train:
        raise ConfigError("'train.seed' is not a setting: the top-level 'seed' drives training")
    return from_record(RunConfig, data, ConfigError)


def load_run_config(path: str | Path | None, seed: int | None = None,
                    out: str | None = None) -> RunConfig:
    """Config file (or defaults) with CLI-level seed/out overrides, read once."""
    data = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        data = parse_json(p.read_bytes(), ConfigError, f"config file {p}")
    if isinstance(data, dict):  # anything else is named by the reader
        data |= {k: v for k, v in (("seed", seed), ("out", out)) if v is not None}
    return run_config_from_dict(data)


def write_resolved_config(out_dir: str | Path, cfg: RunConfig) -> str:
    """Writes resolved_config.json and returns the config digest."""
    digest = cfg.digest()
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    write_json(Path(out_dir) / "resolved_config.json",
               {"config_hash": digest, "config": cfg.to_dict()})
    return digest
