"""Experiment harnesses: β sweep, CAAM ablation, bbox robustness, ROI crop.

Each harness reuses one gallery-embedding cache per trained model (target
embeddings do not depend on the modulation applied to queries) and emits a
delimited table alongside the structured per-row metrics.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from focalcir.benchgen.pipeline import Benchmark
from focalcir.benchgen.quadruples import Quadruple
from focalcir.errors import ConfigError, EmptyMaskError
from focalcir.evaluation import MetricsReport, evaluate_model, train_examples
from focalcir.fusion import region_mask_from_bbox
from focalcir.geometry import BBox, iou, perturb_bbox
from focalcir.model import ModelConfig, ModelParams, TrainConfig, train

DEFAULT_SWEEP_UNITS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def sqrt_dk(config: ModelConfig) -> float:
    """Scale of one attention head; sweep betas are expressed in these units."""
    return math.sqrt(config.d_model / config.n_heads)


@dataclass
class SweepRow:
    label: str
    beta_units: float | None  # None marks the adaptive row
    beta_value: float | None
    metrics: MetricsReport


@dataclass
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)

    def to_text(self) -> str:
        lines = ["label\tbeta\tr_at_1\tr_at_5\trid_at_1"]
        for row in self.rows:
            beta = "adaptive" if row.beta_value is None else f"{row.beta_value:.6g}"
            m = row.metrics.macro
            lines.append(
                f"{row.label}\t{beta}\t{m.r_at_1:.4f}\t{m.r_at_5:.4f}\t{m.rid_at_1:.4f}"
            )
        return "\n".join(lines) + "\n"


def beta_sweep(
    params: ModelParams,
    bench: Benchmark,
    units: tuple[float, ...] = DEFAULT_SWEEP_UNITS,
    subsets: list[str] | None = None,
    config_hash: str = "",
    seed: int = 0,
) -> SweepTable:
    """Fixed-β rows over units·sqrt(d_k), then the adaptive row."""
    scale = sqrt_dk(params.config)
    cache: dict[str, np.ndarray] = {}
    table = SweepTable()
    for u in units:
        report = evaluate_model(
            params, bench, subsets=subsets, beta_override=u * scale,
            config_hash=config_hash, seed=seed, gallery_cache=cache,
        )
        table.rows.append(
            SweepRow(label=f"{u:g}*sqrt(dk)", beta_units=u, beta_value=u * scale,
                     metrics=report)
        )
    adaptive = evaluate_model(
        params, bench, subsets=subsets, beta_override=None,
        config_hash=config_hash, seed=seed, gallery_cache=cache,
    )
    table.rows.append(SweepRow(label="adaptive", beta_units=None, beta_value=None,
                               metrics=adaptive))
    return table


# ---------------------------------------------------------------------------
# CAAM architecture ablation


def expand_variant_grid(
    crm_variants=("avg", "mlp", "transformer"),
    probe_modes=(True,),
    layer_counts=(2,),
    probe_counts=(8,),
    forms=("scalar",),
) -> list[dict]:
    """Cross product of the requested axes, in deterministic order."""
    out = []
    for crm in crm_variants:
        for learnable in probe_modes:
            for layers in layer_counts:
                for k in probe_counts:
                    for form in forms:
                        out.append(
                            {
                                "crm_variant": crm,
                                "probes_learnable": bool(learnable),
                                "crm_layers": int(layers),
                                "k_probes": int(k),
                                "modulation": form,
                            }
                        )
    return out


def variant_label(v: dict) -> str:
    probes = "learnable" if v["probes_learnable"] else "frozen"
    return (
        f"crm={v['crm_variant']} probes={probes} layers={v['crm_layers']} "
        f"K={v['k_probes']} form={v['modulation']}"
    )


@dataclass
class AblationRow:
    label: str
    variant: dict
    caam_param_count: int
    metrics: MetricsReport


def caam_param_count(params: ModelParams) -> int:
    return sum(t.data.size for name, t in params.named_params() if name.startswith("caam."))


def caam_ablation(
    bench: Benchmark,
    base_config: ModelConfig,
    train_cfg: TrainConfig,
    variants: list[dict],
    model_seed: int = 0,
    config_hash: str = "",
) -> list[AblationRow]:
    """Trains each variant from the same seed and evaluates it."""
    if not variants:
        raise ConfigError("no ablation variants requested")
    examples = None
    rows = []
    for v in variants:
        config = replace(base_config, **v)
        params = ModelParams(config, bench.encoders, seed=model_seed)
        if examples is None:
            quads = bench.train_quads
            if train_cfg.subsets is not None:
                quads = [q for q in quads if q.subset in train_cfg.subsets]
            examples = train_examples(bench, quads)
        train(params, examples, train_cfg)
        report = evaluate_model(params, bench, config_hash=config_hash, seed=train_cfg.seed)
        rows.append(
            AblationRow(
                label=variant_label(v), variant=dict(v),
                caam_param_count=caam_param_count(params), metrics=report,
            )
        )
    return rows


def ablation_table_text(rows: list[AblationRow]) -> str:
    lines = ["variant\tcaam_params\tr_at_1\tr_at_5\trid_at_1"]
    for row in rows:
        m = row.metrics.macro
        lines.append(
            f"{row.label}\t{row.caam_param_count}\t"
            f"{m.r_at_1:.4f}\t{m.r_at_5:.4f}\t{m.rid_at_1:.4f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bbox robustness


@dataclass
class RobustnessRow:
    label: str
    target_iou: float | None  # None marks the no-bbox row
    mode: str | None
    achieved_mean_iou: float | None
    metrics: MetricsReport


def _query_rng(seed: int, quad: Quadruple) -> np.random.Generator:
    key = zlib.crc32(f"{quad.ref_image_id}|{quad.target_image_id}".encode())
    return np.random.default_rng(np.random.SeedSequence([seed, 303, key]))


def robustness_eval(
    params: ModelParams,
    bench: Benchmark,
    perturbations: tuple[tuple[float, str], ...] = ((1.0, "scale"), (0.8, "scale"), (0.5, "scale_shift")),
    include_no_bbox: bool = True,
    seed: int = 0,
    config_hash: str = "",
) -> list[RobustnessRow]:
    """Evaluates under box perturbations of decreasing fidelity."""
    cache: dict[str, np.ndarray] = {}
    rows = []
    for target, mode in perturbations:
        achieved: dict[tuple[str, int], float] = {}

        def transform(quad: Quadruple, idx: int, _target=target, _mode=mode, _log=achieved) -> BBox:
            box = perturb_bbox(quad.bbox, _mode, _target, _query_rng(seed, quad))
            _log[(quad.subset, idx)] = iou(quad.bbox, box)
            return box

        report = evaluate_model(
            params, bench, bbox_transform=transform,
            config_hash=config_hash, seed=seed, gallery_cache=cache,
        )
        mean_iou = float(np.mean([achieved[k] for k in sorted(achieved)]))
        rows.append(
            RobustnessRow(
                label=f"iou={target:g} {mode}", target_iou=target, mode=mode,
                achieved_mean_iou=mean_iou, metrics=report,
            )
        )
    if include_no_bbox:
        report = evaluate_model(
            params, bench, use_bbox=False,
            config_hash=config_hash, seed=seed, gallery_cache=cache,
        )
        rows.append(
            RobustnessRow(label="no-bbox", target_iou=None, mode=None,
                          achieved_mean_iou=None, metrics=report)
        )
    return rows


def robustness_table_text(rows: list[RobustnessRow]) -> str:
    lines = ["row\tachieved_iou\tr_at_1\tr_at_5\trid_at_1"]
    for row in rows:
        m = row.metrics.macro
        achieved = "-" if row.achieved_mean_iou is None else f"{row.achieved_mean_iou:.4f}"
        lines.append(
            f"{row.label}\t{achieved}\t{m.r_at_1:.4f}\t{m.r_at_5:.4f}\t{m.rid_at_1:.4f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ROI-crop baseline


def _roi_viable(bench: Benchmark, quad: Quadruple) -> bool:
    grid = bench.world.configs[quad.subset].grid
    try:
        region_mask_from_bbox(quad.bbox, grid)
    except EmptyMaskError:
        return False
    return True


def roi_crop_baseline(
    bench: Benchmark,
    config: ModelConfig,
    train_cfg: TrainConfig,
    model_seed: int = 0,
    config_hash: str = "",
) -> tuple[ModelParams, MetricsReport]:
    """Trains and evaluates the crop-to-box variant (no mask, no modulation)."""
    roi_train_cfg = replace(train_cfg, roi_crop=True, fixed_beta=0.0)
    params = ModelParams(config, bench.encoders, seed=model_seed)

    train_quads = bench.train_quads
    if roi_train_cfg.subsets is not None:
        train_quads = [q for q in train_quads if q.subset in roi_train_cfg.subsets]
    usable_train = [q for q in train_quads if _roi_viable(bench, q)]
    usable_eval = [q for q in bench.eval_quads if _roi_viable(bench, q)]
    dropped = (len(train_quads) - len(usable_train)) + (len(bench.eval_quads) - len(usable_eval))
    if dropped:
        warnings.warn(f"roi-crop: skipped {dropped} quadruples whose box covers no patch")
    train(params, train_examples(bench, usable_train), roi_train_cfg)
    eval_bench = bench if len(usable_eval) == len(bench.eval_quads) else replace(
        bench, eval_quads=usable_eval
    )
    report = evaluate_model(
        params, eval_bench, roi_crop=True,
        config_hash=config_hash, seed=train_cfg.seed,
    )
    return params, report


def comparison_table_text(rows: list[tuple[str, MetricsReport]]) -> str:
    lines = ["model\tr_at_1\tr_at_5\trid_at_1"]
    for label, report in rows:
        m = report.macro
        lines.append(f"{label}\t{m.r_at_1:.4f}\t{m.r_at_5:.4f}\t{m.rid_at_1:.4f}")
    return "\n".join(lines) + "\n"
