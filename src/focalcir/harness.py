"""Experiment harnesses: β sweep, CAAM ablation, bbox robustness, ROI crop.

Every row is one plain evaluate_model call: a setting (beta_override,
use_bbox, roi_crop) on a benchmark view. Perturbed boxes and the ROI-crop
filter are views made with dataclasses.replace on eval_quads. The harnesses
that train read their quadruples through Benchmark.train_quads_of, so
train.subsets holds for every trained row. Each harness reuses one
gallery-embedding cache per trained model (target embeddings do not depend
on the modulation applied to queries), and every table is written by
metrics_table_text alongside the structured per-row metrics.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from focalcir.benchgen.pipeline import Benchmark
from focalcir.benchgen.quadruples import Quadruple
from focalcir.errors import ConfigError
from focalcir.evaluation import MetricsReport, evaluate_model, train_examples
from focalcir.geometry import iou, patch_membership, perturb_bbox, validate_bbox
from focalcir.model import ModelConfig, ModelParams, TrainConfig, train

DEFAULT_SWEEP_UNITS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def sqrt_dk(config: ModelConfig) -> float:
    """Scale of one attention head; sweep betas are expressed in these units."""
    return math.sqrt(config.d_model / config.n_heads)


def metrics_table_text(header: tuple[str, ...],
                       rows: list[tuple[tuple[str, ...], MetricsReport]]) -> str:
    """Tab-separated table: each row's leading cells, then its macro recalls."""
    lines = ["\t".join((*header, "r_at_1", "r_at_5", "rid_at_1"))]
    for cells, report in rows:
        m = report.macro
        lines.append("\t".join((*cells, f"{m.r_at_1:.4f}", f"{m.r_at_5:.4f}", f"{m.rid_at_1:.4f}")))
    return "\n".join(lines) + "\n"


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
        return metrics_table_text(("label", "beta"), [
            ((r.label, "adaptive" if r.beta_value is None else f"{r.beta_value:.6g}"), r.metrics)
            for r in self.rows])


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
    examples = train_examples(bench, bench.train_quads_of(train_cfg.subsets))
    rows = []
    for v in variants:
        params = ModelParams(replace(base_config, **v), bench.encoders, seed=model_seed)
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
    return metrics_table_text(("variant", "caam_params"),
                              [((r.label, str(r.caam_param_count)), r.metrics) for r in rows])


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
    """Evaluates under box perturbations of decreasing fidelity.

    Each row evaluates a view whose eval quadruples carry perturbed boxes;
    the achieved IoU is averaged in evaluation order (subsets sorted, then
    file order), which a stable sort on the subset gives."""
    cache: dict[str, np.ndarray] = {}
    quads = sorted(bench.eval_quads, key=lambda q: q.subset)
    rows = []
    for target, mode in perturbations:
        moved = [replace(q, bbox=perturb_bbox(q.bbox, mode, target, _query_rng(seed, q)))
                 for q in quads]
        report = evaluate_model(
            params, replace(bench, eval_quads=moved),
            config_hash=config_hash, seed=seed, gallery_cache=cache,
        )
        mean_iou = float(np.mean([iou(q.bbox, m.bbox) for q, m in zip(quads, moved)]))
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
    return metrics_table_text(("row", "achieved_iou"), [
        ((r.label, "-" if r.achieved_mean_iou is None else f"{r.achieved_mean_iou:.4f}"), r.metrics)
        for r in rows])


# ---------------------------------------------------------------------------
# ROI-crop baseline


def _roi_viable(bench: Benchmark, quads: list[Quadruple]) -> list[Quadruple]:
    """The quadruples whose box covers at least one patch center of their
    subset's grid, in order: one membership test per grid over all boxes."""
    by_grid: dict[tuple[int, int], list[int]] = {}
    for i, q in enumerate(quads):
        validate_bbox(q.bbox)
        by_grid.setdefault(tuple(bench.world.configs[q.subset].grid), []).append(i)
    viable = np.zeros(len(quads), dtype=bool)
    for grid, rows in by_grid.items():
        viable[rows] = patch_membership([quads[i].bbox for i in rows], grid).any(axis=1)
    return [q for q, ok in zip(quads, viable) if ok]


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

    train_quads = bench.train_quads_of(train_cfg.subsets)
    usable_train = _roi_viable(bench, train_quads)
    usable_eval = _roi_viable(bench, bench.eval_quads)
    dropped = (len(train_quads) - len(usable_train)) + (len(bench.eval_quads) - len(usable_eval))
    if dropped:
        warnings.warn(f"roi-crop: skipped {dropped} quadruples whose box covers no patch")
    train(params, train_examples(bench, usable_train), roi_train_cfg)
    report = evaluate_model(
        params, replace(bench, eval_quads=usable_eval), roi_crop=True,
        config_hash=config_hash, seed=train_cfg.seed,
    )
    return params, report
