"""Experiment harnesses: β sweep, CAAM ablation, bbox robustness, ROI crop.

Every row is one plain evaluate_model call: a setting (beta_override,
roi_crop) on a benchmark or a view of it. Perturbed boxes are a view made
with dataclasses.replace on eval_quads, and the box-less robustness row is
beta_override=0.0, which encodes each query exactly as without its box.
The harnesses that train read their quadruples through
Benchmark.train_quads_of, so train.subsets holds for every trained row; the
ROI-crop model trains on the `cropped` view of each query, at beta 0, and
drops no query, since every box a benchmark holds covers a patch center
(the loader checks it). The sweep and the robustness rows run in one
`one_parameter_state` scope, which each evaluate_model joins: the rows share
each attention's merged weights and the gallery embeddings (target
embeddings do not depend on the modulation applied to queries), rows on one
view, as the sweep's are, also share its query inputs, and each robustness
view assembles its own.
Every table is written by metrics_table_text alongside the
structured per-row metrics.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from focalcir.benchgen.pipeline import Benchmark
from focalcir.benchgen.quadruples import Quadruple
from focalcir.caam import CRM_VARIANTS, OUTPUT_FORMS
from focalcir.evaluation import MetricsReport, evaluate_model, train_examples
from focalcir.fusion import one_parameter_state
from focalcir.geometry import iou, perturb_bbox
from focalcir.model import ModelConfig, ModelParams, TrainConfig, cropped, train

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
    rows: list[SweepRow] = field(default_factory=list, init=False)

    def to_text(self) -> str:
        return metrics_table_text(("label", "beta"), [
            ((r.label, "adaptive" if r.beta_value is None else f"{r.beta_value:.6g}"), r.metrics)
            for r in self.rows])


def beta_sweep(
    params: ModelParams,
    bench: Benchmark,
    units: tuple[float, ...] = DEFAULT_SWEEP_UNITS,
    config_hash: str = "",
    seed: int = 0,
) -> SweepTable:
    """Fixed-β rows over units·sqrt(d_k), then the adaptive row."""
    scale = sqrt_dk(params.config)
    table = SweepTable()
    with one_parameter_state():
        for u in units:
            report = evaluate_model(params, bench, beta_override=u * scale,
                                    config_hash=config_hash, seed=seed)
            table.rows.append(
                SweepRow(label=f"{u:g}*sqrt(dk)", beta_units=u, beta_value=u * scale,
                         metrics=report)
            )
        adaptive = evaluate_model(params, bench, config_hash=config_hash, seed=seed)
    table.rows.append(SweepRow(label="adaptive", beta_units=None, beta_value=None,
                               metrics=adaptive))
    return table


# ---------------------------------------------------------------------------
# CAAM architecture ablation


# the CAAM fields an ablation row records, in the order ablate_caam.json lists them
_VARIANT_KEYS = ("crm_variant", "crm_layers", "k_probes", "modulation")


def variant_label(config: ModelConfig) -> str:
    return (
        f"crm={config.crm_variant} layers={config.crm_layers} "
        f"K={config.k_probes} form={config.modulation}"
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
    config_hash: str = "",
) -> list[AblationRow]:
    """Trains each CRM variant in each modulation form (variant major) from
    base_config and train_cfg's seed, and evaluates it."""
    examples = train_examples(bench, bench.train_quads_of(train_cfg.subsets))
    rows = []
    for crm, form in itertools.product(CRM_VARIANTS, OUTPUT_FORMS):
        config = replace(base_config, crm_variant=crm, modulation=form)
        params = ModelParams(config, bench.encoders, seed=train_cfg.seed)
        train(params, examples, train_cfg)
        report = evaluate_model(params, bench, config_hash=config_hash, seed=train_cfg.seed)
        rows.append(
            AblationRow(
                label=variant_label(config),
                variant={key: getattr(config, key) for key in _VARIANT_KEYS},
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


# (target IoU, mode) of each perturbed robustness row, in row order
PERTURBATIONS = ((1.0, "scale"), (0.8, "scale"), (0.5, "scale_shift"))


def _query_rng(seed: int, quad: Quadruple) -> np.random.Generator:
    key = zlib.crc32(f"{quad.ref_image_id}|{quad.target_image_id}".encode())
    return np.random.default_rng(np.random.SeedSequence([seed, 303, key]))


def robustness_eval(
    params: ModelParams,
    bench: Benchmark,
    seed: int = 0,
    config_hash: str = "",
) -> list[RobustnessRow]:
    """Evaluates under PERTURBATIONS of decreasing fidelity, then box-less.

    Each row evaluates a view whose eval quadruples carry perturbed boxes;
    the achieved IoU is averaged in evaluation order (subsets sorted, then
    file order), which a stable sort on the subset gives."""
    quads = sorted(bench.eval_quads, key=lambda q: q.subset)
    rows = []
    with one_parameter_state():
        for target, mode in PERTURBATIONS:
            moved = [replace(q, bbox=perturb_bbox(q.bbox, mode, target, _query_rng(seed, q)))
                     for q in quads]
            report = evaluate_model(params, replace(bench, eval_quads=moved),
                                    config_hash=config_hash, seed=seed)
            mean_iou = float(np.mean([iou(q.bbox, m.bbox) for q, m in zip(quads, moved)]))
            rows.append(RobustnessRow(label=f"iou={target:g} {mode}", target_iou=target,
                                      mode=mode, achieved_mean_iou=mean_iou, metrics=report))
        report = evaluate_model(params, bench, beta_override=0.0,
                                config_hash=config_hash, seed=seed)
    rows.append(RobustnessRow(label="no-bbox", target_iou=None, mode=None,
                              achieved_mean_iou=None, metrics=report))
    return rows


def robustness_table_text(rows: list[RobustnessRow]) -> str:
    return metrics_table_text(("row", "achieved_iou"), [
        ((r.label, "-" if r.achieved_mean_iou is None else f"{r.achieved_mean_iou:.4f}"), r.metrics)
        for r in rows])


# ---------------------------------------------------------------------------
# ROI-crop baseline


def roi_crop_baseline(
    bench: Benchmark,
    config: ModelConfig,
    train_cfg: TrainConfig,
    config_hash: str = "",
) -> tuple[ModelParams, MetricsReport]:
    """Trains the crop-to-box variant (no mask, no modulation) on the cropped
    train quadruples of train.subsets and evaluates it on every eval
    quadruple; the loader has checked that each box covers a patch."""
    params = ModelParams(config, bench.encoders, seed=train_cfg.seed)
    examples = [replace(ex, query=cropped(ex.query))
                for ex in train_examples(bench, bench.train_quads_of(train_cfg.subsets))]
    train(params, examples, replace(train_cfg, fixed_beta=0.0))
    report = evaluate_model(params, bench, roi_crop=True,
                            config_hash=config_hash, seed=train_cfg.seed)
    return params, report
