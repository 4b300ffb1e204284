import dataclasses
import math

import numpy as np
import pytest

from focalcir.benchgen import FilterThresholds, WorldConfig, build_benchmark
from focalcir.evaluation import evaluate_model
from focalcir.fusion import FFN_MULT
from focalcir.geometry import iou, perturb_bbox
from focalcir.harness import (
    DEFAULT_SWEEP_UNITS,
    _query_rng,
    ablation_table_text,
    beta_sweep,
    caam_ablation,
    caam_param_count,
    metrics_table_text,
    robustness_eval,
    robustness_table_text,
    roi_crop_baseline,
    sqrt_dk,
)
from focalcir.model import ModelConfig, ModelParams, TrainConfig


@pytest.fixture(scope="module")
def tiny_bench():
    configs = [
        WorldConfig(subset="fashion", n_categories=2, instances_per_category=4,
                    images_per_instance=6, n_contexts=6, grid=(4, 4), d_latent=8,
                    bbox_size_range=(0.3, 0.6), reserve_instances_per_category=3,
                    reserve_images_per_instance=3),
    ]
    return build_benchmark(
        configs=configs, seed=17, d_model=16, l_text=2,
        train_cap=3, eval_cap=5, n_distractors=6,
        thresholds={"fashion": FilterThresholds(4, 0.95, 0.9, 3)},
    )


@pytest.fixture(scope="module")
def tiny_model(tiny_bench):
    cfg = ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                      n_blocks=1, crm_layers=1)
    return ModelParams(cfg, tiny_bench.encoders, seed=5, zero_modulation_head=False)


# -- beta sweep -----------------------------------------------------------------


def test_sweep_shape_and_zero_row(tiny_bench, tiny_model):
    table = beta_sweep(tiny_model, tiny_bench, units=(0.0, 1.0, 4.0))
    assert len(table.rows) == 4
    assert table.rows[-1].label == "adaptive"
    assert table.rows[-1].beta_value is None

    assert table.rows[0].beta_units == 0.0 and table.rows[0].beta_value == 0.0
    # every fixed row is a plain evaluation at that row's beta
    for row in table.rows[:-1]:
        fixed = evaluate_model(tiny_model, tiny_bench, beta_override=row.beta_value)
        assert row.metrics.to_dict() == fixed.to_dict(), row.label


def test_sweep_betas_scale_with_head_dim(tiny_model):
    scale = sqrt_dk(tiny_model.config)
    assert scale == math.sqrt(16.0)
    assert DEFAULT_SWEEP_UNITS == (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


def test_sweep_adaptive_row_matches_plain_eval(tiny_bench, tiny_model):
    table = beta_sweep(tiny_model, tiny_bench, units=(0.0,))
    plain = evaluate_model(tiny_model, tiny_bench)
    assert table.rows[-1].metrics.to_dict() == plain.to_dict()


def test_sweep_table_text(tiny_bench, tiny_model):
    table = beta_sweep(tiny_model, tiny_bench, units=(0.0, 2.0))
    text = table.to_text()
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 3
    assert lines[0].startswith("label\t")
    assert lines[-1].startswith("adaptive\tadaptive")


# -- CAAM ablation ----------------------------------------------------------------


def test_ablation_rows_and_param_counts(tiny_bench):
    base = ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                       n_blocks=1, crm_layers=1)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=5)
    rows = caam_ablation(tiny_bench, base, cfg)
    # every CRM variant in each form, variant major; the CAAM sizes the grid
    # does not vary are the base config's
    assert [r.label for r in rows] == [
        f"crm={crm} layers=1 K=2 form={form}"
        for crm in ("avg", "mlp", "transformer") for form in ("scalar", "vector")]
    assert rows[3].variant == {"crm_variant": "mlp", "crm_layers": 1, "k_probes": 2,
                               "modulation": "vector"}

    d = 16
    # avg: probes KD + cls D + head (D+1 outputs per unit)
    avg_scalar = 2 * d + d + (d + 1)
    assert rows[0].caam_param_count == avg_scalar
    # vector head emits M=2 values
    assert rows[1].caam_param_count == 2 * d + d + 2 * (d + 1)
    # mlp CRM adds w1,b1,w2,b2 with hidden width FFN_MULT*d on top
    hidden = FFN_MULT * d
    mlp_extra = d * hidden + hidden + hidden * d + d
    assert rows[2].caam_param_count == avg_scalar + mlp_extra
    for r in rows:
        r.metrics.validate()
    text = ablation_table_text(rows)
    assert text.count("\n") == len(rows) + 1


def test_ablation_param_count_matches_named_params(tiny_bench, tiny_model):
    manual = sum(t.data.size for name, t in tiny_model.named_params()
                 if name.startswith("caam."))
    assert caam_param_count(tiny_model) == manual


# -- robustness ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def robustness_rows(tiny_bench, tiny_model):
    return robustness_eval(tiny_model, tiny_bench, seed=6)


def test_robustness_identity_row_equals_unperturbed(tiny_bench, tiny_model, robustness_rows):
    identity = robustness_rows[0]
    assert identity.label == "iou=1 scale"
    assert identity.achieved_mean_iou == 1.0
    plain = evaluate_model(tiny_model, tiny_bench, seed=6)
    assert identity.metrics.to_dict() == plain.to_dict()


def test_robustness_rows_record_achieved_iou(tiny_bench, tiny_model, robustness_rows):
    rows = robustness_rows
    assert [r.label for r in rows] == [
        "iou=1 scale", "iou=0.8 scale", "iou=0.5 scale_shift", "no-bbox"]
    assert abs(rows[1].achieved_mean_iou - 0.8) < 1e-9  # scale mode is exact
    assert abs(rows[2].achieved_mean_iou - 0.5) < 0.02
    assert rows[-1].achieved_mean_iou is None

    no_bbox = evaluate_model(tiny_model, tiny_bench, use_bbox=False, seed=6)
    assert rows[-1].metrics.to_dict() == no_bbox.to_dict()
    text = robustness_table_text(rows)
    assert text.count("\n") == len(rows) + 1
    assert "no-bbox\t-" in text


def test_robustness_deterministic(tiny_bench, tiny_model, robustness_rows):
    again = robustness_eval(tiny_model, tiny_bench, seed=6)
    assert [r.achieved_mean_iou for r in again] == [r.achieved_mean_iou for r in robustness_rows]
    assert [r.metrics.to_dict() for r in again] == [
        r.metrics.to_dict() for r in robustness_rows]


def test_robustness_perturbation_preserves_target(tiny_bench, tiny_model, robustness_rows):
    # each query gets its own perturbed box, and the row's report is exactly a
    # plain evaluation of a benchmark whose quadruples carry those boxes
    row = robustness_rows[2]
    assert row.label == "iou=0.5 scale_shift"
    moved = [dataclasses.replace(q, bbox=perturb_bbox(q.bbox, "scale_shift", 0.5, _query_rng(6, q)))
             for q in tiny_bench.eval_quads]
    assert len({m.bbox for m in moved}) == len(moved)
    view = dataclasses.replace(tiny_bench, eval_quads=moved)
    assert row.metrics.to_dict() == evaluate_model(tiny_model, view, seed=6).to_dict()
    ious = [iou(q.bbox, m.bbox) for q, m in zip(tiny_bench.eval_quads, moved)]
    assert row.achieved_mean_iou == float(np.mean(ious))


# -- roi crop -----------------------------------------------------------------------


def test_roi_crop_baseline_trains_and_reports(tiny_bench):
    cfg = ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                      n_blocks=1, crm_layers=1)
    params, report = roi_crop_baseline(
        tiny_bench, cfg, TrainConfig(epochs=1, batch_size=8, seed=5)
    )
    report.validate()
    assert report.per_subset["fashion"].n_queries == len(tiny_bench.eval_quads)
    # roi training leaves the modulation head at its zero init
    named = dict(params.named_params())
    assert not named["caam.wc"].data.any()


def test_comparison_table_text(tiny_bench, tiny_model):
    report = evaluate_model(tiny_model, tiny_bench)
    text = metrics_table_text(("model",), [(("baseline",), report), (("adaptive",), report)])
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "model\tr_at_1\tr_at_5\trid_at_1"
    m = report.macro
    assert lines[1] == f"baseline\t{m.r_at_1:.4f}\t{m.r_at_5:.4f}\t{m.rid_at_1:.4f}"
