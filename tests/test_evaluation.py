import json
from pathlib import Path

import numpy as np
import pytest

from focalcir.benchgen import FilterThresholds, WorldConfig, build_benchmark
from focalcir.errors import ContractError
from focalcir.evaluation import (
    MetricsReport,
    RankingResult,
    SubsetMetrics,
    evaluate_model,
    gallery_embeddings,
    instance_recall_at_k,
    query_sample_of,
    rank_gallery,
    recall_at_k,
    train_examples,
)
from focalcir.model import ModelConfig, ModelParams

FIXTURE = Path(__file__).parent / "fixtures" / "metric_fixture.json"


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# -- rank_gallery --------------------------------------------------------------


def test_rank_copy_first():
    rng = np.random.default_rng(0)
    q = unit_rows(rng, 1, 6)[0]
    other = unit_rows(rng, 1, 6)[0]
    other -= (other @ q) * q
    other /= np.linalg.norm(other)
    assert rank_gallery(q, np.stack([other, q])) == [1, 0]


def test_rank_identical_gallery_is_identity_permutation():
    q = np.zeros(4)
    q[0] = 1.0
    gallery = np.tile(q, (5, 1))
    assert rank_gallery(q, gallery) == [0, 1, 2, 3, 4]


def test_rank_matches_sort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = int(rng.integers(2, 20))
        d = int(rng.integers(2, 8))
        gallery = unit_rows(rng, g, d)
        q = unit_rows(rng, 1, d)[0]
        sims = gallery @ q
        oracle = sorted(range(g), key=lambda i: (-sims[i], i))
        assert rank_gallery(q, gallery) == oracle


def test_rank_rejects_empty_and_non_unit():
    with pytest.raises(ContractError):
        rank_gallery(np.ones(3) / np.sqrt(3), np.zeros((0, 3)))
    with pytest.raises(ContractError):
        rank_gallery(np.ones(3), unit_rows(np.random.default_rng(2), 4, 3))
    with pytest.raises(ContractError):
        rank_gallery(np.ones(3) / np.sqrt(3), 2.0 * unit_rows(np.random.default_rng(3), 4, 3))
    with pytest.raises(ContractError):
        rank_gallery(np.array([np.nan, 0.0, 1.0]), unit_rows(np.random.default_rng(5), 3, 3))


def test_rank_is_a_permutation():
    rng = np.random.default_rng(4)
    gallery = unit_rows(rng, 12, 5)
    order = rank_gallery(unit_rows(rng, 1, 5)[0], gallery)
    assert sorted(order) == list(range(12))


# -- recalls --------------------------------------------------------------------


def make_results(fixture):
    gallery = np.array([e["embedding"] for e in fixture["gallery"]])
    ids = [e["image_id"] for e in fixture["gallery"]]
    insts = [e["instance_id"] for e in fixture["gallery"]]
    out = []
    for q in fixture["queries"]:
        order = rank_gallery(np.array(q["embedding"]), gallery)
        out.append(
            RankingResult(
                order=order, instance_id=q["instance_id"],
                target_image_id=q["target_image_id"],
                gallery_image_ids=ids, gallery_instance_ids=insts,
            )
        )
    return out


def test_committed_fixture_matches_hand_enumeration():
    fixture = json.loads(FIXTURE.read_text())
    results = make_results(fixture)
    for r, q in zip(results, fixture["queries"]):
        assert r.target_rank() == q["expected_target_rank"]
    want = fixture["expected"]
    assert recall_at_k(results, 1) == want["r_at_1"]
    assert recall_at_k(results, 5) == want["r_at_5"]
    assert instance_recall_at_k(results, 1) == want["rid_at_1"]
    assert instance_recall_at_k(results, 5) == want["rid_at_5"]
    assert recall_at_k(results, 1) <= instance_recall_at_k(results, 1)
    assert recall_at_k(results, 1) <= recall_at_k(results, 5)


def test_same_instance_distractor_counts_for_instance_recall_only():
    fixture = json.loads(FIXTURE.read_text())
    results = make_results(fixture)
    q4 = results[3]  # top-1 is g/i00, same instance as target g/i02
    top1 = q4.order[0]
    assert q4.gallery_image_ids[top1] != q4.target_image_id
    assert q4.gallery_instance_ids[top1] == q4.instance_id
    assert recall_at_k([q4], 1) == 0.0
    assert instance_recall_at_k([q4], 1) == 1.0


def test_recall_rejects_oversized_k_and_empty_results():
    fixture = json.loads(FIXTURE.read_text())
    results = make_results(fixture)
    with pytest.raises(ContractError):
        recall_at_k(results, 9)
    with pytest.raises(ContractError):
        instance_recall_at_k(results, 9)
    with pytest.raises(ContractError):
        recall_at_k([], 1)


# -- MetricsReport ----------------------------------------------------------------


def test_metrics_report_validation():
    good = SubsetMetrics(r_at_1=0.3, r_at_5=0.6, rid_at_1=0.5, n_queries=10)
    good.validate()
    with pytest.raises(ContractError):
        SubsetMetrics(r_at_1=0.7, r_at_5=0.6, rid_at_1=0.8, n_queries=10).validate()
    with pytest.raises(ContractError):
        SubsetMetrics(r_at_1=0.7, r_at_5=0.8, rid_at_1=0.6, n_queries=10).validate()
    with pytest.raises(ContractError):
        SubsetMetrics(r_at_1=1.7, r_at_5=1.8, rid_at_1=1.9, n_queries=10).validate()


def test_metrics_report_round_trip_and_text():
    report = MetricsReport(
        per_subset={
            "fashion": SubsetMetrics(0.2, 0.5, 0.4, 10),
            "car": SubsetMetrics(0.4, 0.7, 0.6, 20),
        },
        macro=SubsetMetrics(0.3, 0.6, 0.5, 30),
        config_hash="abc", seed=3,
    )
    report.validate()
    again = MetricsReport.from_dict(report.to_dict())
    assert again.to_dict() == report.to_dict()
    text = report.to_text()
    assert "subset car" in text and "macro:" in text and "abc" in text


# -- evaluate_model ----------------------------------------------------------------


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


def test_evaluate_model_report_shape(tiny_bench, tiny_model):
    report = evaluate_model(tiny_model, tiny_bench, config_hash="h", seed=17)
    assert set(report.per_subset) == {"fashion"}
    m = report.per_subset["fashion"]
    assert m.n_queries == len(tiny_bench.eval_quads)
    report.validate()
    assert report.macro.r_at_1 == m.r_at_1


def test_gallery_cache_reuse(tiny_bench, tiny_model):
    cache: dict[str, np.ndarray] = {}
    first = evaluate_model(tiny_model, tiny_bench, gallery_cache=cache)
    assert "fashion" in cache
    second = evaluate_model(tiny_model, tiny_bench, gallery_cache=cache)
    assert first.to_dict() == second.to_dict()
    direct = gallery_embeddings(tiny_model, tiny_bench, "fashion")
    assert np.array_equal(cache["fashion"], direct)


def test_beta_override_zero_equals_zero_head_adaptive(tiny_bench):
    cfg = ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                      n_blocks=1, crm_layers=1)
    zero_head = ModelParams(cfg, tiny_bench.encoders, seed=5, zero_modulation_head=True)
    adaptive = evaluate_model(zero_head, tiny_bench)
    forced = evaluate_model(zero_head, tiny_bench, beta_override=0.0)
    assert adaptive.to_dict() == forced.to_dict()


def test_no_bbox_matches_none_transform(tiny_bench, tiny_model):
    without = evaluate_model(tiny_model, tiny_bench, use_bbox=False)
    dropped = evaluate_model(tiny_model, tiny_bench, bbox_transform=lambda q, i: None)
    assert without.to_dict() == dropped.to_dict()


def test_roi_crop_path_runs(tiny_bench, tiny_model):
    report = evaluate_model(tiny_model, tiny_bench, roi_crop=True)
    report.validate()


def test_evaluation_deterministic(tiny_bench, tiny_model):
    a = evaluate_model(tiny_model, tiny_bench)
    b = evaluate_model(tiny_model, tiny_bench)
    assert a.to_dict() == b.to_dict()


def test_resolution_helpers(tiny_bench):
    quad = tiny_bench.eval_quads[0]
    sample = query_sample_of(tiny_bench, quad)
    grid = tiny_bench.world.configs["fashion"].grid
    assert sample.patches.shape == (grid[0] * grid[1], 16)
    assert sample.bbox == tiny_bench.image(quad.ref_image_id).bbox
    assert sample.text.tokens.shape == (2, 16)
    examples = train_examples(tiny_bench, tiny_bench.train_quads[:4])
    assert len(examples) == 4
    assert examples[0].target_patches.shape == (grid[0] * grid[1], 16)


def test_unknown_subset_rejected(tiny_bench, tiny_model):
    with pytest.raises(ContractError):
        evaluate_model(tiny_model, tiny_bench, subsets=["car"])
