import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest

from focalcir.benchgen import FilterThresholds, WorldConfig, build_benchmark
from focalcir.errors import ContractError, DataError
from focalcir.evaluation import (
    EVAL_CHUNK,
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
from focalcir import evaluation
from focalcir.harness import beta_sweep
from focalcir.model import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    cropped,
    load_checkpoint,
    query_representation,
    save_checkpoint,
    train,
)
from focalcir.records import from_record

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
    rng = np.random.default_rng(2)
    for positives in (None, np.ones((1, 4), dtype=bool)):
        with pytest.raises(ContractError):
            rank_gallery(np.ones(3) / np.sqrt(3), np.zeros((0, 3)), positives)
        with pytest.raises(ContractError):
            rank_gallery(np.ones(3), unit_rows(rng, 4, 3), positives)
        with pytest.raises(ContractError):
            rank_gallery(np.ones(3) / np.sqrt(3), 2.0 * unit_rows(rng, 4, 3), positives)
        with pytest.raises(ContractError):
            rank_gallery(np.array([np.nan, 0.0, 1.0]), unit_rows(rng, 4, 3), positives)
    good = unit_rows(rng, 2, 3)
    with pytest.raises(ContractError):  # a batch row that is not unit
        rank_gallery(np.stack([good[0], 2.0 * good[1]]), unit_rows(rng, 4, 3),
                     np.ones((2, 4), dtype=bool))
    with pytest.raises(ContractError):  # a query with no positive
        rank_gallery(good, unit_rows(rng, 4, 3), np.array([[True, False, False, False],
                                                           [False] * 4]))


# -- counted ranks of positives ----------------------------------------------------


def exact_unit_rows(rng, n, d):
    """Unit rows (to 1e-7) on a 2**-24 grid: every dot product of two of them is
    exact, so the oracle's gallery @ q and the ranker's GEMM agree bit for bit."""
    return np.round(unit_rows(rng, n, d) * 2.0**24) / 2.0**24


def oracle_best_rank(gallery, q, positive):
    """1-based position of the first positive in the stable descending sort."""
    order = np.argsort(-(gallery @ q), kind="stable")
    return int(np.flatnonzero(positive[order])[0]) + 1


def assert_ranks_match_oracle(queries, gallery, positives):
    got = rank_gallery(queries, gallery, positives)
    want = [oracle_best_rank(gallery, q, pos) for q, pos in zip(queries, positives)]
    assert got.tolist() == want


def test_counted_ranks_match_argsort_oracle_on_random_galleries():
    rng = np.random.default_rng(21)
    for _ in range(40):
        b, g, d = int(rng.integers(1, 7)), int(rng.integers(1, 30)), int(rng.integers(2, 8))
        gallery, queries = exact_unit_rows(rng, g, d), exact_unit_rows(rng, b, d)
        positives = rng.random((b, g)) < 0.2
        positives[np.arange(b), rng.integers(0, g, size=b)] = True
        assert_ranks_match_oracle(queries, gallery, positives)


def test_counted_ranks_break_planted_ties_by_index():
    rng = np.random.default_rng(22)
    base = exact_unit_rows(rng, 6, 5)
    twin = base[2]
    # rows 1, 3 and 5 are exact copies of row 2's vector: four-way ties
    gallery = np.stack([base[0], twin, base[1], twin, base[3], twin, base[4]])
    queries = np.stack([twin, twin, twin, base[5], twin])
    for j in range(len(gallery)):  # the positive before, between and after its twins
        positives = np.zeros((len(queries), len(gallery)), dtype=bool)
        positives[:, j] = True
        assert_ranks_match_oracle(queries, gallery, positives)
    # each twin alone, as a (3, 1, G) stack for one query
    got = rank_gallery(twin, gallery, np.eye(len(gallery), dtype=bool)[[1, 3, 5], None])
    assert got.ravel().tolist() == [1, 2, 3]  # the tied twins rank by ascending index
    # a weaker positive first, then the last twin: its two tied elders rank above it
    positives = np.zeros((len(queries), len(gallery)), dtype=bool)
    positives[:, [0, 5]] = True
    assert_ranks_match_oracle(queries, gallery, positives)
    assert rank_gallery(twin, gallery, positives[:1]).tolist() == [3]


def test_counted_rank_of_several_positives_is_the_best_one():
    rng = np.random.default_rng(23)
    gallery, queries = exact_unit_rows(rng, 25, 6), exact_unit_rows(rng, 4, 6)
    positives = np.zeros((4, 25), dtype=bool)
    positives[:, [3, 11, 17, 24]] = True
    got = rank_gallery(queries, gallery, positives)
    singles = rank_gallery(queries, gallery, np.stack([np.eye(25, dtype=bool)[[j] * 4]
                                                       for j in (3, 11, 17, 24)]))
    assert got.tolist() == singles.min(axis=0).tolist()
    assert_ranks_match_oracle(queries, gallery, positives)


def test_counted_ranks_at_first_and_last_index_and_stacked():
    rng = np.random.default_rng(24)
    gallery, queries = exact_unit_rows(rng, 17, 4), exact_unit_rows(rng, 3, 4)
    first = np.zeros((3, 17), dtype=bool)
    first[:, 0] = True
    last = np.zeros((3, 17), dtype=bool)
    last[:, -1] = True
    assert_ranks_match_oracle(queries, gallery, first)
    assert_ranks_match_oracle(queries, gallery, last)
    stacked = rank_gallery(queries, gallery, np.stack([first, last]))
    assert stacked.shape == (2, 3)
    assert stacked[0].tolist() == rank_gallery(queries, gallery, first).tolist()
    assert stacked[1].tolist() == rank_gallery(queries, gallery, last).tolist()


def test_counted_ranks_for_a_batch_of_one():
    rng = np.random.default_rng(25)
    gallery, q = exact_unit_rows(rng, 9, 5), exact_unit_rows(rng, 1, 5)
    positive = np.zeros((1, 9), dtype=bool)
    positive[0, 4] = True
    assert_ranks_match_oracle(q, gallery, positive)
    # a 1-D query is a batch of one
    assert rank_gallery(q[0], gallery, positive).tolist() == rank_gallery(q, gallery, positive).tolist()
    # and its full order puts each candidate at its counted rank
    order = rank_gallery(q[0], gallery)
    assert order == np.argsort(-(gallery @ q[0]), kind="stable").tolist()


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
    # counted ranks of the whole batch give the same ranks and recalls
    gallery = np.array([e["embedding"] for e in fixture["gallery"]])
    ids = np.array([e["image_id"] for e in fixture["gallery"]])
    insts = np.array([e["instance_id"] for e in fixture["gallery"]])
    queries = fixture["queries"]
    target_ranks, instance_ranks = rank_gallery(
        np.array([q["embedding"] for q in queries]), gallery,
        np.stack([
            np.array([q["target_image_id"] for q in queries])[:, None] == ids,
            np.array([q["instance_id"] for q in queries])[:, None] == insts,
        ]),
    )
    assert target_ranks.tolist() == [q["expected_target_rank"] for q in queries]
    assert np.mean(target_ranks <= 1) == want["r_at_1"]
    assert np.mean(target_ranks <= 5) == want["r_at_5"]
    assert np.mean(instance_ranks <= 1) == want["rid_at_1"]
    assert np.mean(instance_ranks <= 5) == want["rid_at_5"]
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
    again = from_record(MetricsReport, report.to_dict(), DataError, complete=True)
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


def tiny_model_config():
    return ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                       n_blocks=1, crm_layers=1)


@pytest.fixture(scope="module")
def tiny_model(tiny_bench):
    return ModelParams(tiny_model_config(), tiny_bench.encoders, seed=5,
                       zero_modulation_head=False)


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


def test_no_bbox_matches_none_transform(tiny_bench, tiny_model, monkeypatch):
    # use_bbox=False encodes each query as its sample with the box dropped,
    # and roi_crop as its cropped view
    seen = []

    def spy(samples, params, beta_override=None):
        seen.extend(samples)
        return query_representation(samples, params, beta_override)

    monkeypatch.setattr(evaluation, "query_representation", spy)
    samples = [query_sample_of(tiny_bench, q) for q in tiny_bench.eval_quads_of("fashion")]
    for setting, want in (({"use_bbox": False}, samples),
                          ({"roi_crop": True}, [cropped(s) for s in samples])):
        seen.clear()
        evaluate_model(tiny_model, tiny_bench, **setting)
        assert len(seen) == len(want) and all(s.bbox is None for s in seen), setting
        for got, w in zip(seen, want):
            assert np.array_equal(got.patches, w.patches), setting


def ranked_rows(params, bench, monkeypatch, **setting):
    """Every query-row and gallery matrix evaluate_model ranks, in order, with
    the (2, B) target and instance ranks it got for them."""
    seen = []

    def spy(f_q, gallery, positives=None):
        ranks = rank_gallery(f_q, gallery, positives)
        seen.append((f_q.copy(), gallery.copy(), ranks))
        return ranks

    with monkeypatch.context() as patch:
        patch.setattr(evaluation, "rank_gallery", spy)
        report = evaluate_model(params, bench, **setting)
    return report, seen


def ranks_by_quadruple(params, bench, monkeypatch):
    """Each eval quadruple's [target rank, instance rank]."""
    _, seen = ranked_rows(params, bench, monkeypatch)
    quads = [q for s in bench.subsets for q in bench.eval_quads_of(s)]
    ranks = np.concatenate([r for _, _, r in seen], axis=1).T.tolist()
    assert len(ranks) == len(quads)
    return dict(zip(quads, ranks))


def test_a_trained_model_evaluates_as_its_checkpoint_does(tiny_bench, tmp_path, monkeypatch):
    # merged attention products built before an optimizer step must not
    # reach an evaluation after it; a loaded checkpoint has fresh objects
    params = ModelParams(tiny_model_config(), tiny_bench.encoders, seed=5,
                         zero_modulation_head=False)
    evaluate_model(params, tiny_bench)  # an evaluation before training, too
    train(params, train_examples(tiny_bench, tiny_bench.train_quads),
          TrainConfig(epochs=1, batch_size=8, seed=3))
    save_checkpoint(tmp_path / "trained.bin", params)
    loaded, _ = load_checkpoint(tmp_path / "trained.bin")
    trained_report, trained = ranked_rows(params, tiny_bench, monkeypatch)
    loaded_report, reloaded = ranked_rows(loaded, tiny_bench, monkeypatch)
    assert trained_report == loaded_report and len(trained) == len(reloaded) > 0
    for (q, gal, _), (q2, gal2, _) in zip(trained, reloaded):
        assert np.array_equal(q, q2) and np.array_equal(gal, gal2)


@pytest.mark.parametrize("chunk", [2, EVAL_CHUNK])
def test_ranks_do_not_depend_on_the_query_order(tiny_bench, tiny_model, monkeypatch, chunk):
    # a metamorphic relation: shuffled eval quadruples, moved across chunk
    # boundaries too, each keep their integer target and instance ranks
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", chunk)
    shuffled = list(tiny_bench.eval_quads)
    random.Random(0).shuffle(shuffled)
    assert shuffled != tiny_bench.eval_quads
    moved = dataclasses.replace(tiny_bench, eval_quads=shuffled)
    assert (ranks_by_quadruple(tiny_model, moved, monkeypatch)
            == ranks_by_quadruple(tiny_model, tiny_bench, monkeypatch))


def test_a_boxless_query_ranks_as_a_beta_zero_query(tiny_bench, tiny_model, monkeypatch):
    # a metamorphic relation: neither setting builds a logit bias, so they
    # give equal reports and every query the same ranks
    no_box, no_box_rows = ranked_rows(tiny_model, tiny_bench, monkeypatch, use_bbox=False)
    zero, zero_rows = ranked_rows(tiny_model, tiny_bench, monkeypatch, beta_override=0.0)
    assert no_box.to_dict() == zero.to_dict()
    assert len(no_box_rows) == len(zero_rows) > 0
    for (_, _, a), (_, _, b) in zip(no_box_rows, zero_rows):
        assert np.array_equal(a, b)


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


def _with_fashion_gallery(bench, pick):
    """bench with its fashion gallery's entries replaced by pick(entries)."""
    manifest = bench.galleries["fashion"]
    return dataclasses.replace(bench, galleries={
        "fashion": dataclasses.replace(manifest, entries=pick(manifest.entries))})


@pytest.mark.parametrize("call, named", [
    (lambda b, p: evaluate_model(p, dataclasses.replace(b, eval_quads=[])),
     "subset fashion has no eval quadruples"),
    (lambda b, p: evaluate_model(p, _with_fashion_gallery(b, lambda es: es[:4])),
     "R@5 needs 5 gallery images, subset fashion has 4"),
    (lambda b, p: evaluate_model(p, _with_fashion_gallery(
        b, lambda es: [e for e in es if e.image_id != b.eval_quads[0].target_image_id])),
     "are not in the fashion gallery"),
    (lambda b, p: rank_gallery(np.eye(4)[0], np.eye(3)), "query dim 4 vs gallery dim 3"),
    (lambda b, p: rank_gallery(np.eye(3)[:2], np.eye(3), np.ones((2, 4), dtype=bool)),
     "positives of shape (2, 4) for (2, 3) similarities"),
    (lambda b, p: rank_gallery(np.eye(3)[:2], np.eye(3)), "a full order needs one query, got 2"),
], ids=["no-eval-quadruples", "small-gallery", "target-not-in-gallery", "query-dim",
        "positives-shape", "full-order-of-two"])
def test_bad_evaluation_inputs_raise_naming_them(tiny_bench, tiny_model, call, named):
    with pytest.raises(ContractError) as info:
        call(tiny_bench, tiny_model)
    assert named in str(info.value)


def reference_report(params, bench, beta_override):
    """Per-query ranks by the stable-argsort rule over query_representation
    rows, reduced to the three recalls evaluate_model reports."""
    per_subset = {}
    for subset in bench.subsets:
        quads = bench.eval_quads_of(subset)
        gal = gallery_embeddings(params, bench, subset)
        ids = bench.galleries[subset].image_ids
        insts = [e.instance_id for e in bench.galleries[subset].entries]
        target_hits, target_top5, instance_hits = 0, 0, 0
        for at in range(0, len(quads), EVAL_CHUNK):
            chunk = quads[at : at + EVAL_CHUNK]
            rows, _ = query_representation(
                [query_sample_of(bench, q) for q in chunk], params,
                beta_override=beta_override,
            )
            for quad, row in zip(chunk, rows.data):
                order = np.argsort(-(gal @ row), kind="stable")
                rank = [ids[i] for i in order].index(quad.target_image_id) + 1
                target_hits += rank <= 1
                target_top5 += rank <= 5
                instance_hits += insts[order[0]] == quad.instance_id
        n = len(quads)
        per_subset[subset] = SubsetMetrics(target_hits / n, target_top5 / n,
                                           instance_hits / n, n)
    return per_subset


def test_reports_equal_per_query_argsort_reference():
    # two subsets on different grids, and a briefly trained live head, so
    # targets, hard negatives and misses all occur
    subsets = (("fashion", (4, 4)), ("car", (3, 4)))
    bench = build_benchmark(
        configs=[WorldConfig(subset=s, n_categories=2, instances_per_category=5,
                             images_per_instance=6, n_contexts=6, grid=grid, d_latent=8,
                             bbox_size_range=(0.4, 0.7), reserve_instances_per_category=3,
                             reserve_images_per_instance=3) for s, grid in subsets],
        seed=17, d_model=16, l_text=2, train_cap=4, eval_cap=8, n_distractors=6,
        thresholds={s: FilterThresholds(4, 0.95, 0.9, 3) for s, _ in subsets},
    )
    cfg = ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                      n_blocks=1, crm_layers=1)
    params = ModelParams(cfg, bench.encoders, seed=5, zero_modulation_head=False)
    train(params, train_examples(bench, bench.train_quads),
          TrainConfig(epochs=3, batch_size=8, seed=3))
    live = evaluate_model(params, bench)
    assert live.per_subset == reference_report(params, bench, None)
    assert 0.0 < live.macro.r_at_1 < live.macro.rid_at_1 < 1.0
    table = beta_sweep(params, bench, units=(0.0, 1.0, 4.0))
    assert len(table.rows) == 4
    for row in table.rows:
        assert row.metrics.per_subset == reference_report(params, bench, row.beta_value)
