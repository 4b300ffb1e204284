import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalcir.benchgen import FilterThresholds, WorldConfig, build_benchmark
from focalcir.benchgen.gallery import GalleryManifest
from focalcir.benchgen.pipeline import Benchmark
from focalcir.errors import ContractError, DataError
from focalcir.evaluation import (
    EVAL_CHUNK,
    MetricsReport,
    RankingResult,
    SubsetMetrics,
    evaluate_model,
    evaluate_queries,
    gallery_embeddings,
    instance_recall_at_k,
    query_sample_of,
    rank_gallery,
    recall_at_k,
    train_examples,
)
from focalcir import evaluation
from focalcir.fusion import one_parameter_state
from focalcir.harness import beta_sweep
from focalcir.model import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    assemble_queries,
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


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_counted_ranks_match_the_oracle_on_galleries_with_exact_ties(data):
    # duplicated gallery rows tie exactly for every query; each query has one
    # exact target and several instance positives, ranked as one stack
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d, n_distinct = data.draw(st.integers(2, 6)), data.draw(st.integers(1, 6))
    distinct = exact_unit_rows(rng, n_distinct, d)
    rows = data.draw(st.lists(st.integers(0, n_distinct - 1), min_size=1, max_size=20))
    gallery, g = distinct[rows], len(rows)
    b = data.draw(st.integers(1, 5))
    # a query is a gallery row (so its best similarity is 1 and tied by its
    # twins) or a fresh direction
    queries = np.stack([gallery[data.draw(st.integers(0, g - 1))] if data.draw(st.booleans())
                        else exact_unit_rows(rng, 1, d)[0] for _ in range(b)])
    target = np.zeros((b, g), dtype=bool)
    target[np.arange(b), [data.draw(st.integers(0, g - 1)) for _ in range(b)]] = True
    instance = target | np.array([[data.draw(st.booleans()) for _ in range(g)]
                                  for _ in range(b)])
    got = rank_gallery(queries, gallery, np.stack([target, instance]))
    assert got.tolist() == [[oracle_best_rank(gallery, q, pos) for q, pos in zip(queries, kind)]
                            for kind in (target, instance)]


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
    # a report's reader checks each entry by SubsetMetrics' ranges and rules
    def check(m: SubsetMetrics) -> None:
        from_record(SubsetMetrics, dataclasses.asdict(m), ContractError)

    check(SubsetMetrics(r_at_1=0.3, r_at_5=0.6, rid_at_1=0.5, n_queries=10))
    with pytest.raises(ContractError, match="r_at_1 0.7 exceeds r_at_5 0.6"):
        check(SubsetMetrics(r_at_1=0.7, r_at_5=0.6, rid_at_1=0.8, n_queries=10))
    with pytest.raises(ContractError, match="r_at_1 0.7 exceeds rid_at_1 0.6"):
        check(SubsetMetrics(r_at_1=0.7, r_at_5=0.8, rid_at_1=0.6, n_queries=10))
    with pytest.raises(ContractError, match="'r_at_1' must be >= 0.0 and <= 1.0, got 1.7"):
        check(SubsetMetrics(r_at_1=1.7, r_at_5=1.8, rid_at_1=1.9, n_queries=10))


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


def test_one_scope_builds_a_views_gallery_and_query_chunks_once(tiny_bench, tiny_model,
                                                               monkeypatch):
    calls = {"gallery_embeddings": 0, "assemble_queries": 0}
    for name in calls:
        def spy(*args, _real=getattr(evaluation, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(evaluation, name, spy)
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", 2)
    n_chunks = -(-len(tiny_bench.eval_quads) // 2)
    targets = {q.target_image_id for q in tiny_bench.eval_quads}
    filtered = dataclasses.replace(tiny_bench, galleries={"fashion": GalleryManifest(
        [e for i, e in enumerate(tiny_bench.galleries["fashion"].entries)
         if e.image_id in targets or i % 2])})

    def built_by(*args):
        """The report of one call and the builds it made."""
        before = dict(calls)
        report = evaluate_model(tiny_model, *args)
        return report, (calls["gallery_embeddings"] - before["gallery_embeddings"],
                        calls["assemble_queries"] - before["assemble_queries"])

    lone, _ = built_by(tiny_bench)
    with one_parameter_state():
        assert built_by(tiny_bench) == (lone, (1, n_chunks))
        assert built_by(tiny_bench) == (lone, (0, 0))  # the same view: nothing built
        assert built_by(filtered)[1] == (1, n_chunks)  # its own gallery and chunks
    assert built_by(tiny_bench) == (lone, (1, n_chunks))  # a closed scope keeps nothing


def test_beta_override_zero_equals_zero_head_adaptive(tiny_bench):
    cfg = ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                      n_blocks=1, crm_layers=1)
    zero_head = ModelParams(cfg, tiny_bench.encoders, seed=5, zero_modulation_head=True)
    adaptive = evaluate_model(zero_head, tiny_bench)
    forced = evaluate_model(zero_head, tiny_bench, beta_override=0.0)
    assert adaptive.to_dict() == forced.to_dict()


def test_no_bbox_matches_none_transform(tiny_bench, tiny_model, monkeypatch):
    # roi_crop encodes each query as its cropped view: its in-box patches
    # and no box
    seen = []

    def spy(batch, params, beta_override=None):
        seen.append(batch)
        return query_representation(batch, params, beta_override)

    monkeypatch.setattr(evaluation, "query_representation", spy)
    samples = [query_sample_of(tiny_bench, q) for q in tiny_bench.eval_quads_of("fashion")]
    want = assemble_queries([cropped(s) for s in samples])
    evaluate_model(tiny_model, tiny_bench, roi_crop=True)
    assert len(seen) == 1 and seen[0].mask_rows is None and not any(seen[0].boxed)
    assert np.array_equal(seen[0].patches, want.patches)
    assert np.array_equal(seen[0].key_mask, want.key_mask)
    assert 0 < want.patches.shape[1] < len(samples[0].patches)


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


def ranks_by_quadruple(params, bench):
    """Each eval quadruple's (target rank, instance rank)."""
    return {q: (int(o.target_ranks[i]), int(o.instance_ranks[i]))
            for s, o in evaluate_queries(params, bench).items()
            for i, q in enumerate(bench.eval_quads_of(s))}


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


def _fresh(view: Benchmark) -> Benchmark:
    """A benchmark built anew from a view's records: no cache or memo of any kind."""
    return Benchmark(**{f.name: getattr(view, f.name) for f in dataclasses.fields(Benchmark)
                        if f.init and not f.name.startswith("_")})


@pytest.mark.parametrize("chunk", [2, EVAL_CHUNK])
def test_a_view_evaluated_after_its_parent_ranks_as_a_fresh_benchmark(tiny_bench, tiny_model,
                                                                      monkeypatch, chunk):
    # in one open scope, evaluate_model keeps a view's assembled inputs
    # with the view as owner; a dataclasses.replace view must not read its
    # parent's, nor a fresh benchmark a view's
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", chunk)
    shuffled = list(tiny_bench.eval_quads)
    random.Random(1).shuffle(shuffled)
    targets = {q.target_image_id for q in tiny_bench.eval_quads}
    entries = tiny_bench.galleries["fashion"].entries
    views = {
        "moved boxes": lambda b: dataclasses.replace(b, eval_quads=[
            dataclasses.replace(q, bbox=(0.0, 0.0, 1.0, 1.0)) for q in b.eval_quads]),
        "permuted queries": lambda b: dataclasses.replace(b, eval_quads=shuffled),
        "filtered gallery": lambda b: dataclasses.replace(b, galleries={"fashion": GalleryManifest(
            [e for i, e in enumerate(entries) if e.image_id in targets or i % 2])}),
    }

    def seen(rows):
        """The ranked query rows and their ranks, as comparable values."""
        return (np.concatenate([q for q, _, _ in rows]).tobytes(),
                np.concatenate([r for _, _, r in rows], axis=1).tolist())

    with one_parameter_state():
        # the parent is evaluated first, so its inputs are kept before any view exists
        _, parent = ranked_rows(tiny_model, tiny_bench, monkeypatch, beta_override=4.0)
        for name, make in views.items():
            view = make(tiny_bench)
            report, rows = ranked_rows(tiny_model, view, monkeypatch, beta_override=4.0)
            fresh_report, fresh = ranked_rows(tiny_model, _fresh(view), monkeypatch,
                                              beta_override=4.0)
            assert report == fresh_report and seen(rows) == seen(fresh), name
            assert seen(rows) != seen(parent), name  # the view does rank otherwise


@pytest.mark.parametrize("chunk", [2, EVAL_CHUNK])
def test_ranks_do_not_depend_on_the_query_order(tiny_bench, tiny_model, monkeypatch, chunk):
    # a metamorphic relation: shuffled eval quadruples, moved across chunk
    # boundaries too, each keep their integer target and instance ranks
    monkeypatch.setattr(evaluation, "EVAL_CHUNK", chunk)
    shuffled = list(tiny_bench.eval_quads)
    random.Random(0).shuffle(shuffled)
    assert shuffled != tiny_bench.eval_quads
    moved = dataclasses.replace(tiny_bench, eval_quads=shuffled)
    assert ranks_by_quadruple(tiny_model, moved) == ranks_by_quadruple(tiny_model, tiny_bench)


def test_outcomes_hold_each_querys_ranks_and_applied_modulation(tiny_bench, tiny_model):
    n = len(tiny_bench.eval_quads_of("fashion"))
    live = evaluate_queries(tiny_model, tiny_bench)["fashion"]
    assert live.target_ranks.shape == live.instance_ranks.shape == (n,)
    # the target shows the anchored instance, so an instance ranks no lower
    assert np.all(live.instance_ranks <= live.target_ranks)
    assert live.applied.shape == (n, 1, 1) and np.all(live.applied != 0.0)
    assert not evaluate_queries(tiny_model, tiny_bench, roi_crop=True)["fashion"].applied.any()
    fixed = evaluate_queries(tiny_model, tiny_bench, beta_override=2.5)["fashion"].applied
    assert fixed.shape == (n, 1, 1) and np.all(fixed == 2.5)
    vector = ModelParams(dataclasses.replace(tiny_model_config(), modulation="vector"),
                         tiny_bench.encoders, seed=5, zero_modulation_head=False)
    m = vector.config.m_queries
    assert evaluate_queries(vector, tiny_bench)["fashion"].applied.shape == (n, 1, m)
    assert np.all(evaluate_queries(vector, tiny_bench, beta_override=2.5)["fashion"].applied
                  == np.full((n, 1, m), 2.5))


def test_a_permuted_gallery_moves_a_rank_only_at_an_exact_tie(tiny_bench, tiny_model,
                                                              monkeypatch):
    # a metamorphic relation: rank_gallery breaks exact ties by ascending
    # gallery index, so a permuted gallery may move a query's target or
    # instance rank only where its best positive ties exactly with a
    # candidate that is no positive. The live model ties nowhere, so no rank
    # may move; a model whose target head ignores its input ties every
    # candidate, so the relation is exercised where it allows a move too
    manifest = tiny_bench.galleries["fashion"]
    order = np.random.default_rng(0).permutation(len(manifest.entries))
    shuffled = dataclasses.replace(tiny_bench, galleries={
        "fashion": GalleryManifest([manifest.entries[i] for i in order])})
    quads = tiny_bench.eval_quads_of("fashion")
    instances = np.array([e.instance_id for e in manifest.entries])
    positives = np.stack([  # (2, Q, G): the exact target, then the instance
        np.array([q.target_image_id for q in quads])[:, None] == np.array(manifest.image_ids),
        np.array([q.instance_id for q in quads])[:, None] == instances,
    ])
    collapsed = ModelParams(tiny_model_config(), tiny_bench.encoders, seed=5,
                            zero_modulation_head=False)
    collapsed.w_target.data = np.zeros_like(collapsed.w_target.data)
    collapsed.b_target.data = np.ones_like(collapsed.b_target.data)
    counts = []
    for params in (tiny_model, collapsed):
        _, rows = ranked_rows(params, tiny_bench, monkeypatch)
        _, moved_rows = ranked_rows(params, shuffled, monkeypatch)
        sims = np.concatenate([f_q for f_q, _, _ in rows]) @ rows[0][1].T
        ranks = np.concatenate([r for _, _, r in rows], axis=1)
        moved = np.concatenate([r for _, _, r in moved_rows], axis=1)
        best = np.where(positives, sims, -np.inf).max(axis=-1, keepdims=True)
        tied = ((sims == best) & ~positives).any(axis=-1)  # (2, Q)
        assert not np.any((ranks != moved) & ~tied)
        counts.append((int(tied.sum()), int((ranks != moved).sum())))
    assert counts[0] == (0, 0)
    assert counts[1][0] == positives.shape[0] * len(quads) and counts[1][1] > 0, counts


def test_a_boxless_query_ranks_as_a_beta_zero_query(tiny_bench, tiny_model):
    # neither a box-less query nor a beta_override=0 query builds a region
    # bias, and a box-less batch never asks the live head for a beta, so both
    # encode every query to the same bits; so the box-less robustness row is
    # the beta-0 setting
    samples = [query_sample_of(tiny_bench, q) for q in tiny_bench.eval_quads]
    no_box, given = query_representation(
        [dataclasses.replace(s, bbox=None) for s in samples], tiny_model)
    zero, zero_given = query_representation(samples, tiny_model, beta_override=0.0)
    assert no_box.data.tobytes() == zero.data.tobytes()
    assert given.shape == zero_given.shape == (len(samples), 1, 1)
    assert not given.any() and not zero_given.any()
    _, live_given = query_representation(samples, tiny_model)
    assert np.all(live_given != 0.0)  # the head is live, so beta 0 is a choice


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
    (lambda b, p: evaluate_model(p, b, subsets=[]), "subsets must name at least one subset"),
    (lambda b, p: evaluate_model(p, b, subsets=["fashion", "fashion"]),
     "subsets names 'fashion' twice"),
    (lambda b, p: evaluate_model(p, b, beta_override=float("nan")),
     "beta_override must be finite, got nan"),
    (lambda b, p: evaluate_model(p, b, beta_override=float("inf"), roi_crop=True),
     "beta_override must be finite, got inf"),
    (lambda b, p: rank_gallery(np.eye(4)[0], np.eye(3)), "query dim 4 vs gallery dim 3"),
    (lambda b, p: rank_gallery(np.eye(3)[:2], np.eye(3), np.ones((2, 4), dtype=bool)),
     "positives of shape (2, 4) for (2, 3) similarities"),
    (lambda b, p: rank_gallery(np.eye(3)[:2], np.eye(3)), "a full order needs one query, got 2"),
], ids=["no-eval-quadruples", "small-gallery", "target-not-in-gallery", "no-subsets",
        "repeated-subset", "nan-beta", "inf-beta-box-less", "query-dim", "positives-shape",
        "full-order-of-two"])
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
