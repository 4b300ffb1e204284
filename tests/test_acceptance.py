"""End-to-end acceptance gate.

Each test pins one numbered criterion at a fixed tolerance. The default-scale
artifacts (benchmark at seed 0, a trained adaptive model, a trained fixed-zero
baseline) are built once per session and shared by the directional criteria;
their wall-clock cost is tracked so the runtime budget is asserted over the
real work, not a warm cache.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from focalcir.benchgen import (
    PRESETS,
    FilterThresholds,
    build_benchmark,
    filter_pairs,
    save_benchmark,
)
from focalcir.cli import main
from focalcir.encoders import (
    ContextDescriptor,
    EncoderParams,
    SyntheticImage,
    embed_text,
    encode_image,
)
from focalcir.evaluation import (
    RankingResult,
    evaluate_model,
    instance_recall_at_k,
    rank_gallery,
    recall_at_k,
    train_examples,
)
from focalcir.fusion import AttentionParams, modulated_cross_attention
from focalcir.harness import beta_sweep, robustness_eval
from focalcir.model import (
    ModelConfig,
    ModelParams,
    QuerySample,
    TrainConfig,
    TrainExample,
    contrastive_loss,
    query_representation,
    target_representation,
    train,
)
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.tensor import Tape, Tensor, backward, concat_rows

ELAPSED: dict[str, float] = {}

FIXTURE = Path(__file__).parent / "fixtures" / "metric_fixture.json"


def _timed(key):
    class _Timer:
        def __enter__(self):
            self.t0 = time.time()

        def __exit__(self, *exc):
            ELAPSED[key] = time.time() - self.t0

    return _Timer()


@pytest.fixture(scope="session")
def default_bench():
    with _timed("bench"):
        bench = build_benchmark(seed=0)
    return bench


@pytest.fixture(scope="session")
def trained_adaptive(default_bench):
    params = ModelParams(ModelConfig(), default_bench.encoders, seed=0)
    with _timed("train_adaptive"):
        train(params, train_examples(default_bench, default_bench.train_quads),
              TrainConfig(seed=0))
    return params


@pytest.fixture(scope="session")
def trained_baseline(default_bench):
    params = ModelParams(ModelConfig(), default_bench.encoders, seed=0)
    with _timed("train_baseline"):
        train(params, train_examples(default_bench, default_bench.train_quads),
              TrainConfig(seed=0, fixed_beta=0.0))
    return params


@pytest.fixture(scope="session")
def default_reports(default_bench, trained_adaptive, trained_baseline):
    with _timed("eval_both"):
        adaptive = evaluate_model(trained_adaptive, default_bench, seed=0)
        baseline = evaluate_model(trained_baseline, default_bench,
                                  beta_override=0.0, seed=0)
    return adaptive, baseline


# -- criterion 1: gradient correctness -----------------------------------------


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.time()
    cfg = ModelConfig(d_model=6, d_embed=6, m_queries=2, k_probes=2, l_text=2,
                      n_blocks=1, crm_variant="transformer", crm_layers=1)
    enc = EncoderParams(seed=101, d_latent=4, d_model=6, l_text=2)
    params = ModelParams(cfg, enc, seed=1, zero_modulation_head=False)
    rng = np.random.default_rng(2)
    grid = (2, 2)  # four patch tokens
    examples = []
    for _ in range(2):
        text = embed_text(ContextDescriptor("c", rng.normal(size=4)), enc)
        query = QuerySample(patches=encode_image(rng.normal(size=(2, 2, 4)), enc),
                            grid=grid, bbox=(0.1, 0.1, 0.6, 0.6), text=text)
        examples.append(TrainExample(
            query=query, target_patches=encode_image(rng.normal(size=(2, 2, 4)), enc)))

    def forward():
        fq = [query_representation(ex.query, params)[0] for ex in examples]
        ft = [target_representation(ex.target_patches, params) for ex in examples]
        return contrastive_loss(concat_rows(fq), concat_rows(ft), params.tau)

    tape = Tape()
    with tape:
        loss = forward()
    backward(loss, tape)

    checked = 0
    for name, t in params.named_params():
        if not t.requires_grad:
            continue
        analytic = t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        numeric = finite_diff_grad(lambda _t: forward().item(), t, eps=1e-5)
        err = max_rel_error(analytic, numeric)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
        checked += 1
    tape.clear()
    groups = {"caam.probes", "caam.cls", "caam.wc", "rep_cls", "head.query.w",
              "head.target.w", "fusion.block0.cross.wq", "caam.crm.layer0.self.wq"}
    names = {n for n, t in params.named_params() if t.requires_grad}
    assert groups <= names  # every trainable family is in the audit
    assert checked == len(names)
    assert time.time() - t0 < 30.0


# -- criteria 2 and 3: attention kernel ------------------------------------------


def _identity_attention(d):
    """Projections that expose the attention matrix itself.

    With wq=wk=wv=I, zero biases, no output head, and kv=I the raw logits are
    the token rows and the values are one-hot, so the op's output IS the
    post-softmax attention matrix.
    """
    eye = Tensor(np.eye(d))
    zero = Tensor(np.zeros(d))
    return AttentionParams(wq=eye, bq=zero, wk=eye, bk=zero,
                           wv=Tensor(np.eye(d)), bv=Tensor(np.zeros(d)))


def _random_attention(rng, d):
    def w():
        return Tensor(rng.normal(size=(d, d)) * 0.3)

    def b():
        return Tensor(rng.normal(size=d) * 0.1)

    return AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(), wv=w(), bv=b(),
                           wo=w(), bo=b())


def test_criterion_02_beta_zero_reduces_to_plain_attention():
    d = 8
    rng = np.random.default_rng(3)
    for trial in range(100):
        n_heads = (1, 2, 4)[trial % 3]
        params = _random_attention(rng, d)
        tokens = Tensor(rng.normal(size=(3, d)))
        kv = Tensor(rng.normal(size=(6, d)))
        mask = (rng.random(6) < 0.5).astype(float)
        if mask.sum() in (0.0, 6.0):
            mask[0] = 1.0 - mask[0]
        modulated = modulated_cross_attention(tokens, kv, params, mask, 0.0,
                                              n_heads=n_heads)
        plain = modulated_cross_attention(tokens, kv, params, None, 0.0,
                                          n_heads=n_heads)
        assert np.max(np.abs(modulated.data - plain.data)) <= 1e-15

        # observe the attention matrix directly to audit row normalization
        ident = _identity_attention(d)
        probe = modulated_cross_attention(
            Tensor(rng.uniform(-5.0, 5.0, size=(3, d))), Tensor(np.eye(d)),
            ident, (rng.random(d) < 0.5).astype(float), float(rng.uniform(0, 10)))
        row_sums = probe.data.sum(axis=1)
        assert np.max(np.abs(row_sums - 1.0)) <= 1e-9


def test_criterion_03_large_beta_saturates_masked_columns():
    d = 8
    params = _identity_attention(d)
    kv = Tensor(np.eye(d))
    beta = 50.0 * math.sqrt(d)
    # closed-form worst case: one masked column at logit -5, the rest at +5
    gap = (beta - 10.0) / math.sqrt(d)
    assert 1.0 / (1.0 + (d - 1) * math.exp(-gap)) >= 0.999
    rng = np.random.default_rng(4)
    for _ in range(100):
        tokens = Tensor(rng.uniform(-5.0, 5.0, size=(3, d)))
        mask = np.zeros(d)
        mask[rng.permutation(d)[: int(rng.integers(1, d))]] = 1.0
        attn = modulated_cross_attention(tokens, kv, params, mask, beta)
        masked_mass = attn.data[:, mask == 1.0].sum(axis=1)
        assert np.min(masked_mass) >= 0.999


# -- criterion 4: loss sanity ------------------------------------------------------


def test_criterion_04_loss_scale():
    rng = np.random.default_rng(5)
    q1 = rng.normal(size=(1, 64))
    q1 /= np.linalg.norm(q1)
    t1 = rng.normal(size=(1, 64))
    t1 /= np.linalg.norm(t1)
    # softmax over a single candidate is 1 no matter the similarity
    assert contrastive_loss(Tensor(q1), Tensor(t1), tau=0.07).item() == 0.0

    # independent random unit vectors in high dimension: near-uniform softmax
    low, high = 0.9 * math.log(64), 1.1 * math.log(64)
    for trial in range(5):
        x = rng.normal(size=(64, 1024))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y = rng.normal(size=(64, 1024))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        loss = contrastive_loss(Tensor(x), Tensor(y), tau=1.0).item()
        assert low <= loss <= high, f"trial {trial}: loss {loss:.3f}"


# -- criterion 5: metric oracles -----------------------------------------------------


def test_criterion_05_metric_oracles(default_reports):
    fixture = json.loads(FIXTURE.read_text())
    gallery = np.array([e["embedding"] for e in fixture["gallery"]])
    ids = [e["image_id"] for e in fixture["gallery"]]
    insts = [e["instance_id"] for e in fixture["gallery"]]

    from focalcir.evaluation import RankingResult, instance_recall_at_k, recall_at_k

    results = []
    for q in fixture["queries"]:
        order = rank_gallery(np.array(q["embedding"]), gallery)
        r = RankingResult(order=order, instance_id=q["instance_id"],
                          target_image_id=q["target_image_id"],
                          gallery_image_ids=ids, gallery_instance_ids=insts)
        assert r.target_rank() == q["expected_target_rank"]
        results.append(r)
    want = fixture["expected"]
    assert recall_at_k(results, 1) == want["r_at_1"]
    assert recall_at_k(results, 5) == want["r_at_5"]
    assert instance_recall_at_k(results, 1) == want["rid_at_1"]
    assert instance_recall_at_k(results, 5) == want["rid_at_5"]

    # R@1 <= R_ID@1 on every run this gate produces
    for report in default_reports:
        for metrics in list(report.per_subset.values()) + [report.macro]:
            assert metrics.r_at_1 <= metrics.rid_at_1 + 1e-12

    # ranking agrees with a sort oracle on small galleries
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = int(rng.integers(2, 21))
        cand = rng.normal(size=(g, 6))
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        q = rng.normal(size=6)
        q /= np.linalg.norm(q)
        sims = cand @ q
        assert rank_gallery(q, cand) == sorted(range(g), key=lambda i: (-sims[i], i))


# -- criterion 6: mechanism efficacy ---------------------------------------------------


def test_criterion_06_adaptive_beats_baseline(default_bench, default_reports):
    for subset in ("fashion", "car", "product", "landmark"):
        assert subset in default_bench.stats
        assert default_bench.stats[subset]["eval_quadruples"] >= 200
        assert default_bench.stats[subset]["gallery_size"] >= 400
    adaptive, baseline = default_reports
    gap = adaptive.macro.rid_at_1 - baseline.macro.rid_at_1
    assert gap >= 0.10, f"R_ID@1 macro gap {gap:.4f} < 0.10"
    total = sum(ELAPSED[k] for k in ("bench", "train_adaptive", "train_baseline",
                                     "eval_both"))
    assert total < 900.0, f"default pipeline took {total:.0f}s"


# -- criterion 7: sweep shape ------------------------------------------------------------


def test_criterion_07_beta_sweep_shape(default_bench, trained_adaptive):
    table = beta_sweep(trained_adaptive, default_bench, seed=0)
    fixed = table.rows[:-1]
    assert [r.beta_units for r in fixed] == [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    rid = [r.metrics.macro.rid_at_1 for r in fixed]
    r1 = [r.metrics.macro.r_at_1 for r in fixed]

    peak = int(np.argmax(rid))
    for i in range(peak):
        assert rid[i + 1] >= rid[i] - 0.02, f"dip before max at grid point {i + 1}"

    r1_peak = int(np.argmax(r1))
    assert 0 < r1_peak < len(r1) - 1, f"R@1 peak at grid edge (index {r1_peak})"

    adaptive_row = table.rows[-1]
    assert adaptive_row.beta_value is None
    assert adaptive_row.metrics.macro.rid_at_1 >= max(rid) - 0.02


# -- criterion 8: filtering fidelity ---------------------------------------------------------


def _oracle(features, thr):
    n = features.shape[0]
    if n < thr.tau_valid:
        return []
    unit = [f / np.linalg.norm(f) for f in features]
    cos = [[float(unit[i] @ unit[j]) for j in range(n)] for i in range(n)]
    kept = []
    for i in range(n):
        close = sum(1 for j in range(n) if j != i and cos[i][j] > thr.tau_centric)
        if close < thr.tau_count:
            kept.append(i)
    return [(i, j) for i in kept for j in kept if i != j and cos[i][j] <= thr.tau_high]


def _images_for(features):
    return [
        SyntheticImage(image_id=f"s/cat0/inst00/img{i:02d}", instance_id="s/cat0/inst00",
                       category_id="s/cat0", context_id=f"s/ctx{i:02d}", subset="s",
                       bbox=(0.2, 0.2, 0.7, 0.7), grid=np.zeros((1, 1, 2)))
        for i in range(features.shape[0])
    ]


def test_criterion_08_filtering_matches_brute_force():
    assert PRESETS["fashion"] == FilterThresholds(8, 0.92, 0.88, 3)
    assert PRESETS["car"] == FilterThresholds(10, 0.88, 0.85, 2)
    assert PRESETS["product"] == FilterThresholds(20, 0.88, 0.85, 2)
    assert PRESETS["landmark"] == FilterThresholds(15, 0.90, 0.88, 3)

    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(2, 26))
        base = rng.normal(size=(n, 16))
        # plant near-duplicate clusters so every rule actually fires
        for _ in range(int(rng.integers(0, 4))):
            if n < 2:
                break
            i, j = rng.integers(0, n, size=2)
            base[j] = base[i] + 0.05 * rng.normal(size=16)
        features = base / np.linalg.norm(base, axis=1, keepdims=True)
        tau_high = float(rng.uniform(0.7, 0.99))
        thr = FilterThresholds(
            tau_valid=int(rng.integers(2, 12)),
            tau_high=tau_high,
            tau_centric=float(rng.uniform(0.6, tau_high)),
            tau_count=int(rng.integers(1, 5)),
        )
        images = _images_for(features)
        table = {im.image_id: features[k] for k, im in enumerate(images)}
        got = filter_pairs(images, thr, lambda im: table[im.image_id])
        got_idx = [(int(a[-2:]), int(b[-2:])) for a, b in got]
        assert got_idx == _oracle(features, thr), f"trial {trial}"


# -- criterion 9: gallery invariants ----------------------------------------------------------


def test_criterion_09_gallery_invariants(default_bench, tmp_path):
    for subset, manifest in default_bench.galleries.items():
        quads = [q for q in default_bench.eval_quads if q.subset == subset]
        targets = {q.target_image_id for q in quads}
        present = {e.image_id for e in manifest.entries if e.is_target}
        assert targets == present

        query_instances = {q.instance_id for q in quads}
        query_categories = {q.category_id for q in quads}
        for e in manifest.entries:
            if not e.is_target:
                assert e.instance_id not in query_instances
                assert e.category_id in query_categories

    # regeneration from the same seed serializes to identical bytes
    again = build_benchmark(seed=0)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    save_benchmark(a_dir, default_bench, config_hash="x")
    save_benchmark(b_dir, again, config_hash="x")
    for f in sorted(a_dir.iterdir()):
        assert (b_dir / f.name).read_bytes() == f.read_bytes(), f.name


# -- criterion 10: robustness ordering ----------------------------------------------------------


def test_criterion_10_robustness_ordering(default_bench, trained_adaptive):
    rows = robustness_eval(trained_adaptive, default_bench, seed=0)
    by_label = {r.label: r.metrics.macro.rid_at_1 for r in rows}
    assert "iou=0.5 scale_shift" in by_label
    full = by_label["iou=1 scale"]
    scaled = by_label["iou=0.8 scale"]
    nobbox = by_label["no-bbox"]
    assert full >= scaled
    assert scaled >= nobbox - 0.01
    assert nobbox == min(full, scaled, nobbox)


# -- criterion 11: determinism ------------------------------------------------------------------


def _hash_dir(directory):
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(Path(directory).iterdir()) if f.is_file()
    }


def test_criterion_11_commands_are_deterministic(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = {
        "seed": 13,
        "out": str(out),
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
        "eval": {"betas": [0, 2]},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))

    snapshots = []
    for _ in range(2):
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["eval", "--config", str(cfg_path)]) == 0
        assert main(["ablate", "beta", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        snapshots.append(_hash_dir(out))
    assert {"resolved_config.json", "checkpoint.bin", "metrics.json",
            "ablate_beta.json"} <= set(snapshots[0])
    assert snapshots[0] == snapshots[1]
