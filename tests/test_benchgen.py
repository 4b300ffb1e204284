import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalcir.benchgen import (
    PRESETS,
    FilterThresholds,
    WorldConfig,
    build_benchmark,
    build_gallery,
    filter_pairs,
    generate_world,
    make_quadruples,
)
from focalcir.benchgen.quadruples import largest_remainder
from focalcir.benchgen import world
from focalcir.benchgen.world import _render_pool
from focalcir.encoders import (
    EncoderParams,
    SyntheticImage,
    encode_image,
    pooled_image_embeddings,
)
from focalcir.errors import ConfigError, ContractError
from focalcir.fusion import region_mask_from_bbox
from reference import generate_world_per_image, render_loop


def small_configs(**overrides):
    base = dict(
        n_categories=2, instances_per_category=4, images_per_instance=5, n_contexts=6,
        grid=(4, 4), d_latent=8, bbox_size_range=(0.3, 0.6),
        reserve_instances_per_category=3, reserve_images_per_instance=3,
    )
    base.update(overrides)
    return [WorldConfig(subset="fashion", **base)]


@pytest.fixture(scope="module")
def small_world():
    return generate_world(small_configs(), seed=11)


# -- world generation ---------------------------------------------------------


def test_world_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(subset="x", images_per_instance=1).validate()
    with pytest.raises(ConfigError):
        WorldConfig(subset="x", d_latent=1).validate()
    with pytest.raises(ConfigError):
        WorldConfig(subset="x", bbox_size_range=(0.0, 0.5)).validate()
    with pytest.raises(ConfigError):
        # min side must exceed one patch spacing
        WorldConfig(subset="x", grid=(8, 8), bbox_size_range=(0.1, 0.5)).validate()


def test_instance_and_image_counts_match_config(small_world):
    cfg = small_world.configs["fashion"]
    main_instances = {im.instance_id for im in small_world.images}
    assert len(main_instances) == cfg.n_categories * cfg.instances_per_category
    assert len(small_world.images) == len(main_instances) * cfg.images_per_instance
    reserve_instances = {im.instance_id for im in small_world.reserve_images}
    assert len(reserve_instances) == cfg.n_categories * cfg.reserve_instances_per_category
    assert not (main_instances & reserve_instances)


def test_planted_signal_dominates_inside_bbox(small_world):
    # inside patches correlate with the identity more than with the context,
    # outside patches the other way round
    for im in small_world.images[:12]:
        identity = small_world.identities[im.instance_id]
        context = small_world.contexts[im.context_id].latent
        h, w, _ = im.grid.shape
        (mask,) = region_mask_from_bbox([im.bbox], (h, w))
        in_id, in_ctx, out_id, out_ctx = [], [], [], []
        for idx, flag in enumerate(mask):
            patch = im.grid[idx // w, idx % w]
            norm = np.linalg.norm(patch)
            if flag == 1.0:
                in_id.append(patch @ identity / norm)
                in_ctx.append(patch @ context / norm)
            else:
                out_id.append(patch @ identity / norm)
                out_ctx.append(patch @ context / norm)
        assert in_id, im.image_id
        assert np.mean(in_id) > 0.7
        assert np.mean(in_id) > np.mean(in_ctx) + 0.2
        if out_id:
            assert np.mean(out_ctx) > 0.7
            assert np.mean(out_ctx) > np.mean(out_id) + 0.2


def test_every_bbox_covers_at_least_one_patch(small_world):
    for im in small_world.images:
        (mask,) = region_mask_from_bbox([im.bbox], im.grid.shape[:2])
        assert mask.sum() >= 1


@pytest.mark.parametrize(
    "grid, bbox",
    [
        ((3, 5), (0.15, 0.2, 0.7, 0.95)),  # non-square
        ((3, 5), (0.0, 0.0, 1.0, 1.0)),  # full cover
        ((4, 4), (0.375, 0.375, 0.625, 0.625)),  # edges on centers: half-open
        ((4, 4), (0.125, 0.625, 0.875, 1.0)),
        ((8, 8), (0.3, 0.1, 0.55, 0.6)),
    ],
)
def test_render_equals_per_patch_loop(grid, bbox, monkeypatch):
    # one pool renders the case's box between two others
    boxes = [(0.0, 0.5, 0.5, 1.0), bbox, (0.5, 0.0, 1.0, 0.5)]
    cfg = WorldConfig(subset="x", grid=grid, d_latent=6)
    for sigma in (world.NOISE_SIGMA, 0.0):
        monkeypatch.setattr(world, "NOISE_SIGMA", sigma)
        latents = np.random.default_rng(1).normal(size=(len(boxes), 2, cfg.d_latent))
        planted = [(ident, ctx, box) for (ident, ctx), box in zip(latents, boxes)]
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        # the block is filled as generate_world fills it, one row per image
        got = np.empty((len(boxes), *grid, cfg.d_latent))
        for row in got:
            fast.standard_normal(out=row)
        _render_pool(got, planted, cfg)
        want = np.stack([render_loop(slow, cfg, *p) for p in planted])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # both consumed the same stretch of the stream
        assert fast.normal() == slow.normal()
    # without noise the planted patches are the identity itself
    for (ident, ctx, box), rendered in zip(planted, got):
        inside = np.all(rendered == ident, axis=-1)
        assert inside.any() and inside.sum() + np.all(rendered == ctx, axis=-1).sum() == inside.size
    if bbox == (0.375, 0.375, 0.625, 0.625):
        assert np.flatnonzero(np.all(got[1] == latents[1][0], axis=-1)).tolist() == [5]


@pytest.mark.parametrize("seed", [11, 12])
def test_world_equals_per_image_reference(seed):
    # two subsets with different grids; the second has an empty reserve pool
    configs = small_configs() + [WorldConfig(
        subset="car", n_categories=3, instances_per_category=2, images_per_instance=4,
        n_contexts=5, grid=(3, 5), d_latent=8, bbox_size_range=(0.4, 0.7),
        reserve_instances_per_category=2, reserve_images_per_instance=0)]
    got = generate_world(configs, seed)
    want = generate_world_per_image(configs, seed)
    for pool in ("images", "reserve_images"):
        a, b = getattr(got, pool), getattr(want, pool)
        assert [im.image_id for im in a] == [im.image_id for im in b]
        for x, y in zip(a, b):
            assert (x.instance_id, x.category_id, x.context_id, x.subset, x.bbox) == (
                y.instance_id, y.category_id, y.context_id, y.subset, y.bbox)
            assert x.grid.shape == y.grid.shape and x.grid.tobytes() == y.grid.tobytes()
    for name in ("identities", "categories"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.keys() == b.keys() and all(a[k].tobytes() == b[k].tobytes() for k in a)
    assert got.contexts.keys() == want.contexts.keys()
    assert all(got.contexts[k].latent.tobytes() == want.contexts[k].latent.tobytes()
               for k in got.contexts)


def test_identities_are_unit_and_clustered_by_category(small_world):
    for iid, latent in small_world.identities.items():
        assert abs(np.linalg.norm(latent) - 1.0) < 1e-12
        proto = small_world.categories["/".join(iid.split("/")[:2])]
        # delta=0.35 puts instances at cos ~ 1/sqrt(1+delta^2) ~ 0.94 from the prototype
        assert float(latent @ proto) > 0.85


def test_two_seeds_give_disjoint_identities():
    cfgs = small_configs(d_latent=16)
    a = generate_world(cfgs, seed=1)
    b = generate_world(small_configs(d_latent=16), seed=2)
    ids_a = np.stack(list(a.identities.values()))
    ids_b = np.stack(list(b.identities.values()))
    cross = ids_a @ ids_b.T
    assert np.mean(np.abs(cross) >= 0.5) < 0.05
    assert np.max(np.abs(cross)) < 0.95


def test_generation_is_deterministic():
    a = generate_world(small_configs(), seed=3)
    b = generate_world(small_configs(), seed=3)
    assert [im.image_id for im in a.images] == [im.image_id for im in b.images]
    for x, y in zip(a.images, b.images):
        assert x.bbox == y.bbox
        assert np.array_equal(x.grid, y.grid)


def test_context_reuse_is_balanced(small_world):
    # round-robin assignment: posts at most ceil(images/contexts) per context
    cfg = small_world.configs["fashion"]
    cap = -(-cfg.images_per_instance // cfg.n_contexts)
    per_instance: dict[str, dict[str, int]] = {}
    for im in small_world.images:
        per_instance.setdefault(im.instance_id, {}).setdefault(im.context_id, 0)
        per_instance[im.instance_id][im.context_id] += 1
    for counts in per_instance.values():
        assert max(counts.values()) <= cap


def test_duplicate_subset_labels_rejected():
    with pytest.raises(ConfigError):
        generate_world(small_configs() + small_configs(), seed=0)


# -- filtering ----------------------------------------------------------------


def dummy_images(features: np.ndarray) -> list[SyntheticImage]:
    out = []
    for i in range(features.shape[0]):
        out.append(
            SyntheticImage(
                image_id=f"s/cat0/inst00/img{i:02d}", instance_id="s/cat0/inst00",
                category_id="s/cat0", context_id=f"s/ctx{i:02d}", subset="s",
                bbox=(0.2, 0.2, 0.7, 0.7), grid=np.zeros((1, 1, 2)),
            )
        )
    return out


def lookup_embed(features):
    table = {f"s/cat0/inst00/img{i:02d}": features[i] for i in range(features.shape[0])}
    return lambda im: table[im.image_id]


def filter_oracle(features, thr):
    """Independent re-statement of the three rules, all loops."""
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
    pairs = []
    for i in kept:
        for j in kept:
            if i != j and cos[i][j] <= thr.tau_high:
                pairs.append((i, j))
    return pairs


def pooled_embed(images, enc):
    """The embed build_benchmark gives filter_pairs: each image's row of
    one pooled_image_embeddings call over the set."""
    table = dict(zip([im.image_id for im in images], pooled_image_embeddings(images, enc)))
    return lambda im: table[im.image_id]


def near_orthogonal_features(rng, n, d=64):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_preset_values():
    assert PRESETS["fashion"] == FilterThresholds(8, 0.92, 0.88, 3)
    assert PRESETS["car"] == FilterThresholds(10, 0.88, 0.85, 2)
    assert PRESETS["product"] == FilterThresholds(20, 0.88, 0.85, 2)
    assert PRESETS["landmark"] == FilterThresholds(15, 0.90, 0.88, 3)
    for thr in PRESETS.values():
        thr.validate()


def test_threshold_validation():
    with pytest.raises(ConfigError):
        FilterThresholds(8, 0.92, 0.95, 3).validate()  # centric > high
    with pytest.raises(ConfigError):
        FilterThresholds(1, 0.92, 0.88, 3).validate()
    with pytest.raises(ConfigError):
        FilterThresholds(8, 1.0, 0.88, 3).validate()
    with pytest.raises(ConfigError):
        FilterThresholds(8, 0.92, 0.88, 0).validate()


def test_undersized_set_yields_no_pairs():
    thr = PRESETS["fashion"]
    feats = near_orthogonal_features(np.random.default_rng(0), thr.tau_valid - 1)
    assert filter_pairs(dummy_images(feats), thr, lookup_embed(feats)) == []


def test_highly_similar_pair_excluded_under_fashion_preset():
    rng = np.random.default_rng(1)
    feats = near_orthogonal_features(rng, 8)
    # push images 0 and 1 to cosine ~0.95 > tau_high = 0.92
    feats[1] = 0.95 * feats[0] + np.sqrt(1 - 0.95**2) * feats[1]
    images = dummy_images(feats)
    pairs = filter_pairs(images, PRESETS["fashion"], lookup_embed(feats))
    ids = {(r.split("img")[1], t.split("img")[1]) for r, t in pairs}
    assert ("00", "01") not in ids and ("01", "00") not in ids
    assert len(pairs) == 8 * 7 - 2


def test_centric_image_removed_entirely():
    rng = np.random.default_rng(2)
    feats = near_orthogonal_features(rng, 8)
    # image 0 sits close to three others: just over tau_centric but under tau_high
    for j in (1, 2, 3):
        feats[j] = 0.90 * feats[0] + np.sqrt(1 - 0.90**2) * feats[j]
    images = dummy_images(feats)
    pairs = filter_pairs(images, PRESETS["fashion"], lookup_embed(feats))
    assert all("img00" not in r and "img00" not in t for r, t in pairs)


def test_filtering_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(4, 12))
        feats = near_orthogonal_features(rng, n, d=8)
        # plant duplicate clusters so both rules fire sometimes
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(n, size=2)
            mix = rng.uniform(0.8, 0.99)
            feats[j] = mix * feats[i] + np.sqrt(1 - mix**2) * feats[j]
        thr = FilterThresholds(
            tau_valid=int(rng.integers(2, 6)),
            tau_high=float(rng.uniform(0.75, 0.95)),
            tau_centric=float(rng.uniform(0.5, 0.75)),
            tau_count=int(rng.integers(1, 4)),
        )
        images = dummy_images(feats)
        got = filter_pairs(images, thr, lookup_embed(feats))
        want = [(images[i].image_id, images[j].image_id) for i, j in filter_oracle(feats, thr)]
        assert got == want, f"trial {trial}"


def test_filtering_idempotent_on_survivors():
    rng = np.random.default_rng(4)
    thr = FilterThresholds(tau_valid=3, tau_high=0.9, tau_centric=0.6, tau_count=2)
    for trial in range(20):
        feats = near_orthogonal_features(rng, 9, d=8)
        for _ in range(2):
            i, j = rng.integers(9, size=2)
            feats[j] = 0.95 * feats[i] + np.sqrt(1 - 0.95**2) * feats[j]
        images = dummy_images(feats)
        embed = lookup_embed(feats)
        first = filter_pairs(images, thr, embed)
        survivor_ids = sorted({x for pair in first for x in pair})
        survivors = [im for im in images if im.image_id in survivor_ids]
        if len(survivors) >= thr.tau_valid:
            again = filter_pairs(survivors, thr, embed)
            assert sorted(again) == sorted(first), f"trial {trial}"
        else:
            # the size gate re-applies to each call's input set
            assert filter_pairs(survivors, thr, embed) == []


def test_filtering_on_generated_world_matches_oracle(small_world):
    enc = EncoderParams(seed=small_world.encoder_seed, d_latent=8, d_model=16, l_text=2)
    thr = FilterThresholds(tau_valid=4, tau_high=0.9, tau_centric=0.85, tau_count=2)
    instance = small_world.images[0].instance_id
    images = [im for im in small_world.images if im.instance_id == instance]
    feats = np.stack([encode_image(im, enc).mean(axis=0) for im in images])
    assert pooled_image_embeddings(images, enc).tobytes() == feats.tobytes()
    got = filter_pairs(images, thr, pooled_embed(images, enc))
    want = [(images[i].image_id, images[j].image_id) for i, j in filter_oracle(feats, thr)]
    assert got == want


# -- quadruples ----------------------------------------------------------------


def test_largest_remainder_properties():
    quotas = largest_remainder(10, {"a": 1.0, "b": 1.0})
    assert quotas == {"a": 5, "b": 5}
    quotas = largest_remainder(320, {"a": 60.0, "b": 60.0, "c": 40.0, "d": 40.0, "e": 40.0})
    assert sum(quotas.values()) == 320
    assert quotas["a"] == quotas["b"] == 80
    assert quotas["c"] == quotas["d"] == quotas["e"] == 53 or sum(
        quotas[k] for k in "cde") == 160
    with pytest.raises(ContractError):
        largest_remainder(5, {"a": 0.0})


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=12), data=st.data())
def test_quotas_of_integer_weights_sum_to_the_total_and_fit_each_weight(sizes, data):
    # the instance split hands each category its quota of instances and
    # relies on both: the train split takes round(0.8 n) of n, at most n
    n = sum(sizes)
    total = data.draw(st.one_of(st.just(int(round(0.8 * n))), st.integers(0, n)))
    weights = {f"cat{i}": float(size) for i, size in enumerate(sizes)}
    quotas = largest_remainder(total, weights)
    assert sum(quotas.values()) == total
    assert all(0 <= quotas[k] <= size for k, size in zip(weights, sizes))


@pytest.fixture(scope="module")
def small_bench():
    return build_benchmark(
        configs=small_configs(images_per_instance=6),
        seed=7, d_model=16, l_text=2, train_cap=4, eval_cap=6, n_distractors=8,
        thresholds={"fashion": FilterThresholds(4, 0.9, 0.85, 3)},
    )


@pytest.mark.parametrize("key, value", [("train_cap", 0), ("eval_cap", 0),
                                        ("n_distractors", -1), ("seed", -1)])
def test_build_rejects_the_settings_its_loader_rejects(key, value):
    # load_benchmark checks a saved benchmark's settings against these ranges
    kwargs = dict(configs=small_configs(images_per_instance=6), seed=7, d_model=16, l_text=2,
                  train_cap=4, eval_cap=6, n_distractors=8,
                  thresholds={"fashion": FilterThresholds(4, 0.9, 0.85, 3)})
    with pytest.raises(ConfigError, match=f"'{key}' must be >= "):
        build_benchmark(**kwargs | {key: value})


def test_split_instances_are_disjoint_and_ratio_holds(small_bench):
    train_inst = {q.instance_id for q in small_bench.train_quads}
    eval_inst = {q.instance_id for q in small_bench.eval_quads}
    assert not (train_inst & eval_inst)
    n = len(train_inst | eval_inst)
    assert abs(len(train_inst) - round(0.8 * n)) <= 1


def test_quadruple_invariants(small_bench):
    for q in small_bench.train_quads + small_bench.eval_quads:
        ref = small_bench.image(q.ref_image_id)
        tgt = small_bench.image(q.target_image_id)
        assert ref.instance_id == tgt.instance_id == q.instance_id
        assert q.ref_image_id != q.target_image_id
        assert q.bbox == ref.bbox
        assert q.text_context_id == tgt.context_id
        assert q.category_id == ref.category_id
        assert q.subset == ref.subset


def test_per_instance_caps_respected(small_bench):
    for quads, cap in ((small_bench.train_quads, 4), (small_bench.eval_quads, 6)):
        counts: dict[str, int] = {}
        for q in quads:
            counts[q.instance_id] = counts.get(q.instance_id, 0) + 1
        assert max(counts.values()) <= cap


def test_make_quadruples_deterministic(small_world):
    enc = EncoderParams(seed=small_world.encoder_seed, d_latent=8, d_model=16, l_text=2)
    thr = FilterThresholds(4, 0.9, 0.85, 3)
    by_instance = {}
    for im in small_world.images:
        by_instance.setdefault(im.instance_id, []).append(im)
    pairs = {
        iid: filter_pairs(ims, thr, pooled_embed(ims, enc))
        for iid, ims in by_instance.items()
    }
    pairs = {k: v for k, v in pairs.items() if v}
    a = make_quadruples(pairs, small_world, seed=5, train_cap=8, eval_cap=20)
    b = make_quadruples(pairs, small_world, seed=5, train_cap=8, eval_cap=20)
    assert a == b
    c = make_quadruples(pairs, small_world, seed=6, train_cap=8, eval_cap=20)
    assert a != c  # different split/caps under a different seed


# -- gallery -------------------------------------------------------------------


def test_gallery_invariants_on_generated_benchmark(small_bench):
    manifest = small_bench.galleries["fashion"]
    manifest.validate(small_bench.eval_quads)  # raises on violation
    targets = [e for e in manifest.entries if e.is_target]
    assert len({e.image_id for e in targets}) == len(targets)
    assert {e.image_id for e in targets} == {q.target_image_id for q in small_bench.eval_quads}


def test_gallery_histogram_proportional_for_divisible_sizes(small_world):
    enc = EncoderParams(seed=small_world.encoder_seed, d_latent=8, d_model=16, l_text=2)
    thr = FilterThresholds(4, 0.9, 0.85, 3)
    by_instance = {}
    for im in small_world.images:
        by_instance.setdefault(im.instance_id, []).append(im)
    pairs = {
        iid: filter_pairs(ims, thr, pooled_embed(ims, enc))
        for iid, ims in by_instance.items()
    }
    _, eval_quads = make_quadruples({k: v for k, v in pairs.items() if v}, small_world,
                                    seed=5, train_cap=8, eval_cap=20)
    manifest = build_gallery(eval_quads, small_world.reserve_images, seed=5, n_distractors=6)
    hist: dict[str, int] = {}
    for q in eval_quads:
        hist[q.category_id] = hist.get(q.category_id, 0) + 1
    got: dict[str, int] = {}
    for e in manifest.entries:
        if not e.is_target:
            got[e.category_id] = got.get(e.category_id, 0) + 1
    assert sum(got.values()) == 6
    total = sum(hist.values())
    for cat, n in got.items():
        assert abs(n - 6 * hist.get(cat, 0) / total) <= 1


def test_gallery_missing_category_error(small_bench):
    quads = small_bench.eval_quads
    starved = [im for im in small_bench.world.reserve_images
               if im.category_id != quads[0].category_id]
    named = f"n_distractors 10 needs [0-9]+ distractors of category {quads[0].category_id}, "
    with pytest.raises(ConfigError, match=named):
        build_gallery(quads, starved, seed=0, n_distractors=10)


def test_gallery_deterministic(small_bench):
    a = build_gallery(small_bench.eval_quads, small_bench.world.reserve_images,
                      seed=9, n_distractors=8)
    b = build_gallery(small_bench.eval_quads, small_bench.world.reserve_images,
                      seed=9, n_distractors=8)
    assert a.entries == b.entries


def test_gallery_rejects_empty_or_mixed_input(small_bench):
    with pytest.raises(ContractError, match="cannot build a gallery without eval quadruples"):
        build_gallery([], small_bench.world.reserve_images, seed=0, n_distractors=10)
