import json
import struct

import numpy as np
import pytest

from focalcir.benchgen import (
    PRESETS,
    FilterThresholds,
    WorldConfig,
    build_benchmark,
    default_world_configs,
    generate_world,
    load_world,
    read_jsonl,
    save_world,
    write_jsonl,
)
from focalcir.benchgen.pipeline import load_benchmark, save_benchmark
from focalcir.errors import DataError, EmptyMaskError
from focalcir.fusion import region_mask_from_bbox


def small_configs():
    return [
        WorldConfig(subset="fashion", n_categories=2, instances_per_category=3,
                    images_per_instance=5, n_contexts=6, grid=(4, 4), d_latent=8,
                    bbox_size_range=(0.3, 0.6), reserve_instances_per_category=3,
                    reserve_images_per_instance=3),
    ]


def test_default_configs_clear_their_presets():
    for cfg in default_world_configs():
        cfg.validate()
        assert cfg.images_per_instance >= PRESETS[cfg.subset].tau_valid


def test_world_round_trip(tmp_path):
    world = generate_world(small_configs(), seed=3)
    path = tmp_path / "world.bin"
    save_world(path, world, config_hash="deadbeef")
    loaded, stored_hash = load_world(path)
    assert stored_hash == "deadbeef"
    assert loaded.seed == world.seed
    assert loaded.configs == world.configs
    assert [im.image_id for im in loaded.images] == [im.image_id for im in world.images]
    assert len(loaded.reserve_images) == len(world.reserve_images)
    for a, b in zip(world.images, loaded.images):
        assert a.bbox == b.bbox
        assert a.context_id == b.context_id
        assert np.array_equal(a.grid, b.grid)
    for cid, ctx in world.contexts.items():
        assert np.array_equal(ctx.latent, loaded.contexts[cid].latent)
    for iid, latent in world.identities.items():
        assert np.array_equal(latent, loaded.identities[iid])


def test_world_bytes_deterministic(tmp_path):
    world = generate_world(small_configs(), seed=4)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_world(a, world)
    save_world(b, world)
    assert a.read_bytes() == b.read_bytes()


def test_world_rejects_foreign_and_truncated_files(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"something else entirely")
    with pytest.raises(DataError):
        load_world(bad)
    world = generate_world(small_configs(), seed=5)
    path = tmp_path / "world.bin"
    save_world(path, world)
    clipped = tmp_path / "clipped.bin"
    clipped.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(DataError):
        load_world(clipped)


def rewrite_world_header(path, edit):
    """Edits the JSON header of a world file in place, keeping its blocks."""
    raw = path.read_bytes()
    start = raw.index(b"\n") + 1  # after the magic line
    (hlen,) = struct.unpack("<Q", raw[start : start + 8])
    header = json.loads(raw[start + 8 : start + 8 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:start] + struct.pack("<Q", len(blob)) + blob + raw[start + 8 + hlen :])


def _set_first_image(key, value):
    return lambda h: h["images"][0].update({key: value})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h["images"][0].pop("grid_shape"), "world.bin.images[0].grid_shape'] in ImageRecord"),
        (lambda h: h.update(seed=str(h["seed"])), "world.bin.seed' must be int, got str"),
        (lambda h: h.update(n_images=5), "world.bin.n_images'] in WorldHeader"),
        (lambda h: h["images"][0].update(bbox=[0.1, 0.2]), "world.bin.images[0].bbox' must hold 4"),
        (_set_first_image("reserve", 1), "world.bin.images[0].reserve' must be bool, got int"),
        (lambda h: h["configs"]["fashion"].pop("grid"), "world.bin.configs.fashion.grid"),
        (lambda h: h["configs"]["fashion"].update(noise_sigma=float("nan")),
         "world.bin.configs.fashion.noise_sigma' must be finite, got nan"),
        (lambda h: h["configs"]["fashion"].update(n_contexts=0),
         "world.bin.configs.fashion.n_contexts' must be >= 1, got 0"),
        (lambda h: h.update(n_reserve=h["n_reserve"] + 1), "declares n_reserve 19 but marks 18"),
        (_set_first_image("reserve", True), "declares n_reserve 18 but marks 19"),
        (_set_first_image("grid_shape", [4, 4, 9]), "grid_shape [4, 4, 9], its subset [4, 4, 8]"),
        (_set_first_image("subset", "boat"), "'boat' belongs to no subset"),
        (lambda h: h["context_ids"].__setitem__(0, "boat/ctx00"), "'boat/ctx00' belongs to no"),
    ],
)
def test_world_header_damage_names_the_key(tmp_path, edit, message):
    world = generate_world(small_configs(), seed=5)
    path = tmp_path / "world.bin"
    save_world(path, world)
    rewrite_world_header(path, lambda h: None)
    assert load_world(path)[0].seed == 5  # the rewrite alone changes nothing
    rewrite_world_header(path, edit)
    with pytest.raises(DataError) as info:
        load_world(path)
    assert message in str(info.value)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [{"a": 1, "b": [0.5, 0.25]}, {"a": 2, "b": []}]
    write_jsonl(path, "quadruples", records, seed=9, config_hash="cafe")
    header, got = read_jsonl(path, expect_kind="quadruples")
    assert header.seed == 9 and header.config_hash == "cafe"
    assert got == records
    with pytest.raises(DataError):
        read_jsonl(path, expect_kind="gallery")


def test_benchmark_round_trip(tmp_path):
    bench = build_benchmark(
        configs=small_configs(), seed=13, d_model=16, l_text=2,
        train_cap=3, eval_cap=4, n_distractors=4,
        thresholds={"fashion": FilterThresholds(4, 0.9, 0.85, 3)},
    )
    save_benchmark(tmp_path / "bench", bench, config_hash="feed")
    loaded = load_benchmark(tmp_path / "bench")
    assert loaded.train_quads == bench.train_quads
    assert loaded.eval_quads == bench.eval_quads
    assert loaded.settings == bench.settings
    assert loaded.stats == bench.stats
    assert loaded.thresholds == bench.thresholds
    for subset in bench.galleries:
        assert loaded.galleries[subset].entries == bench.galleries[subset].entries
    q = bench.eval_quads[0]
    assert np.array_equal(loaded.patches(q.ref_image_id), bench.patches(q.ref_image_id))
    assert np.array_equal(
        loaded.text(q.text_context_id).tokens, bench.text(q.text_context_id).tokens
    )


def test_benchmark_files_deterministic(tmp_path):
    kwargs = dict(
        configs=small_configs(), seed=13, d_model=16, l_text=2,
        train_cap=3, eval_cap=4, n_distractors=4,
        thresholds={"fashion": FilterThresholds(4, 0.9, 0.85, 3)},
    )
    save_benchmark(tmp_path / "one", build_benchmark(**kwargs), config_hash="x")
    save_benchmark(tmp_path / "two", build_benchmark(**kwargs), config_hash="x")
    for name in ("world.bin", "quadruples_train.jsonl", "quadruples_eval.jsonl",
                 "gallery_fashion.jsonl", "stats.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_load_benchmark_missing_dir(tmp_path):
    with pytest.raises(DataError):
        load_benchmark(tmp_path / "nope")


def test_loader_rejects_a_box_that_covers_no_patch_center_of_its_grid(tmp_path):
    # two grids that share their column centers but not their row centers
    subsets = (("fashion", (4, 4)), ("car", (3, 4)))
    bench = build_benchmark(
        configs=[WorldConfig(subset=s, n_categories=2, instances_per_category=4,
                             images_per_instance=6, n_contexts=6, grid=grid, d_latent=8,
                             bbox_size_range=(0.4, 0.7), reserve_instances_per_category=3,
                             reserve_images_per_instance=3) for s, grid in subsets],
        seed=17, d_model=16, l_text=2, train_cap=3, eval_cap=5, n_distractors=6,
        thresholds={s: FilterThresholds(4, 0.95, 0.9, 3) for s, _ in subsets},
    )
    save_benchmark(tmp_path, bench)
    path = tmp_path / "quadruples_train.jsonl"
    head, *lines = path.read_text().splitlines()

    def covers(subset, box):
        try:
            region_mask_from_bbox([box], bench.world.configs[subset].grid)
        except EmptyMaskError:
            return False
        return True

    # (0.3, 0.3, 0.45, 0.45) holds the 4x4 center (0.375, 0.375) but no 3x4
    # center; (0.0, 0.0, 0.1, 0.1) lies between centers on both grids
    cases = [("car", (0.3, 0.3, 0.45, 0.45)), ("fashion", (0.3, 0.3, 0.45, 0.45)),
             ("fashion", (0.0, 0.0, 0.1, 0.1)), ("car", (0.0, 0.0, 0.1, 0.1))]
    assert [covers(s, box) for s, box in cases] == [False, True, False, False]
    for subset, box in cases:
        i = next(i for i, q in enumerate(bench.train_quads) if q.subset == subset)
        rec = json.loads(lines[i])
        rec["bbox"] = list(box)
        path.write_text("\n".join([head, *lines[:i], json.dumps(rec), *lines[i + 1:]]) + "\n")
        if covers(subset, box):
            assert load_benchmark(tmp_path).train_quads[i].bbox == box
        else:
            h, w = bench.world.configs[subset].grid
            with pytest.raises(DataError, match=rf"quadruples_train.jsonl\[{i}\].bbox: .* "
                                                rf"covers no patch center of the {h}x{w} grid"):
                load_benchmark(tmp_path)
