"""End-to-end benchmark assembly and the on-disk layout.

build_benchmark runs world generation, per-instance pair filtering with the
subset's threshold preset, the 8:2 instance split, and per-subset gallery
construction, returning everything in memory with lazy embedding caches.
save/load round-trip the same structure through the artifact files.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from focalcir.benchgen.filtering import PRESETS, FilterThresholds, filter_pairs
from focalcir.benchgen.gallery import GalleryManifest, GalleryEntry, build_gallery
from focalcir.benchgen.io import load_world, read_jsonl, save_world, write_jsonl
from focalcir.benchgen.quadruples import Quadruple, make_quadruples
from focalcir.benchgen.world import SyntheticWorld, WorldConfig, generate_world
from focalcir.encoders import (
    EncoderParams,
    SyntheticImage,
    TextEmbedding,
    embed_text,
    encode_image,
    pooled_image_embeddings,
)
from focalcir.errors import ConfigError, ContractError, DataError
from focalcir.geometry import patch_membership
from focalcir.records import from_record, open_file, parse_json, write_json


def default_world_configs() -> list[WorldConfig]:
    """Three dense subsets and one broad one, each sized to clear its
    tau_valid preset by one image."""
    return [
        WorldConfig(subset="fashion", instances_per_category=12, images_per_instance=9,
                    n_contexts=10),
        WorldConfig(subset="car", instances_per_category=12, images_per_instance=11,
                    n_contexts=10),
        WorldConfig(subset="product", instances_per_category=16, images_per_instance=21,
                    n_contexts=14),
        WorldConfig(subset="landmark", instances_per_category=12, images_per_instance=16,
                    n_contexts=12),
    ]


@dataclass
class BenchmarkSettings:
    """The build_benchmark arguments a saved benchmark records."""

    seed: int = field(metadata={"ge": 0})
    d_model: int = field(metadata={"ge": 1})
    l_text: int = field(metadata={"ge": 1})
    train_cap: int = field(metadata={"ge": 1})
    eval_cap: int = field(metadata={"ge": 1})
    n_distractors: int = field(metadata={"ge": 0})


@dataclass
class Benchmark:
    """A fully assembled benchmark plus lazy feature caches.

    `_by_id`, `_patches` and `_texts` depend on the world alone, so a view
    made with dataclasses.replace shares them with its parent. `_patches`
    holds the patch embeddings of the images queries refer to (about 64 x
    32 floats each on the default world); gallery images are encoded
    without it. `eval_inputs` is evaluation's memo of a view's assembled
    query inputs (see focalcir.evaluation), about 35 MB per roi_crop value on
    the default world; it is not an init field, so a replace view starts
    without it."""

    world: SyntheticWorld
    encoders: EncoderParams
    thresholds: dict[str, FilterThresholds]
    train_quads: list[Quadruple]
    eval_quads: list[Quadruple]
    galleries: dict[str, GalleryManifest]
    settings: BenchmarkSettings
    stats: dict[str, dict[str, int]]
    _by_id: dict[str, SyntheticImage] = field(default_factory=dict, repr=False)
    _patches: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _texts: dict[str, TextEmbedding] = field(default_factory=dict, repr=False)
    eval_inputs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for im in list(self.world.images) + list(self.world.reserve_images):
            self._by_id[im.image_id] = im

    @property
    def subsets(self) -> list[str]:
        return sorted(self.world.configs)

    def image(self, image_id: str) -> SyntheticImage:
        try:
            return self._by_id[image_id]
        except KeyError:
            raise DataError(f"unknown image id {image_id!r}") from None

    def patches(self, image_id: str) -> np.ndarray:
        if image_id not in self._patches:
            self._patches[image_id] = encode_image(self.image(image_id), self.encoders)
        return self._patches[image_id]

    def text(self, context_id: str) -> TextEmbedding:
        if context_id not in self._texts:
            try:
                descriptor = self.world.contexts[context_id]
            except KeyError:
                raise DataError(f"unknown context id {context_id!r}") from None
            self._texts[context_id] = embed_text(descriptor, self.encoders)
        return self._texts[context_id]

    def eval_quads_of(self, subset: str) -> list[Quadruple]:
        return [q for q in self.eval_quads if q.subset == subset]

    def train_quads_of(self, subsets: tuple[str, ...] | None) -> list[Quadruple]:
        """The train quadruples of `subsets` (every subset when None), in file order."""
        quads = self.train_quads
        if subsets is not None:
            quads = [q for q in quads if q.subset in subsets]
        if not quads:
            raise DataError("no training quadruples after the subset filter")
        return quads


def build_benchmark(
    configs: list[WorldConfig] | None = None,
    seed: int = 0,
    d_model: int = 32,
    l_text: int = 4,
    train_cap: int = 8,
    eval_cap: int = 20,
    n_distractors: int = 320,
    thresholds: dict[str, FilterThresholds] | None = None,
) -> Benchmark:
    # read as load_benchmark reads the saved settings, so both hold them to one range
    settings = from_record(BenchmarkSettings, {
        "seed": int(seed), "d_model": d_model, "l_text": l_text,
        "train_cap": train_cap, "eval_cap": eval_cap, "n_distractors": n_distractors,
    }, ConfigError)
    configs = default_world_configs() if configs is None else configs
    d_latents = {c.d_latent for c in configs}
    if len(d_latents) != 1:
        raise ConfigError(f"subsets disagree on d_latent: {sorted(d_latents)}")
    thresholds = dict(thresholds) if thresholds else {}
    for cfg in configs:
        if cfg.subset not in thresholds:
            if cfg.subset not in PRESETS:
                raise ConfigError(
                    f"no filter thresholds for subset {cfg.subset!r}; pass them explicitly"
                )
            thresholds[cfg.subset] = PRESETS[cfg.subset]
        thresholds[cfg.subset].validate()

    world = generate_world(configs, seed)
    enc = EncoderParams(
        seed=world.encoder_seed, d_latent=d_latents.pop(), d_model=d_model, l_text=l_text
    )

    by_instance: dict[str, list[SyntheticImage]] = {}
    for im in world.images:
        by_instance.setdefault(im.instance_id, []).append(im)
    pairs_by_instance: dict[str, list[tuple[str, str]]] = {}
    pair_counts: dict[str, int] = {}
    for iid in sorted(by_instance):
        subset = iid.split("/")[0]
        images = by_instance[iid]
        # one batched call gives every image of the instance its feature row
        row = dict(zip([im.image_id for im in images], pooled_image_embeddings(images, enc)))
        pairs = filter_pairs(images, thresholds[subset], lambda im: row[im.image_id])
        pair_counts[subset] = pair_counts.get(subset, 0) + len(pairs)
        if pairs:
            pairs_by_instance[iid] = pairs

    train_quads, eval_quads = make_quadruples(
        pairs_by_instance, world, seed=seed, train_cap=train_cap, eval_cap=eval_cap
    )
    galleries = {
        cfg.subset: build_gallery(
            [q for q in eval_quads if q.subset == cfg.subset],
            world.reserve_images, seed=seed, n_distractors=n_distractors,
        )
        for cfg in configs
    }

    counts = file_counts(world, train_quads, eval_quads, galleries)
    stats = {s: vars(SubsetStats(admissible_pairs=pair_counts.get(s, 0), **c))
             for s, c in counts.items()}
    return Benchmark(
        world=world, encoders=enc, thresholds=thresholds,
        train_quads=train_quads, eval_quads=eval_quads, galleries=galleries,
        settings=settings, stats=stats,
    )


def file_counts(world: SyntheticWorld, train_quads: list[Quadruple], eval_quads: list[Quadruple],
                galleries: dict[str, GalleryManifest]) -> dict[str, dict[str, int]]:
    """Each subset's SubsetStats counts but admissible_pairs: the ones its
    files determine. Both caps are at least 1, so the instances with pairs
    are the distinct instances of the quadruples."""
    tallies = {key: Counter([item.subset for item in items]) for key, items in (
        ("images", world.images), ("reserve_images", world.reserve_images),
        ("instances_with_pairs", {q.instance_id: q for q in [*train_quads, *eval_quads]}.values()),
        ("train_quadruples", train_quads), ("eval_quadruples", eval_quads))}
    return {s: {key: tally[s] for key, tally in tallies.items()}
            | {"gallery_size": len(g.entries), "gallery_targets": g.n_targets}
            for s, g in galleries.items()}


# ---------------------------------------------------------------------------
# on-disk layout


@dataclass
class SubsetStats:
    """One subset's counts in stats.json; a Benchmark holds them as a dict."""

    images: int
    reserve_images: int
    instances_with_pairs: int
    admissible_pairs: int
    train_quadruples: int
    eval_quadruples: int
    gallery_size: int
    gallery_targets: int


@dataclass
class _Summary:
    """stats.json: provenance, build settings, thresholds and per-subset counts."""

    config_hash: str
    settings: BenchmarkSettings
    thresholds: dict[str, FilterThresholds]
    stats: dict[str, SubsetStats]


def save_benchmark(out_dir, bench: Benchmark, config_hash: str = "") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = bench.settings.seed
    save_world(out / "world.bin", bench.world, config_hash=config_hash)
    # vars() is asdict() for these flat records, at a thirtieth of its cost
    # on the ~4.6k records of the default benchmark
    write_jsonl(out / "quadruples_train.jsonl", "quadruples",
                map(vars, bench.train_quads), seed, config_hash)
    write_jsonl(out / "quadruples_eval.jsonl", "quadruples",
                map(vars, bench.eval_quads), seed, config_hash)
    for subset, manifest in sorted(bench.galleries.items()):
        write_jsonl(out / f"gallery_{subset}.jsonl", "gallery",
                    map(vars, manifest.entries), seed, config_hash)
    summary = _Summary(config_hash, bench.settings, bench.thresholds,
                       {s: SubsetStats(**counts) for s, counts in bench.stats.items()})
    write_json(out / "stats.json", asdict(summary))


def load_benchmark(in_dir) -> Benchmark:
    src = Path(in_dir)
    stats_path = src / "stats.json"
    if not stats_path.exists():
        raise DataError(f"{src} does not contain a benchmark (missing stats.json)")
    with open_file(stats_path, DataError) as fh:
        raw = parse_json(fh.read(), DataError, stats_path)
    summary = from_record(_Summary, raw, DataError, str(stats_path), complete=True)

    def same_run(where, seed: int, config_hash: str) -> None:
        """A file of this benchmark carries the seed and config hash of stats.json."""
        for key, got, want in (("seed", seed, summary.settings.seed),
                               ("config_hash", config_hash, summary.config_hash)):
            if got != want:
                raise DataError(f"{where}: {key} {got!r} is not the {key} {want!r} "
                                f"of {stats_path}; its files come from two runs")

    world, world_hash = load_world(src / "world.bin")
    same_run(src / "world.bin", world.seed, world_hash)
    enc = EncoderParams(
        seed=world.encoder_seed,
        d_latent=next(iter(world.configs.values())).d_latent,
        d_model=summary.settings.d_model, l_text=summary.settings.l_text,
    )

    def records(name: str, kind: str, cls) -> list:
        where = str(src / name)
        header, recs = read_jsonl(where, expect_kind=kind)
        same_run(where, header.seed, header.config_hash)
        return [from_record(cls, r, DataError, f"{where}[{i}]", complete=True)
                for i, r in enumerate(recs)]

    galleries = {
        subset: GalleryManifest(records(f"gallery_{subset}.jsonl", "gallery", GalleryEntry))
        for subset in sorted(world.configs)
    }
    bench = Benchmark(
        world=world, encoders=enc, thresholds=summary.thresholds,
        train_quads=records("quadruples_train.jsonl", "quadruples", Quadruple),
        eval_quads=records("quadruples_eval.jsonl", "quadruples", Quadruple),
        galleries=galleries, settings=summary.settings,
        stats={s: vars(counts) for s, counts in summary.stats.items()},
    )
    _check_references(src, bench)
    counts = file_counts(world, bench.train_quads, bench.eval_quads, galleries)
    if bench.stats.keys() != counts.keys():
        raise DataError(f"{stats_path}.stats: subsets {sorted(bench.stats)} are not "
                        f"the world's {sorted(counts)}")
    for s, files_hold in counts.items():
        for key, n in files_hold.items():
            if (got := bench.stats[s][key]) != n:
                raise DataError(f"{stats_path}.stats.{s}.{key}: {got} is not the {n} "
                                f"its files hold")
    return bench


def _check_references(src: Path, bench: Benchmark) -> None:
    """Each quadruple names a context and images that show its instance,
    category and subset, and a box (in bounds, as its record declares) that
    covers a patch center of its subset's grid and is its ref image's box;
    each gallery entry names an image of its subset that shows its instance
    and category, and each gallery keeps the rules `GalleryManifest.validate`
    states against its subset's eval quadruples."""
    shows = {i: (im.instance_id, im.category_id, im.subset) for i, im in bench._by_id.items()}
    grids = {subset: tuple(c.grid) for subset, c in bench.world.configs.items()}

    def fault(at: str, record, via: tuple[str, ...], want: tuple[str, str, str]):
        """Raise naming the first broken reference of a record the fast test flagged."""
        for key in via:
            if (image_id := getattr(record, key)) not in shows:
                raise DataError(f"{at}.{key}: {image_id!r} is not an image of the world")
            for k, got, its in zip(("instance_id", "category_id", "subset"), want, shows[image_id]):
                if got != its:  # a gallery entry's subset is its file's
                    raise DataError(f"{at}.{k if hasattr(record, k) else key}: {got!r} is not "
                                    f"the {k} {its!r} of its {key} {image_id!r}")
        raise DataError(f"{at}.text_context_id: {record.text_context_id!r} is not a context")

    for name, quads in (("quadruples_train.jsonl", bench.train_quads),
                        ("quadruples_eval.jsonl", bench.eval_quads)):
        by_grid: dict[tuple[int, int], list[int]] = {}
        for i, q in enumerate(quads):
            want = (q.instance_id, q.category_id, q.subset)
            if (shows.get(q.ref_image_id) != want or shows.get(q.target_image_id) != want
                    or q.text_context_id not in bench.world.contexts):
                fault(f"{src / name}[{i}]", q, ("ref_image_id", "target_image_id"), want)
            by_grid.setdefault(grids[q.subset], []).append(i)
        covered = np.ones(len(quads), dtype=bool)
        for grid, rows in by_grid.items():
            covered[rows] = patch_membership([quads[i].bbox for i in rows], grid).any(axis=1)
        if (missed := np.flatnonzero(~covered)).size:
            q = quads[i := int(missed[0])]
            h, w = grids[q.subset]
            raise DataError(f"{src / name}[{i}].bbox: {list(q.bbox)} covers no patch center "
                            f"of the {h}x{w} grid of subset {q.subset!r}")
        for i, q in enumerate(quads):
            if q.bbox != (box := bench._by_id[q.ref_image_id].bbox):
                raise DataError(f"{src / name}[{i}].bbox: {list(q.bbox)} is not the bbox "
                                f"{list(box)} of its ref_image_id {q.ref_image_id!r}")
    for subset, manifest in bench.galleries.items():
        where = src / f"gallery_{subset}.jsonl"
        for i, e in enumerate(manifest.entries):
            if shows.get(e.image_id) != (want := (e.instance_id, e.category_id, subset)):
                fault(f"{where}[{i}]", e, ("image_id",), want)
        try:
            manifest.validate(bench.eval_quads_of(subset))
        except ContractError as exc:
            raise DataError(f"{where}: {exc}") from None
