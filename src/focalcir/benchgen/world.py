"""Synthetic world generation: instances, contexts, and planted-region images.

Every image is a latent patch grid holding exactly one planted instance
region: patches whose centers fall inside the box carry the instance
identity plus noise, all others carry the image's context plus noise.
Identities cluster around a category prototype, so same-category instances
are genuinely confusable, and a held-out reserve pool of extra instances per
category supplies gallery distractors that never appear in any quadruple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from focalcir.encoders import ContextDescriptor, SyntheticImage
from focalcir.errors import ConfigError
from focalcir.geometry import patch_membership, validate_bbox
from focalcir.records import ConfigSection


@dataclass
class WorldConfig(ConfigSection):
    """Per-subset generation knobs."""

    subset: str
    n_categories: int = field(default=5, metadata={"ge": 1})
    instances_per_category: int = field(default=12, metadata={"ge": 1})
    images_per_instance: int = field(default=9, metadata={"ge": 2})  # distinct ref and target
    n_contexts: int = field(default=10, metadata={"ge": 1})
    grid: tuple[int, int] = field(default=(8, 8), metadata={"ge": 1})
    d_latent: int = field(default=16, metadata={"ge": 2})
    bbox_size_range: tuple[float, float] = field(default=(0.25, 0.5), metadata={"gt": 0.0, "le": 1.0})
    reserve_instances_per_category: int = field(default=12, metadata={"ge": 0})
    reserve_images_per_instance: int = field(default=8, metadata={"ge": 0})

    def rules(self) -> str | None:
        # the minimum side must exceed one patch spacing, so the planted
        # region always covers at least one patch center
        spacing = max(1.0 / self.grid[0], 1.0 / self.grid[1])
        lo, hi = self.bbox_size_range
        if not spacing < lo <= hi:
            return (f"bbox_size_range {self.bbox_size_range} must satisfy "
                    f"{spacing:g} (one patch spacing) < lo <= hi")


@dataclass
class SyntheticWorld:
    """One generated benchmark world (all subsets)."""

    seed: int
    configs: dict[str, WorldConfig]
    images: list[SyntheticImage] = field(default_factory=list, init=False)
    reserve_images: list[SyntheticImage] = field(default_factory=list, init=False)
    contexts: dict[str, ContextDescriptor] = field(default_factory=dict, init=False)
    identities: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    categories: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    @property
    def encoder_seed(self) -> int:
        # the frozen feature encoder is pinned to the world so filtering,
        # training, and evaluation all share one projection
        return self.seed


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


IDENTITY_DELTA = 0.35  # the spread of instance identities around their prototype


def _instance_latent(rng: np.random.Generator, proto: np.ndarray) -> np.ndarray:
    # the spread scales a unit direction, so the cluster radius (and the
    # within-category cosine ~ 1/(1+delta^2)) is dimension-independent
    v = proto + IDENTITY_DELTA * _unit(rng, proto.shape[0])
    return v / np.linalg.norm(v)


def _sample_bbox(rng: np.random.Generator, cfg: WorldConfig):
    # one draw of four doubles, each mapped as low + (high - low) * u: what
    # four scalar rng.uniform(low, high) calls compute from the same doubles
    # (a low of 0.0 adds nothing to the non-negative product)
    lo, hi = cfg.bbox_size_range
    uw, uh, ux, uy = rng.random(4).tolist()
    w = lo + (hi - lo) * uw
    h = lo + (hi - lo) * uh
    x0 = (1.0 - w) * ux
    y0 = (1.0 - h) * uy
    bbox = (x0, y0, x0 + w, y0 + h)
    validate_bbox(bbox)
    return bbox


NOISE_SIGMA = 0.1  # the std of the noise on every patch latent


def _render_pool(noise: np.ndarray, planted: list, cfg: WorldConfig) -> None:
    """Turns a pool's (N, h, w, d_latent) block of standard-normal noise into
    its N grids in place: patches whose centers fall inside an image's box
    carry its identity, the rest its context. Each element is sigma * z plus
    its base, the operands of base + sigma * z, so the grids are bit-identical
    to rendering each image alone. `planted` holds one (identity, context,
    bbox) per image, in block order."""
    if not planted:
        return
    identities, contexts, boxes = zip(*planted)
    h, w = cfg.grid
    inside = patch_membership(boxes, cfg.grid).reshape(-1, h, w, 1)
    noise *= NOISE_SIGMA
    noise += np.where(inside, np.stack(identities)[:, None, None],
                      np.stack(contexts)[:, None, None])


def _context_schedule(rng: np.random.Generator, n_images: int, n_contexts: int) -> list[int]:
    # round-robin over a shuffled context order: context reuse within an
    # instance is as even as possible, so no image accumulates enough
    # near-duplicates to trip the centric filter on default worlds
    perm = rng.permutation(n_contexts)
    return [int(perm[i % n_contexts]) for i in range(n_images)]


def _generate_subset(world: SyntheticWorld, cfg: WorldConfig, ss: np.random.SeedSequence) -> None:
    cfg.validate()
    rng = np.random.default_rng(ss)
    s = cfg.subset
    context_ids = [f"{s}/ctx{i:02d}" for i in range(cfg.n_contexts)]
    for cid in context_ids:
        world.contexts[cid] = ContextDescriptor(context_id=cid, latent=_unit(rng, cfg.d_latent))
    pools = (
        ("inst", cfg.instances_per_category, cfg.images_per_instance, world.images),
        ("res", cfg.reserve_instances_per_category, cfg.reserve_images_per_instance, world.reserve_images),
    )
    # each pool's noise fills one block in stream order, and each image's
    # grid is a view of its row; the block is rendered once the pool is drawn
    blocks = [np.empty((cfg.n_categories * n_instances * n_images, *cfg.grid, cfg.d_latent))
              for _, n_instances, n_images, _ in pools]
    planted: list[list] = [[] for _ in pools]
    for cat in range(cfg.n_categories):
        category_id = f"{s}/cat{cat}"
        proto = _unit(rng, cfg.d_latent)
        world.categories[category_id] = proto
        for (tag, n_instances, n_images, sink), block, drawn in zip(pools, blocks, planted):
            for k in range(n_instances):
                instance_id = f"{category_id}/{tag}{k:02d}"
                world.identities[instance_id] = _instance_latent(rng, proto)
                schedule = _context_schedule(rng, n_images, cfg.n_contexts)
                for i, ctx_idx in enumerate(schedule):
                    ctx_id = context_ids[ctx_idx]
                    bbox = _sample_bbox(rng, cfg)
                    grid = block[len(drawn)]
                    # the z that rng.normal(size=grid.shape) returns as
                    # 0.0 + 1.0 * z, equal but for the sign of a zero, which
                    # adding the base erases; an (h, w, d) request takes the
                    # same stream as h*w requests of size d in raster order
                    rng.standard_normal(out=grid)
                    drawn.append(
                        (world.identities[instance_id], world.contexts[ctx_id].latent, bbox))
                    sink.append(
                        SyntheticImage(
                            image_id=f"{instance_id}/img{i:02d}",
                            instance_id=instance_id,
                            category_id=category_id,
                            context_id=ctx_id,
                            subset=s,
                            bbox=bbox,
                            grid=grid,
                        )
                    )
    for block, drawn in zip(blocks, planted):
        _render_pool(block, drawn, cfg)


def generate_world(configs: list[WorldConfig], seed: int) -> SyntheticWorld:
    """Deterministic multi-subset world; each subset draws from its own stream."""
    names = [c.subset for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate subset labels in world configs: {names}")
    world = SyntheticWorld(seed=int(seed), configs={c.subset: c for c in configs})
    children = np.random.SeedSequence(int(seed)).spawn(len(configs))
    for cfg, child in zip(configs, children):
        _generate_subset(world, cfg, child)
    return world
