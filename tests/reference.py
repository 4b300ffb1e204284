"""Plain-numpy references the package must reproduce: the forwards of
softmax, GELU and layer norm, which the fused tape ops `attention`,
`feed_forward` and `residual_norm` compute bit for bit; the one-pair cosine,
which `cosine_sim_matrix` computes for all pairs; and a world drawn and
rendered one image at a time, patch by patch, which the pooled renderer of
`generate_world` computes bit for bit."""

import math

import numpy as np

from focalcir.benchgen import world as world_module
from focalcir.benchgen.world import (
    SyntheticWorld,
    _context_schedule,
    _instance_latent,
    _sample_bbox,
    _unit,
)
from focalcir.encoders import ContextDescriptor, SyntheticImage
from focalcir.geometry import center_inside, patch_center

GELU_C = math.sqrt(2.0 / math.pi)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction. A -inf entry gets probability
    exactly 0, provided its row keeps a finite entry."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Smooth GELU, tanh form."""
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * (x * x * x))))


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Row-wise layer norm with a 1 x c gain and shift."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    return xc * inv * gain + shift


def cosine_sim(a, b) -> float:
    """Cosine similarity of two vectors."""
    a, b = np.ravel(a), np.ravel(b)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def render_loop(rng, cfg, identity, context, bbox):
    """One image's grid, patch by patch in raster order: the identity where
    the patch center lies in the box, else the context, plus sigma * noise,
    with the generator's sigma as it is when called."""
    sigma = world_module.NOISE_SIGMA
    h, w = cfg.grid
    grid = np.empty((h, w, cfg.d_latent))
    for r in range(h):
        for c in range(w):
            cx, cy = patch_center(r, c, cfg.grid)
            base = identity if center_inside(bbox, cx, cy) else context
            grid[r, c] = base + sigma * rng.normal(size=cfg.d_latent)
    return grid


def generate_world_per_image(configs, seed: int) -> SyntheticWorld:
    """`generate_world` with each image drawn and rendered alone by
    `render_loop`, in the generator's stream order."""
    world = SyntheticWorld(seed=seed, configs={c.subset: c for c in configs})
    for cfg, ss in zip(configs, np.random.SeedSequence(seed).spawn(len(configs))):
        rng = np.random.default_rng(ss)
        s = cfg.subset
        context_ids = [f"{s}/ctx{i:02d}" for i in range(cfg.n_contexts)]
        for cid in context_ids:
            world.contexts[cid] = ContextDescriptor(cid, _unit(rng, cfg.d_latent))
        for cat in range(cfg.n_categories):
            category_id = f"{s}/cat{cat}"
            proto = world.categories[category_id] = _unit(rng, cfg.d_latent)
            pools = (("inst", cfg.instances_per_category, cfg.images_per_instance, world.images),
                     ("res", cfg.reserve_instances_per_category, cfg.reserve_images_per_instance,
                      world.reserve_images))
            for tag, n_instances, n_images, sink in pools:
                for k in range(n_instances):
                    instance_id = f"{category_id}/{tag}{k:02d}"
                    identity = _instance_latent(rng, proto)
                    world.identities[instance_id] = identity
                    for i, ctx in enumerate(_context_schedule(rng, n_images, cfg.n_contexts)):
                        context = world.contexts[context_ids[ctx]]
                        bbox = _sample_bbox(rng, cfg)
                        grid = render_loop(rng, cfg, identity, context.latent, bbox)
                        sink.append(SyntheticImage(f"{instance_id}/img{i:02d}", instance_id,
                                                   category_id, context.context_id, s, bbox, grid))
    return world
