"""Frozen stand-in encoders for images and modification texts.

The visual encoder is a fixed random linear projection from latent space to
model space with orthonormal rows, so norms and inner products of latents
survive projection exactly. Both retrieval branches must share one instance
of it; nothing here ever receives gradients. Text is embedded by projecting
the target-context latent through one frozen matrix per token slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from focalcir.errors import ContractError
from focalcir.geometry import BBox


@dataclass
class SyntheticImage:
    """A latent patch grid with one planted instance region."""

    image_id: str
    instance_id: str
    category_id: str
    context_id: str
    subset: str
    bbox: BBox
    grid: np.ndarray  # (h, w, d_latent) float64


@dataclass(frozen=True)
class ContextDescriptor:
    """What the modification text 'says': the target context."""

    context_id: str
    latent: np.ndarray  # (d_latent,)


@dataclass
class TextEmbedding:
    context_id: str
    tokens: np.ndarray  # (l_text, d_model)


def _orthonormal_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if rows > cols:
        raise ContractError(f"cannot build {rows} orthonormal rows in dimension {cols}")
    q, r = np.linalg.qr(rng.normal(size=(cols, rows)))
    # fix the QR sign ambiguity so the map depends only on the rng stream
    q = q * np.sign(np.diag(r))
    return q.T.copy()


class EncoderParams:
    """Frozen projections, fully determined by (seed, dims)."""

    def __init__(self, seed: int, d_latent: int, d_model: int, l_text: int):
        self.seed = int(seed)
        self.d_latent = int(d_latent)
        self.d_model = int(d_model)
        self.l_text = int(l_text)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.image_proj = _orthonormal_rows(rng, d_latent, d_model)  # (d_latent, d_model)
        self.text_proj = np.stack(
            [_orthonormal_rows(rng, d_latent, d_model) for _ in range(l_text)]
        )  # (l_text, d_latent, d_model)


def encode_image(image: SyntheticImage | np.ndarray, enc: EncoderParams) -> np.ndarray:
    """Patch embeddings, raster order: (h*w, d_model)."""
    grid = image.grid if isinstance(image, SyntheticImage) else np.asarray(image)
    if grid.ndim != 3 or grid.shape[2] != enc.d_latent:
        raise ContractError(
            f"expected (h, w, {enc.d_latent}) latent grid, got shape {grid.shape}"
        )
    h, w, d = grid.shape
    return grid.reshape(h * w, d) @ enc.image_proj


def pooled_image_embeddings(images: list[SyntheticImage], enc: EncoderParams) -> np.ndarray:
    """(N, d_model): each image's mean patch embedding, the feature used by
    benchmark filtering. The images share one grid shape; one projection
    covers all their patches, and each row equals
    encode_image(image, enc).mean(axis=0)."""
    grids = np.stack([im.grid for im in images])
    n, h, w, d = grids.shape
    return (grids.reshape(n * h * w, d) @ enc.image_proj).reshape(n, h * w, -1).mean(axis=1)


def embed_text(descriptor: ContextDescriptor, enc: EncoderParams) -> TextEmbedding:
    latent = np.asarray(descriptor.latent, dtype=np.float64).reshape(-1)
    if latent.shape[0] != enc.d_latent:
        raise ContractError(f"context latent has dim {latent.shape[0]}, expected {enc.d_latent}")
    tokens = np.stack([latent @ enc.text_proj[i] for i in range(enc.l_text)])
    return TextEmbedding(context_id=descriptor.context_id, tokens=tokens)
