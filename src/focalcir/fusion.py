"""Multimodal fusion encoder with region-modulated cross-attention.

Every block runs (1) self-attention over the token set [cls?, fusion
queries, extra tokens?, text tokens], (2) cross-attention from that set to
the patch embeddings, (3) a feed-forward layer, each with a post-norm
residual. Text tokens are self-attention participants only; patches are the
only cross-attention keys/values.

The modulation: a binary region mask over patch columns is scaled by beta
and added to the raw cross-attention logits BEFORE division by sqrt(d_k).
With beta = 0 the bias vanishes bit-for-bit, so the unmodulated model is the
exact beta=0 special case. Beta may be a plain float, a differentiable 1x1
tensor (scalar form), or a 1xM tensor (vector form) that biases fusion-query
rows individually; with the vector form, cls/text/extra rows get no bias.
There are no positional embeddings: tokens interact as a set, and spatial
selection enters only through the mask.

Batches: patches may be one image (n, d) or a batch (B, n, d), with one
region-mask row (B, 1, n) and one beta (B, 1, 1) or (B, 1, M) per sample.
The fusion queries, cls token and extra tokens are shared by the batch.
Images with fewer patches are zero-padded by `stack_patches`, whose additive
key mask puts -inf on the padded keys' logits; the region bias and the key
mask are one additive-logit term, the masked attention of Vaswani et al.
2017 (arXiv:1706.03762).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from focalcir.errors import (
    AlignmentError,
    ContractError,
    DimensionError,
    EmptyMaskError,
)
from focalcir.encoders import TextEmbedding
from focalcir.geometry import BBox, center_inside, patch_center, validate_bbox
from focalcir.numerics.tensor import (
    Tensor,
    add,
    add_bias,
    concat_cols,
    concat_rows,
    constant,
    gelu,
    layer_norm_rows,
    linear,
    matmul,
    scalar_times_const,
    scale,
    slice_cols,
    slice_rows,
    softmax_rows,
    transpose,
)


@dataclass
class RegionMask:
    """Binary membership of each patch (raster order) in the anchored box."""

    values: np.ndarray  # (n,) float64 of exactly {0.0, 1.0}
    grid: tuple[int, int]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        h, w = self.grid
        if self.values.shape[0] != h * w:
            raise AlignmentError(
                f"mask has {self.values.shape[0]} entries for a {h}x{w} grid"
            )
        if not np.all((self.values == 0.0) | (self.values == 1.0)):
            raise ContractError("region mask entries must be exactly 0 or 1")
        if not np.any(self.values == 1.0):
            raise EmptyMaskError("region mask selects no patches")

    @property
    def count(self) -> int:
        return int(self.values.sum())


def region_mask_from_bbox(bbox: BBox, grid: tuple[int, int]) -> RegionMask:
    """Mask entry is 1 iff the patch center lies inside bbox (half-open)."""
    validate_bbox(bbox)
    h, w = grid
    cx, cy = patch_center(np.arange(h)[:, None], np.arange(w)[None, :], grid)
    values = center_inside(bbox, cx, cy).reshape(-1).astype(np.float64)
    if not np.any(values == 1.0):
        raise EmptyMaskError(f"bbox {bbox} covers no patch center on a {h}x{w} grid")
    return RegionMask(values=values, grid=grid)


def stack_patches(patch_sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray | None]:
    """Stack per-image (n_i, d) patch sets into one (B, n, d) key batch.

    Sets shorter than the longest are zero-padded. The second value is the
    (B, 1, n) additive key mask, -inf on padded keys and 0 elsewhere, or None
    when nothing was padded."""
    if not patch_sets:
        raise ContractError("no patch sets to stack")
    d = patch_sets[0].shape[-1]
    for p in patch_sets:
        if p.ndim != 2 or p.shape[1] != d or p.shape[0] == 0:
            raise DimensionError(f"patch sets must be non-empty (n, {d}) arrays, got {p.shape}")
    lengths = [p.shape[0] for p in patch_sets]
    n = max(lengths)
    if min(lengths) == n:
        return np.stack(patch_sets), None
    padded = np.zeros((len(patch_sets), n, d))
    key_mask = np.zeros((len(patch_sets), 1, n))
    for i, p in enumerate(patch_sets):
        padded[i, : p.shape[0]] = p
        key_mask[i, 0, p.shape[0] :] = -np.inf
    return padded, key_mask


@dataclass
class AttentionParams:
    """Projections for one attention instance; wo/bo absent on the bare op."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor | None = None
    bo: Tensor | None = None


@dataclass
class LayerNormParams:
    gain: Tensor
    shift: Tensor


@dataclass
class FusionBlockParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ln_self: LayerNormParams
    ln_cross: LayerNormParams
    ln_ffn: LayerNormParams
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor


@dataclass
class FusionParams:
    """The shared multimodal encoder: M fusion query tokens plus blocks."""

    queries: Tensor  # (m, d_model)
    blocks: list[FusionBlockParams]
    n_heads: int = 1

    @property
    def m_queries(self) -> int:
        return self.queries.data.shape[0]

    @property
    def d_model(self) -> int:
        return self.queries.data.shape[1]


@dataclass
class EncodeResult:
    fused: Tensor  # (m, d) fusion-query outputs, (B, m, d) for a batch
    cls_out: Tensor | None
    extra_out: Tensor | None


def _logit_bias(
    mask_values: np.ndarray | None,
    beta,
    n_rows: int,
    fq_span: tuple[int, int],
    key_mask: np.ndarray | None,
) -> Tensor | None:
    """The additive cross-attention logit term: beta * mask plus the key mask.

    mask_values is (1, n) or (B, 1, n). Scalar beta biases every query row;
    vector beta biases only the fusion-query rows (row m gets beta_m). None
    means no bias at all, so beta = 0 without padding is plain attention."""
    if mask_values is None or (isinstance(beta, (int, float)) and float(beta) == 0.0):
        return None if key_mask is None else constant(key_mask)
    if isinstance(beta, (int, float)):
        fixed = float(beta) * mask_values
        return constant(fixed if key_mask is None else fixed + key_mask)
    if not isinstance(beta, Tensor):
        raise ContractError(f"beta must be a float or Tensor, got {type(beta).__name__}")
    if beta.data.shape[-2:] == (1, 1):
        bias = scalar_times_const(beta, mask_values)
    else:
        if beta.data.shape[-2] != 1:
            raise DimensionError(f"vector beta must be 1 x m, got {beta.data.shape}")
        start, stop = fq_span
        if beta.data.shape[-1] != stop - start:
            raise DimensionError(
                f"vector beta has {beta.data.shape[-1]} entries for {stop - start} fusion queries"
            )
        n = mask_values.shape[-1]
        bias = matmul(transpose(beta), constant(mask_values))  # (m, n) differentiable outer
        parts = [bias]
        if start > 0:
            parts.insert(0, constant(np.zeros((start, n))))
        if stop < n_rows:
            parts.append(constant(np.zeros((n_rows - stop, n))))
        bias = concat_rows(parts) if len(parts) > 1 else bias
    return bias if key_mask is None else add_bias(bias, constant(key_mask))


def _attention(
    tokens: Tensor,
    kv: Tensor,
    params: AttentionParams,
    n_heads: int,
    bias: Tensor | None = None,
) -> Tensor:
    d_model = params.wq.data.shape[1]
    if d_model % n_heads != 0:
        raise DimensionError(f"d_model {d_model} not divisible by {n_heads} heads")
    d_head = d_model // n_heads
    q = linear(tokens, params.wq, params.bq)
    k = linear(kv, params.wk, params.bk)
    v = linear(kv, params.wv, params.bv)
    head_outs = []
    for h in range(n_heads):
        lo, hi = h * d_head, (h + 1) * d_head
        qh = slice_cols(q, lo, hi) if n_heads > 1 else q
        kh = slice_cols(k, lo, hi) if n_heads > 1 else k
        vh = slice_cols(v, lo, hi) if n_heads > 1 else v
        logits = matmul(qh, transpose(kh))
        if bias is not None:
            # the bias lands on raw logits, before 1/sqrt(d_k) scaling,
            # and the same bias is applied in every head
            one_row = bias.data.shape[-2] == 1
            logits = add_bias(logits, bias) if one_row else add(logits, bias)
        attn = softmax_rows(scale(logits, 1.0 / math.sqrt(d_head)))
        head_outs.append(matmul(attn, vh))
    out = head_outs[0] if n_heads == 1 else concat_cols(head_outs)
    if params.wo is not None:
        out = linear(out, params.wo, params.bo)
    return out


def modulated_cross_attention(
    queries: Tensor,
    kv: Tensor,
    params: AttentionParams,
    mask: RegionMask | np.ndarray | None,
    beta,
    n_heads: int = 1,
) -> Tensor:
    """softmax((Q K^T + beta * mask) / sqrt(d_k)) V with projected Q, K, V.

    The mask covers key columns and is broadcast across every query row.
    Pass mask=None with beta=0 for plain cross-attention.
    """
    mask_values = mask.values if isinstance(mask, RegionMask) else mask
    if mask_values is None:
        scalar_zero = isinstance(beta, (int, float)) and float(beta) == 0.0
        if not scalar_zero:
            raise ContractError("a non-zero beta requires a region mask")
        return _attention(queries, kv, params, n_heads)
    mask_values = np.asarray(mask_values, dtype=np.float64).reshape(1, -1)
    if mask_values.shape[1] != kv.data.shape[-2]:
        raise AlignmentError(
            f"mask covers {mask_values.shape[1]} keys but kv has {kv.data.shape[-2]} rows"
        )
    n_rows = queries.data.shape[-2]
    bias = _logit_bias(mask_values, beta, n_rows, (0, n_rows), None)
    return _attention(queries, kv, params, n_heads, bias)


def _ffn(tokens: Tensor, block: FusionBlockParams) -> Tensor:
    hidden = gelu(linear(tokens, block.ffn_w1, block.ffn_b1))
    return linear(hidden, block.ffn_w2, block.ffn_b2)


def _block_forward(
    tokens: Tensor,
    kv: Tensor,
    block: FusionBlockParams,
    n_heads: int,
    bias: Tensor | None,
) -> Tensor:
    attn = _attention(tokens, tokens, block.self_attn, n_heads)
    tokens = layer_norm_rows(add(tokens, attn), block.ln_self.gain, block.ln_self.shift)
    cross = _attention(tokens, kv, block.cross_attn, n_heads, bias)
    tokens = layer_norm_rows(add(tokens, cross), block.ln_cross.gain, block.ln_cross.shift)
    ff = _ffn(tokens, block)
    return layer_norm_rows(add(tokens, ff), block.ln_ffn.gain, block.ln_ffn.shift)


def multimodal_encode(
    patches: np.ndarray | Tensor,
    text: TextEmbedding | np.ndarray | None,
    fusion: FusionParams,
    mask: RegionMask | np.ndarray | None = None,
    beta=0.0,
    cls_token: Tensor | None = None,
    extra_tokens: Tensor | None = None,
    patch_grid: tuple[int, int] | None = None,
    key_mask: np.ndarray | None = None,
) -> EncodeResult:
    """Run the fusion encoder over [cls?, queries, extras?, text?] x patches.

    For a batch, patches are (B, n, d), text is a (B, l, d) token array,
    mask is a (B, 1, n) array of per-sample mask rows (an all-zero row
    leaves its sample unmodulated), and key_mask is the additive padding
    mask from `stack_patches`. Without a mask, beta must be exactly 0
    (target branch and the modulation predictor's own pass both run
    unmodulated)."""
    kv = patches if isinstance(patches, Tensor) else constant(np.asarray(patches, dtype=np.float64))
    n_keys = kv.data.shape[-2]
    if kv.data.shape[-1] != fusion.d_model:
        raise DimensionError(
            f"patches have dim {kv.data.shape[-1]}, fusion expects {fusion.d_model}"
        )
    if key_mask is not None and key_mask.shape[-1] != n_keys:
        raise AlignmentError(f"key mask covers {key_mask.shape[-1]} keys but image has {n_keys}")
    if mask is None:
        scalar_zero = isinstance(beta, (int, float)) and float(beta) == 0.0
        if not scalar_zero:
            raise ContractError("multimodal_encode without a mask requires beta == 0")
        mask_values = None
    else:
        if isinstance(mask, RegionMask):
            if patch_grid is not None and mask.grid != tuple(patch_grid):
                raise AlignmentError(f"mask grid {mask.grid} != patch grid {tuple(patch_grid)}")
            mask_values = mask.values.reshape(1, -1)
        else:
            mask_values = np.asarray(mask, dtype=np.float64)
            if not np.all((mask_values == 0.0) | (mask_values == 1.0)):
                raise ContractError("region mask entries must be exactly 0 or 1")
        if mask_values.shape[-1] != n_keys:
            raise AlignmentError(
                f"mask covers {mask_values.shape[-1]} patches but image has {n_keys}"
            )

    parts: list[Tensor] = []
    if cls_token is not None:
        parts.append(cls_token)
    fq_start = sum(p.data.shape[0] for p in parts)
    parts.append(fusion.queries)
    fq_stop = fq_start + fusion.m_queries
    extra_start = fq_stop
    if extra_tokens is not None:
        parts.append(extra_tokens)
    extra_stop = extra_start + (extra_tokens.data.shape[0] if extra_tokens is not None else 0)
    if text is not None:
        parts.append(constant(text.tokens if isinstance(text, TextEmbedding) else text))
    tokens = concat_rows(parts) if len(parts) > 1 else parts[0]

    bias = _logit_bias(mask_values, beta, tokens.data.shape[-2], (fq_start, fq_stop), key_mask)
    for block in fusion.blocks:
        tokens = _block_forward(tokens, kv, block, fusion.n_heads, bias)

    fused = slice_rows(tokens, fq_start, fq_stop)
    cls_out = slice_rows(tokens, 0, 1) if cls_token is not None else None
    extra_out = (
        slice_rows(tokens, extra_start, extra_stop) if extra_tokens is not None else None
    )
    return EncodeResult(fused=fused, cls_out=cls_out, extra_out=extra_out)


def encode_target(
    patches: np.ndarray | Tensor, fusion: FusionParams, key_mask: np.ndarray | None = None
) -> Tensor:
    """Target-branch pass: fusion queries attend to patches, no text, no mask."""
    return multimodal_encode(patches, text=None, fusion=fusion, key_mask=key_mask).fused


# ---------------------------------------------------------------------------
# initialization


def init_attention_params(
    rng: np.random.Generator,
    d_model: int,
    weight_init: float,
    with_output: bool = True,
    trainable: bool = True,
) -> AttentionParams:
    def w() -> Tensor:
        return Tensor(rng.normal(0.0, weight_init, size=(d_model, d_model)), requires_grad=trainable)

    def b() -> Tensor:
        return Tensor(np.zeros((1, d_model)), requires_grad=trainable)

    wo, bo = (w(), b()) if with_output else (None, None)
    return AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(), wv=w(), bv=b(), wo=wo, bo=bo)


def init_layer_norm(d_model: int, trainable: bool = True) -> LayerNormParams:
    return LayerNormParams(
        gain=Tensor(np.ones((1, d_model)), requires_grad=trainable),
        shift=Tensor(np.zeros((1, d_model)), requires_grad=trainable),
    )


def init_fusion_block(
    rng: np.random.Generator, d_model: int, ffn_mult: int, weight_init: float, trainable: bool = True
) -> FusionBlockParams:
    hidden = d_model * ffn_mult
    return FusionBlockParams(
        self_attn=init_attention_params(rng, d_model, weight_init, trainable=trainable),
        cross_attn=init_attention_params(rng, d_model, weight_init, trainable=trainable),
        ln_self=init_layer_norm(d_model, trainable),
        ln_cross=init_layer_norm(d_model, trainable),
        ln_ffn=init_layer_norm(d_model, trainable),
        ffn_w1=Tensor(rng.normal(0.0, weight_init, size=(d_model, hidden)), requires_grad=trainable),
        ffn_b1=Tensor(np.zeros((1, hidden)), requires_grad=trainable),
        ffn_w2=Tensor(rng.normal(0.0, weight_init, size=(hidden, d_model)), requires_grad=trainable),
        ffn_b2=Tensor(np.zeros((1, d_model)), requires_grad=trainable),
    )


def init_fusion_params(
    rng: np.random.Generator,
    d_model: int,
    m_queries: int,
    n_blocks: int,
    n_heads: int = 1,
    ffn_mult: int = 2,
    token_init: float = 0.02,
    weight_init: float = 0.1,
) -> FusionParams:
    """Fusion queries are frozen; the blocks train."""
    return FusionParams(
        queries=Tensor(rng.normal(0.0, token_init, size=(m_queries, d_model))),
        blocks=[init_fusion_block(rng, d_model, ffn_mult, weight_init) for _ in range(n_blocks)],
        n_heads=n_heads,
    )
