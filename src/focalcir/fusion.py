"""Multimodal fusion encoder with region-modulated cross-attention.

One post-norm layer (Vaswani et al. 2017, arXiv:1706.03762) runs (1)
self-attention over its tokens, (2) an optional cross-attention to the patch
embeddings, (3) a feed-forward layer, each with a post-norm residual. A layer
carries its head count, fixed when its weights are built. Fusion blocks have
(2), over [caller's tokens, fusion queries, text tokens], with text as
self-attention participants only; the CAAM's CRM layers do not.

The modulation: a binary region mask over patch columns is scaled by beta
and added to the raw cross-attention logits BEFORE division by sqrt(d_k).
With beta = 0 the bias vanishes bit-for-bit, so the unmodulated model is the
exact beta=0 special case. Beta may be a plain float, a differentiable 1x1
tensor (scalar form), or a 1xM tensor (vector form) that biases fusion-query
rows individually; with the vector form, the caller's and text rows get no
bias. One rule, `_logit_bias`, checks the mask and builds the bias for every
form: a column of per-row strengths (the float or 1x1 beta for every row,
or the vector beta over the fusion-query rows between zeros) times the mask
rows, in one matmul. Each of its products has one term, so the bias rounds
as the elementwise beta * mask does.
There are no positional embeddings: tokens interact as a set, and spatial
selection enters only through the mask.

A caller brings the tokens it reads: `multimodal_encode` puts them first
and returns their output rows, or the fusion queries' when it brings none.
So the rows read are always the first ones, and `run_layers` takes their
count: its last layer computes only those rows as self-attention queries,
while every token stays a key and value, so they are exactly the rows of a
full pass. The query branch brings its cls token, the modulation predictor
[cls, probes], and the target branch nothing; the CRM reads row 0, its cls.

Every attention runs in merged form, through the QK and OV circuits of
Elhage et al. 2021: per head, logits = (X W_Q W_K^T + b_Q W_K^T) P^T and
output = (A P)(W_V W_O) + (b_V W_O + b_O), where P are the keys/values
(patches, or the tokens themselves in self-attention). No attention
projects P, and one `attention` op runs all heads as an axis. b_V moves out
because attention rows sum to 1; b_K cancels exactly (q . b_K is the same
for every key of a row), so no attention has one. The four merged products
(W_K^T and three `head_products`, then a `linear`) depend on the weights
alone. Once its products exist, a layer is a handful of tape ops: one
`attention` per attention, one `residual_norm` per sub-layer and one
`feed_forward`.

`one_parameter_state` is the one reuse scope: inside it, `kept` builds a
value once and reuses it while the same owner objects ask for it, as each
attention's merged products (owner: its weights) and evaluation's galleries
and query chunks are. A scope opened inside one of the same tape joins it;
one opened under another tape starts its own. A training step opens one on
its tape around its probe, query and target passes, so the tape holds each
product once and backward sums every pass's gradient into it. Outside a
scope every call builds its own.

Batches: patches may be one image (n, d) or a batch (B, n, d), with one
region-mask row (B, 1, n) and one beta (B, 1, 1) or (B, 1, M) per sample.
The fusion queries and the caller's tokens are shared by the batch.
Block 0's self-attention sub-layer reads [tokens, fusion queries, text]
alone, so a caller may bring a batch's distinct texts and each sample's
index among them (`model.assemble_queries` groups them by their bytes): the
sub-layer then runs once per distinct text, and one `gather` op expands its
rows to the batch before the cross-attention. Cross-attention reads the
patches transposed, as one contiguous copy (`transposed_keys`) made once
per pass, or once per patch batch by a caller that runs several passes over
it, as the query branch does for its probe and query passes.
Images with fewer patches are zero-padded by `stack_patches`, whose additive
key mask puts -inf on the padded keys' logits; the region bias and the key
mask are one additive-logit term, the masked attention of Vaswani et al.
2017 (arXiv:1706.03762).
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterator, Sequence, TypeVar

import numpy as np

from focalcir.errors import ContractError
from focalcir.encoders import TextEmbedding
from focalcir.geometry import BBox, patch_membership, validate_bbox
from focalcir.numerics.tensor import (
    Tape,
    Tensor,
    active_tape,
    add,
    attention,
    concat_rows,
    constant,
    feed_forward,
    gather,
    head_products,
    linear,
    matmul,
    residual_norm,
    slice_rows,
    transpose,
    transposed_keys,
)

if TYPE_CHECKING:  # model imports this module
    from focalcir.model import ModelConfig

T = TypeVar("T")


def region_mask_from_bbox(boxes: Sequence[BBox], grid: tuple[int, int]) -> np.ndarray:
    """(B, n) binary membership of each patch (raster order) in each of B
    boxes on one grid: 1.0 iff the patch center lies inside it (half-open),
    from one vectorised test. Every box is validated, and the first box that
    covers no patch center raises ContractError naming it."""
    for b in boxes:
        validate_bbox(b)
    values = patch_membership(boxes, grid).astype(np.float64)
    empty = np.flatnonzero(~values.any(axis=1))
    if empty.size:
        h, w = grid
        raise ContractError(
            f"bbox {boxes[empty[0]]} covers no patch center on a {h}x{w} grid"
        )
    return values


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
            raise ContractError(f"patch sets must be non-empty (n, {d}) arrays, got {p.shape}")
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
    """Projections for one attention instance; wo/bo absent on the bare op.
    bk is accepted but never read: the key bias cancels in the softmax."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor | None = None
    bo: Tensor | None = None
    bk: Tensor | None = None


@dataclass
class LayerNormParams:
    gain: Tensor
    shift: Tensor


@dataclass
class FfnParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LayerParams:
    self_attn: AttentionParams
    ln_self: LayerNormParams
    ffn: FfnParams
    ln_ffn: LayerNormParams
    n_heads: int  # every attention of the layer splits d_model into this many heads
    cross_attn: AttentionParams | None = None  # fusion blocks only
    ln_cross: LayerNormParams | None = None


@dataclass
class FusionParams:
    """The shared multimodal encoder: M fusion query tokens plus blocks."""

    queries: Tensor  # (m, d_model)
    blocks: list[LayerParams]

    @property
    def d_model(self) -> int:
        return self.queries.data.shape[1]


def _logit_bias(
    mask: np.ndarray | None,
    beta,
    n_keys: int,
    n_rows: int,
    fq_span: tuple[int, int],
    key_mask: np.ndarray | None,
) -> Tensor | None:
    """The additive cross-attention logit term: beta * mask plus the key mask.

    mask is an (n,) row or (B, 1, n) rows over n_keys keys, every entry
    exactly 0 or 1; without one, beta must be exactly a scalar 0. A non-zero
    beta is a column of per-row strengths times the mask rows, in one
    matmul: a float or a 1x1 tensor is one strength for every query row; a
    1xM tensor gives fusion-query row m beta_m and every other row 0. Each
    product of that matmul has one term, so it rounds as beta * mask does.
    None means no bias at all, so beta = 0 without padding is plain
    attention."""
    zero = isinstance(beta, (int, float)) and float(beta) == 0.0
    if mask is not None:
        region = constant(mask)  # an (n,) row becomes (1, n)
        if not np.all((region.data == 0.0) | (region.data == 1.0)):
            raise ContractError("region mask entries must be exactly 0 or 1")
        if region.data.shape[-1] != n_keys:
            raise ContractError(f"mask covers {region.data.shape[-1]} keys but there are {n_keys}")
    elif not zero:
        raise ContractError("a non-zero beta requires a region mask")
    if zero:
        return None if key_mask is None else constant(key_mask)
    if isinstance(beta, (int, float)):
        strengths = constant([[float(beta)]])
    elif not isinstance(beta, Tensor):
        raise ContractError(f"beta must be a float or Tensor, got {type(beta).__name__}")
    elif beta.data.shape[-2:] == (1, 1):
        strengths = beta
    else:
        if beta.data.shape[-2] != 1:
            raise ContractError(f"vector beta must be 1 x m, got {beta.data.shape}")
        start, stop = fq_span
        if beta.data.shape[-1] != stop - start:
            raise ContractError(
                f"vector beta has {beta.data.shape[-1]} entries for {stop - start} fusion queries"
            )
        strengths = concat_rows([constant(np.zeros((start, 1))), transpose(beta),
                                 constant(np.zeros((n_rows - stop, 1)))])
    bias = matmul(strengths, region)
    return bias if key_mask is None else add(bias, constant(key_mask))


def _merged_products(params: AttentionParams, n_heads: int) -> tuple[Tensor, ...]:
    """W_Q W_K^T, b_Q W_K^T, W_V W_O and b_V W_O + b_O, heads as blocks."""
    wo, bo = params.wo, params.bo
    if wo is None:  # the bare op: its output projection is the identity
        d_model = params.wq.data.shape[1]
        wo, bo = constant(np.eye(d_model)), constant(np.zeros((1, d_model)))
    wk_t = transpose(params.wk)  # keys and values are kv itself: never projected
    return (head_products(params.wq, wk_t, n_heads), head_products(params.bq, wk_t, n_heads),
            head_products(params.wv, wo, n_heads, stack_rows=True), linear(params.bv, wo, bo))


# the open scopes of `one_parameter_state`, innermost last: each holds the
# tape it opened under and its kept values, by key, with their owners
_SCOPES: list[tuple[Tape | None, dict]] = []


@contextmanager
def one_parameter_state() -> Iterator[None]:
    """Within it, `kept` builds each value once and reuses it; outside it,
    every call builds its own. A scope opened inside one of the same tape
    joins it, and one opened under another tape starts its own. It holds
    one parameter state: close it before the weights change (an optimizer
    step, a checkpoint load, a gradcheck's perturbation)."""
    tape = active_tape()
    joined = bool(_SCOPES) and _SCOPES[-1][0] is tape
    _SCOPES.append((tape, _SCOPES[-1][1] if joined else {}))
    try:
        yield
    finally:
        _SCOPES.pop()


def kept(key: Hashable, owners: tuple, build: Callable[[], T]) -> T:
    """build(), kept under key in the open scope and reused while the same
    owner objects ask for it; other owners replace it. The entry holds its
    owners, so an id in a key stays theirs. Owners must not change in place
    while the scope is open."""
    if not _SCOPES:
        return build()
    tape, store = _SCOPES[-1]
    if active_tape() is not tape:  # what it built there would get no gradient here
        raise ContractError("a kept value was asked for under another tape "
                            "than the one its scope opened under")
    entry = store.get(key)
    if entry is None or not all(map(operator.is_, entry[0], owners)):
        store[key] = entry = (owners, build())
    return entry[1]


def _attention(
    tokens: Tensor,
    kv: Tensor,
    params: AttentionParams,
    n_heads: int,
    bias: Tensor | None = None,
    keys_t: np.ndarray | None = None,
) -> Tensor:
    products = kept(("merged products", id(params), n_heads), (params,),
                    lambda: _merged_products(params, n_heads))
    d_model = params.wq.data.shape[1]  # head_products has checked that n_heads splits it
    # the bias lands on raw logits, before 1/sqrt(d_k) scaling, in every head
    return attention(tokens, kv, *products, bias, 1.0 / math.sqrt(d_model // n_heads), keys_t)


def modulated_cross_attention(
    queries: Tensor,
    kv: Tensor,
    params: AttentionParams,
    mask: np.ndarray | None,
    beta,
    n_heads: int = 1,
) -> Tensor:
    """softmax((Q K^T + beta * mask) / sqrt(d_k)) V of projected Q, K and V,
    computed in the merged form of the module docstring: the keys and values
    are never projected, and b_K, which cancels, is not read.

    The mask covers key columns and is broadcast across every query row.
    Pass mask=None with beta=0 for plain cross-attention.
    """
    n_rows = queries.data.shape[-2]
    bias = _logit_bias(mask, beta, kv.data.shape[-2], n_rows, (0, n_rows), None)
    return _attention(queries, kv, params, n_heads, bias)


def ffn(tokens: Tensor, p: FfnParams) -> Tensor:
    return feed_forward(tokens, p.w1, p.b1, p.w2, p.b2)


def _layer_forward(
    tokens: Tensor,
    layer: LayerParams,
    kv: Tensor | None,
    bias: Tensor | None,
    keys_t: np.ndarray | None = None,
    rows: Tensor | None = None,
    index: np.ndarray | None = None,
) -> Tensor:
    """One layer computing rows, some of the tokens (default all of them);
    every token is a key and value of the self-attention. With index, the
    self-attention's output rows are gathered to one sample per entry."""
    rows = tokens if rows is None else rows
    attn = _attention(rows, tokens, layer.self_attn, layer.n_heads)
    rows = residual_norm(rows, attn, layer.ln_self.gain, layer.ln_self.shift)
    if index is not None:
        rows = gather(rows, index)
    if layer.cross_attn is not None:
        cross = _attention(rows, kv, layer.cross_attn, layer.n_heads, bias, keys_t)
        rows = residual_norm(rows, cross, layer.ln_cross.gain, layer.ln_cross.shift)
    return residual_norm(rows, ffn(rows, layer.ffn), layer.ln_ffn.gain, layer.ln_ffn.shift)


def run_layers(
    tokens: Tensor,
    layers: Sequence[LayerParams],
    n_read: int,
    kv: Tensor | None = None,
    bias: Tensor | None = None,
    keys_t: np.ndarray | None = None,
    index: np.ndarray | None = None,
) -> Tensor:
    """Every layer but the last runs on all tokens; the last computes only
    the first n_read rows, and a per-row bias is cut to match. With index,
    tokens hold one sample per distinct token set, the first layer's
    self-attention runs on those alone, and its output is gathered to the
    batch (sample i reads token set index[i]) before the cross-attention."""
    for layer in layers[:-1]:
        tokens = _layer_forward(tokens, layer, kv, bias, keys_t, index=index)
        index = None
    rows = tokens
    if n_read < tokens.data.shape[-2]:
        rows = slice_rows(tokens, 0, n_read)
        if bias is not None and bias.data.shape[-2] > 1:
            bias = slice_rows(bias, 0, n_read)
    return _layer_forward(tokens, layers[-1], kv, bias, keys_t, rows, index)


def multimodal_encode(
    patches: np.ndarray,
    text: TextEmbedding | np.ndarray | None,
    fusion: FusionParams,
    mask: np.ndarray | None = None,
    beta=0.0,
    tokens: Sequence[Tensor] = (),
    key_mask: np.ndarray | None = None,
    keys_t: np.ndarray | None = None,
    text_index: np.ndarray | None = None,
) -> Tensor:
    """Run the fusion encoder over [tokens, fusion queries, text?] x patches.

    For one image, mask is an (n,) row. For a batch, patches are (B, n, d),
    text is a (B, l, d) token array (with text_index, the U distinct texts,
    sample i reading text text_index[i]), mask is a (B, 1, n) array of
    per-sample mask rows (an all-zero row leaves its sample unmodulated),
    and key_mask is the additive padding mask from `stack_patches`. Without
    a mask, beta must be exactly 0 (target branch and the modulation
    predictor's own pass both run unmodulated).

    tokens are the caller's own token rows, shared by the batch. The
    encoder returns their output rows, or the fusion queries' when there
    are none; the last block computes only those rows. keys_t is
    `transposed_keys(patches)`, made here when not given; a caller that
    runs several passes over one patch batch makes it once for all."""
    kv = constant(np.asarray(patches, dtype=np.float64))
    n_keys = kv.data.shape[-2]
    if kv.data.shape[-1] != fusion.d_model:
        raise ContractError(
            f"patches have dim {kv.data.shape[-1]}, fusion expects {fusion.d_model}"
        )
    if key_mask is not None and key_mask.shape[-1] != n_keys:
        raise ContractError(f"key mask covers {key_mask.shape[-1]} keys but image has {n_keys}")

    n_own, m = sum(t.data.shape[-2] for t in tokens), fusion.queries.data.shape[0]
    parts = [*tokens, fusion.queries]
    if text is not None:
        parts.append(constant(text.tokens if isinstance(text, TextEmbedding) else text))
    sequence = concat_rows(parts) if len(parts) > 1 else parts[0]

    bias = _logit_bias(mask, beta, n_keys, sequence.data.shape[-2], (n_own, n_own + m), key_mask)
    if keys_t is None:
        keys_t = transposed_keys(kv.data)
    return run_layers(sequence, fusion.blocks, n_own or m, kv, bias, keys_t, text_index)


def encode_target(
    patches: np.ndarray, fusion: FusionParams, key_mask: np.ndarray | None = None
) -> Tensor:
    """Target-branch pass: the fusion queries' outputs, no text, no mask.
    Its blocks share one transposed copy of the patches."""
    return multimodal_encode(patches, text=None, fusion=fusion, key_mask=key_mask)


# ---------------------------------------------------------------------------
# initialization

# weight matrices are drawn from N(0, WEIGHT_INIT^2) and token rows (fusion
# queries, probes, cls tokens) from N(0, TOKEN_INIT^2)
WEIGHT_INIT = 0.1
TOKEN_INIT = 0.02
FFN_MULT = 2  # the feed-forward hidden width, in multiples of d_model


def init_attention_params(rng: np.random.Generator, config: ModelConfig) -> AttentionParams:
    d = config.d_model

    def w() -> Tensor:
        return Tensor(rng.normal(0.0, WEIGHT_INIT, size=(d, d)), requires_grad=True)

    def b() -> Tensor:
        return Tensor(np.zeros((1, d)), requires_grad=True)

    wo, bo = w(), b()  # drawn first: the rng order fixes every seeded model
    return AttentionParams(wq=w(), bq=b(), wk=w(), wv=w(), bv=b(), wo=wo, bo=bo)


def init_layer_norm(config: ModelConfig) -> LayerNormParams:
    return LayerNormParams(
        gain=Tensor(np.ones((1, config.d_model)), requires_grad=True),
        shift=Tensor(np.zeros((1, config.d_model)), requires_grad=True),
    )


def init_ffn(rng: np.random.Generator, config: ModelConfig) -> FfnParams:
    d, hidden = config.d_model, config.d_model * FFN_MULT
    return FfnParams(
        w1=Tensor(rng.normal(0.0, WEIGHT_INIT, size=(d, hidden)), requires_grad=True),
        b1=Tensor(np.zeros((1, hidden)), requires_grad=True),
        w2=Tensor(rng.normal(0.0, WEIGHT_INIT, size=(hidden, d)), requires_grad=True),
        b2=Tensor(np.zeros((1, d)), requires_grad=True),
    )


def init_layer(rng: np.random.Generator, config: ModelConfig, cross: bool) -> LayerParams:
    return LayerParams(  # draws in argument order: self-, cross-attention, FFN
        self_attn=init_attention_params(rng, config),
        cross_attn=init_attention_params(rng, config) if cross else None,
        ln_self=init_layer_norm(config),
        ln_cross=init_layer_norm(config) if cross else None,
        ffn=init_ffn(rng, config),
        ln_ffn=init_layer_norm(config),
        n_heads=config.n_heads,
    )


def init_fusion_params(rng: np.random.Generator, config: ModelConfig) -> FusionParams:
    """Fusion queries are frozen; the blocks train."""
    return FusionParams(
        queries=Tensor(rng.normal(0.0, TOKEN_INIT, size=(config.m_queries, config.d_model))),
        blocks=[init_layer(rng, config, cross=True) for _ in range(config.n_blocks)],
    )
