"""Context-adaptive prediction of the attention modulation strength.

A bank of K probe tokens and a dedicated contextual cls token ride through
the (unmodulated, unmasked) fusion encoder together with the reference
patches and the modification text. A context reasoning module (CRM) then
condenses [cls, probes] into a single context vector, and a linear head maps
it to the modulation output: a scalar beta, or one beta per fusion query in
the vector form. The head is zero-initialized so an untrained model starts
exactly at the unmodulated baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from focalcir.errors import ContractError, DimensionError
from focalcir.encoders import TextEmbedding
from focalcir.fusion import (
    AttentionParams,
    FusionParams,
    LayerNormParams,
    _attention,
    init_attention_params,
    init_layer_norm,
    multimodal_encode,
)
from focalcir.numerics.tensor import (
    Tensor,
    add,
    concat_rows,
    gelu,
    layer_norm_rows,
    linear,
    mean_over_rows,
    slice_rows,
)

CRM_VARIANTS = ("avg", "mlp", "transformer")
OUTPUT_FORMS = ("scalar", "vector")


@dataclass
class CrmLayerParams:
    self_attn: AttentionParams
    ln_attn: LayerNormParams
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln_ffn: LayerNormParams


@dataclass
class CrmParams:
    variant: str
    layers: list[CrmLayerParams] = field(default_factory=list)  # transformer form
    mlp_w1: Tensor | None = None  # mlp form
    mlp_b1: Tensor | None = None
    mlp_w2: Tensor | None = None
    mlp_b2: Tensor | None = None

    def __post_init__(self):
        if self.variant not in CRM_VARIANTS:
            raise ContractError(f"unknown CRM variant {self.variant!r}, expected {CRM_VARIANTS}")


@dataclass
class CaamParams:
    probes: Tensor  # (k, d_model)
    cls: Tensor  # (1, d_model), distinct from the representation cls
    crm: CrmParams
    wc: Tensor  # (d_model, 1) scalar form or (d_model, m) vector form
    bc: Tensor
    output_form: str = "scalar"

    @property
    def k_probes(self) -> int:
        return self.probes.data.shape[0]


def crm_forward(tokens: Tensor, crm: CrmParams, n_heads: int = 1) -> Tensor:
    """Condense a (k+1) x d token set (cls at row 0) into a 1 x d context,
    per sample when tokens are a (B, k+1, d) batch."""
    if tokens.data.shape[-2] < 2:
        raise DimensionError(f"CRM needs cls plus at least one probe, got {tokens.data.shape}")
    if crm.variant == "avg":
        return mean_over_rows(tokens)
    if crm.variant == "mlp":
        pooled = mean_over_rows(tokens)
        hidden = gelu(linear(pooled, crm.mlp_w1, crm.mlp_b1))
        return linear(hidden, crm.mlp_w2, crm.mlp_b2)
    for layer in crm.layers:
        attn = _attention(tokens, tokens, layer.self_attn, n_heads)
        tokens = layer_norm_rows(add(tokens, attn), layer.ln_attn.gain, layer.ln_attn.shift)
        hidden = gelu(linear(tokens, layer.ffn_w1, layer.ffn_b1))
        ff = linear(hidden, layer.ffn_w2, layer.ffn_b2)
        tokens = layer_norm_rows(add(tokens, ff), layer.ln_ffn.gain, layer.ln_ffn.shift)
    return slice_rows(tokens, 0, 1)


def predict_beta(
    patches: np.ndarray,
    text: TextEmbedding | np.ndarray | None,
    fusion: FusionParams,
    caam: CaamParams,
    key_mask: np.ndarray | None = None,
) -> Tensor:
    """Modulation output for one query: 1x1 (scalar) or 1xM (vector); for a
    batch of queries (patches (B, n, d), text (B, l, d)), (B, 1, 1) or
    (B, 1, M).

    The probe pass itself runs with no mask and beta = 0; the box location is
    deliberately invisible here, only image content and text are. key_mask
    is the padding mask of `fusion.stack_patches`."""
    enc = multimodal_encode(
        patches,
        text,
        fusion,
        mask=None,
        beta=0.0,
        cls_token=caam.cls,
        extra_tokens=caam.probes,
        key_mask=key_mask,
    )
    tokens = concat_rows([enc.cls_out, enc.extra_out])
    context = crm_forward(tokens, caam.crm, n_heads=fusion.n_heads)
    out = linear(context, caam.wc, caam.bc)
    if caam.output_form == "scalar" and out.data.shape[-2:] != (1, 1):
        raise DimensionError(f"scalar modulation head produced shape {out.data.shape}")
    return out


# ---------------------------------------------------------------------------
# initialization


def init_crm_params(
    rng: np.random.Generator,
    variant: str,
    d_model: int,
    n_layers: int = 2,
    ffn_mult: int = 2,
    weight_init: float = 0.1,
) -> CrmParams:
    if variant == "avg":
        return CrmParams(variant="avg")
    if variant == "mlp":
        hidden = d_model * ffn_mult
        return CrmParams(
            variant="mlp",
            mlp_w1=Tensor(rng.normal(0.0, weight_init, size=(d_model, hidden)), requires_grad=True),
            mlp_b1=Tensor(np.zeros((1, hidden)), requires_grad=True),
            mlp_w2=Tensor(rng.normal(0.0, weight_init, size=(hidden, d_model)), requires_grad=True),
            mlp_b2=Tensor(np.zeros((1, d_model)), requires_grad=True),
        )
    if variant != "transformer":
        raise ContractError(f"unknown CRM variant {variant!r}, expected {CRM_VARIANTS}")
    layers = []
    hidden = d_model * ffn_mult
    for _ in range(n_layers):
        layers.append(
            CrmLayerParams(
                self_attn=init_attention_params(rng, d_model, weight_init),
                ln_attn=init_layer_norm(d_model),
                ffn_w1=Tensor(rng.normal(0.0, weight_init, size=(d_model, hidden)), requires_grad=True),
                ffn_b1=Tensor(np.zeros((1, hidden)), requires_grad=True),
                ffn_w2=Tensor(rng.normal(0.0, weight_init, size=(hidden, d_model)), requires_grad=True),
                ffn_b2=Tensor(np.zeros((1, d_model)), requires_grad=True),
                ln_ffn=init_layer_norm(d_model),
            )
        )
    return CrmParams(variant="transformer", layers=layers)


def init_caam_params(
    rng: np.random.Generator,
    d_model: int,
    k_probes: int,
    m_queries: int,
    crm_variant: str = "transformer",
    crm_layers: int = 2,
    output_form: str = "scalar",
    probes_learnable: bool = True,
    token_init: float = 0.02,
    weight_init: float = 0.1,
    ffn_mult: int = 2,
    zero_head: bool = True,
) -> CaamParams:
    if output_form not in OUTPUT_FORMS:
        raise ContractError(f"unknown modulation form {output_form!r}, expected {OUTPUT_FORMS}")
    out_dim = 1 if output_form == "scalar" else m_queries
    if zero_head:
        wc = np.zeros((d_model, out_dim))
        bc = np.zeros((1, out_dim))
    else:
        wc = rng.normal(0.0, weight_init, size=(d_model, out_dim))
        bc = rng.normal(0.0, weight_init, size=(1, out_dim))
    return CaamParams(
        probes=Tensor(
            rng.normal(0.0, token_init, size=(k_probes, d_model)),
            requires_grad=probes_learnable,
        ),
        cls=Tensor(rng.normal(0.0, token_init, size=(1, d_model)), requires_grad=True),
        crm=init_crm_params(rng, crm_variant, d_model, crm_layers, ffn_mult, weight_init),
        wc=Tensor(wc, requires_grad=True),
        bc=Tensor(bc, requires_grad=True),
        output_form=output_form,
    )
