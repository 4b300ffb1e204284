"""Context-adaptive prediction of the attention modulation strength.

A bank of K probe tokens and a dedicated contextual cls token ride through
the (unmodulated, unmasked) fusion encoder together with the reference
patches and the modification text, as the tokens whose rows it returns. A
context reasoning module (CRM) then condenses [cls, probes] into a single
context vector, and a linear head maps it to the modulation output: a
scalar beta, or one beta per fusion query in the vector form. The head is
zero-initialized so an untrained model starts exactly at the unmodulated
baseline.

The CRM averages the rows (`avg`), applies the fusion encoder's FFN to
their mean (`mlp`), or runs fusion's post-norm layer without its
cross-attention (`transformer`, through `fusion.run_layers`, whose last
layer computes the cls row alone).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from focalcir.errors import ContractError
from focalcir.encoders import TextEmbedding
from focalcir.fusion import (
    TOKEN_INIT,
    WEIGHT_INIT,
    FfnParams,
    FusionParams,
    LayerParams,
    ffn,
    init_ffn,
    init_layer,
    multimodal_encode,
    run_layers,
)
from focalcir.numerics.tensor import Tensor, linear, mean_over_rows

if TYPE_CHECKING:  # model imports this module
    from focalcir.model import ModelConfig

CRM_VARIANTS = ("avg", "mlp", "transformer")
OUTPUT_FORMS = ("scalar", "vector")


@dataclass
class CrmParams:
    variant: str  # one of CRM_VARIANTS, as ModelConfig checks
    layers: list[LayerParams] = field(default_factory=list)  # transformer form
    mlp: FfnParams | None = None  # mlp form


@dataclass
class CaamParams:
    probes: Tensor  # (k, d_model)
    cls: Tensor  # (1, d_model), distinct from the representation cls
    crm: CrmParams
    wc: Tensor  # (d_model, 1) scalar form or (d_model, m) vector form
    bc: Tensor


def crm_forward(tokens: Tensor, crm: CrmParams) -> Tensor:
    """Condense a (k+1) x d token set (cls at row 0) into a 1 x d context,
    per sample when tokens are a (B, k+1, d) batch.

    The transformer's last layer computes row 0 alone, the only row that is
    read; every row stays a key and value of its self-attention."""
    if tokens.data.shape[-2] < 2:
        raise ContractError(f"CRM needs cls plus at least one probe, got {tokens.data.shape}")
    if crm.variant == "avg":
        return mean_over_rows(tokens)
    if crm.variant == "mlp":
        return ffn(mean_over_rows(tokens), crm.mlp)
    return run_layers(tokens, crm.layers, 1)


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
    rows = multimodal_encode(  # [cls, probes], unmodulated
        patches, text, fusion, tokens=(caam.cls, caam.probes), key_mask=key_mask
    )
    return linear(crm_forward(rows, caam.crm), caam.wc, caam.bc)


# ---------------------------------------------------------------------------
# initialization


def init_crm_params(rng: np.random.Generator, config: ModelConfig) -> CrmParams:
    variant = config.crm_variant
    if variant == "mlp":
        return CrmParams(variant, mlp=init_ffn(rng, config))
    if variant == "avg":
        return CrmParams(variant)
    return CrmParams(variant, layers=[init_layer(rng, config, cross=False)
                                      for _ in range(config.crm_layers)])


def init_caam_params(rng: np.random.Generator, config: ModelConfig, zero_head: bool) -> CaamParams:
    d = config.d_model
    out_dim = 1 if config.modulation == "scalar" else config.m_queries
    if zero_head:
        wc = np.zeros((d, out_dim))
        bc = np.zeros((1, out_dim))
    else:
        wc = rng.normal(0.0, WEIGHT_INIT, size=(d, out_dim))
        bc = rng.normal(0.0, WEIGHT_INIT, size=(1, out_dim))
    return CaamParams(
        probes=Tensor(
            rng.normal(0.0, TOKEN_INIT, size=(config.k_probes, d)), requires_grad=True
        ),
        cls=Tensor(rng.normal(0.0, TOKEN_INIT, size=(1, d)), requires_grad=True),
        crm=init_crm_params(rng, config),
        wc=Tensor(wc, requires_grad=True),
        bc=Tensor(bc, requires_grad=True),
    )
