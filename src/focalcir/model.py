"""The retrieval model: query/target branches, loss, training, checkpoints.

The query branch encodes (reference patches, box, text) with the modulated
fusion encoder and reads the representation off a dedicated cls token; the
target branch encodes target patches alone and mean-pools the fusion-query
outputs. Both project into the shared embedding space and l2-normalize.
Both branches take one sample or a batch and run a batch as one forward
pass, so a training step records one tape over its whole batch.
Training minimizes a one-directional in-batch contrastive loss (query ->
target) at fixed temperature, with two AdamW groups: the modulation
predictor trains 10x faster than the encoder stack, mirroring the reference
setting's differential rates.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

import numpy as np

from focalcir.caam import init_caam_params, predict_beta
from focalcir.encoders import EncoderParams, TextEmbedding
from focalcir.errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
)
from focalcir.fusion import (
    encode_target,
    init_fusion_params,
    multimodal_encode,
    region_mask_from_bbox,
    stack_patches,
)
from focalcir.geometry import BBox
from focalcir.numerics.optim import AdamState, adam_step
from focalcir.records import (
    canonical_json,
    from_record,
    open_file,
    read_block,
    read_header,
    write_container,
)
from focalcir.numerics.tensor import (
    Tape,
    Tensor,
    backward,
    l2_normalize_rows,
    linear,
    log_softmax_diag,
    matmul,
    mean_over_rows,
    scale,
    squeeze_rows,
    sum_all,
    transpose,
)

_UNIT_ROW_TOL = 1e-6


@dataclass
class ModelConfig:
    """Architecture knobs; defaults are the desk-scale configuration."""

    d_model: int = 32
    d_embed: int = 32
    m_queries: int = 8
    k_probes: int = 8
    l_text: int = 4
    n_blocks: int = 2
    n_heads: int = 1
    ffn_mult: int = 2
    crm_variant: str = "transformer"
    crm_layers: int = 2
    modulation: str = "scalar"  # "scalar" | "vector"
    probes_learnable: bool = True
    token_init: float = 0.02
    weight_init: float = 0.1
    tau: float = 0.07  # fixed contrastive temperature

    def validate(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("d_model", "d_embed", "m_queries", "k_probes", "l_text", "n_blocks", "ffn_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.crm_variant not in ("avg", "mlp", "transformer"):
            raise ConfigError(f"unknown crm_variant {self.crm_variant!r}")
        if self.modulation not in ("scalar", "vector"):
            raise ConfigError(f"unknown modulation form {self.modulation!r}")
        if not (0.0 < self.tau):
            raise ConfigError("tau must be positive")


@dataclass
class TrainConfig:
    """Desk-scale training defaults.

    The learning rates keep the reference setting's 10:1 ratio between the
    modulation predictor and the encoder stack, but are raised for training
    from random initialization; a fine-tuning run on pretrained weights
    would use 1e-4 / 1e-5.
    """

    epochs: int = 10
    batch_size: int = 32
    lr_caam: float = 2e-3
    lr_encoder: float = 2e-4
    weight_decay: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-8
    seed: int = 7
    fixed_beta: float | None = None  # None trains the adaptive model
    subsets: tuple[str, ...] | None = None  # restrict training data, e.g. leave-one-out
    roi_crop: bool = False  # crop-to-box ablation branch

    def validate(self) -> None:
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 for in-batch contrast")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        for name in ("lr_caam", "lr_encoder"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass
class QuerySample:
    """A resolved retrieval query (embeddings, not ids)."""

    patches: np.ndarray  # (n, d_model) reference patch embeddings
    grid: tuple[int, int]
    bbox: BBox | None
    text: TextEmbedding


@dataclass
class TrainExample:
    query: QuerySample
    target_patches: np.ndarray


class ModelParams:
    """All weights plus the frozen encoders, seeded and enumerable by name."""

    def __init__(
        self,
        config: ModelConfig,
        encoders: EncoderParams,
        seed: int,
        zero_modulation_head: bool = True,
    ):
        config.validate()
        if encoders.d_model != config.d_model or encoders.l_text != config.l_text:
            raise DimensionError(
                f"encoder dims ({encoders.d_model}, l_text={encoders.l_text}) do not match "
                f"model config ({config.d_model}, l_text={config.l_text})"
            )
        self.config = config
        self.encoders = encoders
        self.seed = int(seed)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.fusion = init_fusion_params(
            rng,
            config.d_model,
            config.m_queries,
            config.n_blocks,
            n_heads=config.n_heads,
            ffn_mult=config.ffn_mult,
            token_init=config.token_init,
            weight_init=config.weight_init,
        )
        self.caam = init_caam_params(
            rng,
            config.d_model,
            config.k_probes,
            config.m_queries,
            crm_variant=config.crm_variant,
            crm_layers=config.crm_layers,
            output_form=config.modulation,
            probes_learnable=config.probes_learnable,
            token_init=config.token_init,
            weight_init=config.weight_init,
            ffn_mult=config.ffn_mult,
            zero_head=zero_modulation_head,
        )
        self.rep_cls = Tensor(
            rng.normal(0.0, config.token_init, size=(1, config.d_model)), requires_grad=True
        )
        self.w_query = Tensor(
            rng.normal(0.0, config.weight_init, size=(config.d_model, config.d_embed)),
            requires_grad=True,
        )
        self.b_query = Tensor(np.zeros((1, config.d_embed)), requires_grad=True)
        self.w_target = Tensor(
            rng.normal(0.0, config.weight_init, size=(config.d_model, config.d_embed)),
            requires_grad=True,
        )
        self.b_target = Tensor(np.zeros((1, config.d_embed)), requires_grad=True)
        self.tau = config.tau

    # -- enumeration ---------------------------------------------------------

    @staticmethod
    def _attention_named(prefix: str, a) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.wq", a.wq), (f"{prefix}.bq", a.bq),
            (f"{prefix}.wk", a.wk), (f"{prefix}.bk", a.bk),
            (f"{prefix}.wv", a.wv), (f"{prefix}.bv", a.bv),
            (f"{prefix}.wo", a.wo), (f"{prefix}.bo", a.bo),
        ]

    def _fusion_named(self) -> list[tuple[str, Tensor]]:
        out = [("fusion.queries", self.fusion.queries)]
        for i, b in enumerate(self.fusion.blocks):
            p = f"fusion.block{i}"
            out += self._attention_named(f"{p}.self", b.self_attn)
            out += self._attention_named(f"{p}.cross", b.cross_attn)
            out += [
                (f"{p}.ln_self.gain", b.ln_self.gain), (f"{p}.ln_self.shift", b.ln_self.shift),
                (f"{p}.ln_cross.gain", b.ln_cross.gain), (f"{p}.ln_cross.shift", b.ln_cross.shift),
                (f"{p}.ln_ffn.gain", b.ln_ffn.gain), (f"{p}.ln_ffn.shift", b.ln_ffn.shift),
                (f"{p}.ffn.w1", b.ffn_w1), (f"{p}.ffn.b1", b.ffn_b1),
                (f"{p}.ffn.w2", b.ffn_w2), (f"{p}.ffn.b2", b.ffn_b2),
            ]
        return out

    def _caam_named(self) -> list[tuple[str, Tensor]]:
        c = self.caam
        out = [("caam.probes", c.probes), ("caam.cls", c.cls)]
        crm = c.crm
        if crm.variant == "mlp":
            out += [
                ("caam.crm.mlp.w1", crm.mlp_w1), ("caam.crm.mlp.b1", crm.mlp_b1),
                ("caam.crm.mlp.w2", crm.mlp_w2), ("caam.crm.mlp.b2", crm.mlp_b2),
            ]
        elif crm.variant == "transformer":
            for i, layer in enumerate(crm.layers):
                p = f"caam.crm.layer{i}"
                out += self._attention_named(f"{p}.self", layer.self_attn)
                out += [
                    (f"{p}.ln_attn.gain", layer.ln_attn.gain),
                    (f"{p}.ln_attn.shift", layer.ln_attn.shift),
                    (f"{p}.ffn.w1", layer.ffn_w1), (f"{p}.ffn.b1", layer.ffn_b1),
                    (f"{p}.ffn.w2", layer.ffn_w2), (f"{p}.ffn.b2", layer.ffn_b2),
                    (f"{p}.ln_ffn.gain", layer.ln_ffn.gain),
                    (f"{p}.ln_ffn.shift", layer.ln_ffn.shift),
                ]
        out += [("caam.wc", c.wc), ("caam.bc", c.bc)]
        return out

    def named_params(self) -> list[tuple[str, Tensor]]:
        """Every weight tensor in a stable order (frozen ones included)."""
        out = self._fusion_named()
        out += self._caam_named()
        out += [
            ("rep_cls", self.rep_cls),
            ("head.query.w", self.w_query), ("head.query.b", self.b_query),
            ("head.target.w", self.w_target), ("head.target.b", self.b_target),
        ]
        return out

    def param_groups(self) -> dict[str, list[Tensor]]:
        """Trainable tensors split into the two optimizer groups."""
        caam, encoder = [], []
        for name, t in self.named_params():
            if not t.requires_grad:
                continue
            (caam if name.startswith("caam.") else encoder).append(t)
        return {"caam": caam, "encoder": encoder}


# ---------------------------------------------------------------------------
# forward passes


def query_representation(
    samples: QuerySample | Sequence[QuerySample],
    params: ModelParams,
    beta_override: float | None = None,
    use_bbox: bool = True,
    roi_crop: bool = False,
):
    """f_q plus the modulation actually applied, for one query or a batch.

    One QuerySample gives a 1 x d_embed tensor and its applied modulation (a
    float, or a 1 x M array in vector form). A sequence is encoded as one
    batch and gives B x d_embed rows and a list of per-sample applied values.
    beta_override bypasses the predictor entirely and applies the given
    constant; use_bbox=False drops the box (and the mask) altogether. A
    box-less sample gets a zero mask row, so its applied modulation is 0.
    """
    single = isinstance(samples, QuerySample)
    batch = [samples] if single else list(samples)
    if not batch:
        raise ContractError("no query samples")
    masks: list[np.ndarray | None] = [None] * len(batch)
    if use_bbox:
        by_grid: dict[tuple[int, int], list[int]] = {}
        for i, s in enumerate(batch):
            if s.bbox is not None:
                by_grid.setdefault(tuple(s.grid), []).append(i)
        for grid, rows in by_grid.items():
            # one vectorised call per distinct grid
            for i, m in zip(rows, region_mask_from_bbox([batch[i].bbox for i in rows], grid)):
                masks[i] = m
    for s, m in zip(batch, masks):
        if m is not None and m.shape[0] != s.patches.shape[0]:
            raise AlignmentError(
                f"mask covers {m.shape[0]} patches but image has {s.patches.shape[0]}"
            )
    text = np.stack([s.text.tokens for s in batch])
    if roi_crop:
        patch_sets = [
            s.patches if m is None else s.patches[m == 1.0] for s, m in zip(batch, masks)
        ]
    else:
        patch_sets = [s.patches for s in batch]
    patches, key_mask = stack_patches(patch_sets)
    applied: list = [0.0] * len(batch)
    mask_rows, beta = None, 0.0
    if not roi_crop and any(m is not None for m in masks):
        mask_rows = np.zeros((len(batch), 1, patches.shape[1]))
        for i, m in enumerate(masks):
            if m is not None:
                mask_rows[i, 0, : m.shape[0]] = m
        if beta_override is not None:
            beta = float(beta_override)
            applied = [0.0 if m is None else beta for m in masks]
        else:
            beta = predict_beta(patches, text, params.fusion, params.caam, key_mask=key_mask)
            applied = [
                0.0 if m is None else (float(b[0, 0]) if b.shape == (1, 1) else b.copy())
                for m, b in zip(masks, beta.data)
            ]
    enc = multimodal_encode(
        patches, text, params.fusion, mask=mask_rows, beta=beta, key_mask=key_mask,
        cls_token=params.rep_cls,
    )
    # project per sample, then drop the row axis: one (B*1)-row GEMM would
    # round differently from the 1-row GEMM a single query gets
    f_q = l2_normalize_rows(squeeze_rows(linear(enc.cls_out, params.w_query, params.b_query)))
    return (f_q, applied[0]) if single else (f_q, applied)


def target_representation(
    patches: np.ndarray | Sequence[np.ndarray], params: ModelParams
) -> Tensor:
    """f_t: mean-pooled fusion-query outputs, projected and normalized.

    One image's (n, d) patches give a 1 x d_embed tensor; a sequence of them
    is encoded as one batch and gives B x d_embed rows."""
    single = isinstance(patches, np.ndarray) and patches.ndim == 2
    stacked, key_mask = stack_patches([patches] if single else list(patches))
    pooled = mean_over_rows(encode_target(stacked, params.fusion, key_mask=key_mask))
    return l2_normalize_rows(squeeze_rows(linear(pooled, params.w_target, params.b_target)))


def contrastive_loss(f_q: Tensor, f_t: Tensor, tau: float) -> Tensor:
    """One-directional InfoNCE: -(1/B) sum_i log softmax_j(sim(q_i, t_j)/tau)_ii,
    taken as one log-sum-exp per row, so a small tau cannot underflow it."""
    if f_q.data.ndim != 2 or f_q.data.shape != f_t.data.shape:
        raise DimensionError(f"query/target batches disagree: {f_q.data.shape} vs {f_t.data.shape}")
    for name, t in (("query", f_q), ("target", f_t)):
        gap = np.abs(np.linalg.norm(t.data, axis=1) - 1.0)
        # written so that a NaN norm fails too
        if not np.all(gap <= _UNIT_ROW_TOL):
            raise ContractError(f"{name} rows must be unit-norm and finite, worst |1-norm| = "
                                f"{np.max(gap):.2e}")
    b = f_q.data.shape[0]
    sims = matmul(f_q, transpose(f_t))
    return scale(sum_all(log_softmax_diag(scale(sims, 1.0 / float(tau)))), -1.0 / b)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list)
    epoch_mean_betas: list[float] = field(default_factory=list)
    steps: int = 0


def _beta_scalar(applied) -> float:
    if isinstance(applied, np.ndarray):
        return float(np.mean(applied))
    return float(applied)


def train(params: ModelParams, examples: list[TrainExample], cfg: TrainConfig) -> TrainResult:
    """In-place training; deterministic for a fixed (params, examples, cfg)."""
    cfg.validate()
    if not examples:
        raise ContractError("no training examples")
    groups = params.param_groups()
    adaptive = cfg.fixed_beta is None
    states = {
        "caam": AdamState(
            lr=cfg.lr_caam, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
            weight_decay=cfg.weight_decay, eps=cfg.adam_eps,
        ),
        "encoder": AdamState(
            lr=cfg.lr_encoder, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2,
            weight_decay=cfg.weight_decay, eps=cfg.adam_eps,
        ),
    }
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    result = TrainResult()
    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        epoch_losses: list[float] = []
        epoch_betas: list[float] = []
        for at in range(0, len(order), cfg.batch_size):
            idx = order[at : at + cfg.batch_size]
            if len(idx) < 2:
                continue  # a singleton batch has no in-batch negatives
            batch = [examples[int(i)] for i in idx]
            tape = Tape()
            with tape:
                f_q, applied = query_representation(
                    [ex.query for ex in batch], params,
                    beta_override=cfg.fixed_beta, roi_crop=cfg.roi_crop,
                )
                f_t = target_representation([ex.target_patches for ex in batch], params)
                loss = contrastive_loss(f_q, f_t, params.tau)
            epoch_betas.extend(_beta_scalar(a) for a in applied)
            backward(loss, tape)
            if adaptive and groups["caam"]:
                adam_step(groups["caam"], [p.grad for p in groups["caam"]], states["caam"])
            adam_step(groups["encoder"], [p.grad for p in groups["encoder"]], states["encoder"])
            epoch_losses.append(loss.item())
            tape.clear()
            result.steps += 1
        result.epoch_losses.append(float(np.mean(epoch_losses)))
        result.epoch_mean_betas.append(float(np.mean(epoch_betas)))
    return result


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"FCCKPT1\n"


def save_checkpoint(path, params: ModelParams, meta: dict | None = None) -> None:
    """Versioned binary dump; bit-identical round trips, deterministic bytes."""
    named = params.named_params()
    header = {
        "version": 1,
        "meta": meta or {},
        "seed": params.seed,
        "model_config": asdict(params.config),
        "encoder": {
            "seed": params.encoders.seed,
            "d_latent": params.encoders.d_latent,
            "d_model": params.encoders.d_model,
            "l_text": params.encoders.l_text,
        },
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in named],
    }
    write_container(path, _CKPT_MAGIC, header, (t.data for _, t in named))


@dataclass
class EncoderRecord:
    seed: int
    d_latent: int
    d_model: int
    l_text: int


@dataclass
class ParamRecord:
    name: str
    shape: tuple[int, ...]


@dataclass
class CheckpointHeader:
    version: int
    meta: dict[str, Any]
    seed: int
    model_config: dict[str, Any]  # read as a ModelConfig below: errors name its own keys
    encoder: EncoderRecord
    params: tuple[ParamRecord, ...]


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with open_file(path, CheckpointError) as fh:
        header = from_record(
            CheckpointHeader,
            read_header(fh, _CKPT_MAGIC, CheckpointError, path, "model checkpoint"),
            CheckpointError, complete=True,
        )
        config = from_record(ModelConfig, header.model_config, CheckpointError, complete=True)
        params = ModelParams(config, EncoderParams(**asdict(header.encoder)), seed=header.seed)
        named = dict(params.named_params())
        if set(named) != {p.name for p in header.params}:
            raise CheckpointError("checkpoint parameter set does not match the rebuilt model")
        for entry in header.params:
            want = named[entry.name]
            if want.data.shape != entry.shape:
                raise CheckpointError(
                    f"parameter {entry.name} has shape {want.data.shape}, file says {entry.shape}"
                )
            want.data = read_block(
                fh, entry.shape, CheckpointError, f"parameter {entry.name} in {path}"
            )
            if not np.all(np.isfinite(want.data)):
                raise CheckpointError(f"parameter {entry.name} in {path} has non-finite values")
    return params, header.meta


def config_digest(payload: dict) -> str:
    """Stable short hash of a resolved configuration dict."""
    return hashlib.sha256(canonical_json(payload)).hexdigest()[:16]
