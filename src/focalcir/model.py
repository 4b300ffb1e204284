"""The retrieval model: query/target branches, loss, training, checkpoints.

The query branch encodes (reference patches, box, text) with the modulated
fusion encoder and reads the representation off a dedicated cls token; the
target branch encodes target patches alone and mean-pools the fusion-query
outputs. Both project into the shared embedding space and l2-normalize.
Both branches take one sample or a batch and run a batch as one forward
pass, so a training step records one tape over its whole batch. A query
batch is first assembled into the arrays the encoder reads
(`assemble_queries`, for training and evaluation alike); a caller that
encodes one batch under several settings, as evaluation does, assembles it
once and passes the `QueryBatch`.
Training minimizes a one-directional in-batch contrastive loss (query ->
target) at fixed temperature, with two AdamW groups: the modulation
predictor trains 10x faster than the encoder stack, mirroring the reference
setting's differential rates.

ModelParams validates one ModelConfig and builds every part from it; the
init functions of fusion and caam read it and check nothing again.
Crop-to-box is a view of a query (`cropped`), not a mode of the model.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Sequence

import numpy as np

from focalcir.caam import CRM_VARIANTS, OUTPUT_FORMS, init_caam_params, predict_beta
from focalcir.encoders import EncoderParams, TextEmbedding
from focalcir.errors import ContractError, DataError
from focalcir.fusion import (
    TOKEN_INIT,
    WEIGHT_INIT,
    encode_target,
    init_fusion_params,
    multimodal_encode,
    region_mask_from_bbox,
    shared_merged_weights,
    stack_patches,
)
from focalcir.geometry import BBox
from focalcir.numerics.optim import AdamState, adam_step
from focalcir.records import (
    ConfigSection,
    canonical_json,
    from_record,
    open_file,
    read_block,
    read_end,
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
    transposed_keys,
)

_UNIT_ROW_TOL = 1e-6
# the fixed contrastive temperature: logits are cosines / TAU
TAU = 0.07
_SIZE = {"ge": 1}  # the declared range of every model size


@dataclass
class ModelConfig(ConfigSection):
    """Architecture knobs; defaults are the desk-scale configuration."""

    d_model: int = field(default=32, metadata=_SIZE)
    d_embed: int = field(default=32, metadata=_SIZE)
    m_queries: int = field(default=8, metadata=_SIZE)
    k_probes: int = field(default=8, metadata=_SIZE)
    l_text: int = field(default=4, metadata=_SIZE)
    n_blocks: int = field(default=2, metadata=_SIZE)
    n_heads: int = field(default=1, metadata=_SIZE)
    crm_variant: str = field(default="transformer", metadata={"choices": CRM_VARIANTS})
    crm_layers: int = field(default=2, metadata=_SIZE)
    modulation: str = field(default="scalar", metadata={"choices": OUTPUT_FORMS})

    def rules(self) -> str | None:
        if self.d_model % self.n_heads != 0:
            return f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"


def subset_list_rule(key: str, names: tuple[str, ...]) -> str | None:
    """How a list of subset names breaks being a non-empty set, or None."""
    if not names:
        return f"{key} must name at least one subset"
    if len(set(names)) != len(names):
        repeated = next(n for i, n in enumerate(names) if n in names[:i])
        return f"{key} names {repeated!r} twice"


@dataclass
class TrainConfig(ConfigSection):
    """Desk-scale training defaults."""

    epochs: int = field(default=10, metadata={"ge": 1})
    batch_size: int = field(default=32, metadata={"ge": 2})  # in-batch contrast needs two
    seed: int = field(default=7, metadata={"ge": 0})
    fixed_beta: float | None = field(default=None, metadata={"ge": 0.0})  # None: adaptive
    subsets: tuple[str, ...] | None = None  # restrict training data, e.g. leave-one-out

    def rules(self) -> str | None:
        # a set of subsets: a checkpoint records it sorted, and runs compare it
        if self.subsets is not None:
            return subset_list_rule("'subsets'", self.subsets)


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


def _region_rows(batch: Sequence[QuerySample], n_keys: int) -> np.ndarray | None:
    """The (B, 1, n_keys) region-mask rows of a batch, from one vectorised
    call per distinct grid: 0 on a box-less sample's row and on padded keys.
    None when no sample has a box."""
    by_grid: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(batch):
        if s.bbox is not None:
            by_grid.setdefault(tuple(s.grid), []).append(i)
    if not by_grid:
        return None
    rows = np.zeros((len(batch), 1, n_keys))
    for (h, w), idx in by_grid.items():
        for i in idx:
            if batch[i].patches.shape[0] != h * w:
                raise ContractError(
                    f"mask covers {h * w} patches but image has {batch[i].patches.shape[0]}")
        rows[idx, 0, : h * w] = region_mask_from_bbox([batch[i].bbox for i in idx], (h, w))
    return rows


@dataclass
class QueryBatch:
    """Query samples assembled into the arrays the fusion encoder reads.
    They depend on the samples alone, so one batch serves every pass over
    it and every modulation setting: evaluation keeps the batches of a
    benchmark view and hands them to `query_representation` again."""

    patches: np.ndarray  # (B, n, d) stacked reference patches, zero-padded
    key_mask: np.ndarray | None  # (B, 1, n) -inf on padded keys; None when none is padded
    keys_t: np.ndarray  # transposed_keys(patches), shared by the probe and query passes
    text: np.ndarray  # (B, l_text, d) text tokens
    mask_rows: np.ndarray | None  # (B, 1, n) region-mask rows; None when no sample has a box
    boxed: list[bool]  # which samples have a box


def assemble_queries(samples: Sequence[QuerySample]) -> QueryBatch:
    """The QueryBatch of a sequence of samples, for training and evaluation alike."""
    if not samples:
        raise ContractError("no query samples")
    patches, key_mask = stack_patches([s.patches for s in samples])
    return QueryBatch(
        patches=patches, key_mask=key_mask, keys_t=transposed_keys(patches),
        text=np.stack([s.text.tokens for s in samples]),
        mask_rows=_region_rows(samples, patches.shape[1]),
        boxed=[s.bbox is not None for s in samples],
    )


def cropped(sample: QuerySample) -> QuerySample:
    """The crop-to-box view of a query: its in-box patches alone, and no box,
    so it is encoded without a mask or a modulation. A box-less query is
    its own view."""
    if sample.bbox is None:
        return sample
    inside = _region_rows([sample], sample.patches.shape[0])[0, 0] == 1.0
    return replace(sample, patches=sample.patches[inside], bbox=None)


def _record_named(prefix: str, record) -> list[tuple[str, Tensor]]:
    """Each Tensor field of a parameter record, named by its field; a field
    that holds None (an unread key bias, a bare op's output) is no parameter."""
    return [(f"{prefix}.{f.name}", t) for f in fields(record)
            if isinstance(t := getattr(record, f.name), Tensor)]


def _layer_named(prefix: str, layer) -> list[tuple[str, Tensor]]:
    """A fusion block's or a CRM layer's tensors, one name scheme for both,
    with the sub-records in the order `fusion._layer_forward` runs them."""
    out = []
    for attr in ("self_attn", "ln_self", "cross_attn", "ln_cross", "ffn", "ln_ffn"):
        if (part := getattr(layer, attr)) is not None:
            out += _record_named(f"{prefix}.{attr.removesuffix('_attn')}", part)
    return out


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
            raise ContractError(
                f"encoder dims ({encoders.d_model}, l_text={encoders.l_text}) do not match "
                f"model config ({config.d_model}, l_text={config.l_text})"
            )
        self.config = config
        self.encoders = encoders
        self.seed = int(seed)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        self.fusion = init_fusion_params(rng, config)
        self.caam = init_caam_params(rng, config, zero_modulation_head)
        self.rep_cls = Tensor(
            rng.normal(0.0, TOKEN_INIT, size=(1, config.d_model)), requires_grad=True
        )
        self.w_query = Tensor(
            rng.normal(0.0, WEIGHT_INIT, size=(config.d_model, config.d_embed)),
            requires_grad=True,
        )
        self.b_query = Tensor(np.zeros((1, config.d_embed)), requires_grad=True)
        self.w_target = Tensor(
            rng.normal(0.0, WEIGHT_INIT, size=(config.d_model, config.d_embed)),
            requires_grad=True,
        )
        self.b_target = Tensor(np.zeros((1, config.d_embed)), requires_grad=True)
        self.tau = TAU

    # -- enumeration ---------------------------------------------------------

    def named_params(self) -> list[tuple[str, Tensor]]:
        """Every weight tensor in a stable order (frozen ones included)."""
        c = self.caam
        out = [("fusion.queries", self.fusion.queries)]
        for i, block in enumerate(self.fusion.blocks):
            out += _layer_named(f"fusion.block{i}", block)
        out += [("caam.probes", c.probes), ("caam.cls", c.cls)]
        if c.crm.mlp is not None:
            out += _record_named("caam.crm.mlp", c.crm.mlp)
        for i, layer in enumerate(c.crm.layers):
            out += _layer_named(f"caam.crm.layer{i}", layer)
        return out + [
            ("caam.wc", c.wc), ("caam.bc", c.bc), ("rep_cls", self.rep_cls),
            ("head.query.w", self.w_query), ("head.query.b", self.b_query),
            ("head.target.w", self.w_target), ("head.target.b", self.b_target),
        ]

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
    samples: QuerySample | Sequence[QuerySample] | QueryBatch,
    params: ModelParams,
    beta_override: float | None = None,
):
    """f_q plus the modulation actually applied, for one query or a batch.

    One QuerySample gives a 1 x d_embed tensor and its applied modulation (a
    float, or a 1 x M array in vector form). A sequence, or a QueryBatch
    assembled from one, is encoded as one batch and gives B x d_embed rows
    and a list of per-sample applied values. beta_override bypasses the
    predictor entirely and applies the given constant. A box-less sample
    gets a zero mask row, so its applied modulation is 0; a batch without
    any box is encoded with no mask at all.
    """
    single = isinstance(samples, QuerySample)
    if isinstance(samples, QueryBatch):
        batch = samples
    else:
        batch = assemble_queries([samples] if single else list(samples))
    applied: list = [0.0] * len(batch.boxed)
    beta = 0.0
    if batch.mask_rows is not None:
        if beta_override is not None:
            beta = float(beta_override)
            applied = [beta if boxed else 0.0 for boxed in batch.boxed]
        else:
            beta = predict_beta(batch.patches, batch.text, params.fusion, params.caam,
                                key_mask=batch.key_mask, keys_t=batch.keys_t)
            applied = [
                (float(b[0, 0]) if b.shape == (1, 1) else b.copy()) if boxed else 0.0
                for boxed, b in zip(batch.boxed, beta.data)
            ]
    cls_out = multimodal_encode(
        batch.patches, batch.text, params.fusion, mask=batch.mask_rows, beta=beta,
        tokens=(params.rep_cls,), key_mask=batch.key_mask, keys_t=batch.keys_t,
    )
    # project per sample, then drop the row axis: one (B*1)-row GEMM would
    # round differently from the 1-row GEMM a single query gets
    f_q = l2_normalize_rows(squeeze_rows(linear(cls_out, params.w_query, params.b_query)))
    return (f_q, applied[0]) if single else (f_q, applied)


def target_representation(
    patches: np.ndarray | Sequence[np.ndarray], params: ModelParams
) -> Tensor:
    """f_t: mean-pooled fusion-query outputs, projected and normalized.

    One image's (n, d) patches give a 1 x d_embed tensor; a sequence of them,
    or a (B, n, d) array of images that share n, is encoded as one batch and
    gives B x d_embed rows."""
    if isinstance(patches, np.ndarray) and patches.ndim == 3:
        stacked, key_mask = patches, None
    else:
        single = isinstance(patches, np.ndarray)
        stacked, key_mask = stack_patches([patches] if single else list(patches))
    pooled = mean_over_rows(encode_target(stacked, params.fusion, key_mask=key_mask))
    return l2_normalize_rows(squeeze_rows(linear(pooled, params.w_target, params.b_target)))


def contrastive_loss(f_q: Tensor, f_t: Tensor, tau: float) -> Tensor:
    """One-directional InfoNCE: -(1/B) sum_i log softmax_j(sim(q_i, t_j)/tau)_ii,
    taken as one log-sum-exp per row, so a small tau cannot underflow it."""
    if f_q.data.ndim != 2 or f_q.data.shape != f_t.data.shape:
        raise ContractError(f"query/target batches disagree: {f_q.data.shape} vs {f_t.data.shape}")
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


# AdamW learning rates of the two groups. They keep the reference setting's
# 10:1 ratio between the modulation predictor and the encoder stack, but are
# raised for training from random initialization; a fine-tuning run on
# pretrained weights would use 1e-4 / 1e-5.
LR_CAAM = 2e-3
LR_ENCODER = 2e-4


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list, init=False)
    epoch_mean_betas: list[float] = field(default_factory=list, init=False)
    steps: int = field(default=0, init=False)


def _beta_scalar(applied) -> float:
    if isinstance(applied, np.ndarray):
        return float(np.mean(applied))
    return float(applied)


def step_loss(
    params: ModelParams, batch: Sequence[TrainExample], fixed_beta: float | None
) -> tuple[Tensor, list]:
    """A training step's forward passes, on the open tape: the loss and each
    sample's applied modulation. The probe, query and target passes share
    each attention's merged weights, in a scope that closes with the
    forward passes, before backward and the optimizer change the weights."""
    with shared_merged_weights():
        f_q, applied = query_representation(
            [ex.query for ex in batch], params, beta_override=fixed_beta
        )
        f_t = target_representation([ex.target_patches for ex in batch], params)
        return contrastive_loss(f_q, f_t, params.tau), applied


def train(params: ModelParams, examples: list[TrainExample], cfg: TrainConfig) -> TrainResult:
    """In-place training; deterministic for a fixed (params, examples, cfg)."""
    cfg.validate()
    if len(examples) < 2:  # every batch of one is skipped: nothing would train
        raise ContractError(f"training needs at least 2 examples, got {len(examples)}")
    groups = params.param_groups()
    adaptive = cfg.fixed_beta is None
    states = {"caam": AdamState(lr=LR_CAAM), "encoder": AdamState(lr=LR_ENCODER)}
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    result = TrainResult()
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        epoch_losses: list[float] = []
        epoch_betas: list[float] = []
        for at in range(0, len(order), cfg.batch_size):
            idx = order[at : at + cfg.batch_size]
            if len(idx) < 2:
                continue  # a singleton batch has no in-batch negatives
            tape = Tape()
            with tape:
                loss, applied = step_loss(params, [examples[int(i)] for i in idx],
                                          cfg.fixed_beta)
            if not np.isfinite(loss.item()):  # stop before AdamW applies its gradients
                raise ContractError(f"epoch {epoch + 1} step {len(epoch_losses) + 1}: "
                                    f"loss is {loss.item()}")
            epoch_betas.extend(_beta_scalar(a) for a in applied)
            backward(loss, tape)
            if adaptive:
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


@dataclass
class EncoderRecord:
    """The seed and dims that fully determine a frozen encoder."""

    seed: int = field(metadata={"ge": 0})
    d_latent: int = field(metadata=_SIZE)
    d_model: int = field(metadata=_SIZE)
    l_text: int = field(metadata=_SIZE)


def save_checkpoint(path, params: ModelParams, meta: dict | None = None) -> None:
    """Versioned binary dump; bit-identical round trips, deterministic bytes."""
    named = params.named_params()
    header = {
        "version": 1,
        "meta": meta or {},
        "seed": params.seed,
        "model_config": asdict(params.config),
        "encoder": {f.name: getattr(params.encoders, f.name) for f in fields(EncoderRecord)},
        "params": [{"name": n, "shape": list(t.data.shape)} for n, t in named],
    }
    write_container(path, _CKPT_MAGIC, header, (t.data for _, t in named))


@dataclass
class ParamRecord:
    name: str
    shape: tuple[int, ...]


@dataclass
class CheckpointHeader:
    version: int
    meta: dict[str, Any]
    seed: int
    model_config: ModelConfig
    encoder: EncoderRecord
    params: tuple[ParamRecord, ...]

    def rules(self) -> str | None:
        enc, config = self.encoder, self.model_config
        for key in ("d_model", "l_text"):
            if getattr(enc, key) != getattr(config, key):
                return (f"encoder.{key} {getattr(enc, key)} differs from "
                        f"model_config.{key} {getattr(config, key)}")
        # the image projection has d_latent orthonormal rows in d_model dimensions
        if enc.d_latent > config.d_model:
            return f"encoder.d_latent {enc.d_latent} exceeds model_config.d_model {config.d_model}"
        seen = {}
        for i, p in enumerate(self.params):
            if (first := seen.setdefault(p.name, i)) != i:
                return f"params[{i}].name {p.name!r} repeats params[{first}]"


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    with open_file(path, DataError) as fh:
        header = from_record(
            CheckpointHeader,
            read_header(fh, _CKPT_MAGIC, DataError, path, "model checkpoint"),
            DataError, str(path), complete=True,
        )
        params = ModelParams(header.model_config, EncoderParams(**asdict(header.encoder)),
                             seed=header.seed)
        named = dict(params.named_params())
        stored = {p.name for p in header.params}
        if stored != set(named):
            raise DataError(
                f"{path} holds another parameter layout than the rebuilt model: missing "
                f"{sorted(set(named) - stored)}, unexpected {sorted(stored - set(named))}"
            )
        for entry in header.params:
            want = named[entry.name]
            if want.data.shape != entry.shape:
                raise DataError(
                    f"parameter {entry.name} has shape {want.data.shape}, file says {entry.shape}"
                )
            want.data = read_block(
                fh, entry.shape, DataError, f"parameter {entry.name} in {path}"
            )
            if not np.all(np.isfinite(want.data)):
                raise DataError(f"parameter {entry.name} in {path} has non-finite values")
        read_end(fh, DataError, path, "parameter")
    return params, header.meta


def config_digest(payload: dict) -> str:
    """Stable short hash of a resolved configuration dict."""
    return hashlib.sha256(canonical_json(payload)).hexdigest()[:16]
