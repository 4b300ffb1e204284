import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from focalcir.benchgen import FilterThresholds, WorldConfig, build_benchmark
from focalcir.benchgen.pipeline import save_benchmark
from focalcir.caam import CRM_VARIANTS, OUTPUT_FORMS
from focalcir.cli import main
from focalcir.config import BenchSettings, RunConfig
from focalcir.encoders import ContextDescriptor, EncoderParams, embed_text, encode_image
from focalcir.errors import ConfigError, ContractError, DataError
from focalcir.fusion import AttentionParams
from focalcir.model import (
    ModelConfig,
    ModelParams,
    QuerySample,
    TrainConfig,
    TrainExample,
    assemble_queries,
    contrastive_loss,
    cropped,
    load_checkpoint,
    query_representation,
    save_checkpoint,
    step_loss,
    target_representation,
    train,
)
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.tensor import Tape, Tensor, add, backward, constant, mul, sum_all
from focalcir.records import write_container


def tiny_config(**overrides):
    base = dict(
        d_model=8, d_embed=8, m_queries=2, k_probes=2, l_text=2,
        n_blocks=1, crm_variant="transformer", crm_layers=1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_setup(seed=0, grid=(2, 2), d_latent=4, **overrides):
    cfg = tiny_config(**overrides)
    enc = EncoderParams(seed=seed + 100, d_latent=d_latent,
                        d_model=cfg.d_model, l_text=cfg.l_text)
    params = ModelParams(cfg, enc, seed=seed)
    return cfg, enc, params


def random_sample(rng, enc, grid=(2, 2), bbox=(0.1, 0.1, 0.6, 0.6)):
    latents = rng.normal(size=(grid[0], grid[1], enc.d_latent))
    patches = encode_image(latents, enc)
    text = embed_text(ContextDescriptor("ctx", rng.normal(size=enc.d_latent)), enc)
    return QuerySample(patches=patches, grid=grid, bbox=bbox, text=text)


def random_examples(rng, enc, n, grid=(2, 2)):
    out = []
    for _ in range(n):
        q = random_sample(rng, enc, grid=grid)
        tgt = encode_image(rng.normal(size=(grid[0], grid[1], enc.d_latent)), enc)
        out.append(TrainExample(query=q, target_patches=tgt))
    return out


# -- loss -------------------------------------------------------------------


def unit_rows(rng, b, d):
    x = rng.normal(size=(b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def test_loss_single_pair_is_exactly_zero():
    f = Tensor(unit_rows(np.random.default_rng(0), 1, 16))
    loss = contrastive_loss(f, Tensor(f.data.copy()), tau=0.07)
    assert loss.item() == 0.0


def test_loss_stays_finite_at_a_small_tau():
    # log(softmax) underflowed to log(0) here; the log-sum-exp form cannot
    for seed in range(5):
        rng = np.random.default_rng(seed)
        f_q = Tensor(unit_rows(rng, 32, 16), requires_grad=True)
        f_t = Tensor(unit_rows(rng, 32, 16))
        tape = Tape()
        with tape:
            loss = contrastive_loss(f_q, f_t, tau=1e-3)
        backward(loss, tape)
        assert np.isfinite(loss.item()) and loss.item() >= 0.0
        assert np.all(np.isfinite(f_q.grad))


def test_loss_two_orthonormal_pairs_closed_form():
    f = Tensor(np.eye(2))
    loss = contrastive_loss(f, Tensor(np.eye(2)), tau=0.07)
    expected = math.log(1.0 + math.exp(-1.0 / 0.07))
    assert abs(loss.item() - expected) < 1e-12


def test_loss_random_unit_rows_near_log_batch():
    # in high dimension random pairs are near-orthogonal, so every row of the
    # softmax is near-uniform and the loss sits at log(B)
    rng = np.random.default_rng(3)
    b = 32
    loss = contrastive_loss(
        Tensor(unit_rows(rng, b, 1024)), Tensor(unit_rows(rng, b, 1024)), tau=0.07
    )
    assert 0.9 * math.log(b) <= loss.item() <= 1.1 * math.log(b)


def test_loss_rejects_non_unit_rows():
    f = Tensor(np.full((2, 4), 0.5))
    g = Tensor(np.eye(2, 4) * 2.0)
    with pytest.raises(ContractError):
        contrastive_loss(f, g, tau=0.07)
    nan_row = np.eye(2, 4)
    nan_row[1, 0] = np.nan
    with pytest.raises(ContractError):
        contrastive_loss(Tensor(nan_row), Tensor(np.eye(2, 4)), tau=0.07)


def test_loss_matches_straight_line_oracle():
    rng = np.random.default_rng(11)
    fq, ft = unit_rows(rng, 6, 12), unit_rows(rng, 6, 12)
    loss = contrastive_loss(Tensor(fq), Tensor(ft), tau=0.07)
    logits = fq @ ft.T / 0.07
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.mean(np.log(np.diag(p)))
    assert abs(loss.item() - expected) < 1e-12


# -- representations ---------------------------------------------------------


def test_query_representation_unit_norm_and_shape():
    _, enc, params = tiny_setup()
    sample = random_sample(np.random.default_rng(1), enc)
    f_q, applied = query_representation(sample, params)
    assert f_q.data.shape == (1, 8)
    assert abs(np.linalg.norm(f_q.data) - 1.0) < 1e-12
    assert applied == 0.0  # modulation head starts zeroed


def test_query_zero_head_matches_no_bbox_path():
    # a zeroed modulation head plus a mask must be bitwise the maskless pass
    _, enc, params = tiny_setup()
    sample = random_sample(np.random.default_rng(2), enc)
    with_box, _ = query_representation(sample, params)
    without, _ = query_representation(dataclasses.replace(sample, bbox=None), params)
    assert np.array_equal(with_box.data, without.data)


def test_beta_override_changes_representation():
    _, enc, params = tiny_setup()
    sample = random_sample(np.random.default_rng(3), enc)
    base, applied0 = query_representation(sample, params)
    boosted, applied5 = query_representation(sample, params, beta_override=5.0)
    assert applied0 == 0.0 and applied5 == 5.0
    assert not np.allclose(base.data, boosted.data)


def test_adaptive_beta_reported_when_head_active():
    _, enc, params = tiny_setup()
    for _, t in params.named_params():
        if t.data.size:
            pass
    params_live = ModelParams(params.config, enc, seed=9, zero_modulation_head=False)
    sample = random_sample(np.random.default_rng(4), enc)
    _, applied = query_representation(sample, params_live)
    assert isinstance(applied, float) and applied != 0.0


def test_roi_crop_uses_only_region_patches():
    _, enc, params = tiny_setup(seed=5)
    rng = np.random.default_rng(5)
    sample = random_sample(rng, enc, bbox=(0.0, 0.0, 0.5, 0.5))  # one patch on 2x2
    view = cropped(sample)
    assert view.bbox is None and np.array_equal(view.patches, sample.patches[:1])
    assert cropped(view) is view  # a box-less query is its own view
    one, applied = query_representation(view, params)
    assert applied == 0.0
    # scrambling patches outside the box must not affect the cropped branch
    noisy = QuerySample(
        patches=sample.patches.copy(), grid=sample.grid, bbox=sample.bbox, text=sample.text
    )
    noisy.patches[1:] = rng.normal(size=noisy.patches[1:].shape)
    two, _ = query_representation(cropped(noisy), params)
    assert np.array_equal(one.data, two.data)
    full, _ = query_representation(noisy, params)
    assert not np.allclose(two.data, full.data)


def test_target_representation_unit_and_deterministic():
    _, enc, params = tiny_setup()
    patches = encode_image(np.random.default_rng(6).normal(size=(2, 2, 4)), enc)
    a = target_representation(patches, params)
    b = target_representation(patches, params)
    assert abs(np.linalg.norm(a.data) - 1.0) < 1e-12
    assert np.array_equal(a.data, b.data)


def test_vector_modulation_form_runs():
    _, enc, params = tiny_setup(modulation="vector")
    params = ModelParams(params.config, enc, seed=2, zero_modulation_head=False)
    sample = random_sample(np.random.default_rng(7), enc)
    f_q, applied = query_representation(sample, params)
    assert isinstance(applied, np.ndarray) and applied.shape == (1, params.config.m_queries)
    assert abs(np.linalg.norm(f_q.data) - 1.0) < 1e-12


# -- batched branches --------------------------------------------------------


def mixed_batch(enc, seed):
    """Queries with boxes of different sizes, two on a larger grid, one
    box-less. The box-less one, on a padded grid, has the text of a boxed
    one on the larger grid, so the batch holds four distinct texts."""
    rng = np.random.default_rng(seed)
    samples = [
        random_sample(rng, enc, bbox=(0.1, 0.1, 0.6, 0.6)),
        random_sample(rng, enc, bbox=(0.0, 0.0, 1.0, 1.0)),
        random_sample(rng, enc, grid=(3, 3), bbox=(0.3, 0.0, 1.0, 0.7)),
        random_sample(rng, enc, bbox=None),
        random_sample(rng, enc, grid=(3, 3), bbox=(0.0, 0.4, 0.5, 1.0)),
    ]
    samples[3] = dataclasses.replace(samples[3], text=samples[2].text)
    return samples


@pytest.mark.parametrize(
    "overrides, kwargs, view",
    [
        ({}, {}, None),
        ({}, {"beta_override": 2.5}, None),
        ({}, {}, lambda s: dataclasses.replace(s, bbox=None)),
        ({}, {}, cropped),
        ({"modulation": "vector"}, {}, None),
        ({"n_heads": 2}, {}, None),
    ],
    ids=["adaptive", "fixed-beta", "no-bbox", "roi-crop", "vector", "two-heads"],
)
def test_batched_query_rows_equal_per_sample(overrides, kwargs, view):
    _, enc, params = tiny_setup(seed=81, **overrides)
    params = ModelParams(params.config, enc, seed=81, zero_modulation_head=False)
    samples = mixed_batch(enc, 81)
    if view is not None:
        samples = [view(s) for s in samples]
    batched, applied = query_representation(samples, params, **kwargs)
    assert batched.data.shape == (len(samples), params.config.d_embed)
    assert len(applied) == len(samples)
    for i, sample in enumerate(samples):
        row, one = query_representation(sample, params, **kwargs)
        assert np.max(np.abs(batched.data[i] - row.data[0])) <= 1e-12, i
        assert np.max(np.abs(np.asarray(applied[i]) - np.asarray(one))) <= 1e-12, i
        assert type(applied[i]) is type(one)
    boxless = 3
    assert applied[boxless] == 0.0
    # an assembled batch, encoded twice, gives the sequence's rows exactly
    batch = assemble_queries(samples)
    for _ in range(2):
        again, given = query_representation(batch, params, **kwargs)
        assert again.data.tobytes() == batched.data.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(given, applied))


def test_batched_target_rows_equal_per_sample():
    _, enc, params = tiny_setup(seed=82)
    rng = np.random.default_rng(82)
    images = [
        encode_image(rng.normal(size=(h, w, enc.d_latent)), enc)
        for h, w in ((2, 2), (3, 3), (2, 2), (1, 3))
    ]
    batched = target_representation(images, params)
    assert batched.data.shape == (4, params.config.d_embed)
    for i, patches in enumerate(images):
        row = target_representation(patches, params)
        assert np.max(np.abs(batched.data[i] - row.data[0])) <= 1e-12, i


def _row_loss(f_q, f_t, weights_q, weights_t):
    """A loss that is a sum over samples, so per-sample gradients add up."""
    return add(sum_all(mul(f_q, constant(weights_q))), sum_all(mul(f_t, constant(weights_t))))


def test_batch_gradients_equal_sum_of_per_sample_gradients():
    _, enc, params = tiny_setup(seed=83)
    params = ModelParams(params.config, enc, seed=83, zero_modulation_head=False)
    examples = random_examples(np.random.default_rng(83), enc, 4)
    # a repeated text: its block-0 self-attention gradient sums two samples'
    examples[3].query.text = examples[1].query.text
    rng = np.random.default_rng(84)
    wq = rng.normal(size=(4, params.config.d_embed))
    wt = rng.normal(size=(4, params.config.d_embed))
    trainable = [(n, t) for n, t in params.named_params() if t.requires_grad]

    def grads(batch, rows):
        tape = Tape()
        with tape:
            f_q, _ = query_representation([ex.query for ex in batch], params)
            f_t = target_representation([ex.target_patches for ex in batch], params)
            loss = _row_loss(f_q, f_t, wq[rows], wt[rows])
        backward(loss, tape)
        out = {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for n, t in trainable}
        tape.clear()
        return out

    whole = grads(examples, slice(0, 4))
    summed = {n: np.zeros_like(t.data) for n, t in trainable}
    for i in range(4):
        for n, g in grads(examples[i : i + 1], slice(i, i + 1)).items():
            summed[n] += g
    for n, _ in trainable:
        scale = max(1.0, float(np.max(np.abs(summed[n]))))
        assert np.max(np.abs(whole[n] - summed[n])) <= 1e-12 * scale, n
    assert np.any(whole["caam.wc"] != 0.0)  # the modulation path took part


def test_step_tape_length_does_not_grow_with_batch():
    _, enc, params = tiny_setup(seed=85)
    params = ModelParams(params.config, enc, seed=85, zero_modulation_head=False)
    examples = random_examples(np.random.default_rng(85), enc, 8)

    def entries(batch):
        tape = Tape()
        with tape:
            f_q, _ = query_representation([ex.query for ex in batch], params)
            f_t = target_representation([ex.target_patches for ex in batch], params)
            contrastive_loss(f_q, f_t, params.tau)
        n = len(tape)
        tape.clear()
        return n

    assert entries(examples[:2]) == entries(examples)


def step_tape(params, examples):
    """The tape of one adaptive training step on examples, recorded as
    `train` records it, after its backward."""
    tape = Tape()
    with tape:
        loss, _ = step_loss(params, examples, None)
    backward(loss, tape)
    return tape


def unreached(tape):
    """The tape entries whose output backward gave no gradient: forward work
    that nothing downstream reads."""
    return [i for i, (_, out, _) in enumerate(tape._entries) if out.grad is None]


@pytest.mark.parametrize("modulation", OUTPUT_FORMS)
@pytest.mark.parametrize("crm_variant", CRM_VARIANTS)
def test_backward_reaches_every_tape_entry_of_a_step(crm_variant, modulation):
    _, enc, params = tiny_setup(seed=86, crm_variant=crm_variant, modulation=modulation)
    tape = step_tape(params, random_examples(np.random.default_rng(86), enc, 3))
    assert len(tape) > 0 and unreached(tape) == []
    tape.clear()


@pytest.mark.parametrize("modulation, entries", [("scalar", 94), ("vector", 97)])
def test_default_config_step_records_a_known_tape(modulation, entries):
    # the count moves only when a change adds or removes forward work;
    # batches share one tape, so it does not depend on the batch size
    config = ModelConfig(modulation=modulation)
    enc = EncoderParams(seed=87, d_latent=8, d_model=config.d_model, l_text=config.l_text)
    params = ModelParams(config, enc, seed=87)
    tape = step_tape(params, random_examples(np.random.default_rng(87), enc, 2, grid=(4, 4)))
    assert (len(tape), unreached(tape)) == (entries, [])
    tape.clear()


def test_a_step_runs_block_0_self_attention_once_per_distinct_text():
    # block 0's self-attention reads [caller's tokens, fusion queries, text]
    # alone, so a batch of five queries with two texts runs it on two
    # samples in the probe and the query pass, and one gather per pass
    # expands its output to the batch
    config = ModelConfig()
    enc = EncoderParams(seed=87, d_latent=8, d_model=config.d_model, l_text=config.l_text)
    params = ModelParams(config, enc, seed=87)
    examples = random_examples(np.random.default_rng(87), enc, 5, grid=(4, 4))
    examples = [dataclasses.replace(ex, query=dataclasses.replace(
        ex.query, text=examples[i % 2].query.text)) for i, ex in enumerate(examples)]
    tape = step_tape(params, examples)
    w_qk = next(out for ins, out, _ in tape._entries
                if ins[0] is params.fusion.blocks[0].self_attn.wq)
    rows = [ins[0].data.shape for ins, _, _ in tape._entries if len(ins) > 2 and ins[2] is w_qk]
    k, m, l_text = config.k_probes, config.m_queries, config.l_text
    d = config.d_model
    assert rows == [(2, 1 + k + m + l_text, d), (2, 1 + m + l_text, d), (m, d)]  # probe, query, target
    assert (len(tape), unreached(tape)) == (96, [])
    tape.clear()


@pytest.mark.parametrize("modulation", OUTPUT_FORMS)
def test_a_steps_shared_products_give_the_per_pass_gradients(modulation):
    # the step's probe, query and target passes share each attention's
    # merged products, so backward sums their gradients in another order
    _, enc, params = tiny_setup(seed=88, modulation=modulation, n_blocks=2, n_heads=2)
    params = ModelParams(params.config, enc, seed=88, zero_modulation_head=False)
    examples = random_examples(np.random.default_rng(88), enc, 4)
    trainable = [(n, t) for n, t in params.named_params() if t.requires_grad]

    def per_pass():
        f_q, _ = query_representation([ex.query for ex in examples], params)
        f_t = target_representation([ex.target_patches for ex in examples], params)
        return contrastive_loss(f_q, f_t, params.tau)

    def grads(forward):
        tape = Tape()
        with tape:
            loss = forward()
        backward(loss, tape)
        out = {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy() for n, t in trainable}
        tape.clear()
        return loss.item(), out

    shared_loss, shared = grads(lambda: step_loss(params, examples, None)[0])
    alone_loss, alone = grads(per_pass)
    assert shared_loss == alone_loss  # the forward arithmetic is the same
    for n, g in alone.items():
        assert np.max(np.abs(shared[n] - g)) <= 1e-12 * np.max(np.abs(g)), n
    assert np.any(alone["caam.wc"] != 0.0)  # the modulation path took part


# -- config validation -------------------------------------------------------


def test_config_rejects_bad_values():
    # the init functions build from a validated config and check nothing again
    for sizes in ({"d_model": 9, "n_heads": 2}, {"d_model": 8, "n_heads": 3}):
        with pytest.raises(ConfigError, match="not divisible by n_heads"):
            ModelConfig(**sizes).validate()
    for key, value in [("crm_variant", "pool"), ("modulation", "matrix")]:
        with pytest.raises(ConfigError, match=f"'{key}' must be one of"):
            ModelConfig(**{key: value}).validate()
    for layers in (0, -1):
        with pytest.raises(ConfigError, match="crm_layers"):
            ModelConfig(crm_layers=layers).validate()
    for key, value in [("n_blocks", 0), ("m_queries", 0), ("n_heads", 0), ("n_heads", -1),
                       ("n_heads", -2)]:
        with pytest.raises(ConfigError, match=key):
            ModelConfig(**{key: value}).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()


def built_model(config):
    """What a config builds: every tensor's name, shape, values and
    requires_grad, every layer's head count, tau, and the shape of the
    frozen text encoder the model takes (l_text tokens, no parameter of its
    own: text tokens join the fusion pass as a set)."""
    enc = EncoderParams(seed=1, d_latent=4, d_model=config.d_model, l_text=config.l_text)
    params = ModelParams(config, enc, seed=0)
    tensors = [(name, t.data.shape, t.data.tobytes(), t.requires_grad)
               for name, t in params.named_params()]
    heads = [layer.n_heads for layer in params.fusion.blocks + params.caam.crm.layers]
    return tensors, heads, params.tau, params.encoders.text_proj.shape


def test_every_model_config_field_changes_the_built_model():
    # no knob without an effect: each field moved off its value, alone,
    # changes what ModelParams builds
    base = tiny_config()
    want = built_model(base)
    for f in dataclasses.fields(ModelConfig):
        value = getattr(base, f.name)
        if isinstance(value, bool):
            others = [not value]
        elif isinstance(value, str):
            others = [c for c in f.metadata["choices"] if c != value]
        else:
            others = [value + 1 if isinstance(value, int) else value / 2]
        for other in others:
            config = dataclasses.replace(base, **{f.name: other})
            config.validate()
            assert built_model(config) != want, (f.name, other)


def test_param_groups_split_and_respect_flags():
    _, _, params = tiny_setup()
    groups = params.param_groups()
    names = dict(params.named_params())
    assert names["caam.wc"] in groups["caam"]
    assert names["head.query.w"] in groups["encoder"]
    assert all(t.requires_grad for g in groups.values() for t in g)
    # frozen fusion queries stay out of both groups
    assert names["fusion.queries"] not in groups["encoder"]


# -- training ----------------------------------------------------------------


def test_initial_loss_sits_near_log_batch():
    # representations at init should be spread enough that the first batch
    # scores close to the uniform-softmax value log(B)
    _, enc, params = tiny_setup(seed=21, d_model=32, d_embed=32, m_queries=4,
                                k_probes=4, n_blocks=2, crm_layers=2, l_text=4)
    rng = np.random.default_rng(21)
    examples = random_examples(rng, enc, 16)
    fq = [query_representation(ex.query, params)[0] for ex in examples]
    ft = [target_representation(ex.target_patches, params) for ex in examples]
    from focalcir.numerics.tensor import concat_rows

    loss = contrastive_loss(concat_rows(fq), concat_rows(ft), params.tau)
    target = math.log(len(examples))
    assert abs(loss.item() - target) <= 0.15 * target


def test_train_is_deterministic_and_updates_weights():
    def run():
        _, enc, params = tiny_setup(seed=31)
        examples = random_examples(np.random.default_rng(31), enc, 8)
        cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
        result = train(params, examples, cfg)
        return result, params

    r1, p1 = run()
    r2, p2 = run()
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.steps == 4
    assert len(r1.epoch_losses) == 2
    assert all(np.isfinite(v) for v in r1.epoch_losses)
    for (n1, t1), (n2, t2) in zip(p1.named_params(), p2.named_params()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    # weights actually moved relative to a fresh init
    _, _, fresh = tiny_setup(seed=31)
    moved = [
        n for (n, t), (_, f) in zip(p1.named_params(), fresh.named_params())
        if t.requires_grad and not np.array_equal(t.data, f.data)
    ]
    assert "head.query.w" in moved


def test_fixed_beta_training_freezes_modulation_params():
    _, enc, params = tiny_setup(seed=41)
    before = {n: t.data.copy() for n, t in params.named_params() if n.startswith("caam.")}
    examples = random_examples(np.random.default_rng(41), enc, 6)
    train(params, examples, TrainConfig(epochs=1, batch_size=3, seed=1, fixed_beta=0.0))
    for n, t in params.named_params():
        if n.startswith("caam."):
            assert np.array_equal(t.data, before[n]), n
    # the encoder side still trained
    assert not np.array_equal(dict(params.named_params())["head.query.w"].data,
                              ModelParams(params.config, enc, seed=41).w_query.data)


def test_train_drops_singleton_tail_batch():
    _, enc, params = tiny_setup(seed=51)
    examples = random_examples(np.random.default_rng(51), enc, 5)
    result = train(params, examples, TrainConfig(epochs=1, batch_size=4, seed=2))
    assert result.steps == 1  # 4 + 1 -> the singleton is dropped


def test_train_rejects_empty_dataset():
    _, _, params = tiny_setup()
    with pytest.raises(ContractError):
        train(params, [], TrainConfig())


def test_train_rejects_a_single_example():
    # a batch of one has no in-batch negative and is skipped, so one example
    # would leave the model untrained with a NaN mean loss
    _, enc, params = tiny_setup(seed=53)
    examples = random_examples(np.random.default_rng(53), enc, 1)
    with pytest.raises(ContractError, match="at least 2 examples, got 1"):
        train(params, examples, TrainConfig(epochs=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_stops_training_before_the_update():
    # a tau of 1e-320, set past config validation, overflows 1/tau and makes
    # the loss NaN; AdamW must not apply the poisoned gradients
    _, enc, params = tiny_setup(seed=52)
    params.tau = 1e-320
    before = [t.data.copy() for _, t in params.named_params()]
    examples = random_examples(np.random.default_rng(52), enc, 4)
    with pytest.raises(ContractError, match="epoch 1 step 1: loss is nan"):
        train(params, examples, TrainConfig(epochs=1, batch_size=4, seed=2))
    for want, (name, t) in zip(before, params.named_params()):
        assert np.array_equal(t.data, want), name


def _ragged_examples(enc, seed):
    """Four examples on two grids, so every step pads its keys."""
    rng = np.random.default_rng(seed)
    return random_examples(rng, enc, 2) + random_examples(rng, enc, 2, grid=(3, 3))


def _reachable(value, tensors, attentions):
    """Every Tensor and AttentionParams reachable from value through
    dataclass fields, attributes, lists and tuples, found without named_params."""
    if isinstance(value, Tensor):
        tensors.append(value)
        return
    if isinstance(value, AttentionParams):
        attentions.append(value)
    if dataclasses.is_dataclass(value):
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, (list, tuple)):
        children = value
    elif isinstance(value, ModelParams):
        children = vars(value).values()
    else:
        return
    for child in children:
        _reachable(child, tensors, attentions)


@pytest.mark.parametrize("modulation", OUTPUT_FORMS)
@pytest.mark.parametrize("crm_variant", CRM_VARIANTS)
def test_named_params_name_every_reachable_tensor_once(crm_variant, modulation):
    # q.b_K is the same for every key of a row and cancels in the softmax,
    # so no attention of a model holds a key bias
    n_blocks, crm_layers = 2, 2
    _, _, params = tiny_setup(seed=91, n_blocks=n_blocks, crm_variant=crm_variant,
                              crm_layers=crm_layers, modulation=modulation)
    tensors, attentions = [], []
    _reachable(params, tensors, attentions)
    named = params.named_params()
    assert len({n for n, _ in named}) == len(named)  # no name twice
    assert sorted(map(id, tensors)) == sorted(id(t) for _, t in named)  # each tensor once
    assert len(attentions) == 2 * n_blocks + (crm_layers if crm_variant == "transformer" else 0)
    assert all(a.bk is None for a in attentions)
    assert not any(n.endswith(".bk") for n, _ in named)


def test_no_linear_in_a_training_step_takes_the_patches(monkeypatch):
    # attention reads the patches only through the merged W_Q W_K^T and
    # W_V W_O products, so no linear ever projects a patch tensor
    import focalcir.fusion as fusion

    _, enc, params = tiny_setup(seed=92)
    examples = _ragged_examples(enc, 92)
    patches, inputs = [], []
    real_layer, real_linear = fusion._layer_forward, fusion.linear

    def layer_spy(tokens, layer, kv, *args):
        if kv is not None:  # a fusion block; CRM layers attend to no patches
            patches.append(kv)
        return real_layer(tokens, layer, kv, *args)

    def linear_spy(x, w, b):
        inputs.append(x)
        return real_linear(x, w, b)

    monkeypatch.setattr(fusion, "_layer_forward", layer_spy)
    monkeypatch.setattr(fusion, "linear", linear_spy)
    assert train(params, examples, TrainConfig(epochs=1, batch_size=4, seed=1)).steps == 1
    assert len(patches) == 3  # the query, probe and target passes of one block
    assert inputs
    for x in inputs:
        for kv in patches:
            assert x is not kv
            assert x.data.shape != kv.data.shape or not np.array_equal(x.data, kv.data)


# -- gradients through the full pipeline -------------------------------------


def test_full_loss_gradients_match_finite_differences():
    _, enc, params = tiny_setup(seed=61)
    params = ModelParams(params.config, enc, seed=61, zero_modulation_head=False)
    examples = random_examples(np.random.default_rng(61), enc, 2)

    def forward():
        fq, ft = [], []
        for ex in examples:
            fq.append(query_representation(ex.query, params)[0])
            ft.append(target_representation(ex.target_patches, params))
        from focalcir.numerics.tensor import concat_rows

        return contrastive_loss(concat_rows(fq), concat_rows(ft), params.tau)

    tape = Tape()
    with tape:
        loss = forward()
    backward(loss, tape)
    picks = ["caam.wc", "caam.bc", "caam.probes", "rep_cls", "head.query.w",
             "head.target.b", "fusion.block0.cross.wk"]
    named = dict(params.named_params())
    for name in picks:
        t = named[name]
        assert t.grad is not None, name
        analytic = t.grad.copy()
        numeric = finite_diff_grad(lambda _t: forward().item(), t)
        err = max_rel_error(analytic, numeric)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"
    tape.clear()


# -- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    _, enc, params = tiny_setup(seed=71)
    train(params, random_examples(np.random.default_rng(71), enc, 4),
          TrainConfig(epochs=1, batch_size=2, seed=3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta={"note": "smoke", "config_hash": "abc"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "smoke", "config_hash": "abc"}
    for (n1, t1), (n2, t2) in zip(params.named_params(), loaded.named_params()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data), n1
        assert t1.requires_grad == t2.requires_grad
    assert loaded.encoders.seed == enc.seed
    assert np.array_equal(loaded.encoders.image_proj, enc.image_proj)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    _, _, params = tiny_setup(seed=81)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, params, meta={"k": 1})
    save_checkpoint(b, params, meta={"k": 1})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(DataError, match=re.escape(f"{path} is not a model checkpoint")):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    """Rewrites the checkpoint header in place, keeping the weights."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + hlen :])


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h["model_config"].update(caam_shares_encoder=True),
         "unknown keys ['{path}.model_config.caam_shares_encoder']"),
        (lambda h: h["model_config"].pop("k_probes"),
         "missing keys ['{path}.model_config.k_probes']"),
    ],
)
def test_checkpoint_with_mismatched_model_keys_names_them(tmp_path, edit, message):
    _, _, params = tiny_setup(seed=91)
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, params)
    _rewrite_header(path, edit)
    with pytest.raises(DataError, match=re.escape(message.format(path=path))):
        load_checkpoint(path)


def _old_layout_checkpoint(path, params):
    """Writes params in the layout of checkpoints made before the key bias
    went: a zero `bk` block after every `wk`, and a CRM layer's first norm
    named `ln_attn`."""
    blocks = []
    for name, t in params.named_params():
        if name.startswith("caam.crm.layer"):
            name = name.replace(".ln_self.", ".ln_attn.")
        blocks.append((name, t.data))
        if name.endswith(".wk"):
            blocks.append((name[: -len("wk")] + "bk", np.zeros((1, t.data.shape[1]))))
    enc = params.encoders
    header = {
        "version": 1, "meta": {}, "seed": params.seed,
        "model_config": dataclasses.asdict(params.config),
        "encoder": {"seed": enc.seed, "d_latent": enc.d_latent, "d_model": enc.d_model,
                    "l_text": enc.l_text},
        "params": [{"name": n, "shape": list(data.shape)} for n, data in blocks],
    }
    write_container(path, b"FCCKPT1\n", header, (data for _, data in blocks))


def test_eval_on_a_checkpoint_of_another_layout_exits_2_naming_its_params(tmp_path, capsys):
    world = WorldConfig(subset="fashion", n_categories=2, instances_per_category=3,
                        images_per_instance=5, n_contexts=6, grid=(4, 4), d_latent=4,
                        bbox_size_range=(0.3, 0.6), reserve_instances_per_category=3,
                        reserve_images_per_instance=3)
    thresholds = {"fashion": FilterThresholds(4, 0.9, 0.85, 3)}
    bench = build_benchmark(configs=[world], seed=13, d_model=8, l_text=2, train_cap=3,
                            eval_cap=4, n_distractors=4, thresholds=thresholds)
    save_benchmark(tmp_path / "run", bench)
    ckpt = tmp_path / "old.bin"
    _old_layout_checkpoint(ckpt, ModelParams(tiny_config(), bench.encoders, seed=5))
    cfg = tmp_path / "run.json"
    # the run config the benchmark was made under
    run = RunConfig(seed=13, out=str(tmp_path / "run"), world=(world,), thresholds=thresholds,
                    model=tiny_config(), bench=BenchSettings(train_cap=3, eval_cap=4, n_distractors=4))
    cfg.write_text(json.dumps(run.to_dict()))
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and "Traceback" not in err
    assert "fusion.block0.self.bk" in err  # unexpected
    assert "caam.crm.layer0.ln_self.gain" in err  # missing


def _drop_encoder(header):
    del header["encoder"]


def _seed_as_string(header):
    header["seed"] = str(header["seed"])


def _drop_first_shape(header):
    del header["params"][0]["shape"]


@pytest.mark.parametrize(
    "edit, message",
    [
        # every key is named under the file's path; the ids name the key alone
        pytest.param(_drop_encoder, "missing keys ['{path}.encoder'] in CheckpointHeader",
                     id="_drop_encoder-missing keys ['encoder'] in CheckpointHeader"),
        pytest.param(_seed_as_string, "'{path}.seed' must be int, got str",
                     id="_seed_as_string-'seed' must be int, got str"),
        pytest.param(_drop_first_shape, "missing keys ['{path}.params[0].shape'] in ParamRecord",
                     id="_drop_first_shape-missing keys ['params[0].shape'] in ParamRecord"),
        pytest.param(lambda h: h["encoder"].update(d_latent=-1),
                     "'{path}.encoder.d_latent' must be >= 1, got -1",
                     id="<lambda>-'encoder.d_latent' must be >= 1, got -1"),
        # in range for its type but not for the model: damaged data, not a config error
        (lambda h: h["model_config"].update(n_heads=0),
         "'{path}.model_config.n_heads' must be >= 1, got 0"),
        (lambda h: h["model_config"].update(crm_layers=0),
         "'{path}.model_config.crm_layers' must be >= 1, got 0"),
        (lambda h: h["model_config"].update(crm_variant="pool"),
         "'{path}.model_config.crm_variant' must be one of ('avg', 'mlp', 'transformer')"),
        # the meta is any JSON, but a NaN in it is still named
        (lambda h: h["meta"].update(final_loss=math.nan),
         "'{path}.meta.final_loss' must be finite, got nan"),
    ],
)
def test_checkpoint_header_damage_names_the_key(tmp_path, edit, message):
    _, _, params = tiny_setup(seed=95)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    _rewrite_header(path, edit)
    with pytest.raises(DataError, match=re.escape(message.format(path=path))):
        load_checkpoint(path)


def _cut_header(raw):
    return raw[:40]


def _cut_weights(raw):
    return raw[:-4]


def _nan_weight(raw):
    return raw[:-8] + struct.pack("<d", float("nan"))


@pytest.mark.parametrize(
    "damage, message",
    [
        (_cut_header, "is not valid JSON"),
        (_cut_weights, "parameter head.target.b in"),
        (_nan_weight, "parameter head.target.b in"),
    ],
)
def test_checkpoint_damage_fails_by_name(tmp_path, damage, message):
    # head.target.b is the last block in the file
    _, _, params = tiny_setup(seed=93)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def _repeat_last_parameter(path):
    """Lists the last parameter twice in the header and writes its block twice."""
    last = {}
    _rewrite_header(path, lambda h: (last.update(h["params"][-1]),
                                     h["params"].append(h["params"][-1])))
    raw = path.read_bytes()
    path.write_bytes(raw + raw[-8 * math.prod(last["shape"]):])


@pytest.mark.parametrize("damage, message", [
    (lambda p: p.write_bytes(p.read_bytes() + bytes(64)), "{path} has bytes after its last parameter"),
    (_repeat_last_parameter, "{path}: params[{n}].name 'head.target.b' repeats params[{last}]"),
], ids=["bytes appended", "last parameter repeated"])
def test_checkpoint_ends_where_its_header_says(tmp_path, damage, message):
    _, _, params = tiny_setup(seed=93)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    damage(path)
    n = len(params.named_params())
    with pytest.raises(DataError, match=re.escape(message.format(path=path, n=n, last=n - 1))):
        load_checkpoint(path)


def test_last_layers_compute_only_the_rows_that_are_read(monkeypatch):
    # the query pass reads the cls row, the probe pass [cls, probes] and the
    # CRM its row 0, so each last layer normalizes only those rows; the
    # target pass reads every fusion query. Fusion blocks and CRM layers
    # share one layer, so every layer norm is fusion's; a CRM layer has no
    # cross-attention and normalizes twice
    import focalcir.fusion as fusion

    m, k, l_text = 2, 3, 2
    _, enc, params = tiny_setup(seed=93, m_queries=m, k_probes=k, l_text=l_text,
                                n_blocks=2, crm_layers=2)
    params = ModelParams(params.config, enc, seed=93, zero_modulation_head=False)
    seen = []
    real = fusion.residual_norm

    def spy(x, y, gain, shift):
        seen.append(x.data.shape[-2])
        return real(x, y, gain, shift)

    monkeypatch.setattr(fusion, "residual_norm", spy)
    samples = [random_sample(np.random.default_rng(93), enc) for _ in range(3)]
    _, applied = query_representation(samples, params)
    assert all(b != 0.0 for b in applied)  # the probe pass and CRM ran
    probe_pass = [1 + m + k + l_text] * 3 + [1 + k] * 3
    crm = [1 + k] * 2 + [1] * 2
    query_pass = [1 + m + l_text] * 3 + [1] * 3
    assert seen == probe_pass + crm + query_pass
    seen.clear()
    target_representation([s.patches for s in samples], params)
    assert seen == [m] * 6
