"""Region masks and modulated cross-attention against straight-line oracles."""

import contextlib
import dataclasses
import re

import numpy as np
import pytest

from focalcir import model
from focalcir.encoders import ContextDescriptor, EncoderParams, embed_text
from focalcir.errors import ConfigError, ContractError
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.tensor import (
    Tape, Tensor, backward, concat_rows, constant, mul, parameter, sum_all,
)
from focalcir.fusion import (
    WEIGHT_INIT,
    AttentionParams,
    _attention,
    _layer_forward,
    _logit_bias,
    encode_target,
    init_fusion_params,
    modulated_cross_attention,
    multimodal_encode,
    region_mask_from_bbox,
    shared_merged_weights,
    stack_patches,
)


def fusion_of(rng, d_model, **sizes):
    """The fusion encoder of a model with these sizes."""
    return init_fusion_params(rng, model.ModelConfig(d_model=d_model, **sizes))


def live_fusion_of(rng, d_model, **sizes):
    """`fusion_of` with every weight matrix scaled to a std of 0.5, so the
    softmaxes are far from uniform."""
    fusion = fusion_of(rng, d_model, **sizes)
    for block in fusion.blocks:
        for _, t in model._layer_named("block", block):
            if t.data.shape[0] > 1:  # a matrix, not a bias, gain or shift
                t.data = t.data * (0.5 / WEIGHT_INIT)
    return fusion


def plain_attention_oracle(queries, kv, p, n_heads=1, bias=None):
    """Attention written independently in numpy, unmerged: K and V are
    projected explicitly, each head takes softmax((q k^T + bias) / sqrt(d_head))
    v, and the heads are concatenated and projected by wo when present.

    Queries and kv may carry a leading batch axis; bias broadcasts onto the
    logits and may hold -inf on padded keys."""
    d_head = p.wq.data.shape[1] // n_heads
    q = queries @ p.wq.data + p.bq.data
    k = kv @ p.wk.data + p.bk.data
    v = kv @ p.wv.data + p.bv.data
    heads = []
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        logits = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2)
        if bias is not None:
            logits = logits + bias
        logits = logits / np.sqrt(d_head)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        heads.append(e / e.sum(axis=-1, keepdims=True) @ v[..., cols])
    out = np.concatenate(heads, axis=-1)
    return out if p.wo is None else out @ p.wo.data + p.bo.data


def make_attn_params(rng, d, with_output=False):
    def w():
        return parameter(rng.normal(0.0, 0.3, size=(d, d)))

    def b():
        return parameter(rng.normal(0.0, 0.1, size=(1, d)))

    p = AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(), wv=w(), bv=b())
    if with_output:
        p.wo, p.bo = w(), b()
    return p


# --- region masks ----------------------------------------------------------


def test_full_cover_bbox_masks_everything():
    m = region_mask_from_bbox([(0.0, 0.0, 1.0, 1.0)], (4, 4))
    assert np.array_equal(m, np.ones((1, 16)))


def test_half_box_on_4x4_grid():
    # centers at 0.125/0.375/0.625/0.875; only 0.125 and 0.375 are < 0.5,
    # so the top-left 2x2 block is selected: raster indices 0, 1, 4, 5
    (m,) = region_mask_from_bbox([(0.0, 0.0, 0.5, 0.5)], (4, 4))
    expected = np.zeros(16)
    expected[[0, 1, 4, 5]] = 1.0
    assert np.array_equal(m, expected)


_EMPTY_2X2 = re.escape("bbox (0.9, 0.9, 0.95, 0.95) covers no patch center on a 2x2 grid")


def test_tiny_corner_bbox_is_empty():
    # (0.9, 0.9, 0.95, 0.95) on a 2x2 grid: centers at 0.25/0.75, none inside
    with pytest.raises(ContractError, match=_EMPTY_2X2):
        region_mask_from_bbox([(0.9, 0.9, 0.95, 0.95)], (2, 2))


def mask_loop_oracle(bbox, grid):
    """The patch-center rule, one patch at a time."""
    h, w = grid
    values = np.zeros(h * w)
    for r in range(h):
        for c in range(w):
            cx, cy = (c + 0.5) / w, (r + 0.5) / h
            x0, y0, x1, y1 = bbox
            if x0 <= cx < x1 and y0 <= cy < y1:
                values[r * w + c] = 1.0
    return values


def test_mask_matches_loop_oracle_on_random_boxes():
    rng = np.random.default_rng(12)
    empty = 0
    by_grid: dict[tuple[int, int], list] = {}
    for trial in range(3000):
        grid = (int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        x0, x1 = np.sort(rng.uniform(0.0, 1.0, size=2))
        y0, y1 = np.sort(rng.uniform(0.0, 1.0, size=2))
        if trial % 7 == 0:  # land edges exactly on patch centers
            x0, y0 = 0.5 / grid[1], 0.5 / grid[0]
        bbox = (float(x0), float(y0), float(x1), float(y1))
        if not (x0 < x1 and y0 < y1):
            continue
        want = mask_loop_oracle(bbox, grid)
        if not want.any():
            empty += 1
            named = f"bbox {bbox} covers no patch center on a {grid[0]}x{grid[1]} grid"
            with pytest.raises(ContractError, match=re.escape(named)):
                region_mask_from_bbox([bbox], grid)
            continue
        (got,) = region_mask_from_bbox([bbox], grid)
        assert got.tobytes() == want.tobytes(), (bbox, grid)
        by_grid.setdefault(grid, []).append((bbox, want))
    assert empty > 0  # the empty-mask path was exercised
    # one call per grid on every box of that grid equals the per-box loop
    for grid, cases in by_grid.items():
        got = region_mask_from_bbox([bbox for bbox, _ in cases], grid)
        assert got.shape == (len(cases), grid[0] * grid[1])
        assert got.tobytes() == np.stack([want for _, want in cases]).tobytes(), grid


def _query_batch(rng, enc, cases):
    """QuerySamples for (grid, bbox) pairs; bbox None makes a box-less query."""
    out = []
    for grid, bbox in cases:
        latents = rng.normal(size=(grid[0] * grid[1], enc.d_latent))
        text = embed_text(ContextDescriptor("c", rng.normal(size=enc.d_latent)), enc)
        out.append(model.QuerySample(patches=latents @ enc.image_proj, grid=grid,
                                     bbox=bbox, text=text))
    return out


def test_query_batch_masks_match_loop_oracle_across_grids(monkeypatch):
    enc = EncoderParams(seed=3, d_latent=8, d_model=16, l_text=2)
    params = model.ModelParams(
        model.ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                          n_blocks=1, crm_layers=1), enc, seed=4)
    cases = [((2, 2), (0.1, 0.1, 0.6, 0.6)), ((3, 4), (0.0, 0.2, 0.7, 0.9)),
             ((2, 2), None), ((3, 4), (0.5, 0.5, 1.0, 1.0)), ((2, 2), (0.3, 0.0, 1.0, 0.8)),
             ((3, 4), None)]
    batch = _query_batch(np.random.default_rng(5), enc, cases)
    seen = {"mask_calls": 0}
    real_mask, real_encode = model.region_mask_from_bbox, model.multimodal_encode

    def counting_mask(bboxes, grid):
        seen["mask_calls"] += 1
        return real_mask(bboxes, grid)

    def capturing_encode(*args, **kwargs):
        seen["rows"] = kwargs["mask"]
        return real_encode(*args, **kwargs)

    monkeypatch.setattr(model, "region_mask_from_bbox", counting_mask)
    monkeypatch.setattr(model, "multimodal_encode", capturing_encode)
    model.query_representation(batch, params, beta_override=2.0)
    assert seen["mask_calls"] == 2  # one per distinct grid
    rows = seen["rows"]
    assert rows.shape == (len(cases), 1, 12)  # padded to the larger grid
    for i, (grid, bbox) in enumerate(cases):
        n = grid[0] * grid[1]
        want = np.zeros(12)
        if bbox is not None:
            want[:n] = mask_loop_oracle(bbox, grid)
        assert rows[i, 0].tobytes() == want.tobytes(), i


def test_bad_box_inside_a_batch_is_named():
    empty_box = (0.9, 0.9, 0.95, 0.95)  # no patch center on a 2x2 grid
    boxes = [(0.0, 0.0, 1.0, 1.0), empty_box, (0.1, 0.1, 0.6, 0.6)]
    with pytest.raises(ContractError, match=re.escape(f"bbox {empty_box} covers no patch center")):
        region_mask_from_bbox(boxes, (2, 2))
    outside = (-0.2, 0.0, 0.6, 0.6)  # covers patch centers, but is not a valid box
    with pytest.raises(ContractError, match=re.escape(str(outside))):
        region_mask_from_bbox([boxes[0], outside, boxes[2]], (2, 2))
    enc = EncoderParams(seed=3, d_latent=8, d_model=16, l_text=2)
    params = model.ModelParams(
        model.ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                          n_blocks=1, crm_layers=1), enc, seed=4)
    batch = _query_batch(np.random.default_rng(6), enc, [((2, 2), b) for b in boxes])
    with pytest.raises(ContractError, match=re.escape(f"bbox {empty_box} covers no patch center")):
        model.query_representation(batch, params)


def test_a_query_whose_patches_miss_its_grid_is_named():
    # the mask rows of a batch come per grid, and each boxed sample's patch
    # count must be its grid's; a box-less sample needs no grid
    enc = EncoderParams(seed=3, d_latent=8, d_model=16, l_text=2)
    params = model.ModelParams(
        model.ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                          n_blocks=1, crm_layers=1), enc, seed=4)
    batch = _query_batch(np.random.default_rng(7), enc,
                         [((2, 2), (0.1, 0.1, 0.6, 0.6)), ((3, 3), None)])
    model.query_representation([batch[0], dataclasses.replace(batch[1], grid=(2, 2))], params)
    wrong = dataclasses.replace(batch[1], bbox=(0.1, 0.1, 0.6, 0.6), grid=(2, 2))
    for call in (lambda: model.query_representation([batch[0], wrong], params),
                 lambda: model.cropped(wrong)):
        with pytest.raises(ContractError, match="mask covers 4 patches but image has 9"):
            call()


def test_mask_values_are_binary_and_nonempty():
    enc, patches, text = make_world_inputs(grid=(2, 2))
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=1)
    with pytest.raises(ContractError):
        multimodal_encode(patches, text, fusion, mask=np.full(4, 0.5), beta=1.0)
    with pytest.raises(ContractError):
        modulated_cross_attention(constant(text.tokens), constant(patches),
                                  fusion.blocks[0].cross_attn, np.full(4, 0.5), 1.0)
    with pytest.raises(ContractError, match=_EMPTY_2X2):
        region_mask_from_bbox([(0.9, 0.9, 0.95, 0.95)], (2, 2))
    with pytest.raises(ContractError, match="mask covers 5 keys but there are 4"):
        multimodal_encode(patches, text, fusion, mask=np.ones(5), beta=1.0)


# --- modulated cross-attention ---------------------------------------------


def test_beta_zero_equals_unmodulated_oracle():
    rng = np.random.default_rng(0)
    for trial in range(100):
        d = int(rng.integers(2, 10))
        n_q = int(rng.integers(1, 6))
        n_k = int(rng.integers(1, 12))
        p = make_attn_params(rng, d)
        queries = rng.normal(size=(n_q, d))
        kv = rng.normal(size=(n_k, d))
        mask = np.zeros(n_k)
        mask[rng.integers(0, n_k)] = 1.0
        got = modulated_cross_attention(constant(queries), constant(kv), p, mask, 0.0).data
        want = plain_attention_oracle(queries, kv, p)
        assert np.max(np.abs(got - want)) <= 1e-15, trial


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("kind", ["self", "cross"])
def test_attention_equals_unmerged_oracle(kind, n_heads):
    # _attention attends through W_Q W_K^T and W_V W_O and never projects
    # its keys or values; the oracle projects both, with non-zero b_K and
    # b_V, so any term the merged form drops shows up here
    rng = np.random.default_rng(20 + n_heads)
    d, batch, n_q, n_k = 8, 3, 5, 7
    for trial in range(12):
        p = make_attn_params(rng, d, with_output=trial % 2 == 0)
        shared = kind == "cross" and trial % 3 == 0  # one token set for the batch
        queries = rng.normal(size=(n_q, d) if shared else (batch, n_q, d))
        kv = queries if kind == "self" else rng.normal(size=(batch, n_k, d))
        n = kv.shape[-2]
        region = (rng.random((batch, 1, n)) < 0.5) * rng.uniform(0.5, 8.0)
        key_mask = np.zeros((batch, 1, n))
        key_mask[1, 0, n - 2 :] = -np.inf
        per_row = rng.normal(size=(batch, n_q, n))  # vector beta: one bias per query row
        for bias in (None, region, region + key_mask, per_row + key_mask):
            got = _attention(constant(queries), constant(kv), p, n_heads,
                             None if bias is None else constant(bias)).data
            want = plain_attention_oracle(queries, kv, p, n_heads, bias)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12, trial


@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("beta_form", ["scalar", "vector", "padding-only"])
def test_encode_gradients_match_finite_differences(beta_form, n_heads):
    # a batched fusion pass over a ragged pair of images, so a -inf key mask
    # rides on every cross-attention, plus a region bias from a scalar or
    # vector beta. Three reads are checked: the fusion queries of a pass
    # that brings no tokens, and, where the last block computes only the
    # rows that are read, the cls row of a pass that brings (cls,) and the
    # [cls, extras] rows of one that brings (cls, extras)
    rng = np.random.default_rng(30 + n_heads)
    d, m = 4, 2
    fusion = live_fusion_of(rng, d, m_queries=m, n_blocks=1, n_heads=n_heads)
    block = fusion.blocks[0]
    attns = (block.self_attn, block.cross_attn)
    for a in attns:
        a.bk = parameter(np.zeros((1, d)))  # never read: the forward must not see it
        for b in (a.bq, a.bk, a.bv, a.bo):
            b.data = rng.normal(0.0, 0.2, size=b.data.shape)
    patches, key_mask = stack_patches([rng.normal(size=(4, d)), rng.normal(size=(3, d))])
    assert key_mask is not None
    text = rng.normal(size=(2, 2, d))
    region = np.array([[[1.0, 1.0, 0.0, 0.0]], [[0.0, 1.0, 1.0, 0.0]]])
    beta = {"scalar": parameter(rng.uniform(0.5, 2.0, size=(2, 1, 1))),
            "vector": parameter(rng.uniform(0.5, 2.0, size=(2, 1, m))),
            "padding-only": 0.0}[beta_form]
    fused_weights = constant(rng.normal(size=(2, m, d)))
    cls = parameter(rng.normal(0.0, 0.5, size=(1, d)))
    extras = parameter(rng.normal(0.0, 0.5, size=(3, d)))
    reads = [  # (the tokens brought, the rows read, their weights)
        ((), "fused", fused_weights),
        ((cls,), "cls", constant(rng.normal(size=(2, 1, d)))),
        ((cls, extras), "cls+extra", constant(rng.normal(size=(2, 4, d)))),
    ]
    for tokens, field, weights in reads:
        checked = [getattr(a, name) for a in attns
                   for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")]
        checked += [beta] if isinstance(beta, Tensor) else []
        checked += list(tokens)
        for t in checked + [a.bk for a in attns]:
            t.grad = None

        def encode():
            return multimodal_encode(
                patches, text, fusion, mask=None if beta_form == "padding-only" else region,
                beta=beta, tokens=tokens, key_mask=key_mask)

        def build():
            return sum_all(mul(encode(), weights))

        tape = Tape()
        with tape:
            loss = build()
        backward(loss, tape)
        analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in checked]
        assert all(a.bk.grad is None for a in attns), field  # b_K cancels in the softmax
        tape.clear()
        for i, (t, a) in enumerate(zip(checked, analytic)):
            numeric = finite_diff_grad(lambda _t: build().item(), t)
            assert max_rel_error(a, numeric) < 1e-5, (field, i)
        # b_K cancels in the softmax, so a nonzero one leaves every bit in place
        with_bk = encode().data
        key_biases = [a.bk for a in attns]
        for a in attns:
            a.bk = None
        assert np.array_equal(encode().data, with_bk), field
        for a, bk in zip(attns, key_biases):
            a.bk = bk


@pytest.mark.parametrize("beta, error, named", [
    ("0.5", ContractError, "beta must be a float or Tensor, got str"),
    (constant(np.ones((2, 3))), ContractError, "vector beta must be 1 x m, got (2, 3)"),
    (constant(np.ones((1, 3))), ContractError, "vector beta has 3 entries for 2 fusion queries"),
], ids=["not-a-float-or-tensor", "not-one-row", "wrong-length"])
def test_logit_bias_rejects_a_bad_beta_naming_it(beta, error, named):
    # rows [cls, 2 fusion queries, text] over 5 patch keys
    with pytest.raises(error) as info:
        _logit_bias(np.ones((1, 5)), beta, 4, (1, 3), None)
    assert named in str(info.value)


def full_pass_rows(patches, text, fusion, mask, beta, tokens, key_mask):
    """The outputs of the brought tokens (or of the fusion queries, when none
    are brought) from a pass that runs every block on every row of
    [tokens, queries, text], from the encoder's own block and bias ops: the
    rows a pruned last block must reproduce."""
    m, n_own = fusion.queries.data.shape[0], sum(t.data.shape[0] for t in tokens)
    rows = concat_rows([*tokens, fusion.queries, constant(text)])
    bias = _logit_bias(mask, beta, rows.data.shape[-2], (n_own, n_own + m), key_mask)
    for block in fusion.blocks:
        rows = _layer_forward(rows, block, constant(patches), bias)
    return rows.data[:, : n_own or m]


@pytest.mark.parametrize("n_blocks", [1, 2])
@pytest.mark.parametrize("n_heads", [1, 2])
@pytest.mark.parametrize("beta_form", ["scalar", "vector", "padding-only"])
def test_read_rows_equal_a_full_pass(beta_form, n_heads, n_blocks):
    # the last block computes only the rows that are read, with every token
    # as a self-attention key and value, so those rows are the full pass's:
    # bit for bit when it keeps several rows; a single kept row goes through
    # 1-row products, which BLAS may round differently
    rng = np.random.default_rng(50 + 4 * n_heads + n_blocks)
    d, m, k = 8, 3, 4
    fusion = live_fusion_of(rng, d, m_queries=m, n_blocks=n_blocks, n_heads=n_heads)
    cls = parameter(rng.normal(0.0, 0.5, size=(1, d)))
    extras = parameter(rng.normal(0.0, 0.5, size=(k, d)))
    patches, key_mask = stack_patches([rng.normal(size=(n, d)) for n in (5, 3, 4)])
    text = rng.normal(size=(3, 2, d))
    mask = None if beta_form == "padding-only" else (rng.random((3, 1, 5)) < 0.5) * 1.0
    beta = {"scalar": parameter(rng.uniform(0.5, 3.0, size=(3, 1, 1))),
            "vector": parameter(rng.uniform(0.5, 3.0, size=(3, 1, m))),
            "padding-only": 0.0}[beta_form]
    for tokens, read in (((cls,), "cls"), ((cls, extras), "cls+extra"), ((extras,), "extra"),
                         ((), "fused")):
        want = full_pass_rows(patches, text, fusion, mask, beta, tokens, key_mask)
        got = multimodal_encode(patches, text, fusion, mask=mask, beta=beta, tokens=tokens,
                                key_mask=key_mask).data
        assert got.shape == want.shape, read
        if got.shape[1] > 1:
            assert got.tobytes() == want.tobytes(), read
        else:
            err = np.max(np.abs(got - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (read, err)


def test_single_key_output_is_value_row():
    rng = np.random.default_rng(1)
    d = 6
    p = make_attn_params(rng, d)
    queries = rng.normal(size=(3, d))
    kv = rng.normal(size=(1, d))
    for beta in (0.0, 5.0, 100.0):
        got = modulated_cross_attention(constant(queries), constant(kv), p, np.ones(1), beta).data
        want = kv @ p.wv.data + p.bv.data
        assert np.allclose(got, np.tile(want, (3, 1)), atol=1e-12)


def test_rows_sum_to_one_via_uniform_values():
    # with V = identity-ish constant columns the output row equals the
    # attention row sum; check sum over an explicit attention reconstruction
    rng = np.random.default_rng(2)
    d = 8
    p = make_attn_params(rng, d)
    queries = rng.normal(size=(4, d))
    kv = rng.normal(size=(9, d))
    mask = np.zeros(9)
    mask[:3] = 1.0
    # yank out the attention matrix by feeding one-hot values
    q = queries @ p.wq.data + p.bq.data
    k = kv @ p.wk.data + p.bk.data
    logits = (q @ k.T + 4.0 * mask.reshape(1, -1)) / np.sqrt(d)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = z / z.sum(axis=1, keepdims=True)
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-9


def test_masked_mass_grows_monotonically_with_beta():
    rng = np.random.default_rng(3)
    d = 8
    p = make_attn_params(rng, d)
    queries = rng.normal(size=(2, d))
    kv = rng.normal(size=(10, d))
    mask = np.zeros(10)
    mask[[2, 7]] = 1.0
    masses = []
    for beta in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0):
        q = queries @ p.wq.data + p.bq.data
        k = kv @ p.wk.data + p.bk.data
        logits = (q @ k.T + beta * mask.reshape(1, -1)) / np.sqrt(d)
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = z / z.sum(axis=1, keepdims=True)
        masses.append(attn[:, mask == 1.0].sum(axis=1).min())
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_huge_beta_saturates_masked_columns():
    rng = np.random.default_rng(4)
    d = 8
    p = make_attn_params(rng, d)
    queries = rng.normal(size=(3, d)) * 0.2
    kv = rng.normal(size=(8, d)) * 0.2
    mask = np.zeros(8)
    mask[5] = 1.0
    beta = 50.0 * np.sqrt(d)
    q = queries @ p.wq.data + p.bq.data
    k = kv @ p.wk.data + p.bk.data
    logits = (q @ k.T + beta * mask.reshape(1, -1)) / np.sqrt(d)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = z / z.sum(axis=1, keepdims=True)
    assert attn[:, 5].min() >= 0.999


def test_permuting_patches_with_mask_leaves_output_unchanged():
    rng = np.random.default_rng(5)
    d = 6
    p = make_attn_params(rng, d)
    queries = rng.normal(size=(3, d))
    kv = rng.normal(size=(7, d))
    mask = np.zeros(7)
    mask[[1, 4]] = 1.0
    base = modulated_cross_attention(constant(queries), constant(kv), p, mask, 2.5).data
    perm = rng.permutation(7)
    permuted = modulated_cross_attention(
        constant(queries), constant(kv[perm]), p, mask[perm], 2.5
    ).data
    assert np.max(np.abs(base - permuted)) < 1e-12


def test_nonzero_beta_without_mask_rejected():
    rng = np.random.default_rng(6)
    p = make_attn_params(rng, 4)
    with pytest.raises(ContractError):
        modulated_cross_attention(
            constant(rng.normal(size=(2, 4))), constant(rng.normal(size=(3, 4))), p, None, 1.0
        )


def test_mask_length_mismatch_raises():
    rng = np.random.default_rng(7)
    p = make_attn_params(rng, 4)
    with pytest.raises(ContractError, match="mask covers 5 keys but there are 3"):
        modulated_cross_attention(
            constant(rng.normal(size=(2, 4))),
            constant(rng.normal(size=(3, 4))),
            p,
            np.ones(5),
            1.0,
        )


def test_beta_gradient_flows_through_bias():
    rng = np.random.default_rng(8)
    d = 5
    p = make_attn_params(rng, d)
    queries = constant(rng.normal(size=(2, d)))
    kv = constant(rng.normal(size=(6, d)))
    mask = np.zeros(6)
    mask[2] = 1.0
    beta = parameter([[1.3]])

    def build(_b=None):
        out = modulated_cross_attention(queries, kv, p, mask, beta)
        return sum_all(mul(out, out))

    tape = Tape()
    with tape:
        loss = build()
    backward(loss, tape)
    analytic = beta.grad.copy()
    tape.clear()
    numeric = finite_diff_grad(lambda _t: build().item(), beta)
    assert max_rel_error(analytic, numeric) < 1e-6
    assert abs(analytic[0, 0]) > 1e-8  # the bias genuinely participates


def test_vector_beta_biases_each_query_row():
    rng = np.random.default_rng(9)
    d = 4
    fusion = fusion_of(np.random.default_rng(10), d, m_queries=3, n_blocks=1)
    enc = EncoderParams(seed=1, d_latent=4, d_model=d, l_text=2)
    patches = rng.normal(size=(2, 2, 4)).reshape(4, 4) @ enc.image_proj
    (mask,) = region_mask_from_bbox([(0.0, 0.0, 0.6, 0.6)], (2, 2))
    text = embed_text(ContextDescriptor("c", np.array([1.0, 0, 0, 0])), enc)
    betas = parameter([[0.0, 3.0, -1.0]])
    out = multimodal_encode(patches, text, fusion, mask=mask, beta=betas)
    flat = parameter([[1.5]])
    out_flat = multimodal_encode(patches, text, fusion, mask=mask, beta=flat)
    assert out.data.shape == (3, d)
    assert not np.allclose(out.data, out_flat.data)


# --- full encoder ------------------------------------------------------------


def make_world_inputs(seed=0, d_model=16, grid=(4, 4)):
    rng = np.random.default_rng(seed)
    enc = EncoderParams(seed=2, d_latent=8, d_model=d_model, l_text=3)
    latents = rng.normal(size=(grid[0], grid[1], 8))
    patches = latents.reshape(-1, 8) @ enc.image_proj
    latent = rng.normal(size=8)
    text = embed_text(ContextDescriptor("ctx", latent / np.linalg.norm(latent)), enc)
    return enc, patches, text


def test_multimodal_encode_shapes_and_roles():
    enc, patches, text = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    cls = parameter(np.random.default_rng(2).normal(0, 0.02, size=(1, 16)))
    extras = parameter(np.random.default_rng(3).normal(0, 0.02, size=(5, 16)))
    (mask,) = region_mask_from_bbox([(0.25, 0.25, 0.80, 0.80)], (4, 4))
    # the rows of the tokens a caller brings, or the 4 fusion queries' rows
    for tokens, rows in (((), 4), ((cls,), 1), ((extras,), 5), ((cls, extras), 6)):
        res = multimodal_encode(patches, text, fusion, mask=mask, beta=1.0, tokens=tokens)
        assert res.data.shape == (rows, 16), rows


def test_encode_without_mask_needs_zero_beta():
    enc, patches, text = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=1)
    with pytest.raises(ContractError):
        multimodal_encode(patches, text, fusion, mask=None, beta=1.0)


def test_mask_grid_mismatch_raises():
    enc, patches, text = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=1)
    (mask,) = region_mask_from_bbox([(0.0, 0.0, 1.0, 1.0)], (2, 2))
    with pytest.raises(ContractError, match="mask covers 4 keys but there are 16"):
        multimodal_encode(patches, text, fusion, mask=mask, beta=1.0)


def test_beta_zero_encode_equals_no_mask_encode():
    enc, patches, text = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    (mask,) = region_mask_from_bbox([(0.0, 0.0, 0.5, 0.5)], (4, 4))
    with_mask = multimodal_encode(patches, text, fusion, mask=mask, beta=0.0)
    without = multimodal_encode(patches, text, fusion, mask=None, beta=0.0)
    assert np.array_equal(with_mask.data, without.data)


def test_beta_changes_fused_output():
    enc, patches, text = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    (mask,) = region_mask_from_bbox([(0.0, 0.0, 0.5, 0.5)], (4, 4))
    a = multimodal_encode(patches, text, fusion, mask=mask, beta=0.0).data
    b = multimodal_encode(patches, text, fusion, mask=mask, beta=4.0).data
    assert np.max(np.abs(a - b)) > 1e-6


def test_multi_head_runs_and_differs_from_single_head():
    enc, patches, text = make_world_inputs()
    fusion1 = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=1, n_heads=1)
    fusion2 = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=1, n_heads=2)
    (mask,) = region_mask_from_bbox([(0.0, 0.0, 0.5, 0.5)], (4, 4))
    a = multimodal_encode(patches, text, fusion1, mask=mask, beta=2.0).data
    b = multimodal_encode(patches, text, fusion2, mask=mask, beta=2.0).data
    assert a.shape == b.shape == (4, 16)
    assert not np.allclose(a, b)


def test_encode_target_deterministic_and_text_free():
    enc, patches, _ = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    t1 = encode_target(patches, fusion).data
    t2 = encode_target(patches, fusion).data
    assert np.array_equal(t1, t2)
    other = encode_target(patches + 0.1, fusion).data
    assert not np.allclose(t1, other)


@pytest.mark.parametrize("cross", [True, False])
def test_a_layer_records_the_same_few_tape_entries_at_any_head_count(cross):
    # per attention: transpose(W_K), the W_QK, b_QK and W_VO head products,
    # the b_VO linear and the attention op; then one post-norm residual per
    # sub-layer and one feed-forward op. Heads are an axis of those ops, so
    # the count does not grow with n_heads
    counts = []
    for n_heads in (1, 2):
        rng = np.random.default_rng(40)
        fusion = fusion_of(rng, 8, m_queries=3, n_blocks=1, n_heads=n_heads)
        layer = fusion.blocks[0]
        if not cross:
            layer.cross_attn = layer.ln_cross = None
        patches, key_mask = stack_patches([rng.normal(size=(5, 8)), rng.normal(size=(4, 8))])
        bias = constant(key_mask) if cross else None
        tokens = parameter(rng.normal(size=(2, 6, 8)))
        tape = Tape()
        with tape:
            _layer_forward(tokens, layer, constant(patches) if cross else None, bias)
        counts.append(len(tape))
        tape.clear()
    assert counts == ([16, 16] if cross else [9, 9])


def test_a_scope_builds_each_attentions_products_once_and_computes_the_same():
    # in a scope, a second pass over the same weights reuses the four merged
    # products (and W_K^T) of each of its 2 blocks x 2 attentions
    enc, patches, text = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=2, n_heads=2)
    (mask,) = region_mask_from_bbox([(0.0, 0.0, 0.5, 0.5)], (4, 4))

    def passes():
        return [multimodal_encode(patches, text, fusion, mask=mask, beta=beta).data
                for beta in (0.0, 2.0)]

    counts, outputs = [], []
    for scope in (contextlib.nullcontext, shared_merged_weights):
        tape = Tape()
        with tape, scope():
            outputs.append(passes())
        counts.append(len(tape))
        tape.clear()
    assert counts[0] - counts[1] == 2 * 2 * 5
    for alone, shared in zip(*outputs):
        assert np.array_equal(alone, shared)


def test_products_asked_for_under_another_tape_raise():
    # products built on one tape would get no gradient from another's backward
    enc, patches, text = make_world_inputs()
    fusion = fusion_of(np.random.default_rng(1), 16, m_queries=4, n_blocks=1)
    with Tape(), shared_merged_weights(), Tape():
        with pytest.raises(ContractError, match="under another tape"):
            multimodal_encode(patches, text, fusion)
    with shared_merged_weights(), Tape():  # a scope opened with no tape
        with pytest.raises(ContractError, match="under another tape"):
            multimodal_encode(patches, text, fusion)


@pytest.mark.parametrize("kwargs", [{"n_blocks": 0}, {"m_queries": 0}, {"n_heads": 0},
                                    {"n_heads": -2}, {"n_heads": 3}])
def test_init_fusion_params_rejects_bad_sizes(kwargs):
    # init_fusion_params trusts its config; building the model validates it
    # first, so no fusion encoder is built from these sizes
    config = model.ModelConfig(**{"d_model": 8, "m_queries": 2, "n_blocks": 1, **kwargs})
    enc = EncoderParams(seed=0, d_latent=4, d_model=8, l_text=config.l_text)
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        model.ModelParams(config, enc, seed=0)
