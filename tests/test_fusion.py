"""Region masks and modulated cross-attention against straight-line oracles."""

import numpy as np
import pytest

from focalcir.encoders import ContextDescriptor, EncoderParams, embed_text
from focalcir.errors import AlignmentError, ContractError, EmptyMaskError
from focalcir import numerics as nm
from focalcir.numerics.tensor import Tape, Tensor, backward, constant, parameter
from focalcir.fusion import (
    AttentionParams,
    RegionMask,
    encode_target,
    init_fusion_params,
    modulated_cross_attention,
    multimodal_encode,
    region_mask_from_bbox,
)


def plain_attention_oracle(queries, kv, p, d_head):
    """Unmodulated single-head attention, written independently in numpy."""
    q = queries @ p.wq.data + p.bq.data
    k = kv @ p.wk.data + p.bk.data
    v = kv @ p.wv.data + p.bv.data
    logits = (q @ k.T) / np.sqrt(d_head)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    attn = e / e.sum(axis=1, keepdims=True)
    return attn @ v


def make_attn_params(rng, d):
    def w():
        return parameter(rng.normal(0.0, 0.3, size=(d, d)))

    def b():
        return parameter(rng.normal(0.0, 0.1, size=(1, d)))

    return AttentionParams(wq=w(), bq=b(), wk=w(), bk=b(), wv=w(), bv=b())


# --- region masks ----------------------------------------------------------


def test_full_cover_bbox_masks_everything():
    m = region_mask_from_bbox((0.0, 0.0, 1.0, 1.0), (4, 4))
    assert m.count == 16
    assert np.array_equal(m.values, np.ones(16))


def test_half_box_on_4x4_grid():
    # centers at 0.125/0.375/0.625/0.875; only 0.125 and 0.375 are < 0.5,
    # so the top-left 2x2 block is selected: raster indices 0, 1, 4, 5
    m = region_mask_from_bbox((0.0, 0.0, 0.5, 0.5), (4, 4))
    expected = np.zeros(16)
    expected[[0, 1, 4, 5]] = 1.0
    assert np.array_equal(m.values, expected)


def test_tiny_corner_bbox_is_empty():
    # (0.9, 0.9, 0.95, 0.95) on a 2x2 grid: centers at 0.25/0.75, none inside
    with pytest.raises(EmptyMaskError):
        region_mask_from_bbox((0.9, 0.9, 0.95, 0.95), (2, 2))


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
            with pytest.raises(EmptyMaskError):
                region_mask_from_bbox(bbox, grid)
            continue
        got = region_mask_from_bbox(bbox, grid).values
        assert got.tobytes() == want.tobytes(), (bbox, grid)
    assert empty > 0  # the empty-mask path was exercised


def test_mask_values_are_binary_and_nonempty():
    with pytest.raises(ContractError):
        RegionMask(values=np.full(4, 0.5), grid=(2, 2))
    with pytest.raises(EmptyMaskError):
        RegionMask(values=np.zeros(4), grid=(2, 2))
    with pytest.raises(AlignmentError):
        RegionMask(values=np.ones(5), grid=(2, 2))


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
        want = plain_attention_oracle(queries, kv, p, d)
        assert np.max(np.abs(got - want)) <= 1e-15, trial


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
    with pytest.raises(AlignmentError):
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
        return nm.sum_all(nm.mul(out, out))

    tape = Tape()
    with tape:
        loss = build()
    backward(loss, tape)
    analytic = beta.grad.copy()
    tape.clear()
    numeric = nm.finite_diff_grad(lambda _t: build().item(), beta)
    assert nm.max_rel_error(analytic, numeric) < 1e-6
    assert abs(analytic[0, 0]) > 1e-8  # the bias genuinely participates


def test_vector_beta_biases_each_query_row():
    rng = np.random.default_rng(9)
    d = 4
    fusion = init_fusion_params(np.random.default_rng(10), d, m_queries=3, n_blocks=1)
    enc = EncoderParams(seed=1, d_latent=4, d_model=d, l_text=2)
    patches = rng.normal(size=(2, 2, 4)).reshape(4, 4) @ enc.image_proj
    mask = region_mask_from_bbox((0.0, 0.0, 0.6, 0.6), (2, 2))
    text = embed_text(ContextDescriptor("c", np.array([1.0, 0, 0, 0])), enc)
    betas = parameter([[0.0, 3.0, -1.0]])
    out = multimodal_encode(patches, text, fusion, mask=mask, beta=betas)
    flat = parameter([[1.5]])
    out_flat = multimodal_encode(patches, text, fusion, mask=mask, beta=flat)
    assert out.fused.data.shape == (3, d)
    assert not np.allclose(out.fused.data, out_flat.fused.data)


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
    fusion = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    cls = parameter(np.random.default_rng(2).normal(0, 0.02, size=(1, 16)))
    extras = parameter(np.random.default_rng(3).normal(0, 0.02, size=(5, 16)))
    mask = region_mask_from_bbox((0.25, 0.25, 0.80, 0.80), (4, 4))
    res = multimodal_encode(
        patches, text, fusion, mask=mask, beta=1.0, cls_token=cls, extra_tokens=extras
    )
    assert res.fused.data.shape == (4, 16)
    assert res.cls_out.data.shape == (1, 16)
    assert res.extra_out.data.shape == (5, 16)


def test_encode_without_mask_needs_zero_beta():
    enc, patches, text = make_world_inputs()
    fusion = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=1)
    with pytest.raises(ContractError):
        multimodal_encode(patches, text, fusion, mask=None, beta=1.0)


def test_mask_grid_mismatch_raises():
    enc, patches, text = make_world_inputs()
    fusion = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=1)
    mask = region_mask_from_bbox((0.0, 0.0, 1.0, 1.0), (2, 2))
    with pytest.raises(AlignmentError):
        multimodal_encode(patches, text, fusion, mask=mask, beta=1.0, patch_grid=(4, 4))


def test_beta_zero_encode_equals_no_mask_encode():
    enc, patches, text = make_world_inputs()
    fusion = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    mask = region_mask_from_bbox((0.0, 0.0, 0.5, 0.5), (4, 4))
    with_mask = multimodal_encode(patches, text, fusion, mask=mask, beta=0.0)
    without = multimodal_encode(patches, text, fusion, mask=None, beta=0.0)
    assert np.array_equal(with_mask.fused.data, without.fused.data)


def test_beta_changes_fused_output():
    enc, patches, text = make_world_inputs()
    fusion = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    mask = region_mask_from_bbox((0.0, 0.0, 0.5, 0.5), (4, 4))
    a = multimodal_encode(patches, text, fusion, mask=mask, beta=0.0).fused.data
    b = multimodal_encode(patches, text, fusion, mask=mask, beta=4.0).fused.data
    assert np.max(np.abs(a - b)) > 1e-6


def test_multi_head_runs_and_differs_from_single_head():
    enc, patches, text = make_world_inputs()
    fusion1 = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=1, n_heads=1)
    fusion2 = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=1, n_heads=2)
    mask = region_mask_from_bbox((0.0, 0.0, 0.5, 0.5), (4, 4))
    a = multimodal_encode(patches, text, fusion1, mask=mask, beta=2.0).fused.data
    b = multimodal_encode(patches, text, fusion2, mask=mask, beta=2.0).fused.data
    assert a.shape == b.shape == (4, 16)
    assert not np.allclose(a, b)


def test_encode_target_deterministic_and_text_free():
    enc, patches, _ = make_world_inputs()
    fusion = init_fusion_params(np.random.default_rng(1), 16, m_queries=4, n_blocks=2)
    t1 = encode_target(patches, fusion).data
    t2 = encode_target(patches, fusion).data
    assert np.array_equal(t1, t2)
    other = encode_target(patches + 0.1, fusion).data
    assert not np.allclose(t1, other)
