"""Modulation predictor: variants, zero-head reduction, gradient flow."""

import numpy as np
import pytest

from focalcir.caam import (
    crm_forward,
    init_caam_params,
    init_crm_params,
    predict_beta,
)
from focalcir.encoders import ContextDescriptor, EncoderParams, embed_text
from focalcir.errors import ContractError
from focalcir import numerics as nm
from focalcir.numerics.tensor import Tape, backward, constant, parameter
from focalcir.fusion import init_fusion_params

D = 16


def param_count(tensors):
    return sum(t.data.size for t in tensors)


def crm_tensors(crm):
    if crm.variant == "avg":
        return []
    if crm.variant == "mlp":
        return [crm.mlp_w1, crm.mlp_b1, crm.mlp_w2, crm.mlp_b2]
    out = []
    for layer in crm.layers:
        a = layer.self_attn
        out += [a.wq, a.bq, a.wk, a.bk, a.wv, a.bv, a.wo, a.bo]
        out += [layer.ln_attn.gain, layer.ln_attn.shift, layer.ln_ffn.gain, layer.ln_ffn.shift]
        out += [layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2]
    return out


def make_inputs(seed=0):
    rng = np.random.default_rng(seed)
    enc = EncoderParams(seed=3, d_latent=8, d_model=D, l_text=3)
    patches = rng.normal(size=(16, 8)) @ enc.image_proj
    latent = rng.normal(size=8)
    text = embed_text(ContextDescriptor("ctx", latent / np.linalg.norm(latent)), enc)
    return patches, text


def test_zero_head_predicts_exactly_zero():
    rng = np.random.default_rng(1)
    fusion = init_fusion_params(rng, D, m_queries=4, n_blocks=1)
    caam = init_caam_params(rng, D, k_probes=3, m_queries=4)
    patches, text = make_inputs()
    beta = predict_beta(patches, text, fusion, caam)
    assert beta.data.shape == (1, 1)
    assert beta.data[0, 0] == 0.0


def test_prediction_deterministic():
    rng = np.random.default_rng(2)
    fusion = init_fusion_params(rng, D, m_queries=4, n_blocks=1)
    caam = init_caam_params(rng, D, k_probes=3, m_queries=4, zero_head=False)
    patches, text = make_inputs()
    b1 = predict_beta(patches, text, fusion, caam).data
    b2 = predict_beta(patches, text, fusion, caam).data
    assert np.array_equal(b1, b2)
    assert b1[0, 0] != 0.0


def test_vector_form_emits_one_beta_per_query():
    rng = np.random.default_rng(3)
    fusion = init_fusion_params(rng, D, m_queries=5, n_blocks=1)
    caam = init_caam_params(rng, D, k_probes=3, m_queries=5, output_form="vector", zero_head=False)
    patches, text = make_inputs()
    assert predict_beta(patches, text, fusion, caam).data.shape == (1, 5)


def test_crm_avg_on_equal_tokens_is_identity():
    crm = init_crm_params(np.random.default_rng(4), "avg", D)
    row = np.random.default_rng(5).normal(size=(1, D))
    tokens = constant(np.tile(row, (4, 1)))
    out = crm_forward(tokens, crm)
    assert np.allclose(out.data, row, atol=1e-15)


def test_crm_transformer_sensitive_to_probe_outputs():
    rng = np.random.default_rng(6)
    crm = init_crm_params(rng, "transformer", D, n_layers=2)
    tokens = rng.normal(size=(5, D))
    base = crm_forward(constant(tokens), crm).data
    bumped = tokens.copy()
    bumped[3] += 0.5  # a probe row, not the cls row
    out = crm_forward(constant(bumped), crm).data
    assert np.max(np.abs(base - out)) > 1e-6


def test_crm_variants_have_expected_param_counts():
    # closed forms: transformer layer = 4 (D^2 + D) attention + 2*2D norms
    # + (D*H + H + H*D + D) ffn with H = 2D; mlp = D*H + H + H*D + D
    h = 2 * D
    per_layer = 4 * (D * D + D) + 4 * D + (D * h + h + h * D + D)
    for n_layers in (1, 2):
        crm = init_crm_params(np.random.default_rng(7), "transformer", D, n_layers=n_layers)
        assert param_count(crm_tensors(crm)) == n_layers * per_layer
    mlp = init_crm_params(np.random.default_rng(8), "mlp", D)
    assert param_count(crm_tensors(mlp)) == D * h + h + h * D + D
    avg = init_crm_params(np.random.default_rng(9), "avg", D)
    assert param_count(crm_tensors(avg)) == 0


def test_unknown_variant_rejected():
    with pytest.raises(ContractError):
        init_crm_params(np.random.default_rng(0), "pool", D)
    with pytest.raises(ContractError):
        init_caam_params(np.random.default_rng(0), D, 3, 4, output_form="matrix")


def test_probe_gradients_flow():
    rng = np.random.default_rng(10)
    fusion = init_fusion_params(rng, D, m_queries=4, n_blocks=1)
    caam = init_caam_params(rng, D, k_probes=3, m_queries=4, zero_head=False)
    patches, text = make_inputs()

    def build():
        b = predict_beta(patches, text, fusion, caam)
        return nm.sum_all(nm.mul(b, b))

    tape = Tape()
    with tape:
        loss = build()
    backward(loss, tape)
    analytic = caam.probes.grad.copy()
    tape.clear()
    numeric = nm.finite_diff_grad(lambda _t: build().item(), caam.probes)
    assert nm.max_rel_error(analytic, numeric) < 1e-4
    assert np.abs(analytic).max() > 1e-10


def test_frozen_probes_receive_no_grad():
    rng = np.random.default_rng(11)
    fusion = init_fusion_params(rng, D, m_queries=4, n_blocks=1)
    caam = init_caam_params(
        rng, D, k_probes=3, m_queries=4, probes_learnable=False, zero_head=False
    )
    patches, text = make_inputs()
    tape = Tape()
    with tape:
        b = predict_beta(patches, text, fusion, caam)
        loss = nm.sum_all(nm.mul(b, b))
    backward(loss, tape)
    assert caam.probes.grad is None
    assert caam.cls.grad is not None

