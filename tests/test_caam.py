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
from focalcir.errors import ConfigError
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.model import ModelConfig, ModelParams
from focalcir.numerics.tensor import Tape, backward, constant, mul, parameter, sum_all
from focalcir.fusion import WEIGHT_INIT, _attention, init_fusion_params
from reference import gelu, layer_norm

D = 16


def config(**overrides):
    """A D-wide one-block model with 4 fusion queries and 3 probes."""
    return ModelConfig(**{"d_model": D, "m_queries": 4, "n_blocks": 1, "k_probes": 3,
                          **overrides})


def param_count(tensors):
    return sum(t.data.size for t in tensors)


def crm_tensors(crm):
    if crm.variant == "avg":
        return []
    if crm.variant == "mlp":
        return [crm.mlp.w1, crm.mlp.b1, crm.mlp.w2, crm.mlp.b2]
    out = []
    for layer in crm.layers:
        a = layer.self_attn
        out += [a.wq, a.bq, a.wk, a.wv, a.bv, a.wo, a.bo]
        out += [layer.ln_self.gain, layer.ln_self.shift, layer.ln_ffn.gain, layer.ln_ffn.shift]
        out += [layer.ffn.w1, layer.ffn.b1, layer.ffn.w2, layer.ffn.b2]
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
    fusion = init_fusion_params(rng, config())
    caam = init_caam_params(rng, config(), zero_head=True)
    patches, text = make_inputs()
    beta = predict_beta(patches, text, fusion, caam)
    assert beta.data.shape == (1, 1)
    assert beta.data[0, 0] == 0.0


def test_prediction_deterministic():
    rng = np.random.default_rng(2)
    fusion = init_fusion_params(rng, config())
    caam = init_caam_params(rng, config(), zero_head=False)
    patches, text = make_inputs()
    b1 = predict_beta(patches, text, fusion, caam).data
    b2 = predict_beta(patches, text, fusion, caam).data
    assert np.array_equal(b1, b2)
    assert b1[0, 0] != 0.0


def test_vector_form_emits_one_beta_per_query():
    rng = np.random.default_rng(3)
    fusion = init_fusion_params(rng, config(m_queries=5))
    caam = init_caam_params(rng, config(m_queries=5, modulation="vector"), zero_head=False)
    patches, text = make_inputs()
    assert predict_beta(patches, text, fusion, caam).data.shape == (1, 5)


def test_crm_avg_on_equal_tokens_is_identity():
    crm = init_crm_params(np.random.default_rng(4), config(crm_variant="avg"))
    row = np.random.default_rng(5).normal(size=(1, D))
    tokens = constant(np.tile(row, (4, 1)))
    out = crm_forward(tokens, crm)
    assert np.allclose(out.data, row, atol=1e-15)


def test_crm_transformer_sensitive_to_probe_outputs():
    rng = np.random.default_rng(6)
    crm = init_crm_params(rng, config(crm_layers=2))
    tokens = rng.normal(size=(5, D))
    base = crm_forward(constant(tokens), crm).data
    bumped = tokens.copy()
    bumped[3] += 0.5  # a probe row, not the cls row
    out = crm_forward(constant(bumped), crm).data
    assert np.max(np.abs(base - out)) > 1e-6


def test_crm_variants_have_expected_param_counts():
    # closed forms: transformer layer = 4 D^2 + 3D attention (no key bias)
    # + 2*2D norms + (D*H + H + H*D + D) ffn with H = 2D; mlp = D*H + H + H*D + D
    h = 2 * D
    per_layer = 4 * D * D + 3 * D + 4 * D + (D * h + h + h * D + D)
    for n_layers in (1, 2):
        crm = init_crm_params(np.random.default_rng(7), config(crm_layers=n_layers))
        assert param_count(crm_tensors(crm)) == n_layers * per_layer
    mlp = init_crm_params(np.random.default_rng(8), config(crm_variant="mlp"))
    assert param_count(crm_tensors(mlp)) == D * h + h + h * D + D
    avg = init_crm_params(np.random.default_rng(9), config(crm_variant="avg"))
    assert param_count(crm_tensors(avg)) == 0


def test_unknown_variant_rejected():
    # init_crm_params and init_caam_params trust their config; building the
    # model validates it first, so no CAAM is built from these settings
    enc = EncoderParams(seed=0, d_latent=4, d_model=D, l_text=config().l_text)
    with pytest.raises(ConfigError, match="crm_variant"):
        ModelParams(config(crm_variant="pool"), enc, seed=0)
    for variant in ("avg", "mlp", "transformer"):
        with pytest.raises(ConfigError, match="crm_layers"):
            ModelParams(config(crm_variant=variant, crm_layers=0), enc, seed=0)
    with pytest.raises(ConfigError, match="modulation"):
        ModelParams(config(modulation="matrix"), enc, seed=0)


def test_probe_gradients_flow():
    rng = np.random.default_rng(10)
    fusion = init_fusion_params(rng, config())
    caam = init_caam_params(rng, config(), zero_head=False)
    patches, text = make_inputs()

    def build():
        b = predict_beta(patches, text, fusion, caam)
        return sum_all(mul(b, b))

    tape = Tape()
    with tape:
        loss = build()
    backward(loss, tape)
    analytic = caam.probes.grad.copy()
    tape.clear()
    numeric = finite_diff_grad(lambda _t: build().item(), caam.probes)
    assert max_rel_error(analytic, numeric) < 1e-4
    assert np.abs(analytic).max() > 1e-10



def crm_full_rows(tokens, crm, n_heads):
    """Row 0 of a CRM transformer that runs every layer on every row."""
    t = tokens
    for layer in crm.layers:
        attn = _attention(constant(t), constant(t), layer.self_attn, n_heads).data
        t = layer_norm(t + attn, layer.ln_self.gain.data, layer.ln_self.shift.data)
        ffn = layer.ffn
        hidden = gelu(t @ ffn.w1.data + ffn.b1.data) @ ffn.w2.data + ffn.b2.data
        t = layer_norm(t + hidden, layer.ln_ffn.gain.data, layer.ln_ffn.shift.data)
    return t[..., :1, :]


def _live_crm(rng, d, n_layers):
    """A transformer CRM with weight matrices of std 0.5 and non-zero biases,
    shifts and gain offsets."""
    crm = init_crm_params(rng, config(d_model=d, crm_layers=n_layers))
    for t in crm_tensors(crm):
        if t.data.shape[0] == 1:
            t.data = t.data + rng.normal(0.0, 0.2, size=t.data.shape)
        else:
            t.data = t.data * (0.5 / WEIGHT_INIT)
    return crm


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("n_heads", [1, 2])
def test_crm_row_equals_a_full_pass(n_heads, n_layers):
    # the last layer computes row 0 alone, with every row as a key and value;
    # its 1-row products may round differently from a full pass's GEMMs
    rng = np.random.default_rng(60 + 2 * n_heads + n_layers)
    crm = _live_crm(rng, D, n_layers)
    for tokens in (rng.normal(size=(5, D)), rng.normal(size=(3, 5, D))):
        got = crm_forward(constant(tokens), crm, n_heads=n_heads).data
        want = crm_full_rows(tokens, crm, n_heads)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_heads", [1, 2])
def test_crm_transformer_gradients_match_finite_differences(n_heads):
    rng = np.random.default_rng(70 + n_heads)
    d = 4
    crm = _live_crm(rng, d, 2)
    tokens = parameter(rng.normal(size=(2, 4, d)))
    weights = constant(rng.normal(size=(2, 1, d)))

    def build():
        return sum_all(mul(crm_forward(tokens, crm, n_heads=n_heads), weights))

    checked = [tokens] + [t for t in crm_tensors(crm) if t.requires_grad]
    tape = Tape()
    with tape:
        loss = build()
    backward(loss, tape)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in checked]
    tape.clear()
    assert np.abs(analytic[0][:, 1:]).max() > 1e-6  # the probe rows are read as keys
    for i, (t, a) in enumerate(zip(checked, analytic)):
        numeric = finite_diff_grad(lambda _t: build().item(), t)
        assert max_rel_error(a, numeric) < 1e-5, i
