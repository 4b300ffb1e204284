"""Frozen encoder stand-ins: determinism, norm preservation, text spread."""

import re

import numpy as np
import pytest

from focalcir.encoders import (
    ContextDescriptor,
    EncoderParams,
    SyntheticImage,
    embed_text,
    encode_image,
    encode_images,
)
from focalcir.errors import ContractError
from reference import cosine_sim


def make_enc(seed=11, d_latent=16, d_model=32, l_text=4):
    return EncoderParams(seed=seed, d_latent=d_latent, d_model=d_model, l_text=l_text)


def test_encode_image_deterministic():
    enc1, enc2 = make_enc(), make_enc()
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(4, 4, 16))
    assert np.array_equal(encode_image(grid, enc1), encode_image(grid, enc2))


def test_zero_latents_give_zero_embeddings():
    enc = make_enc()
    grid = np.zeros((3, 3, 16))
    assert np.array_equal(encode_image(grid, enc), np.zeros((9, 32)))


def test_projection_preserves_norms_and_dots():
    # orthonormal rows: |xW| = |x| and <xW, yW> = <x, y>
    enc = make_enc()
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=16), rng.normal(size=16)
    xe, ye = x @ enc.image_proj, y @ enc.image_proj
    assert np.linalg.norm(xe) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert float(xe @ ye) == pytest.approx(float(x @ y), rel=1e-10)


def test_patch_order_is_raster():
    enc = make_enc()
    grid = np.zeros((2, 2, 16))
    grid[1, 0, :] = 1.0  # row 1, col 0 -> raster index 2
    out = encode_image(grid, enc)
    norms = np.linalg.norm(out, axis=1)
    assert norms[2] > 0 and norms[0] == 0 and norms[1] == 0 and norms[3] == 0


def test_encode_image_wrong_latent_dim_raises():
    enc = make_enc()
    named = "expected (N, h, w, 16) latent grids, got shape (1, 2, 2, 8)"
    with pytest.raises(ContractError, match=re.escape(named)):
        encode_image(np.zeros((2, 2, 8)), enc)


def test_pooled_embedding_is_patch_mean():
    enc = make_enc()
    rng = np.random.default_rng(2)
    for n, grid in ((1, (4, 4)), (9, (8, 8)), (21, (3, 5))):
        images = [SyntheticImage(f"s/cat0/inst00/img{i:02d}", "s/cat0/inst00", "s/cat0",
                                 "s/ctx00", "s", (0.2, 0.2, 0.7, 0.7), rng.normal(size=(*grid, 16)))
                  for i in range(n)]
        want = np.stack([encode_image(im, enc).mean(axis=0) for im in images])
        got = encode_images(images, enc).mean(axis=1)
        assert got.shape == (n, 32) and got.tobytes() == want.tobytes()


def test_encoded_images_are_each_images_own_patches():
    # evaluation encodes a gallery chunk this way, at up to 128 images
    rng = np.random.default_rng(4)
    for seed, n, grid in ((0, 128, (8, 8)), (3, 128, (8, 8)), (3, 37, (3, 5))):
        enc = make_enc(seed=seed)
        images = [SyntheticImage(f"s/cat0/inst00/img{i:03d}", "s/cat0/inst00", "s/cat0",
                                 "s/ctx00", "s", (0.2, 0.2, 0.7, 0.7), rng.normal(size=(*grid, 16)))
                  for i in range(n)]
        want = np.stack([encode_image(im, enc) for im in images])
        got = encode_images(images, enc)
        assert got.shape == (n, grid[0] * grid[1], 32) and got.tobytes() == want.tobytes()
    with pytest.raises(ContractError, match=re.escape("latent grids, got shape (1, 2, 2, 8)")):
        encode_images([SyntheticImage("i", "n", "c", "x", "s", (0.0, 0.0, 1.0, 1.0),
                                      np.zeros((2, 2, 8)))], make_enc())


def test_embed_text_shape_and_determinism():
    enc = make_enc()
    rng = np.random.default_rng(3)
    latent = rng.normal(size=16)
    latent /= np.linalg.norm(latent)
    d = ContextDescriptor(context_id="x00", latent=latent)
    t1, t2 = embed_text(d, enc), embed_text(d, enc)
    assert t1.tokens.shape == (4, 32)
    assert np.array_equal(t1.tokens, t2.tokens)


def test_different_contexts_embed_far_apart():
    enc = make_enc()
    rng = np.random.default_rng(4)
    sims = []
    for _ in range(30):
        a, b = rng.normal(size=16), rng.normal(size=16)
        ta = embed_text(ContextDescriptor("a", a / np.linalg.norm(a)), enc)
        tb = embed_text(ContextDescriptor("b", b / np.linalg.norm(b)), enc)
        sims.append(cosine_sim(ta.tokens.reshape(-1), tb.tokens.reshape(-1)))
    assert max(np.abs(sims)) < 0.9


def test_both_branches_share_one_projection_instance():
    # the package-level invariant is identity of the EncoderParams object;
    # model code routes query and target patches through the same instance
    enc = make_enc()
    assert encode_image(np.ones((2, 2, 16)), enc) is not None
    assert enc.image_proj is enc.image_proj  # one buffer, no copies exposed
