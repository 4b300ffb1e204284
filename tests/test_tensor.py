"""Forward semantics of the tensor ops against brute-force oracles."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalcir.errors import ContractError
from focalcir.numerics import tensor as nm
from focalcir.numerics.similarity import cosine_sim_matrix
from reference import cosine_sim, gelu, layer_norm, softmax


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple loop, no numpy matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    eye = np.eye(3)
    assert np.array_equal(nm.matmul(nm.constant(a), nm.constant(eye)).data, a @ eye)
    assert np.allclose(nm.matmul(nm.constant(a), nm.constant(eye)).data, a)


def test_matmul_2x2_known():
    a = nm.constant([[1.0, 2.0], [3.0, 4.0]])
    b = nm.constant([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(nm.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(1, 5),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_matmul_matches_triple_loop(n, k, m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, k))
    b = rng.normal(size=(k, m))
    got = nm.matmul(nm.constant(a), nm.constant(b)).data
    assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    named = "matmul inner dimensions disagree: (2, 3) x (4, 2)"
    with pytest.raises(ContractError, match=re.escape(named)):
        nm.matmul(nm.constant(np.zeros((2, 3))), nm.constant(np.zeros((4, 2))))


def test_tensor_rejects_rank_4():
    # rank 3 is the batch form (batch, rows, cols); nothing is deeper
    assert nm.Tensor(np.zeros((2, 2, 2))).shape == (2, 2, 2)
    named = "tensors are 2-D or 3-D (batch, rows, cols), got array of shape (2, 2, 2, 2)"
    with pytest.raises(ContractError, match=re.escape(named)):
        nm.Tensor(np.zeros((2, 2, 2, 2)))


def test_batch_axis_broadcasts_and_sizes_must_agree():
    rng = np.random.default_rng(8)
    xb = rng.normal(size=(3, 2, 4))
    w = rng.normal(size=(2, 4))
    got = nm.add(nm.constant(xb), nm.constant(w)).data
    assert np.array_equal(got, xb + w[None])
    named = "add batch sizes disagree: [(3, 2, 4), (2, 2, 4)]"
    with pytest.raises(ContractError, match=re.escape(named)):
        nm.add(nm.constant(xb), nm.constant(rng.normal(size=(2, 2, 4))))
    named = "matmul batch sizes disagree: [(3, 2, 4), (2, 4, 5)]"
    with pytest.raises(ContractError, match=re.escape(named)):
        nm.matmul(nm.constant(xb), nm.constant(rng.normal(size=(2, 4, 5))))


def test_gather_takes_samples_and_rejects_what_it_cannot_take():
    xb = np.arange(24.0).reshape(3, 2, 4)
    assert np.array_equal(nm.gather(nm.constant(xb), [2, 0, 2]).data, xb[[2, 0, 2]])
    for a, index, named in [
        (xb[0], [0], "gather needs a (batch, r, c) tensor"),
        (xb, [], "gather needs a (batch, r, c) tensor"),
        (xb, [0, 3], "gather index out of range for 3 samples"),
        (xb, [-1], "gather index out of range for 3 samples"),
    ]:
        with pytest.raises(ContractError, match=re.escape(named)):
            nm.gather(nm.constant(a), index)


def test_attention_reads_a_handed_transposed_copy_of_its_keys():
    rng = np.random.default_rng(9)
    x, kv = nm.constant(rng.normal(size=(3, 2, 4))), nm.constant(rng.normal(size=(3, 5, 4)))
    w = [nm.constant(rng.normal(size=s)) for s in ((4, 4), (1, 4), (4, 4), (1, 4))]
    own = nm.attention(x, kv, *w, None, 0.5).data
    keys_t = nm.transposed_keys(kv.data)
    assert np.array_equal(nm.attention(x, kv, *w, None, 0.5, keys_t).data, own)
    for bad in (kv.data.swapaxes(-1, -2), keys_t[:2], keys_t.astype(np.float32)):
        with pytest.raises(ContractError, match="are no contiguous copy of keys"):
            nm.attention(x, kv, *w, None, 0.5, bad)


def test_vectors_become_rows():
    t = nm.Tensor([1.0, 2.0, 3.0])
    assert t.shape == (1, 3)


def attention_softmax(logits, bias=None):
    """softmax(logits + bias) row by row, from `attention` with identity
    weights, keys and values and zero biases: x @ I and probs @ I are exact."""
    n = logits.shape[-1]
    eye, zero = nm.constant(np.eye(n)), nm.constant(np.zeros((1, n)))
    bias = None if bias is None else nm.constant(bias)
    return nm.attention(nm.constant(logits), eye, eye, zero, eye, zero, bias, 1.0).data


def test_softmax_uniform_row():
    got = attention_softmax(np.array([[3.0, 3.0, 3.0, 3.0]]))
    assert np.allclose(got, 0.25, atol=1e-15)


def test_softmax_huge_logit_stable():
    got = attention_softmax(np.array([[100.0, 0.0, 0.0]]))
    assert got[0, 0] >= 1.0 - 1e-40
    assert np.all(got > 0.0) and np.all(got <= 1.0)
    assert np.isfinite(got).all()


def test_softmax_masked_key_gets_exactly_zero():
    got = attention_softmax(np.array([[1.0, 2.0, 3.0], [4.0, 0.0, -1.0]]),
                            np.array([[0.0, -np.inf, 0.0]]))
    assert np.all(got[:, 1] == 0.0)
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-15


@settings(max_examples=50, deadline=None)
@given(
    r=st.integers(1, 6),
    c=st.integers(1, 8),
    scale=st.floats(0.1, 50.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_softmax_rows_sum_to_one(r, c, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(r, c)) * scale
    y = attention_softmax(x)
    assert y.tobytes() == softmax(x).tobytes()
    assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(y > 0.0)


def test_concat_slice_roundtrip():
    rng = np.random.default_rng(1)
    a = nm.constant(rng.normal(size=(2, 4)))
    b = nm.constant(rng.normal(size=(3, 4)))
    cat = nm.concat_rows([a, b])
    assert np.array_equal(nm.slice_rows(cat, 0, 2).data, a.data)
    assert np.array_equal(nm.slice_rows(cat, 2, 5).data, b.data)


def test_add_broadcasts_one_row():
    x = nm.constant(np.zeros((3, 2)))
    b = nm.constant([[1.0, -2.0]])
    got = nm.add(x, b).data
    assert np.array_equal(got, np.tile([[1.0, -2.0]], (3, 1)))
    named = "add needs equal shapes or a 1 x 2 row, got (3, 2) and (2, 2)"
    with pytest.raises(ContractError, match=re.escape(named)):
        nm.add(x, nm.constant(np.zeros((2, 2))))


def test_residual_norm_zero_mean_unit_var():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 8)) * 3 + 1
    ones = nm.constant(np.ones((1, 8)))
    zeros = nm.constant(np.zeros((1, 8)))
    y = nm.residual_norm(nm.constant(x), nm.constant(np.zeros((4, 8))), ones, zeros).data
    assert np.max(np.abs(y.mean(axis=1))) < 1e-12
    assert np.max(np.abs(y.var(axis=1) - 1.0)) < 1e-4  # eps shifts variance slightly


def test_l2_normalize_rows_unit_norm():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 7))
    y = nm.l2_normalize_rows(nm.constant(x)).data
    assert np.max(np.abs(np.linalg.norm(y, axis=1) - 1.0)) < 1e-12


def test_l2_normalize_zero_row_raises():
    with pytest.raises(ContractError, match="cannot l2-normalize a zero-norm row"):
        nm.l2_normalize_rows(nm.constant(np.zeros((1, 4))))


def test_item_requires_scalar():
    with pytest.raises(ContractError):
        nm.constant(np.zeros((2, 2))).item()


def test_ops_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(4)
    x = nm.constant(rng.normal(size=(3, 5)) * 10)
    eye, zero_row = nm.constant(np.eye(5)), nm.constant(np.zeros((1, 5)))
    for val in (
        nm.attention(x, x, eye, zero_row, eye, zero_row, None, 1.0),
        nm.feed_forward(x, eye, zero_row, eye, zero_row),
        nm.residual_norm(x, x, nm.constant(np.ones((1, 5))), zero_row),
        nm.l2_normalize_rows(x),
        nm.mean_over_rows(x),
        nm.sum_all(x),
    ):
        assert np.isfinite(val.data).all()


# --- tape-free similarity helpers -----------------------------------------


def test_cosine_sim_self_is_one():
    v = np.random.default_rng(5).normal(size=(10, 9))
    assert np.allclose(np.diag(cosine_sim_matrix(v, v)), 1.0, rtol=0.0, atol=1e-12)


def test_cosine_sim_orthogonal():
    assert cosine_sim_matrix([[1.0, 0.0]], [[0.0, 2.0]])[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_cosine_sim_zero_vector_raises():
    with pytest.raises(ContractError, match="cosine_sim_matrix given a zero-norm row"):
        cosine_sim_matrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])


def test_cosine_sim_matrix_matches_scalar_loop():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(5, 6))
    mat = cosine_sim_matrix(a, b)
    for i in range(4):
        for j in range(5):
            assert abs(mat[i, j] - cosine_sim(a[i], b[j])) < 1e-12
    assert np.all(mat <= 1.0) and np.all(mat >= -1.0)



# --- fused layer ops against the numpy references ---------------------------


def test_fused_ops_equal_the_composed_ops_bit_for_bit():
    # with one head, attention, residual_norm and feed_forward run the same
    # arithmetic as chains of tape ops and the numpy references in
    # tests/reference.py, at layer-sized shapes
    rng = np.random.default_rng(5)
    d, hidden, b, n = 32, 64, 4, 21

    def w(*shape):
        return nm.parameter(rng.normal(0.0, 0.3, size=shape))

    w_qk, b_qk, w_vo, b_vo = w(d, d), w(1, d), w(d, d), w(1, d)
    assert nm.head_products(w_qk, w_vo, 1).data.tobytes() == nm.matmul(w_qk, w_vo).data.tobytes()
    assert (nm.head_products(b_qk, w_vo, 1, stack_rows=True).data.tobytes()
            == nm.matmul(b_qk, w_vo).data.tobytes())
    kv = nm.constant(rng.normal(size=(b, n, d)))
    key_mask = np.zeros((b, 1, n))
    key_mask[1, 0, n - 3:] = -np.inf
    biases = (None, nm.constant(rng.normal(size=(b, 1, n))),
              nm.constant(rng.normal(size=(b, 9, n)) + key_mask))
    for rows in (9, 1):
        for x in (nm.constant(rng.normal(size=(b, rows, d))), nm.constant(rng.normal(size=(rows, d)))):
            for bias in biases:
                if bias is not None and bias.data.shape[-2] not in (1, rows):
                    continue
                logits = nm.matmul(nm.linear(x, w_qk, b_qk), nm.transpose(kv))
                if bias is not None:
                    logits = nm.add(logits, bias)
                probs = nm.constant(softmax(nm.scale(logits, 1.0 / np.sqrt(d)).data))
                want = nm.linear(nm.matmul(probs, kv), w_vo, b_vo)
                got = nm.attention(x, kv, w_qk, b_qk, w_vo, b_vo, bias, 1.0 / np.sqrt(d))
                assert got.data.tobytes() == want.data.tobytes(), (rows, x.data.ndim, bias)

    gain, shift = w(1, d), w(1, d)
    y = nm.constant(rng.normal(size=(b, n, d)))
    for x in (nm.constant(rng.normal(size=(b, n, d))), nm.constant(rng.normal(size=(n, d))), y):
        want = layer_norm(x.data + y.data, gain.data, shift.data)
        assert nm.residual_norm(x, y, gain, shift).data.tobytes() == want.tobytes()

    w1, b1, w2, b2 = w(d, hidden), w(1, hidden), w(hidden, d), w(1, d)
    for x in (nm.constant(rng.normal(size=(b, n, d))), nm.constant(rng.normal(size=(b, 1, d)))):
        want = nm.linear(nm.constant(gelu(nm.linear(x, w1, b1).data)), w2, b2)
        assert nm.feed_forward(x, w1, b1, w2, b2).data.tobytes() == want.data.tobytes()
