"""Forward semantics of the tensor ops against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focalcir.errors import ContractError, DegenerateInputError, DimensionError
from focalcir import numerics as nm


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
    with pytest.raises(DimensionError) as ei:
        nm.matmul(nm.constant(np.zeros((2, 3))), nm.constant(np.zeros((4, 2))))
    assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)


def test_tensor_rejects_rank_4():
    # rank 3 is the batch form (batch, rows, cols); nothing is deeper
    assert nm.Tensor(np.zeros((2, 2, 2))).shape == (2, 2, 2)
    with pytest.raises(DimensionError):
        nm.Tensor(np.zeros((2, 2, 2, 2)))


def test_batch_axis_broadcasts_and_sizes_must_agree():
    rng = np.random.default_rng(8)
    xb = rng.normal(size=(3, 2, 4))
    w = rng.normal(size=(2, 4))
    got = nm.add(nm.constant(xb), nm.constant(w)).data
    assert np.array_equal(got, xb + w[None])
    with pytest.raises(DimensionError):
        nm.add(nm.constant(xb), nm.constant(rng.normal(size=(2, 2, 4))))
    with pytest.raises(DimensionError):
        nm.matmul(nm.constant(xb), nm.constant(rng.normal(size=(2, 4, 5))))


def test_vectors_become_rows():
    t = nm.Tensor([1.0, 2.0, 3.0])
    assert t.shape == (1, 3)


def test_softmax_uniform_row():
    got = nm.softmax_rows(nm.constant([[3.0, 3.0, 3.0, 3.0]])).data
    assert np.allclose(got, 0.25, atol=1e-15)


def test_softmax_huge_logit_stable():
    got = nm.softmax_rows(nm.constant([[100.0, 0.0, 0.0]])).data
    assert got[0, 0] >= 1.0 - 1e-40
    assert np.all(got > 0.0) and np.all(got <= 1.0)
    assert np.isfinite(got).all()


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
    y = nm.softmax_rows(nm.constant(x)).data
    assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(y > 0.0)


def test_concat_slice_roundtrip():
    rng = np.random.default_rng(1)
    a = nm.constant(rng.normal(size=(2, 4)))
    b = nm.constant(rng.normal(size=(3, 4)))
    cat = nm.concat_rows([a, b])
    assert np.array_equal(nm.slice_rows(cat, 0, 2).data, a.data)
    assert np.array_equal(nm.slice_rows(cat, 2, 5).data, b.data)
    catc = nm.concat_cols([nm.transpose(a), nm.transpose(b)])
    assert np.array_equal(nm.slice_cols(catc, 0, 2).data, a.data.T)


def test_add_bias_broadcasts_rows():
    x = nm.constant(np.zeros((3, 2)))
    b = nm.constant([[1.0, -2.0]])
    got = nm.add_bias(x, b).data
    assert np.array_equal(got, np.tile([[1.0, -2.0]], (3, 1)))


def test_layer_norm_rows_zero_mean_unit_var():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 8)) * 3 + 1
    ones = nm.constant(np.ones((1, 8)))
    zeros = nm.constant(np.zeros((1, 8)))
    y = nm.layer_norm_rows(nm.constant(x), ones, zeros).data
    assert np.max(np.abs(y.mean(axis=1))) < 1e-12
    assert np.max(np.abs(y.var(axis=1) - 1.0)) < 1e-4  # eps shifts variance slightly


def test_l2_normalize_rows_unit_norm():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 7))
    y = nm.l2_normalize_rows(nm.constant(x)).data
    assert np.max(np.abs(np.linalg.norm(y, axis=1) - 1.0)) < 1e-12


def test_l2_normalize_zero_row_raises():
    with pytest.raises(DegenerateInputError):
        nm.l2_normalize_rows(nm.constant(np.zeros((1, 4))))


def test_item_requires_scalar():
    with pytest.raises(ContractError):
        nm.constant(np.zeros((2, 2))).item()


def test_ops_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(4)
    x = nm.constant(rng.normal(size=(3, 5)) * 10)
    for val in (
        nm.softmax_rows(x),
        nm.gelu(x),
        nm.layer_norm_rows(x, nm.constant(np.ones((1, 5))), nm.constant(np.zeros((1, 5)))),
        nm.l2_normalize_rows(x),
        nm.mean_over_rows(x),
        nm.sum_all(x),
    ):
        assert np.isfinite(val.data).all()


# --- tape-free similarity helpers -----------------------------------------


def test_cosine_sim_self_is_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=9)
        assert nm.cosine_sim(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_sim_orthogonal():
    assert nm.cosine_sim([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0, abs=1e-15)


def test_cosine_sim_zero_vector_raises():
    with pytest.raises(DegenerateInputError):
        nm.cosine_sim([0.0, 0.0], [1.0, 0.0])


def test_cosine_sim_matrix_matches_scalar_loop():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(5, 6))
    mat = nm.cosine_sim_matrix(a, b)
    for i in range(4):
        for j in range(5):
            assert abs(mat[i, j] - nm.cosine_sim(a[i], b[j])) < 1e-12
    assert np.all(mat <= 1.0) and np.all(mat >= -1.0)

