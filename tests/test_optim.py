"""AdamW semantics: decoupled decay, bias correction, convergence."""

import re

import numpy as np
import pytest

from focalcir.errors import ContractError
from focalcir.numerics.optim import BETA1, BETA2, EPS, WEIGHT_DECAY, AdamState, adam_step
from focalcir.numerics.tensor import parameter


def test_zero_grad_only_decays():
    p = parameter([[1.25, -0.5]])
    before = p.data.copy()
    state = AdamState(lr=1e-3)
    adam_step([p], [np.zeros_like(p.data)], state)
    # zero moments take a zero step, so only the decoupled decay moves p
    assert np.array_equal(p.data, before - 1e-3 * WEIGHT_DECAY * before)


def test_zero_grad_with_decay_shrinks_by_lr_wd():
    p = parameter([[2.0]])
    state = AdamState(lr=1e-4)
    adam_step([p], [np.zeros((1, 1))], state)
    # decoupled decay: exactly *(1 - lr*wd) when the gradient is zero
    assert p.data[0, 0] == pytest.approx(2.0 * (1.0 - 1e-4 * WEIGHT_DECAY), rel=1e-15)


def test_first_step_magnitude_close_to_lr():
    p = parameter([[0.0]])
    g = np.array([[0.3]])
    state = AdamState(lr=0.01)
    adam_step([p], [g], state)
    # a zero param does not decay, and the bias-corrected first step is
    # lr * g / (|g| + eps) = lr * sign(g)
    assert abs(p.data[0, 0]) == pytest.approx(0.01, rel=1e-6)
    assert p.data[0, 0] < 0  # moved against the gradient


def test_converges_on_quadratic():
    # 200 steps of lr=0.1 on f(x) = x^2 starting at x=1
    p = parameter([[1.0]])
    state = AdamState(lr=0.1)
    for _ in range(200):
        g = 2.0 * p.data
        adam_step([p], [g], state)
    assert abs(p.data[0, 0]) < 0.05


def test_none_grad_means_zero_but_decay_applies():
    p = parameter([[1.0]])
    state = AdamState(lr=0.01)
    adam_step([p], [None], state)
    assert p.data[0, 0] == pytest.approx(1.0 - 0.01 * WEIGHT_DECAY, rel=1e-12)


def test_grad_shape_mismatch_raises():
    p = parameter([[1.0, 2.0]])
    state = AdamState(lr=0.01)
    with pytest.raises(ContractError, match=re.escape("grad shape (2, 2) vs param shape (1, 2)")):
        adam_step([p], [np.zeros((2, 2))], state)


def test_param_grad_count_mismatch_raises():
    p = parameter([[1.0]])
    state = AdamState(lr=0.01)
    with pytest.raises(ContractError):
        adam_step([p], [], state)


def per_tensor_adamw(params, grads, m, v, t, lr):
    """The AdamW rule one tensor at a time, on plain arrays, with the
    package's fixed betas, eps and weight decay."""
    bc1, bc2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        p -= lr * WEIGHT_DECAY * p
        m[i] *= BETA1
        v[i] *= BETA2
        if g is not None:
            m[i] += (1.0 - BETA1) * g
            v[i] += (1.0 - BETA2) * g * g
        p -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + EPS)


def test_two_groups_keep_independent_state():
    p1 = parameter([[1.0]])
    p2 = parameter([[1.0]])
    fast = AdamState(lr=0.1)
    slow = AdamState(lr=0.001)
    g = np.array([[1.0]])
    adam_step([p1], [g], fast)
    adam_step([p2], [g], slow)
    assert abs(1.0 - p1.data[0, 0]) > abs(1.0 - p2.data[0, 0]) * 50
    # each group moved as the rule does with its own rate and nothing else
    for p, lr in ((p1, 0.1), (p2, 0.001)):
        want = np.ones((1, 1))
        per_tensor_adamw([want], [g], [np.zeros((1, 1))], [np.zeros((1, 1))], 1, lr)
        assert p.data.tobytes() == want.tobytes()


def test_flat_update_equals_the_per_tensor_rule_bit_for_bit():
    rng = np.random.default_rng(9)
    shapes = [(3, 4), (1, 4), (5, 1), (2, 2)]
    params = [parameter(rng.normal(size=s)) for s in shapes]
    want = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    state = AdamState(lr=3e-3)
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        grads[1 + t % 2] = None  # a zero gradient, on a different tensor each step
        adam_step(params, grads, state)
        per_tensor_adamw(want, grads, m, v, t, 3e-3)
        for p, w in zip(params, want):
            assert p.data.tobytes() == w.tobytes(), t


def test_a_rebound_param_is_caught_not_overwritten():
    p, q = parameter([[1.0, 2.0]]), parameter([[3.0]])
    state = AdamState(lr=0.01)
    adam_step([p, q], [np.ones((1, 2)), np.ones((1, 1))], state)
    q.data = np.array([[7.0]])  # e.g. loaded from elsewhere after the first step
    with pytest.raises(ContractError, match="param 1 .* rebound"):
        adam_step([p, q], [np.ones((1, 2)), np.ones((1, 1))], state)
    assert q.data[0, 0] == 7.0
