"""Backward rules against the central finite-difference oracle."""

import numpy as np
import pytest

from focalcir.errors import ContractError
from focalcir import numerics as nm
from focalcir.numerics.tensor import Tape, backward


def fd_check(build, params, tol=1e-6, eps=1e-5):
    """build() -> scalar Tensor under an active tape; compares every param's
    analytic grad against finite differences of the same scalar."""
    tape = Tape()
    with tape:
        loss = build()
    backward(loss, tape)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    tape.clear()

    worst = 0.0
    for p, a in zip(params, analytic):
        numeric = nm.finite_diff_grad(lambda _t: build().item(), p, eps=eps)
        a = np.zeros_like(p.data) if a is None else a
        worst = max(worst, nm.max_rel_error(a, numeric))
    assert worst < tol, f"max relative error {worst:.3e} >= {tol}"
    return worst


def test_product_rule():
    # d(xy)/dx = y, d(xy)/dy = x
    x = nm.parameter([[3.0]])
    y = nm.parameter([[-2.0]])
    tape = Tape()
    with tape:
        z = nm.sum_all(nm.mul(x, y))
    backward(z, tape)
    assert x.grad[0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert y.grad[0, 0] == pytest.approx(3.0, abs=1e-12)


def test_sum_of_squares_gradient():
    rng = np.random.default_rng(0)
    x = nm.parameter(rng.normal(size=(3, 4)))
    tape = Tape()
    with tape:
        loss = nm.sum_all(nm.mul(x, x))
    backward(loss, tape)
    assert np.allclose(x.grad, 2 * x.data, atol=1e-12)


def test_fanout_accumulates_additively():
    x = nm.parameter([[2.0]])
    tape = Tape()
    with tape:
        # x used twice: d(x*x + 3x)/dx = 2x + 3 = 7
        loss = nm.sum_all(nm.add(nm.mul(x, x), nm.scale(x, 3.0)))
    backward(loss, tape)
    assert x.grad[0, 0] == pytest.approx(7.0, abs=1e-12)


def test_backward_requires_scalar_root():
    x = nm.parameter(np.ones((2, 2)))
    tape = Tape()
    with tape:
        y = nm.mul(x, x)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_tape_clear_resets_grads():
    x = nm.parameter([[1.0, 2.0]])
    tape = Tape()
    with tape:
        loss = nm.sum_all(nm.mul(x, x))
    backward(loss, tape)
    assert x.grad is not None
    tape.clear()
    assert x.grad is None and loss.grad is None
    assert len(tape) == 0


def test_no_recording_outside_tape():
    x = nm.parameter([[1.0]])
    y = nm.mul(x, x)
    assert y.requires_grad is False


def test_per_op_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    a = nm.parameter(rng.normal(size=(3, 4)) * 0.7)
    b = nm.parameter(rng.normal(size=(4, 5)) * 0.7)
    c = nm.parameter(rng.normal(size=(3, 5)) * 0.7)
    row = nm.parameter(rng.normal(size=(1, 5)) * 0.7)
    sq = nm.parameter(rng.normal(size=(4, 4)) * 0.7)
    s = nm.parameter([[0.37]])
    const = rng.normal(size=(1, 5))

    cases = {
        "matmul": (lambda: nm.sum_all(nm.mul(nm.matmul(a, b), nm.matmul(a, b))), [a, b]),
        "add": (lambda: nm.sum_all(nm.mul(nm.add(nm.matmul(a, b), c), c)), [a, b, c]),
        "scale": (lambda: nm.sum_all(nm.mul(nm.scale(c, 2.5), c)), [c]),
        "add_bias": (lambda: nm.sum_all(nm.mul(nm.add_bias(c, row), c)), [c, row]),
        "linear": (lambda: nm.sum_all(nm.mul(nm.linear(a, b, row), c)), [a, b, row]),
        "scalar_times_const": (
            lambda: nm.sum_all(nm.mul(nm.add_bias(c, nm.scalar_times_const(s, const)), c)),
            [s, c],
        ),
        "softmax": (lambda: nm.sum_all(nm.mul(nm.softmax_rows(c), c)), [c]),
        "gelu": (lambda: nm.sum_all(nm.mul(nm.gelu(c), c)), [c]),
        "layer_norm": (
            lambda: nm.sum_all(
                nm.mul(nm.layer_norm_rows(c, nm.parameter(np.ones((1, 5))), row), c)
            ),
            [c, row],
        ),
        "l2_normalize_rows": (lambda: nm.sum_all(nm.mul(nm.l2_normalize_rows(c), c)), [c]),
        "mean_over_rows": (lambda: nm.sum_all(nm.mul(nm.mean_over_rows(c), row)), [c, row]),
        "transpose": (lambda: nm.sum_all(nm.mul(nm.transpose(c), nm.transpose(c))), [c]),
        "log_softmax_diag": (
            lambda: nm.sum_all(nm.mul(nm.log_softmax_diag(sq), nm.slice_cols(sq, 1, 2))),
            [sq],
        ),
        "concat_rows": (
            lambda: nm.sum_all(nm.mul(nm.concat_rows([c, c]), nm.concat_rows([c, c]))),
            [c],
        ),
        "concat_cols": (
            lambda: nm.sum_all(nm.mul(nm.concat_cols([c, c]), nm.concat_cols([c, c]))),
            [c],
        ),
        "slice_rows": (lambda: nm.sum_all(nm.mul(nm.slice_rows(c, 1, 3), nm.slice_rows(c, 0, 2))), [c]),
        "slice_cols": (lambda: nm.sum_all(nm.mul(nm.slice_cols(c, 1, 4), nm.slice_cols(c, 2, 5))), [c]),
    }
    for name, (build, params) in cases.items():
        err = fd_check(build, params, tol=5e-6)
        assert err < 5e-6, name


def test_batched_op_gradients_match_finite_differences():
    # a (2, 3, 4) batch meets unbatched weights and tokens; each backward
    # rule must sum a shared operand's gradient over the batch
    rng = np.random.default_rng(17)
    xb = nm.parameter(rng.normal(size=(2, 3, 4)) * 0.7)
    w = nm.parameter(rng.normal(size=(4, 5)) * 0.7)
    row = nm.parameter(rng.normal(size=(1, 5)) * 0.7)
    tok = nm.parameter(rng.normal(size=(2, 4)) * 0.7)
    per_sample_row = nm.parameter(rng.normal(size=(2, 1, 5)) * 0.7)
    sb = nm.parameter(rng.normal(size=(2, 1, 1)))
    s = nm.parameter([[0.37]])
    gain = nm.parameter(np.ones((1, 4)) + 0.1 * rng.normal(size=(1, 4)))
    shift = nm.parameter(rng.normal(size=(1, 4)) * 0.3)
    mask = rng.normal(size=(2, 1, 3))
    weights = nm.constant(rng.normal(size=(2, 3, 5)))

    def lin():
        return nm.linear(xb, w, row)

    def gram():
        return nm.matmul(xb, nm.transpose(xb))

    def shared_left():
        return nm.matmul(tok, nm.transpose(xb))

    def square(t):
        return nm.sum_all(nm.mul(t, t))

    cases = {
        "linear": (lambda: nm.sum_all(nm.mul(lin(), weights)), [xb, w, row]),
        "matmul_batched": (lambda: square(gram()), [xb]),
        "matmul_shared_left": (lambda: square(shared_left()), [tok, xb]),
        "add_shared": (
            lambda: nm.sum_all(nm.mul(nm.add(xb, nm.concat_rows([tok, nm.slice_rows(tok, 0, 1)])), xb)),
            [xb, tok],
        ),
        "add_bias_per_sample": (
            lambda: nm.sum_all(nm.mul(nm.add_bias(lin(), per_sample_row), weights)),
            [xb, w, per_sample_row],
        ),
        "scalar_times_const": (
            lambda: square(nm.add_bias(gram(), nm.scalar_times_const(sb, mask))),
            [sb, xb],
        ),
        "scalar_times_const_shared": (lambda: square(nm.scalar_times_const(s, mask)), [s]),
        "concat_rows_broadcast": (lambda: square(nm.concat_rows([tok, xb])), [tok, xb]),
        "layer_norm": (
            lambda: nm.sum_all(nm.mul(nm.layer_norm_rows(xb, gain, shift), xb)),
            [xb, gain, shift],
        ),
        "softmax_gelu": (lambda: nm.sum_all(nm.mul(nm.softmax_rows(nm.gelu(xb)), xb)), [xb]),
        "mean_squeeze": (lambda: square(nm.squeeze_rows(nm.mean_over_rows(lin()))), [xb, w, row]),
        "slice_cols_rows": (
            lambda: nm.sum_all(nm.mul(nm.slice_cols(nm.slice_rows(xb, 1, 3), 0, 2),
                                      nm.slice_cols(nm.slice_rows(xb, 0, 2), 2, 4))),
            [xb],
        ),
    }
    for name, (build, params) in cases.items():
        err = fd_check(build, params, tol=5e-6)
        assert err < 5e-6, name


def test_random_five_op_graphs_match_finite_differences():
    # several compositions of 5 taped ops, checked at < 1e-6 relative error
    rng = np.random.default_rng(11)
    for trial in range(6):
        x = nm.parameter(rng.normal(size=(3, 3)) * 0.8)
        y = nm.parameter(rng.normal(size=(3, 3)) * 0.8)

        def build(x=x, y=y, trial=trial):
            if trial % 3 == 0:
                h = nm.matmul(x, y)          # 1
                h = nm.softmax_rows(h)       # 2
                h = nm.mul(h, x)             # 3
                h = nm.gelu(h)               # 4
                return nm.sum_all(h)         # 5
            if trial % 3 == 1:
                h = nm.add(x, y)             # 1
                h = nm.l2_normalize_rows(h)  # 2
                h = nm.matmul(h, y)          # 3
                h = nm.mul(h, h)             # 4
                return nm.sum_all(h)         # 5
            h = nm.transpose(x)              # 1
            h = nm.matmul(h, y)              # 2
            h = nm.scale(h, 3.0)             # 3
            h = nm.log_softmax_diag(h)       # 4
            return nm.sum_all(h)             # 5

        fd_check(build, [x, y], tol=1e-6)


def test_gradients_flow_through_long_chain():
    rng = np.random.default_rng(13)
    w1 = nm.parameter(rng.normal(size=(4, 6)) * 0.4)
    w2 = nm.parameter(rng.normal(size=(6, 2)) * 0.4)
    x = nm.constant(rng.normal(size=(3, 4)))

    def build():
        h = nm.gelu(nm.matmul(x, w1))
        h = nm.matmul(h, w2)
        h = nm.softmax_rows(h)
        return nm.sum_all(nm.mul(h, h))

    fd_check(build, [w1, w2], tol=1e-6)


def test_constants_receive_no_grad():
    x = nm.constant([[1.0, 2.0]])
    w = nm.parameter([[1.0], [1.0]])
    tape = Tape()
    with tape:
        loss = nm.sum_all(nm.matmul(x, w))
    backward(loss, tape)
    assert x.grad is None and w.grad is not None
