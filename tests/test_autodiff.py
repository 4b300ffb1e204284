"""Backward rules against the central finite-difference oracle."""

import ast
import inspect

import numpy as np
import pytest

from focalcir.errors import ContractError
from focalcir.numerics import tensor as nm
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.tensor import Tape, backward


def fd_check(build, params, tol=1e-6, eps=1e-5, name=""):
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
        numeric = finite_diff_grad(lambda _t: build().item(), p, eps=eps)
        a = np.zeros_like(p.data) if a is None else a
        worst = max(worst, max_rel_error(a, numeric))
    assert worst < tol, f"{name}: max relative error {worst:.3e} >= {tol}"
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


# every recording op of numerics.tensor, as (a function of its tensor inputs,
# their shapes)
RECORDING_OPS = {
    "matmul": (nm.matmul, [(3, 4), (4, 2)]),
    "linear": (nm.linear, [(3, 4), (4, 5), (1, 5)]),
    "add": (nm.add, [(3, 4), (1, 4)]),
    "mul": (nm.mul, [(3, 4), (3, 4)]),
    "scale": (lambda a: nm.scale(a, 2.5), [(3, 4)]),
    "sum_all": (nm.sum_all, [(3, 4)]),
    "mean_over_rows": (nm.mean_over_rows, [(3, 4)]),
    "squeeze_rows": (nm.squeeze_rows, [(3, 1, 4)]),
    "transpose": (nm.transpose, [(3, 4)]),
    "concat_rows": (lambda *parts: nm.concat_rows(parts), [(2, 4), (2, 3, 4)]),
    "gather": (lambda a: nm.gather(a, [1, 0, 1]), [(2, 3, 4)]),
    "slice_rows": (lambda a: nm.slice_rows(a, 1, 3), [(4, 3)]),
    "log_softmax_diag": (nm.log_softmax_diag, [(4, 4)]),
    "l2_normalize_rows": (nm.l2_normalize_rows, [(3, 4)]),
    "head_products": (lambda a, b: nm.head_products(a, b, 2), [(2, 4), (4, 3)]),
    "attention": (lambda *ts: nm.attention(*ts, 0.5),
                  [(3, 4), (5, 4), (4, 8), (1, 8), (8, 3), (1, 3), (1, 5)]),
    "residual_norm": (nm.residual_norm, [(3, 4), (3, 4), (1, 4), (1, 4)]),
    "feed_forward": (nm.feed_forward, [(3, 4), (4, 6), (1, 6), (6, 3), (1, 3)]),
}


def test_the_recording_cases_name_every_recording_op():
    tree = ast.parse(inspect.getsource(nm))
    assert set(RECORDING_OPS) == {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name != "_recorded"
        and any(isinstance(n, ast.Name) and n.id == "_recorded" for n in ast.walk(node))}


@pytest.mark.parametrize("name", RECORDING_OPS)
def test_no_recording_outside_tape(name):
    # nor under a tape from constants; one input that requires grad records
    # one entry holding the op's own inputs, and its output requires grad
    op, shapes = RECORDING_OPS[name]
    rng = np.random.default_rng(3)
    data = [rng.normal(size=s) for s in shapes]
    assert op(*map(nm.parameter, data)).requires_grad is False
    with Tape() as tape:
        out = op(*map(nm.constant, data))
    assert len(tape) == 0 and out.requires_grad is False
    for i in range(len(data)):
        inputs = [nm.parameter(d) if j == i else nm.constant(d) for j, d in enumerate(data)]
        with Tape() as tape:
            out = op(*inputs)
        [(recorded, output, _)] = tape._entries
        assert output is out and out.requires_grad
        assert len(recorded) == len(inputs) and all(r is t for r, t in zip(recorded, inputs))


def fused_op_cases(rng, batch):
    """Gradcheck cases for the fused layer ops, on (*batch, r, c) operands:
    attention over 1, 2 and 4 heads with no bias, a one-row bias, a per-row
    bias and a -inf key mask, with x as its own keys and values, and with
    unbatched rows meeting batched keys; the post-norm residual with an
    unbatched x, with x is y, and with x also read by an earlier op; the
    feed-forward layer; the per-head weight products."""
    r, n, d, m = 3, 5, 4, 3

    def par(*shape, s=0.7):
        return nm.parameter(rng.normal(size=shape) * s)

    weights_by_shape = {}

    def weigh(t):  # a fixed random weighting of t's entries, per shape
        shape = t.data.shape
        if shape not in weights_by_shape:
            weights_by_shape[shape] = nm.constant(rng.normal(size=shape))
        return nm.sum_all(nm.mul(t, weights_by_shape[shape]))

    x, kv = par(*batch, r, d), par(*batch, n, d)
    x_shared = par(r, d)
    row_bias, per_row_bias = par(*batch, 1, n), par(*batch, r, n)
    key_mask = np.zeros(batch + (1, n))
    key_mask[..., 0, n - 2:] = -np.inf
    key_mask = nm.constant(key_mask)
    cases = {}
    for heads in (1, 2, 4):
        w_qk, b_qk = par(d, heads * d), par(1, heads * d)
        w_vo, b_vo = par(heads * d, m), par(1, m)
        weights = [w_qk, b_qk, w_vo, b_vo]

        def attn(rows, keys, bias, w=(w_qk, b_qk, w_vo, b_vo)):
            return weigh(nm.attention(rows, keys, *w, bias, 0.5))

        cases.update({
            f"attention_h{heads}": (lambda a=attn: a(x, kv, None), [x, kv] + weights),
            f"attention_h{heads}_self": (lambda a=attn: a(x, x, None), [x] + weights),
            f"attention_h{heads}_row_bias": (
                lambda a=attn: a(x, kv, row_bias), [x, kv, row_bias] + weights),
            f"attention_h{heads}_per_row_bias": (
                lambda a=attn: a(x, kv, per_row_bias), [x, kv, per_row_bias] + weights),
            f"attention_h{heads}_key_mask": (
                lambda a=attn: a(x, kv, nm.add(per_row_bias, key_mask)),
                [x, kv, per_row_bias] + weights),
            f"attention_h{heads}_shared_rows": (
                lambda a=attn: a(x_shared, kv, key_mask), [x_shared, kv] + weights),
        })
    y = par(*batch, r, m)
    gain = nm.parameter(np.ones((1, m)) + 0.1 * rng.normal(size=(1, m)))
    shift = par(1, m, s=0.3)
    x_m, x_shared_m = par(*batch, r, m), par(r, m)

    def residual_fanout():
        early = nm.mul(x_m, x_m)  # x's earlier consumer runs last in backward
        return nm.add(weigh(nm.residual_norm(x_m, y, gain, shift)), weigh(early))

    w1, b1, w2, b2 = par(d, 6), par(1, 6), par(6, m), par(1, m)
    a, b = par(2, 4), par(4, 3)
    cases.update({
        "residual_norm": (lambda: weigh(nm.residual_norm(x_m, y, gain, shift)),
                          [x_m, y, gain, shift]),
        "residual_norm_unbatched_x": (
            lambda: weigh(nm.residual_norm(x_shared_m, y, gain, shift)), [x_shared_m, y]),
        "residual_norm_x_is_y": (lambda: weigh(nm.residual_norm(y, y, gain, shift)), [y]),
        "residual_norm_fanout": (residual_fanout, [x_m, y]),
        "feed_forward": (lambda: weigh(nm.feed_forward(x, w1, b1, w2, b2)), [x, w1, b1, w2, b2]),
        "head_products": (lambda: weigh(nm.head_products(a, b, 2)), [a, b]),
        "head_products_rows": (lambda: weigh(nm.head_products(a, b, 2, stack_rows=True)), [a, b]),
    })
    return cases


def test_per_op_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    a = nm.parameter(rng.normal(size=(3, 4)) * 0.7)
    b = nm.parameter(rng.normal(size=(4, 5)) * 0.7)
    c = nm.parameter(rng.normal(size=(3, 5)) * 0.7)
    row = nm.parameter(rng.normal(size=(1, 5)) * 0.7)
    sq = nm.parameter(rng.normal(size=(4, 4)) * 0.7)
    cb = nm.parameter(rng.normal(size=(2, 3, 5)) * 0.7)
    picks = nm.constant(rng.normal(size=(4, 3, 5)))

    cases = {
        "matmul": (lambda: nm.sum_all(nm.mul(nm.matmul(a, b), nm.matmul(a, b))), [a, b]),
        "add": (lambda: nm.sum_all(nm.mul(nm.add(nm.matmul(a, b), c), c)), [a, b, c]),
        "scale": (lambda: nm.sum_all(nm.mul(nm.scale(c, 2.5), c)), [c]),
        "add_row": (lambda: nm.sum_all(nm.mul(nm.add(c, row), c)), [c, row]),
        "linear": (lambda: nm.sum_all(nm.mul(nm.linear(a, b, row), c)), [a, b, row]),
        "l2_normalize_rows": (lambda: nm.sum_all(nm.mul(nm.l2_normalize_rows(c), c)), [c]),
        "mean_over_rows": (lambda: nm.sum_all(nm.mul(nm.mean_over_rows(c), row)), [c, row]),
        "transpose": (lambda: nm.sum_all(nm.mul(nm.transpose(c), nm.transpose(c))), [c]),
        "log_softmax_diag": (
            lambda: nm.sum_all(
                nm.mul(nm.log_softmax_diag(sq), nm.transpose(nm.slice_rows(sq, 1, 2)))
            ),
            [sq],
        ),
        "concat_rows": (
            lambda: nm.sum_all(nm.mul(nm.concat_rows([c, c]), nm.concat_rows([c, c]))),
            [c],
        ),
        "slice_rows": (lambda: nm.sum_all(nm.mul(nm.slice_rows(c, 1, 3), nm.slice_rows(c, 0, 2))), [c]),
        # sample 1 is taken twice, so its gradient is the sum of two copies'
        "gather": (lambda: nm.sum_all(nm.mul(nm.gather(cb, [1, 0, 1, 1]), picks)), [cb]),
    }
    cases.update(fused_op_cases(rng, batch=()))
    for name, (build, params) in cases.items():
        err = fd_check(build, params, tol=5e-6, name=name)
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
    gain = nm.parameter(np.ones((1, 4)) + 0.1 * rng.normal(size=(1, 4)))
    shift = nm.parameter(rng.normal(size=(1, 4)) * 0.3)
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
        "add_row_per_sample": (
            lambda: nm.sum_all(nm.mul(nm.add(lin(), per_sample_row), weights)),
            [xb, w, per_sample_row],
        ),
        "concat_rows_broadcast": (lambda: square(nm.concat_rows([tok, xb])), [tok, xb]),
        "residual_norm_l2_normalize": (
            lambda: nm.sum_all(
                nm.mul(nm.l2_normalize_rows(nm.residual_norm(xb, xb, gain, shift)), xb)
            ),
            [xb, gain, shift],
        ),
        "mean_squeeze": (lambda: square(nm.squeeze_rows(nm.mean_over_rows(lin()))), [xb, w, row]),
        "slice_rows": (
            lambda: nm.sum_all(nm.mul(nm.slice_rows(xb, 1, 3), nm.slice_rows(xb, 0, 2))),
            [xb],
        ),
        # a repeated sample meets shared weights: both sums run in backward
        "gather_linear": (
            lambda: square(nm.linear(nm.gather(xb, [0, 1, 1, 0, 1]), w, row)), [xb, w, row]),
    }
    cases.update(fused_op_cases(rng, batch=(2,)))
    for name, (build, params) in cases.items():
        err = fd_check(build, params, tol=5e-6, name=name)
        assert err < 5e-6, name


def test_random_five_op_graphs_match_finite_differences():
    # several compositions of 5 taped ops, checked at < 1e-6 relative error
    rng = np.random.default_rng(11)
    ones, zeros = nm.constant(np.ones((1, 3))), nm.constant(np.zeros((1, 3)))
    for trial in range(6):
        x = nm.parameter(rng.normal(size=(3, 3)) * 0.8)
        y = nm.parameter(rng.normal(size=(3, 3)) * 0.8)

        def build(x=x, y=y, trial=trial):
            if trial % 3 == 0:
                h = nm.matmul(x, y)                         # 1
                h = nm.residual_norm(h, x, ones, zeros)     # 2
                h = nm.mul(h, y)                            # 3
                h = nm.feed_forward(h, x, zeros, y, zeros)  # 4
                return nm.sum_all(h)                        # 5
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
    w2 = nm.parameter(rng.normal(size=(6, 3)) * 0.4)
    w3 = nm.parameter(rng.normal(size=(3, 3)) * 0.4)
    b1, b2 = nm.constant(np.zeros((1, 6))), nm.constant(np.zeros((1, 3)))
    x = nm.constant(rng.normal(size=(3, 4)))

    def build():
        h = nm.feed_forward(x, w1, b1, w2, b2)  # GELU between the two products
        h = nm.l2_normalize_rows(h)
        h = nm.log_softmax_diag(nm.matmul(h, w3))
        return nm.sum_all(nm.mul(h, h))

    fd_check(build, [w1, w2, w3], tol=1e-6)


def test_constants_receive_no_grad():
    x = nm.constant([[1.0, 2.0]])
    w = nm.parameter([[1.0], [1.0]])
    tape = Tape()
    with tape:
        loss = nm.sum_all(nm.matmul(x, w))
    backward(loss, tape)
    assert x.grad is None and w.grad is not None
