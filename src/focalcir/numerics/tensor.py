"""Float64 tensors with a tape-based reverse-mode autodiff, batched on a
leading axis.

Design constraints, in order of priority: correctness that is easy to audit,
bit-level determinism, and enough speed for desk-scale training. All storage
is row-major float64. A tensor is a 2-D matrix (rows, cols) or a 3-D batch of
matrices (batch, rows, cols); vectors are 1 x n rows. Every op acts on the
last two axes, and the leading batch axis broadcasts: an unbatched operand
(a weight, a frozen token set) meets every sample of a batched one. Within
the last two axes the only implicit broadcast is `add`'s: its second
operand may be one 1 x c row, added to every row. One tape therefore records
one op per layer for a whole batch, however many samples it holds. The
fused layer ops at the end (`head_products`, `attention`, `residual_norm`,
`feed_forward`) each record one entry for a whole layer step; with one head,
their forward passes round exactly as the plain-numpy softmax, GELU and
layer norm of `tests/reference.py` do.

Recording: every op builds its output and its backward rule, then returns
through `_recorded`, the one place that appends the (inputs, output,
backward) entry to the innermost active `Tape` when any input requires grad
and marks the output as requiring grad. `backward` walks
the entries in reverse execution order, which is a valid reverse topological
order because an op's inputs always exist before its output. Each backward
rule sums its gradients back down to its inputs' shapes, so an unbatched
input gets one gradient summed over the batch. Gradients accumulate
additively across fan-out. A tensor with `grad is None` has a zero gradient.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from focalcir.errors import ContractError

_NORM_EPS = 1e-12
_LN_EPS = 1e-5  # the layer norm's variance floor
_GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """Dense float64 matrix (rows, cols) or batch of them (batch, rows, cols),
    optionally participating in autodiff."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim > 3:
            raise ContractError(
                f"tensors are 2-D or 3-D (batch, rows, cols), got array of shape {arr.shape}"
            )
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def parameter(data) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    """A non-trainable tensor (inputs, masks, frozen embeddings)."""
    return Tensor(data, requires_grad=False)


BackwardFn = Callable[[np.ndarray], Sequence["np.ndarray | None"]]


class Tape:
    """Ordered record of executed ops with their backward rules.

    Use as a context manager around the forward pass; `backward` then
    replays the record in reverse. `clear` drops the record and resets the
    gradient of every tensor that participated (None is the zero gradient).
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: list[tuple[tuple[Tensor, ...], Tensor, BackwardFn]] = []

    def __enter__(self) -> "Tape":
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _STACK.pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise ContractError("tape context exited out of order")

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        for inputs, output, _ in self._entries:
            output.grad = None
            for t in inputs:
                t.grad = None
        self._entries.clear()


_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    """The innermost open tape, or None."""
    return _STACK[-1] if _STACK else None


def backward(root: Tensor, tape: Tape) -> None:
    """Accumulate d(root)/d(tensor) into .grad for every participant.

    The root must be a single-element tensor produced under `tape`.
    """
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    root.grad = np.ones_like(root.data)
    for inputs, output, bwd in reversed(tape._entries):
        g = output.grad
        if g is None:
            continue
        grads = bwd(g)
        for t, gi in zip(inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                # backward rules may return g itself or views of it: copy
                # those on first touch, and adopt arrays a rule made fresh
                t.grad = gi if gi is not g and gi.flags.owndata else np.array(gi, copy=True)
            else:
                t.grad += gi


def _recorded(inputs: tuple[Tensor, ...], out: Tensor, bwd: BackwardFn) -> Tensor:
    """out, recorded with its inputs and backward rule on the innermost open
    tape, and marked as requiring grad, if any input requires grad."""
    if _STACK:
        for t in inputs:
            if t.requires_grad:
                out.requires_grad = True
                _STACK[-1]._entries.append((inputs, out, bwd))
                break
    return out


def _batch_size(op: str, *arrays: np.ndarray) -> int | None:
    """The shared leading batch size of the 3-D operands (None if all are 2-D)."""
    size = None
    for arr in arrays:
        if arr.ndim == 3:
            if size is not None and arr.shape[0] != size:
                raise ContractError(
                    f"{op} batch sizes disagree: {[a.shape for a in arrays]}"
                )
            size = arr.shape[0]
    return size


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the batch axis its unbatched input was broadcast
    along. A batched input's gradient has its shape already: `_batch_size`
    lets no batch of 1 meet a larger one."""
    return g.sum(axis=0) if g.ndim > len(shape) else g


def _swap(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def transposed_keys(kv: np.ndarray) -> np.ndarray:
    """kv with its last two axes swapped: the keys `attention` multiplies
    by. It is a contiguous copy, as `transpose` makes, because BLAS rounds a
    transposed view differently."""
    return np.ascontiguousarray(_swap(kv))


def _stacked(a: np.ndarray) -> np.ndarray:
    """Every row of a 2-D or 3-D array, as one 2-D matrix."""
    return a.reshape(-1, a.shape[-1])


def _col_sums(a: np.ndarray) -> np.ndarray:
    """The 1 x c sum of every row of a, as one GEMV with a ones vector: about
    5x faster than .sum at layer sizes. It rounds differently, so backward
    rules use it and forward passes keep .sum."""
    rows = _stacked(a)
    return (np.ones(rows.shape[0]) @ rows)[None, :]


def _row_sums(a: np.ndarray) -> np.ndarray:
    """The sum of each row of a, keeping the axis, as one GEMV (see _col_sums)."""
    return (_stacked(a) @ np.ones(a.shape[-1])).reshape(a.shape[:-1] + (1,))


def _input_grad(g: np.ndarray, w: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of x in x @ w, from one GEMM over all of g's stacked rows,
    summed down to x's shape.

    Weight gradients are one GEMM too, x_stacked^T @ g_stacked. No operand
    of a linear-type product has more than a few dozen rows per sample (the
    patches are never projected), and one GEMM over the batch beats B
    per-sample ones, most of all in a 1-row last layer (about 5 against
    100 us at B = 32, timeit)."""
    return _unbroadcast((_stacked(g) @ w.T).reshape(g.shape[:-1] + (w.shape[0],)), shape)


def _same_last_two(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape[-2:] != b.data.shape[-2:]:
        raise ContractError(f"{op} needs equal shapes, got {a.data.shape} and {b.data.shape}")
    _batch_size(op, a.data, b.data)


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ContractError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    _batch_size("matmul", a.data, b.data)
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g: np.ndarray):
        return (
            _unbroadcast(g @ _swap(bd), ad.shape) if need_a else None,
            _unbroadcast(_swap(ad) @ g, bd.shape) if need_b else None,
        )

    return _recorded((a, b), Tensor(ad @ bd), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a weight w (k x m) and a 1 x m bias row, as one op.

    One op instead of matmul then add saves an output array and a
    gradient copy per projection: about 15% of a batched training step."""
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ContractError(f"linear inner dimensions disagree: {x.data.shape} x {w.data.shape}")
    m = w.data.shape[1]
    if b.data.shape != (1, m):
        raise ContractError(f"linear needs a 1 x {m} bias, got {b.data.shape}")
    xd, wd = x.data, w.data
    need_x, need_w = x.requires_grad, w.requires_grad
    y = xd @ wd
    y += b.data

    def bwd(g: np.ndarray):
        return (
            _input_grad(g, wd, xd.shape) if need_x else None,
            _stacked(xd).T @ _stacked(g) if need_w else None,
            _col_sums(g),
        )

    return _recorded((x, w, b), Tensor(y), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a[.., r x c] + b, where b is r x c or one 1 x c row added to every row
    of a. Either operand may be shared by the batch or given per sample."""
    rows, c = a.data.shape[-2:]
    if b.data.shape[-2:] not in ((rows, c), (1, c)):
        raise ContractError(f"add needs equal shapes or a 1 x {c} row, "
                            f"got {a.data.shape} and {b.data.shape}")
    _batch_size("add", a.data, b.data)
    sa, sb, row = a.data.shape, b.data.shape, b.data.shape[-2] < rows
    return _recorded((a, b), Tensor(a.data + b.data), lambda g: (
        _unbroadcast(g, sa), _unbroadcast(g.sum(axis=-2, keepdims=True) if row else g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_last_two(a, b, "mul")
    ad, bd = a.data, b.data
    return _recorded((a, b), Tensor(ad * bd), lambda g: (
        _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(c)
    return _recorded((a,), Tensor(a.data * c), lambda g: (g * c,))


# ---------------------------------------------------------------------------
# reductions and reshaping


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _recorded((a,), Tensor(np.array([[a.data.sum()]])),
                     lambda g: (np.full(shape, g[0, 0]),))


def mean_over_rows(a: Tensor) -> Tensor:
    """[.., r x c] -> [.., 1 x c] column means (used to pool token sets)."""
    r = a.data.shape[-2]
    return _recorded((a,), Tensor(a.data.mean(axis=-2, keepdims=True)),
                     lambda g: (np.repeat(g / r, r, axis=-2),))


def squeeze_rows(a: Tensor) -> Tensor:
    """(batch, 1, c) -> (batch, c): one row per sample, for the 2-D heads."""
    if a.data.ndim != 3 or a.data.shape[1] != 1:
        raise ContractError(f"squeeze_rows needs a (batch, 1, c) tensor, got {a.data.shape}")
    shape = a.data.shape
    return _recorded((a,), Tensor(a.data.reshape(shape[0], shape[2])),
                     lambda g: (g.reshape(shape),))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    return _recorded((a,), Tensor(_swap(a.data)), lambda g: (_swap(g),))


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    """Join along rows; unbatched parts are repeated across the batch, and
    their gradients summed back over it."""
    parts = list(parts)
    if not parts:
        raise ContractError("concat_rows needs at least one tensor")
    first = parts[0].data.shape
    for p in parts[1:]:
        if p.data.shape[-1] != first[-1]:
            raise ContractError(f"concat_rows column mismatch: {first} vs {p.data.shape}")
    arrays = [p.data for p in parts]
    batch = _batch_size("concat_rows", *arrays)
    if batch is not None:
        arrays = [a if a.ndim == 3 else np.broadcast_to(a, (batch,) + a.shape) for a in arrays]
    shapes = [p.data.shape for p in parts]

    def bwd(g: np.ndarray):
        grads = []
        at = 0
        for s in shapes:
            stop = at + s[-2]
            grads.append(_unbroadcast(g[..., at:stop, :], s))
            at = stop
        return grads

    return _recorded(tuple(parts), Tensor(np.concatenate(arrays, axis=-2)), bwd)


def gather(a: Tensor, index) -> Tensor:
    """The (len(index), r, c) batch whose sample i is sample index[i] of the
    (batch, r, c) tensor a. A sample may be taken more than once, and its
    gradient is the sum of its copies' gradients, taken as one GEMM with a
    0/1 selection matrix: about 17x faster than np.add.at at a training
    step's sizes, and rounded in BLAS's order, like _col_sums."""
    index = np.asarray(index, dtype=np.intp)
    if a.data.ndim != 3 or index.ndim != 1 or index.size == 0:
        raise ContractError(f"gather needs a (batch, r, c) tensor and a non-empty index list, "
                            f"got {a.data.shape} and {index.shape}")
    if index.min() < 0 or index.max() >= a.data.shape[0]:
        raise ContractError(f"gather index out of range for {a.data.shape[0]} samples")
    shape = a.data.shape

    def bwd(g: np.ndarray):
        picks = np.zeros((shape[0], index.size))
        picks[index, np.arange(index.size)] = 1.0
        return ((picks @ g.reshape(index.size, -1)).reshape(shape),)

    return _recorded((a,), Tensor(a.data[index]), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    r = a.data.shape[-2]
    if not (0 <= start < stop <= r):
        raise ContractError(f"slice_rows [{start}:{stop}] out of range for {a.data.shape}")
    shape = a.data.shape

    def bwd(g: np.ndarray):
        gx = np.zeros(shape)
        gx[..., start:stop, :] = g
        return (gx,)

    return _recorded((a,), Tensor(a.data[..., start:stop, :].copy()), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def log_softmax_diag(x: Tensor) -> Tensor:
    """log softmax_j(x)_ii of a square matrix as a b x 1 column, computed as
    x_ii - max_i - log sum_j exp(x_ij - max_i), so it stays finite however
    peaked a row is; the backward is g_i (delta_ij - p_ij)."""
    if x.data.ndim != 2 or x.data.shape[0] != x.data.shape[1]:
        raise ContractError(f"log_softmax_diag needs a square matrix, got {x.data.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)

    def bwd(g: np.ndarray):
        gx = -g * (e / total)
        gx[np.diag_indices_from(gx)] += g[:, 0]
        return (gx,)

    return _recorded((x,), Tensor(np.diag(z).reshape(-1, 1) - np.log(total)), bwd)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale every row to unit Euclidean norm; zero rows are degenerate."""
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if np.any(norms < _NORM_EPS):
        raise ContractError("cannot l2-normalize a zero-norm row")
    y = x.data / norms

    def bwd(g: np.ndarray):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / norms,)

    return _recorded((x,), Tensor(y), bwd)


# ---------------------------------------------------------------------------
# fused layer ops: one tape entry each, with a hand-written backward


def head_products(a: Tensor, b: Tensor, n_heads: int, stack_rows: bool = False) -> Tensor:
    """The per-head products a_h @ b_h as one op, where a_h are the n_heads
    equal column blocks of a (r x H*p) and b_h the matching row blocks of b
    (H*p x s). They are stacked as column blocks (r x H*s), or with
    stack_rows as row blocks (H*r x s). One head gives a @ b."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ContractError(f"head_products inner dimensions disagree: {ad.shape} x {bd.shape}")
    if n_heads < 1 or ad.shape[1] % n_heads:
        raise ContractError(f"{ad.shape[1]} columns do not split into {n_heads} heads")
    r, hp = ad.shape
    s = bd.shape[1]
    a3 = ad.reshape(r, n_heads, hp // n_heads).swapaxes(0, 1)  # (H, r, p)
    b3 = bd.reshape(n_heads, hp // n_heads, s)  # (H, p, s)
    prod = a3 @ b3
    out = Tensor(prod.reshape(-1, s) if stack_rows else prod.swapaxes(0, 1).reshape(r, -1))
    need_a, need_b = a.requires_grad, b.requires_grad

    def bwd(g: np.ndarray):
        g3 = g.reshape(n_heads, r, s) if stack_rows else g.reshape(r, n_heads, s).swapaxes(0, 1)
        return (
            (g3 @ _swap(b3)).swapaxes(0, 1).reshape(r, hp) if need_a else None,
            (_swap(a3) @ g3).reshape(hp, s) if need_b else None,
        )

    return _recorded((a, b), out, bwd)


def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(.., r, H*d) -> (.., H, r, d), a view."""
    return a.reshape(a.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3)


def _join_heads(a: np.ndarray) -> np.ndarray:
    """(.., H, r, d) -> (.., r, H*d)."""
    a = a.swapaxes(-2, -3)
    return a.reshape(a.shape[:-2] + (-1,))


def attention(
    x: Tensor,
    kv: Tensor,
    w_qk: Tensor,
    b_qk: Tensor,
    w_vo: Tensor,
    b_vo: Tensor,
    bias: Tensor | None,
    c: float,
    keys_t: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention of the rows of x over the keys and values kv, in
    merged form, as one op: per head h,

        A_h = softmax(c * ((x W_QK,h + b_QK,h) kv^T + bias)), row by row,

    and the output is sum_h (A_h kv) W_VO,h + b_VO. kv is d wide; W_QK
    (k x H*d) and b_QK (1 x H*d) hold the heads as column blocks, W_VO
    (H*d x m) as row blocks, so H is read off their shapes. The additive
    bias is one row or one row per query row, shared by every head; -inf on
    a key gives it probability exactly 0. With one head the arithmetic is
    that of linear, matmul, add, scale, the max-subtracted softmax of
    `tests/reference.py`, matmul and linear, step for step. The backward
    runs from the saved probabilities.

    keys_t is `transposed_keys(kv.data)`. The op makes that copy when it is
    not given, so a caller that runs several attentions over the same keys
    can make it once and hand it to each."""
    xd, kd = x.data, kv.data
    k, d = xd.shape[-1], kd.shape[-1]
    hd, m = w_qk.data.shape[-1], w_vo.data.shape[-1]
    if (w_qk.data.shape != (k, hd) or hd % d or b_qk.data.shape != (1, hd)
            or w_vo.data.shape != (hd, m) or b_vo.data.shape != (1, m)):
        raise ContractError(
            f"attention over {d}-wide keys got W_QK {w_qk.data.shape}, b_QK {b_qk.data.shape}, "
            f"W_VO {w_vo.data.shape} and b_VO {b_vo.data.shape} for {k}-wide rows"
        )
    n_heads = hd // d
    arrays = [xd, kd]
    if bias is not None:
        if bias.data.shape[-1] != kd.shape[-2] or bias.data.shape[-2] not in (1, xd.shape[-2]):
            raise ContractError(f"attention bias {bias.data.shape} fits neither 1 nor "
                                f"{xd.shape[-2]} rows over {kd.shape[-2]} keys")
        arrays.append(bias.data)
    _batch_size("attention", *arrays)
    if keys_t is None:
        keys_t = transposed_keys(kd)
    elif (keys_t.shape != _swap(kd).shape or keys_t.dtype != kd.dtype
          or not keys_t.flags.c_contiguous):
        raise ContractError(f"transposed keys {keys_t.shape} are no contiguous copy of "
                            f"keys {kd.shape}")
    wqk, wvo = w_qk.data, w_vo.data
    q = xd @ wqk
    q += b_qk.data
    qh = _split_heads(q, n_heads)  # (.., H, r, d)
    kvh = kd[..., None, :, :]  # (.., 1, n, d): every head reads the same keys
    probs = qh @ keys_t[..., None, :, :]
    if bias is not None:
        probs = probs + bias.data[..., None, :, :]
    probs *= c
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    mixed = _join_heads(probs @ kvh)  # (.., r, H*d)
    y = mixed @ wvo
    y += b_vo.data
    need_x, need_kv = x.requires_grad, kv.requires_grad
    need_bias = bias is not None and bias.requires_grad

    def bwd(g: np.ndarray):
        gs = _stacked(g)
        g_mixed = _split_heads((gs @ wvo.T).reshape(mixed.shape), n_heads)
        g_logits = g_mixed @ _swap(kvh)
        g_logits -= _row_sums(g_logits * probs)
        g_logits *= probs
        g_logits *= c
        g_q = _join_heads(g_logits @ kvh)
        x_rows = np.broadcast_to(xd, g_q.shape[:-1] + (k,))
        grads = [
            _input_grad(g_q, wqk, xd.shape) if need_x else None,
            None,
            _stacked(x_rows).T @ _stacked(g_q),
            _col_sums(g_q),
            _stacked(mixed).T @ gs,
            _col_sums(gs),
        ]
        if need_kv:  # kv is both the keys and the values
            g_kv = _swap(g_logits) @ qh + _swap(probs) @ g_mixed
            grads[1] = _unbroadcast(g_kv.sum(axis=-3), kd.shape)
        if need_bias:
            g_bias = g_logits.sum(axis=-3)
            if bias.data.shape[-2] == 1:
                g_bias = g_bias.sum(axis=-2, keepdims=True)
            grads.append(_unbroadcast(g_bias, bias.data.shape))
        return grads

    inputs = (x, kv, w_qk, b_qk, w_vo, b_vo) + (() if bias is None else (bias,))
    return _recorded(inputs, Tensor(y), bwd)


def residual_norm(x: Tensor, y: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """The post-norm residual: the layer norm of x + y, with a learned
    1 x c gain and shift, as one op.

    Its means are sums divided by the width, which is how numpy's mean
    computes them, so the output is the layer norm of `tests/reference.py`
    bit for bit."""
    _same_last_two(x, y, "residual_norm")
    c = x.data.shape[-1]
    if gain.data.shape != (1, c) or shift.data.shape != (1, c):
        raise ContractError(
            f"residual_norm needs 1 x {c} gain/shift, got {gain.data.shape} and {shift.data.shape}"
        )
    xhat = x.data + y.data
    xhat -= xhat.sum(axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / c + _LN_EPS)
    xhat *= inv
    out = xhat * gain.data
    out += shift.data
    gd, xs, ys = gain.data, x.data.shape, y.data.shape

    def bwd(g: np.ndarray):
        gs = g * gd
        m2 = _row_sums(gs * xhat) / c
        gs -= _row_sums(gs) / c
        gs -= xhat * m2
        gs *= inv
        gx, gy = _unbroadcast(gs, xs), _unbroadcast(gs, ys)
        if gy is gx:  # x and y must not end up sharing one .grad array
            gy = gx.copy()
        return gx, gy, _col_sums(g * xhat), _col_sums(g)

    return _recorded((x, y, gain, shift), Tensor(out), bwd)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(GELU(linear(x, w1, b1)), w2, b2) as one op, with the smooth
    tanh-form GELU; the output is that of linear and the GELU of
    `tests/reference.py` bit for bit, and the backward reuses the saved tanh."""
    k, hidden = w1.data.shape
    m = w2.data.shape[-1]
    if (x.data.shape[-1] != k or b1.data.shape != (1, hidden)
            or w2.data.shape != (hidden, m) or b2.data.shape != (1, m)):
        raise ContractError(
            f"feed_forward got x {x.data.shape}, w1 {w1.data.shape}, b1 {b1.data.shape}, "
            f"w2 {w2.data.shape} and b2 {b2.data.shape}"
        )
    xd, wd1, wd2 = x.data, w1.data, w2.data
    h = xd @ wd1
    h += b1.data
    t = h * h  # tanh(C (h + 0.044715 h^3)), in the reference GELU's order
    t *= h
    t *= 0.044715
    t += h
    t *= _GELU_C
    np.tanh(t, out=t)
    a = 0.5 * h
    a *= 1.0 + t
    y = a @ wd2
    y += b2.data
    need_x = x.requires_grad

    def bwd(g: np.ndarray):
        gs = _stacked(g)
        # gelu'(h) = 0.5 (1 + t) + 0.5 h (1 - t^2) C (1 + 3 * 0.044715 h^2),
        # built in place: the hidden layer is the widest array of a layer
        slope = h * h
        slope *= 3 * 0.044715
        slope += 1.0
        slope *= _GELU_C
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        slope *= sech2
        slope *= h
        np.add(t, 1.0, out=sech2)
        slope += sech2
        slope *= 0.5
        gh = (gs @ wd2.T).reshape(h.shape)
        gh *= slope
        return (
            _input_grad(gh, wd1, xd.shape) if need_x else None,
            _stacked(xd).T @ _stacked(gh),
            _col_sums(gh),
            _stacked(a).T @ gs,
            _col_sums(gs),
        )

    return _recorded((x, w1, b1, w2, b2), Tensor(y), bwd)
