"""Float64 tensors with a tape-based reverse-mode autodiff, batched on a
leading axis.

Design constraints, in order of priority: correctness that is easy to audit,
bit-level determinism, and enough speed for desk-scale training. All storage
is row-major float64. A tensor is a 2-D matrix (rows, cols) or a 3-D batch of
matrices (batch, rows, cols); vectors are 1 x n rows. Every op acts on the
last two axes, and the leading batch axis broadcasts: an unbatched operand
(a weight, a frozen token set) meets every sample of a batched one. Within
the last two axes the only implicit broadcast is `add_bias`, which adds a
1 x c row to every row. One tape therefore records one op per layer for a
whole batch, however many samples it holds.

Recording: operations append (inputs, output, backward) entries to the
innermost active `Tape` whenever any input requires grad. `backward` walks
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

from focalcir.errors import ContractError, DegenerateInputError, DimensionError

_NORM_EPS = 1e-12


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
            raise DimensionError(
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

    def _record(self, inputs: tuple[Tensor, ...], output: Tensor, bwd: BackwardFn) -> None:
        output.requires_grad = True
        self._entries.append((inputs, output, bwd))

    def clear(self) -> None:
        for inputs, output, _ in self._entries:
            output.grad = None
            for t in inputs:
                t.grad = None
        self._entries.clear()


_STACK: list[Tape] = []


def _active() -> Tape | None:
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


def _should_record(*tensors: Tensor) -> Tape | None:
    tape = _active()
    if tape is None:
        return None
    for t in tensors:
        if t.requires_grad:
            return tape
    return None


def _batch_size(op: str, *arrays: np.ndarray) -> int | None:
    """The shared leading batch size of the 3-D operands (None if all are 2-D)."""
    size = None
    for arr in arrays:
        if arr.ndim == 3:
            if size is not None and arr.shape[0] != size:
                raise DimensionError(
                    f"{op} batch sizes disagree: {[a.shape for a in arrays]}"
                )
            size = arr.shape[0]
    return size


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes its input was broadcast along."""
    if g.shape == shape:
        return g
    if g.ndim > len(shape):
        g = g.sum(axis=0)
    if g.ndim == 3 and shape[0] == 1:
        g = g.sum(axis=0, keepdims=True)
    return g


def _swap(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _same_last_two(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape[-2:] != b.data.shape[-2:]:
        raise DimensionError(f"{op} needs equal shapes, got {a.data.shape} and {b.data.shape}")
    _batch_size(op, a.data, b.data)


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    _batch_size("matmul", a.data, b.data)
    out = Tensor(a.data @ b.data)
    tape = _should_record(a, b)
    if tape is not None:
        ad, bd = a.data, b.data
        need_a, need_b = a.requires_grad, b.requires_grad

        def bwd(g: np.ndarray):
            return (
                _unbroadcast(g @ _swap(bd), ad.shape) if need_a else None,
                _unbroadcast(_swap(ad) @ g, bd.shape) if need_b else None,
            )

        tape._record((a, b), out, bwd)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for a weight w (k x m) and a 1 x m bias row, as one op.

    One op instead of matmul then add_bias saves an output array and a
    gradient copy per projection: about 15% of a batched training step."""
    if w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(f"linear inner dimensions disagree: {x.data.shape} x {w.data.shape}")
    m = w.data.shape[1]
    if b.data.shape != (1, m):
        raise DimensionError(f"linear needs a 1 x {m} bias, got {b.data.shape}")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y)
    tape = _should_record(x, w, b)
    if tape is not None:
        xd, wd = x.data, w.data
        need_x, need_w = x.requires_grad, w.requires_grad

        def bwd(g: np.ndarray):
            # the weight gradient of a batch sums per-sample GEMMs: one GEMM
            # over all B * n stacked rows is large enough for OpenBLAS to
            # thread it, and it ran slower and stalled on a 2-core host
            return (
                g @ wd.T if need_x else None,
                _unbroadcast(_swap(xd) @ g, wd.shape) if need_w else None,
                g.reshape(-1, m).sum(axis=0, keepdims=True),
            )

        tape._record((x, w, b), out, bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_last_two(a, b, "add")
    out = Tensor(a.data + b.data)
    tape = _should_record(a, b)
    if tape is not None:
        sa, sb = a.data.shape, b.data.shape
        tape._record((a, b), out, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_last_two(a, b, "mul")
    out = Tensor(a.data * b.data)
    tape = _should_record(a, b)
    if tape is not None:
        ad, bd = a.data, b.data
        tape._record(
            (a, b), out,
            lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)),
        )
    return out


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(c)
    out = Tensor(a.data * c)
    tape = _should_record(a)
    if tape is not None:
        tape._record((a,), out, lambda g: (g * c,))
    return out


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """x[.., r x c] + bias[.., 1 x c], the bias row added to every row of x.

    The bias is one row shared by the batch, or one row per sample."""
    c = x.data.shape[-1]
    if bias.data.shape[-2:] != (1, c):
        raise DimensionError(
            f"add_bias needs a 1 x {c} bias, got {bias.data.shape} on {x.data.shape}"
        )
    _batch_size("add_bias", x.data, bias.data)
    out = Tensor(x.data + bias.data)
    tape = _should_record(x, bias)
    if tape is not None:
        xs, bs = x.data.shape, bias.data.shape
        tape._record(
            (x, bias), out,
            lambda g: (_unbroadcast(g, xs), _unbroadcast(g.sum(axis=-2, keepdims=True), bs)),
        )
    return out


def scalar_times_const(s: Tensor, const: np.ndarray) -> Tensor:
    """s[.., 1 x 1] * const, where const is a fixed float64 array.

    Used to turn a differentiable scalar (the modulation output, one per
    sample in a batch) into a bias row over constant mask values; d/ds is
    sum(g * const) over each sample's last two axes.
    """
    if s.data.shape[-2:] != (1, 1):
        raise DimensionError(f"scalar_times_const needs a 1 x 1 tensor, got {s.data.shape}")
    c = np.asarray(const, dtype=np.float64)
    if c.ndim == 1:
        c = c.reshape(1, -1)
    _batch_size("scalar_times_const", s.data, c)
    out = Tensor(s.data * c)
    tape = _should_record(s)
    if tape is not None:
        shape = s.data.shape
        tape._record(
            (s,), out,
            lambda g: (_unbroadcast((g * c).sum(axis=(-2, -1), keepdims=True), shape),),
        )
    return out


# ---------------------------------------------------------------------------
# reductions and reshaping


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(np.array([[a.data.sum()]]))
    tape = _should_record(a)
    if tape is not None:
        shape = a.data.shape
        tape._record((a,), out, lambda g: (np.full(shape, g[0, 0]),))
    return out


def mean_over_rows(a: Tensor) -> Tensor:
    """[.., r x c] -> [.., 1 x c] column means (used to pool token sets)."""
    r = a.data.shape[-2]
    out = Tensor(a.data.mean(axis=-2, keepdims=True))
    tape = _should_record(a)
    if tape is not None:
        tape._record((a,), out, lambda g: (np.repeat(g / r, r, axis=-2),))
    return out


def squeeze_rows(a: Tensor) -> Tensor:
    """(batch, 1, c) -> (batch, c): one row per sample, for the 2-D heads."""
    if a.data.ndim != 3 or a.data.shape[1] != 1:
        raise DimensionError(f"squeeze_rows needs a (batch, 1, c) tensor, got {a.data.shape}")
    shape = a.data.shape
    out = Tensor(a.data.reshape(shape[0], shape[2]))
    tape = _should_record(a)
    if tape is not None:
        tape._record((a,), out, lambda g: (g.reshape(shape),))
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    out = Tensor(_swap(a.data))
    tape = _should_record(a)
    if tape is not None:
        tape._record((a,), out, lambda g: (_swap(g),))
    return out


def _concat(parts: list[Tensor], axis: int, op: str) -> Tensor:
    """Join along rows (axis -2) or cols (axis -1); unbatched parts are
    repeated across the batch, and their gradients summed back over it."""
    if not parts:
        raise ContractError(f"{op} needs at least one tensor")
    other = -1 if axis == -2 else -2
    first = parts[0].data.shape
    for p in parts[1:]:
        if p.data.shape[other] != first[other]:
            kind = "column" if axis == -2 else "row"
            raise DimensionError(f"{op} {kind} mismatch: {first} vs {p.data.shape}")
    arrays = [p.data for p in parts]
    batch = _batch_size(op, *arrays)
    if batch is not None:
        arrays = [a if a.ndim == 3 else np.broadcast_to(a, (batch,) + a.shape) for a in arrays]
    out = Tensor(np.concatenate(arrays, axis=axis))
    tape = _should_record(*parts)
    if tape is not None:
        shapes = [p.data.shape for p in parts]

        def bwd(g: np.ndarray):
            grads = []
            at = 0
            for s in shapes:
                stop = at + s[axis]
                piece = g[..., at:stop, :] if axis == -2 else g[..., at:stop]
                grads.append(_unbroadcast(piece, s))
                at = stop
            return grads

        tape._record(tuple(parts), out, bwd)
    return out


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    return _concat(list(parts), -2, "concat_rows")


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    return _concat(list(parts), -1, "concat_cols")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    r = a.data.shape[-2]
    if not (0 <= start < stop <= r):
        raise DimensionError(f"slice_rows [{start}:{stop}] out of range for {a.data.shape}")
    out = Tensor(a.data[..., start:stop, :].copy())
    tape = _should_record(a)
    if tape is not None:
        shape = a.data.shape

        def bwd(g: np.ndarray):
            gx = np.zeros(shape)
            gx[..., start:stop, :] = g
            return (gx,)

        tape._record((a,), out, bwd)
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    c = a.data.shape[-1]
    if not (0 <= start < stop <= c):
        raise DimensionError(f"slice_cols [{start}:{stop}] out of range for {a.data.shape}")
    out = Tensor(a.data[..., start:stop].copy())
    tape = _should_record(a)
    if tape is not None:
        shape = a.data.shape

        def bwd(g: np.ndarray):
            gx = np.zeros(shape)
            gx[..., start:stop] = g
            return (gx,)

        tape._record((a,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1.

    A -inf entry (a padded key) gets probability exactly 0, provided every
    row keeps at least one finite entry."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    tape = _should_record(x)
    if tape is not None:

        def bwd(g: np.ndarray):
            dot = (g * y).sum(axis=-1, keepdims=True)
            return (y * (g - dot),)

        tape._record((x,), out, bwd)
    return out


def log_softmax_diag(x: Tensor) -> Tensor:
    """log softmax_j(x)_ii of a square matrix as a b x 1 column, computed as
    x_ii - max_i - log sum_j exp(x_ij - max_i), so it stays finite however
    peaked a row is; the backward is g_i (delta_ij - p_ij)."""
    if x.data.ndim != 2 or x.data.shape[0] != x.data.shape[1]:
        raise DimensionError(f"log_softmax_diag needs a square matrix, got {x.data.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    out = Tensor(np.diag(z).reshape(-1, 1) - np.log(total))
    tape = _should_record(x)
    if tape is not None:

        def bwd(g: np.ndarray):
            gx = -g * (e / total)
            gx[np.diag_indices_from(gx)] += g[:, 0]
            return (gx,)

        tape._record((x,), out, bwd)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Smooth GELU (tanh form); smoothness keeps finite differences honest."""
    xd = x.data
    # the product, not xd**3: numpy's float power is ~100x slower here
    inner = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(inner)
    out = Tensor(0.5 * xd * (1.0 + t))
    tape = _should_record(x)
    if tape is not None:

        def bwd(g: np.ndarray):
            sech2 = 1.0 - t * t
            d_inner = _GELU_C * (1.0 + 3 * 0.044715 * xd * xd)
            return (g * (0.5 * (1.0 + t) + 0.5 * xd * sech2 * d_inner),)

        tape._record((x,), out, bwd)
    return out


def layer_norm_rows(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer norm with learned 1 x c gain and shift."""
    c = x.data.shape[-1]
    if gain.data.shape != (1, c) or shift.data.shape != (1, c):
        raise DimensionError(
            f"layer_norm_rows needs 1 x {c} gain/shift, got {gain.data.shape} and {shift.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + shift.data)
    tape = _should_record(x, gain, shift)
    if tape is not None:
        gd = gain.data

        def bwd(g: np.ndarray):
            gy = g * gd
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            gx = (gy - m1 - xhat * m2) * inv
            ggain = (g * xhat).reshape(-1, c).sum(axis=0, keepdims=True)
            gshift = g.reshape(-1, c).sum(axis=0, keepdims=True)
            return (gx, ggain, gshift)

        tape._record((x, gain, shift), out, bwd)
    return out


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale every row to unit Euclidean norm; zero rows are degenerate."""
    norms = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if np.any(norms < _NORM_EPS):
        raise DegenerateInputError("cannot l2-normalize a zero-norm row")
    y = x.data / norms
    out = Tensor(y)
    tape = _should_record(x)
    if tape is not None:

        def bwd(g: np.ndarray):
            dot = (g * y).sum(axis=-1, keepdims=True)
            return ((g - y * dot) / norms,)

        tape._record((x,), out, bwd)
    return out
