"""2-D float64 tensors with a tape-based reverse-mode autodiff.

Design constraints, in order of priority: correctness that is easy to audit,
bit-level determinism, and enough speed for desk-scale training. All storage
is row-major float64 and every tensor is exactly 2-D; vectors are 1 x n rows.
There is no N-D broadcasting -- the only implicit broadcast is `add_bias`,
which adds a 1 x c row to every row of an r x c matrix. Model code loops over
batch samples explicitly.

Recording: operations append (inputs, output, backward) entries to the
innermost active `Tape` whenever any input requires grad. `backward` walks
the entries in reverse execution order, which is a valid reverse topological
order because an op's inputs always exist before its output. Gradients
accumulate additively across fan-out. A tensor with `grad is None` has a
zero gradient.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from focalcir.errors import ContractError, DegenerateInputError, DimensionError

_NORM_EPS = 1e-12


class Tensor:
    """Dense 2-D float64 matrix, optionally participating in autodiff."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got array of shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data[0, 0])

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
                # backward rules may return views of g; copy on first touch
                t.grad = np.array(gi, copy=True)
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


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op} needs equal shapes, got {a.data.shape} and {b.data.shape}")


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    out = Tensor(a.data @ b.data)
    tape = _should_record(a, b)
    if tape is not None:
        ad, bd = a.data, b.data
        need_a, need_b = a.requires_grad, b.requires_grad

        def bwd(g: np.ndarray):
            return (
                g @ bd.T if need_a else None,
                ad.T @ g if need_b else None,
            )

        tape._record((a, b), out, bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    tape = _should_record(a, b)
    if tape is not None:
        tape._record((a, b), out, lambda g: (g, g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    tape = _should_record(a, b)
    if tape is not None:
        ad, bd = a.data, b.data
        tape._record((a, b), out, lambda g: (g * bd, g * ad))
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
    """x[r x c] + bias[1 x c], the bias row added to every row of x."""
    if bias.data.shape[0] != 1 or bias.data.shape[1] != x.data.shape[1]:
        raise DimensionError(
            f"add_bias needs a 1 x {x.data.shape[1]} bias, got {bias.data.shape} on {x.data.shape}"
        )
    out = Tensor(x.data + bias.data)
    tape = _should_record(x, bias)
    if tape is not None:
        tape._record((x, bias), out, lambda g: (g, g.sum(axis=0, keepdims=True)))
    return out


def scalar_times_const(s: Tensor, const: np.ndarray) -> Tensor:
    """s[1 x 1] * const, where const is a fixed float64 array.

    Used to turn a differentiable scalar (the modulation output) into a bias
    row over constant mask values; d/ds is sum(g * const).
    """
    if s.data.size != 1:
        raise DimensionError(f"scalar_times_const needs a 1 x 1 tensor, got {s.data.shape}")
    c = np.asarray(const, dtype=np.float64)
    if c.ndim == 1:
        c = c.reshape(1, -1)
    out = Tensor(s.data[0, 0] * c)
    tape = _should_record(s)
    if tape is not None:
        tape._record((s,), out, lambda g: (np.array([[float((g * c).sum())]]),))
    return out


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DegenerateInputError("log needs strictly positive entries")
    out = Tensor(np.log(a.data))
    tape = _should_record(a)
    if tape is not None:
        ad = a.data
        tape._record((a,), out, lambda g: (g / ad,))
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
    """r x c -> 1 x c column means (used to pool token sets)."""
    r = a.data.shape[0]
    out = Tensor(a.data.mean(axis=0, keepdims=True))
    tape = _should_record(a)
    if tape is not None:
        tape._record((a,), out, lambda g: (np.repeat(g / r, r, axis=0),))
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T)
    tape = _should_record(a)
    if tape is not None:
        tape._record((a,), out, lambda g: (g.T,))
    return out


def diag_col(a: Tensor) -> Tensor:
    """Main diagonal of a square matrix as a b x 1 column."""
    r, c = a.data.shape
    if r != c:
        raise DimensionError(f"diag_col needs a square matrix, got {a.data.shape}")
    out = Tensor(np.diag(a.data).reshape(-1, 1).copy())
    tape = _should_record(a)
    if tape is not None:

        def bwd(g: np.ndarray):
            gx = np.zeros((r, c))
            np.fill_diagonal(gx, g[:, 0])
            return (gx,)

        tape._record((a,), out, bwd)
    return out


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ContractError("concat_rows needs at least one tensor")
    cols = parts[0].data.shape[1]
    for p in parts[1:]:
        if p.data.shape[1] != cols:
            raise DimensionError(
                f"concat_rows column mismatch: {parts[0].data.shape} vs {p.data.shape}"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    tape = _should_record(*parts)
    if tape is not None:
        sizes = [p.data.shape[0] for p in parts]

        def bwd(g: np.ndarray):
            grads = []
            at = 0
            for s in sizes:
                grads.append(g[at : at + s])
                at += s
            return grads

        tape._record(tuple(parts), out, bwd)
    return out


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    rows = parts[0].data.shape[0]
    for p in parts[1:]:
        if p.data.shape[0] != rows:
            raise DimensionError(
                f"concat_cols row mismatch: {parts[0].data.shape} vs {p.data.shape}"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    tape = _should_record(*parts)
    if tape is not None:
        sizes = [p.data.shape[1] for p in parts]

        def bwd(g: np.ndarray):
            grads = []
            at = 0
            for s in sizes:
                grads.append(g[:, at : at + s])
                at += s
            return grads

        tape._record(tuple(parts), out, bwd)
    return out


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    r = a.data.shape[0]
    if not (0 <= start < stop <= r):
        raise DimensionError(f"slice_rows [{start}:{stop}] out of range for {a.data.shape}")
    out = Tensor(a.data[start:stop].copy())
    tape = _should_record(a)
    if tape is not None:
        shape = a.data.shape

        def bwd(g: np.ndarray):
            gx = np.zeros(shape)
            gx[start:stop] = g
            return (gx,)

        tape._record((a,), out, bwd)
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    c = a.data.shape[1]
    if not (0 <= start < stop <= c):
        raise DimensionError(f"slice_cols [{start}:{stop}] out of range for {a.data.shape}")
    out = Tensor(a.data[:, start:stop].copy())
    tape = _should_record(a)
    if tape is not None:
        shape = a.data.shape

        def bwd(g: np.ndarray):
            gx = np.zeros(shape)
            gx[:, start:stop] = g
            return (gx,)

        tape._record((a,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)
    tape = _should_record(x)
    if tape is not None:

        def bwd(g: np.ndarray):
            dot = (g * y).sum(axis=1, keepdims=True)
            return (y * (g - dot),)

        tape._record((x,), out, bwd)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Smooth GELU (tanh form); smoothness keeps finite differences honest."""
    xd = x.data
    inner = _GELU_C * (xd + 0.044715 * xd**3)
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
    c = x.data.shape[1]
    if gain.data.shape != (1, c) or shift.data.shape != (1, c):
        raise DimensionError(
            f"layer_norm_rows needs 1 x {c} gain/shift, got {gain.data.shape} and {shift.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + shift.data)
    tape = _should_record(x, gain, shift)
    if tape is not None:
        gd = gain.data

        def bwd(g: np.ndarray):
            gy = g * gd
            m1 = gy.mean(axis=1, keepdims=True)
            m2 = (gy * xhat).mean(axis=1, keepdims=True)
            gx = (gy - m1 - xhat * m2) * inv
            ggain = (g * xhat).sum(axis=0, keepdims=True)
            gshift = g.sum(axis=0, keepdims=True)
            return (gx, ggain, gshift)

        tape._record((x, gain, shift), out, bwd)
    return out


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale every row to unit Euclidean norm; zero rows are degenerate."""
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    if np.any(norms < _NORM_EPS):
        raise DegenerateInputError("cannot l2-normalize a zero-norm row")
    y = x.data / norms
    out = Tensor(y)
    tape = _should_record(x)
    if tape is not None:

        def bwd(g: np.ndarray):
            dot = (g * y).sum(axis=1, keepdims=True)
            return ((g - y * dot) / norms,)

        tape._record((x,), out, bwd)
    return out
