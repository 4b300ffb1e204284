"""AdamW with decoupled weight decay and bias-corrected moments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from focalcir.errors import ContractError, DimensionError
from focalcir.numerics.tensor import Tensor


@dataclass
class AdamState:
    """Per-group optimizer state. Moment buffers are allocated lazily on the
    first step so the state can be constructed before parameters exist."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.98
    weight_decay: float = 0.05
    eps: float = 1e-8
    step_count: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def _ensure(self, params: Sequence[Tensor]) -> None:
        if not self.m:
            self.m = [np.zeros_like(p.data) for p in params]
            self.v = [np.zeros_like(p.data) for p in params]
        if len(self.m) != len(params):
            raise ContractError(
                f"optimizer state tracks {len(self.m)} params, got {len(params)}"
            )


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray | None], state: AdamState) -> None:
    """One in-place update. grads[i] = None means a zero gradient; decoupled
    weight decay still applies to that parameter."""
    if len(params) != len(grads):
        raise ContractError(f"{len(params)} params but {len(grads)} grads")
    state._ensure(params)
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    lr, b1, b2, wd, eps = state.lr, state.beta1, state.beta2, state.weight_decay, state.eps
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is not None and g.shape != p.data.shape:
            raise DimensionError(f"grad shape {g.shape} vs param shape {p.data.shape}")
        if wd != 0.0:
            p.data -= lr * wd * p.data
        if g is None:
            # moments decay toward zero exactly as with an explicit zero grad
            m *= b1
            v *= b2
        else:
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
