"""AdamW with decoupled weight decay and bias-corrected moments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from focalcir.errors import ContractError
from focalcir.numerics.tensor import Tensor


@dataclass
class AdamState:
    """Per-group optimizer state.

    On the first step the group's parameters move into one flat buffer:
    each parameter's .data becomes a view of it, and the moments are two
    more flat buffers, so a step is a few vector ops over the whole group
    instead of a dozen per tensor. The state can be built before the
    parameters exist."""

    lr: float
    step_count: int = field(default=0, init=False)
    # every parameter of the group, end to end
    flat: np.ndarray | None = field(default=None, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)
    views: list[np.ndarray] = field(default_factory=list, init=False)  # each parameter's .data

    def _ensure(self, params: Sequence[Tensor]) -> None:
        if self.flat is None:
            self.flat = np.concatenate([p.data.reshape(-1) for p in params])
            self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
            at = 0
            for p in params:
                view = self.flat[at : at + p.data.size].reshape(p.data.shape)
                at += p.data.size
                p.data = view
                self.views.append(view)
        if len(self.views) != len(params):
            raise ContractError(
                f"optimizer state tracks {len(self.views)} params, got {len(params)}"
            )
        for i, (p, view) in enumerate(zip(params, self.views)):
            if p.data is not view:
                raise ContractError(
                    f"param {i} of shape {p.data.shape} is not the array this optimizer "
                    f"state steps: its .data was rebound after the first step"
                )


# the one AdamW setting every group trains with; only the rate differs
BETA1 = 0.9  # Kingma & Ba 2014
BETA2 = 0.98
WEIGHT_DECAY = 0.05
EPS = 1e-8


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray | None], state: AdamState) -> None:
    """One in-place update. grads[i] = None means a zero gradient; decoupled
    weight decay still applies to that parameter. The rule is elementwise,
    so updating the flat buffer gives every tensor the bits a per-tensor
    update would."""
    if len(params) != len(grads):
        raise ContractError(f"{len(params)} params but {len(grads)} grads")
    if not params:
        raise ContractError("an optimizer group needs at least one param")
    for p, g in zip(params, grads):
        if g is not None and g.shape != p.data.shape:
            raise ContractError(f"grad shape {g.shape} vs param shape {p.data.shape}")
    state._ensure(params)
    # a zero grad decays the moments exactly as skipping the gradient terms
    # would: the moments start at +0.0 and never reach -0.0
    g = np.concatenate([np.zeros(p.data.size) if g is None else g.reshape(-1)
                        for p, g in zip(params, grads)])
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    lr, flat, m, v = state.lr, state.flat, state.m, state.v
    flat -= lr * WEIGHT_DECAY * flat
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    g2 = (1.0 - BETA2) * g
    g2 *= g
    v += g2
    step = m / bc1
    step *= lr
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    flat -= step
