"""Central finite differences, the independent oracle for every backward rule."""

from __future__ import annotations

from typing import Callable

import numpy as np

from focalcir.numerics.tensor import Tensor

_REL_FLOOR = 1e-6


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-5) -> np.ndarray:
    """d f / d x by central differences, perturbing one coordinate at a time.

    f is re-evaluated with x.data mutated in place and restored afterwards,
    so f must read x afresh on every call (no caching of x.data).
    """
    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(x))
        flat[i] = orig - eps
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(|a|, |n|, 1e-6).

    The floor keeps near-zero coordinates from inflating the ratio; below it
    the comparison is effectively absolute at floor resolution.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _REL_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))
