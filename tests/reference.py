"""Plain-numpy forwards of softmax, GELU and layer norm: the arithmetic that
the fused tape ops `attention`, `feed_forward` and `residual_norm` must
reproduce bit for bit."""

import math

import numpy as np

GELU_C = math.sqrt(2.0 / math.pi)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction. A -inf entry gets probability
    exactly 0, provided its row keeps a finite entry."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """Smooth GELU, tanh form."""
    return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * (x * x * x))))


def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Row-wise layer norm with a 1 x c gain and shift."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    return xc * inv * gain + shift
