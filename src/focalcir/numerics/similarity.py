"""Tape-free cosine utilities: cosine_sim_matrix scores the pair filter, and
cosine_sim is the one-pair reference it is tested against."""

from __future__ import annotations

import numpy as np

from focalcir.errors import DegenerateInputError, DimensionError

_NORM_EPS = 1e-12


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two 1-D vectors, clamped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DimensionError(f"cosine_sim shapes disagree: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < _NORM_EPS or nb < _NORM_EPS:
        raise DegenerateInputError("cosine_sim of a zero-norm vector")
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


def cosine_sim_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarities, rows of a against rows of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"cosine_sim_matrix shapes disagree: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    if np.any(na < _NORM_EPS) or np.any(nb < _NORM_EPS):
        raise DegenerateInputError("cosine_sim_matrix given a zero-norm row")
    return np.clip((a / na) @ (b / nb).T, -1.0, 1.0)
