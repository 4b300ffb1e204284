"""Tape-free all-pairs cosine similarity, which scores the pair filter."""

from __future__ import annotations

import numpy as np

from focalcir.errors import ContractError

_NORM_EPS = 1e-12


def cosine_sim_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs cosine similarities, rows of a against rows of b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ContractError(f"cosine_sim_matrix shapes disagree: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    if np.any(na < _NORM_EPS) or np.any(nb < _NORM_EPS):
        raise ContractError("cosine_sim_matrix given a zero-norm row")
    return np.clip((a / na) @ (b / nb).T, -1.0, 1.0)
