"""Pair admissibility filtering over the images of one instance.

Three rules, applied to one instance's image set:
  1. sets smaller than tau_valid yield no pairs at all;
  2. an image is dropped when at least tau_count other images of the set are
     more similar to it than tau_centric (near-duplicate cluster);
  3. an ordered pair is dropped when its similarity exceeds tau_high.
Similarity is cosine over caller-supplied features; the benchmark uses
mean-pooled frozen-encoder patch embeddings. Rules 2 and 3 are stable under
re-application: surviving images never gain duplicate neighbours by removal,
so re-filtering the survivors returns the same pairs whenever the survivor
count still clears tau_valid (rule 1 gates on the input set size each call).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from focalcir.encoders import SyntheticImage
from focalcir.numerics.similarity import cosine_sim_matrix
from focalcir.records import ConfigSection


@dataclass(frozen=True)
class FilterThresholds(ConfigSection):
    tau_valid: int = field(metadata={"ge": 2})
    tau_high: float = field(metadata={"gt": 0.0, "lt": 1.0})
    tau_centric: float = field(metadata={"gt": 0.0, "lt": 1.0})
    tau_count: int = field(metadata={"ge": 1})

    def rules(self) -> str | None:
        if self.tau_centric > self.tau_high:
            return f"tau_centric {self.tau_centric} exceeds tau_high {self.tau_high}"


# per-subset presets
PRESETS: dict[str, FilterThresholds] = {
    "fashion": FilterThresholds(tau_valid=8, tau_high=0.92, tau_centric=0.88, tau_count=3),
    "car": FilterThresholds(tau_valid=10, tau_high=0.88, tau_centric=0.85, tau_count=2),
    "product": FilterThresholds(tau_valid=20, tau_high=0.88, tau_centric=0.85, tau_count=2),
    "landmark": FilterThresholds(tau_valid=15, tau_high=0.90, tau_centric=0.88, tau_count=3),
}


def filter_pairs(
    images: Sequence[SyntheticImage],
    thresholds: FilterThresholds,
    embed: Callable[[SyntheticImage], np.ndarray],
) -> list[tuple[str, str]]:
    """Admissible ordered (ref_image_id, target_image_id) pairs of one set;
    the caller validates `thresholds`."""
    if len(images) < thresholds.tau_valid:
        return []
    feats = np.stack([np.asarray(embed(im), dtype=np.float64).reshape(-1) for im in images])
    sims = cosine_sim_matrix(feats, feats)
    close = sims > thresholds.tau_centric
    np.fill_diagonal(close, False)
    kept = np.flatnonzero(close.sum(axis=1) < thresholds.tau_count)
    admissible = sims[np.ix_(kept, kept)] <= thresholds.tau_high
    np.fill_diagonal(admissible, False)
    ids = [images[i].image_id for i in kept.tolist()]
    # np.nonzero walks the kept x kept block in row-major order: ref, then target
    refs, targets = np.nonzero(admissible)
    return [(ids[i], ids[j]) for i, j in zip(refs.tolist(), targets.tolist())]
