"""Hard-negative gallery construction for one subset's eval split.

The gallery holds every eval target exactly once plus distractor images
drawn from the held-out reserve pool, with distractor category counts
proportional to the query category histogram (largest remainder). Reserve
instances never occur in any quadruple, so no distractor can share an
instance with a target; same-category distractors are the hard negatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from focalcir.benchgen.quadruples import Quadruple, largest_remainder
from focalcir.encoders import SyntheticImage
from focalcir.errors import ContractError


@dataclass(frozen=True)
class GalleryEntry:
    image_id: str
    instance_id: str
    category_id: str
    is_target: bool


@dataclass
class GalleryManifest:
    entries: list[GalleryEntry] = field(default_factory=list)

    @property
    def n_targets(self) -> int:
        return sum(1 for e in self.entries if e.is_target)

    @property
    def image_ids(self) -> list[str]:
        return [e.image_id for e in self.entries]

    def validate(self, eval_quads: list[Quadruple]) -> None:
        targets = {e.image_id for e in self.entries if e.is_target}
        wanted = {q.target_image_id for q in eval_quads}
        if targets != wanted:
            raise ContractError(
                f"gallery targets do not match eval targets: missing {sorted(wanted - targets)[:3]}, "
                f"extra {sorted(targets - wanted)[:3]}"
            )
        ids = [e.image_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ContractError("gallery contains duplicate image ids")
        target_instances = {q.instance_id for q in eval_quads}
        query_categories = {q.category_id for q in eval_quads}
        for e in self.entries:
            if e.is_target:
                continue
            if e.instance_id in target_instances:
                raise ContractError(f"distractor {e.image_id} shares instance {e.instance_id} with a target")
            if e.category_id not in query_categories:
                raise ContractError(f"distractor {e.image_id} has category {e.category_id} absent from queries")


def build_gallery(
    eval_quads: list[Quadruple],
    reserve_images: list[SyntheticImage],
    seed: int,
    n_distractors: int,
) -> GalleryManifest:
    """Targets (first appearance order) + proportionally sampled distractors."""
    if not eval_quads:
        raise ContractError("cannot build a gallery without eval quadruples")
    subsets = {q.subset for q in eval_quads}
    if len(subsets) != 1:
        raise ContractError(f"eval quadruples span multiple subsets: {sorted(subsets)}")
    subset = subsets.pop()
    manifest = GalleryManifest()

    seen: set[str] = set()
    for q in eval_quads:
        if q.target_image_id not in seen:
            seen.add(q.target_image_id)
            manifest.entries.append(
                GalleryEntry(q.target_image_id, q.instance_id, q.category_id, is_target=True)
            )

    target_instances = {q.instance_id for q in eval_quads}
    histogram: dict[str, float] = {}
    for q in eval_quads:
        histogram[q.category_id] = histogram.get(q.category_id, 0.0) + 1.0
    quotas = largest_remainder(int(n_distractors), histogram)

    pool: dict[str, list[SyntheticImage]] = {}
    for im in reserve_images:
        if im.subset == subset and im.instance_id not in target_instances:
            pool.setdefault(im.category_id, []).append(im)

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 202]))
    for cat in sorted(quotas):
        need = quotas[cat]
        if need == 0:
            continue
        have = sorted(pool.get(cat, []), key=lambda im: im.image_id)
        if len(have) < need:
            raise ContractError(
                f"reserve pool lacks category {cat}: need {need} distractors, have {len(have)}"
            )
        chosen = sorted(rng.permutation(len(have))[:need])
        for i in chosen:
            im = have[i]
            manifest.entries.append(
                GalleryEntry(im.image_id, im.instance_id, im.category_id, is_target=False)
            )
    manifest.validate(eval_quads)
    return manifest
