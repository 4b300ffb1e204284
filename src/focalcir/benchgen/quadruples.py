"""Quadruple assembly and the train/eval split.

A quadruple is (reference image, its planted box, target-context text,
target image); ref and target show the same instance in generally different
surroundings. The split is by instance, never by image: instances of a
subset are allocated 8:2 with the train total fixed to round(0.8 n) and
spread across categories by largest remainder, so neither split starves a
category. Per-instance pair caps keep epoch cost flat as worlds grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from focalcir.benchgen.world import SyntheticWorld
from focalcir.errors import ContractError
from focalcir.geometry import BBox


@dataclass(frozen=True)
class Quadruple:
    """One retrieval sample; the category doubles as the instance class label."""

    ref_image_id: str
    bbox: BBox
    text_context_id: str
    target_image_id: str
    instance_id: str
    category_id: str
    subset: str


def largest_remainder(total: int, weights: dict[str, float]) -> dict[str, int]:
    """Integer quotas summing to total, proportional to non-negative weights."""
    if total < 0:
        raise ContractError("total must be >= 0")
    mass = float(sum(weights.values()))
    if mass <= 0.0:
        raise ContractError("weights must have positive mass")
    keys = sorted(weights)
    exact = {k: total * weights[k] / mass for k in keys}
    quotas = {k: int(np.floor(exact[k])) for k in keys}
    short = total - sum(quotas.values())
    by_remainder = sorted(keys, key=lambda k: (-(exact[k] - quotas[k]), k))
    for k in by_remainder[:short]:
        quotas[k] += 1
    return quotas


def _split_instances(
    instances: list[str],
    category_of: dict[str, str],
    rng: np.random.Generator,
) -> tuple[set[str], set[str]]:
    """8:2 by instance: train total = round(0.8 n), spread by largest remainder."""
    n_train = int(round(0.8 * len(instances)))
    by_cat: dict[str, list[str]] = {}
    for inst in sorted(instances):
        by_cat.setdefault(category_of[inst], []).append(inst)
    quotas = largest_remainder(n_train, {c: float(len(v)) for c, v in by_cat.items()})
    # each quota is at most its category's size, since n_train <= n and only
    # a fractional share is rounded up, and the quotas sum to n_train
    train: set[str] = set()
    for cat in sorted(by_cat):
        members = by_cat[cat]
        order = rng.permutation(len(members))
        train.update(members[i] for i in order[: quotas[cat]])
    return train, set(instances) - train


def _capped(pairs: list[tuple[str, str]], cap: int, rng: np.random.Generator) -> list[tuple[str, str]]:
    if len(pairs) <= cap:
        return list(pairs)
    chosen = sorted(rng.permutation(len(pairs))[:cap])
    return [pairs[i] for i in chosen]


def make_quadruples(
    pairs_by_instance: dict[str, list[tuple[str, str]]],
    world: SyntheticWorld,
    seed: int,
    train_cap: int,
    eval_cap: int,
) -> tuple[list[Quadruple], list[Quadruple]]:
    """Filtered pairs -> (train, eval) quadruples, split 8:2 by instance."""
    by_id = {im.image_id: im for im in world.images}
    subsets = sorted({iid.split("/")[0] for iid in pairs_by_instance})
    # namespaced key: world generation already consumes the plain-seed streams
    children = np.random.SeedSequence([int(seed), 101]).spawn(len(subsets))
    train_out: list[Quadruple] = []
    eval_out: list[Quadruple] = []
    for subset, child in zip(subsets, children):
        rng = np.random.default_rng(child)
        instances = sorted(
            iid for iid, pairs in pairs_by_instance.items()
            if pairs and iid.split("/")[0] == subset
        )
        if not instances:
            continue
        category_of = {iid: "/".join(iid.split("/")[:2]) for iid in instances}
        train_set, _ = _split_instances(instances, category_of, rng)
        for iid in instances:
            cap = train_cap if iid in train_set else eval_cap
            sink = train_out if iid in train_set else eval_out
            for ref_id, tgt_id in _capped(pairs_by_instance[iid], cap, rng):
                ref, tgt = by_id[ref_id], by_id[tgt_id]
                if ref.instance_id != tgt.instance_id or ref.instance_id != iid:
                    raise ContractError(
                        f"pair ({ref_id}, {tgt_id}) does not belong to instance {iid}"
                    )
                sink.append(
                    Quadruple(
                        ref_image_id=ref_id,
                        bbox=ref.bbox,
                        text_context_id=tgt.context_id,
                        target_image_id=tgt_id,
                        instance_id=iid,
                        category_id=ref.category_id,
                        subset=subset,
                    )
                )
    return train_out, eval_out
