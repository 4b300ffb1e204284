"""Ranking, recall metrics, and whole-benchmark model evaluation.

rank_gallery orders candidates by descending cosine with a deterministic
tie-break (ascending gallery index). R@K asks whether the exact target image
landed in the top K; R_ID@K asks whether any top-K candidate shows the
anchored instance. Evaluation encodes the gallery and the queries in
batches of EVAL_CHUNK samples, shares one immutable gallery embedding matrix
per subset, and ranks each query's row against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from focalcir.benchgen.pipeline import Benchmark
from focalcir.benchgen.quadruples import Quadruple
from focalcir.errors import ContractError
from focalcir.geometry import BBox
from focalcir.model import (
    ModelParams,
    QuerySample,
    TrainExample,
    query_representation,
    target_representation,
)

_UNIT_TOL = 1e-6

# Samples per batched forward pass. A whole subset per pass was no faster
# and raised peak memory by about 38 MB on the default benchmark.
EVAL_CHUNK = 32


@dataclass
class RankingResult:
    """One query's full gallery ordering plus what would count as correct."""

    order: list[int]
    instance_id: str
    target_image_id: str
    gallery_image_ids: list[str]
    gallery_instance_ids: list[str]

    def target_rank(self) -> int:
        """1-based rank of the exact target image."""
        wanted = self.gallery_image_ids.index(self.target_image_id)
        return self.order.index(wanted) + 1


def rank_gallery(f_q: np.ndarray, gallery: np.ndarray) -> list[int]:
    """Indices by descending cosine; ties broken by ascending index."""
    if gallery.size == 0 or gallery.shape[0] == 0:
        raise ContractError("cannot rank an empty gallery")
    q = np.asarray(f_q, dtype=np.float64).reshape(-1)
    if q.shape[0] != gallery.shape[1]:
        raise ContractError(f"query dim {q.shape[0]} vs gallery dim {gallery.shape[1]}")
    for name, arr in (("query", q[None, :]), ("gallery", gallery)):
        # written so that a NaN norm fails too
        if not np.all(np.abs(np.linalg.norm(arr, axis=1) - 1.0) <= _UNIT_TOL):
            raise ContractError(f"{name} embeddings must be unit-normalized and finite")
    sims = gallery @ q
    return np.argsort(-sims, kind="stable").tolist()


def recall_at_k(results: list[RankingResult], k: int) -> float:
    """Fraction of queries whose exact target image appears in the top k."""
    if not results:
        raise ContractError("no ranking results")
    hits = 0
    for r in results:
        if k > len(r.order):
            raise ContractError(f"k={k} exceeds gallery size {len(r.order)}")
        top = [r.gallery_image_ids[i] for i in r.order[:k]]
        hits += r.target_image_id in top
    return hits / len(results)


def instance_recall_at_k(results: list[RankingResult], k: int) -> float:
    """Fraction of queries with any top-k candidate showing the anchored instance."""
    if not results:
        raise ContractError("no ranking results")
    hits = 0
    for r in results:
        if k > len(r.order):
            raise ContractError(f"k={k} exceeds gallery size {len(r.order)}")
        top = [r.gallery_instance_ids[i] for i in r.order[:k]]
        hits += r.instance_id in top
    return hits / len(results)


@dataclass
class SubsetMetrics:
    r_at_1: float
    r_at_5: float
    rid_at_1: float
    n_queries: int

    def validate(self) -> None:
        for name in ("r_at_1", "r_at_5", "rid_at_1"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ContractError(f"{name}={v} outside [0, 1]")
        if self.r_at_1 > self.r_at_5 + 1e-12:
            raise ContractError(f"r_at_1 {self.r_at_1} exceeds r_at_5 {self.r_at_5}")
        if self.r_at_1 > self.rid_at_1 + 1e-12:
            # the target image contains the anchored instance by construction
            raise ContractError(f"r_at_1 {self.r_at_1} exceeds rid_at_1 {self.rid_at_1}")


@dataclass
class MetricsReport:
    per_subset: dict[str, SubsetMetrics]
    macro: SubsetMetrics
    config_hash: str = ""
    seed: int = 0

    def validate(self) -> None:
        for m in self.per_subset.values():
            m.validate()
        self.macro.validate()

    def to_dict(self) -> dict:
        return {
            "per_subset": {
                s: {"r_at_1": m.r_at_1, "r_at_5": m.r_at_5,
                    "rid_at_1": m.rid_at_1, "n_queries": m.n_queries}
                for s, m in sorted(self.per_subset.items())
            },
            "macro": {"r_at_1": self.macro.r_at_1, "r_at_5": self.macro.r_at_5,
                      "rid_at_1": self.macro.rid_at_1, "n_queries": self.macro.n_queries},
            "config_hash": self.config_hash,
            "seed": self.seed,
        }

    def to_text(self) -> str:
        lines = []
        for s, m in sorted(self.per_subset.items()):
            lines.append(
                f"subset {s}: r_at_1 {m.r_at_1:.4f}  r_at_5 {m.r_at_5:.4f}  "
                f"rid_at_1 {m.rid_at_1:.4f}  n {m.n_queries}"
            )
        m = self.macro
        lines.append(
            f"macro: r_at_1 {m.r_at_1:.4f}  r_at_5 {m.r_at_5:.4f}  "
            f"rid_at_1 {m.rid_at_1:.4f}  n {m.n_queries}"
        )
        lines.append(f"config_hash: {self.config_hash}")
        lines.append(f"seed: {self.seed}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_dict(payload: dict) -> "MetricsReport":
        per = {
            s: SubsetMetrics(**m) for s, m in payload["per_subset"].items()
        }
        return MetricsReport(
            per_subset=per, macro=SubsetMetrics(**payload["macro"]),
            config_hash=payload.get("config_hash", ""), seed=payload.get("seed", 0),
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _macro(per_subset: dict[str, SubsetMetrics]) -> SubsetMetrics:
    subsets = sorted(per_subset)
    return SubsetMetrics(
        r_at_1=float(np.mean([per_subset[s].r_at_1 for s in subsets])),
        r_at_5=float(np.mean([per_subset[s].r_at_5 for s in subsets])),
        rid_at_1=float(np.mean([per_subset[s].rid_at_1 for s in subsets])),
        n_queries=sum(per_subset[s].n_queries for s in subsets),
    )


# ---------------------------------------------------------------------------
# resolving benchmark records into model inputs


def query_sample_of(bench: Benchmark, quad: Quadruple, bbox: BBox | None | str = "ref") -> QuerySample:
    """Model input for one quadruple; bbox="ref" uses the planted box, None drops it."""
    resolved = bench.image(quad.ref_image_id).bbox if bbox == "ref" else bbox
    return QuerySample(
        patches=bench.patches(quad.ref_image_id),
        grid=bench.world.configs[quad.subset].grid,
        bbox=resolved,
        text=bench.text(quad.text_context_id),
    )


def train_examples(bench: Benchmark, quads: list[Quadruple]) -> list[TrainExample]:
    return [
        TrainExample(
            query=query_sample_of(bench, q),
            target_patches=bench.patches(q.target_image_id),
        )
        for q in quads
    ]


def gallery_embeddings(params: ModelParams, bench: Benchmark, subset: str) -> np.ndarray:
    """(G, d_embed) matrix in manifest order; beta-independent, so cacheable."""
    ids = bench.galleries[subset].image_ids
    chunks = [
        target_representation([bench.patches(i) for i in ids[at : at + EVAL_CHUNK]], params).data
        for at in range(0, len(ids), EVAL_CHUNK)
    ]
    return np.concatenate(chunks)


def evaluate_model(
    params: ModelParams,
    bench: Benchmark,
    subsets: list[str] | None = None,
    beta_override: float | None = None,
    use_bbox: bool = True,
    roi_crop: bool = False,
    bbox_transform: Callable[[Quadruple, int], BBox | None] | None = None,
    config_hash: str = "",
    seed: int = 0,
    gallery_cache: dict[str, np.ndarray] | None = None,
) -> MetricsReport:
    """MetricsReport over the eval split.

    bbox_transform maps (quadruple, query index) to a replacement box (None
    drops the box for that query); gallery_cache holds per-subset embedding
    matrices for THESE params and is filled on miss.
    """
    chosen = subsets if subsets is not None else bench.subsets
    unknown = [s for s in chosen if s not in bench.galleries]
    if unknown:
        raise ContractError(f"no gallery for subsets {unknown}")
    per_subset: dict[str, SubsetMetrics] = {}
    for subset in chosen:
        quads = bench.eval_quads_of(subset)
        if not quads:
            raise ContractError(f"subset {subset} has no eval quadruples")
        manifest = bench.galleries[subset]
        if gallery_cache is not None and subset in gallery_cache:
            gal = gallery_cache[subset]
        else:
            gal = gallery_embeddings(params, bench, subset)
            if gallery_cache is not None:
                gallery_cache[subset] = gal
        gallery_ids = manifest.image_ids
        gallery_instances = [e.instance_id for e in manifest.entries]
        results = []
        for at in range(0, len(quads), EVAL_CHUNK):
            chunk = quads[at : at + EVAL_CHUNK]
            samples = [
                query_sample_of(
                    bench, quad,
                    bbox=bbox_transform(quad, at + k) if bbox_transform is not None else quad.bbox,
                )
                for k, quad in enumerate(chunk)
            ]
            f_q, _ = query_representation(
                samples, params, beta_override=beta_override,
                use_bbox=use_bbox, roi_crop=roi_crop,
            )
            for quad, row in zip(chunk, f_q.data):
                results.append(RankingResult(
                    order=rank_gallery(row, gal), instance_id=quad.instance_id,
                    target_image_id=quad.target_image_id,
                    gallery_image_ids=gallery_ids, gallery_instance_ids=gallery_instances,
                ))
        per_subset[subset] = SubsetMetrics(
            r_at_1=recall_at_k(results, 1),
            r_at_5=recall_at_k(results, 5),
            rid_at_1=instance_recall_at_k(results, 1),
            n_queries=len(results),
        )
    report = MetricsReport(
        per_subset=per_subset, macro=_macro(per_subset),
        config_hash=config_hash, seed=seed,
    )
    report.validate()
    return report
