"""Ranking, recall metrics, and whole-benchmark model evaluation.

rank_gallery orders candidates by descending cosine with a deterministic
tie-break (ascending gallery index). R@K asks whether the exact target image
landed in the top K; R_ID@K asks whether any top-K candidate shows the
anchored instance. Evaluation encodes the gallery and the queries in
batches of EVAL_CHUNK samples and shares one immutable gallery embedding
matrix per subset. Each chunk of queries is ranked with one (B, d) @ (d, G)
product, and the ranks of its targets and same-instance candidates are
counted from those similarities, not sorted: R@K and R_ID@K are the shares
of ranks <= K. Every query is anchored on its own quadruple's box, so an
evaluation setting is (beta_override, use_bbox, roi_crop) plus a benchmark
view: perturbed boxes or a filtered query list are a dataclasses.replace of
the Benchmark, not a callback. use_bbox=False evaluates each query with its
box dropped, and roi_crop each query's `cropped` view. RankingResult and the
recall functions read the same metrics off a full gallery order; the metric
oracle uses them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from focalcir.benchgen.pipeline import Benchmark
from focalcir.benchgen.quadruples import Quadruple
from focalcir.errors import ContractError
from focalcir.fusion import shared_merged_weights
from focalcir.model import (
    ModelParams,
    QuerySample,
    TrainExample,
    cropped,
    query_representation,
    target_representation,
)
from focalcir.records import check_ranges

_UNIT_TOL = 1e-6

# Samples per batched forward pass. On a 2-core host the beta sweep ran 9%
# faster at 64 than at 32 and 12% at 128, no faster at 256, and eval slowed
# at 256. A fresh process page-faults each chunk's freed buffers back in
# unless glibc keeps them, which cli.main asks it to.
EVAL_CHUNK = 128


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


def rank_gallery(f_q: np.ndarray, gallery: np.ndarray, positives: np.ndarray | None = None):
    """Ranks the gallery by descending cosine, ties broken by ascending index.

    f_q is one query (d,) or a batch (B, d); one (B, d) @ (d, G) product gives
    every similarity. positives is a (B, G) boolean array marking each query's
    correct candidates, or a (P, B, G) stack of such arrays; the result is the
    (B,) or (P, B) 1-based rank of each query's best-ranked positive. Ranks are
    counted, not sorted: candidate j with similarity s ranks
    #{sims > s} + #{sims == s and index < j} + 1. Without positives, a single
    query gets its full order as a list of gallery indices, read off the
    counted rank of every candidate (O(G^2) work, for small galleries).
    """
    if gallery.size == 0 or gallery.shape[0] == 0:
        raise ContractError("cannot rank an empty gallery")
    q = np.atleast_2d(np.asarray(f_q, dtype=np.float64))
    if q.shape[1] != gallery.shape[1]:
        raise ContractError(f"query dim {q.shape[1]} vs gallery dim {gallery.shape[1]}")
    for name, arr in (("query", q), ("gallery", gallery)):
        # written so that a NaN norm fails too
        if not np.all(np.abs(np.linalg.norm(arr, axis=1) - 1.0) <= _UNIT_TOL):
            raise ContractError(f"{name} embeddings must be unit-normalized and finite")
    sims = q @ gallery.T
    n = gallery.shape[0]
    full_order = positives is None
    if full_order:
        if q.shape[0] != 1:
            raise ContractError(f"a full order needs one query, got {q.shape[0]}")
        positives = np.eye(n, dtype=bool)  # row j: candidate j alone
    elif positives.shape[-2:] != sims.shape:
        raise ContractError(f"positives of shape {positives.shape} for {sims.shape} similarities")
    if not np.all(positives.any(axis=-1)):
        raise ContractError("every query needs at least one positive candidate")
    best = np.where(positives, sims, -np.inf).max(axis=-1, keepdims=True)
    first = np.argmax(positives & (sims == best), axis=-1)[..., None]
    ranks = (sims > best).sum(axis=-1) + ((sims == best) & (np.arange(n) < first)).sum(axis=-1) + 1
    if not full_order:
        return ranks
    order = np.empty(n, dtype=np.intp)
    order[ranks - 1] = np.arange(n)
    return order.tolist()


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
    r_at_1: float = field(metadata={"ge": 0.0, "le": 1.0})
    r_at_5: float = field(metadata={"ge": 0.0, "le": 1.0})
    rid_at_1: float = field(metadata={"ge": 0.0, "le": 1.0})
    n_queries: int

    def validate(self) -> None:
        check_ranges(self, ContractError)
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
        return asdict(self)

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


def query_sample_of(bench: Benchmark, quad: Quadruple) -> QuerySample:
    """Model input for one quadruple, anchored on the quadruple's own box."""
    return QuerySample(
        patches=bench.patches(quad.ref_image_id),
        grid=bench.world.configs[quad.subset].grid,
        bbox=quad.bbox,
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
    config_hash: str = "",
    seed: int = 0,
    gallery_cache: dict[str, np.ndarray] | None = None,
) -> MetricsReport:
    """MetricsReport over the eval split.

    gallery_cache holds per-subset embedding matrices for THESE params and is
    filled on miss.
    """
    chosen = subsets if subsets is not None else bench.subsets
    unknown = [s for s in chosen if s not in bench.galleries]
    if unknown:
        raise ContractError(f"no gallery for subsets {unknown}")
    per_subset: dict[str, SubsetMetrics] = {}
    # one parameter state for the whole call: every chunk shares each
    # attention's merged weights
    with shared_merged_weights():
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
            n_gallery = gal.shape[0]
            if n_gallery < 5:
                raise ContractError(
                    f"R@5 needs 5 gallery images, subset {subset} has {n_gallery}")
            index = {image_id: j for j, image_id in enumerate(manifest.image_ids)}
            missing = [q.target_image_id for q in quads if q.target_image_id not in index]
            if missing:
                raise ContractError(f"targets {missing[:3]} are not in the {subset} gallery")
            targets = np.array([index[q.target_image_id] for q in quads])
            # instance ids as small ints: comparing Q x G strings cost 3 ms a subset
            code: dict[str, int] = {}
            instances = np.array([code.setdefault(e.instance_id, len(code))
                                  for e in manifest.entries])
            wanted = np.array([code.get(q.instance_id, -1) for q in quads])
            # (2, Q, G): the exact target, then every candidate showing the instance
            positives = np.stack([
                targets[:, None] == np.arange(n_gallery),
                wanted[:, None] == instances,
            ])
            ranks = []
            for at in range(0, len(quads), EVAL_CHUNK):
                samples = [query_sample_of(bench, quad) for quad in quads[at : at + EVAL_CHUNK]]
                if not use_bbox:
                    samples = [replace(s, bbox=None) for s in samples]
                elif roi_crop:
                    samples = [cropped(s) for s in samples]
                f_q, _ = query_representation(samples, params, beta_override=beta_override)
                ranks.append(rank_gallery(f_q.data, gal, positives[:, at : at + EVAL_CHUNK]))
            target_ranks, instance_ranks = np.concatenate(ranks, axis=1)
            per_subset[subset] = SubsetMetrics(
                r_at_1=float(np.mean(target_ranks <= 1)),
                r_at_5=float(np.mean(target_ranks <= 5)),
                rid_at_1=float(np.mean(instance_ranks <= 1)),
                n_queries=len(quads),
            )
    report = MetricsReport(
        per_subset=per_subset, macro=_macro(per_subset),
        config_hash=config_hash, seed=seed,
    )
    report.validate()
    return report
