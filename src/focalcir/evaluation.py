"""Ranking, recall metrics, and whole-benchmark model evaluation.

rank_gallery orders candidates by descending cosine with a deterministic
tie-break (ascending gallery index). R@K asks whether the exact target image
landed in the top K; R_ID@K asks whether any top-K candidate shows the
anchored instance. Evaluation returns outcomes first: evaluate_queries gives
each eval query its target rank, same-instance rank and applied modulation,
and evaluate_model reduces them to the report, R@K and R_ID@K being the
shares of ranks <= K. Queries and gallery are encoded in batches of
EVAL_CHUNK samples against one immutable gallery matrix per subset; each
query chunk is ranked with one (B, d) @ (d, G) product, its ranks counted
from those similarities, not sorted. Every query is anchored on its own
quadruple's box, so an evaluation setting is (beta_override, roi_crop) plus
a benchmark view: perturbed boxes or a filtered query list are a
dataclasses.replace of the Benchmark, not a callback. roi_crop evaluates
each query's `cropped` view.
A box-less query is encoded exactly as a beta_override=0 query (neither
builds a region bias), so the box-less setting is beta_override=0.0.
RankingResult and the recall functions read the same metrics off a full
gallery order; the metric oracle uses them.

What does not depend on the setting is kept (`fusion.kept`) in the
`one_parameter_state` scope that evaluate_queries opens or joins: each
subset's gallery embeddings, owned by (params, its manifest), and one dict,
owned by the view, of each subset's (2, Q, G) positives and per-chunk
`QueryBatch` (stacked patches and key mask, their transposed copy, the text
stack, the region-mask rows), keyed by (subset, roi_crop, EVAL_CHUNK) and
filled as a first call reaches each chunk. Later calls in one open scope,
such as the beta sweep's rows, read them back; another view replaces the
dict whole, so one view's inputs (about 35 MB per roi_crop value on the
default world) are kept at a time, and a view with another manifest encodes
its own gallery. A view replaces quadruples or galleries, never the world
or encoders. A lone call frees everything when it returns. Gallery chunks
are encoded from their images' latent grids with one projection each, so
the gallery's patches (29 MB there) are not kept.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from focalcir.benchgen.pipeline import Benchmark
from focalcir.benchgen.quadruples import Quadruple
from focalcir.encoders import encode_images
from focalcir.errors import ContractError
from focalcir.fusion import kept, one_parameter_state
from focalcir.model import (
    ModelParams,
    QuerySample,
    TrainExample,
    assemble_queries,
    cropped,
    query_representation,
    subset_list_rule,
    target_representation,
)
from focalcir.records import from_record

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
    #{sims > s} + #{sims == s and index < j} + 1, the tie term counted only
    on rows where a candidate ties the best positive. Without positives, a single
    query gets its full order as a list of gallery indices: a stable sort on
    the negated similarities, which keeps tied candidates in index order.
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
    if positives is None:
        if q.shape[0] != 1:
            raise ContractError(f"a full order needs one query, got {q.shape[0]}")
        return np.argsort(-sims[0], kind="stable").tolist()
    if positives.shape[-2:] != sims.shape:
        raise ContractError(f"positives of shape {positives.shape} for {sims.shape} similarities")
    if not np.all(positives.any(axis=-1)):
        raise ContractError("every query needs at least one positive candidate")
    sims = np.broadcast_to(sims, positives.shape)
    best = np.max(sims, axis=-1, where=positives, initial=-np.inf, keepdims=True)
    ranks = np.count_nonzero(sims > best, axis=-1) + 1
    ties = sims == best
    if np.count_nonzero(ties) > best.size:  # a candidate ties a best positive exactly
        tied = np.count_nonzero(ties, axis=-1) > 1
        ties = ties[tied]
        first = np.argmax(positives[tied] & ties, axis=-1)[:, None]
        ranks[tied] += np.count_nonzero(ties & (np.arange(sims.shape[-1]) < first), axis=-1)
    return ranks


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

    def rules(self) -> str | None:
        if self.r_at_1 > self.r_at_5 + 1e-12:
            return f"r_at_1 {self.r_at_1} exceeds r_at_5 {self.r_at_5}"
        if self.r_at_1 > self.rid_at_1 + 1e-12:
            # the target image contains the anchored instance by construction
            return f"r_at_1 {self.r_at_1} exceeds rid_at_1 {self.rid_at_1}"


@dataclass
class MetricsReport:
    per_subset: dict[str, SubsetMetrics]
    macro: SubsetMetrics
    config_hash: str = ""
    seed: int = 0

    def validate(self) -> None:
        from_record(MetricsReport, asdict(self), ContractError)

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
    """(G, d_embed) matrix in manifest order; beta-independent, so cacheable.
    Each chunk is encoded from its images' stacked latent grids, so the
    gallery's patches are not kept on the benchmark."""
    ids = bench.galleries[subset].image_ids
    chunks = [
        target_representation(
            encode_images([bench.image(i) for i in ids[at : at + EVAL_CHUNK]], bench.encoders),
            params,
        ).data
        for at in range(0, len(ids), EVAL_CHUNK)
    ]
    return np.concatenate(chunks)


def _subset_inputs(bench: Benchmark, subset: str) -> tuple[list[Quadruple], np.ndarray]:
    """One subset's eval quadruples and their (2, Q, G) positives: the exact
    target, then every candidate showing the instance."""
    quads = bench.eval_quads_of(subset)
    if not quads:
        raise ContractError(f"subset {subset} has no eval quadruples")
    manifest = bench.galleries[subset]
    index = {image_id: j for j, image_id in enumerate(manifest.image_ids)}
    missing = [q.target_image_id for q in quads if q.target_image_id not in index]
    if missing:
        raise ContractError(f"targets {missing[:3]} are not in the {subset} gallery")
    targets = np.array([index[q.target_image_id] for q in quads])
    # instance ids as small ints: comparing Q x G strings cost 3 ms a subset
    code: dict[str, int] = {}
    instances = np.array([code.setdefault(e.instance_id, len(code)) for e in manifest.entries])
    wanted = np.array([code.get(q.instance_id, -1) for q in quads])
    return quads, np.stack([
        targets[:, None] == np.arange(len(manifest.entries)),
        wanted[:, None] == instances,
    ])


@dataclass
class QueryOutcomes:
    """One subset's eval queries, in `bench.eval_quads_of(subset)` order."""

    target_ranks: np.ndarray  # (Q,) 1-based rank of the exact target image
    instance_ranks: np.ndarray  # (Q,) 1-based rank of the best same-instance candidate
    applied: np.ndarray  # (Q, 1, k) modulation each query was encoded with


def evaluate_queries(
    params: ModelParams,
    bench: Benchmark,
    subsets: list[str] | None = None,
    beta_override: float | None = None,
    roi_crop: bool = False,
) -> dict[str, QueryOutcomes]:
    """Each eval query's outcomes, per subset, in a `one_parameter_state`
    scope that joins the caller's, so a later call in it reuses what is kept."""
    chosen = subsets if subsets is not None else bench.subsets
    if broken := subset_list_rule("subsets", tuple(chosen)):
        raise ContractError(broken)
    if unknown := [s for s in chosen if s not in bench.galleries]:
        raise ContractError(f"no gallery for subsets {unknown}")
    outcomes: dict[str, QueryOutcomes] = {}
    with one_parameter_state():
        # another view replaces this dict whole, so one view's inputs are kept
        view = kept("eval view", (bench,), dict)
        for subset in chosen:
            gal = kept(("gallery", subset), (params, bench.galleries[subset]),
                       lambda: gallery_embeddings(params, bench, subset))
            if gal.shape[0] < 5:
                raise ContractError(
                    f"R@5 needs 5 gallery images, subset {subset} has {gal.shape[0]}")
            key = (subset, roi_crop, EVAL_CHUNK)  # a changed chunk size re-chunks
            if key not in view:
                view[key] = (*_subset_inputs(bench, subset), [])
            quads, positives, chunks = view[key]
            ranks, applied = [], []
            for i, at in enumerate(range(0, len(quads), EVAL_CHUNK)):
                if i == len(chunks):
                    samples = [query_sample_of(bench, q) for q in quads[at : at + EVAL_CHUNK]]
                    chunks.append(assemble_queries(
                        [cropped(s) for s in samples] if roi_crop else samples))
                f_q, given = query_representation(chunks[i], params, beta_override=beta_override)
                ranks.append(rank_gallery(f_q.data, gal, positives[:, at : at + EVAL_CHUNK]))
                applied.append(given)
            outcomes[subset] = QueryOutcomes(*np.hstack(ranks), np.concatenate(applied))
    return outcomes


def evaluate_model(
    params: ModelParams,
    bench: Benchmark,
    subsets: list[str] | None = None,
    beta_override: float | None = None,
    roi_crop: bool = False,
    config_hash: str = "",
    seed: int = 0,
) -> MetricsReport:
    """MetricsReport of `evaluate_queries`' outcomes: each subset's recalls
    are the shares of its ranks <= K, and the macro is their mean."""
    outcomes = evaluate_queries(params, bench, subsets, beta_override, roi_crop)
    per_subset = {s: SubsetMetrics(r_at_1=float(np.mean(o.target_ranks <= 1)),
                                   r_at_5=float(np.mean(o.target_ranks <= 5)),
                                   rid_at_1=float(np.mean(o.instance_ranks <= 1)),
                                   n_queries=len(o.target_ranks))
                  for s, o in outcomes.items()}
    report = MetricsReport(per_subset=per_subset, macro=_macro(per_subset),
                           config_hash=config_hash, seed=seed)
    report.validate()
    return report
