"""Set-up and the three workloads of the focalcir benchmark.

Set-up takes the path the CLI takes: ``build_benchmark``, ``save_benchmark``
to a directory, ``load_benchmark`` back, then the training examples and the
model. Each workload operation is one call of a public library function:

* ``train``: one epoch of ``train`` on the adaptive default config. It is the
  only workload that records a tape and runs backward and AdamW.
* ``eval``: one cold-cache ``evaluate_model`` with a live modulation head,
  forward-only. Gallery encoding and the CAAM probe pass dominate it.
* ``sweep``: ``beta_sweep`` over the default grid plus the adaptive row,
  sharing one gallery cache. Query fusion and ranking dominate it, and CAAM
  is bypassed on the fixed rows, so gallery or CAAM gains show on ``eval``
  and barely here, while ranking or query-path gains show here.

Library functions are looked up through their modules at call time
(``model.train``, not a name imported from it), so the tracer's wrappers on
those module attributes also see the benchmark's own calls.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import AbstractContextManager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from focalcir import caam, evaluation, harness, model
from focalcir.benchgen import pipeline
from focalcir.config import RunConfig

MODEL_SEED = 0  # fixed, so only the workload seed moves the inputs


class CheckError(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class SetUp:
    config: RunConfig
    bench_dir: Path  # the saved benchmark, reloaded cold for each eval or sweep
    bench: pipeline.Benchmark
    examples: list[model.TrainExample]
    params: model.ModelParams  # live modulation head: predicted betas are non-zero


def set_up(config: RunConfig, bench_dir: Path) -> SetUp:
    """Build, save and reload the benchmark; build the examples and the model."""
    built = pipeline.build_benchmark(
        configs=list(config.world), seed=config.seed,
        d_model=config.model.d_model, l_text=config.model.l_text,
        train_cap=config.bench.train_cap, eval_cap=config.bench.eval_cap,
        n_distractors=config.bench.n_distractors, thresholds=config.thresholds,
    )
    pipeline.save_benchmark(bench_dir, built, config_hash=config.digest())
    bench = pipeline.load_benchmark(bench_dir)
    examples = evaluation.train_examples(bench, bench.train_quads)
    params = model.ModelParams(config.model, bench.encoders, seed=MODEL_SEED,
                               zero_modulation_head=False)
    return SetUp(config, bench_dir, bench, examples, params)


@dataclass
class Outcome:
    """What one operation produced, as the benchmark reports and checks it."""

    items: int  # examples trained, or query encodes
    named: dict[str, tuple[float, str]]  # quality figures by their own names
    fingerprint: object  # equal on every operation of a run


Timer = Callable[[], AbstractContextManager]


def _check_report(report: evaluation.MetricsReport, label: str) -> None:
    report.validate()
    for subset, m in [*report.per_subset.items(), ("macro", report.macro)]:
        _require(m.r_at_1 <= m.rid_at_1, f"{label} {subset}: R@1 {m.r_at_1} > R_ID@1 {m.rid_at_1}")


def train_op(s: SetUp, timed: Timer) -> Outcome:
    params = model.ModelParams(s.config.model, s.bench.encoders, seed=MODEL_SEED)
    cfg = dataclasses.replace(s.config.train, epochs=1)
    with timed():
        result = model.train(params, s.examples, cfg)
    losses, betas = result.epoch_losses, result.epoch_mean_betas
    _require(all(map(math.isfinite, losses)), f"non-finite training loss {losses}")
    # the mean of the applied betas is finite only if every one is
    _require(all(map(math.isfinite, betas)), f"non-finite predicted beta {betas}")
    final = losses[-1]
    return Outcome(
        items=len(s.examples),
        named={"train.final_loss": (final, "nats")},
        fingerprint=(losses, betas, result.steps),
    )


def eval_op(s: SetUp, timed: Timer) -> Outcome:
    bench = pipeline.load_benchmark(s.bench_dir)  # cold patch and text caches
    with timed():
        report = evaluation.evaluate_model(s.params, bench)
    _check_report(report, "eval")
    m = report.macro
    return Outcome(
        items=m.n_queries,
        named={"eval.r_at_1": (m.r_at_1, "ratio"), "eval.rid_at_1": (m.rid_at_1, "ratio")},
        fingerprint=report.to_dict(),
    )


def sweep_op(s: SetUp, timed: Timer) -> Outcome:
    bench = pipeline.load_benchmark(s.bench_dir)
    with timed():
        table = harness.beta_sweep(s.params, bench, units=tuple(s.config.eval.betas))
    for row in table.rows:
        _check_report(row.metrics, f"sweep row {row.label}")
    rid = float(np.mean([row.metrics.macro.rid_at_1 for row in table.rows]))
    return Outcome(
        items=sum(row.metrics.macro.n_queries for row in table.rows),
        named={"sweep.rid_at_1": (rid, "ratio")},
        fingerprint=table.to_text(),
    )


def probe_betas(s: SetUp) -> None:
    """Predicted betas of the live head are finite on every eval query.

    evaluate_model does not return the betas it applied, so they are
    predicted once more here, outside the timed region."""
    for quad in s.bench.eval_quads:
        sample = evaluation.query_sample_of(s.bench, quad)
        beta = caam.predict_beta(sample.patches, sample.text, s.params.fusion, s.params.caam)
        _require(bool(np.all(np.isfinite(beta.data))),
                 f"non-finite predicted beta for query {quad.ref_image_id}")


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable[[SetUp, Timer], Outcome]
    rate_name: str  # the throughput by its own name
    probe: Callable[[SetUp], None] | None
    layers: tuple[str, ...]  # layers a traced operation must reach


_FORWARD = (
    "numerics.tensor",
    "fusion.encode_target",
    "fusion.query_encode",
    "fusion.region_mask_from_bbox",
    "fusion.probe_encode",
    "caam.predict_beta",
    "caam.crm_forward",
    "model.query_representation",
    "model.target_representation",
)
_EVAL = _FORWARD + (
    "evaluation.evaluate_model",
    "evaluation.rank_gallery",
    "evaluation.gallery_embeddings",
    "encoders.patches",
    "encoders.encode_image",
)
SETUP_LAYERS = (
    "benchgen.build_benchmark",
    "benchgen.generate_world",
    "benchgen.filter_pairs",
    "benchgen.make_quadruples",
    "benchgen.build_gallery",
    "benchgen.save_benchmark",
    "benchgen.load_benchmark",
    "encoders.patches",
    "encoders.encode_image",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", train_op, "train.examples_per_s", None,
                 _FORWARD + ("model.train", "model.contrastive_loss",
                             "numerics.backward", "numerics.adam_step")),
        Workload("eval", eval_op, "eval.queries_per_s", probe_betas, _EVAL),
        Workload("sweep", sweep_op, "sweep.queries_per_s", probe_betas,
                 _EVAL + ("harness.beta_sweep",)),
    )
}
