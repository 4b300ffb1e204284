"""Outside-in tracer for the focalcir benchmark.

The tracer wraps public library functions at the module where each caller
looks them up, so ``focalcir.model.multimodal_encode`` (the query branch) and
``focalcir.caam.multimodal_encode`` (the probe pass) are separate layers even
though they are the same function. Nothing under ``src/`` changes: wrapping
is a ``setattr`` on the owning module or class, undone on exit.

Every call through a span site records a span (name, start, end, parent,
self time) tagged with the tracer's run id; count sites only count calls.
Spans stay in memory until the run ends. A span's self time is its duration
minus the time its children cover; calls are synchronous and single-threaded,
so children never overlap and that is a plain subtraction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    run_id: str
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 marks a root
    self_s: float


class SiteError(RuntimeError):
    """A call site no longer resolves, so its layer would silently vanish."""


def _count_tape_entries(tracer: "Tracer", args, kwargs) -> None:
    tape = args[1] if len(args) > 1 else kwargs["tape"]
    tracer.counts[(tracer.phase, "numerics.tape_entries")] += len(tape)


def _count_gallery_lookups(tracer: "Tracer", args, kwargs) -> None:
    # evaluate_model looks one gallery up per evaluated subset
    from focalcir.evaluation import evaluate_model

    bound = inspect.signature(evaluate_model).bind(*args, **kwargs).arguments
    subsets = bound.get("subsets") or bound["bench"].subsets
    tracer.counts[(tracer.phase, "evaluation.gallery_lookups")] += len(subsets)


# (layer, owner, attribute, kind, hook). The owner is a module, or
# "module:Class" for a method. "span" sites record a span per call, "count"
# sites only count calls. A hook runs after a call returns.
SITES: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("numerics.backward", "focalcir.model", "backward", "span", _count_tape_entries),
    ("numerics.adam_step", "focalcir.model", "adam_step", "span", None),
    ("numerics.tensor", "focalcir.numerics.tensor:Tensor", "__init__", "count", None),
    ("fusion.encode_target", "focalcir.model", "encode_target", "span", None),
    ("fusion.query_encode", "focalcir.model", "multimodal_encode", "span", None),
    ("fusion.region_mask_from_bbox", "focalcir.model", "region_mask_from_bbox", "span", None),
    ("fusion.probe_encode", "focalcir.caam", "multimodal_encode", "span", None),
    ("caam.predict_beta", "focalcir.model", "predict_beta", "span", None),
    ("caam.crm_forward", "focalcir.caam", "crm_forward", "span", None),
    ("model.train", "focalcir.model", "train", "span", None),
    ("model.query_representation", "focalcir.model", "query_representation", "span", None),
    ("model.query_representation", "focalcir.evaluation", "query_representation", "span", None),
    ("model.target_representation", "focalcir.model", "target_representation", "span", None),
    ("model.target_representation", "focalcir.evaluation", "target_representation", "span", None),
    ("model.contrastive_loss", "focalcir.model", "contrastive_loss", "span", None),
    ("evaluation.evaluate_model", "focalcir.evaluation", "evaluate_model", "span",
     _count_gallery_lookups),
    ("evaluation.evaluate_model", "focalcir.harness", "evaluate_model", "span",
     _count_gallery_lookups),
    ("evaluation.rank_gallery", "focalcir.evaluation", "rank_gallery", "span", None),
    ("evaluation.gallery_embeddings", "focalcir.evaluation", "gallery_embeddings", "span", None),
    ("harness.beta_sweep", "focalcir.harness", "beta_sweep", "span", None),
    ("encoders.patches", "focalcir.benchgen.pipeline:Benchmark", "patches", "count", None),
    ("encoders.encode_image", "focalcir.benchgen.pipeline", "encode_image", "count", None),
    ("benchgen.build_benchmark", "focalcir.benchgen.pipeline", "build_benchmark", "span", None),
    ("benchgen.generate_world", "focalcir.benchgen.pipeline", "generate_world", "span", None),
    ("benchgen.filter_pairs", "focalcir.benchgen.pipeline", "filter_pairs", "span", None),
    ("benchgen.make_quadruples", "focalcir.benchgen.pipeline", "make_quadruples", "span", None),
    ("benchgen.build_gallery", "focalcir.benchgen.pipeline", "build_gallery", "span", None),
    ("benchgen.save_benchmark", "focalcir.benchgen.pipeline", "save_benchmark", "span", None),
    ("benchgen.load_benchmark", "focalcir.benchgen.pipeline", "load_benchmark", "span", None),
)

# Layers whose self time is reported per operation, and per set-up.
OP_SELF_TIMES = (
    "numerics.backward",
    "numerics.adam_step",
    "fusion.encode_target",
    "fusion.query_encode",
    "fusion.region_mask_from_bbox",
    "fusion.probe_encode",
    "caam.predict_beta",
    "caam.crm_forward",
    "model.query_representation",
    "model.target_representation",
    "model.contrastive_loss",
    "evaluation.rank_gallery",
    "evaluation.gallery_embeddings",
)
SETUP_SELF_TIMES = (
    "benchgen.generate_world",
    "benchgen.filter_pairs",
    "benchgen.make_quadruples",
    "benchgen.build_gallery",
    "benchgen.save_benchmark",
    "benchgen.load_benchmark",
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    """Spans and counters for one benchmark run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.phase = ""  # name of the open root span: "setup" or "op"
        self._stack: list[list] = []  # [span index, start, time covered by children]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self) -> None:
        self._stack.append([len(self.spans), time.perf_counter(), 0.0])
        self.spans.append(None)

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        index, start, covered = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += end - start
        self.spans[index] = Span(
            self.run_id, name, start, end, -1 if parent is None else parent[0],
            end - start - covered,
        )

    @contextmanager
    def root(self, phase: str):
        """A root span around one set-up or one operation."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        self.phase = phase
        self._open()
        try:
            yield
        finally:
            self._close(phase)
            self.phase = ""

    def _span_wrapper(self, layer: str, original, hook):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self._open()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(layer)
            if hook is not None:
                hook(self, args, kwargs)
            return result

        return wrapper

    def _count_wrapper(self, layer: str, original):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[(self.phase, layer)] += 1
            return original(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every site; raise SiteError, wrapping nothing, if one is missing."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        resolved = []
        for layer, owner_name, attr, kind, hook in SITES:
            try:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                raise SiteError(f"layer {layer}: {owner_name}.{attr} does not resolve ({exc})") from exc
            if not callable(original):
                raise SiteError(f"layer {layer}: {owner_name}.{attr} is not callable")
            if kind == "span":
                wrapper = self._span_wrapper(layer, original, hook)
            else:
                wrapper = self._count_wrapper(layer, original)
            resolved.append((owner, attr, original, wrapper))
        for owner, attr, original, wrapper in resolved:
            setattr(owner, attr, wrapper)
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading ---------------------------------------------------------------

    def _phases(self) -> list[str]:
        """Root phase of every span; a parent is always opened before its child."""
        phases: list[str] = []
        for span in self.spans:
            phases.append(span.name if span.parent < 0 else phases[span.parent])
        return phases

    def calls(self, phase: str) -> Counter:
        """Calls per layer inside root spans of one phase (span and count sites)."""
        out = Counter(
            span.name for span, p in zip(self.spans, self._phases())
            if p == phase and span.parent >= 0
        )
        for (p, layer), n in self.counts.items():
            if p == phase:
                out[layer] += n
        return out

    def require_calls(self, phase: str, layers: tuple[str, ...]) -> None:
        """Raise SiteError if a layer expected to run in this phase never did."""
        seen = self.calls(phase)
        missing = [layer for layer in layers if seen[layer] == 0]
        if missing:
            raise SiteError(f"no calls recorded in phase {phase!r} for layers {missing}")

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged per operation (or per set-up for benchgen).

        ``items`` is the number of examples or query encodes the traced
        operations processed in total. A layer that does not run reports 0.
        """
        phases = self._phases()
        n_roots = Counter(s.name for s in self.spans if s.parent < 0)
        n_ops, n_setups = max(n_roots["op"], 1), max(n_roots["setup"], 1)
        self_s: dict[tuple[str, str], float] = defaultdict(float)
        query_ms: list[float] = []
        step_marks: dict[int, list[Span]] = defaultdict(list)
        roots: list[int] = []
        for i, (span, phase) in enumerate(zip(self.spans, phases)):
            self_s[(phase, span.name)] += span.self_s
            roots.append(i if span.parent < 0 else roots[span.parent])
            if phase != "op":
                continue
            if span.name == "model.query_representation":
                query_ms.append(1e3 * (span.end - span.start))
            elif span.name in ("numerics.backward", "numerics.adam_step"):
                step_marks[roots[i]].append(span)
        calls_op, calls_setup = self.calls("op"), self.calls("setup")

        out: dict[str, tuple[float, str]] = {}
        for layer in OP_SELF_TIMES:
            out[f"{layer}.self_s"] = (self_s[("op", layer)] / n_ops, "s")
        for layer in SETUP_SELF_TIMES:
            out[f"{layer}.self_s"] = (self_s[("setup", layer)] / n_setups, "s")
        per_item = max(items, 1)
        out["numerics.tape_entries_per_example"] = (
            calls_op["numerics.tape_entries"] / per_item, "count")
        out["numerics.tensors_per_example"] = (calls_op["numerics.tensor"] / per_item, "count")
        out["caam.predict_beta.calls"] = (calls_op["caam.predict_beta"] / n_ops, "count")
        out["benchgen.filter_pairs.calls"] = (
            calls_setup["benchgen.filter_pairs"] / n_setups, "count")
        out["model.query_representation.ms_p50"] = (_percentile(query_ms, 50), "ms")
        out["model.query_representation.ms_p99"] = (_percentile(query_ms, 99), "ms")
        step_ms = _train_step_intervals_ms(step_marks)
        out["model.train_step.ms_p50"] = (_percentile(step_ms, 50), "ms")
        out["model.train_step.ms_p90"] = (_percentile(step_ms, 90), "ms")
        lookups = calls_op["evaluation.gallery_lookups"]
        misses = calls_op["evaluation.gallery_embeddings"]
        out["evaluation.gallery_cache.hit_ratio"] = (
            1.0 - misses / lookups if lookups else 0.0, "ratio")
        # one set-up plus one operation: what a single CLI run pays
        patch_calls = calls_setup["encoders.patches"] / n_setups + calls_op["encoders.patches"] / n_ops
        patch_misses = (calls_setup["encoders.encode_image"] / n_setups
                        + calls_op["encoders.encode_image"] / n_ops)
        out["encoders.patch_cache.hit_ratio"] = (
            1.0 - patch_misses / patch_calls if patch_calls else 0.0, "ratio")
        return out


def _train_step_intervals_ms(marks: dict[int, list[Span]]) -> list[float]:
    """Intervals between successive training-step ends within each operation.

    A step records backward, then the CAAM group's adam_step (adaptive runs
    only), then the encoder group's; so the encoder step is the last
    adam_step before the next backward, or before the operation ends.
    """
    intervals: list[float] = []
    for spans in marks.values():
        ends: list[float] = []
        last_adam = None
        for span in spans:
            if span.name == "numerics.backward" and last_adam is not None:
                ends.append(last_adam.end)
                last_adam = None
            elif span.name == "numerics.adam_step":
                last_adam = span
        if last_adam is not None:
            ends.append(last_adam.end)
        intervals += [1e3 * (b - a) for a, b in zip(ends, ends[1:])]
    return intervals
