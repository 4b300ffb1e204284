"""One benchmark run: set up several times, then operate until time is up.

The load is a closed loop with one caller: the next operation starts only
after the previous one returned. An untraced run times set-up and every
operation with tracing off. A traced run alternates an untraced and a
traced operation on the same inputs, so it can report the tracing overhead
and check that tracing leaves the outputs unchanged.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from focalcir.config import RunConfig
from focalcir.errors import FocalCirError

from tracer import SiteError, Tracer
from workloads import SETUP_LAYERS, CheckError, Outcome, SetUp, Workload, set_up

SETUP_REPEATS = 3


@dataclass
class Tally:
    """Operations attempted and failed; a failure is reported, not raised."""

    attempted: int = 0
    failed: int = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except (FocalCirError, CheckError, SiteError) as exc:
            self.failed += 1
            print(f"perfbench: operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


@dataclass
class RunResult:
    workload: str
    tally: Tally
    ops: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and bool(self.metrics)


def timer(times: list[float], tracer: Tracer | None = None, phase: str = "op"):
    """A context-manager factory that appends each timed interval to ``times``."""

    @contextmanager
    def timed():
        if tracer is None:
            start = time.perf_counter()
            yield
            times.append(time.perf_counter() - start)
            return
        with tracer.installed():
            start = time.perf_counter()
            with tracer.root(phase):
                yield
            times.append(time.perf_counter() - start)

    return timed


def _same_outputs(outcomes: list[Outcome]) -> None:
    first = outcomes[0].fingerprint
    for i, o in enumerate(outcomes[1:], 2):
        if o.fingerprint != first:
            raise CheckError(f"operation {i} computed other outputs than operation 1")


def _set_up_all(config: RunConfig, work_dir: Path, tally: Tally, tracer: Tracer | None):
    times: list[float] = []
    timed = timer(times, tracer, "setup")
    state = None

    def one() -> SetUp:
        with timed():
            return set_up(config, work_dir)

    for _ in range(SETUP_REPEATS):
        state = tally.attempt(one) or state
    return state, times


def run(workload: Workload, config: RunConfig, seconds: float, trace: bool,
        work_dir: Path) -> RunResult:
    """Measure one workload for about ``seconds`` after set-up (at least one operation)."""
    tally = Tally()
    tracer = Tracer(uuid.uuid4().hex) if trace else None
    state, setup_times = _set_up_all(config, work_dir, tally, tracer)
    result = RunResult(workload.name, tally, ops=0, tracer=tracer)
    if state is None:
        return result

    plain_times: list[float] = []
    traced_times: list[float] = []
    outcomes: list[Outcome] = []
    modes = [(plain_times, None)] + ([(traced_times, tracer)] if tracer else [])
    start = time.perf_counter()
    while True:
        for times, tr in modes:
            outcome = tally.attempt(workload.op, state, timer(times, tr))
            if outcome is not None:
                outcomes.append(outcome)
        result.ops += 1
        elapsed = time.perf_counter() - start
        if elapsed * (result.ops + 1) / result.ops > seconds:
            break
    if not outcomes:
        return result
    tally.attempt(_same_outputs, outcomes)
    if workload.probe is not None:
        tally.attempt(workload.probe, state)

    if not plain_times or (tracer is not None and not traced_times):
        return result
    first = outcomes[0]
    items = first.items
    result.named = dict(first.named)
    if tracer is None:
        rates = [items / t for t in plain_times]
        result.metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result.named[workload.rate_name] = result.metrics["items_per_s"]
        return result

    tally.attempt(tracer.require_calls, "setup", SETUP_LAYERS)
    tally.attempt(tracer.require_calls, "op", workload.layers)
    result.metrics = tracer.layer_metrics(items * len(traced_times))
    result.metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(plain_times), "s")
    return result
