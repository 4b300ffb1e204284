"""Self-checks of the benchmark: tracer, output checks and the result contract.

They run on a tiny two-subset world, so they take seconds:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import tracer as tracer_mod
import workloads
from focalcir import model
from focalcir.config import run_config_from_dict
from focalcir.errors import ContractError

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

_SUBSET = {"n_categories": 2, "instances_per_category": 4, "images_per_instance": 6,
           "n_contexts": 6, "grid": [4, 4], "d_latent": 8, "bbox_size_range": [0.3, 0.6],
           "reserve_instances_per_category": 3, "reserve_images_per_instance": 3}
_THRESHOLDS = {"tau_valid": 4, "tau_high": 0.95, "tau_centric": 0.9, "tau_count": 3}
TINY = {
    "seed": 17,
    "world": [{"subset": s, **_SUBSET} for s in ("fashion", "car")],
    "thresholds": {s: _THRESHOLDS for s in ("fashion", "car")},
    "model": {"d_model": 16, "d_embed": 16, "m_queries": 2, "k_probes": 2,
              "l_text": 2, "n_blocks": 1, "crm_layers": 1},
    "train": {"batch_size": 8},
    "bench": {"train_cap": 3, "eval_cap": 5, "n_distractors": 6},
    "eval": {"betas": [0, 2]},
}
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def config():
    return run_config_from_dict(TINY)


@pytest.fixture(scope="module")
def state(config, tmp_path_factory):
    return workloads.set_up(config, tmp_path_factory.mktemp("bench"))


@pytest.fixture(scope="module")
def traced(config, tmp_path_factory):
    """Two traced runs of each workload, one untraced and one traced operation each."""
    return {
        name: [
            measure.run(workloads.WORKLOADS[name], config, 1e-9, True,
                        tmp_path_factory.mktemp(name))
            for _ in range(2)
        ]
        for name in NAMES
    }


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_equal_untraced(state, name):
    op = workloads.WORKLOADS[name].op
    plain = op(state, measure.timer([]))
    traced = op(state, measure.timer([], tracer_mod.Tracer("test")))
    assert traced.fingerprint == plain.fingerprint
    assert traced.named == plain.named


def test_every_call_site_resolves_and_is_restored():
    originals = [getattr(tracer_mod._resolve(owner), attr)
                 for _, owner, attr, _, _ in tracer_mod.SITES]
    with tracer_mod.Tracer("test").installed():
        for (_, owner, attr, _, _), original in zip(tracer_mod.SITES, originals):
            assert getattr(tracer_mod._resolve(owner), attr).__wrapped__ is original
    for (_, owner, attr, _, _), original in zip(tracer_mod.SITES, originals):
        assert getattr(tracer_mod._resolve(owner), attr) is original


def test_a_renamed_call_site_fails_loudly(monkeypatch):
    gone = ("model.gone", "focalcir.model", "no_such_function", "span", None)
    monkeypatch.setattr(tracer_mod, "SITES", tracer_mod.SITES + (gone,))
    original = model.train
    with pytest.raises(tracer_mod.SiteError, match="no_such_function"):
        tracer_mod.Tracer("test").install()
    assert model.train is original  # nothing stays wrapped


def test_a_layer_that_never_runs_is_reported(state):
    t = tracer_mod.Tracer("test")
    workloads.eval_op(state, measure.timer([], t))
    with pytest.raises(tracer_mod.SiteError, match="numerics.backward"):
        t.require_calls("op", ("numerics.backward",))


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_is_correct_and_reports_every_layer(traced, name):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in traced[name]:
        assert result.correct, f"{name}: {result.tally}"
        assert {k: u for k, (_, u) in result.metrics.items()} == declared


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_no_more_than_wall(traced, name):
    spans = traced[name][0].tracer.spans
    assert all(s.self_s >= -1e-9 for s in spans)
    roots = [s for s in spans if s.parent < 0]
    wall = sum(s.end - s.start for s in roots)
    assert sum(s.self_s for s in spans) <= wall + 1e-9
    assert wall <= spans[-1].end - spans[0].start + 1e-9
    assert len({s.run_id for s in spans}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_across_traced_runs(traced, name):
    first, second = ({k: v for k, (v, u) in r.metrics.items() if u in ("count", "ratio")}
                     for r in traced[name])
    assert first == second


def test_layer_expectations(traced):
    train = traced["train"][0].metrics
    assert train["numerics.tape_entries_per_example"][0] > 0
    assert train["model.train_step.ms_p50"][0] > 0
    assert train["evaluation.rank_gallery.self_s"][0] == 0
    for name in ("eval", "sweep"):
        m = traced[name][0].metrics
        assert m["numerics.tape_entries_per_example"][0] == 0
        assert m["numerics.backward.self_s"][0] == 0
    assert traced["eval"][0].metrics["evaluation.gallery_cache.hit_ratio"][0] == 0
    # two fixed rows plus the adaptive row share one cache per subset
    assert traced["sweep"][0].metrics["evaluation.gallery_cache.hit_ratio"][0] == pytest.approx(4 / 6)


def test_untraced_run_reports_every_end_to_end_metric(config, tmp_path):
    result = measure.run(workloads.WORKLOADS["eval"], config, 1e-9, False, tmp_path)
    assert result.correct
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in result.metrics.items()} == declared
    assert all(v > 0 for v, _ in result.metrics.values())
    assert result.tally.attempted == measure.SETUP_REPEATS + 3  # op, same-output check, probe


def _raises_contract(s, timed):
    raise ContractError("planted failure")


def _fails_check(s, timed):
    with timed():
        pass
    raise workloads.CheckError("planted wrong output")


@pytest.mark.parametrize("op", [_raises_contract, _fails_check])
def test_failures_are_counted_not_raised(config, tmp_path, op):
    bad = workloads.Workload("bad", op, "bad.items_per_s", None, ())
    result = measure.run(bad, config, 1e-9, False, tmp_path)
    assert result.tally.failed == 1
    assert result.tally.attempted == measure.SETUP_REPEATS + 1
    assert not result.correct


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
