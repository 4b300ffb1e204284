"""Pins the bytes of every generated benchmark artifact, and what an
untrained model computes on it.

A tiny two-subset benchmark (grids 4x4 and 3x4) is built and saved at two
seeds, and so is the default-config benchmark at seed 0, and the sha256 of
each file is compared with the committed fixture.
A refactor that moves one random draw, one box, one pair or one gallery
entry changes a hash here. The pair filter runs a cosine GEMM, so a BLAS on
another CPU could move a near-threshold pair; the fixture records the host
it was made on, and a failure names both hosts.

On the same benchmark, an untrained model with a live modulation head
(`zero_modulation_head=False`) is pinned too: the integer target and
same-instance rank of every eval query under `evaluate_queries` and under
every `beta_sweep` row, the MetricsReport values (ratios of those counts,
so exact), the predicted betas, and the per-step losses of one training
epoch. Summation order moves the last bits of the betas and the losses, so
those two are compared to a relative 1e-12; the ranks are the primary check.

Every CRM variant (`avg`, `mlp`, `transformer`) in each modulation form
(`scalar`, `vector`) is pinned at seed 17 as well: the sha256 of an untrained
live-head model's checkpoint (parameter names, order, shapes and random
draws, exact) and the per-step losses of one training epoch.

Regenerate the fixture only for a change that means to alter the artifacts
or the computed numbers (and say which and why); the command prints the key
of every value that changed:

    PYTHONPATH=src python tests/test_fingerprint.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from focalcir import evaluation, model
from focalcir.caam import CRM_VARIANTS, OUTPUT_FORMS
from focalcir.benchgen import FilterThresholds, WorldConfig, build_benchmark
from focalcir.benchgen.pipeline import Benchmark, save_benchmark
from focalcir.evaluation import EVAL_CHUNK, evaluate_model, evaluate_queries, train_examples
from focalcir.harness import beta_sweep
from focalcir.model import ModelConfig, ModelParams, TrainConfig, query_representation

FIXTURE = Path(__file__).parent / "fixtures" / "fingerprint.json"
SEEDS = (17, 29)
SUBSETS = (("fashion", (4, 4)), ("car", (3, 4)))
MODEL = ModelConfig(d_model=16, d_embed=16, m_queries=2, k_probes=2, l_text=2,
                    n_blocks=2, crm_layers=2)
MODEL_SEED = 5
VARIANT_SEED = 17
REL_TOL = 1e-12


def host_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{platform.machine()} python {platform.python_version()} numpy {np.__version__} "
            f"{blas.get('name')} {blas.get('version')}")


def tiny_benchmark(seed: int) -> Benchmark:
    return build_benchmark(
        configs=[WorldConfig(subset=s, n_categories=2, instances_per_category=5,
                             images_per_instance=6, n_contexts=6, grid=grid, d_latent=8,
                             bbox_size_range=(0.4, 0.7), reserve_instances_per_category=3,
                             reserve_images_per_instance=3) for s, grid in SUBSETS],
        seed=seed, d_model=16, l_text=2, train_cap=4, eval_cap=8, n_distractors=6,
        thresholds={s: FilterThresholds(4, 0.95, 0.9, 3) for s, _ in SUBSETS},
    )


def artifact_hashes(out_dir: Path, bench: Benchmark) -> dict[str, str]:
    save_benchmark(out_dir, bench, config_hash="fingerprint")
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out_dir.iterdir())}


def query_ranks(params: ModelParams, bench: Benchmark, beta_override: float | None):
    """Per subset, each eval query's target and same-instance rank and the
    modulation it was given, as evaluate_queries returns them."""
    outcomes = evaluate_queries(params, bench, beta_override=beta_override)
    ranks = {s: {"target": o.target_ranks.tolist(), "instance": o.instance_ranks.tolist()}
             for s, o in outcomes.items()}
    return ranks, {s: o.applied[:, 0, 0].tolist() for s, o in outcomes.items()}


def one_epoch_losses(bench: Benchmark, config: ModelConfig = MODEL) -> list[float]:
    """The loss of every step of one training epoch, in step order."""
    params = ModelParams(config, bench.encoders, seed=MODEL_SEED, zero_modulation_head=False)
    losses = []
    real = model.contrastive_loss

    def recording(*args):
        loss = real(*args)
        losses.append(loss.item())
        return loss

    model.contrastive_loss = recording
    try:
        model.train(params, train_examples(bench, bench.train_quads),
                    TrainConfig(epochs=1, batch_size=8, seed=3))
    finally:
        model.contrastive_loss = real
    return losses


def model_fingerprint(seed: int) -> dict:
    bench = tiny_benchmark(seed)
    params = ModelParams(MODEL, bench.encoders, seed=MODEL_SEED, zero_modulation_head=False)
    live_ranks, betas = query_ranks(params, bench, None)
    ranks = {"live": live_ranks}
    reports = {"live": dataclasses.asdict(evaluate_model(params, bench))}
    for row in beta_sweep(params, bench).rows:
        ranks[row.label] = query_ranks(params, bench, row.beta_value)[0]
        reports[row.label] = dataclasses.asdict(row.metrics)
    return {"ranks": ranks, "reports": reports, "betas": betas,
            "losses": one_epoch_losses(bench)}


def variant_fingerprint(bench: Benchmark, variant: str, modulation: str, tmp_dir: Path) -> dict:
    """An untrained live-head checkpoint's sha256 and one epoch's losses for
    one CRM variant and modulation form."""
    config = dataclasses.replace(MODEL, crm_variant=variant, modulation=modulation)
    path = tmp_dir / f"{variant}-{modulation}.bin"
    model.save_checkpoint(path, ModelParams(config, bench.encoders, seed=MODEL_SEED,
                                            zero_modulation_head=False))
    return {"checkpoint_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "losses": one_epoch_losses(bench, config)}


def variants_fingerprint(tmp_dir: Path) -> dict:
    bench = tiny_benchmark(VARIANT_SEED)
    return {f"{v}/{m}": variant_fingerprint(bench, v, m, tmp_dir)
            for v in CRM_VARIANTS for m in OUTPUT_FORMS}


def test_artifacts_match_fingerprint(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    for seed in SEEDS:
        got = artifact_hashes(tmp_path / str(seed), tiny_benchmark(seed))
        assert got == fixture["sha256"][str(seed)], (
            f"seed {seed}: artifact bytes differ from the fixture made on "
            f"{fixture['host']!r}; this host is {host_line()!r}"
        )


def test_default_benchmark_artifacts_match_fingerprint(tmp_path):
    # the default-config world at seed 0, the one perfbench times: its pools
    # are large enough that a change to how boxes are drawn or grids are
    # written shows at the scale the tiny worlds above do not reach
    fixture = json.loads(FIXTURE.read_text())
    got = artifact_hashes(tmp_path, build_benchmark(seed=0))
    assert got == fixture["sha256"]["default"], (
        f"default benchmark: artifact bytes differ from the fixture made on "
        f"{fixture['host']!r}; this host is {host_line()!r}"
    )


def _close(got: list[float], want: list[float], what: str) -> None:
    """Every value within REL_TOL of its pinned one, relative to it; a
    failure names the worst relative deviation, so a last-bit move shows
    its margin."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{what}: {got.shape} values for {want.shape} pinned"
    deviation = np.abs(got - want)
    if not np.all(deviation <= REL_TOL * np.abs(want)):
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.max(np.where(deviation == 0.0, 0.0, deviation / np.abs(want)))
        raise AssertionError(
            f"{what}: worst relative deviation {worst:.2e} exceeds REL_TOL {REL_TOL:.0e}")


def first_rank_move(got: dict, want: dict) -> str:
    """Where two {subset: {"target"|"instance": ranks}} maps first differ:
    the subset, the rank kind, the query index and the old -> new rank."""
    for subset, kinds in want.items():
        for kind, ranks in kinds.items():
            new = got.get(subset, {}).get(kind)
            if new is None:
                return f"{subset} {kind} ranks missing"
            for i, (old, now) in enumerate(zip(ranks, new)):
                if old != now:
                    return f"{subset} query {i} {kind} rank moved {old} -> {now}"
            if len(new) != len(ranks):
                return f"{subset} {kind}: {len(ranks)} queries -> {len(new)}"
    return f"subsets {sorted(want)} -> {sorted(got)}"


def test_first_rank_move_names_the_first_difference():
    want = {"fashion": {"target": [1, 2, 3], "instance": [1, 1, 2]},
            "car": {"target": [4, 5], "instance": [1, 2]}}
    got = json.loads(json.dumps(want))
    got["car"]["instance"][1] = 3
    got["car"]["target"][0] = 7
    assert first_rank_move(got, want) == "car query 0 target rank moved 4 -> 7"
    got["fashion"]["instance"].pop()
    assert first_rank_move(got, want) == "fashion instance: 3 queries -> 2"
    assert first_rank_move({}, want) == "fashion target ranks missing"


def test_close_names_the_worst_relative_deviation():
    _close([1.0, -2.0, 0.0], [1.0, -2.0 * (1 + 5e-13), 0.0], "betas")
    with pytest.raises(AssertionError, match=r"^betas: worst relative deviation 3\.00e-12 "
                                              r"exceeds REL_TOL 1e-12$"):
        _close([1.0 + 1e-12, 4.0 * (1 + 3e-12)], [1.0, 4.0], "betas")
    with pytest.raises(AssertionError, match="worst relative deviation inf"):
        _close([1e-300], [0.0], "losses")  # a pinned 0 allows no deviation
    with pytest.raises(AssertionError, match=r"\(2,\) values for \(3,\) pinned"):
        _close([1.0, 2.0], [1.0, 2.0, 3.0], "losses")


def test_untrained_model_matches_fingerprint():
    fixture = json.loads(FIXTURE.read_text())
    hosts = f"fixture made on {fixture['host']!r}; this host is {host_line()!r}"
    for seed in SEEDS:
        got, want = model_fingerprint(seed), fixture["model"][str(seed)]
        assert sorted(got["ranks"]) == sorted(want["ranks"]), seed
        for setting, ranks in want["ranks"].items():
            assert got["ranks"][setting] == ranks, (
                f"seed {seed} {setting}: {first_rank_move(got['ranks'][setting], ranks)}; {hosts}")
            assert got["reports"][setting] == want["reports"][setting], (seed, setting)
        for subset, betas in want["betas"].items():
            _close(got["betas"][subset], betas, f"seed {seed} {subset}: betas; {hosts}")
        _close(got["losses"], want["losses"], f"seed {seed}: losses; {hosts}")


def test_ranks_do_not_depend_on_the_eval_chunk(monkeypatch):
    # a metamorphic relation: batching queries and gallery images into
    # chunks of any size gives every eval query the same integer ranks. One
    # benchmark is evaluated at every size: its kept query chunks are kept
    # per size, so each size re-chunks
    bench = tiny_benchmark(SEEDS[0])
    params = ModelParams(MODEL, bench.encoders, seed=MODEL_SEED, zero_modulation_head=False)
    whole = max([len(bench.eval_quads_of(s)) for s in bench.subsets]
                + [len(m.image_ids) for m in bench.galleries.values()])
    by_chunk = {}
    for chunk in (1, 7, 32, EVAL_CHUNK, whole):
        sizes = []

        def sized(batch, *args, **kwargs):
            sizes.append(len(batch.boxed))
            return query_representation(batch, *args, **kwargs)

        monkeypatch.setattr(evaluation, "EVAL_CHUNK", chunk)
        monkeypatch.setattr(evaluation, "query_representation", sized)
        by_chunk[chunk] = query_ranks(params, bench, None)[0]
        counts = [len(bench.eval_quads_of(s)) for s in bench.subsets]
        assert sizes == [min(chunk, n - at) for n in counts for at in range(0, n, chunk)], chunk
    for chunk, ranks in by_chunk.items():
        assert ranks == by_chunk[EVAL_CHUNK], chunk


def test_every_crm_variant_matches_fingerprint(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    hosts = f"fixture made on {fixture['host']!r}; this host is {host_line()!r}"
    got, want = variants_fingerprint(tmp_path), fixture["variants"]
    assert sorted(got) == sorted(want)
    for key, pinned in want.items():
        assert got[key]["checkpoint_sha256"] == pinned["checkpoint_sha256"], key
        _close(got[key]["losses"], pinned["losses"], f"{key}: losses; {hosts}")


def changed_keys(old, new, path: str = "") -> list[str]:
    """The /-joined key of every value that differs between two fixtures;
    dicts are compared key by key, anything else (a list of ranks) whole."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [path]
    return [changed for key in sorted(old.keys() | new.keys())
            for changed in changed_keys(old.get(key), new.get(key), f"{path}/{key}".lstrip("/"))]


def test_changed_keys_names_each_moved_value():
    old = {"host": "a", "variants": {"avg/scalar": {"checkpoint_sha256": "x", "losses": [1.0]}}}
    new = json.loads(json.dumps(old))
    assert changed_keys(old, new) == []
    new["variants"]["avg/scalar"]["checkpoint_sha256"] = "y"
    new["variants"]["mlp/vector"] = {"losses": [2.0]}
    del new["host"]
    assert changed_keys(old, new) == ["host", "variants/avg/scalar/checkpoint_sha256",
                                      "variants/mlp/vector"]


def write_fixture(tmp_dir: Path) -> list[str]:
    """Rewrites the fixture; returns the keys whose values changed."""
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    payload = {"host": host_line(),
               "sha256": {str(seed): artifact_hashes(tmp_dir / str(seed), tiny_benchmark(seed))
                          for seed in SEEDS}
               | {"default": artifact_hashes(tmp_dir / "default", build_benchmark(seed=0))},
               "model": {str(seed): model_fingerprint(seed) for seed in SEEDS},
               "variants": variants_fingerprint(tmp_dir)}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    FIXTURE.write_text(text, encoding="utf-8")
    return changed_keys(old, json.loads(text))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fingerprint.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        changed = write_fixture(Path(tmp))
    print(f"wrote {FIXTURE}; {len(changed)} values changed")
    for key in changed:
        print(f"  {key}")
