"""Pins the bytes of every generated benchmark artifact.

A tiny two-subset benchmark (grids 4x4 and 3x4) is built and saved at two
seeds, and the sha256 of each file is compared with the committed fixture.
A refactor that moves one random draw, one box, one pair or one gallery
entry changes a hash here. The pair filter runs a cosine GEMM, so a BLAS on
another CPU could move a near-threshold pair; the fixture records the host
it was made on, and a failure names both hosts.

Regenerate the fixture only for a change that means to alter the artifacts
(and say which and why):

    PYTHONPATH=src python tests/test_fingerprint.py --write
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from focalcir.benchgen import FilterThresholds, WorldConfig, build_benchmark
from focalcir.benchgen.pipeline import save_benchmark

FIXTURE = Path(__file__).parent / "fixtures" / "fingerprint.json"
SEEDS = (17, 29)
SUBSETS = (("fashion", (4, 4)), ("car", (3, 4)))


def host_line() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{platform.machine()} python {platform.python_version()} numpy {np.__version__} "
            f"{blas.get('name')} {blas.get('version')}")


def artifact_hashes(out_dir: Path, seed: int) -> dict[str, str]:
    bench = build_benchmark(
        configs=[WorldConfig(subset=s, n_categories=2, instances_per_category=5,
                             images_per_instance=6, n_contexts=6, grid=grid, d_latent=8,
                             bbox_size_range=(0.4, 0.7), reserve_instances_per_category=3,
                             reserve_images_per_instance=3) for s, grid in SUBSETS],
        seed=seed, d_model=16, l_text=2, train_cap=4, eval_cap=8, n_distractors=6,
        thresholds={s: FilterThresholds(4, 0.95, 0.9, 3) for s, _ in SUBSETS},
    )
    save_benchmark(out_dir, bench, config_hash="fingerprint")
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out_dir.iterdir())}


def test_artifacts_match_fingerprint(tmp_path):
    fixture = json.loads(FIXTURE.read_text())
    for seed in SEEDS:
        got = artifact_hashes(tmp_path / str(seed), seed)
        assert got == fixture["sha256"][str(seed)], (
            f"seed {seed}: artifact bytes differ from the fixture made on "
            f"{fixture['host']!r}; this host is {host_line()!r}"
        )


def write_fixture(tmp_dir: Path) -> None:
    payload = {"host": host_line(),
               "sha256": {str(seed): artifact_hashes(tmp_dir / str(seed), seed)
                          for seed in SEEDS}}
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fingerprint.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        write_fixture(Path(tmp))
    print(f"wrote {FIXTURE}")
