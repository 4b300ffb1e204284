"""focalcir benchmark: train, eval and sweep workloads on the default world.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval --seed 0 --seconds 30 --trace 0

It prints a readable report (host record, then each metric by name with its
unit) and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. ``--workload all`` runs
each workload in its own process, one after another. See README.md here for
the metrics, the layer map and what is not measured yet.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "eval", "sweep")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="focalcir benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0, help="workload seed: the generated world")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time after set-up; at least one operation runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports per-layer metrics from a traced run")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if there is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(seed: int) -> dict:
    import numpy as np
    from focalcir.config import RunConfig

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(ROOT),
        "config_digest": RunConfig().digest(),
        "seed": seed,
    }


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def run_one(args: argparse.Namespace) -> int:
    import measure
    import workloads
    from focalcir.config import RunConfig

    print("host " + json.dumps(host_record(args.seed), sort_keys=True))
    config = RunConfig(seed=args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work_dir:
        result = measure.run(workloads.WORKLOADS[args.workload], config, args.seconds,
                             bool(args.trace), Path(work_dir))
    tally = result.tally
    print(f"workload {result.workload}  seed {args.seed}  operations {result.ops}  "
          f"set-ups {measure.SETUP_REPEATS}  trace {args.trace}")
    if args.trace:
        _print_metrics("per-layer", result.metrics)
    else:
        _print_metrics("end-to-end", {
            **result.metrics,
            **result.named,
            "ops_attempted": (tally.attempted, "count"),
            "ops_failed": (tally.failed, "count"),
        })
    print(json.dumps({
        "correct": result.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "focalcir" / "__init__.py").is_file():
        print(f"perfbench: no focalcir sources at {SRC / 'focalcir'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
