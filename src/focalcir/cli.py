"""Command-line entry point: gen, train, eval, ablate, gradcheck.

The run config is the one place a run's settings are stated: no flag
overrides a key of its hash, and --out, which the hash leaves out, is the
only override. One seed in the config drives every stage; each command
writes the config hash into all of its outputs, so artifacts from the same
run share one provenance chain. A leave-one-out run is a config whose
train.subsets names its training subsets, so it has a hash of its own. Only
gen writes resolved_config.json, and the other commands refuse a benchmark
made under other data settings than their config's. Exit codes: 0 success,
1 configuration error, 2 data error, 3 check failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from focalcir.benchgen.filtering import PRESETS
from focalcir.benchgen.pipeline import build_benchmark, load_benchmark, save_benchmark
from focalcir.config import RunConfig, load_run_config, unknown_subset_rule, write_resolved_config
from focalcir.encoders import ContextDescriptor, EncoderParams, embed_text, encode_image
from focalcir.errors import ConfigError, DataError, FocalCirError
from focalcir.evaluation import evaluate_model, train_examples
from focalcir.harness import (
    ablation_table_text,
    beta_sweep,
    caam_ablation,
    metrics_table_text,
    robustness_eval,
    robustness_table_text,
    roi_crop_ablation,
    trained_model,
)
from focalcir.model import (
    EncoderRecord,
    ModelConfig,
    ModelParams,
    QuerySample,
    TrainExample,
    load_checkpoint,
    save_checkpoint,
    step_loss,
    subset_list_rule,
)
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.tensor import Tape, backward
from focalcir.records import write_json


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", metavar="PATH", default=None,
                   help="JSON run config; defaults apply when omitted")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="override the run output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="focalcir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate the synthetic benchmark")
    _add_common(gen)

    tr = sub.add_parser("train", help="train a model on a generated benchmark")
    _add_common(tr)
    tr.add_argument("--checkpoint", metavar="PATH", default=None,
                    help="checkpoint output path (default OUT/checkpoint.bin)")

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(ev)
    ev.add_argument("--subsets", metavar="LIST", default=None,
                    help="comma-separated subsets to evaluate")
    ev.add_argument("--checkpoint", metavar="PATH", default=None,
                    help="checkpoint to evaluate (default OUT/checkpoint.bin)")

    ab = sub.add_parser("ablate", help="run an ablation study")
    ab.add_argument("kind", choices=["beta", "caam", "robustness", "roicrop"])
    _add_common(ab)
    ab.add_argument("--checkpoint", metavar="PATH", default=None,
                    help="trained checkpoint (default OUT/checkpoint.bin)")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    gc.add_argument("--config", metavar="PATH", default=None,
                    help="JSON run config; only its seed is read")
    return parser


# ---------------------------------------------------------------------------
# helpers


def _parse_subsets(arg: str | None, cfg: RunConfig) -> tuple[str, ...] | None:
    """eval --subsets: a set of the config's world subsets, which _load_bench
    then holds equal to the benchmark's."""
    if arg is None:
        return None
    names = tuple(s.strip() for s in arg.split(",") if s.strip())
    if broken := (subset_list_rule("--subsets", names)
                  or unknown_subset_rule("--subsets", names, cfg.world)):
        raise ConfigError(broken)
    return names


def _settings_made_under(cfg: RunConfig, bench):
    """(key, the run config's value, the benchmark's value) of each setting
    that decides what `gen` makes, in the order of the run config."""
    made = bench.settings
    yield "seed", cfg.seed, made.seed
    for key, value in dataclasses.asdict(cfg.bench).items():
        yield f"bench.{key}", value, getattr(made, key)
    for key in ("d_model", "l_text"):
        yield f"model.{key}", getattr(cfg.model, key), getattr(made, key)
    yield "world", sorted(w.subset for w in cfg.world), sorted(bench.world.configs)
    for i, world in enumerate(cfg.world):
        theirs = dataclasses.asdict(bench.world.configs[world.subset])
        for key, value in dataclasses.asdict(world).items():
            yield f"world[{i}].{key}", value, theirs[key]
    thresholds = cfg.thresholds
    if thresholds is None:
        thresholds = {w.subset: PRESETS[w.subset] for w in cfg.world}
    for subset, ours in thresholds.items():
        theirs = dataclasses.asdict(bench.thresholds[subset])
        for key, value in dataclasses.asdict(ours).items():
            yield f"thresholds.{subset}.{key}", value, theirs[key]


def _load_bench(cfg: RunConfig):
    """The benchmark in the run directory, which must have been made under
    the data settings of this run config."""
    bench = load_benchmark(cfg.out)
    for key, ours, theirs in _settings_made_under(cfg, bench):
        if ours != theirs:
            raise DataError(f"the run config's {key} is {ours!r}, but the benchmark in "
                            f"{cfg.out} was made with {theirs!r}; run gen again")
    return bench


def _ckpt_path(cfg: RunConfig, arg: str | None) -> Path:
    return Path(arg) if arg is not None else Path(cfg.out) / "checkpoint.bin"


def _load_ckpt(path: Path, bench):
    """The checkpoint at path, whose frozen encoder must be the benchmark's:
    its patches and texts are what the model is scored on."""
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    params, meta = load_checkpoint(path)
    for f in dataclasses.fields(EncoderRecord):
        ours, theirs = getattr(params.encoders, f.name), getattr(bench.encoders, f.name)
        if ours != theirs:
            raise DataError(f"{path}: encoder.{f.name} is {ours}, "
                            f"the benchmark's encoder has {theirs}")
    return params, meta


def _checkpoint_provenance(meta: dict) -> dict:
    """The config hash and train subsets a checkpoint's meta records."""
    return {k: meta.get(k) for k in ("config_hash", "train_subsets")}


def _checkpoint_text(provenance: dict) -> str:
    """The text form of _checkpoint_provenance, for the .txt twins of its records."""
    return " ".join(f"checkpoint.{k}={json.dumps(v, separators=(',', ':'))}"
                    for k, v in provenance.items())


def _provenance_line(digest: str, seed: int, checkpoint: dict | None = None) -> str:
    stamp = f"# config_hash={digest} seed={seed}"
    return stamp + (f" {_checkpoint_text(checkpoint)}" if checkpoint else "") + "\n"


def _write_ablation(out: Path, kind: str, digest: str, seed: int, rows: list[dict],
                    table: str, **extra) -> None:
    """ablate_<kind>.json and .txt, each stamped with the config hash and seed
    and with the provenance of the checkpoint scored, if one was loaded."""
    write_json(out / f"ablate_{kind}.json",
               {"config_hash": digest, "seed": seed, "rows": rows, **extra})
    text = _provenance_line(digest, seed, extra.get("checkpoint")) + table
    (out / f"ablate_{kind}.txt").write_text(text, encoding="utf-8")
    print(text, end="")


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: RunConfig) -> int:
    bench = build_benchmark(  # first: a config it cannot meet leaves no run directory
        configs=list(cfg.world), seed=cfg.seed,
        d_model=cfg.model.d_model, l_text=cfg.model.l_text,
        train_cap=cfg.bench.train_cap, eval_cap=cfg.bench.eval_cap,
        n_distractors=cfg.bench.n_distractors, thresholds=cfg.thresholds,
    )
    digest = write_resolved_config(cfg.out, cfg)
    save_benchmark(cfg.out, bench, config_hash=digest)
    print(f"benchmark written to {cfg.out} (config {digest})")
    for subset in bench.subsets:
        s = bench.stats[subset]
        print(f"  {subset}: {s['images']} images, {s['train_quadruples']} train / "
              f"{s['eval_quadruples']} eval quadruples, gallery {s['gallery_size']}")
    return 0


def cmd_train(cfg: RunConfig, ckpt: str | None) -> int:
    bench = _load_bench(cfg)
    digest = cfg.digest()
    ckpt_path = _ckpt_path(cfg, ckpt)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)  # before training, to fail fast
    train_cfg = dataclasses.replace(cfg.train, seed=cfg.seed)
    examples = train_examples(bench, bench.train_quads_of(train_cfg.subsets))
    params, result = trained_model(cfg.model, bench, examples, train_cfg)

    meta = {
        "config_hash": digest,
        "seed": cfg.seed,
        "train_subsets": sorted(train_cfg.subsets or bench.subsets),
        "fixed_beta": train_cfg.fixed_beta,
        "final_loss": result.epoch_losses[-1],
    }
    save_checkpoint(ckpt_path, params, meta=meta)

    log_path = ckpt_path.with_name(ckpt_path.stem + "_loss_log.tsv")
    lines = [_provenance_line(digest, cfg.seed).rstrip("\n"), "epoch\tloss\tmean_beta"]
    for i, (loss, beta) in enumerate(zip(result.epoch_losses, result.epoch_mean_betas), 1):
        lines.append(f"{i}\t{loss:.6f}\t{beta:.6f}")
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    print(f"checkpoint written to {ckpt_path} (config {digest})")
    print(f"epochs {train_cfg.epochs}, steps {result.steps}, "
          f"final loss {result.epoch_losses[-1]:.4f}")
    return 0


def cmd_eval(cfg: RunConfig, subsets: tuple[str, ...] | None, ckpt: str | None) -> int:
    bench = _load_bench(cfg)
    digest = cfg.digest()
    params, meta = _load_ckpt(_ckpt_path(cfg, ckpt), bench)
    report = evaluate_model(
        params, bench, subsets=list(subsets) if subsets else None,
        config_hash=digest, seed=cfg.seed,
    )
    out = Path(cfg.out)
    write_json(out / "metrics.json",
               {**report.to_dict(), "checkpoint": _checkpoint_provenance(meta)})
    text = report.to_text() + _checkpoint_text(_checkpoint_provenance(meta)) + "\n"
    (out / "metrics.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_ablate(cfg: RunConfig, kind: str, ckpt: str | None) -> int:
    if kind in ("caam", "roicrop") and cfg.train.fixed_beta is not None:
        raise ConfigError(f"train.fixed_beta is {cfg.train.fixed_beta}, but ablate {kind} "
                          "trains adaptive models; leave it out of the run config")
    bench = _load_bench(cfg)
    digest = cfg.digest()
    out = Path(cfg.out)
    train_cfg = dataclasses.replace(cfg.train, seed=cfg.seed)

    if kind == "beta":
        params, meta = _load_ckpt(_ckpt_path(cfg, ckpt), bench)
        betas = cfg.eval.betas
        table = beta_sweep(params, bench, units=betas, config_hash=digest, seed=cfg.seed)
        _write_ablation(out, kind, digest, cfg.seed, [dataclasses.asdict(r) for r in table.rows],
                        table.to_text(), grid_units=list(betas),
                        checkpoint=_checkpoint_provenance(meta))
    elif kind == "caam":
        rows = caam_ablation(bench, cfg.model, train_cfg, config_hash=digest)
        _write_ablation(out, kind, digest, cfg.seed, [dataclasses.asdict(r) for r in rows],
                        ablation_table_text(rows))
    elif kind == "robustness":
        params, meta = _load_ckpt(_ckpt_path(cfg, ckpt), bench)
        rows = robustness_eval(params, bench, seed=cfg.seed, config_hash=digest)
        _write_ablation(out, kind, digest, cfg.seed, [dataclasses.asdict(r) for r in rows],
                        robustness_table_text(rows), checkpoint=_checkpoint_provenance(meta))
    else:
        # roicrop: a checkpoint, if there is one, is the adaptive row, so it
        # must be an adaptive model of the subsets the other rows train on
        ckpt_path = _ckpt_path(cfg, ckpt)
        adaptive, meta = _load_ckpt(ckpt_path, bench) if ckpt_path.is_file() else (None, None)
        for key, ours in (("train_subsets", sorted(train_cfg.subsets or bench.subsets)),
                          ("fixed_beta", None)):
            if meta is not None and meta.get(key) != ours:
                raise DataError(f"{ckpt_path} records {key} {meta.get(key)!r}, "
                                f"but this run's adaptive row needs {ours!r}")
        named = roi_crop_ablation(bench, cfg.model, train_cfg, adaptive, config_hash=digest)
        _write_ablation(out, kind, digest, cfg.seed,
                        [{"label": label, "metrics": rep.to_dict()} for label, rep in named],
                        metrics_table_text(("model",), [((label,), rep) for label, rep in named]),
                        checkpoint=None if meta is None else _checkpoint_provenance(meta))
    return 0


def _gradcheck_model(seed: int):
    cfg = ModelConfig(d_model=6, d_embed=6, m_queries=2, k_probes=2, l_text=2,
                      n_blocks=1, crm_variant="transformer", crm_layers=1)
    enc = EncoderParams(seed=seed + 100, d_latent=4, d_model=6, l_text=2)
    params = ModelParams(cfg, enc, seed=seed, zero_modulation_head=False)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    grid = (2, 2)
    examples = []
    for _ in range(2):
        latents = rng.normal(size=(grid[0], grid[1], enc.d_latent))
        text = embed_text(ContextDescriptor("ctx", rng.normal(size=enc.d_latent)), enc)
        query = QuerySample(patches=encode_image(latents, enc), grid=grid,
                            bbox=(0.1, 0.1, 0.6, 0.6), text=text)
        target = encode_image(rng.normal(size=(grid[0], grid[1], enc.d_latent)), enc)
        examples.append(TrainExample(query=query, target_patches=target))
    return params, examples


def cmd_gradcheck(cfg: RunConfig) -> int:
    params, examples = _gradcheck_model(cfg.seed)

    def forward():  # the batched forward a training step runs, adaptive
        return step_loss(params, examples, None)[0]

    tape = Tape()
    with tape:
        loss = forward()
    backward(loss, tape)

    rows = []
    worst = 0.0
    for name, t in params.named_params():
        if not t.requires_grad:
            continue
        analytic = t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
        numeric = finite_diff_grad(lambda _t: forward().item(), t)
        err = max_rel_error(analytic, numeric)
        worst = max(worst, err)
        rows.append((name, err))
    tape.clear()

    print(f"loss {loss.item():.6f} on {len(rows)} parameter tensors")
    print("param\trel_err\tstatus")
    failed = 0
    for name, err in rows:
        ok = err < 1e-4
        failed += 0 if ok else 1
        print(f"{name}\t{err:.3e}\t{'ok' if ok else 'FAIL'}")
    print(f"worst relative error {worst:.3e}")
    if failed:
        print(f"{failed} parameter tensors FAILED the 1e-4 bound", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# entry point

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> bool:
    """Asks glibc to keep freed eval-chunk buffers instead of returning them.

    Below 16 MiB a buffer comes from the heap, and up to 64 MiB of free heap
    top is kept, so each chunk reuses the last one's pages: without this, a
    fresh process running the default benchmark's beta sweep paid about 118k
    minor page faults.
    Both values are set, since setting one alone turns off glibc's dynamic
    threshold and was slower. Returns False, changing nothing, where the C
    library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return all([mallopt(_M_MMAP_THRESHOLD, 16 << 20), mallopt(_M_TRIM_THRESHOLD, 64 << 20)])


def _one_blas_thread() -> bool:
    """Pins numpy's bundled OpenBLAS, found among the mapped files as
    perfbench's blas_threads finds it, to one thread: a second one computes
    the same bytes, and on a 2-core host it doubled a default `train`'s CPU
    time without shortening its wall time. Returns False, changing nothing,
    where no mapped library exports scipy_openblas_set_num_threads64_.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return False
    for path in sorted(libs):
        pin = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if pin is not None:
            pin.argtypes, pin.restype = [ctypes.c_int], None
            pin(1)
            return True
    return False


def main(argv=None) -> int:
    _keep_freed_heap()
    _one_blas_thread()
    try:
        args = build_parser().parse_args(argv)
        if args.command == "gradcheck":
            return cmd_gradcheck(load_run_config(args.config))
        cfg = load_run_config(args.config, out=args.out)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg, args.checkpoint)
        if args.command == "eval":
            return cmd_eval(cfg, _parse_subsets(args.subsets, cfg), args.checkpoint)
        return cmd_ablate(cfg, args.kind, args.checkpoint)
    except (ConfigError, OSError) as exc:  # OSError: an output path or the config file
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FocalCirError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
