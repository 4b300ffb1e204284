"""Command-line entry point: gen, train, eval, ablate, gradcheck.

One seed in the run config drives every stage; each command writes its
resolved configuration hash into all of its outputs, so artifacts from the
same run share one provenance chain. Exit codes: 0 success, 1 configuration
error, 2 data error, 3 check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from focalcir.benchgen.pipeline import build_benchmark, load_benchmark, save_benchmark
from focalcir.config import RunConfig, load_run_config, write_resolved_config
from focalcir.encoders import ContextDescriptor, EncoderParams, embed_text, encode_image
from focalcir.errors import CheckpointError, ConfigError, DataError, FocalCirError
from focalcir.evaluation import evaluate_model, train_examples
from focalcir.harness import (
    ablation_table_text,
    beta_sweep,
    caam_ablation,
    expand_variant_grid,
    metrics_table_text,
    robustness_eval,
    robustness_table_text,
    roi_crop_baseline,
)
from focalcir.model import (
    ModelConfig,
    ModelParams,
    QuerySample,
    TrainExample,
    contrastive_loss,
    load_checkpoint,
    query_representation,
    save_checkpoint,
    target_representation,
    train,
)
from focalcir.numerics.gradcheck import finite_diff_grad, max_rel_error
from focalcir.numerics.tensor import Tape, backward, concat_rows
from focalcir.records import write_json


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", metavar="PATH", default=None,
                   help="JSON run config; defaults apply when omitted")
    p.add_argument("--seed", metavar="N", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="override the run output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="focalcir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate the synthetic benchmark")
    _add_common(gen)

    tr = sub.add_parser("train", help="train a model on a generated benchmark")
    _add_common(tr)
    tr.add_argument("--subsets", metavar="LIST", default=None,
                    help="comma-separated subsets to train on (leave-one-out)")
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
    ab.add_argument("--betas", metavar="LIST", default=None,
                    help="comma-separated sweep grid in units of sqrt(d_k)")
    ab.add_argument("--checkpoint", metavar="PATH", default=None,
                    help="trained checkpoint (default OUT/checkpoint.bin)")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_common(gc)
    return parser


# ---------------------------------------------------------------------------
# helpers


def _parse_subsets(arg: str | None) -> tuple[str, ...] | None:
    if arg is None:
        return None
    names = tuple(s.strip() for s in arg.split(",") if s.strip())
    if not names:
        raise ConfigError("--subsets must name at least one subset")
    return names


def _parse_betas(arg: str | None) -> tuple[float, ...] | None:
    if arg is None:
        return None
    try:
        values = tuple(float(s) for s in arg.split(",") if s.strip())
    except ValueError as exc:
        raise ConfigError(f"--betas must be comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("--betas must name at least one value")
    return values


def _check_subsets(names: tuple[str, ...] | None, bench) -> None:
    if names is None:
        return
    unknown = [n for n in names if n not in bench.world.configs]
    if unknown:
        raise ConfigError(f"unknown subset {unknown[0]!r}; "
                          f"benchmark has {sorted(bench.world.configs)}")


def _ckpt_path(cfg: RunConfig, arg: str | None) -> Path:
    return Path(arg) if arg is not None else Path(cfg.out) / "checkpoint.bin"


def _load_ckpt(path: Path):
    if not path.is_file():
        raise DataError(f"checkpoint not found: {path}")
    return load_checkpoint(path)


def _provenance_line(digest: str, seed: int) -> str:
    return f"# config_hash={digest} seed={seed}\n"


def _write_ablation(out: Path, kind: str, digest: str, seed: int, rows: list[dict],
                    table: str, **extra) -> None:
    """ablate_<kind>.json and .txt, each stamped with the config hash and seed."""
    write_json(out / f"ablate_{kind}.json",
               {"config_hash": digest, "seed": seed, "rows": rows, **extra})
    text = _provenance_line(digest, seed) + table
    (out / f"ablate_{kind}.txt").write_text(text, encoding="utf-8")
    print(text, end="")


# ---------------------------------------------------------------------------
# commands


def cmd_gen(cfg: RunConfig) -> int:
    digest = write_resolved_config(cfg.out, cfg)
    bench = build_benchmark(
        configs=list(cfg.world), seed=cfg.seed,
        d_model=cfg.model.d_model, l_text=cfg.model.l_text,
        train_cap=cfg.bench.train_cap, eval_cap=cfg.bench.eval_cap,
        n_distractors=cfg.bench.n_distractors, thresholds=cfg.thresholds,
    )
    save_benchmark(cfg.out, bench, config_hash=digest)
    print(f"benchmark written to {cfg.out} (config {digest})")
    for subset in bench.subsets:
        s = bench.stats[subset]
        print(f"  {subset}: {s['images']} images, {s['train_quadruples']} train / "
              f"{s['eval_quadruples']} eval quadruples, gallery {s['gallery_size']}")
    return 0


def cmd_train(cfg: RunConfig, subsets: tuple[str, ...] | None, ckpt: str | None) -> int:
    bench = load_benchmark(cfg.out)
    digest = write_resolved_config(cfg.out, cfg)
    chosen = subsets if subsets is not None else cfg.train.subsets
    _check_subsets(chosen, bench)
    train_cfg = dataclasses.replace(cfg.train, seed=cfg.seed, subsets=chosen)
    examples = train_examples(bench, bench.train_quads_of(chosen))
    params = ModelParams(cfg.model, bench.encoders, seed=cfg.seed)
    result = train(params, examples, train_cfg)

    ckpt_path = _ckpt_path(cfg, ckpt)
    ckpt_path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "config_hash": digest,
        "seed": cfg.seed,
        "train_subsets": sorted(chosen) if chosen is not None else sorted(bench.subsets),
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
    bench = load_benchmark(cfg.out)
    digest = write_resolved_config(cfg.out, cfg)
    params, _meta = _load_ckpt(_ckpt_path(cfg, ckpt))
    _check_subsets(subsets, bench)
    report = evaluate_model(
        params, bench, subsets=list(subsets) if subsets else None,
        config_hash=digest, seed=cfg.seed,
    )
    out = Path(cfg.out)
    write_json(out / "metrics.json", report.to_dict())
    (out / "metrics.txt").write_text(report.to_text(), encoding="utf-8")
    print(report.to_text(), end="")
    return 0


def cmd_ablate(cfg: RunConfig, kind: str, betas: tuple[float, ...] | None,
               ckpt: str | None) -> int:
    bench = load_benchmark(cfg.out)
    digest = write_resolved_config(cfg.out, cfg)
    _check_subsets(cfg.train.subsets, bench)
    out = Path(cfg.out)
    train_cfg = dataclasses.replace(cfg.train, seed=cfg.seed)

    if kind == "beta":
        params, _ = _load_ckpt(_ckpt_path(cfg, ckpt))
        units = betas if betas is not None else tuple(cfg.eval.betas)
        table = beta_sweep(params, bench, units=units, config_hash=digest, seed=cfg.seed)
        _write_ablation(out, kind, digest, cfg.seed, [dataclasses.asdict(r) for r in table.rows],
                        table.to_text(), grid_units=list(units))
    elif kind == "caam":
        variants = expand_variant_grid(forms=("scalar", "vector"))
        rows = caam_ablation(bench, cfg.model, train_cfg, variants,
                             model_seed=cfg.seed, config_hash=digest)
        _write_ablation(out, kind, digest, cfg.seed, [dataclasses.asdict(r) for r in rows],
                        ablation_table_text(rows))
    elif kind == "robustness":
        params, _ = _load_ckpt(_ckpt_path(cfg, ckpt))
        rows = robustness_eval(params, bench, seed=cfg.seed, config_hash=digest)
        _write_ablation(out, kind, digest, cfg.seed, [dataclasses.asdict(r) for r in rows],
                        robustness_table_text(rows))
    else:
        # roicrop: train the fixed-beta baseline and the crop variant, then compare
        # against the adaptive checkpoint (trained here if none exists yet), all
        # on the train.subsets quadruples
        examples = train_examples(bench, bench.train_quads_of(train_cfg.subsets))
        baseline = ModelParams(cfg.model, bench.encoders, seed=cfg.seed)
        train(baseline, examples, dataclasses.replace(train_cfg, fixed_beta=0.0))
        _, roi_report = roi_crop_baseline(bench, cfg.model, train_cfg,
                                          model_seed=cfg.seed, config_hash=digest)
        ckpt_path = _ckpt_path(cfg, ckpt)
        if ckpt_path.is_file():
            adaptive, _ = load_checkpoint(ckpt_path)
        else:
            adaptive = ModelParams(cfg.model, bench.encoders, seed=cfg.seed)
            train(adaptive, examples, train_cfg)
        named = [
            ("baseline-beta0", evaluate_model(baseline, bench, config_hash=digest, seed=cfg.seed)),
            ("roi-crop", roi_report),
            ("adaptive", evaluate_model(adaptive, bench, config_hash=digest, seed=cfg.seed)),
        ]
        _write_ablation(out, kind, digest, cfg.seed,
                        [{"label": label, "metrics": rep.to_dict()} for label, rep in named],
                        metrics_table_text(("model",), [((label,), rep) for label, rep in named]))
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

    def forward():
        fq = [query_representation(ex.query, params)[0] for ex in examples]
        ft = [target_representation(ex.target_patches, params) for ex in examples]
        return contrastive_loss(concat_rows(fq), concat_rows(ft), params.tau)

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


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_run_config(args.config, seed=args.seed, out=args.out)
        if args.command == "gen":
            return cmd_gen(cfg)
        if args.command == "train":
            return cmd_train(cfg, _parse_subsets(args.subsets), args.checkpoint)
        if args.command == "eval":
            return cmd_eval(cfg, _parse_subsets(args.subsets), args.checkpoint)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.kind, _parse_betas(args.betas), args.checkpoint)
        return cmd_gradcheck(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FocalCirError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
