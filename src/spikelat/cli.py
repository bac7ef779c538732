"""Command-line entry points: train, eval, analyze, encode-demo.

Exit codes: 0 on success, 2 for usage or configuration problems, 3 for
runtime failures (unreadable files, aborted training, bad checkpoints).

A training run writes three artifacts into its run directory: the resolved
configuration snapshot, the per-epoch metrics table, and the final
checkpoint. None of them embeds a timestamp, so re-running the same
configuration at the same output path reproduces the same bytes.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    model_energy,
    robustness_eval,
    temporal_similarity,
    write_energy_csv,
    write_robustness_csv,
    write_robustness_gnuplot,
    write_similarity_csv,
    write_similarity_gnuplot,
)
from .autodiff import Tensor
from .config import load_config, section, snapshot
from .data import load_idx, synth_blobs, synth_digits
from .encoder import spike_time
from .errors import ContractError, SpikelatError
from .lif import LifConfig
from .network import build_model, preset_spec
from .trainer import (
    TrainConfig,
    check_datasets,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)


def _synth(cfg: dict, count, seed):
    source = cfg["data.source"]
    if source == "blobs":
        return synth_blobs(
            count,
            classes=cfg["data.classes"],
            size=cfg["data.size"],
            noise=cfg["data.noise"],
            jitter=cfg["data.jitter"],
            label_noise=cfg["data.label_noise"],
            seed=seed,
        )
    return synth_digits(
        count,
        size=max(16, cfg["data.size"]),
        noise=cfg["data.noise"],
        seed=seed,
    )


def _idx_split(cfg: dict, split):
    images, labels = f"data.{split}_images", f"data.{split}_labels"
    for key in (images, labels):
        if not cfg[key]:
            raise ContractError(f"{key} is required when data.source=idx")
    return load_idx(cfg[images], cfg[labels])


def _dataset(cfg: dict, split):
    """The ``train`` or ``eval`` split; a synthetic eval split has its own seed."""
    if cfg["data.source"] == "idx":
        return _idx_split(cfg, split)
    seed = cfg["data.seed"] + (1000 if split == "eval" else 0)
    return _synth(cfg, cfg[f"data.{split}_count"], seed)


def _model_spec(cfg: dict, ds):
    return preset_spec(
        cfg["model.preset"],
        input_shape=tuple(ds.images.shape[1:]),
        classes=ds.classes,
        timesteps=cfg["model.timesteps"],
        hidden=cfg["model.hidden"],
        width=cfg["model.width"],
        encoder_channels=cfg["model.encoder_channels"],
        lif=LifConfig(**section(cfg, "lif")),
    )


def _default_run_dir(cfg: dict) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{cfg['model.preset']}-{stamp}-s{cfg['train.seed']}"


def cmd_train(args, cfg: dict) -> int:
    train_ds, eval_ds = _dataset(cfg, "train"), _dataset(cfg, "eval")
    spec = _model_spec(cfg, train_ds)
    model = build_model(spec, seed=cfg["model.seed"])
    tcfg = TrainConfig(**section(cfg, "train"))
    check_datasets(model, train_ds, eval_ds)
    out = Path(args.out) if args.out else _default_run_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(snapshot(cfg))
    history = train(model, train_ds, eval_ds, tcfg, log=print)
    write_metrics_csv(out / "metrics.csv", history)
    save_checkpoint(out / "model.ckpt", model.state_arrays())
    last = history[-1]
    print(f"final accuracy {last.accuracy:.10g}")
    print(f"final mean_exit {last.mean_exit:.10g}")
    print(f"run_dir {out}")
    return 0


def _eval_setup(args, cfg: dict):
    """The eval split and the checkpoint's model for it; an empty split is
    refused before the checkpoint is read."""
    ds = _dataset(cfg, "eval")
    if len(ds) == 0:
        raise ContractError("the eval split holds no images")
    model = load_checkpoint(args.checkpoint, _model_spec(cfg, ds), seed=cfg["model.seed"])
    return ds, model


def cmd_eval(args, cfg: dict) -> int:
    ds, model = _eval_setup(args, cfg)
    res = evaluate(model, ds, batch_size=cfg["train.batch_size"], decode=cfg["decode.mode"])
    print(f"accuracy {res.accuracy:.10g}")
    print(f"mean_exit {res.mean_exit:.10g}")
    print(f"sparsity {res.sparsity:.10g}")
    print(f"fallback_rate {res.fallback_rate:.10g}")
    return 0


def cmd_analyze(args, cfg: dict) -> int:
    if cfg["analyze.batch"] < 1:
        raise ContractError(f"analyze.batch must be >= 1, got {cfg['analyze.batch']}")
    ds, model = _eval_setup(args, cfg)

    # Every report is computed before anything is printed or written, so a
    # run that fails leaves no partial report directory behind.
    batch = min(cfg["analyze.batch"], len(ds))
    rec = model.forward(Tensor(ds.images[:batch]), training=False)
    energy = model_energy(model, rec)
    sims = {name: temporal_similarity(frames)
            for name, frames in rec.stage_spikes.items()}
    rob = None
    if cfg["analyze.robustness"]:
        rob = robustness_eval(model, ds, batch_size=cfg["analyze.batch"],
                              seed=cfg["analyze.seed"])

    out = Path(args.out) if args.out else Path(args.checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    write_energy_csv(out / "energy.csv", energy)
    print(f"energy_ann_pj {energy.ann_pj:.10g}")
    print(f"energy_snn_pj {energy.snn_pj:.10g}")
    print(f"energy_ratio {energy.ratio:.10g}")
    for name, sim in sims.items():
        write_similarity_csv(out / f"similarity_{name}.csv", sim)
        if name == "enc":
            write_similarity_gnuplot(out / "similarity_enc.dat",
                                     out / "similarity_enc.gp", sim)
    if rob is not None:
        write_robustness_csv(out / "robustness.csv", rob)
        write_robustness_gnuplot(out / "robustness.dat",
                                 out / "robustness.gp", rob)
        print(f"clean_error {rob.clean_error:.10g}")
        print(f"mce {rob.mce:.10g}")
    print(f"out_dir {out}")
    return 0


def cmd_encode_demo(args, cfg: dict) -> int:
    ds = _dataset(cfg, "eval")
    if not 0 <= args.index < len(ds):
        raise ContractError(
            f"--index {args.index} out of range for {len(ds)} images"
        )
    img = ds.images[args.index, 0]
    steps = cfg["model.timesteps"]
    t_s = spike_time(img, steps)
    print(f"image {args.index} label {ds.labels[args.index]}")
    print(f"spike step per pixel (window {steps}, bright fires first):")
    width = len(str(steps))
    for row in t_s:
        print(" ".join(f"{v:>{width}d}" for v in row))
    counts = [(t_s == t).sum() for t in range(1, steps + 1)]
    for t, n in enumerate(counts, start=1):
        print(f"step {t}: {n} spikes")
    total = int(np.sum(counts))
    print(f"total {total} spikes for {img.size} pixels")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelat",
        description="Train and analyze latency-coded spiking classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key (repeatable)")

    p = sub.add_parser("train", help="train a model and write a run directory")
    common(p)
    p.add_argument("--out", help="run directory (default: runs/<name>)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the eval split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze",
                       help="energy, temporal, and robustness reports")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="report directory (default: beside checkpoint)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("encode-demo",
                       help="show the spike encoding of one image")
    common(p)
    p.add_argument("--index", type=int, default=0)
    p.set_defaults(func=cmd_encode_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
    except (SpikelatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except (SpikelatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
