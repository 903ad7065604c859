"""Command-line entry point: dataset generation, stats, margins, training,
evaluation, bound analysis, gradient checking and hyper-parameter sweeps.

Exit codes: 0 success, 1 domain error (vacuous bound, NaN loss, bad data),
2 usage error.  Every command writes only to paths named in its flags.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import bound as bound_mod
from . import gradcheck as gradcheck_mod
from .errors import ConfigError, MarginCalError
from .margins import DEFAULT_TAU, DEFAULT_UPSILON, compute_margins
from .margins import read_margins_csv, write_margins_csv
from .metrics import write_metrics_csv
from .segdata import (
    FEATURE_DIM,
    MaskBatch,
    SynthConfig,
    accumulate_stats,
    generate_synthetic,
    read_mask_pgm,
    read_stats_csv,
    write_csv,
    write_image_pgm,
    write_mask_pgm,
    write_stats_csv,
)
from .trainer import (
    PixelMLP,
    TrainConfig,
    evaluate,
    load_model,
    save_model,
    train,
    write_train_log_csv,
)
from .losses import LOSS_NAMES


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _sweep_eval_every(text: str) -> int:
    if text.isdecimal() and int(text) > 0:
        return int(text)
    raise argparse.ArgumentTypeError(f"must be positive (each row is a val mIoU), got {text!r}")


def _add_geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--k-classes", type=int, default=3)
    parser.add_argument(
        "--ratios", type=_float_list, default="0.90,0.07,0.03",
        help="comma-separated per-class pixel fractions (class 0 = background)",
    )
    parser.add_argument("--noise-sigma", type=float, default=0.1)


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    _add_geometry_flags(parser)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--train-images", type=int, default=200)
    parser.add_argument("--val-images", type=int, default=50)


def _synth_config(args, seed: int, n_images: int) -> SynthConfig:
    return SynthConfig(
        seed=seed, width=args.width, height=args.height, n_images=n_images,
        k_classes=args.k_classes, target_ratios=args.ratios, noise_sigma=args.noise_sigma,
    )


def _split(args, name: str):
    """(features, masks) of the "train" split (seed --data-seed) or "val" (+1)."""
    seed = args.data_seed + (name == "val")
    return generate_synthetic(_synth_config(args, seed, getattr(args, f"{name}_images")))


def _cmd_gen(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    features, masks = generate_synthetic(_synth_config(args, args.seed, args.n_images))
    ppi = masks.pixels_per_image
    for i in range(masks.n_images):
        single = MaskBatch(
            labels=masks.labels[i * ppi : (i + 1) * ppi],
            width=masks.width, height=masks.height, n_images=1,
        )
        write_mask_pgm(single, out / f"mask_{i:04d}.pgm")
        write_image_pgm(
            features.features[i * ppi : (i + 1) * ppi, 2],
            masks.width, masks.height, out / f"image_{i:04d}.pgm",
        )
    print(f"wrote {masks.n_images} mask/image pairs to {out}")
    return 0


def _mask_paths(entries) -> list[Path]:
    paths: list[Path] = []
    for entry in entries:
        p = Path(entry)
        if p.is_dir():
            found = sorted(p.glob("mask_*.pgm")) or sorted(p.glob("*.pgm"))
            paths.extend(found)
        else:
            paths.append(p)
    return paths


def _cmd_stats(args) -> int:
    masks = [read_mask_pgm(p) for p in _mask_paths(args.masks)]
    stats = accumulate_stats(masks, args.k_classes)
    write_stats_csv(stats, args.out)
    print(f"counted {stats.n_total} pixels over {len(masks)} masks -> {args.out}")
    return 0


def _cmd_margins(args) -> int:
    stats = read_stats_csv(args.stats)
    margins = compute_margins(stats, tau=args.tau, upsilon=args.upsilon)
    write_margins_csv(margins, stats, args.out)
    print(f"wrote margin-offsets for {stats.k_classes} classes -> {args.out}")
    return 0


def _training_runs(args, loss_name: str):
    """Build what all runs of one command share (config, initial model, both
    splits, the train split's label counts) and return
    `train_once(tau, upsilon) -> (model, log)`."""
    cfg = TrainConfig(
        loss_name=loss_name, epochs=args.epochs, batch_images=args.batch_images,
        learning_rate=args.lr, momentum=args.momentum, seed=args.seed,
        eval_every=args.eval_every,
    )
    init = (load_model(args.init_from) if args.init_from
            else PixelMLP.init(FEATURE_DIM, args.hidden, args.k_classes, seed=cfg.seed))
    if (init.d, init.k_classes) != (FEATURE_DIM, args.k_classes):
        raise ConfigError(f"--init-from model maps {init.d} features to {init.k_classes} "
                          f"classes; the data has {FEATURE_DIM} and {args.k_classes}")
    if init.hidden != args.hidden:
        raise ConfigError(f"--init-from model has hidden width {init.hidden}; "
                          f"--hidden is {args.hidden}")
    train_feats, train_masks = _split(args, "train")
    val_feats, val_masks = _split(args, "val")
    stats = accumulate_stats(train_masks, args.k_classes)

    def train_once(tau: float, upsilon: float):
        margins = (compute_margins(stats, tau=tau, upsilon=upsilon)
                   if loss_name == "margin_calibration" else None)
        # `train` updates parameters in place, so every run starts from a copy
        model = PixelMLP(*(p.copy() for p in init.params()))
        return train(model, train_feats, train_masks, cfg, margins=margins,
                     val_features=val_feats, val_masks=val_masks)

    return train_once


def _cmd_train(args) -> int:
    model, log = _training_runs(args, args.loss)(args.tau, args.upsilon)
    if args.out_model:
        save_model(model, args.out_model)
    if args.log_csv:
        write_train_log_csv(log, args.log_csv)
    if not log.records:
        print(f"trained {args.epochs} epochs; no evaluation ran (--eval-every 0)")
        return 0
    final = log.records[-1]
    print(
        f"epoch {final.epoch}: train_loss={final.train_loss:.6g} "
        f"train_miou={final.train_miou:.6g} val_miou={final.val_miou:.6g}"
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    feats, masks = _split(args, args.split)
    margins = read_margins_csv(args.margins) if args.margins else None
    report = evaluate(model, feats, masks, margins)
    write_metrics_csv(report, args.out)
    print(f"miou={report.miou:.6g} pixel_acc={report.pixel_accuracy:.6g} -> {args.out}")
    return 0


def _cmd_bound(args) -> int:
    margins, file_stats = read_margins_csv(args.margins, with_stats=True)
    stats = read_stats_csv(args.stats) if args.stats else file_stats
    cfg = bound_mod.BoundConfig(
        stats=stats,
        margins=margins,
        m_pixels=args.m_pixels,
        eta=args.eta,
        c_theta=args.c_theta,
    )
    result = bound_mod.evaluate_epsilon(cfg)
    bound_mod.write_bound_csv(result, args.out)
    invalid = int((~result.valid_per_class).sum())
    print(
        f"eps={result.eps:.6g} sigma={result.sigma:.6g} "
        f"({invalid} vacuous classes) -> {args.out}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    names = LOSS_NAMES if args.loss == "all" else (args.loss,)
    writer = csv.writer(sys.stdout)
    worst = 0.0
    for i, name in enumerate(names):
        result = gradcheck_mod.check_loss_gradient(name, args.seed, args.batches)
        if i == 0:  # after the first check, so a failed one leaves stdout empty
            writer.writerow(["loss_name", "max_rel_err", "n_probes"])
        writer.writerow([result.loss_name, f"{result.max_rel_err:.12g}", result.n_probes])
        worst = max(worst, result.max_rel_err)
    if worst > args.tol:
        print(f"gradient check failed: {worst:.3g} > tol {args.tol:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    """One margin-calibration run per (tau, upsilon) cell, all on one dataset;
    a cell whose offsets or training fail records `nan`."""
    train_cell = _training_runs(args, "margin_calibration")
    rows = []
    for tau in args.tau_grid:
        for upsilon in args.upsilon_grid:
            try:
                _, log = train_cell(tau, upsilon)
                val_miou = log.records[-1].val_miou
            except MarginCalError as exc:
                print(f"cell tau={tau} upsilon={upsilon} failed: {exc}", file=sys.stderr)
                val_miou = float("nan")
            rows.append([tau, upsilon, val_miou])
    write_csv(args.out, ["tau", "upsilon", "val_miou"], rows)
    print(f"wrote {len(rows)} sweep cells -> {args.out}")
    return 0


def _add_offset_flags(parser: argparse.ArgumentParser) -> None:
    """The tau and upsilon of one set of margin-offsets (sweep takes grids)."""
    parser.add_argument("--tau", type=float, default=DEFAULT_TAU)
    parser.add_argument("--upsilon", type=float, default=DEFAULT_UPSILON)


def _add_train_flags(parser: argparse.ArgumentParser, eval_every=int) -> None:
    # a dataclass field's default is also its class attribute
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--batch-images", type=int, default=TrainConfig.batch_images)
    parser.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    parser.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    parser.add_argument("--seed", type=int, default=TrainConfig.seed)
    parser.add_argument("--eval-every", type=eval_every, default=TrainConfig.eval_every)
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--init-from", type=str, default="")
    _add_dataset_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margincal",
        description="Margin calibration toolkit for IoU-oriented segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic PGM dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-images", type=int, default=100)
    _add_geometry_flags(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", help="accumulate label statistics from PGM masks")
    p.add_argument("--masks", nargs="+", required=True, help="PGM files or directories")
    p.add_argument("--k-classes", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("margins", help="compute margin-offsets from a stats CSV")
    p.add_argument("--stats", required=True)
    _add_offset_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_margins)

    p = sub.add_parser("train", help="train the per-pixel model on synthetic data")
    p.add_argument("--loss", choices=LOSS_NAMES, default=TrainConfig.loss_name)
    p.add_argument("--out-model", type=str, default="")
    p.add_argument("--log-csv", type=str, default="")
    _add_offset_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on synthetic data")
    p.add_argument("--model", required=True)
    p.add_argument("--margins", type=str, default="")
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--out", required=True)
    _add_dataset_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bound", help="evaluate the generalization-gap bound")
    p.add_argument("--margins", required=True)
    p.add_argument("--stats", type=str, default="")
    p.add_argument("--m-pixels", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--c-theta", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("gradcheck", help="finite-difference check of loss gradients")
    p.add_argument("--loss", choices=LOSS_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    # no abbreviations: `--tau` would otherwise be taken as `--tau-grid`
    p = sub.add_parser("sweep", help="tau x upsilon grid of train+eval runs",
                       allow_abbrev=False)
    p.add_argument("--tau-grid", type=_float_list, required=True)
    p.add_argument("--upsilon-grid", type=_float_list, required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p, eval_every=_sweep_eval_every)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (MarginCalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
