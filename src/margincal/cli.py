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
from .errors import MarginCalError
from .margins import compute_margins, read_margins_csv, write_margins_csv
from .metrics import lower_bound_report, write_metrics_csv
from .segdata import (
    FEATURE_DIM,
    MaskBatch,
    SynthConfig,
    accumulate_stats,
    generate_synthetic,
    read_mask_pgm,
    read_stats_csv,
    write_image_pgm,
    write_mask_pgm,
    write_stats_csv,
)
from .trainer import (
    PixelMLP,
    TrainConfig,
    evaluate,
    forward,
    load_model,
    save_model,
    train,
    write_train_log_csv,
)
from .losses import LOSS_NAMES


def _add_geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=64)
    parser.add_argument("--height", type=int, default=64)
    parser.add_argument("--k-classes", type=int, default=3)
    parser.add_argument(
        "--ratios", type=str, default="0.90,0.07,0.03",
        help="comma-separated per-class pixel fractions (class 0 = background)",
    )
    parser.add_argument("--noise-sigma", type=float, default=0.1)


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    _add_geometry_flags(parser)
    parser.add_argument("--data-seed", type=int, default=0)
    parser.add_argument("--train-images", type=int, default=200)
    parser.add_argument("--val-images", type=int, default=50)


def _parse_ratios(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def _synth_config(args, seed: int, n_images: int) -> SynthConfig:
    return SynthConfig(
        seed=seed,
        width=args.width,
        height=args.height,
        n_images=n_images,
        k_classes=args.k_classes,
        target_ratios=_parse_ratios(args.ratios),
        noise_sigma=args.noise_sigma,
    )


def _make_splits(args):
    train_cfg = _synth_config(args, args.data_seed, args.train_images)
    val_cfg = _synth_config(args, args.data_seed + 1, args.val_images)
    return generate_synthetic(train_cfg), generate_synthetic(val_cfg)


def _cmd_gen(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _synth_config(args, args.seed, args.n_images)
    features, masks = generate_synthetic(cfg)
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


def _trained_model(args, margins_needed: bool):
    (train_feats, train_masks), (val_feats, val_masks) = _make_splits(args)
    stats = accumulate_stats(train_masks, args.k_classes)
    margins = None
    if margins_needed:
        margins = compute_margins(stats, tau=args.tau, upsilon=args.upsilon)
    cfg = TrainConfig(
        loss_name=args.loss,
        epochs=args.epochs,
        batch_images=args.batch_images,
        learning_rate=args.lr,
        momentum=args.momentum,
        seed=args.seed,
        eval_every=args.eval_every,
        hidden=args.hidden,
    )
    if args.init_from:
        model = load_model(args.init_from)
    else:
        model = PixelMLP.init(FEATURE_DIM, cfg.hidden, args.k_classes, seed=cfg.seed)
    model, log = train(
        model, train_feats, train_masks, cfg,
        margins=margins, val_features=val_feats, val_masks=val_masks,
    )
    return model, log, (val_feats, val_masks)


def _cmd_train(args) -> int:
    model, log, _ = _trained_model(args, args.loss == "margin_calibration")
    if args.out_model:
        save_model(model, args.out_model)
    if args.log_csv:
        write_train_log_csv(log, args.log_csv)
    final = log.records[-1]
    print(
        f"epoch {final.epoch}: train_loss={final.train_loss:.6g} "
        f"train_miou={final.train_miou:.6g} val_miou={final.val_miou:.6g}"
    )
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    (train_feats, train_masks), (val_feats, val_masks) = _make_splits(args)
    feats, masks = (train_feats, train_masks) if args.split == "train" else (
        val_feats, val_masks,
    )
    if args.margins:
        margins = read_margins_csv(args.margins)
        report = lower_bound_report(forward(model, feats), masks, margins)
    else:
        report = evaluate(model, feats, masks)
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
    writer.writerow(["loss_name", "max_rel_err", "n_probes"])
    worst = 0.0
    for name in names:
        result = gradcheck_mod.check_loss_gradient(name, args.seed, args.batches)
        writer.writerow([result.loss_name, f"{result.max_rel_err:.12g}", result.n_probes])
        worst = max(worst, result.max_rel_err)
    if worst > args.tol:
        print(f"gradient check failed: {worst:.3g} > tol {args.tol:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    taus = [float(t) for t in args.tau_grid.split(",")]
    upsilons = [float(u) for u in args.upsilon_grid.split(",")]
    rows = []
    for tau in taus:
        for upsilon in upsilons:
            cell = argparse.Namespace(**vars(args))
            cell.tau, cell.upsilon = tau, upsilon
            cell.loss = "margin_calibration"
            try:
                _, log, _ = _trained_model(cell, margins_needed=True)
                val_miou = f"{log.records[-1].val_miou:.12g}"
            except MarginCalError as exc:
                print(f"cell tau={tau} upsilon={upsilon} failed: {exc}", file=sys.stderr)
                val_miou = "nan"
            rows.append([f"{tau:.12g}", f"{upsilon:.12g}", val_miou])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "upsilon", "val_miou"])
        writer.writerows(rows)
    print(f"wrote {len(rows)} sweep cells -> {args.out}")
    return 0


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--batch-images", type=int, default=25)
    parser.add_argument("--lr", type=float, default=0.1)
    parser.add_argument("--momentum", type=float, default=0.9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tau", type=float, default=10.0)
    parser.add_argument("--upsilon", type=float, default=1.0)
    parser.add_argument("--eval-every", type=int, default=25)
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
    p.add_argument("--tau", type=float, default=10.0)
    p.add_argument("--upsilon", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_margins)

    p = sub.add_parser("train", help="train the per-pixel model on synthetic data")
    p.add_argument("--loss", choices=LOSS_NAMES, default="margin_calibration")
    p.add_argument("--out-model", type=str, default="")
    p.add_argument("--log-csv", type=str, default="")
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

    p = sub.add_parser("sweep", help="tau x upsilon grid of train+eval runs")
    p.add_argument("--tau-grid", required=True)
    p.add_argument("--upsilon-grid", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MarginCalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
