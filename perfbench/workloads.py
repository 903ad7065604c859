"""The benchmark's workloads: seeded set-up, timed body and output checks.

Every input is generated from the seed.  ``body`` is the timed part of one
iteration and calls margincal through module attributes (``trainer.train``,
``cli.run``, ...) so that the traced run's wrappers see each call.  ``check``
turns the raw outputs into a failure list per operation; an operation that
raised and one whose output is wrong count the same way against ``ok_share``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Optional

import numpy as np

from margincal import bound, cli, losses, margins, metrics, segdata, trainer
from margincal.errors import VacuousBoundError
from margincal.segdata import FEATURE_DIM

#: floats recorded as references must agree to this relative tolerance; it
#: admits a reordered sum but not one pixel whose predicted label changed.
REF_REL_TOL = 1e-9
#: the CLI's default gradient-check tolerance
GRADCHECK_TOL = 1e-4
#: a margin run has left the all-background state when its val mIoU beats
#: the all-background prediction's mIoU by this much
LEAVE_BACKGROUND = 0.05

TOY_RATIOS = (0.90, 0.07, 0.03)
HIDDEN = 16


@dataclass
class Outcome:
    """Checked result of one iteration."""

    failures: dict  # operation -> list of what went wrong; empty when it passed
    observed: dict  # operation -> values compared against the seed references
    work: float  # units of the workload's rate that completed
    work_s: Optional[float] = None  # seconds the work took; None means the whole body
    notes: dict = field(default_factory=dict)


def describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def same(got, want) -> bool:
    """Reference equality: exact for counts and strings, REF_REL_TOL for floats."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            same(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return False
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=REF_REL_TOL, abs_tol=1e-12)
    return type(got) is type(want) and got == want


def apply_references(outcome: Outcome, references: dict) -> None:
    """Fail every operation whose observed values differ from its reference."""
    for op, want in references.items():
        got = outcome.observed.get(op)
        if not same(got, want):
            outcome.failures.setdefault(op, []).append(
                f"differs from the recorded reference: got {got!r}, want {want!r}"
            )


def _toy(seed: int, size: int, n_images: int, k: int, ratios) -> segdata.SynthConfig:
    return segdata.SynthConfig(seed=seed, width=size, height=size, n_images=n_images,
                               k_classes=k, target_ratios=ratios, noise_sigma=0.1)


def _capture_run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Ablation:
    """Criterion-09 shape: margin calibration vs cross-entropy from one seed."""

    name: ClassVar[str] = "ablation"
    rate_name: ClassVar[str] = "train_px_per_s"
    rate_unit: ClassVar[str] = "pixel-epochs/s"
    loss_names: ClassVar[tuple] = ("margin_calibration", "cross_entropy")
    batch_images: ClassVar[int] = 50  # 204,800 px per step, the ROADMAP's fixed shape

    train_images: int = 200
    val_images: int = 50
    epochs: int = 20

    def setup(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.train_data = segdata.generate_synthetic(_toy(seed, 64, self.train_images, 3, TOY_RATIOS))
        self.val_data = segdata.generate_synthetic(_toy(seed + 1, 64, self.val_images, 3, TOY_RATIOS))
        stats = segdata.accumulate_stats(self.train_data[1], 3)
        self.margins = margins.compute_margins(stats, tau=10.0, upsilon=1.0)
        self.init = trainer.PixelMLP.init(FEATURE_DIM, HIDDEN, 3, seed=seed)

    def body(self) -> dict:
        raw = {}
        for loss in self.loss_names:
            cfg = trainer.TrainConfig(loss_name=loss, epochs=self.epochs,
                                      batch_images=self.batch_images, learning_rate=0.1,
                                      momentum=0.9, seed=self.seed, eval_every=0)
            model = trainer.PixelMLP(*(p.copy() for p in self.init.params()))
            started = time.perf_counter()
            try:
                model, _ = trainer.train(model, *self.train_data, cfg, margins=self.margins)
            except Exception as exc:  # a failed operation; check() reports it
                raw[loss] = (exc, time.perf_counter() - started, None)
                continue
            train_s = time.perf_counter() - started
            try:
                report = trainer.evaluate(model, *self.val_data)
            except Exception as exc:  # a failed operation; check() reports it
                report = exc
            raw[loss] = (model, train_s, report)
        return raw

    def check(self, raw: dict) -> Outcome:
        val_labels = self.val_data[1].labels
        background_miou = float(np.mean(val_labels == 0)) / 3
        px_epochs = self.train_data[1].n_pixels * self.epochs
        failures, observed, val_miou = {}, {}, {}
        work = work_s = 0.0
        for loss, (model, train_s, report) in raw.items():
            train_op, eval_op = f"train:{loss}", f"eval:{loss}"
            work_s += train_s
            if isinstance(model, Exception):
                failures[train_op] = [describe(model)]
                failures[eval_op] = ["not run: training failed"]
                continue
            work += px_epochs
            failures[train_op] = [] if all(np.isfinite(p).all() for p in model.params()) else [
                "non-finite parameters after training"]
            if isinstance(report, Exception):
                failures[eval_op] = [describe(report)]
                continue
            problems = []
            if not 0.0 <= report.miou <= 1.0:
                problems.append(f"val mIoU {report.miou!r} outside [0, 1]")
            if loss == "margin_calibration" and report.miou < background_miou + LEAVE_BACKGROUND:
                problems.append(
                    f"val mIoU {report.miou:.4f} has not left the all-background "
                    f"state (mIoU {background_miou:.4f})")
            failures[eval_op] = problems
            observed[eval_op] = float(report.miou)
            val_miou[loss] = float(report.miou)
        notes = {"val_miou": val_miou, "all_background_miou": background_miou,
                 "train_s": {loss: r[1] for loss, r in raw.items()}}
        return Outcome(failures, observed, work, work_s, notes)


@dataclass
class EvalBound:
    """Score a fixed initial model, take the IoU lower bound, evaluate the gap."""

    name: ClassVar[str] = "eval_bound"
    rate_name: ClassVar[str] = "eval_px_per_s"
    rate_unit: ClassVar[str] = "px/s"

    n_images: int = 1000

    def setup(self, seed: int, out_dir: Path) -> None:
        self.features = self.masks = None  # release the last set-up's arrays first
        self.features, self.masks = segdata.generate_synthetic(_toy(seed, 64, self.n_images, 3, TOY_RATIOS))
        self.stats = segdata.accumulate_stats(self.masks, 3)
        self.margins = margins.compute_margins(self.stats, tau=10.0, upsilon=1.0)
        self.bound_cfg = bound.BoundConfig(stats=self.stats, margins=self.margins,
                                           m_pixels=256, eta=0.05, c_theta=0.05)
        self.model = trainer.PixelMLP.init(FEATURE_DIM, HIDDEN, 3, seed=seed)

    def body(self):
        try:
            scores = trainer.forward(self.model, self.features)
            report = metrics.lower_bound_report(scores, self.masks, self.margins, self.stats)
            try:
                gap = bound.evaluate_epsilon(self.bound_cfg)
            except VacuousBoundError as exc:  # a legitimate answer, recorded as returned
                gap = exc
        except Exception as exc:  # a failed operation; check() reports it
            return exc
        return scores, report, gap

    def check(self, raw) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome({"eval": [describe(raw)]}, {}, 0.0)
        scores, report, gap = raw
        k = scores.k_classes
        valid = self.masks.labels != self.masks.ignore_index
        n = int(valid.sum())
        truth = self.masks.labels[valid].astype(np.int64)
        pred = np.argmax(scores.scores[valid], axis=1)
        matrix = np.bincount(truth * k + pred, minlength=k * k).reshape(k, k)
        tp = np.diag(matrix)
        fn = matrix.sum(axis=1) - tp
        fp = matrix.sum(axis=0) - tp

        def counts(p):
            return np.rint(np.asarray(p) * n).astype(np.int64)

        problems = []
        if not (np.array_equal(counts(report.p_k), tp + fn)
                and np.array_equal(counts(report.p_k0), fn)
                and np.array_equal(counts(report.p_0k), fp)
                and int(counts(report.pixel_accuracy)) == int(tp.sum())):
            problems.append("confusion counts differ from an independent argmax/bincount recount")
        if report.miou_lower is None or not math.isfinite(report.miou_lower):
            problems.append(f"miou_lower is {report.miou_lower!r}")
        if report.bound_scope != "dataset":
            problems.append(f"bound_scope {report.bound_scope!r} on a full-split evaluation")
        seen = {"miou": float(report.miou), "miou_lower": float(report.miou_lower)}
        if isinstance(gap, VacuousBoundError):
            seen["vacuous"] = str(gap)
        else:
            seen["eps"] = float(gap.eps)
            seen["valid"] = [bool(v) for v in gap.valid_per_class]
            if not math.isfinite(gap.eps) or gap.eps <= 0:
                problems.append(f"eps {gap.eps!r} with valid classes {seen['valid']}")
        return Outcome({"eval": problems}, {"eval": seen}, float(n), notes=seen)


@dataclass
class Sweep:
    """``margincal sweep`` over a 3x3 tau x upsilon grid of criterion-10 cells."""

    name: ClassVar[str] = "sweep"
    rate_name: ClassVar[str] = "sweep_cells_per_s"
    rate_unit: ClassVar[str] = "cells/s"
    taus: ClassVar[tuple] = (2.0, 10.0, 50.0)
    upsilons: ClassVar[tuple] = (0.5, 1.0, 2.0)
    batch_images: ClassVar[int] = 250

    train_images: int = 1000
    val_images: int = 400
    epochs: int = 5

    def setup(self, seed: int, out_dir: Path) -> None:
        self.out = out_dir / f"sweep-seed{seed}.csv"
        self.out.unlink(missing_ok=True)
        self.argv = [
            "sweep", "--tau-grid", ",".join(f"{t:g}" for t in self.taus),
            "--upsilon-grid", ",".join(f"{u:g}" for u in self.upsilons),
            "--out", str(self.out), "--epochs", str(self.epochs),
            "--batch-images", str(self.batch_images),
            "--eval-every", "5", "--width", "16", "--height", "16", "--k-classes", "2",
            "--ratios", "0.9,0.1", "--train-images", str(self.train_images),
            "--val-images", str(self.val_images), "--data-seed", str(seed), "--seed", str(seed),
        ]

    def body(self):
        return _capture_run(self.argv)

    def check(self, raw) -> Outcome:
        rc, _, stderr = raw
        rows = []
        if self.out.exists():
            with open(self.out, newline="") as fh:
                rows = list(csv.reader(fh))
            self.out.unlink()
        expected = [(f"{t:.12g}", f"{u:.12g}") for t in self.taus for u in self.upsilons]
        shape_ok = rows[:1] == [["tau", "upsilon", "val_miou"]] and [
            tuple(r[:2]) for r in rows[1:]] == expected
        by_cell = {tuple(r[:2]): r for r in rows[1:] if len(r) == 3}
        failures, observed = {}, {}
        for cell in expected:
            op = f"tau={cell[0]},upsilon={cell[1]}"
            row = by_cell.get(cell)
            problems = [] if rc == 0 else [f"sweep exited {rc}: {stderr.strip()[-300:]}"]
            if not shape_ok:
                problems.append(f"CSV is not the 9-cell grid in order: {rows!r}"[:300])
            if row is None:
                problems.append("no CSV row")
            else:
                observed[op] = ",".join(row)
                value = float(row[2])
                if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                    problems.append(f"val_miou {row[2]}")
            failures[op] = problems
        return Outcome(failures, observed, float(len(by_cell)), notes={"rows": rows[1:]})


@dataclass
class GradcheckAll:
    """``margincal gradcheck --loss all``: analytic vs central-difference gradients."""

    name: ClassVar[str] = "gradcheck_all"
    rate_name: ClassVar[str] = "gradcheck_calls_per_s"
    rate_unit: ClassVar[str] = "loss calls/s"
    pixels: ClassVar[int] = 16  # batch shape fixed inside margincal.gradcheck
    k_classes: ClassVar[int] = 3

    #: 5 batches (2,425 loss calls, ~0.2 s) instead of the CLI's 50 so that a run
    #: holds ~70 iterations: the median of many short iterations is steady on
    #: a machine whose speed swings by ~1.4x every few seconds.
    batches: int = 5

    def setup(self, seed: int, out_dir: Path) -> None:
        self.argv = ["gradcheck", "--loss", "all", "--seed", str(seed),
                     "--batches", str(self.batches)]

    def calls_per_loss(self) -> int:
        return self.batches * (2 * self.pixels * self.k_classes + 1)

    def body(self):
        return _capture_run(self.argv)

    def check(self, raw) -> Outcome:
        rc, stdout, stderr = raw
        rows = list(csv.reader(io.StringIO(stdout)))
        by_loss = {r[0]: r for r in rows[1:] if len(r) == 3}
        failures, errors = {}, {}
        for loss in losses.LOSS_NAMES:
            row = by_loss.get(loss)
            if row is None:
                failures[loss] = [f"no CSV row (exit {rc}: {stderr.strip()[-200:]})"]
                continue
            err = float(row[1])
            errors[loss] = err
            problems = []
            if not (math.isfinite(err) and err <= GRADCHECK_TOL):
                problems.append(f"max_rel_err {row[1]} over tolerance {GRADCHECK_TOL:g}")
            if int(row[2]) != self.batches * self.pixels * self.k_classes:
                problems.append(f"n_probes {row[2]}")
            failures[loss] = problems
        if rc != 0 and not any(failures.values()):
            for problems in failures.values():
                problems.append(f"gradcheck exited {rc}: {stderr.strip()[-200:]}")
        work = float(len(errors) * self.calls_per_loss())
        return Outcome(failures, {}, work, notes={"max_rel_err": errors})


WORKLOAD_TYPES = {w.name: w for w in (Ablation, EvalBound, Sweep, GradcheckAll)}
