"""Confusion counting, IoU-family metrics, and the empirical lower bounds.

IoU is computed both from raw counts, TP/(TP+FP+FN), and from the empirical
probabilities, (P_k - P_k0)/(P_k + P_0k); the two must agree to 1e-12.  The
lower bound replaces the miss probabilities with their margin-loss envelopes:
IoU_lower_k = (P_k - l_k0)/(P_k + l_0k) where l_k0 sums the rho-margin loss
of the true-class margins and l_0k that of the negated background margins.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DegenerateError, NumericError, ShapeError
from .losses import (
    BLOCK_PX, ScoreBatch, _block_rows, _blocks, _check_margin_pair, _first_max, _lambda,
    _phi_sums,
)
from .margins import MarginOffsets
from .segdata import LabelStats, MaskBatch, write_csv
from .team import run_walk


@dataclass
class ConfusionCounts:
    """Exact per-class true-positive / false-positive / false-negative counts."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    total: int

    def __post_init__(self) -> None:
        self.tp = np.asarray(self.tp, dtype=np.int64)
        self.fp = np.asarray(self.fp, dtype=np.int64)
        self.fn = np.asarray(self.fn, dtype=np.int64)
        if np.any(self.tp < 0) or np.any(self.fp < 0) or np.any(self.fn < 0):
            raise DataError("confusion counts must be non-negative")
        if int(self.tp.sum()) > self.total:
            raise DataError("sum of true positives exceeds the evaluated total")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "ConfusionCounts":
        """Counts from a (K, K) matrix of (truth, prediction) pixel counts."""
        tp = np.diag(matrix).copy()
        return cls(tp=tp, fp=matrix.sum(axis=0) - tp, fn=matrix.sum(axis=1) - tp,
                   total=int(matrix.sum()))

    @property
    def k_classes(self) -> int:
        return self.tp.size


@dataclass
class MetricsReport:
    """Evaluation quantities for one prediction/label pairing.

    Classes absent from both truth and prediction get NaN IoU/DSC and are
    excluded from the means; ``present`` records which classes counted.
    The lower-bound fields stay None unless margin-offsets are given to
    ``lower_bound_report`` or ``trainer.evaluate``; ``bound_scope`` says if the
    1/N normalization used the whole dataset or (``evaluate``'s) the batch.
    """

    iou_per_class: np.ndarray
    dsc_per_class: np.ndarray
    miou: float
    pixel_accuracy: float
    p_k: np.ndarray
    p_k0: np.ndarray
    p_0k: np.ndarray
    present: np.ndarray
    iou_lower_per_class: Optional[np.ndarray] = None
    miou_lower: Optional[float] = None
    ell_k0: Optional[np.ndarray] = None
    ell_0k: Optional[np.ndarray] = None
    bound_scope: Optional[str] = None


def confusion(pred: MaskBatch, truth: MaskBatch, k_classes: int) -> ConfusionCounts:
    """Tally exact confusion counts, skipping pixels the truth marks as ignore."""
    if (pred.width, pred.height, pred.n_images) != (
        truth.width,
        truth.height,
        truth.n_images,
    ):
        raise ShapeError("prediction and truth masks have different shapes")
    valid = truth.labels != truth.ignore_index
    t = truth.labels[valid]
    p = pred.labels[valid]
    if t.size and (int(t.max()) >= k_classes or int(p.max()) >= k_classes):
        raise DataError(f"labels exceed k_classes={k_classes}")
    if t.size and (int(t.min()) < 0 or int(p.min()) < 0):  # t * K + p would count another cell
        raise DataError("labels below 0")
    code = t.astype(np.intp)  # the one pixel-length integer array: t*K + p
    code *= k_classes
    code += p
    matrix = np.bincount(code, minlength=k_classes * k_classes)
    return ConfusionCounts.from_matrix(matrix.reshape(k_classes, k_classes))


class _Counts:
    """The one walk from scores to counts, named ``what``.  ``scores(cols)``
    gives the (K, b) class-major scores of the pixel slice ``cols``: a
    ScoreBatch's columns (``lower_bound_report``), or a model's forward pass
    on the pixels' features (``trainer._model_scores``).  Each block takes
    its valid row from its own labels.  Block i's row is its (truth, prediction)
    count matrix, K x K and exact in float64, then with margin-offsets its K
    sums of phi(lam / rho_k0) and its K sums of phi(-lam / rho_0k)."""

    def __init__(self, scores, k_cls: int, y: MaskBatch, m: Optional[MarginOffsets],
                 what: str) -> None:
        self.scores, self.k_cls, self.y, self.m, self.what = scores, k_cls, y, m, what
        self.n_blocks = -(-y.n_pixels // BLOCK_PX)
        self.width = k_cls * k_cls + (0 if m is None else 2 * k_cls)

    def run(self, i: int, row: np.ndarray) -> None:
        k_cls = self.k_cls
        cols = slice(i * BLOCK_PX, (i + 1) * BLOCK_PX)
        labels = self.y.labels[cols]
        onehot, valid = _block_rows(labels, labels != self.y.ignore_index, k_cls)
        lam = _lambda(self.scores(cols))
        matrix = row[: k_cls * k_cls].reshape(k_cls, k_cls)
        np.matmul(onehot, _first_max(lam).T.astype(np.float64), out=matrix)
        if self.m is not None:
            sums = row[k_cls * k_cls :]
            sums[:] = 0.0
            _phi_sums(lam, onehot, valid, self.m, sums[:k_cls], sums[k_cls:])


def iou_report(counts: ConfusionCounts) -> MetricsReport:
    """IoU, DSC, pixel accuracy and the empirical probabilities from counts."""
    tp = counts.tp.astype(np.float64)
    fp = counts.fp.astype(np.float64)
    fn = counts.fn.astype(np.float64)
    total = float(counts.total)
    if total <= 0:
        raise DegenerateError("no evaluated pixels")

    union = tp + fp + fn
    present = union > 0
    iou = np.full(counts.k_classes, np.nan)
    dsc = np.full(counts.k_classes, np.nan)
    iou[present] = tp[present] / union[present]
    dsc[present] = 2.0 * tp[present] / (2.0 * tp[present] + fp[present] + fn[present])

    p_k = (tp + fn) / total
    p_k0 = fn / total
    p_0k = fp / total
    # probability form must agree with the count form
    iou_prob = np.full(counts.k_classes, np.nan)
    iou_prob[present] = (p_k[present] - p_k0[present]) / (p_k[present] + p_0k[present])
    if present.any() and np.max(np.abs(iou_prob[present] - iou[present])) > 1e-12:
        raise NumericError("count-form and probability-form IoU disagree")

    if not present.any():
        raise DegenerateError("every class is absent from truth and prediction")
    return MetricsReport(
        iou_per_class=iou,
        dsc_per_class=dsc,
        miou=float(np.mean(iou[present])),
        pixel_accuracy=float(tp.sum() / total),
        p_k=p_k,
        p_k0=p_k0,
        p_0k=p_0k,
        present=present,
    )


def predict_labels(s: ScoreBatch, like: MaskBatch) -> MaskBatch:
    """Argmax-of-raw-scores predictions shaped like the reference mask.

    Ties break to the lowest class index, matching the loss subgradient rule.
    The scores are read in class-major blocks.
    """
    if s.n_pixels != like.n_pixels:
        raise ShapeError("scores and mask cover different pixel counts")
    labels = np.zeros(s.n_pixels, dtype=np.uint8)
    for cols, sc, _, _ in _blocks(s):
        top = _first_max(_lambda(sc))
        for k in range(1, s.k_classes):
            np.copyto(labels[cols], k, where=top[k])
    return MaskBatch(labels=labels, width=like.width, height=like.height,
                     n_images=like.n_images, ignore_index=like.ignore_index)


def lower_bound_report(s: ScoreBatch, y: MaskBatch, m: MarginOffsets,
                       stats: Optional[LabelStats] = None) -> MetricsReport:
    """``_report`` of a ``_Counts`` walk over the columns of ``s``: the IoU
    metrics and the margin lower bounds of the scores.  The losses' checks
    run first.  The walk is on a team of its own (``team.run_walk``), and
    ``trainer.evaluate(model, features, y, m)`` gives the report bitwise
    from the features, building no score array."""
    if m is None:
        raise ConfigError("lower_bound_report needs margin-offsets")
    _check_margin_pair(s, y, m)
    walk = _Counts(lambda cols: np.ascontiguousarray(s.scores.T[:, cols]), s.k_classes, y, m,
                   "lower_bound_report")
    return _report(run_walk(walk), s.k_classes, m, stats)


def _report(total: np.ndarray, k_cls: int, m: Optional[MarginOffsets] = None,
            stats: Optional[LabelStats] = None) -> MetricsReport:
    """``iou_report`` of the confusion counts in a ``_Counts`` walk's total,
    and with margin-offsets ``m`` the lower bounds on IoU from its sums of
    ``rho_margin_objective``.

    The bound's normalizing pixel count is always the evaluated batch's own
    valid count; ``bound_scope`` is "dataset" when that matches
    ``stats.n_total`` and "batch" otherwise.  The sandwich P_k0 <= l_k0,
    P_0k <= l_0k, IoU_lower_k <= IoU_k is verified before returning.
    """
    counts = ConfusionCounts.from_matrix(
        total[: k_cls * k_cls].reshape(k_cls, k_cls).astype(np.int64))
    report = iou_report(counts)
    if m is None:
        return report
    ell_k0, ell_0k = total[k_cls * k_cls : -k_cls], total[-k_cls:]
    ell_k0 /= counts.total
    ell_0k /= counts.total

    denom = report.p_k + ell_0k
    if np.any(denom[report.present] == 0):
        raise DegenerateError("P_k + l_0k vanished for a present class")
    iou_lower = np.full(k_cls, np.nan)
    iou_lower[report.present] = (
        report.p_k[report.present] - ell_k0[report.present]
    ) / denom[report.present]

    pr = report.present
    if (
        np.any(report.p_k0[pr] > ell_k0[pr] + 1e-12)
        or np.any(report.p_0k[pr] > ell_0k[pr] + 1e-12)
        or np.any(iou_lower[pr] > report.iou_per_class[pr] + 1e-12)
    ):
        raise NumericError("lower-bound sandwich violated; margin-offsets corrupt?")

    report.iou_lower_per_class = iou_lower
    report.miou_lower = float(np.mean(iou_lower[pr]))
    report.ell_k0 = ell_k0
    report.ell_0k = ell_0k
    full = stats is not None and stats.n_total == counts.total
    report.bound_scope = "dataset" if full else "batch"
    return report


METRICS_CSV_HEADER = ["class_index", "iou", "dsc", "p_k", "p_k0", "p_0k", "iou_lower"]


def write_metrics_csv(report: MetricsReport, path) -> None:
    """Per-class rows followed by miou / miou_lower / pixel_acc summary rows."""
    k_cls = report.iou_per_class.size
    lower = report.iou_lower_per_class
    if lower is None:
        lower = np.full(k_cls, np.nan)
    blank = ["", "", "", "", ""]
    write_csv(path, METRICS_CSV_HEADER, [
        *([k, report.iou_per_class[k], report.dsc_per_class[k], report.p_k[k],
           report.p_k0[k], report.p_0k[k], lower[k]] for k in range(k_cls)),
        ["miou", report.miou, *blank],
        ["miou_lower", "" if report.miou_lower is None else report.miou_lower, *blank],
        ["pixel_acc", report.pixel_accuracy, *blank],
    ])
