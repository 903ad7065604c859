"""A small per-pixel model and deterministic training loop for loss ablations.

The model is two dense layers (d -> hidden -> K) with a rectified-linear
hidden activation, trained by plain SGD with momentum.  Everything is a pure
function of (seed, config, dataset): image order, initialization and updates
are all driven by one seeded generator, so runs are bitwise repeatable.
"""
from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, TrainError
from .losses import (
    BLOCK_PX, LOSS_NAMES, ScoreBatch, _block_rows, _non_finite_at, _pixel_kernel, _pixel_mean,
    loss_by_name,
)
from .margins import MarginOffsets
from .metrics import MetricsReport, iou_report, score_counts
# not called here, but perfbench's tracer wraps these names in this module
from .metrics import confusion, predict_labels  # noqa: F401
from .segdata import FeatureBatch, MaskBatch, write_csv

MODEL_MAGIC = b"PMC1"
#: ``backward`` sums a block's rows as a product with ones, faster than a row sum
_ONES = np.ones(BLOCK_PX)
_ONES.flags.writeable = False


@dataclass
class PixelMLP:
    """Two-layer per-pixel scorer: scores = relu(x @ w1 + b1) @ w2 + b2."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, d: int, hidden: int, k_classes: int, seed: int) -> "PixelMLP":
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, hidden))
        w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, k_classes))
        return cls(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(k_classes))

    @property
    def d(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def k_classes(self) -> int:
        return self.w2.shape[1]

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)


def forward(model: PixelMLP, features: FeatureBatch) -> ScoreBatch:
    """Deterministic forward pass producing one score row per pixel.

    Runs BLOCK_PX pixels at a time, so the hidden layer never exists for
    more than one block.  The scores are stored class-major: the returned
    (n, K) array is the transposed view of a C-ordered (K, n) array.
    """
    x = features.features
    scores = np.empty((model.k_classes, x.shape[0]))
    for start in range(0, x.shape[0], BLOCK_PX):
        block = slice(start, start + BLOCK_PX)
        scores[:, block] = _forward_cache(model, x[block])[0].T
    return ScoreBatch(scores=scores.T)


def _forward_cache(model: PixelMLP, x: np.ndarray):
    """Scores of the rows of ``x`` and the hidden activations ``backward`` needs.

    Both are class-major: ``act`` is (hidden, n), and the (n, K) scores are a
    view of a (K, n) array.
    """
    if x.shape[1] != model.d:
        raise ShapeError(f"feature dim {x.shape[1]} != model d={model.d}")
    act = model.w1.T @ x.T
    for row, bias in zip(act, model.b1):  # faster than a (hidden, 1) broadcast
        row += bias
    np.maximum(act, 0.0, out=act)
    scores = model.w2.T @ act
    scores += model.b2[:, None]
    return scores.T, act


def backward(
    model: PixelMLP, x: np.ndarray, act: np.ndarray, grad_scores: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Parameter gradients for a given upstream d(loss)/d(scores).

    ``act`` is the (hidden, n) activation from ``_forward_cache``.  The
    hidden relu mask is act > 0 (identical to pre > 0 for the gradient
    convention that puts the kink's subgradient at zero).
    """
    g = grad_scores.T
    gw2 = act @ grad_scores
    gb2 = g.sum(axis=1)
    gpre = model.w2 @ g
    gpre *= act > 0.0
    gw1 = x.T @ gpre.T
    n = gpre.shape[1]
    gb1 = gpre @ (_ONES[:n] if n <= BLOCK_PX else np.ones(n))
    return gw1, gb1, gw2, gb2


def _pixel_blocks(features: FeatureBatch, masks: MaskBatch, image_ids, block_px: int):
    """(features, labels, ids, first) of the images ``image_ids`` (an index
    array), in order, in blocks of at most ``block_px`` pixels: whole images
    grouped, or slices of one large image.  ``ids`` are the block's images
    and ``first`` is the index of its first pixel within image ids[0]."""
    ppi = masks.pixels_per_image
    x_img = features.features.reshape(masks.n_images, ppi, -1)
    y_img = masks.labels.reshape(masks.n_images, ppi)
    group = block_px // ppi
    if group >= 2:
        for start in range(0, len(image_ids), group):
            ids = image_ids[start : start + group]
            yield x_img[ids].reshape(-1, x_img.shape[2]), y_img[ids].reshape(-1), ids, 0
        return
    n_slices = -(-ppi // block_px)
    step = -(-ppi // n_slices)  # equal slices of at most block_px
    for i in image_ids:
        for start in range(0, ppi, step):
            yield x_img[i, start : start + step], y_img[i, start : start + step], (i,), start


def batch_gradients(
    model: PixelMLP,
    features: FeatureBatch,
    masks: MaskBatch,
    image_ids,
    loss_name: str,
    margins: Optional[MarginOffsets] = None,
) -> tuple[float, list[np.ndarray]]:
    """Loss and parameter gradients of one batch of whole images.

    The batch's labels are checked against K once; a label out of range
    raises ShapeError naming its image and pixel.  Forward, loss and
    backward then run per block of at most BLOCK_PX pixels, so a block's
    activations are still in cache for its backward pass.  A pixel-wise
    loss is the mean over valid pixels: each block's class-major scores go
    straight to the loss's block kernel (``losses._pixel_mean``), which
    writes the block's mean gradient into one buffer reused by every block,
    and each block's mean is weighted by its valid count; the sums run in
    block order.  Soft Dice and Tversky couple every pixel of the batch and
    take it as one block through their public loss.  A non-finite score
    raises NumericError naming its image and pixel.
    """
    if features.n_pixels != masks.n_pixels:
        raise ShapeError(
            f"features cover {features.n_pixels} pixels but masks have {masks.n_pixels}"
        )
    k_cls = model.k_classes
    image_ids = np.asarray(image_ids)
    bad = masks.first_bad_label(k_cls, image_ids)
    if bad is not None:
        label, image, pixel = bad
        raise ShapeError(f"label {label} at image {image}, pixel {pixel} exceeds k_classes={k_cls}")
    kernel = _pixel_kernel(loss_name, margins, k_cls)
    ppi = masks.pixels_per_image
    block_px = BLOCK_PX
    if kernel is None:
        loss_fn = loss_by_name(loss_name)
        block_px = len(image_ids) * ppi
    grad_buf = np.empty(k_cls * BLOCK_PX)
    value = 0.0
    grads = [np.zeros_like(p) for p in model.params()]
    n_valid = 0
    for x, labels, ids, first in _pixel_blocks(features, masks, image_ids, block_px):
        valid = labels != masks.ignore_index
        n = int(np.count_nonzero(valid))
        if n == 0:
            continue
        scores, act = _forward_cache(model, x)
        bad = _non_finite_at(scores)
        if bad is not None:
            image, pixel = divmod(first + bad[0], ppi)
            raise NumericError(f"non-finite score at image {ids[image]}, pixel {pixel}, "
                               f"class {bad[1]}")
        if kernel is None:
            y = MaskBatch(labels=labels, width=labels.size, height=1, n_images=1,
                          ignore_index=masks.ignore_index)
            result = loss_fn(ScoreBatch(scores=scores), y, margins)
        else:
            block = (slice(None), scores.T, *_block_rows(labels, valid, k_cls))
            grad = grad_buf[: k_cls * labels.size].reshape(k_cls, -1)
            result = _pixel_mean(kernel, (block,), grad, n)
        value += n * result.value
        for total, g in zip(grads, backward(model, x, act, result.grad)):
            g *= n
            total += g
        n_valid += n
    if n_valid == 0:
        raise ShapeError("no valid pixels in batch")
    for total in grads:
        total /= n_valid
    return value / n_valid, grads


@dataclass
class TrainConfig:
    loss_name: str = "margin_calibration"
    epochs: int = 100
    batch_images: int = 25
    learning_rate: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    eval_every: int = 25
    hidden: int = 16

    def __post_init__(self) -> None:
        if self.loss_name not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss_name!r}; expected {LOSS_NAMES}")
        if self.epochs < 1 or self.batch_images < 1:
            raise ConfigError("epochs and batch_images must be positive")
        if self.learning_rate < 0 or not (0.0 <= self.momentum < 1.0):
            raise ConfigError("need learning_rate >= 0 and momentum in [0, 1)")


@dataclass
class TrainLogRecord:
    epoch: int
    train_loss: float
    train_miou: float
    val_miou: float
    seconds: float


@dataclass
class TrainLog:
    records: list[TrainLogRecord] = field(default_factory=list)

    def append(self, record: TrainLogRecord) -> None:
        if self.records and record.epoch <= self.records[-1].epoch:
            raise TrainError("log epochs must be strictly increasing")
        self.records.append(record)


def evaluate(
    model: PixelMLP, features: FeatureBatch, masks: MaskBatch
) -> MetricsReport:
    """Score all pixels, take the raw-score argmax, and report IoU metrics."""
    counts, _ = score_counts(forward(model, features), masks)
    return iou_report(counts)


def train(
    model: PixelMLP,
    train_features: FeatureBatch,
    train_masks: MaskBatch,
    cfg: TrainConfig,
    margins: Optional[MarginOffsets] = None,
    val_features: Optional[FeatureBatch] = None,
    val_masks: Optional[MaskBatch] = None,
) -> tuple[PixelMLP, TrainLog]:
    """Mini-batch SGD with momentum on the configured loss.

    Batches are whole images; their order reshuffles every epoch from the
    seeded generator.  For the margin-calibration loss the offsets must be
    precomputed from training-split statistics and passed in.  A non-finite
    score or loss raises TrainError naming the epoch, batch and loss.
    """
    if cfg.loss_name == "margin_calibration" and margins is None:
        raise ConfigError("margin_calibration training needs precomputed margin-offsets")
    rng = np.random.default_rng(cfg.seed)
    n_images = train_masks.n_images
    velocity = [np.zeros_like(p) for p in model.params()]
    log = TrainLog()
    started = time.perf_counter()

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n_images)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_images, cfg.batch_images):
            where = f"at epoch {epoch}, batch {n_batches} ({cfg.loss_name})"
            try:
                value, grads = batch_gradients(
                    model, train_features, train_masks,
                    order[start : start + cfg.batch_images], cfg.loss_name, margins,
                )
            except NumericError as exc:
                raise TrainError(f"{exc} {where}") from exc
            if not np.isfinite(value):
                raise TrainError(f"NaN loss {where}")
            for p, v, g in zip(model.params(), velocity, grads):
                v *= cfg.momentum
                v += g
                p -= cfg.learning_rate * v
            epoch_loss += value
            n_batches += 1
        if cfg.eval_every and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            train_report = evaluate(model, train_features, train_masks)
            val_miou = float("nan")
            if val_features is not None and val_masks is not None:
                val_miou = evaluate(model, val_features, val_masks).miou
            log.append(
                TrainLogRecord(
                    epoch=epoch,
                    train_loss=epoch_loss / n_batches,
                    train_miou=train_report.miou,
                    val_miou=val_miou,
                    seconds=time.perf_counter() - started,
                )
            )
    return model, log


# ---------------------------------------------------------------------------
# Model persistence: magic + (d, hidden, K) header + little-endian f64 params
# ---------------------------------------------------------------------------


def save_model(model: PixelMLP, path) -> None:
    header = MODEL_MAGIC + struct.pack("<III", model.d, model.hidden, model.k_classes)
    blob = b"".join(
        np.ascontiguousarray(p, dtype="<f8").tobytes() for p in model.params()
    )
    Path(path).write_bytes(header + blob)


def load_model(path) -> PixelMLP:
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ConfigError(f"not a model file: magic {raw[:4]!r}")
    if len(raw) < 16:
        raise ConfigError(f"model file has {len(raw)} bytes, shorter than its 16-byte header")
    d, hidden, k = struct.unpack("<III", raw[4:16])
    expected = (d * hidden + hidden + hidden * k + k) * 8
    body = raw[16:]
    if len(body) != expected:
        raise ConfigError(
            f"model payload has {len(body)} bytes, expected {expected}"
        )
    flat = np.frombuffer(body, dtype="<f8")
    pos = 0

    def take(shape):
        nonlocal pos
        size = int(np.prod(shape))
        out = flat[pos : pos + size].reshape(shape).astype(np.float64)
        pos += size
        return out

    return PixelMLP(
        w1=take((d, hidden)), b1=take((hidden,)), w2=take((hidden, k)), b2=take((k,))
    )


TRAIN_LOG_HEADER = ["epoch", "train_loss", "train_miou", "val_miou", "seconds"]


def write_train_log_csv(log: TrainLog, path) -> None:
    write_csv(path, TRAIN_LOG_HEADER,
              ([getattr(rec, name) for name in TRAIN_LOG_HEADER] for rec in log.records))
