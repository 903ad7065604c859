"""A small per-pixel model and deterministic training loop for loss ablations.

The model is two dense layers (d -> hidden -> K) with a rectified-linear
hidden activation, trained by plain SGD with momentum.  Everything is a pure
function of (seed, config, dataset): image order, initialization and updates
are all driven by one seeded generator, so runs are bitwise repeatable.
"""
from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, MarginCalError, NumericError, ShapeError, TrainError
from .losses import (
    BLOCK_PX, LOSS_NAMES, ScoreBatch, _block_rows, _check_margins, _non_finite_at,
    _pixel_kernel, _pixel_mean, loss_by_name,
)
from .margins import MarginOffsets
from .metrics import MetricsReport, _Counts, _report
# not called here, but perfbench's tracer wraps these names in this module
from .metrics import confusion, iou_report, predict_labels  # noqa: F401
from .segdata import FeatureBatch, MaskBatch, check_labels, write_csv
from .team import _Team, helpers_for, process_count, run_walk, shared_arrays

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
        if min(d, hidden, k_classes) < 1:
            raise ConfigError(f"need d, hidden and k_classes >= 1; got {d}, {hidden}, {k_classes}")
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


class _Forward:
    """``forward``'s walk: block i's class-major scores go to its columns of
    a (K, n) array, shared if helpers write it (``run_walk`` forks
    ``helpers_for(n_blocks)``); its result row is empty."""

    what, error, width = "forward", MarginCalError, 0

    def __init__(self, model: PixelMLP, x: np.ndarray) -> None:
        self.model, self.x = model, x
        self.n_blocks = -(-x.shape[0] // BLOCK_PX)
        shape = (model.k_classes, x.shape[0])
        # a fresh shared mapping per call would raise the peak memory of many
        # small calls, which private memory reuses
        shared = helpers_for(self.n_blocks) > 0
        self.scores = shared_arrays((np.float64, shape))[0] if shared else np.empty(shape)

    def run(self, i: int, row: np.ndarray) -> None:
        block = slice(i * BLOCK_PX, (i + 1) * BLOCK_PX)
        self.scores[:, block] = _forward_cache(self.model, self.x[block])[0].T


def forward(model: PixelMLP, features: FeatureBatch) -> ScoreBatch:
    """Deterministic forward pass producing one score row per pixel.

    Features of another width than the model's raise ShapeError before any
    block runs.  Runs BLOCK_PX pixels at a time, so the hidden layer never
    exists for more than one block.  The scores are stored class-major: the
    returned (n, K) array is the transposed view of a C-ordered (K, n) array
    in shared memory when helpers write it.  The blocks are a walk
    (``team.run_walk``): from FORK_MIN_BLOCKS blocks on, every usable core
    writes its share of them.
    """
    if features.d != model.d:
        raise ShapeError(f"feature dim {features.d} != model d={model.d}")
    walk = _Forward(model, features.features)
    run_walk(walk)
    return ScoreBatch(scores=walk.scores.T)


def _forward_cache(model: PixelMLP, x: np.ndarray):
    """Scores of the rows of ``x`` and the hidden activations ``backward`` needs.

    Both are class-major: ``act`` is (hidden, n), and the (n, K) scores are a
    view of a (K, n) array.  Overflow is left silent: the caller's
    finiteness check names the first non-finite score.  The caller has
    checked that ``x`` has the model's width.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        act = model.w1.T @ x.T
        for row, bias in zip(act, model.b1):  # faster than a (hidden, 1) broadcast
            row += bias
        np.maximum(act, 0.0, out=act)
        scores = model.w2.T @ act
        scores += model.b2[:, None]
    return scores.T, act


def _model_scores(model: PixelMLP, x: np.ndarray):
    """A ``_Counts`` score source: ``_forward_cache``'s scores of the rows
    ``cols`` of ``x``.  A non-finite one raises NumericError naming its row."""
    def scores(cols: slice) -> np.ndarray:
        sc = _forward_cache(model, x[cols])[0]
        bad = _non_finite_at(sc)
        if bad is not None:
            raise NumericError(f"non-finite score at pixel {cols.start + bad[0]}, class {bad[1]}")
        return sc.T

    return scores


def _check_split(model: PixelMLP, features: FeatureBatch, masks: MaskBatch) -> None:
    """Raise ShapeError unless the features and masks cover the same pixels,
    the features have the model's width and every label is in [0, K) or
    ignored (naming the first bad one in image order)."""
    if features.n_pixels != masks.n_pixels:
        raise ShapeError(f"features cover {features.n_pixels} pixels but masks have "
                         f"{masks.n_pixels}")
    if features.d != model.d:
        raise ShapeError(f"feature dim {features.d} != model d={model.d}")
    check_labels(masks, model.k_classes)


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


def _unflatten(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive stretches of ``flat`` with the given shapes."""
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[pos : pos + size].reshape(shape))
        pos += size
    return views


def _block_plan(masks: MaskBatch, image_ids: np.ndarray, block_px: int) -> list:
    """(ids, start, stop) of each block of at most ``block_px`` pixels of the
    images ``image_ids`` (an index array), in order: whole images grouped
    (start, stop = 0, pixels per image), or equal slices [start, stop) of
    one large image."""
    ppi = masks.pixels_per_image
    group = block_px // ppi
    if group >= 2:
        return [(image_ids[j : j + group], 0, ppi) for j in range(0, len(image_ids), group)]
    n_slices = -(-ppi // block_px)
    step = -(-ppi // n_slices)  # equal slices of at most block_px
    return [(image_ids[j : j + 1], start, min(start + step, ppi))
            for j in range(len(image_ids)) for start in range(0, ppi, step)]


class _Step:
    """One batch's blocks as a walk (see ``team``).

    A block holds at most BLOCK_PX pixels: whole images, grouped when they
    are small, or equal slices of one large image, so its activations are
    still in cache for its backward pass.  ``run(i, row)`` gathers
    block i, runs forward, checks the scores (a non-finite one raises
    NumericError naming its image and pixel), takes the loss and runs
    backward.  A pixel-wise loss's class-major block scores go straight to
    its block kernel (``losses._pixel_mean``); soft Dice and Tversky couple
    every pixel of the batch and take it as one block through their public
    loss (``kernel`` None).  The block writes [n, n * value, n * gradients]
    into ``row``, where n is its valid count (a block with none writes
    zeros).  Summed in block order, the rows give the batch's loss and
    gradients.
    """

    what, error = "a training step", TrainError

    def __init__(self, model: PixelMLP, features: FeatureBatch, masks: MaskBatch, image_ids,
                 loss_name: str, kernel, margins: Optional[MarginOffsets]) -> None:
        self.model, self.masks, self.loss_name = model, masks, loss_name
        self.kernel, self.margins = kernel, margins
        self.shapes = [p.shape for p in model.params()]
        self.width = 2 + sum(p.size for p in model.params())
        ppi = masks.pixels_per_image
        self.x_img = features.features.reshape(masks.n_images, ppi, -1)
        self.y_img = masks.labels.reshape(masks.n_images, ppi)
        block_px = BLOCK_PX if kernel is not None else len(image_ids) * ppi
        self.plan = _block_plan(masks, image_ids, block_px)
        self.n_blocks = len(self.plan)
        self.grad_buf = np.empty(model.k_classes * BLOCK_PX)

    def run(self, i: int, row: np.ndarray) -> None:
        model = self.model
        ids, start, stop = self.plan[i]
        if len(ids) == 1:
            x, labels = self.x_img[ids[0], start:stop], self.y_img[ids[0], start:stop]
        else:
            x, labels = self.x_img[ids].reshape(-1, self.x_img.shape[2]), self.y_img[ids].reshape(-1)
        ignore = self.masks.ignore_index
        valid = labels != ignore
        n = row[0] = int(np.count_nonzero(valid))
        if n == 0:
            row[1:] = 0.0
            return
        scores, act = _forward_cache(model, x)
        bad = _non_finite_at(scores)
        if bad is not None:
            image, pixel = divmod(start + bad[0], self.masks.pixels_per_image)
            raise NumericError(f"non-finite score at image {ids[image]}, pixel {pixel}, "
                               f"class {bad[1]}")
        k_cls = model.k_classes
        if self.kernel is None:
            y = MaskBatch(labels=labels, width=labels.size, height=1, n_images=1,
                          ignore_index=ignore)
            result = loss_by_name(self.loss_name)(ScoreBatch(scores=scores), y, self.margins)
        else:
            block = (slice(None), scores.T, *_block_rows(labels, valid, k_cls))
            grad = self.grad_buf[: k_cls * labels.size].reshape(k_cls, -1)
            result = _pixel_mean(self.kernel, (block,), grad, n)
        row[1] = n * result.value
        for out, g in zip(_unflatten(row[2:], self.shapes), backward(model, x, act, result.grad)):
            np.multiply(g, n, out=out)


class _StepTeam(_Team):
    """The one way a training step runs, and ``train``'s evaluation: a team
    forked once after the data exists, so its helpers read the features and
    masks through copy-on-write, with one helper per extra usable core, up
    to one per block of the largest step.  In memory the helpers share
    (``_load``), job n <= ``max_ids`` is the step over the first n image
    ids, and job ``max_ids`` + 1 + j evaluates split j: the training split
    (0) or ``val`` (1).

    Everything fixed for a run is checked here, once, before any fork:
    ``_check_split`` of each split, and margin-offsets for K for the
    margin-calibration loss, whose block kernel is derived here too.
    """

    def __init__(self, model: PixelMLP, features: FeatureBatch, masks: MaskBatch,
                 loss_name: str, margins: Optional[MarginOffsets], max_ids: int,
                 val: Optional[tuple[FeatureBatch, MaskBatch]] = None) -> None:
        splits = [(features, masks), *([val] if val else [])]
        for split in splits:
            _check_split(model, *split)
        kernel = _pixel_kernel(loss_name, margins, model.k_classes)
        self.shapes = [p.shape for p in model.params()]
        params, ids = shared_arrays((np.float64, sum(p.size for p in model.params())),
                                    (np.int64, max_ids))
        shared = PixelMLP(*_unflatten(params, self.shapes))
        self.model, self.ids, self.max_ids = shared, ids, max_ids

        def make_walk(job: int):  # no reference to self: a cycle would keep the data
            if job > max_ids:
                x, y = splits[job - max_ids - 1]
                return _Counts(_model_scores(shared, x.features), shared.k_classes, y, None,
                               "evaluate")
            return _Step(shared, features, masks, ids[:job], loss_name, kernel, margins)

        walks = [make_walk(job) for job in range(max_ids, max_ids + 1 + len(splits))]
        helpers = min(process_count(), walks[0].n_blocks) - 1  # walks[0]: the largest step
        super().__init__(make_walk, helpers, max(w.n_blocks for w in walks),
                         max(w.width for w in walks))

    def _load(self, model: PixelMLP) -> None:
        """Copy ``model``'s parameters into the helpers' shared memory."""
        for shared, p in zip(self.model.params(), model.params()):
            np.copyto(shared, p)

    def gradients(self, model: PixelMLP, image_ids) -> tuple[float, list[np.ndarray]]:
        """Loss and parameter gradients of the batch of whole images
        ``image_ids`` at ``model``'s parameters.  The pixel-wise losses are
        means over valid pixels.  The blocks' rows are summed in block
        order, so the result is bitwise the same whoever ran each block, and
        the first failing block raises as it would in one process."""
        self._load(model)
        self.ids[: len(image_ids)] = image_ids
        total = self.map(len(image_ids))
        n_valid = int(total[0])
        if n_valid == 0:
            raise ShapeError("no valid pixels in batch")
        total /= n_valid
        return float(total[1]), _unflatten(total[2:], self.shapes)

    def evaluate(self, model: PixelMLP, split: int) -> MetricsReport:
        """``evaluate(model, *split)`` of split 0 (training) or 1 (``val``),
        bitwise, with no fork: each process runs its share of the blocks."""
        self._load(model)
        return _report(self.map(self.max_ids + 1 + split), model.k_classes)


@dataclass
class TrainConfig:
    loss_name: str = "margin_calibration"
    epochs: int = 100
    batch_images: int = 25
    learning_rate: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    eval_every: int = 25

    def __post_init__(self) -> None:
        if self.loss_name not in LOSS_NAMES:
            raise ConfigError(f"unknown loss {self.loss_name!r}; expected {LOSS_NAMES}")
        if self.epochs < 1 or self.batch_images < 1:
            raise ConfigError("epochs and batch_images must be positive")
        if self.learning_rate < 0 or not (0.0 <= self.momentum < 1.0):
            raise ConfigError("need learning_rate >= 0 and momentum in [0, 1)")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0 (0 never evaluates); got {self.eval_every}")


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


def evaluate(model: PixelMLP, features: FeatureBatch, masks: MaskBatch,
             margins: Optional[MarginOffsets] = None) -> MetricsReport:
    """IoU metrics of the raw-score argmax, and with margin-offsets the
    lower bounds on IoU: bitwise ``lower_bound_report(forward(...), ...)``.

    One ``_Counts`` walk from features to counts on a team of its own
    (forking from FORK_MIN_BLOCKS blocks on), with no (K, n) score array.
    ``_check_split`` and the offsets' K are checked before any block runs.
    """
    _check_split(model, features, masks)
    if margins is not None:
        _check_margins(margins, model.k_classes)
    walk = _Counts(_model_scores(model, features.features), model.k_classes, masks, margins,
                   "evaluate")
    return _report(run_walk(walk), model.k_classes, margins)


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
    precomputed from training-split statistics and passed in.  The step
    team (``_StepTeam``) checks the run's inputs once, before any helper is
    forked: missing offsets raise ConfigError; offsets for another K, and
    features that do not fit the masks or the model or a label out of range
    in the training split or (if ``eval_every``) the val split, ShapeError.
    A non-finite score or loss, or a batch with no valid pixel, raises
    TrainError naming the epoch, batch and loss.

    A pixel-wise loss's steps run on every usable core: ``train`` forks one
    helper process per extra core, up to one per block of the largest step,
    and each process runs a fixed share of every step's blocks.  The step's
    rows are folded in block order, so the trained model and log are
    bitwise those of a run in one process.  Every ``eval_every`` epochs the
    same team evaluates the training split and the val split (its train and
    val mIoU are bitwise ``evaluate``'s), forking nothing more.  Every
    helper is reaped before ``train`` returns or raises.
    """
    rng = np.random.default_rng(cfg.seed)
    n_images = train_masks.n_images
    velocity = [np.zeros_like(p) for p in model.params()]
    log = TrainLog()
    started = time.perf_counter()
    has_val = cfg.eval_every > 0 and val_features is not None and val_masks is not None
    with _StepTeam(model, train_features, train_masks, cfg.loss_name, margins,
                   min(cfg.batch_images, n_images),
                   (val_features, val_masks) if has_val else None) as team:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n_images)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n_images, cfg.batch_images):
                where = f"at epoch {epoch}, batch {n_batches} ({cfg.loss_name})"
                try:
                    value, grads = team.gradients(model, order[start : start + cfg.batch_images])
                except (NumericError, ShapeError) as exc:
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
                log.append(
                    TrainLogRecord(
                        epoch=epoch,
                        train_loss=epoch_loss / n_batches,
                        train_miou=team.evaluate(model, 0).miou,
                        val_miou=team.evaluate(model, 1).miou if has_val else float("nan"),
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
    shapes = ((d, hidden), (hidden,), (hidden, k), (k,))
    flat = np.frombuffer(body, dtype="<f8")
    return PixelMLP(*(p.astype(np.float64) for p in _unflatten(flat, shapes)))


TRAIN_LOG_HEADER = ["epoch", "train_loss", "train_miou", "val_miou", "seconds"]


def write_train_log_csv(log: TrainLog, path) -> None:
    write_csv(path, TRAIN_LOG_HEADER,
              ([getattr(rec, name) for name in TRAIN_LOG_HEADER] for rec in log.records))
