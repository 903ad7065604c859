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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, MarginCalError, NumericError, ShapeError, TrainError
from .losses import (
    BLOCK_PX, LOSS_NAMES, ScoreBatch, _block_rows, _check_margins, batch_loss, block_loss, loss_of,
)
from .margins import MarginOffsets
from .metrics import MetricsReport, _Counts, _report
# not called here, but perfbench's tracer wraps these names in this module
from .metrics import confusion, iou_report, predict_labels  # noqa: F401
from .segdata import FeatureBatch, LabelStats, MaskBatch, _non_finite_at, check_labels, write_csv
from .team import _Team, process_count, run_walk, shared_arrays

MODEL_MAGIC = b"PMC1"


class PixelMLP:
    """Two-layer per-pixel scorer: scores = relu(x @ w1 + b1) @ w2 + b2.

    The parameters live once, in ``flat``: a float64 vector of w1, b1, w2
    and b2 in C order, the layout of the step team's shared parameters, a
    step's gradient and a model file's payload.  ``layers`` are its stacked
    [w1; b1] and [w2; b2] views (``_layers``), and w1, b1, w2 and b2 views
    of those, so a write through any of them is a write to ``flat``.  The
    constructor copies its arguments.
    """

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray) -> None:
        (self.d, self.hidden), self.k_classes = np.shape(w1), np.shape(w2)[1]
        self.flat = np.concatenate([np.ravel(p) for p in (w1, b1, w2, b2)], dtype=np.float64)
        self.layers = _layers(self.flat, self.d, self.hidden, self.k_classes)
        (self.w1, self.b1), (self.w2, self.b2) = ((m[:-1], m[-1]) for m in self.layers)

    @classmethod
    def init(cls, d: int, hidden: int, k_classes: int, seed: int) -> "PixelMLP":
        _check_dims(d, hidden, k_classes)
        rng = np.random.default_rng(seed)
        w1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, hidden))
        w2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, k_classes))
        return cls(w1=w1, b1=np.zeros(hidden), w2=w2, b2=np.zeros(k_classes))

    def params(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)


def _layers(params: np.ndarray, d: int, hidden: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d + 1, hidden) [w1; b1] and (hidden + 1, k) [w2; b2] views of a
    flat (w1, b1, w2, b2) ``params``, such as a gradient row."""
    split = (d + 1) * hidden
    return params[:split].reshape(d + 1, hidden), params[split:].reshape(hidden + 1, k)


def _check_dims(d: int, hidden: int, k_classes: int) -> None:
    if min(d, hidden, k_classes) < 1:
        raise ConfigError(f"need d, hidden and k_classes >= 1; got {d}, {hidden}, {k_classes}")


class _Forward:
    """``forward``'s walk: block i's class-major scores go to its columns of
    a (K, n) array in shared memory, which helpers can write whenever
    ``run_walk`` forks them; its result row is empty."""

    what, width = "forward", 0

    def __init__(self, model: PixelMLP, x: np.ndarray) -> None:
        self.layers, self.x = model.layers, x
        self.n_blocks = -(-x.shape[0] // BLOCK_PX)
        self.scores = shared_arrays((np.float64, (model.k_classes, x.shape[0])))[0]

    def run(self, i: int, row: np.ndarray) -> None:
        block = slice(i * BLOCK_PX, (i + 1) * BLOCK_PX)
        self.scores[:, block] = _forward_cache(self.layers, _block_input([self.x[block].T]))[0].T


def forward(model: PixelMLP, features: FeatureBatch) -> ScoreBatch:
    """Deterministic forward pass producing one score row per pixel.

    Features of another width than the model's raise ShapeError before any
    block runs.  Runs BLOCK_PX pixels at a time, so the hidden layer never
    exists for more than one block.  The scores are stored class-major: the
    returned (n, K) array is the transposed view of a C-ordered (K, n) array
    in shared memory.  The blocks are a walk (``team.run_walk``), which
    decides whether helpers claim some of them.
    """
    if features.features.shape[1] != model.d:
        raise ShapeError(f"feature dim {features.features.shape[1]} != model d={model.d}")
    walk = _Forward(model, features.features)
    run_walk(walk)
    return ScoreBatch(scores=walk.scores.T)


def _block_input(parts, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The (b, d + 1) view of ``out`` (made if None), a C-ordered (d + 1, b)
    array holding the (d, b_j) ``parts`` side by side above a row of ones;
    from feature-major memory each part is d contiguous copies."""
    xa = np.empty((parts[0].shape[0] + 1, sum(p.shape[1] for p in parts))) if out is None else out
    np.concatenate(parts, axis=1, out=xa[:-1])
    xa[-1] = 1.0
    return xa.T


def _forward_cache(layers, x: np.ndarray, out: Optional[np.ndarray] = None):
    """Scores of the rows of ``x`` (``_block_input``'s) and the hidden
    activations ``backward`` needs: one product per layer of ``layers``.

    Both are class-major: ``act`` is (hidden + 1, n) with a last row of ones,
    written into ``out`` if given, and the (n, K) scores view a (K, n) array.
    Overflow is left silent: the caller's finiteness check names the first
    non-finite score.  The caller has checked that ``x`` has the model's width.
    """
    act = np.empty((layers[0].shape[1] + 1, x.shape[0])) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        pre = np.matmul(layers[0].T, x.T, out=act[:-1])
        np.maximum(pre, 0.0, out=pre)
        act[-1] = 1.0
        scores = layers[1].T @ act
    return scores.T, act


def _check_scores(scores: np.ndarray, ids, start: int, ppi: int) -> None:
    """Raise NumericError naming the image, pixel and class of the first
    non-finite entry of ``scores``, the (n, K) scores of the pixels from
    ``start`` on of the consecutive images ``ids`` of ``ppi`` pixels each."""
    bad = _non_finite_at(scores)
    if bad is not None:
        image, pixel = divmod(start + bad[0], ppi)
        raise NumericError(f"non-finite score at image {ids[image]}, pixel {pixel}, "
                           f"class {bad[1]}")


def _model_scores(layers, features: FeatureBatch, masks: MaskBatch):
    """A ``_Counts`` score source: ``_forward_cache``'s scores at ``layers``
    of the pixels ``cols`` of the split, checked by ``_check_scores``."""
    def scores(cols: slice) -> np.ndarray:
        sc = _forward_cache(layers, _block_input([features.features[cols].T]))[0]
        _check_scores(sc, range(masks.n_images), cols.start, masks.pixels_per_image)
        return sc.T

    return scores


def _check_split(model: PixelMLP, features: FeatureBatch, masks: MaskBatch) -> int:
    """The valid pixel count of ``masks``; raise ShapeError unless the features
    and masks cover the same pixels, the features have the model's width and
    every label is in [0, K) or ignored (naming the first bad one in image order)."""
    if features.n_pixels != masks.n_pixels:
        raise ShapeError(f"features cover {features.n_pixels} pixels but masks have "
                         f"{masks.n_pixels}")
    if features.features.shape[1] != model.d:
        raise ShapeError(f"feature dim {features.features.shape[1]} != model d={model.d}")
    return check_labels(masks, model.k_classes)


def backward(layers, x: np.ndarray, act: np.ndarray, grad_scores: np.ndarray,
             gpre: Optional[np.ndarray] = None, out=(None, None)) -> tuple[np.ndarray, ...]:
    """Gradients of [w1; b1] and [w2; b2] for a given upstream d(loss)/d(scores).

    ``x`` and ``act`` are ``_forward_cache``'s: their rows of ones make each
    bias gradient the last row of a product, written into ``out`` if given.
    ``gpre``, if given, takes the (hidden, n) gradient at the hidden layer.
    The relu mask act > 0 (pre > 0 under the convention that puts the kink's
    subgradient at zero) overwrites the hidden rows of ``act``.
    """
    gw2 = np.matmul(act, grad_scores, out=out[1])
    gpre = np.matmul(layers[1][:-1], grad_scores.T, out=gpre)
    gpre *= np.greater(act[:-1], 0.0, out=act[:-1])
    return np.matmul(x.T, gpre.T, out=out[0]), gw2


def _block_plan(masks: MaskBatch, image_ids: np.ndarray) -> list:
    """(ids, start, stop) of each block of at most BLOCK_PX pixels of the
    images ``image_ids`` (an index array), in order: whole images grouped
    (start, stop = 0, pixels per image), or equal slices [start, stop) of
    one large image."""
    ppi = masks.pixels_per_image
    group = BLOCK_PX // ppi
    if group >= 2:
        return [(image_ids[j : j + group], 0, ppi) for j in range(0, len(image_ids), group)]
    n_slices = -(-ppi // BLOCK_PX)
    step = -(-ppi // n_slices)  # equal slices of at most BLOCK_PX
    return [(image_ids[j : j + 1], start, min(start + step, ppi))
            for j in range(len(image_ids)) for start in range(0, ppi, step)]


class _Step:
    """One walk over a batch's blocks (see ``team``).

    A block holds at most BLOCK_PX pixels: whole images, grouped when they
    are small, or equal slices of one large image, so its activations are
    still in cache for its backward pass.  ``run(i, row)`` copies block i's
    features above a row of ones (``_block_input``), runs forward, checks
    the scores (a non-finite one raises NumericError naming its image and
    pixel) and runs ``block_loss`` of ``loss`` (``loss_of``'s) at ``slopes``
    on them.  Its row holds sums over the block's n valid pixels: [n, value,
    fg, bg] followed by the parameter gradients of the value (``backward``),
    in ``PixelMLP.flat``'s layout, or with ``slopes`` None the [n, I, A, B]
    of a soft-Dice or Tversky sums walk.  A block with no valid pixel writes
    zeros; ``scratch`` holds its (d + 1, b), (hidden + 1, b), (hidden, b) and
    (K, b) arrays.
    """

    what = "a training step"

    def __init__(self, layers, features: FeatureBatch, masks: MaskBatch, image_ids, loss,
                 slopes, scratch) -> None:
        self.layers, self.masks, self.loss, self.slopes = layers, masks, loss, slopes
        self.scratch, k_cls = scratch, layers[1].shape[1]
        self.width = (1 + 3 * k_cls if slopes is None
                      else 2 + 2 * k_cls + layers[0].size + layers[1].size)
        ppi = masks.pixels_per_image
        self.xt = features.features.T.reshape(-1, masks.n_images, ppi)
        self.y_img = masks.labels.reshape(masks.n_images, ppi)
        self.plan = _block_plan(masks, image_ids)
        self.n_blocks = len(self.plan)

    def run(self, i: int, row: np.ndarray) -> None:
        ids, start, stop = self.plan[i]
        labels = self.y_img[ids, start:stop].reshape(-1)
        valid = labels != self.masks.ignore_index
        n = row[0] = int(np.count_nonzero(valid))
        row[1:] = 0.0
        if n == 0:
            return
        (d1, hidden), k_cls = self.layers[0].shape, self.layers[1].shape[1]
        xa, act, gpre, grad = (buf[: rows * labels.size].reshape(rows, -1) for buf, rows
                               in zip(self.scratch, (d1, hidden + 1, hidden, k_cls)))
        x = _block_input([self.xt[:, j, start:stop] for j in ids], xa)
        scores, act = _forward_cache(self.layers, x, act)
        _check_scores(scores, ids, start, self.masks.pixels_per_image)
        onehot, valid = _block_rows(labels, valid, k_cls)
        block_loss(self.loss, scores.T, onehot, valid, grad, row, self.slopes)
        if self.slopes is not None:
            backward(self.layers, x, act, grad.T, gpre,
                     _layers(row[2 + 2 * k_cls :], d1 - 1, hidden, k_cls))


class _StepTeam(_Team):
    """The one way a training step runs, and ``train``'s evaluation: a team
    forked once after the data exists, so its helpers read the features and
    masks through copy-on-write, with one helper per extra usable core, up to
    one per block of the largest walk it will run; every process claims the
    blocks of each walk from the team's queue.  In memory the helpers share
    (``_load``), job n <= ``max_ids`` is the step over the first n image ids,
    job -n its sums walk (soft Dice and Tversky), and job ``max_ids`` + 1 + j
    evaluates ``splits[j]``, the (features, masks) pairs ``evaluate`` takes.

    Everything fixed for a run is checked here, once, before any fork: that
    the training split has an image, ``_check_split`` of it and of each of
    ``splits``, a valid pixel in ``splits[1:]`` (``train``'s val split), and
    margin-offsets for K for the margin-calibration loss (``loss_of``).
    """

    def __init__(self, model: PixelMLP, features: FeatureBatch, masks: MaskBatch,
                 loss_name: str, margins: Optional[MarginOffsets], max_ids: int,
                 splits: Sequence[tuple[FeatureBatch, MaskBatch]] = ()) -> None:
        if masks.n_images == 0:
            raise ShapeError("the training split has no images")
        n_valid = [_check_split(model, *split) for split in [(features, masks), *splits]]
        if 0 in n_valid[2:]:  # splits[1:]: train's val split
            raise ShapeError("the val split has no valid pixels")
        k_cls = model.k_classes
        loss = loss_of(loss_name, margins, k_cls)
        params, ids, slopes = shared_arrays(
            (np.float64, model.flat.size), (np.int64, max_ids), (np.float64, (2, k_cls, 1)))
        layers = _layers(params, model.d, model.hidden, k_cls)
        self.params, self.ids, self.max_ids, self.slopes = params, ids, max_ids, slopes
        self.loss = loss
        step_slopes = () if loss[2] is None else tuple(slopes)
        # each process's block input, activations, their gradient and kernel rows, made once:
        # made and freed per block, they let malloc return the heap and fault it in again
        scratch = [np.empty(r * BLOCK_PX)
                   for r in (model.d + 1, model.hidden + 1, model.hidden, k_cls)]

        def make_walk(job: int):  # no reference to self: a cycle would keep the data
            if job < 0:
                return _Step(layers, features, masks, ids[:-job], loss, None, scratch)
            if job > max_ids:
                x, y = splits[job - max_ids - 1]
                return _Counts(_model_scores(layers, x, y), k_cls, y, None, "evaluate")
            return _Step(layers, features, masks, ids[:job], loss, step_slopes, scratch)

        walks = [make_walk(job) for job in (-max_ids, *range(max_ids, max_ids + 1 + len(splits)))]
        n_blocks = max(w.n_blocks for w in walks)
        super().__init__(make_walk, min(process_count(), n_blocks) - 1, n_blocks,
                         max(w.width for w in walks))

    def _load(self, model: PixelMLP) -> None:
        """Copy ``model``'s parameters into the helpers' shared memory."""
        self.params[:] = model.flat

    def gradients(self, model: PixelMLP, image_ids) -> tuple[float, np.ndarray]:
        """Loss and gradient of the batch of whole images ``image_ids`` at
        ``model``'s parameters; the gradient is a vector in ``PixelMLP.flat``'s
        layout, a view of the folded row of ``batch_loss``, whose walks are
        the team's: job -n for a sums walk, job n at the slopes written into
        shared memory.  The blocks' rows are summed in block order, so the
        result is bitwise the same whoever ran each block, and the first
        failing block raises as it would in one process."""
        self._load(model)
        n_ids = len(image_ids)
        self.ids[:n_ids] = image_ids

        def walk(slopes):
            if slopes:
                self.slopes[:] = slopes
            return self.map(-n_ids if slopes is None else n_ids)

        value, total = batch_loss(self.loss, walk)
        return value, total[2 + 2 * model.k_classes :]

    def evaluate(self, model: PixelMLP, split: int, epoch: int) -> MetricsReport:
        """``evaluate(model, *splits[split])``, bitwise, with no fork; a failure
        raises TrainError naming ``epoch`` and split 0 "train" or 1 "val"."""
        self._load(model)
        try:
            return _report(self.map(self.max_ids + 1 + split), model.k_classes)
        except MarginCalError as exc:
            raise TrainError(f"{exc} at epoch {epoch}, {('train', 'val')[split]} split") from exc


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
        if not (0.0 <= self.learning_rate < math.inf and 0.0 <= self.momentum < 1.0):
            raise ConfigError("need a finite learning_rate >= 0 and momentum in [0, 1)")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0 (0 never evaluates); got {self.eval_every}")


@dataclass
class TrainLogRecord:
    epoch: int
    train_loss: float
    train_miou: float
    val_miou: float
    seconds: float


def evaluate(model: PixelMLP, features: FeatureBatch, masks: MaskBatch,
             margins: Optional[MarginOffsets] = None,
             stats: Optional[LabelStats] = None) -> MetricsReport:
    """IoU metrics of the raw-score argmax, and with margin-offsets (and
    ``stats``) the lower bounds on IoU: bitwise ``lower_bound_report(forward(...), ...)``.

    One ``_Counts`` walk from features to counts on a team of its own
    (forking from FORK_MIN_BLOCKS blocks on), with no (K, n) score array.
    ``_check_split`` and the offsets' K are checked before any block runs.
    """
    _check_split(model, features, masks)
    if margins is not None:
        _check_margins(margins, model.k_classes)
    walk = _Counts(_model_scores(model.layers, features, masks), model.k_classes, masks,
                   margins, "evaluate")
    return _report(run_walk(walk), model.k_classes, margins, stats)


def train(
    model: PixelMLP,
    train_features: FeatureBatch,
    train_masks: MaskBatch,
    cfg: TrainConfig,
    margins: Optional[MarginOffsets] = None,
    val_features: Optional[FeatureBatch] = None,
    val_masks: Optional[MaskBatch] = None,
) -> tuple[PixelMLP, list[TrainLogRecord]]:
    """Mini-batch SGD with momentum on the configured loss: each step
    updates one velocity vector and ``model.flat`` in place, with three
    vector operations.  Batches are whole images; their order reshuffles
    every epoch from the seeded generator.  For the margin-calibration loss
    the offsets must be precomputed from training-split statistics and
    passed in.  The run's inputs are checked once, before any helper is
    forked: a val split with features but no masks, or masks but no
    features, and missing offsets raise ConfigError; the step team
    (``_StepTeam``) raises ShapeError for an empty training split, offsets
    for another K, features that do not fit the masks or the model or a
    label out of range in the training split or (if ``eval_every``) the val
    split, and such a val split with no valid pixel.  Whatever a step raises
    becomes TrainError naming the epoch, batch and loss, and whatever an
    evaluation raises, naming the epoch and split.

    The steps and evaluations run on every usable core: ``train`` forks one
    helper process per extra core, up to one per block of the largest step
    or evaluated split, and the processes claim every walk's blocks from one
    queue (a soft-Dice or Tversky step walks for its sums, then its
    gradients), folded in block order: the model and log are bitwise those
    of a run in one process.  Every ``eval_every`` epochs the same team
    evaluates the training split and the val split (its train and val mIoU
    are bitwise ``evaluate``'s), forking nothing more.  Every helper is
    reaped before ``train`` returns or raises.
    """
    rng = np.random.default_rng(cfg.seed)
    n_images = train_masks.n_images
    velocity = np.zeros_like(model.flat)
    log: list[TrainLogRecord] = []
    started = time.perf_counter()
    if (val_features is None) != (val_masks is None):
        raise ConfigError("give both val_features and val_masks, or neither")
    has_val = val_masks is not None
    splits = [(train_features, train_masks)] + [(val_features, val_masks)] * has_val
    with _StepTeam(model, train_features, train_masks, cfg.loss_name, margins,
                   min(cfg.batch_images, n_images), splits if cfg.eval_every else []) as team:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n_images)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n_images, cfg.batch_images):
                where = f"at epoch {epoch}, batch {n_batches} ({cfg.loss_name})"
                try:
                    value, grad = team.gradients(model, order[start : start + cfg.batch_images])
                except MarginCalError as exc:
                    raise TrainError(f"{exc} {where}") from exc
                if not np.isfinite(value):
                    raise TrainError(f"NaN loss {where}")
                velocity *= cfg.momentum
                velocity += grad
                model.flat -= cfg.learning_rate * velocity
                epoch_loss += value
                n_batches += 1
            if cfg.eval_every and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
                log.append(
                    TrainLogRecord(
                        epoch=epoch,
                        train_loss=epoch_loss / n_batches,
                        train_miou=team.evaluate(model, 0, epoch).miou,
                        val_miou=team.evaluate(model, 1, epoch).miou if has_val else float("nan"),
                        seconds=time.perf_counter() - started,
                    )
                )
    return model, log


# ---------------------------------------------------------------------------
# Model persistence: magic + (d, hidden, K) header + little-endian f64 params
# ---------------------------------------------------------------------------


def save_model(model: PixelMLP, path) -> None:
    header = MODEL_MAGIC + struct.pack("<III", model.d, model.hidden, model.k_classes)
    Path(path).write_bytes(header + model.flat.astype("<f8").tobytes())


def load_model(path) -> PixelMLP:
    raw = Path(path).read_bytes()
    if raw[:4] != MODEL_MAGIC:
        raise ConfigError(f"not a model file: magic {raw[:4]!r}")
    if len(raw) < 16:
        raise ConfigError(f"model file has {len(raw)} bytes, shorter than its 16-byte header")
    d, hidden, k = struct.unpack("<III", raw[4:16])
    _check_dims(d, hidden, k)
    expected = (d * hidden + hidden + hidden * k + k) * 8
    body = raw[16:]
    if len(body) != expected:
        raise ConfigError(
            f"model payload has {len(body)} bytes, expected {expected}"
        )
    layers = _layers(np.frombuffer(body, "<f8"), d, hidden, k)
    return PixelMLP(layers[0][:-1], layers[0][-1], layers[1][:-1], layers[1][-1])


TRAIN_LOG_HEADER = ["epoch", "train_loss", "train_miou", "val_miou", "seconds"]


def write_train_log_csv(log: list[TrainLogRecord], path) -> None:
    write_csv(path, TRAIN_LOG_HEADER,
              ([getattr(rec, name) for name in TRAIN_LOG_HEADER] for rec in log))
