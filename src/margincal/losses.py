"""Margin-based and baseline per-pixel losses with analytic gradients.

The margin of pixel i for class k is lambda_ik = s_ik - max_{j!=k} s_ij.
Calibration shifts it by the class margin-offsets (minus rho_k0 on the true
class, plus rho_0k elsewhere), and the trainable objective replaces the
piecewise-linear rho-margin loss min(1, max(0, 1 - lambda/rho)) with its
smooth upper bound log2(1 + 2^(-sbar)), whose gradient never vanishes.

All losses are pure functions of (scores, labels); reductions run in a fixed
order so repeated evaluations are bitwise identical.  Every loss reads the
batch class-major, in (K, BLOCK_PX) blocks whose temporaries stay in cache,
with row-wise numpy operations only (per-class sums over pixels are one
``np.vecdot`` of two (K, b) arrays).  ``loss_of`` describes a loss once;
``block_loss`` runs one block of a walk into the block's row of sums, and
``batch_loss`` runs a batch's walks and normalises their folded row: one walk
for the margin objective, cross-entropy and focal, two for soft Dice (Tversky
at alpha = beta = 1/2) and Tversky, for their per-class sums and then the
gradient.  A training step (``trainer._StepTeam``), ``gradcheck`` and the
public loss functions (through ``_walk``) all take this one path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .margins import MarginOffsets
from .segdata import MaskBatch, _non_finite_at, check_labels

_LN2 = float(np.log(2.0))
#: pixels per class-major block: the block's (K, BLOCK_PX) float64
#: temporaries and the model's (hidden, BLOCK_PX) activations fit in L2
BLOCK_PX = 4096

BASELINE_FOCAL_GAMMA = 0.4
BASELINE_DICE_EPS = 1e-6
BASELINE_TVERSKY_ALPHA = 0.3
BASELINE_TVERSKY_BETA = 0.7

LOSS_NAMES = ("margin_calibration", "cross_entropy", "focal", "soft_dice", "tversky")


@dataclass
class ScoreBatch:
    """Raw per-pixel class scores, one row per pixel.

    ``scores`` may be the transposed view of a C-ordered (K, n) array, as
    ``trainer.forward`` returns it; the losses and metrics read it class-major.
    """

    scores: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise ShapeError("scores must be a (n_pixels, k_classes) array")
        bad = _non_finite_at(self.scores)
        if bad is not None:
            raise NumericError(f"non-finite score at pixel {bad[0]}, class {bad[1]}")

    @property
    def n_pixels(self) -> int:
        return self.scores.shape[0]

    @property
    def k_classes(self) -> int:
        return self.scores.shape[1]


@dataclass
class LossResult:
    """Scalar loss with its gradient and the per-class decomposition.

    ``per_class_fg[k]`` holds the true-class (k-versus-background) part and
    ``per_class_bg[k]`` the background-scored-as-k part; their total equals
    ``value``.  ``grad`` is None for objectives reported without gradients.
    """

    value: float
    grad: Optional[np.ndarray]
    per_class_fg: np.ndarray
    per_class_bg: np.ndarray


def _check_pair(s: ScoreBatch, y: MaskBatch) -> int:
    """The valid pixel count of ``y`` (``check_labels``), once ``s`` covers its pixels."""
    if s.n_pixels != y.n_pixels:
        raise ShapeError(
            f"scores cover {s.n_pixels} pixels but mask has {y.n_pixels}"
        )
    return check_labels(y, s.k_classes)


def _best_other(sc: np.ndarray) -> np.ndarray:
    """Class-major best competitor: out[k] = max_{j != k} sc[j] for (K, n) scores.

    Prefix maxima fill rows 1..K-1; row 0 then carries the running suffix
    maximum from the top class down, folded into each middle row.
    """
    k_cls = sc.shape[0]
    if k_cls == 1:
        return np.full_like(sc, -np.inf)  # the maximum of no scores
    out = np.empty_like(sc)
    out[1] = sc[0]
    for k in range(2, k_cls):
        np.maximum(out[k - 1], sc[k - 1], out=out[k])
    out[0] = sc[k_cls - 1]
    for k in range(k_cls - 2, 0, -1):
        np.maximum(out[k], out[0], out=out[k])
        np.maximum(out[0], sc[k], out=out[0])
    return out


def _lambda(sc: np.ndarray) -> np.ndarray:
    """Class-major margins lambda[k] = sc[k] - max_{j != k} sc[j] of (K, n) scores."""
    lam = _best_other(sc)
    return np.subtract(sc, lam, out=lam)


def _first_max(lam: np.ndarray) -> np.ndarray:
    """Class-major one-hot of each pixel's predicted class, from its (K, n)
    margins ``_lambda(sc)``.

    lam[k] >= 0 exactly where sc[k] is a maximum; the prediction is the
    lowest such k, the tie rule of np.argmax and of the loss subgradients.
    """
    top = lam >= 0.0
    seen = top[0].copy()
    for k in range(1, lam.shape[0]):
        np.greater(top[k], seen, out=top[k])  # top[k] and not seen
        seen |= top[k]
    return top


def rho_margin_loss(lam: float, rho: float) -> float:
    """Piecewise-linear margin loss min(1, max(0, 1 - lam/rho))."""
    if rho <= 0:
        raise ConfigError(f"rho must be positive, got {rho}")
    return min(1.0, max(0.0, 1.0 - lam / rho))


def rho_calibrated_log_loss(lam, rho) -> np.ndarray:
    """Smooth upper bound of the rho-margin loss: log2(1 + 2^(rho - lam)),
    taken as max(x, 0) + log2(1 + 2^-|x|) with x = rho - lam."""
    if np.any(np.asarray(rho) <= 0):
        raise ConfigError("rho must be positive")
    x = rho - np.asarray(lam, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp2(-np.abs(x))) / _LN2


def _block_rows(labels: np.ndarray, valid: np.ndarray, k_classes: int):
    """A block's (K, b) float one-hot labels, all zero on ignored pixels, and
    its float valid row, or None when no pixel of the block is ignored."""
    onehot = (labels == np.arange(k_classes, dtype=labels.dtype)[:, None]).astype(np.float64)
    if valid.all():
        return onehot, None
    valid = valid.astype(np.float64)
    onehot *= valid  # an ignore label below K must not count as its class
    return onehot, valid


def _blocks(s: ScoreBatch, y: Optional[MaskBatch] = None):
    """The batch in class-major blocks of at most BLOCK_PX pixels, in pixel order.

    Yields (cols, sc, onehot, valid): the block's pixel slice, its (K, b)
    scores and the ``_block_rows`` of its labels in ``y``; without ``y`` the
    last two are None.
    """
    for start in range(0, s.n_pixels, BLOCK_PX):
        cols = slice(start, start + BLOCK_PX)
        onehot = block_valid = None
        if y is not None:
            labels = y.labels[cols]
            onehot, block_valid = _block_rows(labels, labels != y.ignore_index, s.k_classes)
        yield cols, np.ascontiguousarray(s.scores.T[:, cols]), onehot, block_valid


def _require_valid(n_valid: int) -> int:
    if n_valid == 0:
        raise ShapeError("no valid pixels in batch")
    return n_valid


def block_loss(loss, sc, onehot, valid, grad, row, slopes=()) -> None:
    """Block ``sc`` (class-major (K, b) scores, with its ``_block_rows``) of a walk
    of ``loss`` (``loss_of``'s) into its zeroed ``row``, whose row[0] holds its
    valid count n: the kernel writes d(sum of its terms)/d(sc) into ``grad``, and
    the row becomes [n, value, fg(K), bg(K)], the terms' sum and per-class sums
    on and off the label.  Soft Dice and Tversky take the ``slopes`` (u, v) of
    their batch's sums, or with None run their sums walk, into [n, I, A, B]."""
    kernel, args, _ = loss
    k_cls = sc.shape[0]
    if slopes is None:
        _tversky_sums(sc, onehot, valid, grad, *row[1 : 1 + 3 * k_cls].reshape(3, k_cls))
        return
    fg, bg = row[2 : 2 + k_cls], row[2 + k_cls : 2 + 2 * k_cls]
    kernel(sc, onehot, valid, grad, fg, bg, *args, *slopes)
    row[1] = fg.sum() + bg.sum()


def batch_loss(loss, walk) -> tuple[float, np.ndarray]:
    """The value of ``loss`` (``loss_of``'s) over a batch, and its folded row.

    ``walk(slopes)`` returns the sum, in block order, of ``block_loss``'s rows at
    ``slopes`` over the batch.  A pixel-wise loss walks once and divides the row,
    gradients included, by its valid count; soft Dice and Tversky walk for their
    sums, take their per-class losses (the row's fg and value) and slopes from
    those and walk for the gradient.  No valid pixel raises ShapeError.
    """
    if loss[2] is None:
        total = walk(())
        total /= _require_valid(int(total[0]))
        return float(total[1]), total
    sums = walk(None)
    _require_valid(int(sums[0]))
    per_class, u, v = _tversky_slopes(*sums[1:].reshape(3, -1), *loss[2])
    total = walk((u, v))
    total[1], total[2 : 2 + per_class.size] = per_class.sum(), per_class
    return float(total[1]), total


def _walk(loss, blocks, k_cls: int, n_px: int) -> LossResult:
    """``batch_loss`` of ``loss`` in one process over ``blocks()``, the (cols,
    sc, onehot, valid) of a batch of ``n_px`` pixels (see ``_blocks``); the
    folded row's tail is the (K, n_px) score gradient, written by columns."""
    out = np.zeros(2 + 2 * k_cls + k_cls * n_px)
    grad = out[2 + 2 * k_cls :].reshape(k_cls, n_px)

    def walk(slopes):  # called once per kind of walk: a sums walk folds into its own row
        width = 1 + 3 * k_cls if slopes is None else 2 + 2 * k_cls
        total = np.zeros(width) if slopes is None else out
        for cols, sc, onehot, valid in blocks():
            row = np.zeros(width)
            row[0] = np.count_nonzero(onehot)  # a valid pixel has one 1, an ignored one none
            block_loss(loss, sc, onehot, valid, grad[:, cols], row, slopes)
            total[:width] += row
        return total

    value, total = batch_loss(loss, walk)
    return LossResult(value, grad.T, total[2 : 2 + k_cls], total[2 + k_cls : 2 + 2 * k_cls])


def _public(name: str, s: ScoreBatch, y: MaskBatch, m: Optional[MarginOffsets] = None):
    """The loss ``name`` of ``s`` and ``y``, by ``_walk`` over ``_blocks``."""
    _check_pair(s, y)
    return _walk(loss_of(name, m, s.k_classes), lambda: _blocks(s, y), s.k_classes, s.n_pixels)


def _route_to_competitors(sc: np.ndarray, best: np.ndarray, g: np.ndarray,
                          grad: np.ndarray) -> None:
    """grad[c(k)] -= g[k] for each class k, where c(k) is the lowest index
    j != k with sc[j] == best[k]: d lambda_k/d s_c(k) = -1."""
    k_cls, rows = sc.shape[0], list(grad)  # grad's row views, taken once
    for k in range(k_cls):
        last = k_cls - 1 - (k == k_cls - 1)  # the last class j != k
        rest = g[k]
        for j in range(last):
            if j != k:
                taken = rest * (sc[j] == best[k])
                rows[j] -= taken
                rest = rest - taken
        rows[last] -= rest


def _margin_block(sc, onehot, valid, grad, fg, bg, rho_0k, rho_shift) -> None:
    """Calibrated log-loss terms of one class-major block (see ``block_loss``),
    at the (K, 1) columns rho_0k and rho_k0 - rho_0k."""
    best = _best_other(sc)
    off_label = 1.0 - onehot
    if valid is not None:
        off_label *= valid  # an ignored pixel is neither on nor off the label
    sign = off_label - onehot  # d sbar / d lambda: +1 off the label, -1 on it
    # shifted score: lambda + rho_0k off the label, rho_k0 - lambda on it
    # (on ignored pixels it is never used)
    x = np.subtract(sc, best)
    x *= sign
    x += rho_0k
    x += rho_shift * onehot
    # term = log2(1 + 2^x) = max(x, 0) + log2(1 + 2^-|x|)
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp2(t, out=t)
    np.log1p(t, out=t)
    t *= 1.0 / _LN2
    term = np.maximum(x, 0.0)
    term += t
    fg += np.vecdot(term, onehot)
    bg += np.vecdot(term, off_label)
    # d term / d lambda = sign / (1 + 2^-x) = sign * 2^(x - term)
    g = np.subtract(x, term, out=x)
    np.exp2(g, out=g)
    g *= sign
    np.copyto(grad, g)
    _route_to_competitors(sc, best, g, grad)


def _check_margins(m: Optional[MarginOffsets], k_classes: int) -> None:
    if m is None:
        raise ConfigError("the margin-calibration loss needs margin-offsets")
    if k_classes < 2:
        raise ConfigError("margins need at least 2 classes")
    if m.k_classes != k_classes:
        raise ShapeError(f"margin-offsets and scores disagree on the number of classes "
                         f"({m.k_classes} and {k_classes})")


def _check_margin_pair(s: ScoreBatch, y: MaskBatch, m: MarginOffsets) -> int:
    n_valid = _check_pair(s, y)
    _check_margins(m, s.k_classes)
    return n_valid


def calibrated_log_loss(s: ScoreBatch, y: MaskBatch, m: MarginOffsets) -> LossResult:
    """Smoothed margin objective with its full analytic gradient.

    Value: (1/N_s) * sum_k [ sum_{i in class k} log2(1 + 2^(-sbar_ik))
    + sum_{i not in class k} log2(1 + 2^(sbar_ik)) ] over non-ignored pixels,
    where sbar_ik is lambda_ik - rho_k0 on the label and lambda_ik + rho_0k
    elsewhere.  The gradient chains through the margin's max term, routed to
    the single lowest-indexed best competitor of each (pixel, class) entry.
    """
    return _public("margin_calibration", s, y, m)


def rho_margin_objective(s: ScoreBatch, y: MaskBatch, m: MarginOffsets) -> LossResult:
    """Piecewise-linear margin objective (value only; its gradient is reported
    nowhere because it explodes for small offsets and vanishes elsewhere).

    ``per_class_fg[k]`` sums phi(lambda_ik / rho_k0) over pixels labelled k
    and ``per_class_bg[k]`` sums phi(-lambda_ik / rho_0k) over the other
    valid pixels, phi(t) = min(1, max(0, 1 - t)), each divided by the valid
    pixel count: the l_k0 and l_0k of the IoU lower bound.
    """
    n_valid = _require_valid(_check_margin_pair(s, y, m))
    fg, bg = np.zeros(s.k_classes), np.zeros(s.k_classes)
    for _, sc, onehot, block_valid in _blocks(s, y):
        _phi_sums(_lambda(sc), onehot, block_valid, m, fg, bg)
    fg /= n_valid
    bg /= n_valid
    return LossResult(float(fg.sum() + bg.sum()), None, fg, bg)


def _phi_sums(lam, onehot, valid, m: MarginOffsets, fg, bg) -> None:
    """Add one block's sums of phi(lam / rho_k0) over pixels labelled k to
    fg[k] and of phi(-lam / rho_0k) over the other valid pixels to bg[k]."""
    off_label = 1.0 - onehot
    if valid is not None:
        off_label *= valid
    t = lam / m.rho_k0[:, None]
    np.subtract(1.0, t, out=t)
    fg += np.vecdot(np.clip(t, 0.0, 1.0, out=t), onehot)
    t = np.divide(lam, m.rho_0k[:, None], out=t)
    t += 1.0
    bg += np.vecdot(np.clip(t, 0.0, 1.0, out=t), off_label)


# ---------------------------------------------------------------------------
# Baseline losses (softmax-probability based)
# ---------------------------------------------------------------------------


def _softmax_block(sc: np.ndarray, out: np.ndarray, valid=None):
    """Softmax of a class-major (K, b) block into ``out``, zero where a given ``valid`` is 0.

    Returns the shifted scores z = sc - max and their exp-sum ``total``, so
    that log p = z - log(total) holds even where p underflows.
    """
    z = np.subtract(sc, sc.max(axis=0))
    np.exp(z, out=out)
    total = out.sum(axis=0)
    out /= total
    if valid is not None:
        out *= valid
    return z, total


def _cross_entropy_block(sc, onehot, valid, grad, fg, bg) -> None:
    """Softmax negative log-likelihood terms of one class-major block."""
    z, total = _softmax_block(sc, grad)
    grad -= onehot
    if valid is not None:
        grad *= valid
    # -log p_label = log(sum_j e^z_j) - z_label
    np.subtract(np.log(total), z, out=z)
    fg += np.vecdot(z, onehot)


def cross_entropy(s: ScoreBatch, y: MaskBatch) -> LossResult:
    """Mean softmax negative log-likelihood over non-ignored pixels."""
    return _public("cross_entropy", s, y)


def _focal_block(sc, onehot, valid, grad, fg, bg, gamma) -> None:
    """Focal terms -(1 - q)^gamma log q of one class-major block, q = p_label."""
    z, total = _softmax_block(sc, grad)
    log_q = (z * onehot).sum(axis=0)
    log_q -= np.log(total)
    if valid is not None:
        log_q *= valid  # an ignored pixel gets q = 1: a zero term and slope
    q = np.exp(log_q)  # at most 1, as log_q <= 0
    one_minus = 1.0 - q
    fg += onehot @ (-(one_minus ** gamma) * log_q)
    # slope = q dL/dq = gamma q (1 - q)^(gamma - 1) log q - (1 - q)^gamma,
    # 0 where 1 - q underflows (for gamma > 0 the limit of both terms is 0 there)
    safe = one_minus > 1e-12
    one_minus = np.where(safe, one_minus, 1.0)
    slope = gamma * q * one_minus ** (gamma - 1.0) * log_q - one_minus ** gamma
    slope *= safe
    # chain rule through softmax: dq/ds_j = q * (1[j = label] - p_j)
    grad *= -slope
    grad += onehot * slope
    if valid is not None:
        grad *= valid


def focal(s: ScoreBatch, y: MaskBatch) -> LossResult:
    """Focal loss: NLL scaled by (1 - p_true)^gamma to emphasize hard pixels."""
    return _public("focal", s, y)


def _tversky_sums(sc, onehot, valid, p, inter, a, b) -> None:
    """Tversky's sums pass over one block: the softmax p of its valid pixels
    into ``p``, and its I_k = sum_i p_ik t_ik, A_k = sum_i p_ik and B_k =
    sum_i t_ik added to ``inter``, ``a`` and ``b``."""
    _softmax_block(sc, p, valid)
    inter += np.vecdot(p, onehot)
    a += p.sum(axis=1)
    b += onehot.sum(axis=1)


def _tversky_slopes(inter, a, b, alpha: float, beta: float, eps: float):
    """The per-class losses (1 - index_k)/K of a batch's sums, and the (K, 1)
    slope columns u, v of dL/dp_ik = u_k + v_k t_ik (FP = A - I, FN = B - I)."""
    k_cls, fn_weight = inter.size, 1.0 - alpha - beta
    per_class, u, v = [], [], []
    for i_k, a_k, b_k in zip(inter.tolist(), a.tolist(), b.tolist()):
        denom = i_k + alpha * (a_k - i_k) + beta * (b_k - i_k) + eps  # Python floats
        index = (i_k + eps) / denom
        per_class.append((1.0 - index) / k_cls)
        u.append([alpha * index / denom / k_cls])
        v.append([(index * fn_weight - 1.0) / denom / k_cls])
    return np.array(per_class), np.array(u), np.array(v)


def _tversky_block(sc, onehot, valid, grad, fg, bg, u, v) -> None:
    """Soft Dice's and Tversky's gradient pass at the slopes (u, v) of their
    batch's sums: the block's softmax p into ``grad``, then dL/ds in place."""
    _softmax_block(sc, grad, valid)
    dp = onehot * v
    dp += u
    dp -= (dp * grad).sum(axis=0)  # softmax VJP: p_j (dp_j - sum_k dp_k p_k)
    grad *= dp


def soft_dice(s: ScoreBatch, y: MaskBatch) -> LossResult:
    """Soft Dice loss 1 - mean_k (2 I_k + eps)/(A_k + B_k + eps) on softmax scores:
    Tversky at alpha = beta = 1/2 with half the eps, (I + eps/2)/(I + FP/2 + FN/2 + eps/2)."""
    return _public("soft_dice", s, y)


def tversky(s: ScoreBatch, y: MaskBatch) -> LossResult:
    """Tversky loss 1 - mean_k (I_k + eps)/(I_k + alpha FP_k + beta FN_k + eps):
    soft Dice with separate false-positive/negative weights."""
    return _public("tversky", s, y)


def loss_of(name: str, margins: Optional[MarginOffsets], k_classes: int):
    """The (kernel, args, weights) of the loss ``name`` at its settings: its
    block kernel, the kernel's arguments and, for soft Dice and Tversky, which
    couple every pixel of a batch, the (alpha, beta, eps) of ``_tversky_slopes``
    (None for a pixel-wise loss).  The margin-offsets are checked against
    ``k_classes`` here, once; missing ones and an unknown name raise ConfigError."""
    if name == "margin_calibration":
        _check_margins(margins, k_classes)
        return _margin_block, (margins.rho_0k[:, None],
                               (margins.rho_k0 - margins.rho_0k)[:, None]), None
    if name == "cross_entropy":
        return _cross_entropy_block, (), None
    if name == "focal":
        return _focal_block, (BASELINE_FOCAL_GAMMA,), None
    if name == "soft_dice":
        return _tversky_block, (), (0.5, 0.5, 0.5 * BASELINE_DICE_EPS)
    if name == "tversky":
        return _tversky_block, (), (BASELINE_TVERSKY_ALPHA, BASELINE_TVERSKY_BETA,
                                    BASELINE_DICE_EPS)
    raise ConfigError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}")
