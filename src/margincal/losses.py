"""Margin-based and baseline per-pixel losses with analytic gradients.

The margin of pixel i for class k is lambda_ik = s_ik - max_{j!=k} s_ij.
Calibration shifts it by the class margin-offsets (minus rho_k0 on the true
class, plus rho_0k elsewhere), and the trainable objective replaces the
piecewise-linear rho-margin loss min(1, max(0, 1 - lambda/rho)) with its
smooth upper bound log2(1 + 2^(-sbar)), whose gradient never vanishes.

All losses are pure functions of (scores, labels); reductions run in a fixed
order so repeated evaluations are bitwise identical.  Every loss reads the
batch class-major, in (K, BLOCK_PX) blocks whose temporaries stay in cache,
with row-wise numpy operations only: the margin objectives, cross-entropy and
focal sum per-pixel terms block by block, and soft Dice (Tversky at
alpha = beta = 1/2) and Tversky walk the blocks twice, once for their
per-class sums and once for the gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .margins import MarginOffsets
from .segdata import MaskBatch, check_labels

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


def _non_finite_at(scores: np.ndarray) -> Optional[tuple[int, int]]:
    """(pixel, class) of the first non-finite entry of (n, K) ``scores``, or None.

    NaN propagates through min and max, so two reductions see every
    non-finite entry without an (n, K) mask; only a failure builds one.
    """
    if scores.size and not (math.isfinite(scores.min()) and math.isfinite(scores.max())):
        pixel, k = np.argwhere(~np.isfinite(scores))[0]
        return int(pixel), int(k)
    return None


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


def _check_pair(s: ScoreBatch, y: MaskBatch) -> np.ndarray:
    if s.n_pixels != y.n_pixels:
        raise ShapeError(
            f"scores cover {s.n_pixels} pixels but mask has {y.n_pixels}"
        )
    check_labels(y, s.k_classes)
    return y.valid_mask()


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


def _blocks(s: ScoreBatch, y: Optional[MaskBatch] = None,
            valid: Optional[np.ndarray] = None, scores: bool = True):
    """The batch in class-major blocks of at most BLOCK_PX pixels, in pixel order.

    Yields (cols, sc, onehot, valid): the block's pixel slice, its (K, b)
    scores (None unless ``scores``) and its ``_block_rows``; without ``y``
    the last two are None.
    """
    for start in range(0, s.n_pixels, BLOCK_PX):
        cols = slice(start, start + BLOCK_PX)
        onehot = block_valid = block_sc = None
        if y is not None:
            onehot, block_valid = _block_rows(y.labels[cols], valid[cols], s.k_classes)
        if scores:
            block_sc = np.ascontiguousarray(s.scores.T[:, cols])
        yield cols, block_sc, onehot, block_valid


def _count_valid(valid: np.ndarray) -> int:
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise ShapeError("no valid pixels in batch")
    return n_valid


def _pixel_mean(loss, blocks, grad: np.ndarray, n_valid: int) -> LossResult:
    """Mean of a pixel-wise loss's terms over ``n_valid`` valid pixels.

    ``loss`` is a (kernel, args) pair from ``_pixel_kernel``.  ``blocks``
    yields class-major blocks (cols, sc, onehot, valid) as ``_blocks`` does,
    and ``kernel(sc, onehot, valid, grad[:, cols], fg, bg, *args)`` writes
    d(sum of the block's terms)/d(scores) into its slice of the (K, n)
    ``grad`` and adds the per-class term sums to ``fg`` (label class) and
    ``bg`` (the others).  The normalization comes last.
    """
    kernel, args = loss
    fg, bg = np.zeros(grad.shape[0]), np.zeros(grad.shape[0])
    for cols, sc, onehot, valid in blocks:
        kernel(sc, onehot, valid, grad[:, cols], fg, bg, *args)
    scale = 1.0 / n_valid
    grad *= scale
    fg *= scale
    bg *= scale
    return LossResult(float(fg.sum() + bg.sum()), grad.T, fg, bg)


def _pixelwise(loss, s: ScoreBatch, y: MaskBatch, valid: np.ndarray) -> LossResult:
    """``_pixel_mean`` of the whole batch, block by block."""
    grad = np.empty((s.k_classes, s.n_pixels))
    return _pixel_mean(loss, _blocks(s, y, valid), grad, _count_valid(valid))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (K, n) arrays, as one batched matmul."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _route_to_competitors(sc: np.ndarray, best: np.ndarray, g: np.ndarray,
                          grad: np.ndarray) -> None:
    """grad[c(k)] -= g[k] for each class k, where c(k) is the lowest index
    j != k with sc[j] == best[k]: d lambda_k/d s_c(k) = -1."""
    k_cls = sc.shape[0]
    for k in range(k_cls):
        others = [j for j in range(k_cls) if j != k]
        rest = g[k]
        for j in others[:-1]:
            taken = rest * (sc[j] == best[k])
            grad[j] -= taken
            rest = rest - taken
        grad[others[-1]] -= rest


def _margin_block(sc, onehot, valid, grad, fg, bg, rho_0k, rho_k0) -> None:
    """Calibrated log-loss terms of one class-major block (see _pixelwise)."""
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
    x += (rho_k0 - rho_0k) * onehot
    # term = log2(1 + 2^x) = max(x, 0) + log2(1 + 2^-|x|)
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp2(t, out=t)
    np.log1p(t, out=t)
    t *= 1.0 / _LN2
    term = np.maximum(x, 0.0)
    term += t
    fg += _row_dots(term, onehot)
    bg += _row_dots(term, off_label)
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
        raise ShapeError("margin-offsets and scores disagree on the class count")


def _check_margin_pair(s: ScoreBatch, y: MaskBatch, m: MarginOffsets) -> np.ndarray:
    valid = _check_pair(s, y)
    _check_margins(m, s.k_classes)
    return valid


def _margin_kernel(m: MarginOffsets):
    return _margin_block, (m.rho_0k[:, None], m.rho_k0[:, None])


def calibrated_log_loss(s: ScoreBatch, y: MaskBatch, m: MarginOffsets) -> LossResult:
    """Smoothed margin objective with its full analytic gradient.

    Value: (1/N_s) * sum_k [ sum_{i in class k} log2(1 + 2^(-sbar_ik))
    + sum_{i not in class k} log2(1 + 2^(sbar_ik)) ] over non-ignored pixels,
    where sbar_ik is lambda_ik - rho_k0 on the label and lambda_ik + rho_0k
    elsewhere.  The gradient chains through the margin's max term, routed to
    the single lowest-indexed best competitor of each (pixel, class) entry.
    """
    valid = _check_margin_pair(s, y, m)
    return _pixelwise(_margin_kernel(m), s, y, valid)


def rho_margin_objective(s: ScoreBatch, y: MaskBatch, m: MarginOffsets) -> LossResult:
    """Piecewise-linear margin objective (value only; its gradient is reported
    nowhere because it explodes for small offsets and vanishes elsewhere).

    ``per_class_fg[k]`` sums phi(lambda_ik / rho_k0) over pixels labelled k
    and ``per_class_bg[k]`` sums phi(-lambda_ik / rho_0k) over the other
    valid pixels, phi(t) = min(1, max(0, 1 - t)), each divided by the valid
    pixel count: the l_k0 and l_0k of the IoU lower bound.
    """
    valid = _check_margin_pair(s, y, m)
    n_valid = _count_valid(valid)
    fg, bg = np.zeros(s.k_classes), np.zeros(s.k_classes)
    for _, sc, onehot, block_valid in _blocks(s, y, valid):
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
    fg += _row_dots(np.clip(t, 0.0, 1.0, out=t), onehot)
    t = np.divide(lam, m.rho_0k[:, None], out=t)
    t += 1.0
    bg += _row_dots(np.clip(t, 0.0, 1.0, out=t), off_label)


# ---------------------------------------------------------------------------
# Baseline losses (softmax-probability based)
# ---------------------------------------------------------------------------


def _softmax_block(sc: np.ndarray, out: np.ndarray):
    """Softmax of a class-major (K, b) block, written into ``out``.

    Returns the shifted scores z = sc - max and their exp-sum ``total``, so
    that log p = z - log(total) holds even where p underflows.
    """
    z = np.subtract(sc, sc.max(axis=0))
    np.exp(z, out=out)
    total = out.sum(axis=0)
    out /= total
    return z, total


def _cross_entropy_block(sc, onehot, valid, grad, fg, bg) -> None:
    """Softmax negative log-likelihood terms of one class-major block."""
    z, total = _softmax_block(sc, grad)
    grad -= onehot
    if valid is not None:
        grad *= valid
    # -log p_label = log(sum_j e^z_j) - z_label
    np.subtract(np.log(total), z, out=z)
    fg += _row_dots(z, onehot)


def cross_entropy(s: ScoreBatch, y: MaskBatch) -> LossResult:
    """Mean softmax negative log-likelihood over non-ignored pixels."""
    return _pixelwise((_cross_entropy_block, ()), s, y, _check_pair(s, y))


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
    # slope = q dL/dq = gamma q (1 - q)^(gamma - 1) log q - (1 - q)^gamma
    if gamma > 0:
        # 0 where 1 - q underflows (the limit of both terms is 0 there)
        safe = one_minus > 1e-12
        one_minus = np.where(safe, one_minus, 1.0)
        slope = gamma * q * one_minus ** (gamma - 1.0) * log_q - one_minus ** gamma
        slope *= safe
    else:
        slope = -1.0
    # chain rule through softmax: dq/ds_j = q * (1[j = label] - p_j)
    grad *= -slope
    grad += onehot * slope
    if valid is not None:
        grad *= valid


def focal(s: ScoreBatch, y: MaskBatch, gamma: float = BASELINE_FOCAL_GAMMA) -> LossResult:
    """Focal loss: NLL scaled by (1 - p_true)^gamma to emphasize hard pixels."""
    if gamma < 0:
        raise ConfigError("gamma must be non-negative")
    return _pixelwise((_focal_block, (gamma,)), s, y, _check_pair(s, y))


def _tversky(s: ScoreBatch, y: MaskBatch, alpha: float, beta: float,
             eps: float) -> LossResult:
    """Tversky loss 1 - mean_k (I_k + eps)/(I_k + alpha FP_k + beta FN_k + eps)
    in two passes over the blocks.

    The first writes the softmax p of the valid pixels into the gradient
    buffer and sums I_k = sum_i p_ik t_ik, A_k = sum_i p_ik and B_k = sum_i
    t_ik (FP = A - I, FN = B - I); the second turns p into the gradient in
    place through the softmax VJP.  Ignored pixels have p = 0 throughout.
    """
    valid = _check_pair(s, y)
    _count_valid(valid)
    k_cls = s.k_classes
    grad = np.empty((k_cls, s.n_pixels))
    inter, a, b = np.zeros(k_cls), np.zeros(k_cls), np.zeros(k_cls)
    for cols, sc, onehot, block_valid in _blocks(s, y, valid):
        p = grad[:, cols]
        _softmax_block(sc, p)
        if block_valid is not None:
            p *= block_valid
        inter += _row_dots(p, onehot)
        a += p.sum(axis=1)
        b += onehot.sum(axis=1)
    denom = inter + alpha * (a - inter) + beta * (b - inter) + eps
    index = (inter + eps) / denom
    per_class = (1.0 - index) / k_cls
    # dL/dp_ik = u_k + v_k t_ik, from dI/dp = t, dFP/dp = 1 - t, dFN/dp = -t
    u = (alpha * index / denom / k_cls)[:, None]
    v = ((index * (1.0 - alpha - beta) - 1.0) / denom / k_cls)[:, None]
    for cols, _, onehot, _ in _blocks(s, y, valid, scores=False):
        p = grad[:, cols]
        dp = onehot * v
        dp += u
        dp -= (dp * p).sum(axis=0)  # softmax VJP: p_j (dp_j - sum_k dp_k p_k)
        p *= dp
    return LossResult(float(per_class.sum()), grad.T, per_class, np.zeros(k_cls))


def soft_dice(s: ScoreBatch, y: MaskBatch, eps: float = BASELINE_DICE_EPS) -> LossResult:
    """Soft Dice loss 1 - mean_k (2 I_k + eps)/(A_k + B_k + eps) on softmax scores:
    Tversky at alpha = beta = 1/2 with eps/2, since (2I + eps)/(A + B + eps)
    = (I + eps/2)/(I + FP/2 + FN/2 + eps/2)."""
    return _tversky(s, y, 0.5, 0.5, 0.5 * eps)


def tversky(
    s: ScoreBatch,
    y: MaskBatch,
    alpha: float = BASELINE_TVERSKY_ALPHA,
    beta: float = BASELINE_TVERSKY_BETA,
    eps: float = BASELINE_DICE_EPS,
) -> LossResult:
    """Tversky loss: soft Dice with separate false-positive/negative weights."""
    return _tversky(s, y, alpha, beta, eps)


def _pixel_kernel(name: str, margins: Optional[MarginOffsets], k_classes: int):
    """The (block kernel, args) pair that ``_pixel_mean`` takes for the loss
    ``name`` at its default settings, or None for soft Dice and Tversky,
    which couple every pixel of a batch.  The margin-offsets are checked
    against ``k_classes`` here, once; missing ones raise ConfigError."""
    if name == "margin_calibration":
        _check_margins(margins, k_classes)
        return _margin_kernel(margins)
    if name == "cross_entropy":
        return _cross_entropy_block, ()
    if name == "focal":
        return _focal_block, (BASELINE_FOCAL_GAMMA,)
    return None


def loss_by_name(name: str):
    """Map a loss name to a (scores, mask, margins) -> LossResult callable.

    Baselines ignore the margins argument; it keeps one calling convention
    for the trainer.
    """
    if name == "margin_calibration":
        return calibrated_log_loss
    if name == "cross_entropy":
        return lambda s, y, m: cross_entropy(s, y)
    if name == "focal":
        return lambda s, y, m: focal(s, y)
    if name == "soft_dice":
        return lambda s, y, m: soft_dice(s, y)
    if name == "tversky":
        return lambda s, y, m: tversky(s, y)
    raise ConfigError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}")
