"""Central finite-difference verification of the analytic loss gradients."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import ScoreBatch, loss_by_name
from .margins import compute_margins
from .segdata import LabelStats, MaskBatch
from .team import _Team, process_count, shared_arrays

FD_STEP = 1e-5
#: each checked batch: one row of this many pixels over this many classes
N_PIXELS, K_CLASSES = 16, 3
#: entries where both gradients are below this scale are compared against it,
#: which keeps finite-difference roundoff noise from inflating the ratio
REL_ERR_FLOOR = 1e-6


def fd_gradient(value_fn, scores: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central finite differences of a scalar loss over every score entry."""
    grad = np.zeros_like(scores)
    flat = scores.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = value_fn(scores)
        flat[i] = orig - h
        down = value_fn(scores)
        flat[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return grad


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)
    return np.abs(analytic - numeric) / scale


@dataclass
class GradCheckResult:
    loss_name: str
    max_rel_err: float
    n_probes: int


def _random_case(rng: np.random.Generator):
    """Scores and labels with every class present and no near-tied maxima."""
    while True:
        scores = rng.normal(size=(N_PIXELS, K_CLASSES))
        top2 = np.sort(scores, axis=1)[:, -2:]
        if np.min(top2[:, 1] - top2[:, 0]) > 1e-3:
            break
    labels = rng.integers(0, K_CLASSES, size=N_PIXELS).astype(np.uint8)
    labels[:K_CLASSES] = np.arange(K_CLASSES, dtype=np.uint8)
    return scores, labels


class _Checks:
    """``check_losses``' walk: block i checks batch i % n_batches of loss
    i // n_batches and writes its largest relative error to ``errors[i]``,
    in shared memory; its result row is empty."""

    what, width = "a gradient check", 0

    def __init__(self, loss_fns: list, cases: list, margins) -> None:
        self.loss_fns, self.cases, self.margins = loss_fns, cases, margins
        self.n_blocks = len(loss_fns) * len(cases)
        self.errors = shared_arrays((np.float64, (self.n_blocks,)))[0]

    def run(self, i: int, row: np.ndarray) -> None:
        loss_fn = self.loss_fns[i // len(self.cases)]
        scores, labels = self.cases[i % len(self.cases)]
        scores = scores.copy()  # a loss raising inside fd_gradient leaves an entry perturbed
        mask = MaskBatch(labels=labels, width=N_PIXELS, height=1, n_images=1)

        def value(arr: np.ndarray) -> float:
            return loss_fn(ScoreBatch(scores=arr), mask, self.margins).value

        analytic = loss_fn(ScoreBatch(scores=scores), mask, self.margins).grad
        # h by keyword: perfbench's self-test wraps fd_gradient as (value_fn, scores, h)
        numeric = fd_gradient(value, scores, h=FD_STEP)
        self.errors[i] = relative_errors(analytic, numeric).max()


def check_losses(names, seed: int, n_batches: int = 50) -> list[GradCheckResult]:
    """Max relative error between analytic and finite-difference gradients
    (step FD_STEP) of each named loss over the same ``n_batches`` seeded
    batches of N_PIXELS pixels and K_CLASSES classes, with every class present
    in each batch.  Each (loss, batch) check is one block of a walk on every
    usable core (``team``); a failing check raises as it would in a run of
    every check in order, and nothing is forked for fewer than two checks.
    A NaN error in any batch makes its loss's error NaN."""
    if n_batches < 1:
        raise ConfigError(f"need at least one batch to check; got {n_batches}")
    loss_fns = [loss_by_name(name) for name in names]
    rng = np.random.default_rng(seed)
    cases = [_random_case(rng) for _ in range(n_batches)]
    margins = compute_margins(LabelStats([90, 7, 3]), tau=2.0, upsilon=1.0)
    walk = _Checks(loss_fns, cases, margins)
    with _Team(lambda job: walk, min(process_count(), walk.n_blocks) - 1,
               walk.n_blocks, walk.width) as team:
        team.map()
    # numpy's max keeps a NaN error, which Python's max would drop
    errors = walk.errors.reshape(len(loss_fns), n_batches).max(axis=1)
    return [GradCheckResult(loss_name=name, max_rel_err=float(err),
                            n_probes=n_batches * N_PIXELS * K_CLASSES)
            for name, err in zip(names, errors)]


def check_loss_gradient(loss_name: str, seed: int, n_batches: int = 50) -> GradCheckResult:
    """``check_losses`` of one loss."""
    return check_losses([loss_name], seed, n_batches)[0]
