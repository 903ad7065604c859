"""Spans around margincal's functions, and the per-layer metrics drawn from them.

The traced run swaps the module attributes that callers look up at call time
(``margincal.trainer.backward``, ``margincal.cli.train``, ...) for wrappers
that record one span per call, then puts the originals back.  Nothing inside
``src/`` changes.  A span is [name, parent span, start ns, end ns, pixels,
peak traced bytes, phase]; spans stay in memory until the run writes them.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

NAME, PARENT, START, END, PX, PEAK, PHASE = range(7)
ROOT = "bench.iteration"
LOSS_FUNCTIONS = ("calibrated_log_loss", "cross_entropy", "focal", "soft_dice", "tversky")


def _px_cfg(args):
    cfg = args[0]
    return cfg.width * cfg.height * cfg.n_images


def _px_arg(i):
    return lambda args: args[i].n_pixels


def _px_rows(i):
    return lambda args: args[i].shape[0]


def _px_train(args):
    return args[2].n_pixels * args[3].epochs


#: (module, attribute, pixels from the call's positional arguments or None,
#: record peak memory).  One function may sit behind several attributes
#: because callers import it by name into their own module.
TARGETS = (
    ("segdata", "generate_synthetic", _px_cfg, False),
    ("cli", "generate_synthetic", _px_cfg, False),
    ("segdata", "accumulate_stats", _px_arg(0), False),
    ("cli", "accumulate_stats", _px_arg(0), False),
    ("margins", "compute_margins", None, False),
    ("cli", "compute_margins", None, False),
    ("gradcheck", "compute_margins", None, False),
    *(("losses", name, _px_arg(0), False) for name in LOSS_FUNCTIONS),
    ("trainer", "_forward_cache", _px_rows(1), True),
    ("trainer", "forward", _px_arg(1), False),
    ("trainer", "backward", _px_rows(1), False),
    ("trainer", "train", _px_train, False),
    ("cli", "train", _px_train, False),
    ("trainer", "evaluate", _px_arg(2), False),
    ("trainer", "predict_labels", _px_arg(0), False),
    ("metrics", "predict_labels", _px_arg(0), False),
    ("trainer", "confusion", _px_arg(1), False),
    ("metrics", "confusion", _px_arg(1), False),
    ("trainer", "iou_report", None, False),
    ("metrics", "iou_report", None, False),
    ("metrics", "lower_bound_report", _px_arg(0), True),
    ("bound", "evaluate_epsilon", None, False),
    ("cli", "run", None, False),
    ("gradcheck", "check_loss_gradient", None, False),
    ("gradcheck", "fd_gradient", None, False),
)


def target_attributes():
    """(module object, attribute) for every wrapped attribute."""
    return [(importlib.import_module(f"margincal.{m}"), a) for m, a, _, _ in TARGETS]


class Tracer:
    """Records spans while installed; ``phase`` tags them as set-up or iteration."""

    def __init__(self) -> None:
        self.spans: list = []
        self.phase = "setup"
        self._stack: list = []
        self._saved: list = []

    def install(self) -> None:
        for (module, attr), (_, _, px_of, track) in zip(target_attributes(), TARGETS):
            original = getattr(module, attr)
            layer = original.__module__.rsplit(".", 1)[-1]
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{original.__name__}", px_of, track))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str, px: int) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0, 0, px, 0, self.phase]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, px_of, track):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, px_of(args) if px_of else 0)
            measure = track and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                if measure:
                    span[PEAK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    @contextmanager
    def root(self):
        """The benchmark's own span around one traced iteration."""
        span = self._open(ROOT, 0)
        span[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children (ns)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


class _Agg:
    def __init__(self) -> None:
        self.calls = self.ns = self.self_ns = self.px = self.peak = 0


def _aggregate(spans: list, selfs: list, phase=None) -> dict:
    agg = defaultdict(_Agg)
    for s, own in zip(spans, selfs):
        if phase is not None and s[PHASE] != phase:
            continue
        a = agg[s[NAME]]
        a.calls += 1
        a.ns += s[END] - s[START]
        a.self_ns += own
        a.px += s[PX]
        a.peak = max(a.peak, s[PEAK])
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list, traced_walls: list, untraced_walls: list, layers) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    selfs = self_times(spans)
    every = _aggregate(spans, selfs)
    it = _aggregate(spans, selfs, phase="iter")
    n_iter = len(traced_walls)
    wall_ns = sum(traced_walls) * 1e9

    def ns_px(name, own=False):
        a = every[name]
        return _ratio(a.self_ns if own else a.ns, a.px)

    def mean_us(name, own=False):
        a = every[name]
        return _ratio(a.self_ns if own else a.ns, a.calls) / 1e3

    loss_names = [f"losses.{n}" for n in LOSS_FUNCTIONS]
    loss_calls = sum(every[n].calls for n in loss_names)
    fd_children = sum(
        1 for s in spans
        if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "gradcheck.fd_gradient"
    )
    shares = defaultdict(float)
    for name, a in it.items():
        shares[name.split(".", 1)[0]] += a.self_ns
    out = {
        "segdata.generate_ns_px": ns_px("segdata.generate_synthetic"),
        "segdata.stats_ns_px": ns_px("segdata.accumulate_stats"),
        "segdata.px_generated": _ratio(it["segdata.generate_synthetic"].px, n_iter),
        "margins.compute_us": mean_us("margins.compute_margins"),
        "losses.margin_ns_px": ns_px("losses.calibrated_log_loss"),
        "losses.ce_ns_px": ns_px("losses.cross_entropy"),
        "losses.call_us": _ratio(sum(every[n].ns for n in loss_names), loss_calls) / 1e3,
        "losses.calls": _ratio(sum(it[n].calls for n in loss_names), n_iter),
        "trainer.forward_ns_px": ns_px("trainer._forward_cache"),
        "trainer.backward_ns_px": ns_px("trainer.backward"),
        "trainer.train_self_ns_px": ns_px("trainer.train", own=True),
        "trainer.steps": _ratio(it["trainer.backward"].calls, n_iter),
        "trainer.px_steps": _ratio(it["trainer.backward"].px, n_iter),
        "trainer.forward_peak_mb": every["trainer._forward_cache"].peak / 2**20,
        "trainer.evaluate_ns_px": ns_px("trainer.evaluate"),
        "metrics.predict_ns_px": ns_px("metrics.predict_labels"),
        "metrics.confusion_ns_px": ns_px("metrics.confusion"),
        "metrics.lower_bound_self_ns_px": ns_px("metrics.lower_bound_report", own=True),
        "metrics.lower_bound_peak_mb": every["metrics.lower_bound_report"].peak / 2**20,
        "bound.evaluate_epsilon_us": mean_us("bound.evaluate_epsilon"),
        "cli.self_s": mean_us("cli.run", own=True) / 1e6,
        "gradcheck.fd_self_us_per_call": _ratio(every["gradcheck.fd_gradient"].self_ns, fd_children) / 1e3,
    }
    for layer in layers:
        out[f"{layer}.share"] = _ratio(shares[layer], wall_ns)
    out["trace.coverage"] = sum(out[f"{layer}.share"] for layer in layers)
    out["trace.overhead"] = _ratio(statistics.median(traced_walls), statistics.median(untraced_walls))
    return out


STAGES = (
    ("forward", "trainer._forward_cache"),
    ("margin loss + grad", "losses.calibrated_log_loss"),
    ("cross-entropy + grad", "losses.cross_entropy"),
    ("backward", "trainer.backward"),
    ("gather + update (train self)", "trainer.train"),
    ("evaluate", "trainer.evaluate"),
)


def stage_table(spans: list) -> list:
    """ROADMAP stage rows: (stage, calls, ms per call, ns/px).

    Step stages are the spans called directly by ``trainer.train``; the
    gather + update row is train's self time per step over the step's pixels,
    and evaluate counts every ``trainer.evaluate`` call.
    """
    agg = _aggregate(spans, self_times(spans))
    steps = agg["trainer.backward"].calls
    rows = []
    for stage, name in STAGES:
        if name == "trainer.train":
            if steps:
                own = agg[name].self_ns
                rows.append((stage, steps, own / steps / 1e6, own / agg["trainer.backward"].px))
            continue
        picked = [s for s in spans if s[NAME] == name and (
            name == "trainer.evaluate"
            or (s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "trainer.train"))]
        if picked:
            ns = sum(s[END] - s[START] for s in picked)
            rows.append((stage, len(picked), ns / len(picked) / 1e6,
                         _ratio(ns, sum(s[PX] for s in picked))))
    return rows
