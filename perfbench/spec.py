"""What the benchmark measures: workloads, metrics, units, directions and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``) and a self-test keeps the two
equal, so the metric names printed by ``run.py`` and the manifest cannot drift.
"""
from __future__ import annotations

RUN_SECONDS = 15
DEFAULT_SEED = 0

#: (name, why) -- the why is the one-line reason the workload exists.
WORKLOADS = (
    ("ablation",
     "training hot path: margin and CE runs at the fixed 204,800-px step shape "
     "(d=8, hidden=16, K=3), trainer forward/backward/update plus losses"),
    ("eval_bound",
     "evaluation path with no backward: forward, IoU lower bound and gap over "
     "4,096,000 px whose (N,16) hidden array is 4x the L3 cache"),
    ("sweep",
     "9-cell tau x upsilon grid through cli.run: many short runs that each "
     "regenerate data, on 3.2x smaller batches than the ablation"),
    ("gradcheck_all",
     "gradcheck --loss all through cli.run, 2,425 loss calls on 16-px batches: "
     "fixed per-call cost, not per-pixel; only user of focal, dice, tversky"),
)

#: (name, unit, better, bound) measured with tracing off, on every workload.
#: Times and rates are speed-normalised (speed.py); the wall-clock figures
#: are printed beside them and kept in the run's details file.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("norm_wall_s", "s", "lower", 0.25),
    ("norm_work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "ratio", "higher", 0.01),
)

#: layers are margincal's modules that do work here; _kernels never runs
#: because numba is absent, so it has no metric.
LAYERS = ("segdata", "margins", "losses", "trainer", "metrics", "bound", "cli", "gradcheck")

#: (name, unit, better) from the traced run.
PER_LAYER = (
    ("segdata.generate_ns_px", "ns/px", "lower"),
    ("segdata.stats_ns_px", "ns/px", "lower"),
    ("segdata.px_generated", "count", "lower"),
    ("margins.compute_us", "us", "lower"),
    ("losses.margin_ns_px", "ns/px", "lower"),
    ("losses.ce_ns_px", "ns/px", "lower"),
    ("losses.call_us", "us", "lower"),
    ("losses.calls", "count", "lower"),
    ("trainer.forward_ns_px", "ns/px", "lower"),
    ("trainer.backward_ns_px", "ns/px", "lower"),
    ("trainer.train_self_ns_px", "ns/px", "lower"),
    ("trainer.steps", "count", "lower"),
    ("trainer.px_steps", "count", "lower"),
    ("trainer.forward_peak_mb", "MB", "lower"),
    ("trainer.evaluate_ns_px", "ns/px", "lower"),
    ("metrics.predict_ns_px", "ns/px", "lower"),
    ("metrics.confusion_ns_px", "ns/px", "lower"),
    ("metrics.lower_bound_self_ns_px", "ns/px", "lower"),
    ("metrics.lower_bound_peak_mb", "MB", "lower"),
    ("bound.evaluate_epsilon_us", "us", "lower"),
    ("cli.self_s", "s", "lower"),
    ("gradcheck.fd_self_us_per_call", "us", "lower"),
) + tuple((f"{layer}.share", "ratio", "lower") for layer in LAYERS) + (
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def bound_of(name: str) -> float:
    return next(b for n, _, _, b in END_TO_END if n == name)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
