"""Self-tests of the benchmark on tiny shapes.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that BENCHMARK.json is the manifest spec.py generates, that the
traced layers' self times account for the traced wall time, that an untraced
run leaves margincal's module attributes untouched, and that every output
check can fail: a perturbed reference or a wrong output is reported as a
failed operation.  The speed probe must scale by its kernel's time and put
the alarm back as it found it.
"""
from __future__ import annotations

import json
import signal
import time

import pytest

import run
import spec
import speed

assert run.add_sources(), "run from a margincal checkout"

import tracing  # noqa: E402
import workloads  # noqa: E402
from margincal import cli, errors, gradcheck, losses, metrics  # noqa: E402

TINY = {
    "ablation": lambda: workloads.Ablation(train_images=4, val_images=2, epochs=1),
    "eval_bound": lambda: workloads.EvalBound(n_images=4),
    "sweep": lambda: workloads.Sweep(train_images=20, val_images=8, epochs=1),
    "gradcheck_all": lambda: workloads.GradcheckAll(batches=2),
}


def _measure(name, out_dir, tracer=None, references=None):
    return run.measure(TINY[name](), 0, 0.0, out_dir, tracer, references)


def _failed_ops(m) -> set:
    return {op for it in m.iterations for op, msgs in it.outcome.failures.items() if msgs}


def test_benchmark_json_is_the_generated_manifest():
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


@pytest.mark.parametrize("name", TINY)
def test_untraced_run_leaves_wrapped_attributes_identical(name, tmp_path):
    targets = tracing.target_attributes()
    found = [getattr(module, attr) for module, attr in targets]
    m = _measure(name, tmp_path)
    assert all(getattr(module, attr) is f for (module, attr), f in zip(targets, found))
    assert list(run.end_to_end(m, 0.0)) == [n for n, *_ in spec.END_TO_END]
    tracer = tracing.Tracer()
    _measure(name, tmp_path, tracer)
    assert tracer.spans
    assert all(getattr(module, attr) is f for (module, attr), f in zip(targets, found))


@pytest.mark.parametrize("name", TINY)
def test_traced_self_times_sum_to_traced_wall(name, tmp_path):
    tracer = tracing.Tracer()
    m = _measure(name, tmp_path, tracer)
    assert min(tracing.self_times(tracer.spans)) >= 0
    layer = tracing.per_layer(tracer.spans, m.walls(True), m.walls(False), spec.LAYERS)
    assert list(layer) == [n for n, *_ in spec.PER_LAYER]
    assert abs(layer["trace.coverage"] - 1.0) <= spec.bound_of("norm_wall_s")


def test_speed_probe_scales_by_the_kernel_time_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    slow = speed.SpeedProbe(lambda: time.sleep(0.002), nominal_s=0.001)
    with slow:
        time.sleep(0.1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(slow.samples) >= 4 and 0 < slow.stolen_s < slow.wall_s
    # the kernel ran at about half the nominal speed, so the block counts about half
    assert 0.3 < slow.factor < 0.55
    net = slow.wall_s - slow.stolen_s
    assert slow.normalised_s == pytest.approx(net * slow.factor)


def _perturb(value):
    if isinstance(value, dict):
        return {**value, "miou": value["miou"] + 1e-6}
    if isinstance(value, float):
        return value + 1e-6
    return value + "1"  # a sweep CSV row


@pytest.mark.parametrize("name", ["ablation", "eval_bound", "sweep"])
def test_perturbed_reference_fails_its_operation(name, tmp_path):
    m = _measure(name, tmp_path)
    observed = m.iterations[0].outcome.observed
    passing = sorted(set(observed) - _failed_ops(m))
    assert passing
    assert _failed_ops(_measure(name, tmp_path, references=observed)) == _failed_ops(m)
    op = passing[0]
    perturbed = {**observed, op: _perturb(observed[op])}
    assert op in _failed_ops(_measure(name, tmp_path, references=perturbed))


def test_ablation_counts_a_background_model_and_a_raising_loss(tmp_path, monkeypatch):
    # one epoch on four images leaves the margin model predicting background only
    assert _failed_ops(_measure("ablation", tmp_path)) == {"eval:margin_calibration"}

    def broken(*args, **kwargs):
        raise errors.NumericError("injected")

    monkeypatch.setattr(losses, "cross_entropy", broken)
    failed = _failed_ops(_measure("ablation", tmp_path))
    assert {"train:cross_entropy", "eval:cross_entropy"} <= failed


def test_eval_bound_recount_catches_a_wrong_confusion(tmp_path, monkeypatch):
    assert _failed_ops(_measure("eval_bound", tmp_path)) == set()
    original = metrics.lower_bound_report

    def one_pixel_off(s, y, m, stats=None):
        report = original(s, y, m, stats)
        report.p_k0 = report.p_k0 + 1.0 / y.n_pixels
        return report

    monkeypatch.setattr(metrics, "lower_bound_report", one_pixel_off)
    m = _measure("eval_bound", tmp_path)
    assert _failed_ops(m) == {"eval"}
    assert "recount" in m.iterations[0].outcome.failures["eval"][0]


def test_sweep_counts_failed_cells(tmp_path, monkeypatch):
    assert _failed_ops(_measure("sweep", tmp_path)) == set()
    original = cli.compute_margins

    def fail_tau_50(stats, tau, upsilon):
        if tau == 50:
            raise errors.StatsError("injected")
        return original(stats, tau=tau, upsilon=upsilon)

    monkeypatch.setattr(cli, "compute_margins", fail_tau_50)
    assert _failed_ops(_measure("sweep", tmp_path)) == {
        f"tau=50,upsilon={u}" for u in ("0.5", "1", "2")}


def test_gradcheck_counts_losses_over_tolerance(tmp_path, monkeypatch):
    assert _failed_ops(_measure("gradcheck_all", tmp_path)) == set()
    original = gradcheck.fd_gradient
    monkeypatch.setattr(gradcheck, "fd_gradient",
                        lambda value_fn, scores, h: original(value_fn, scores, h=h) * 1.01)
    assert _failed_ops(_measure("gradcheck_all", tmp_path)) == set(losses.LOSS_NAMES)
