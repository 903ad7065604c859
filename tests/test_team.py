"""Tests for block walks on several processes: evaluation on one and on two
cores, standalone and inside ``train``, gradient checks, the fork threshold,
a helper that dies, two teams alive at once, and where helpers run."""
import gc
import os
import time
import weakref

import numpy as np
import pytest

import margincal.gradcheck as gradcheck_module
import margincal.losses as losses_module
import margincal.metrics as metrics_module
import margincal.team as team_module
import margincal.trainer as trainer_module
from margincal.cli import run
from margincal.errors import ConfigError, MarginCalError, NumericError, TrainError
from margincal.gradcheck import _random_case, check_losses
from margincal.losses import BLOCK_PX, LOSS_NAMES, ScoreBatch, rho_margin_objective
from margincal.margins import compute_margins
from margincal.metrics import lower_bound_report
from margincal.segdata import FEATURE_DIM, FeatureBatch, MaskBatch, accumulate_stats
from margincal.team import FORK_MIN_BLOCKS, _Team, run_walk, shared_arrays
from margincal.trainer import PixelMLP, TrainConfig, evaluate, forward, train
from test_metrics import recount
from test_trainer import (  # noqa: F401  (forks and deadline are fixtures)
    assert_reaped, deadline, forks, run_training, tiny_dataset, use_cores, wait_for_helper_exit,
)

#: 8 full blocks and a last one of 17 pixels: an odd block count
N_PIXELS = 8 * BLOCK_PX + 17
N_BLOCKS = 9


def identity_case(k=3, seed=0):
    """A model whose scores are its first k features, on random non-negative
    scores (relu keeps them) with planted ties and ignored pixels.

    Every block has two-way ties between the first, middle and last class and
    an all-equal row; every 7th row is rounded down to small integers, which
    tie often; the second block holds the only ignored pixels.
    """
    rng = np.random.default_rng(seed)
    scores = rng.random((N_PIXELS, k)) * 4.0
    scores[::7] = np.floor(scores[::7])
    mid, last = k // 2, k - 1
    for start in range(0, N_PIXELS, BLOCK_PX):
        for i, pair in enumerate([(0, mid), (mid, last), (0, last), range(k)]):
            row = scores[min(start + 2 * i + 1, N_PIXELS - 1)]
            row[:] = 0.5
            row[list(pair)] = 3.0
    labels = rng.integers(0, k, size=N_PIXELS).astype(np.uint8)
    labels[BLOCK_PX + 100 : BLOCK_PX + 400] = 255
    features = np.zeros((N_PIXELS, FEATURE_DIM))
    features[:, :k] = scores
    masks = MaskBatch(labels=labels, width=N_PIXELS, height=1, n_images=1)
    margins = compute_margins(accumulate_stats(masks, k), tau=2.0, upsilon=1.0)
    model = PixelMLP(w1=np.eye(FEATURE_DIM, k), b1=np.zeros(k), w2=np.eye(k), b2=np.zeros(k))
    return FeatureBatch(features=features), masks, margins, model


def evaluation_outputs(model, feats, masks, margins):
    """The bytes of every output of forward, lower_bound_report and evaluate,
    after checking them against serial oracles: the scores are the identity
    model's inputs, the counts an argmax/bincount recount, and the phi-sums
    bitwise those of ``rho_margin_objective``'s one serial walk."""
    s = forward(model, feats)
    report = lower_bound_report(s, masks, margins)
    plain = evaluate(model, feats, masks)
    np.testing.assert_array_equal(s.scores, feats.features[:, :3])
    tp, fp, fn, n = recount(s.scores, masks.labels, 3)
    for got in (report, plain):
        np.testing.assert_array_equal(got.p_k0, fn / n)
        np.testing.assert_array_equal(got.p_0k, fp / n)
        np.testing.assert_array_equal(got.p_k, (tp + fn) / n)
        assert got.pixel_accuracy == tp.sum() / n
    objective = rho_margin_objective(s, masks, margins)
    np.testing.assert_array_equal(report.ell_k0, objective.per_class_fg)
    np.testing.assert_array_equal(report.ell_0k, objective.per_class_bg)
    arrays = [s.scores, report.iou_per_class, report.iou_lower_per_class, report.ell_k0,
              report.ell_0k, plain.iou_per_class, plain.p_k0, plain.p_0k]
    return [np.ascontiguousarray(a).tobytes() for a in arrays] + [
        report.miou, report.miou_lower, plain.miou]


@pytest.mark.usefixtures("deadline")
class TestParallelEvaluation:
    """``forward``, ``lower_bound_report`` and ``evaluate`` walk their blocks
    on one process per usable core once a walk has FORK_MIN_BLOCKS blocks,
    and their outputs are bitwise those of one process."""

    @pytest.mark.parametrize("threshold, forked", [(N_BLOCKS, True), (N_BLOCKS + 1, False)],
                             ids=["at-threshold", "below-threshold"])
    def test_one_and_two_cores_agree_bitwise(self, monkeypatch, forks, threshold, forked):
        feats, masks, margins, model = identity_case()
        monkeypatch.setattr(team_module, "FORK_MIN_BLOCKS", threshold)
        outputs = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            forks.clear()
            outputs.append(evaluation_outputs(model, feats, masks, margins))
            # one walk each: forward, lower_bound_report and evaluate
            assert len(forks) == (3 if forked and cores == 2 else 0)
            assert_reaped(forks)
        assert outputs[1] == outputs[0]

    def test_a_walk_forks_from_the_threshold_on(self, monkeypatch, forks):
        class Indices:
            what, width = "a test walk", 1

            def __init__(self, n_blocks):
                self.n_blocks = n_blocks

            def run(self, i, row):
                row[0] = i

        use_cores(monkeypatch, 2)
        for n_blocks in (FORK_MIN_BLOCKS - 1, FORK_MIN_BLOCKS):
            forks.clear()
            assert run_walk(Indices(n_blocks))[0] == n_blocks * (n_blocks - 1) // 2
            assert len(forks) == (n_blocks >= FORK_MIN_BLOCKS)
            assert_reaped(forks)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("threshold", [N_BLOCKS, N_BLOCKS + 1],
                             ids=["at-threshold", "below-threshold"])
    def test_evaluate_with_margins_is_the_lower_bound_report_bitwise(self, monkeypatch, forks,
                                                                     k, threshold):
        """One walk from features to counts gives the counts of an
        argmax/bincount recount and the phi-sums of ``rho_margin_objective``,
        bitwise the same on one and two cores; it forks at most once and
        builds no (K, n) score array: ``_Forward`` raises while it runs."""
        feats, masks, margins, model = identity_case(k)
        monkeypatch.setattr(team_module, "FORK_MIN_BLOCKS", threshold)
        fields = ("iou_per_class", "dsc_per_class", "miou", "pixel_accuracy", "p_k", "p_k0",
                  "p_0k", "present", "iou_lower_per_class", "miou_lower", "ell_k0", "ell_0k",
                  "bound_scope")

        def as_bytes(report):
            return [np.asarray(getattr(report, name)).tobytes() for name in fields]

        use_cores(monkeypatch, 1)
        report = evaluate(model, feats, masks, margins)
        scores = feats.features[:, :k]  # the identity model's
        tp, fp, fn, n = recount(scores, masks.labels, k)
        np.testing.assert_array_equal(report.p_k0, fn / n)
        np.testing.assert_array_equal(report.p_0k, fp / n)
        assert report.pixel_accuracy == tp.sum() / n
        objective = rho_margin_objective(ScoreBatch(scores), masks, margins)
        np.testing.assert_array_equal(report.ell_k0, objective.per_class_fg)
        np.testing.assert_array_equal(report.ell_0k, objective.per_class_bg)
        want = as_bytes(report)

        def no_score_array(*args):
            raise AssertionError("evaluate built a (K, n) score array")

        monkeypatch.setattr(trainer_module, "_Forward", no_score_array)
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            forks.clear()
            assert as_bytes(evaluate(model, feats, masks, margins)) == want
            plain = evaluate(model, feats, masks)
            assert plain.miou_lower is None
            assert as_bytes(plain)[:8] == want[:8]
            assert len(forks) == (2 if threshold == N_BLOCKS and cores == 2 else 0)
            assert_reaped(forks)

    @pytest.mark.parametrize("walk", ["forward", "lower_bound_report", "evaluate"])
    def test_a_dead_helper_raises_naming_the_walk(self, monkeypatch, forks, walk):
        feats, masks, margins, model = identity_case()
        s = forward(model, feats)
        monkeypatch.setattr(team_module, "FORK_MIN_BLOCKS", 2)
        use_cores(monkeypatch, 2)
        parent = os.getpid()
        module, name = (trainer_module, "_forward_cache") if walk == "forward" else (
            metrics_module, "_lambda")
        real = getattr(module, name)

        def die_in_helper(*args):
            if os.getpid() != parent:
                os._exit(3)
            wait_for_helper_exit(forks)  # so the helper surely claims a block
            return real(*args)

        monkeypatch.setattr(module, name, die_in_helper)
        calls = {"forward": lambda: forward(model, feats),
                 "lower_bound_report": lambda: lower_bound_report(s, masks, margins),
                 "evaluate": lambda: evaluate(model, feats, masks, margins)}
        with pytest.raises(MarginCalError,
                           match=rf"^block helper process \d+ exited during {walk}$"):
            calls[walk]()
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_non_finite_score_names_its_pixel(self, monkeypatch, forks, cores):
        """NaN features in blocks 1 and 4, which either process may claim at
        2 cores: evaluation names the first by its image and its pixel in
        that image, as a training step does; ``forward``'s ScoreBatch check
        names it by its pixel in the split."""
        feats, masks, margins, model = identity_case()
        monkeypatch.setattr(team_module, "FORK_MIN_BLOCKS", 2)
        feats.features[BLOCK_PX + 123, 1] = np.nan
        feats.features[4 * BLOCK_PX + 5, 0] = np.nan
        use_cores(monkeypatch, cores)
        with pytest.raises(NumericError) as want:
            forward(model, feats)
        assert str(want.value) == f"non-finite score at pixel {BLOCK_PX + 123}, class 0"
        for margins_or_none in (None, margins):
            with pytest.raises(NumericError) as got:
                evaluate(model, feats, masks, margins_or_none)
            assert str(got.value) == f"non-finite score at image 0, pixel {BLOCK_PX + 123}, class 0"
        assert len(forks) == 3 * (cores - 1)
        assert_reaped(forks)


@pytest.mark.usefixtures("deadline")
class TestEvaluationInTrain:
    """``train`` evaluates both splits on its step team: its log's mIoUs are
    bitwise a standalone ``evaluate``'s, and it forks no more helpers."""

    @staticmethod
    def data():
        """Training and val splits of 64x64 images, one image per block."""
        feats, masks = tiny_dataset(seed=5, n_images=6, size=64, noise=0.1)
        val_feats, val_masks = tiny_dataset(seed=6, n_images=3, size=64, noise=0.1)
        return feats, masks, val_feats, val_masks

    def test_log_mious_equal_a_standalone_evaluate(self, monkeypatch, forks):
        feats, masks, val_feats, val_masks = self.data()
        cfg = TrainConfig(loss_name="cross_entropy", epochs=3, batch_images=6, seed=3,
                          eval_every=2)
        runs = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            forks.clear()
            model, log = train(PixelMLP.init(FEATURE_DIM, 8, 3, seed=1), feats, masks, cfg,
                               val_features=val_feats, val_masks=val_masks)
            assert len(forks) == cores - 1
            assert_reaped(forks)
            assert [r.epoch for r in log] == [2, 3]
            last = log[-1]
            assert last.train_miou == evaluate(model, feats, masks).miou
            assert last.val_miou == evaluate(model, val_feats, val_masks).miou
            runs.append([(r.train_miou, r.val_miou) for r in log])
        assert runs[1] == runs[0]

    def test_a_helper_dead_during_evaluation_raises_naming_it(self, monkeypatch, forks):
        """The step does not use ``metrics._lambda``; only evaluation does, of
        the train split first."""
        feats, masks, val_feats, val_masks = self.data()
        parent = os.getpid()
        real = metrics_module._lambda

        def die_in_helper(sc):
            if os.getpid() != parent:
                os._exit(3)
            wait_for_helper_exit(forks)  # so the helper surely claims a block
            return real(sc)

        monkeypatch.setattr(metrics_module, "_lambda", die_in_helper)
        use_cores(monkeypatch, 2)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=6, eval_every=1)
        with pytest.raises(TrainError) as caught:
            train(PixelMLP.init(FEATURE_DIM, 8, 3, seed=1), feats, masks, cfg,
                  val_features=val_feats, val_masks=val_masks)
        assert str(caught.value) == (f"block helper process {forks[0]} exited during evaluate "
                                     f"at epoch 1, train split")
        assert len(forks) == 1
        assert_reaped(forks)

    def test_a_non_finite_val_score_names_its_pixel(self, monkeypatch, forks):
        feats, masks, val_feats, val_masks = self.data()
        val_feats.features[BLOCK_PX + 9, 2] = np.nan
        use_cores(monkeypatch, 2)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=6, eval_every=1)
        with pytest.raises(TrainError, match=r"^non-finite score at image 1, pixel 9, class 0 "
                                             r"at epoch 1, val split$"):
            train(PixelMLP.init(FEATURE_DIM, 8, 3, seed=1), feats, masks, cfg,
                  val_features=val_feats, val_masks=val_masks)
        assert len(forks) == 1
        assert_reaped(forks)


@pytest.mark.usefixtures("deadline")
class TestGradientChecks:
    """``check_losses`` runs each (loss, batch) check as one block of a walk."""

    @pytest.mark.parametrize("n_batches", [1, 3, 5])
    def test_one_and_two_cores_agree_with_one_loss_at_a_time(self, monkeypatch, forks,
                                                             n_batches):
        results = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            forks.clear()
            results.append(check_losses(LOSS_NAMES, 11, n_batches))
            assert len(forks) == cores - 1
            assert_reaped(forks)
        forks.clear()
        assert results[1] == results[0] == [check_losses([name], 11, n_batches)[0]
                                            for name in LOSS_NAMES]
        # one team per loss, and a run of one block forks nothing
        assert len(forks) == (len(LOSS_NAMES) if n_batches > 1 else 0)
        assert_reaped(forks)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_failing_check_raises_from_its_first_block(self, monkeypatch, forks, capsys,
                                                         cores):
        """Every focal check raises, whichever process claims it: the error
        is focal batch 0's, and the command writes no row."""
        def failing_focal(s, y):
            raise NumericError(f"focal at score {float(s.scores[0, 0])!r}")

        monkeypatch.setattr(losses_module, "focal", failing_focal)
        use_cores(monkeypatch, cores)
        first = float(_random_case(np.random.default_rng(3))[0][0, 0])
        with pytest.raises(NumericError) as caught:
            check_losses(LOSS_NAMES, 3, 3)
        assert str(caught.value) == f"focal at score {first!r}"
        assert run(["gradcheck", "--loss", "all", "--seed", "3", "--batches", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: focal at score {first!r}\n")
        assert len(forks) == 2 * (cores - 1)
        assert_reaped(forks)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_nan_error_fails_the_check(self, monkeypatch, forks, capsys, cores):
        """One NaN in batch 1's finite-difference gradient makes the loss's
        error NaN, and the command exit 1, whichever process claims it.  Python's
        max from 0.0 dropped it: batch 0's error was printed and the exit was 0."""
        rng = np.random.default_rng(7)
        _random_case(rng)
        planted = _random_case(rng)[0]
        fd_gradient = gradcheck_module.fd_gradient

        def nan_fd_gradient(value_fn, scores, h):
            grad = fd_gradient(value_fn, scores, h)
            if np.array_equal(scores, planted):
                grad[3, 1] = np.nan
            return grad

        monkeypatch.setattr(gradcheck_module, "fd_gradient", nan_fd_gradient)
        use_cores(monkeypatch, cores)
        assert run(["gradcheck", "--loss", "cross_entropy", "--seed", "7", "--batches", "2"]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == ["loss_name,max_rel_err,n_probes", "cross_entropy,nan,96"]
        assert err == "gradient check failed: cross_entropy nan above tol 0.0001\n"
        assert len(forks) == cores - 1
        assert_reaped(forks)

    def test_no_batches_raises_before_any_fork(self, monkeypatch, forks):
        use_cores(monkeypatch, 2)
        with pytest.raises(ConfigError, match="^need at least one batch to check; got 0$"):
            check_losses(LOSS_NAMES, 0, 0)
        assert forks == []


class _Counted:
    """A walk whose block i writes i, counts its runs and records the pid
    that ran it, in shared memory; with ``raises`` every block raises, and
    with ``slow_helpers`` a block sleeps 1 ms in its maker and 20 ms elsewhere."""

    what, width = "a counted walk", 1

    def __init__(self, n_blocks, raises=False, slow_helpers=False):
        self.n_blocks, self.raises, self.slow_helpers = n_blocks, raises, slow_helpers
        self.parent = os.getpid()
        self.runs, self.pids = shared_arrays((np.int64, n_blocks), (np.int64, n_blocks))

    def run(self, i, row):
        self.runs[i] += 1
        self.pids[i] = os.getpid()
        if self.raises:
            raise NumericError(f"block {i}")
        if self.slow_helpers:
            time.sleep(0.001 if os.getpid() == self.parent else 0.02)
        row[0] = i


@pytest.mark.usefixtures("deadline")
class TestQueue:
    """Processes claim a walk's blocks from one queue until it is empty."""

    def test_a_slow_helper_leaves_the_parent_most_blocks(self, forks):
        """With a fixed share of every other block the parent ran exactly half."""
        serial = _Counted(40)
        with _Team(lambda job: serial, 0, 40, 1) as team:
            want = team.map()
        walk = _Counted(40, slow_helpers=True)
        with _Team(lambda job: walk, 1, 40, 1) as team:
            got = team.map()
        assert got.tobytes() == want.tobytes()
        assert list(walk.runs) == [1] * 40
        assert np.count_nonzero(walk.pids == os.getpid()) >= 30
        assert_reaped(forks)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_walk_longer_than_a_pipe_buffer_runs_every_block_once(self, forks, processes):
        """20,000 blocks: more 4-byte tokens than a 64 KiB pipe holds."""
        walk = _Counted(20_000)
        with _Team(lambda job: walk, processes - 1, 20_000, 1) as team:
            assert team.map()[0] == 20_000 * 19_999 // 2
        assert list(walk.runs) == [1] * 20_000
        assert len(forks) == processes - 1
        assert_reaped(forks)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_no_token_outlives_a_raising_walk(self, forks, processes):
        """Job 0's blocks all raise, so every process stops at its first
        block and leaves the queue nearly full; job 1 then runs each of its
        blocks once, claiming no token of job 0's."""
        walks = [_Counted(1000, raises=True), _Counted(100)]
        with _Team(lambda job: walks[job], processes - 1, 1000, 1) as team:
            with pytest.raises(NumericError, match="^block 0$"):
                team.map(0)
            assert team.map(1)[0] == 100 * 99 // 2
        assert list(walks[1].runs) == [1] * 100
        assert_reaped(forks)


class _Idle:
    what, width, n_blocks = "an idle walk", 0, 0


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("first", ["older", "newer"])
def test_two_live_teams_close_in_either_order(forks, first):
    """A helper keeps no pipe of another live team open: one that kept the
    older team's go pipe would keep its helper from reading end of file."""
    older = _Team(lambda job: _Idle, 1, 1, 0)
    newer = _Team(lambda job: _Idle, 1, 1, 0)
    try:
        (older if first == "older" else newer).close()
    finally:
        newer.close()
        older.close()
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.fixture
def pinned(monkeypatch, tmp_path):
    """Record every ``os.sched_setaffinity`` call, helpers' too, in a file;
    ``pinned.fail`` makes the calls raise after recording instead of pinning."""
    path = tmp_path / "affinity.txt"
    real = os.sched_setaffinity

    def record(pid, cpus):
        with open(path, "a") as log:
            log.write(f"{pid} {sorted(cpus)}\n")
        if record.fail:
            raise OSError(22, "Invalid argument")
        real(pid, cpus)

    record.fail = False
    record.calls = lambda: path.read_text().splitlines() if path.exists() else []
    monkeypatch.setattr(os, "sched_setaffinity", record)
    return record


@pytest.mark.usefixtures("deadline")
class TestPlacement:
    """Each helper pins itself to the usable CPUs but its parent's."""

    def test_current_cpu_is_a_usable_cpu(self):
        cpu = team_module._current_cpu()
        assert cpu is None or cpu in os.sched_getaffinity(0)

    @pytest.mark.parametrize("parent_cpu", [0, 1])
    def test_a_helper_asks_for_the_cpus_but_its_parents(self, monkeypatch, forks, pinned,
                                                        parent_cpu):
        monkeypatch.setattr(team_module, "_current_cpu", lambda: parent_cpu)
        monkeypatch.setattr(team_module, "FORK_MIN_BLOCKS", 2)
        use_cores(monkeypatch, 2)
        run_training("cross_entropy", 64, 4, 4, epochs=1)
        # the step team's helper, which also evaluates the train and val splits
        assert len(forks) == 1
        assert pinned.calls() == [f"0 [{1 - parent_cpu}]"]
        assert_reaped(forks)

    @pytest.mark.parametrize("pin_fails", [False, True], ids=["pinned", "pinning-fails"])
    def test_a_cpu_the_host_lacks_changes_nothing(self, monkeypatch, forks, pinned, pin_fails):
        """Three usable cores on a host with fewer: every helper asks for a
        set that names CPU 2, and training and evaluation stay bitwise those
        of one process, whether the pinning succeeds or fails."""
        monkeypatch.setattr(team_module, "FORK_MIN_BLOCKS", 2)
        feats, masks, margins, model = identity_case()
        use_cores(monkeypatch, 1)
        serial = (run_training("margin_calibration", 64, 8, 8),
                  evaluation_outputs(model, feats, masks, margins))
        use_cores(monkeypatch, 3)
        pinned.fail = pin_fails
        forks.clear()
        assert (run_training("margin_calibration", 64, 8, 8),
                evaluation_outputs(model, feats, masks, margins)) == serial
        calls = pinned.calls()
        assert len(calls) == len(forks) > 0
        assert all(call.startswith("0 [") and "2]" in call for call in calls)
        assert_reaped(forks)


@pytest.mark.parametrize("cores", [1, 2])
def test_train_frees_its_data_without_the_cycle_collector(monkeypatch, cores):
    """No reference cycle through a team keeps a finished run's data alive:
    one would hold it until the next collection, and a run of many
    ``train`` calls (a sweep) at a higher peak memory."""
    use_cores(monkeypatch, cores)
    feats, masks = tiny_dataset(n_images=4, size=64)
    data = weakref.ref(feats)
    cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=4, eval_every=1)
    gc.disable()
    try:
        train(PixelMLP.init(FEATURE_DIM, 8, 3, seed=0), feats, masks, cfg)
        del feats
        assert data() is None
    finally:
        gc.enable()
