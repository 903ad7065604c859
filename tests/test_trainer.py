"""Tests for the per-pixel model, the training loop and model persistence."""
import os
import signal
import time

import numpy as np
import pytest

import margincal.team as team_module
import margincal.trainer as trainer_module
from margincal.errors import ConfigError, ShapeError, TrainError
from margincal.losses import (
    BLOCK_PX, ScoreBatch, calibrated_log_loss, cross_entropy, loss_by_name,
)
from margincal.margins import compute_margins
from margincal.metrics import lower_bound_report
from margincal.segdata import (
    FEATURE_DIM,
    FeatureBatch,
    LabelStats,
    MaskBatch,
    SynthConfig,
    accumulate_stats,
    generate_synthetic,
)
from margincal.trainer import (
    PixelMLP,
    TrainConfig,
    TrainLog,
    TrainLogRecord,
    backward,
    evaluate,
    forward,
    load_model,
    save_model,
    train,
    write_train_log_csv,
    _forward_cache,
)
from test_metrics import recount, tied_case


def tiny_dataset(seed=0, n_images=8, size=16, noise=0.05):
    cfg = SynthConfig(seed=seed, width=size, height=size, n_images=n_images,
                      k_classes=3, target_ratios=(0.84, 0.10, 0.06),
                      noise_sigma=noise)
    return generate_synthetic(cfg)


class TestForward:
    def test_zero_weights_zero_scores(self):
        model = PixelMLP(
            w1=np.zeros((FEATURE_DIM, 4)), b1=np.zeros(4),
            w2=np.zeros((4, 3)), b2=np.zeros(3),
        )
        feats, _ = tiny_dataset()
        scores = forward(model, feats)
        np.testing.assert_array_equal(scores.scores, 0.0)

    def test_deterministic_across_runs(self):
        feats, _ = tiny_dataset()
        a = forward(PixelMLP.init(FEATURE_DIM, 16, 3, seed=42), feats)
        b = forward(PixelMLP.init(FEATURE_DIM, 16, 3, seed=42), feats)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_parameter_gradients_match_finite_differences(self):
        """Backprop through both layers agrees with central differences."""
        rng = np.random.default_rng(1)
        model = PixelMLP.init(6, 5, 3, seed=3)
        x = rng.normal(size=(12, 6))
        labels = rng.integers(0, 3, size=12).astype(np.uint8)
        mask = MaskBatch(labels=labels, width=12, height=1, n_images=1)

        def loss_at(params):
            w1, b1, w2, b2 = params
            probe = PixelMLP(w1=w1, b1=b1, w2=w2, b2=b2)
            scores, _ = _forward_cache(probe, x)
            return cross_entropy(ScoreBatch(scores=scores), mask).value

        scores, act = _forward_cache(model, x)
        upstream = cross_entropy(ScoreBatch(scores=scores), mask).grad
        analytic = backward(model, x, act, upstream)

        h = 1e-6
        params = [model.w1, model.b1, model.w2, model.b2]
        for p_idx, p in enumerate(params):
            numeric = np.zeros_like(p)
            flat, out = p.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_at(params)
                flat[i] = orig - h
                down = loss_at(params)
                flat[i] = orig
                out[i] = (up - down) / (2 * h)
            scale = np.maximum(
                np.maximum(np.abs(analytic[p_idx]), np.abs(numeric)), 1e-6
            )
            rel = np.abs(analytic[p_idx] - numeric) / scale
            assert rel.max() <= 1e-4, f"param {p_idx}: {rel.max()}"

    def test_class_major_scores_match_blocked_reference(self):
        """Bitwise the row-major concatenation of `_forward_cache`'s blocks,
        stored as the transposed view of a C-ordered (K, n) array."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2 * BLOCK_PX + 17, FEATURE_DIM))
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=5)
        scores = forward(model, FeatureBatch(features=x)).scores
        reference = np.concatenate([_forward_cache(model, x[i : i + BLOCK_PX])[0]
                                    for i in range(0, x.shape[0], BLOCK_PX)])
        np.testing.assert_array_equal(scores, reference)
        assert scores.T.flags.c_contiguous

    def test_feature_dim_mismatch(self, monkeypatch, forks):
        """Checked once per call, before a walk of two blocks that would
        otherwise fork a helper."""
        model = PixelMLP.init(FEATURE_DIM, 4, 3, seed=0)
        bad = FeatureBatch(features=np.zeros((2 * BLOCK_PX, 4)), d=4)
        use_cores(monkeypatch, 2)
        monkeypatch.setattr(team_module, "FORK_MIN_BLOCKS", 2)
        with pytest.raises(ShapeError, match=rf"^feature dim 4 != model d={FEATURE_DIM}$"):
            forward(model, bad)
        assert forks == []


class TestTrain:
    def test_zero_learning_rate_freezes_parameters(self):
        feats, masks = tiny_dataset()
        stats = accumulate_stats(masks, 3)
        margins = compute_margins(stats, tau=2.0)
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        before = [p.copy() for p in model.params()]
        cfg = TrainConfig(loss_name="margin_calibration", epochs=3,
                          batch_images=4, learning_rate=0.0, seed=1,
                          eval_every=1)
        model, log = train(model, feats, masks, cfg, margins=margins)
        for p, q in zip(before, model.params()):
            np.testing.assert_array_equal(p, q)
        # the logged loss is constant up to batch-partition summation order
        losses = [r.train_loss for r in log.records]
        np.testing.assert_allclose(losses, losses[0], rtol=1e-12)

    def test_loss_decreases_on_imbalanced_data(self):
        """Fifty epochs of the calibrated objective beat the first epoch."""
        cfg_data = SynthConfig(seed=4, width=32, height=32, n_images=24,
                               k_classes=3, target_ratios=(0.90, 0.07, 0.03),
                               noise_sigma=0.05)
        feats, masks = generate_synthetic(cfg_data)
        stats = accumulate_stats(masks, 3)
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=0)
        cfg = TrainConfig(loss_name="margin_calibration", epochs=50,
                          batch_images=8, learning_rate=0.1, seed=0,
                          eval_every=1)
        model, log = train(model, feats, masks, cfg, margins=margins)
        assert log.records[-1].train_loss < log.records[0].train_loss

    def test_same_seed_identical_log(self):
        feats, masks = tiny_dataset()
        stats = accumulate_stats(masks, 3)
        margins = compute_margins(stats, tau=2.0)
        logs = []
        for _ in range(2):
            model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=5)
            cfg = TrainConfig(loss_name="margin_calibration", epochs=4,
                              batch_images=4, learning_rate=0.05, seed=9,
                              eval_every=2)
            _, log = train(model, feats, masks, cfg, margins=margins)
            logs.append(log)
        for a, b in zip(logs[0].records, logs[1].records):
            assert (a.epoch, a.train_loss, a.train_miou) == (
                b.epoch, b.train_loss, b.train_miou
            )

    def test_margin_loss_requires_margins(self):
        feats, masks = tiny_dataset()
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        cfg = TrainConfig(loss_name="margin_calibration", epochs=1,
                          batch_images=4)
        with pytest.raises(ConfigError, match="^the margin-calibration loss needs "
                                              "margin-offsets$"):
            train(model, feats, masks, cfg)

    def test_nan_loss_aborts_with_location(self):
        feats, masks = tiny_dataset()
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        # batch 0 scores about 1e200, still finite; its update makes the
        # second forward pass overflow
        model.w1[:] = 1e200
        cfg = TrainConfig(loss_name="cross_entropy", epochs=2, batch_images=4,
                          learning_rate=0.1, seed=0)
        with pytest.raises(TrainError, match=r"epoch 1, batch 1 \(cross_entropy\)"):
            train(model, feats, masks, cfg)

    @pytest.mark.parametrize("ppi", [64, 2 * BLOCK_PX])
    def test_non_finite_score_names_image_and_pixel(self, ppi):
        """Images grouped into one block, and one image sliced into several."""
        n_images, image, pixel = 3, 1, ppi - 5
        features = np.random.default_rng(2).normal(size=(n_images * ppi, FEATURE_DIM))
        feats = FeatureBatch(features=features)
        feats.features[image * ppi + pixel, 0] = np.nan  # past FeatureBatch's check
        masks = MaskBatch(labels=np.zeros(n_images * ppi, dtype=np.uint8),
                          width=ppi, height=1, n_images=n_images)
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=n_images)
        with pytest.raises(TrainError, match=rf"at image {image}, pixel {pixel}, class 0 "
                                             r"at epoch 1, batch 0 \(cross_entropy\)"):
            train(model, feats, masks, cfg)

    def test_batch_with_no_valid_pixel_names_epoch_and_batch(self):
        feats, masks = tiny_dataset(n_images=4)
        labels = masks.labels.copy()
        labels[2 * 256 : 3 * 256] = 255  # image 2 is all ignored
        masks = MaskBatch(labels=labels, width=16, height=16, n_images=4)
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=1, seed=0)
        batch = list(np.random.default_rng(0).permutation(4)).index(2)
        with pytest.raises(TrainError, match=rf"^no valid pixels in batch at epoch 1, "
                                             rf"batch {batch} \(cross_entropy\)$"):
            train(model, feats, masks, cfg)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss"):
            TrainConfig(loss_name="hinge")

    def test_negative_eval_every_rejected(self):
        with pytest.raises(ConfigError, match="^eval_every must be >= 0"):
            TrainConfig(eval_every=-2)

    def test_separable_task_drives_objective_low(self):
        """On a cleanly separable toy task the piecewise-linear objective
        falls below 0.05 within 200 epochs (smoke-test threshold)."""
        from margincal.losses import rho_margin_objective

        cfg_data = SynthConfig(seed=8, width=16, height=16, n_images=16,
                               k_classes=2, target_ratios=(0.8, 0.2),
                               noise_sigma=0.0)
        feats, masks = generate_synthetic(cfg_data)
        stats = accumulate_stats(masks, 2)
        margins = compute_margins(stats, tau=1.0, upsilon=1.0)
        model = PixelMLP.init(FEATURE_DIM, 16, 2, seed=1)
        cfg = TrainConfig(loss_name="margin_calibration", epochs=200,
                          batch_images=16, learning_rate=0.5, momentum=0.9,
                          seed=0, eval_every=0)
        model, _ = train(model, feats, masks, cfg, margins=margins)
        scores = forward(model, feats)
        objective = rho_margin_objective(scores, masks, margins)
        assert objective.value < 0.05, objective.value


def step_gradients(model, feats, masks, ids, loss_name, margins=None):
    """Loss and gradients of one training step over the images ``ids``."""
    with trainer_module._StepTeam(model, feats, masks, loss_name, margins, len(ids)) as team:
        return team.gradients(model, ids)


class TestBlockedStep:
    """A training step (``_StepTeam.gradients``) walks a batch in pixel
    blocks; a block stitched in wrongly changes its value or gradients
    against the whole batch at once."""

    @pytest.mark.parametrize("loss_name", ["margin_calibration", "cross_entropy", "focal"])
    @pytest.mark.parametrize(
        "size, n_images",
        [(16, 40), (64, 4), (128, 3)],
        ids=["256px-grouped", "4096px", "16384px-sliced"],
    )
    def test_matches_whole_batch(self, loss_name, size, n_images):
        cfg = SynthConfig(seed=3, width=size, height=size, n_images=n_images,
                          k_classes=3, target_ratios=(0.84, 0.10, 0.06),
                          noise_sigma=0.1)
        feats, masks = generate_synthetic(cfg)
        ppi = size * size
        labels = masks.labels.copy()
        labels[5::97] = 255  # scattered ignored pixels
        labels[ppi : 2 * ppi] = 255  # and one wholly ignored image
        masks = MaskBatch(labels=labels, width=size, height=size, n_images=n_images)
        margins = compute_margins(accumulate_stats(masks, 3), tau=10.0, upsilon=1.0)
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=2)
        model.w2[:, 2] = model.w2[:, 1]  # classes 1 and 2 tie at every pixel
        model.b2[2] = model.b2[1]
        ids = np.random.default_rng(4).permutation(n_images)[: n_images - 1]

        value, grads = step_gradients(model, feats, masks, ids, loss_name, margins)

        rows = np.concatenate([np.arange(i * ppi, (i + 1) * ppi) for i in ids])
        x = feats.features[rows]
        batch = MaskBatch(labels=labels[rows], width=size, height=size,
                          n_images=len(ids))
        scores, act = _forward_cache(model, x)
        whole = loss_by_name(loss_name)(ScoreBatch(scores=scores), batch, margins)
        assert value == pytest.approx(whole.value, rel=1e-12)
        for got, want in zip(grads, backward(model, x, act, whole.grad)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("size", [16, 128], ids=["grouped", "sliced"])
    def test_label_out_of_range_names_image_and_pixel(self, monkeypatch, forks, size):
        """``train`` checks every training label against K once, before it
        forks; the first bad label in image order is reported where it sits
        in its image, although seed 0's first batch starts with image 2,
        which holds another bad label."""
        n_images, image, pixel = 4, 1, size * size - 7
        feats, masks = tiny_dataset(n_images=n_images, size=size)
        labels = masks.labels.copy()
        labels[image * size * size + pixel] = 3
        labels[(image + 1) * size * size] = 4
        masks = MaskBatch(labels=labels, width=size, height=size, n_images=n_images)
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        use_cores(monkeypatch, 2)
        for batch_images in (1, n_images):
            cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=batch_images)
            with pytest.raises(ShapeError, match=rf"^label 3 at image {image}, pixel {pixel} "
                                                 r"exceeds k_classes=3$"):
                train(model, feats, masks, cfg)
        assert forks == []

    @staticmethod
    def assert_every_label_check_says(label, message):
        """Training, the losses, evaluation, the lower bound and the label
        statistics all raise ``message`` for ``label`` at image 1, pixel 37."""
        feats, masks = tiny_dataset(n_images=2)
        margins = compute_margins(accumulate_stats(masks, 3), tau=10.0, upsilon=1.0)
        labels = masks.labels.astype(np.int16 if label < 0 else masks.labels.dtype)
        labels[16 * 16 + 37] = label
        masks = MaskBatch(labels=labels, width=16, height=16, n_images=2)
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        scores = forward(model, feats)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=2)
        calls = {
            "train": lambda: train(model, feats, masks, cfg),
            "calibrated_log_loss": lambda: calibrated_log_loss(scores, masks, margins),
            "cross_entropy": lambda: cross_entropy(scores, masks),
            "evaluate": lambda: evaluate(model, feats, masks),
            "lower_bound_report": lambda: lower_bound_report(scores, masks, margins),
            "accumulate_stats": lambda: accumulate_stats(masks, 3),
        }
        for name, call in calls.items():
            with pytest.raises(ShapeError) as caught:
                call()
            assert str(caught.value) == message, name

    def test_every_label_check_names_image_and_pixel(self):
        self.assert_every_label_check_says(3, "label 3 at image 1, pixel 37 exceeds k_classes=3")

    def test_negative_label_is_rejected_everywhere(self):
        """Not a valid pixel of no class: before, the losses counted it in
        their mean, evaluation dropped it and the statistics raised numpy's
        ValueError."""
        self.assert_every_label_check_says(-1, "label -1 at image 1, pixel 37 is below 0")

    def test_same_seed_identical_parameters(self):
        feats, masks = tiny_dataset()
        stats = accumulate_stats(masks, 3)
        margins = compute_margins(stats, tau=2.0)
        runs = []
        for _ in range(2):
            model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=5)
            cfg = TrainConfig(loss_name="margin_calibration", epochs=3,
                              batch_images=3, learning_rate=0.05, seed=9,
                              eval_every=0)
            runs.append(train(model, feats, masks, cfg, margins=margins)[0])
        for p, q in zip(runs[0].params(), runs[1].params()):
            np.testing.assert_array_equal(p, q)


class TestEvaluate:
    def test_zero_model_predicts_background_everywhere(self):
        """Uniform tied scores argmax to class 0, so only the background
        scores a nonzero IoU."""
        feats, masks = tiny_dataset()
        model = PixelMLP(
            w1=np.zeros((FEATURE_DIM, 4)), b1=np.zeros(4),
            w2=np.zeros((4, 3)), b2=np.zeros(3),
        )
        report = evaluate(model, feats, masks)
        stats = accumulate_stats(masks, 3)
        assert report.iou_per_class[0] == pytest.approx(stats.p_per_class[0])
        np.testing.assert_array_equal(report.iou_per_class[1:], 0.0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_tied_scores_match_recount(self, k):
        """A model whose scores are its first k features (small non-negative
        integers, so relu and the identity layers keep them exactly)."""
        scores, mask = tied_case(k)
        features = np.zeros((scores.shape[0], FEATURE_DIM))
        features[:, :k] = scores
        feats = FeatureBatch(features=features)
        model = PixelMLP(w1=np.eye(FEATURE_DIM, k), b1=np.zeros(k),
                         w2=np.eye(k), b2=np.zeros(k))
        np.testing.assert_array_equal(forward(model, feats).scores, scores)
        tp, fp, fn, _ = recount(scores, mask.labels, k)
        union = tp + fp + fn
        present = union > 0
        assert evaluate(model, feats, mask).miou == np.mean(tp[present] / union[present])

    def test_memorizing_model_reaches_perfect_miou(self):
        """A hand-built lookup on 4 distinguishable pixels has mIoU 1."""
        features = np.zeros((4, FEATURE_DIM))
        features[:, 2] = [0.0, 1.0, 0.0, 1.0]
        feats = FeatureBatch(features=features)
        masks = MaskBatch(labels=np.array([0, 1, 0, 1], dtype=np.uint8),
                          width=2, height=2, n_images=1)
        w1 = np.zeros((FEATURE_DIM, 2))
        w1[2, 0] = 1.0
        model = PixelMLP(
            w1=w1, b1=np.zeros(2),
            w2=np.array([[-2.0, 2.0], [0.0, 0.0]]), b2=np.array([1.0, 0.0]),
        )
        report = evaluate(model, feats, masks)
        assert report.miou == 1.0


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = PixelMLP.init(FEATURE_DIM, 16, 5, seed=77)
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        for p, q in zip(model.params(), back.params()):
            np.testing.assert_array_equal(p, q)
        assert (back.d, back.hidden, back.k_classes) == (FEATURE_DIM, 16, 5)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"XXXX" + bytes(12))
        with pytest.raises(ConfigError, match="magic"):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = PixelMLP.init(FEATURE_DIM, 4, 2, seed=0)
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="payload"):
            load_model(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"PMC1\x01")
        with pytest.raises(ConfigError, match="5 bytes, shorter than its 16-byte header"):
            load_model(path)


class TestTrainLog:
    def test_epochs_strictly_increase(self):
        log = TrainLog()
        log.append(TrainLogRecord(1, 0.5, 0.1, 0.1, 0.2))
        log.append(TrainLogRecord(2, 0.4, 0.2, 0.2, 0.4))
        with pytest.raises(TrainError, match="strictly increasing"):
            log.append(TrainLogRecord(2, 0.3, 0.3, 0.3, 0.6))

    def test_csv_schema(self, tmp_path):
        log = TrainLog()
        log.append(TrainLogRecord(1, 0.5, 0.1, 0.15, 0.2))
        path = tmp_path / "log.csv"
        write_train_log_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,train_miou,val_miou,seconds"
        assert lines[1].startswith("1,0.5,0.1,0.15,")


class Forks(list):
    """The pids of the processes forked while a test runs, and the file
    descriptors this process had open before it."""

    def __init__(self):
        super().__init__()
        self.fds = set(os.listdir("/proc/self/fd"))


@pytest.fixture
def forks(monkeypatch):
    pids = Forks()
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def deadline():
    """Fail a test that waits on a helper for more than a minute instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_reaped(forks):
    """Every forked process was waited for and no pipe was left open."""
    for pid in forks:
        with pytest.raises(ChildProcessError):  # no such child: waited for already
            os.waitpid(pid, os.WNOHANG)
    assert set(os.listdir("/proc/self/fd")) == forks.fds


def use_cores(monkeypatch, cores):
    """Make ``train`` see ``cores`` usable cores, so it forks cores - 1 helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def slowed(monkeypatch, where, seconds):
    """Make ``_forward_cache`` sleep first in the test's own process
    ("parent") or in every other process ("helper")."""
    parent = os.getpid()

    def slow_forward_cache(model, x):
        if (os.getpid() == parent) == (where == "parent"):
            time.sleep(seconds)
        return _forward_cache(model, x)

    monkeypatch.setattr(trainer_module, "_forward_cache", slow_forward_cache)


def run_training(loss_name, size, n_images, batch_images, epochs=2):
    feats, masks = tiny_dataset(seed=5, n_images=n_images, size=size, noise=0.1)
    val = tiny_dataset(seed=6, n_images=2, size=size, noise=0.1)
    margins = compute_margins(accumulate_stats(masks, 3), tau=10.0, upsilon=1.0)
    model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=1)
    cfg = TrainConfig(loss_name=loss_name, epochs=epochs, batch_images=batch_images,
                      learning_rate=0.1, seed=3, eval_every=1)
    model, log = train(model, feats, masks, cfg, margins, *val)
    params = b"".join(p.tobytes() for p in model.params())
    return params, [(r.epoch, r.train_loss, r.train_miou, r.val_miou) for r in log.records]


@pytest.mark.usefixtures("deadline")
class TestSharedStep:
    """``train`` forks helper processes that each run a fixed share of every
    step's blocks; the parent folds the block rows in block order, so the
    result is bitwise the one-process run's whoever computed which block."""

    @pytest.mark.parametrize("loss_name", ["margin_calibration", "cross_entropy", "focal"])
    @pytest.mark.parametrize(
        "size, n_images, batch_images",
        [(16, 40, 36), (64, 9, 6), (128, 5, 3)],
        ids=["grouped-3-blocks", "1-image-blocks", "sliced-12-blocks"],
    )
    def test_bitwise_equal_for_1_2_and_3_processes(self, monkeypatch, forks, loss_name, size,
                                                    n_images, batch_images):
        runs = []
        for processes in (1, 2, 3):
            use_cores(monkeypatch, processes)
            forks.clear()
            runs.append(run_training(loss_name, size, n_images, batch_images))
            assert len(forks) == processes - 1
            assert_reaped(forks)
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    @pytest.mark.parametrize("where", ["helper", "parent"])
    def test_a_slow_process_changes_nothing(self, monkeypatch, forks, where):
        """Slowed helpers finish their shares after the parent, a slowed
        parent after the helpers; the parameters stay the same."""
        use_cores(monkeypatch, 1)
        serial = run_training("margin_calibration", 64, 8, 8)
        use_cores(monkeypatch, 3)
        slowed(monkeypatch, where, 0.005)
        assert run_training("margin_calibration", 64, 8, 8) == serial
        assert len(forks) == 2
        assert_reaped(forks)

    def test_first_bad_block_is_reported_whoever_fails_first(self, monkeypatch, forks):
        """Two images of the first batch hold a NaN feature: the early one is
        block 1, in a helper's share, and the late one block 6, in the
        parent's.  The early one is held up, so the late one fails first;
        training still names the early image and pixel."""
        n_images, ppi = 8, 64 * 64
        feats, masks = tiny_dataset(seed=5, n_images=n_images, size=64, noise=0.1)
        order = np.random.default_rng(3).permutation(n_images)
        early, late = order[1], order[6]
        feats.features[early * ppi + 100, 0] = np.nan
        feats.features[late * ppi + 7, 1] = np.nan

        def hold_up_early(model, x):
            if np.isnan(x[:, 0]).any():
                time.sleep(0.5)
            return _forward_cache(model, x)

        monkeypatch.setattr(trainer_module, "_forward_cache", hold_up_early)
        messages = []
        for processes in (1, 2, 3):
            use_cores(monkeypatch, processes)
            model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=1)
            cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=8, seed=3)
            with pytest.raises(TrainError) as caught:
                train(model, feats, masks, cfg)
            messages.append(str(caught.value))
        assert messages[0] == (f"non-finite score at image {early}, pixel 100, class 0 "
                               "at epoch 1, batch 0 (cross_entropy)")
        assert messages[1] == messages[0] and messages[2] == messages[0]
        assert len(forks) == 3
        assert_reaped(forks)

    def test_a_dead_helper_raises_instead_of_blocking(self, monkeypatch, forks):
        parent = os.getpid()

        def die_in_helper(model, x):
            if os.getpid() != parent:
                os._exit(3)
            return _forward_cache(model, x)

        use_cores(monkeypatch, 2)
        monkeypatch.setattr(trainer_module, "_forward_cache", die_in_helper)
        with pytest.raises(TrainError, match=r"^block helper process \d+ exited during a "
                                             r"training step$"):
            run_training("cross_entropy", 64, 8, 8)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_a_helper_dead_between_steps_raises_naming_it(self, monkeypatch, forks):
        """A helper killed after the first step: the second step raises the
        step's error naming it, not the job write's BrokenPipeError."""
        real = trainer_module._StepTeam.map
        steps = []

        def kill_before_second_step(team, job):
            steps.append(job)
            if len(steps) == 2:
                os.kill(forks[0], signal.SIGKILL)
                # wait for the exit without reaping it: the team's close reaps it
                os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
            return real(team, job)

        use_cores(monkeypatch, 2)
        monkeypatch.setattr(trainer_module._StepTeam, "map", kill_before_second_step)
        with pytest.raises(TrainError) as caught:
            run_training("cross_entropy", 64, 8, 4)
        assert str(caught.value) == (f"block helper process {forks[0]} exited during a "
                                     "training step")
        assert len(steps) == 2 and len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_one_helper_per_extra_usable_core(self, monkeypatch, forks, cores):
        use_cores(monkeypatch, cores)
        run_training("cross_entropy", 64, 4, 4, epochs=1)
        assert len(forks) == cores - 1
        assert_reaped(forks)

    @pytest.mark.parametrize("loss_name", ["soft_dice", "tversky"])
    def test_whole_batch_losses_fork_nothing(self, monkeypatch, forks, loss_name):
        use_cores(monkeypatch, 2)
        run_training(loss_name, 64, 4, 4, epochs=1)
        assert forks == []

    def test_a_step_of_1025_blocks_matches_one_process(self, monkeypatch, forks):
        """1,025 one-image blocks in one step; one feature per pixel keeps the
        4.2 million pixels small."""
        n_images, ppi = 1025, 64 * 64
        rng = np.random.default_rng(4)
        feats = FeatureBatch(features=rng.normal(size=(n_images * ppi, 1)), d=1)
        masks = MaskBatch(labels=rng.integers(0, 3, size=n_images * ppi, dtype=np.uint8),
                          width=64, height=64, n_images=n_images)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=n_images,
                          seed=3, eval_every=0)
        runs = []
        for processes in (1, 2):
            use_cores(monkeypatch, processes)
            model, _ = train(PixelMLP.init(1, 4, 3, seed=1), feats, masks, cfg)
            runs.append(b"".join(p.tobytes() for p in model.params()))
        assert runs[1] == runs[0]
        assert len(forks) == 1
        assert_reaped(forks)

    def test_margins_for_another_k_raise_before_any_fork(self, monkeypatch, forks):
        feats, masks = tiny_dataset(n_images=4, size=64)
        two_class = compute_margins(LabelStats.from_counts([90, 10]), tau=10.0, upsilon=1.0)
        use_cores(monkeypatch, 2)
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=1)
        cfg = TrainConfig(loss_name="margin_calibration", epochs=1, batch_images=4)
        with pytest.raises(ShapeError, match="^margin-offsets and scores disagree on the "
                                             "class count$"):
            train(model, feats, masks, cfg, margins=two_class)
        assert forks == []

    @pytest.mark.parametrize("defect", ["label", "width"])
    def test_a_bad_val_split_raises_before_any_fork_or_step(self, monkeypatch, forks, defect):
        """Checked with the training split, not at the first evaluation
        (epoch 2 here); the model is untouched."""
        feats, masks = tiny_dataset(n_images=4, size=64)
        val_feats, val_masks = tiny_dataset(seed=6, n_images=2, size=64)
        if defect == "label":
            labels = val_masks.labels.copy()
            labels[64 * 64 + 37] = 3
            val_masks = MaskBatch(labels=labels, width=64, height=64, n_images=2)
            message = "label 3 at image 1, pixel 37 exceeds k_classes=3"
        else:
            val_feats = FeatureBatch(features=np.zeros((val_masks.n_pixels, FEATURE_DIM + 1)),
                                     d=FEATURE_DIM + 1)
            message = f"feature dim {FEATURE_DIM + 1} != model d={FEATURE_DIM}"
        use_cores(monkeypatch, 2)
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=1)
        before = [p.copy() for p in model.params()]
        cfg = TrainConfig(loss_name="cross_entropy", epochs=2, batch_images=2, eval_every=2)
        with pytest.raises(ShapeError) as caught:
            train(model, feats, masks, cfg, val_features=val_feats, val_masks=val_masks)
        assert str(caught.value) == message
        assert forks == []
        for p, q in zip(model.params(), before):
            np.testing.assert_array_equal(p, q)

    def test_features_of_another_width_raise_before_any_fork(self, monkeypatch, forks):
        feats, masks = tiny_dataset(n_images=4, size=64)
        use_cores(monkeypatch, 2)
        model = PixelMLP.init(FEATURE_DIM + 1, 16, 3, seed=1)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=4)
        with pytest.raises(ShapeError, match=rf"^feature dim {FEATURE_DIM} != model "
                                             rf"d={FEATURE_DIM + 1}$"):
            train(model, feats, masks, cfg)
        assert forks == []
