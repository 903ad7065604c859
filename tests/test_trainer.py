"""Tests for the per-pixel model, the training loop and model persistence."""
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

import margincal.team as team_module
import margincal.trainer as trainer_module
from margincal.errors import ConfigError, NumericError, ShapeError, TrainError
from margincal.losses import BLOCK_PX, LOSS_NAMES, ScoreBatch, calibrated_log_loss, cross_entropy
from margincal.margins import compute_margins
from margincal.metrics import lower_bound_report
from margincal.segdata import (
    FEATURE_DIM,
    SCAN_BLOCK,
    FeatureBatch,
    LabelStats,
    MaskBatch,
    SynthConfig,
    accumulate_stats,
    check_labels,
    generate_synthetic,
)
from margincal.trainer import (
    PixelMLP,
    TrainConfig,
    TrainLogRecord,
    backward,
    evaluate,
    forward,
    load_model,
    save_model,
    train,
    write_train_log_csv,
    _block_input,
    _forward_cache,
)
from test_losses import (
    cross_entropy_oracle, dice_oracle, focal_oracle, margin_loss_oracle, public_loss,
    tversky_oracle,
)
from test_metrics import recount, tied_case


def split_layers(layers):
    """(w1, b1, w2, b2) of stacked [w1; b1] and [w2; b2], such as ``backward``'s."""
    return [p for stacked in layers for p in (stacked[:-1], stacked[-1])]


def split_flat(flat, model):
    """(w1, b1, w2, b2) views of a vector in ``model.flat``'s layout."""
    return split_layers(trainer_module._layers(flat, model.d, model.hidden, model.k_classes))


def dense_pass(model, x):
    """``_forward_cache``'s (n, K) scores of the (n, d) features ``x`` at
    ``model``, and a function from an upstream (n, K) gradient to
    ``backward``'s gradients of (w1, b1, w2, b2)."""
    layers, xa = model.layers, _block_input([x.T])
    scores, act = _forward_cache(layers, xa)
    return scores, lambda upstream: split_layers(backward(layers, xa, act, upstream))


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
            return cross_entropy(ScoreBatch(scores=dense_pass(probe, x)[0]), mask).value

        scores, grads = dense_pass(model, x)
        analytic = grads(cross_entropy(ScoreBatch(scores=scores), mask).grad)

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
        reference = np.concatenate([dense_pass(model, x[i : i + BLOCK_PX])[0]
                                    for i in range(0, x.shape[0], BLOCK_PX)])
        np.testing.assert_array_equal(scores, reference)
        assert scores.T.flags.c_contiguous

    def test_feature_dim_mismatch(self, monkeypatch, forks):
        """Checked once per call, before a walk of two blocks that would
        otherwise fork a helper."""
        model = PixelMLP.init(FEATURE_DIM, 4, 3, seed=0)
        bad = FeatureBatch(features=np.zeros((2 * BLOCK_PX, 4)))
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
        losses = [r.train_loss for r in log]
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
        assert log[-1].train_loss < log[0].train_loss

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
        for a, b in zip(logs[0], logs[1]):
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

    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
    @pytest.mark.parametrize("ppi", [64, 2 * BLOCK_PX])
    def test_non_finite_score_names_image_and_pixel(self, ppi, loss_name):
        """Images grouped into one block, and one image sliced into several;
        soft Dice and Tversky raise from their sums walk."""
        n_images, image, pixel = 3, 1, ppi - 5
        features = np.random.default_rng(2).normal(size=(n_images * ppi, FEATURE_DIM))
        feats = FeatureBatch(features=features)
        feats.features[image * ppi + pixel, 0] = np.nan  # past FeatureBatch's check
        masks = MaskBatch(labels=np.zeros(n_images * ppi, dtype=np.uint8),
                          width=ppi, height=1, n_images=n_images)
        margins = compute_margins(LabelStats([90, 7, 3]), tau=2.0, upsilon=1.0)
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        cfg = TrainConfig(loss_name=loss_name, epochs=1, batch_images=n_images)
        with pytest.raises(TrainError, match=rf"^non-finite score at image {image}, "
                                             rf"pixel {pixel}, class 0 at epoch 1, "
                                             rf"batch 0 \({loss_name}\)$"):
            train(model, feats, masks, cfg, margins=margins)

    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
    def test_batch_with_no_valid_pixel_names_epoch_and_batch(self, loss_name):
        """Soft Dice and Tversky find the count in their sums walk."""
        feats, masks = tiny_dataset(n_images=4)
        labels = masks.labels.copy()
        labels[2 * 256 : 3 * 256] = 255  # image 2 is all ignored
        masks = MaskBatch(labels=labels, width=16, height=16, n_images=4)
        margins = compute_margins(accumulate_stats(masks, 3), tau=2.0)
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        cfg = TrainConfig(loss_name=loss_name, epochs=1, batch_images=1, seed=0)
        batch = list(np.random.default_rng(0).permutation(4)).index(2)
        with pytest.raises(TrainError, match=rf"^no valid pixels in batch at epoch 1, "
                                             rf"batch {batch} \({loss_name}\)$"):
            train(model, feats, masks, cfg, margins=margins)

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss"):
            TrainConfig(loss_name="hinge")

    def test_negative_eval_every_rejected(self):
        with pytest.raises(ConfigError, match="^eval_every must be >= 0"):
            TrainConfig(eval_every=-2)

    @pytest.mark.parametrize("field, message", [
        ({"epochs": 0}, r"^epochs and batch_images must be positive$"),
        ({"momentum": 1.0}, r"^need a finite learning_rate >= 0 and momentum in \[0, 1\)$"),
        ({"learning_rate": np.nan}, r"^need a finite learning_rate >= 0"),
        ({"learning_rate": np.inf}, r"^need a finite learning_rate >= 0"),
    ], ids=["no-epochs", "momentum-one", "nan-rate", "inf-rate"])
    def test_bad_schedule_rejected(self, field, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**field)

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
    """Loss and gradients of (w1, b1, w2, b2) of one training step over the images ``ids``."""
    with trainer_module._StepTeam(model, feats, masks, loss_name, margins, len(ids)) as team:
        value, grad = team.gradients(model, ids)
    return value, split_flat(grad, model)


def loss_oracle(loss_name, scores, labels, margins):
    """The reference LossResult of the loss ``loss_name`` at its settings:
    ``test_losses``' per-pixel scalar loops and whole-batch row-major formulas."""
    return {
        "margin_calibration": lambda: margin_loss_oracle(scores, labels, margins),
        "cross_entropy": lambda: cross_entropy_oracle(scores, labels),
        "focal": lambda: focal_oracle(scores, labels, 0.4),
        "soft_dice": lambda: dice_oracle(scores, labels, 1e-6),
        "tversky": lambda: tversky_oracle(scores, labels, 0.3, 0.7, 1e-6),
    }[loss_name]()


def assert_matches_oracle(value, grads, model, x, loss_name, labels, margins):
    """A step's value and parameter gradients against ``loss_oracle`` of
    ``model``'s scores of the features ``x``, chained through ``dense_pass``."""
    scores, dense_grads = dense_pass(model, x)
    want = loss_oracle(loss_name, scores, labels, margins)
    assert value == pytest.approx(want.value, rel=1e-12)
    for got, wanted in zip(grads, dense_grads(want.grad)):
        assert np.max(np.abs(got - wanted)) <= 1e-12 * np.max(np.abs(wanted))


class TestBlockedStep:
    """A training step (``_StepTeam.gradients``) walks a batch in pixel
    blocks; a block stitched in wrongly, a normalisation applied twice or
    soft-Dice or Tversky slopes taken from the wrong sums change its value
    or gradients against the losses' reference formulas over the whole batch."""

    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
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
        assert_matches_oracle(value, grads, model, feats.features[rows], loss_name, labels[rows],
                              margins)

    @pytest.mark.parametrize("loss_name", ["margin_calibration", "cross_entropy", "focal"])
    def test_one_full_block_step_is_the_public_loss_bitwise(self, monkeypatch, loss_name):
        """A block's row holds sums and the step divides them by the valid
        count once, as the oracles' means do; with one block of 4,096 valid
        pixels (a power of two, so the division is exact) the step is also
        bitwise the public loss, whose gradient is scaled before its backward
        pass.  Ties route through the margin kernel's competitor rule."""
        feats, masks = tiny_dataset(seed=3, n_images=1, size=64, noise=0.1)
        assert np.all(masks.labels != masks.ignore_index)
        margins = compute_margins(accumulate_stats(masks, 3), tau=10.0, upsilon=1.0)
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=2)
        model.w2[:, 2] = model.w2[:, 1]  # classes 1 and 2 tie at every pixel
        model.b2[2] = model.b2[1]
        use_cores(monkeypatch, 1)

        value, grads = step_gradients(model, feats, masks, np.arange(1), loss_name, margins)

        assert_matches_oracle(value, grads, model, feats.features, loss_name, masks.labels,
                              margins)
        scores, dense_grads = dense_pass(model, feats.features)
        whole = public_loss(loss_name, ScoreBatch(scores=scores), masks, margins)
        assert value == whole.value
        for got, want in zip(grads, dense_grads(whole.grad)):
            assert np.array_equal(got, want)

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

    def test_a_soft_dice_step_allocates_no_batch_sized_array(self, monkeypatch):
        """A soft-Dice team and step at the toy ablation's shape: 50 images
        of 64 x 64 per step, hidden 16.  Whole-batch scratch and scores took
        75.6 MB here; block-sized ones take about 1.5 MB."""
        use_cores(monkeypatch, 1)
        feats, masks = tiny_dataset(n_images=60, size=64)
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=0)
        tracemalloc.start()
        try:
            with trainer_module._StepTeam(model, feats, masks, "soft_dice", None, 50) as team:
                team.gradients(model, np.arange(50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_a_step_allocates_no_block_activations(self, monkeypatch):
        """A block's (hidden, n) activations and their gradient go into
        scratch made once per team, so a step's allocations stay below one
        such array (2 MB at hidden 64); made and freed per block, they let
        malloc return the heap to the system and fault it in again."""
        use_cores(monkeypatch, 1)
        feats, masks = tiny_dataset(n_images=4, size=64)
        model = PixelMLP.init(FEATURE_DIM, 64, 3, seed=0)
        with trainer_module._StepTeam(model, feats, masks, "cross_entropy", None, 4) as team:
            team.gradients(model, np.arange(4))
            tracemalloc.start()
            try:
                team.gradients(model, np.arange(4))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 64 * BLOCK_PX * 8

    def test_a_warm_dense_pass_allocates_less_than_100_kb(self):
        """On a full block at hidden 16 and K = 3, with the step's scratch,
        forward allocates only its (K, b) scores (96 KB) and backward no
        block-sized array: one (hidden, b) float64 array would be 512 KB,
        its bool relu mask 64 KB, and a copy of the block's input 288 KB."""
        feats, _ = tiny_dataset(n_images=1, size=64)
        layers = PixelMLP.init(FEATURE_DIM, 16, 3, seed=0).layers
        xa, act, gpre = (np.empty((rows, BLOCK_PX)) for rows in (FEATURE_DIM + 1, 17, 16))
        grads = (np.empty((FEATURE_DIM + 1, 16)), np.empty((17, 3)))
        x = _block_input([feats.features.T], xa)
        upstream = np.random.default_rng(0).normal(size=(3, BLOCK_PX)).T
        backward(layers, x, _forward_cache(layers, x, act)[1], upstream, gpre, grads)  # warm
        tracemalloc.start()
        try:
            _forward_cache(layers, x, act)
            forward_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            backward(layers, x, act, upstream, gpre, grads)
            backward_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert forward_peak < 100 * 1024
        assert backward_peak < 32 * 1024

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16], ids=["unsigned", "signed"])
    def test_first_bad_label_past_the_first_scan_block(self, monkeypatch, forks, dtype):
        """The label checks read SCAN_BLOCK labels at a time.  With ignore
        labels in every block (so a block's maximum is always 255) and the
        bad labels in later blocks, ``check_labels``, ``accumulate_stats``
        and ``train`` name the first bad label in image order; in signed
        labels that is a -1 before the 7."""
        size, n_images = 256, 6
        ppi = size * size
        assert ppi + 37 >= SCAN_BLOCK  # image 1, pixel 37 is past the first block
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=n_images * ppi).astype(dtype)
        labels[::7] = 255
        labels[[4 * ppi + 4, 4 * ppi + 9, 5 * ppi]] = [7, 8, 9]
        message = "label 7 at image 4, pixel 4 exceeds k_classes=3"
        if dtype == np.int16:
            labels[ppi + 37] = -1
            message = "label -1 at image 1, pixel 37 is below 0"
        masks = MaskBatch(labels=labels, width=size, height=size, n_images=n_images)
        feats = FeatureBatch(np.zeros((labels.size, FEATURE_DIM)))
        model = PixelMLP.init(FEATURE_DIM, 8, 3, seed=0)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=2)
        use_cores(monkeypatch, 2)
        calls = {
            "check_labels": lambda: check_labels(masks, 3),
            "accumulate_stats": lambda: accumulate_stats(masks, 3),
            "train": lambda: train(model, feats, masks, cfg),
        }
        for name, call in calls.items():
            with pytest.raises(ShapeError) as caught:
                call()
            assert str(caught.value) == message, name
        assert forks == []

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

    @pytest.mark.parametrize("loss_name", ["margin_calibration", "tversky"])
    def test_train_is_sgd_over_four_separate_arrays(self, loss_name):
        """A reference loop keeps w1, b1, w2 and b2 and their velocities as
        separate arrays and updates each from the step team's gradients in
        ``train``'s image order; after 3 epochs (batches of 3, 3 and 1
        images) ``train``'s one-vector update gives the same bits.  Tversky
        takes two walks per step."""
        feats, masks = tiny_dataset(seed=5, n_images=7)
        margins = compute_margins(accumulate_stats(masks, 3), tau=10.0, upsilon=1.0)
        cfg = TrainConfig(loss_name=loss_name, epochs=3, batch_images=3, learning_rate=0.1,
                          momentum=0.9, seed=3, eval_every=0)
        init = PixelMLP.init(FEATURE_DIM, 8, 3, seed=1)
        params = [p.copy() for p in init.params()]
        velocity = [np.zeros_like(p) for p in params]
        rng = np.random.default_rng(cfg.seed)
        with trainer_module._StepTeam(init, feats, masks, loss_name, margins, 3) as team:
            for _ in range(cfg.epochs):
                order = rng.permutation(masks.n_images)
                for start in range(0, masks.n_images, cfg.batch_images):
                    probe = PixelMLP(*params)
                    _, grad = team.gradients(probe, order[start : start + cfg.batch_images])
                    for p, v, g in zip(params, velocity, split_flat(grad, probe)):
                        v *= cfg.momentum
                        v += g
                        p -= cfg.learning_rate * v
        model, _ = train(PixelMLP(*init.params()), feats, masks, cfg, margins)
        assert [p.tobytes() for p in model.params()] == [p.tobytes() for p in params]


def oracle_step(model, x, labels, ignore_index=255):
    """Cross-entropy and its gradients of (w1, b1, w2, b2) over the whole
    batch at once, from the (n, d) features ``x``, in float64 numpy."""
    pre = x @ model.w1 + model.b1
    act = np.maximum(pre, 0.0)
    scores = act @ model.w2 + model.b2
    valid = labels != ignore_index
    p = np.exp(scores - scores.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.flatnonzero(valid), labels[valid]] = 1.0
    g = (p - onehot) * valid[:, None] / valid.sum()
    value = -np.log(p[valid, labels[valid]]).mean()
    gpre = (g @ model.w2.T) * (pre > 0.0)
    return value, [x.T @ gpre, gpre.sum(axis=0), act.T @ g, g.sum(axis=0)]


class TestFeatureLayout:
    """The step and evaluation read features through ``_block_input``, which
    puts a block's features above a row of ones, the row that multiplies the
    bias rows of [w1; b1] and [w2; b2]."""

    @pytest.mark.parametrize("size, n_images, batch", [(16, 24, 21), (128, 3, 2)],
                             ids=["grouped", "sliced"])
    def test_step_gradients_match_a_float64_oracle(self, monkeypatch, size, n_images, batch):
        """d = 1, hidden = 1, K = 21, ignored pixels and a wholly ignored
        image.  Grouped, the batch's last block holds 5 of 16 images, so a
        ones row left where a full block put it is read as features."""
        use_cores(monkeypatch, 1)
        rng = np.random.default_rng(7)
        ppi = size * size
        labels = rng.integers(0, 21, size=n_images * ppi).astype(np.uint8)
        labels[3::7] = 255
        labels[ppi : 2 * ppi] = 255
        masks = MaskBatch(labels=labels, width=size, height=size, n_images=n_images)
        x = rng.normal(size=(labels.size, 1))
        model = PixelMLP(w1=np.array([[1.3]]), b1=np.array([0.2]),
                         w2=rng.normal(size=(1, 21)), b2=rng.normal(size=21))
        ids = rng.permutation(n_images)[:batch]
        feats = FeatureBatch(np.ascontiguousarray(x.T).T)  # feature-major
        value, grads = step_gradients(model, feats, masks, ids, "cross_entropy")
        rows = np.concatenate([np.arange(i * ppi, (i + 1) * ppi) for i in ids])
        want_value, want = oracle_step(model, x[rows], labels[rows])
        assert value == pytest.approx(want_value, rel=1e-12)
        for got, w in zip(grads, want):
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("size, n_images", [(16, 21), (128, 3)], ids=["grouped", "sliced"])
    def test_results_do_not_depend_on_the_feature_layout(self, size, n_images):
        """The same values stored feature-major (``generate_synthetic``'s) and
        C-ordered train byte-identical models and evaluate to identical
        reports.  The initial model's biases split the val pixels between
        the classes, so its report, which a whole-split numpy forward pass
        recounts, shows a bias row left out."""
        feats, masks = tiny_dataset(seed=5, n_images=n_images, size=size, noise=0.1)
        val_feats, val_masks = tiny_dataset(seed=6, n_images=2, size=size, noise=0.1)
        assert feats.features.T.flags.c_contiguous
        layouts = {"feature-major": (feats, val_feats),
                   "C-ordered": tuple(FeatureBatch(np.ascontiguousarray(f.features))
                                      for f in (feats, val_feats))}
        margins = compute_margins(accumulate_stats(masks, 3), tau=10.0, upsilon=1.0)
        cfg = TrainConfig(loss_name="margin_calibration", epochs=2, batch_images=n_images - 1,
                          seed=3, eval_every=1)
        init = PixelMLP.init(FEATURE_DIM, 16, 3, seed=1)
        init.b1[:] = 0.1
        init.b2[:] = -(np.maximum(val_feats.features @ init.w1 + init.b1, 0.0) @ init.w2).mean(0)
        got = {}
        for name, (f, vf) in layouts.items():
            model, log = train(PixelMLP(*(p.copy() for p in init.params())), f, masks, cfg,
                               margins, vf, val_masks)
            reports = [evaluate(m, vf, val_masks, margins) for m in (init, model)]
            got[name] = ([p.tobytes() for p in model.params()],
                         [(r.epoch, r.train_loss, r.train_miou, r.val_miou) for r in log],
                         [np.asarray(v).tobytes() for r in reports for v in vars(r).values()])
        assert got["C-ordered"] == got["feature-major"]
        w1, b1, w2, b2 = init.params()
        scores = np.maximum(val_feats.features @ w1 + b1, 0.0) @ w2 + b2
        tp, fp, fn, n = recount(scores, val_masks.labels, 3)
        assert np.unique(scores.argmax(axis=1)).size == 3
        assert reports[0].pixel_accuracy == tp.sum() / n
        np.testing.assert_array_equal(reports[0].p_k0, fn / n)
        np.testing.assert_array_equal(reports[0].p_0k, fp / n)


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

    def test_features_and_masks_of_other_pixel_counts_raise(self):
        feats, masks = tiny_dataset(n_images=2)
        short = FeatureBatch(features=feats.features[:-1])
        with pytest.raises(ShapeError, match="^features cover 511 pixels but masks have 512$"):
            evaluate(PixelMLP.init(FEATURE_DIM, 8, 3, seed=0), short, masks)

    @pytest.mark.parametrize("ppi", [64, 2 * BLOCK_PX])
    def test_non_finite_score_names_image_and_pixel(self, ppi):
        """Images grouped into one block, and one image sliced into several:
        the same message as a training step's."""
        n_images, image, pixel = 3, 1, ppi - 5
        features = np.random.default_rng(2).normal(size=(n_images * ppi, FEATURE_DIM))
        feats = FeatureBatch(features=features)
        feats.features[image * ppi + pixel, 0] = np.nan  # past FeatureBatch's check
        masks = MaskBatch(labels=np.zeros(n_images * ppi, dtype=np.uint8),
                          width=ppi, height=1, n_images=n_images)
        with pytest.raises(NumericError, match=rf"^non-finite score at image {image}, "
                                               rf"pixel {pixel}, class 0$"):
            evaluate(PixelMLP.init(FEATURE_DIM, 8, 3, seed=0), feats, masks)


class TestModelPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = PixelMLP.init(FEATURE_DIM, 16, 5, seed=77)
        path = tmp_path / "model.bin"
        save_model(model, path)
        back = load_model(path)
        for p, q in zip(model.params(), back.params()):
            np.testing.assert_array_equal(p, q)
        assert (back.d, back.hidden, back.k_classes) == (FEATURE_DIM, 16, 5)

    def test_the_payload_is_the_flat_vector_the_views_write_to(self, tmp_path):
        """``save_model`` writes ``model.flat``; a write through ``w2`` shows
        in ``layers[1]`` and in the file; the constructor copies its arguments."""
        rng = np.random.default_rng(0)
        w1, b1, w2, b2 = (rng.normal(size=s) for s in ((FEATURE_DIM, 4), (4,), (4, 3), (3,)))
        want = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
        model = PixelMLP(w1, b1, w2, b2)
        w1[0, 0] = b2[1] = 99.0  # after the constructor: not the model's
        model.w2[1, 2] = want[(FEATURE_DIM + 1) * 4 + 1 * 3 + 2] = 7.5
        assert model.layers[1][1, 2] == 7.5
        np.testing.assert_array_equal(model.flat, want)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in model.params()]), want)
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert path.read_bytes()[16:] == model.flat.astype("<f8").tobytes()

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

    @pytest.mark.parametrize("dims", [(0, 4, 3), (FEATURE_DIM, 0, 3), (FEATURE_DIM, 4, 0)],
                             ids=["d-0", "hidden-0", "k-0"])
    def test_a_zero_dimension_is_refused_as_init_refuses_it(self, tmp_path, dims):
        """A header with a 0 and the payload it implies: one rule for both."""
        d, hidden, k = dims
        path = tmp_path / "model.bin"
        save_model(PixelMLP(w1=np.zeros((d, hidden)), b1=np.zeros(hidden),
                            w2=np.zeros((hidden, k)), b2=np.zeros(k)), path)
        message = rf"^need d, hidden and k_classes >= 1; got {d}, {hidden}, {k}$"
        with pytest.raises(ConfigError, match=message):
            load_model(path)
        with pytest.raises(ConfigError, match=message):
            PixelMLP.init(d, hidden, k, seed=0)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"PMC1\x01")
        with pytest.raises(ConfigError, match="5 bytes, shorter than its 16-byte header"):
            load_model(path)


class TestTrainLog:
    def test_csv_schema(self, tmp_path):
        path = tmp_path / "log.csv"
        write_train_log_csv([TrainLogRecord(1, 0.5, 0.1, 0.15, 0.2)], path)
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

    def slow_forward_cache(model, x, out=None):
        if (os.getpid() == parent) == (where == "parent"):
            time.sleep(seconds)
        return _forward_cache(model, x, out)

    monkeypatch.setattr(trainer_module, "_forward_cache", slow_forward_cache)


def wait_for_helper_exit(forks):
    """Wait until the first forked helper has exited, without reaping it (the
    team's close reaps it): a parent that waits here in its first block
    leaves the helper the rest of the queue, so the helper surely claims one."""
    os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)


def run_training(loss_name, size, n_images, batch_images, epochs=2, eval_every=1):
    feats, masks = tiny_dataset(seed=5, n_images=n_images, size=size, noise=0.1)
    val = tiny_dataset(seed=6, n_images=2, size=size, noise=0.1)
    margins = compute_margins(accumulate_stats(masks, 3), tau=10.0, upsilon=1.0)
    model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=1)
    cfg = TrainConfig(loss_name=loss_name, epochs=epochs, batch_images=batch_images,
                      learning_rate=0.1, seed=3, eval_every=eval_every)
    model, log = train(model, feats, masks, cfg, margins, *val)
    params = b"".join(p.tobytes() for p in model.params())
    return params, [(r.epoch, r.train_loss, r.train_miou, r.val_miou) for r in log]


@pytest.mark.usefixtures("deadline")
class TestSharedStep:
    """``train`` forks helper processes that claim every step's blocks from
    one queue with the parent; the parent folds the block rows in block order,
    so the result is bitwise the one-process run's whoever computed which block."""

    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
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
        """Slowed helpers claim fewer blocks than the parent, a slowed parent
        fewer than the helpers; the parameters stay the same."""
        use_cores(monkeypatch, 1)
        serial = run_training("margin_calibration", 64, 8, 8)
        use_cores(monkeypatch, 3)
        slowed(monkeypatch, where, 0.005)
        assert run_training("margin_calibration", 64, 8, 8) == serial
        assert len(forks) == 2
        assert_reaped(forks)

    def test_first_bad_block_is_reported_whoever_fails_first(self, monkeypatch, forks):
        """Two images of the first batch hold a NaN feature: the early one is
        block 1 and the late one block 6.  The process that claims the early
        one is held up, so another can fail first at the late one; training
        still names the early image and pixel."""
        n_images, ppi = 8, 64 * 64
        feats, masks = tiny_dataset(seed=5, n_images=n_images, size=64, noise=0.1)
        order = np.random.default_rng(3).permutation(n_images)
        early, late = order[1], order[6]
        feats.features[early * ppi + 100, 0] = np.nan
        feats.features[late * ppi + 7, 1] = np.nan

        def hold_up_early(model, x, out=None):
            if np.isnan(x[:, 0]).any():
                time.sleep(0.5)
            return _forward_cache(model, x, out)

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

        def die_in_helper(model, x, out=None):
            if os.getpid() != parent:
                os._exit(3)
            wait_for_helper_exit(forks)  # so the helper surely claims a block
            return _forward_cache(model, x, out)

        use_cores(monkeypatch, 2)
        monkeypatch.setattr(trainer_module, "_forward_cache", die_in_helper)
        with pytest.raises(TrainError, match=r"^block helper process \d+ exited during a "
                                             r"training step at epoch 1, batch 0 "
                                             r"\(cross_entropy\)$"):
            run_training("cross_entropy", 64, 8, 8)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_a_helper_dead_between_steps_raises_naming_it(self, monkeypatch, forks):
        """A helper killed after the first step: the second step raises
        TrainError naming it and the step, not the job write's BrokenPipeError."""
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
                                     "training step at epoch 1, batch 1 (cross_entropy)")
        assert len(steps) == 2 and len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_one_helper_per_extra_usable_core(self, monkeypatch, forks, cores):
        use_cores(monkeypatch, cores)
        run_training("cross_entropy", 64, 4, 4, epochs=1)
        assert len(forks) == cores - 1
        assert_reaped(forks)

    @pytest.mark.parametrize("loss_name", ["soft_dice", "tversky"])
    def test_tversky_losses_step_on_every_core(self, monkeypatch, forks, loss_name):
        """With no evaluation, the team is sized by the step's 4 blocks: at 2
        cores one helper serves both of its walks."""
        use_cores(monkeypatch, 2)
        run_training(loss_name, 64, 4, 4, epochs=1, eval_every=0)
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("loss_name", ["soft_dice", "tversky"])
    def test_whole_batch_losses_evaluate_on_every_core(self, monkeypatch, forks, loss_name):
        """Soft Dice and Tversky steps and evaluations of the 4-block
        training split on one helper: a model and log bitwise those of one
        process."""
        runs = []
        for cores in (1, 2):
            use_cores(monkeypatch, cores)
            forks.clear()
            runs.append(run_training(loss_name, 64, 4, 4))
            assert len(forks) == cores - 1
            assert_reaped(forks)
        assert runs[1] == runs[0]

    def test_a_step_of_1025_blocks_matches_one_process(self, monkeypatch, forks):
        """1,025 one-image blocks in one step; one feature per pixel keeps the
        4.2 million pixels small."""
        n_images, ppi = 1025, 64 * 64
        rng = np.random.default_rng(4)
        feats = FeatureBatch(features=rng.normal(size=(n_images * ppi, 1)))
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
        two_class = compute_margins(LabelStats([90, 10]), tau=10.0, upsilon=1.0)
        use_cores(monkeypatch, 2)
        model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=1)
        cfg = TrainConfig(loss_name="margin_calibration", epochs=1, batch_images=4)
        with pytest.raises(ShapeError, match=r"^margin-offsets and scores disagree on the "
                                             r"number of classes \(2 and 3\)$"):
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
            val_feats = FeatureBatch(features=np.zeros((val_masks.n_pixels, FEATURE_DIM + 1)))
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

    @pytest.mark.parametrize("given", ["features", "masks"])
    def test_a_half_given_val_split_raises_before_any_fork(self, monkeypatch, forks, given):
        """Before, the val mIoU was logged as NaN."""
        feats, masks = tiny_dataset(n_images=4, size=64)
        val_feats, val_masks = tiny_dataset(seed=6, n_images=2, size=64)
        val = {"val_features": val_feats} if given == "features" else {"val_masks": val_masks}
        use_cores(monkeypatch, 2)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=2, eval_every=1)
        with pytest.raises(ConfigError, match="^give both val_features and val_masks, "
                                              "or neither$"):
            train(PixelMLP.init(FEATURE_DIM, 16, 3, seed=1), feats, masks, cfg, **val)
        assert forks == []

    @pytest.mark.parametrize("defect", ["no images", "all ignored"])
    def test_a_val_split_with_no_valid_pixel_raises_before_any_fork(self, monkeypatch, forks,
                                                                   defect):
        """Before, training ran to the first evaluation (6 steps here) and
        raised DegenerateError("no evaluated pixels"), naming no split."""
        feats, masks = tiny_dataset(n_images=4, size=8)
        if defect == "no images":
            val_feats = FeatureBatch(np.zeros((0, FEATURE_DIM)))
            val_masks = MaskBatch(labels=np.zeros(0, np.uint8), width=8, height=8, n_images=0)
        else:
            val_feats, val_masks = tiny_dataset(seed=6, n_images=2, size=8)
            val_masks = MaskBatch(labels=np.full(val_masks.n_pixels, 255, np.uint8), width=8,
                                  height=8, n_images=2)
        use_cores(monkeypatch, 2)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=6, batch_images=2, eval_every=3)
        with pytest.raises(ShapeError, match="^the val split has no valid pixels$"):
            train(PixelMLP.init(FEATURE_DIM, 16, 3, seed=1), feats, masks, cfg,
                  val_features=val_feats, val_masks=val_masks)
        assert forks == []

    @pytest.mark.parametrize("eval_every", [0, 1])
    def test_an_empty_training_split_raises_before_any_fork(self, monkeypatch, forks,
                                                            eval_every):
        """Before, numpy's reshape of the training features raised ValueError."""
        feats = FeatureBatch(np.zeros((0, FEATURE_DIM)))
        masks = MaskBatch(labels=np.zeros(0, np.uint8), width=4, height=4, n_images=0)
        use_cores(monkeypatch, 2)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, eval_every=eval_every)
        with pytest.raises(ShapeError, match="^the training split has no images$"):
            train(PixelMLP.init(FEATURE_DIM, 16, 3, seed=1), feats, masks, cfg)
        assert forks == []

    def test_features_of_another_width_raise_before_any_fork(self, monkeypatch, forks):
        feats, masks = tiny_dataset(n_images=4, size=64)
        use_cores(monkeypatch, 2)
        model = PixelMLP.init(FEATURE_DIM + 1, 16, 3, seed=1)
        cfg = TrainConfig(loss_name="cross_entropy", epochs=1, batch_images=4)
        with pytest.raises(ShapeError, match=rf"^feature dim {FEATURE_DIM} != model "
                                             rf"d={FEATURE_DIM + 1}$"):
            train(model, feats, masks, cfg)
        assert forks == []
