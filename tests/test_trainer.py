"""Tests for the per-pixel model, the training loop and model persistence."""
import numpy as np
import pytest

from margincal.errors import ConfigError, TrainError
from margincal.losses import BLOCK_PX, ScoreBatch, cross_entropy, loss_by_name
from margincal.margins import compute_margins
from margincal.segdata import (
    FEATURE_DIM,
    FeatureBatch,
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
    batch_gradients,
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

    def test_feature_dim_mismatch(self):
        model = PixelMLP.init(FEATURE_DIM, 4, 3, seed=0)
        bad = FeatureBatch(features=np.zeros((10, 4)), d=4)
        with pytest.raises(Exception, match="feature dim"):
            forward(model, bad)


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
        with pytest.raises(ConfigError, match="margin"):
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

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss"):
            TrainConfig(loss_name="hinge")

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


class TestBlockedStep:
    """``batch_gradients`` walks a batch in pixel blocks; a block stitched in
    wrongly changes its value or gradients against the whole batch at once."""

    @pytest.mark.parametrize("loss_name", ["margin_calibration", "cross_entropy"])
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

        value, grads = batch_gradients(model, feats, masks, ids, loss_name, margins)

        rows = np.concatenate([np.arange(i * ppi, (i + 1) * ppi) for i in ids])
        x = feats.features[rows]
        batch = MaskBatch(labels=labels[rows], width=size, height=size,
                          n_images=len(ids))
        scores, act = _forward_cache(model, x)
        whole = loss_by_name(loss_name)(ScoreBatch(scores=scores), batch, margins)
        assert value == pytest.approx(whole.value, rel=1e-12)
        for got, want in zip(grads, backward(model, x, act, whole.grad)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

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
