"""Tests for margins, the offset shift, the margin objectives and baseline losses."""
import math
import warnings

import numpy as np
import pytest

from margincal.errors import ConfigError, NumericError, ShapeError
from margincal.gradcheck import check_loss_gradient
from margincal.losses import (
    BLOCK_PX,
    LOSS_NAMES,
    LossResult,
    ScoreBatch,
    _lambda,
    calibrated_log_loss,
    cross_entropy,
    focal,
    loss_by_name,
    rho_calibrated_log_loss,
    rho_margin_loss,
    rho_margin_objective,
    soft_dice,
    tversky,
)
from margincal.margins import MarginOffsets, compute_margins
from margincal.metrics import lower_bound_report
from margincal.segdata import LabelStats, MaskBatch


def make_mask(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return MaskBatch(labels=labels, width=labels.size, height=1, n_images=1)


def simple_margins(k_classes=3, tau=2.0):
    counts = ([90, 7, 3, 5, 4] + [6] * k_classes)[:k_classes]
    return compute_margins(LabelStats.from_counts(counts), tau=tau, upsilon=1.0)


def margin_loss_oracle(scores, labels, m, ignore_index=255):
    """Calibrated log-loss by a per-pixel, per-class scalar loop.

    The competitor of class k is the highest other score, the lowest index
    among equals; lambda's -1 goes to it.
    """
    n, k_cls = scores.shape
    rows = [i for i in range(n) if labels[i] != ignore_index]
    fg, bg = np.zeros(k_cls), np.zeros(k_cls)
    grad = np.zeros((n, k_cls))
    for i in rows:
        s = [float(v) for v in scores[i]]
        for k in range(k_cls):
            rival = max((j for j in range(k_cls) if j != k), key=lambda j: (s[j], -j))
            lam = s[k] - s[rival]
            on_label = labels[i] == k
            x = m.rho_k0[k] - lam if on_label else lam + m.rho_0k[k]
            term = max(x, 0.0) + math.log2(1.0 + 2.0 ** -abs(x))
            slope = (-1.0 if on_label else 1.0) / (1.0 + 2.0 ** -x)
            (fg if on_label else bg)[k] += term / len(rows)
            grad[i, k] += slope / len(rows)
            grad[i, rival] -= slope / len(rows)
    return LossResult(float(fg.sum() + bg.sum()), grad, fg, bg)


def cross_entropy_oracle(scores, labels, ignore_index=255):
    """Softmax negative log-likelihood by a per-pixel scalar loop."""
    n, k_cls = scores.shape
    rows = [i for i in range(n) if labels[i] != ignore_index]
    fg = np.zeros(k_cls)
    grad = np.zeros((n, k_cls))
    for i in rows:
        s = [float(v) for v in scores[i]]
        top = max(s)
        log_total = top + math.log(sum(math.exp(v - top) for v in s))
        fg[labels[i]] += (log_total - s[labels[i]]) / len(rows)
        for j in range(k_cls):
            grad[i, j] = (math.exp(s[j] - log_total) - (j == labels[i])) / len(rows)
    return LossResult(float(fg.sum()), grad, fg, np.zeros(k_cls))


def _row_major_softmax(scores, labels, ignore_index=255):
    rows = np.flatnonzero(labels != ignore_index)
    shifted = scores[rows] - scores[rows].max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.arange(rows.size), labels[rows]] = 1.0
    return rows, p, onehot


def _region_result(scores, rows, p, per_class, dp):
    """LossResult whose gradient chains dp = dL/dp through the softmax."""
    grad = np.zeros_like(scores)
    grad[rows] = p * (dp - (dp * p).sum(axis=1, keepdims=True))
    return LossResult(float(per_class.sum()), grad, per_class, np.zeros(p.shape[1]))


def tversky_oracle(scores, labels, alpha, beta, eps):
    """Tversky loss from whole-batch row-major sums of I, FP and FN."""
    rows, p, onehot = _row_major_softmax(scores, labels)
    k_cls = p.shape[1]
    inter = (p * onehot).sum(axis=0)
    fp = (p * (1.0 - onehot)).sum(axis=0)
    fn = ((1.0 - p) * onehot).sum(axis=0)
    denom = inter + alpha * fp + beta * fn + eps
    per_class = (1.0 - (inter + eps) / denom) / k_cls
    ddenom_dp = onehot + alpha * (1.0 - onehot) - beta * onehot
    dindex_dp = (onehot * denom - (inter + eps) * ddenom_dp) / denom**2
    return _region_result(scores, rows, p, per_class, -dindex_dp / k_cls)


def dice_oracle(scores, labels, eps):
    """Soft Dice loss 1 - mean_k (2I_k + eps)/(A_k + B_k + eps), row-major."""
    rows, p, onehot = _row_major_softmax(scores, labels)
    k_cls = p.shape[1]
    inter = (p * onehot).sum(axis=0)
    denom = p.sum(axis=0) + onehot.sum(axis=0) + eps
    per_class = (1.0 - (2.0 * inter + eps) / denom) / k_cls
    ddice_dp = (2.0 * onehot * denom - (2.0 * inter + eps)) / denom**2
    return _region_result(scores, rows, p, per_class, -ddice_dp / k_cls)


def margins_lambda(scores):
    """The (n, K) margins lambda_ik = s_ik - max_{j!=k} s_ij, via the
    class-major block primitive."""
    return _lambda(ScoreBatch(scores=scores).scores.T).T


class TestComputeMarginsLambda:
    def test_three_class_pixel(self):
        lam = margins_lambda([[2.0, 1.0, 0.0]])
        np.testing.assert_allclose(lam, [[1.0, -1.0, -2.0]])

    def test_all_equal_scores(self):
        lam = margins_lambda([[3.5] * 4])
        np.testing.assert_array_equal(lam, [[0.0] * 4])

    def test_matches_double_loop(self):
        """Vectorized margins agree with the O(N*K^2) brute-force loop."""
        rng = np.random.default_rng(17)
        scores = rng.normal(size=(5, 4))
        lam = margins_lambda(scores)
        for i in range(5):
            for k in range(4):
                best = max(scores[i, j] for j in range(4) if j != k)
                assert lam[i, k] == pytest.approx(scores[i, k] - best, abs=1e-15)

    def test_single_class_rejected(self):
        """Margins need a competitor class: the margin losses reject K = 1."""
        one = MarginOffsets(rho_0k=[1.0], rho_k0=[1.0], mu_k=[1.0], tau=1.0, upsilon=1.0)
        for loss in (calibrated_log_loss, rho_margin_objective):
            with pytest.raises(ConfigError, match="2 classes"):
                loss(ScoreBatch(scores=[[1.0]]), make_mask([0]), one)

    def test_at_most_one_positive_margin_per_pixel(self):
        rng = np.random.default_rng(23)
        scores = rng.normal(size=(300, 6))
        lam = margins_lambda(scores)
        assert np.all((lam > 0).sum(axis=1) <= 1)
        best = np.argmax(scores, axis=1)
        assert np.all(lam[np.arange(300), best] >= 0)


class TestRhoMarginLoss:
    def test_kink_and_midpoint(self):
        assert rho_margin_loss(1.0, 1.0) == 0.0
        assert rho_margin_loss(0.0, 1.0) == 1.0
        assert rho_margin_loss(0.5, 1.0) == 0.5

    def test_clamps(self):
        assert rho_margin_loss(-3.0, 0.7) == 1.0
        assert rho_margin_loss(1.4, 0.7) == 0.0

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(ConfigError):
            rho_margin_loss(0.0, 0.0)
        with pytest.raises(ConfigError):
            rho_margin_loss(0.0, -1.0)


class TestCalibrate:
    """The margin-offset shift, seen through the calibrated log-loss terms."""

    def test_true_class_branch(self):
        """On the labelled class the offset is subtracted from the margin
        (shifted score -rho_k0), elsewhere rho_0k is added."""
        m = MarginOffsets(
            rho_0k=np.array([2.0, 2.0]), rho_k0=np.array([0.5, 0.5]),
            mu_k=np.array([0.25, 0.25]), tau=1.0, upsilon=1.0,
        )
        res = calibrated_log_loss(ScoreBatch(scores=[[1.0, 1.0]]), make_mask([0]), m)
        # both margins are 0; a term is log2(1 + 2^-(shifted score))
        np.testing.assert_allclose(res.per_class_fg, [math.log2(1 + 2**0.5), 0.0], rtol=1e-15)
        np.testing.assert_allclose(res.per_class_bg, [0.0, math.log2(1 + 2**2.0)], rtol=1e-15)

    def test_ignored_pixels_keep_raw_margins(self):
        """An ignored pixel is never shifted: whatever its scores, it gets a
        zero gradient and adds nothing to any term."""
        m = simple_margins(2)
        scores = np.array([[1.0, 0.0], [0.5, 2.0]])
        res = calibrated_log_loss(ScoreBatch(scores=scores), make_mask([255, 1]), m)
        alone = calibrated_log_loss(ScoreBatch(scores=scores[1:]), make_mask([1]), m)
        np.testing.assert_array_equal(res.grad[0], [0.0, 0.0])
        np.testing.assert_allclose(res.per_class_fg, alone.per_class_fg, rtol=1e-15)
        np.testing.assert_allclose(res.per_class_bg, alone.per_class_bg, rtol=1e-15)
        assert res.value == pytest.approx(alone.value, rel=1e-15)

    def test_shape_mismatch(self):
        m = simple_margins(2)
        with pytest.raises(ShapeError):
            calibrated_log_loss(ScoreBatch(scores=np.zeros((3, 2))), make_mask([0, 1]), m)


class TestCalibratedLogLoss:
    def test_all_zero_scores_closed_form(self):
        """With zero scores every margin is zero, so each pixel contributes
        log2(1+2^rho_k0[y]) on its own class and log2(1+2^rho_0j) elsewhere."""
        m = simple_margins(2, tau=2.0)
        res = calibrated_log_loss(ScoreBatch(scores=np.zeros((1, 2))),
                                  make_mask([0]), m)
        expected = math.log2(1 + 2 ** m.rho_k0[0]) + math.log2(1 + 2 ** m.rho_0k[1])
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_unit_value_at_zero_shifted_score(self):
        """A zero shifted score contributes exactly one bit."""
        assert rho_calibrated_log_loss(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        for rho in (0.1, 0.5, 2.0, 10.0):
            assert rho_calibrated_log_loss(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_large_shifted_score_is_not_capped(self):
        """log2(1 + 2^(rho - lam)) keeps growing like rho - lam past 500."""
        assert rho_calibrated_log_loss(-1000.0, 1.0) == pytest.approx(1001.0, rel=1e-15)
        tail = 2.0**-999 / math.log(2.0)
        assert rho_calibrated_log_loss(1000.0, 1.0) == pytest.approx(tail, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        res = check_loss_gradient("margin_calibration", seed=3, n_batches=10)
        assert res.max_rel_err <= 1e-4

    def test_fast_and_reference_paths_agree(self):
        """The class-major blocked route agrees with a per-pixel scalar loop,
        including an ignored row and ties at the top and in second place."""
        rng = np.random.default_rng(31)
        scores = rng.normal(size=(257, 4))
        scores[20] = 0.5  # four-way tie
        scores[21] = [0.3, 1.2, -0.4, 1.2]  # tie for the maximum
        scores[22] = [2.0, 0.5, 0.5, -1.0]  # tie for second place
        labels = rng.integers(0, 4, size=257).astype(np.uint8)
        labels[13] = 255
        labels[20:23] = [2, 3, 0]
        mask = make_mask(labels)
        m = simple_margins(4)
        fast = calibrated_log_loss(ScoreBatch(scores=scores), mask, m)
        ref = margin_loss_oracle(scores, labels, m)
        assert fast.value == pytest.approx(ref.value, rel=1e-13)
        np.testing.assert_allclose(fast.grad, ref.grad, atol=1e-18)
        np.testing.assert_allclose(fast.per_class_fg, ref.per_class_fg, atol=1e-13)
        np.testing.assert_allclose(fast.per_class_bg, ref.per_class_bg, atol=1e-13)

    def test_ignored_rows_have_zero_gradient(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(30, 3))
        labels = rng.integers(0, 3, size=30).astype(np.uint8)
        labels[::5] = 255
        m = simple_margins()
        res = calibrated_log_loss(ScoreBatch(scores=scores), make_mask(labels), m)
        assert np.all(res.grad[labels == 255] == 0.0)

    def test_value_equals_per_class_decomposition(self):
        rng = np.random.default_rng(12)
        scores = rng.normal(size=(100, 3))
        labels = rng.integers(0, 3, size=100)
        m = simple_margins()
        res = calibrated_log_loss(ScoreBatch(scores=scores), make_mask(labels), m)
        total = res.per_class_fg.sum() + res.per_class_bg.sum()
        assert res.value == pytest.approx(total, rel=1e-10)
        assert res.value >= 0.0

    def test_translation_invariance(self):
        """Adding a per-pixel constant to all scores changes nothing."""
        rng = np.random.default_rng(14)
        scores = rng.normal(size=(50, 3))
        labels = rng.integers(0, 3, size=50)
        shifts = rng.normal(size=(50, 1)) * 10
        m = simple_margins()
        a = calibrated_log_loss(ScoreBatch(scores=scores), make_mask(labels), m)
        b = calibrated_log_loss(ScoreBatch(scores=scores + shifts),
                                make_mask(labels), m)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(NumericError, match="pixel 1, class 0"):
            ScoreBatch(scores=np.array([[0.0, 1.0], [bad, 0.0]]))

    def test_gradient_rows_finite_for_large_scores(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(-50, 50, size=(64, 4))
        labels = rng.integers(0, 4, size=64)
        m = simple_margins(4)
        res = calibrated_log_loss(ScoreBatch(scores=scores), make_mask(labels), m)
        assert np.all(np.isfinite(res.grad))
        assert np.all(np.isfinite(res.grad.sum(axis=1)))


class TestRhoMarginObjective:
    def test_perfect_separation_is_zero(self):
        """Margins beyond every offset clamp all terms to zero."""
        m = simple_margins(2, tau=2.0)
        big = 10.0 + float(m.rho_0k.max())
        scores = np.array([[big, 0.0], [0.0, big]])
        res = rho_margin_objective(ScoreBatch(scores=scores), make_mask([0, 1]), m)
        assert res.value == 0.0
        assert res.grad is None

    def test_all_zero_scores_value_is_k(self):
        """Zero margins put every term at the loss plateau value 1."""
        m = simple_margins(3)
        res = rho_margin_objective(ScoreBatch(scores=np.zeros((4, 3))),
                                   make_mask([0, 1, 2, 0]), m)
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_single_pixel_hand_evaluation(self):
        m = simple_margins(2, tau=2.0)
        scores = np.array([[0.3, -0.2]])
        res = rho_margin_objective(ScoreBatch(scores=scores), make_mask([0]), m)
        lam0 = 0.3 - (-0.2)
        lam1 = -0.2 - 0.3
        expected = rho_margin_loss(lam0, m.rho_k0[0]) + rho_margin_loss(
            -lam1, m.rho_0k[1]
        )
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_smoothed_objective_strictly_dominates(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            scores = rng.normal(size=(32, 3))
            labels = rng.integers(0, 3, size=32)
            m = simple_margins()
            smooth = calibrated_log_loss(ScoreBatch(scores=scores),
                                         make_mask(labels), m)
            sharp = rho_margin_objective(ScoreBatch(scores=scores),
                                         make_mask(labels), m)
            assert smooth.value > sharp.value

    def test_blocked_sum_matches_scalar_loop(self):
        """The blocked per-class sums, and the lower bound's l_k0 / l_0k taken
        from them, equal a per-pixel loop over rho_margin_loss: three full
        blocks and a partial one, ignored pixels, one wholly ignored block,
        a four-way tie and a tie for second place."""
        rng = np.random.default_rng(41)
        n, k_cls = 3 * BLOCK_PX + 17, 4
        scores = rng.normal(size=(n, k_cls))
        scores[5] = 0.25  # four-way tie
        scores[6] = [2.0, 0.5, 0.5, -1.0]  # tie for second place
        labels = rng.integers(0, k_cls, size=n).astype(np.uint8)
        labels[::7] = 255
        labels[BLOCK_PX : 2 * BLOCK_PX] = 255
        labels[5:7] = [1, 0]
        m = simple_margins(k_cls)

        fg, bg = np.zeros(k_cls), np.zeros(k_cls)
        rows = [i for i in range(n) if labels[i] != 255]
        for i in rows:
            s = [float(v) for v in scores[i]]
            for k in range(k_cls):
                lam = s[k] - max(s[j] for j in range(k_cls) if j != k)
                if labels[i] == k:
                    fg[k] += rho_margin_loss(lam, m.rho_k0[k])
                else:
                    bg[k] += rho_margin_loss(-lam, m.rho_0k[k])
        fg /= len(rows)
        bg /= len(rows)

        batch, mask = ScoreBatch(scores=scores), make_mask(labels)
        res = rho_margin_objective(batch, mask, m)
        np.testing.assert_allclose(res.per_class_fg, fg, rtol=1e-13)
        np.testing.assert_allclose(res.per_class_bg, bg, rtol=1e-13)
        assert res.value == pytest.approx(fg.sum() + bg.sum(), rel=1e-13)
        report = lower_bound_report(batch, mask, m)
        np.testing.assert_allclose(report.ell_k0, fg, rtol=1e-13)
        np.testing.assert_allclose(report.ell_0k, bg, rtol=1e-13)


class TestBoundChain:
    def test_pointwise_chain_random_pairs(self):
        """indicator(lam <= 0) <= margin loss <= smoothed loss, elementwise."""
        rng = np.random.default_rng(99)
        lam = rng.uniform(-10, 10, size=200_000)
        rho = rng.uniform(1e-3, 10, size=200_000)
        phi = np.clip(1.0 - lam / rho, 0.0, 1.0)
        phi_bar = rho_calibrated_log_loss(lam, rho)
        indicator = (lam <= 0).astype(float)
        assert np.all(indicator <= phi)
        assert np.all(phi <= phi_bar)

    def test_smoothed_loss_is_one_at_rho(self):
        rng = np.random.default_rng(100)
        rho = rng.uniform(1e-3, 10, size=1000)
        np.testing.assert_allclose(rho_calibrated_log_loss(rho, rho), 1.0,
                                   atol=1e-12)

    def test_misprediction_indicator_below_margin_loss(self):
        """Pointwise, a mispredicted labelled pixel has margin <= 0, so the
        margin loss is 1 and dominates the error indicator for any offset."""
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(500, 4))
        labels = rng.integers(0, 4, size=500)
        lam = margins_lambda(scores)
        preds = np.argmax(scores, axis=1)
        lam_true = lam[np.arange(500), labels]
        for rho in (0.01, 0.5, 3.0):
            phi = np.clip(1.0 - lam_true / rho, 0.0, 1.0)
            wrong = (preds != labels).astype(float)
            assert np.all(wrong <= phi)


class TestBaselineLosses:
    def test_perfect_one_hot_cross_entropy_near_zero(self):
        scores = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        res = cross_entropy(ScoreBatch(scores=scores), make_mask([0, 1]))
        assert res.value < 1e-6

    def test_focal_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            scores = rng.normal(size=(20, 3))
            labels = rng.integers(0, 3, size=20)
            ce = cross_entropy(ScoreBatch(scores=scores), make_mask(labels))
            fo = focal(ScoreBatch(scores=scores), make_mask(labels), gamma=0.0)
            assert fo.value == pytest.approx(ce.value, rel=1e-10)
            np.testing.assert_allclose(fo.grad, ce.grad, atol=1e-12)

    def test_focal_skips_ignored_pixels(self):
        """Ignored rows get a zero gradient and leave the value as if absent."""
        rng = np.random.default_rng(22)
        scores = rng.normal(size=(40, 3)) * 3
        labels = rng.integers(0, 3, size=40).astype(np.uint8)
        labels[::4] = 255
        kept = labels != 255
        for gamma in (0.0, 0.4, 2.0):
            res = focal(ScoreBatch(scores=scores), make_mask(labels), gamma=gamma)
            alone = focal(ScoreBatch(scores=scores[kept]), make_mask(labels[kept]),
                          gamma=gamma)
            assert np.all(res.grad[~kept] == 0.0)
            np.testing.assert_allclose(res.grad[kept], alone.grad, rtol=1e-13, atol=1e-17)
            np.testing.assert_allclose(res.per_class_fg, alone.per_class_fg, rtol=1e-13)

    def test_cross_entropy_fast_and_reference_agree(self):
        """The class-major blocked route agrees with a per-pixel scalar loop."""
        rng = np.random.default_rng(77)
        scores = rng.normal(size=(100, 3))
        labels = rng.integers(0, 3, size=100).astype(np.uint8)
        labels[4] = 255
        mask = make_mask(labels)
        fast = cross_entropy(ScoreBatch(scores=scores), mask)
        ref = cross_entropy_oracle(scores, labels)
        assert fast.value == pytest.approx(ref.value, rel=1e-13)
        np.testing.assert_allclose(fast.grad, ref.grad, atol=1e-16)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_all_gradients_pass_finite_differences(self, name):
        res = check_loss_gradient(name, seed=11, n_batches=5)
        assert res.max_rel_err <= 1e-4, f"{name}: {res.max_rel_err}"

    def test_dice_perfect_prediction_low_loss(self):
        scores = np.array([[40.0, 0.0], [0.0, 40.0], [40.0, 0.0]])
        res = soft_dice(ScoreBatch(scores=scores), make_mask([0, 1, 0]))
        assert res.value < 1e-5

    @pytest.mark.parametrize("region_loss", ["tversky", "tversky_weights", "soft_dice"])
    def test_region_losses_match_row_major_oracles(self, region_loss):
        """The two-pass blocked route agrees with whole-batch row-major
        formulas: three full blocks and a partial one, every 7th pixel and the
        whole second block ignored; ignored rows get exactly zero gradient."""
        rng = np.random.default_rng(43)
        n, k_cls = 3 * BLOCK_PX + 17, 4
        scores = rng.normal(size=(n, k_cls)) * 2
        labels = rng.integers(0, k_cls, size=n).astype(np.uint8)
        labels[::7] = 255
        labels[BLOCK_PX : 2 * BLOCK_PX] = 255
        batch, mask = ScoreBatch(scores=scores), make_mask(labels)
        if region_loss == "soft_dice":
            res, ref = soft_dice(batch, mask, eps=0.3), dice_oracle(scores, labels, 0.3)
        elif region_loss == "tversky_weights":
            res = tversky(batch, mask, alpha=0.8, beta=0.1, eps=1e-3)
            ref = tversky_oracle(scores, labels, 0.8, 0.1, 1e-3)
        else:
            res = tversky(batch, mask)
            ref = tversky_oracle(scores, labels, 0.3, 0.7, 1e-6)
        assert res.value == pytest.approx(ref.value, rel=1e-13)
        np.testing.assert_allclose(res.per_class_fg, ref.per_class_fg, rtol=1e-13)
        np.testing.assert_array_equal(res.per_class_bg, 0.0)
        np.testing.assert_allclose(res.grad, ref.grad, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref.grad).max())
        assert np.all(res.grad[labels == 255] == 0.0)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_saturated_scores_give_finite_results(self, name):
        """A mislabelled pixel whose label probability underflows (a score gap
        of 800) gives a finite value and gradient, without warnings."""
        scores, mask = ScoreBatch(scores=[[800.0, 0.0, 0.0]]), make_mask([1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = loss_by_name(name)(scores, mask, simple_margins(3))
        assert np.isfinite(res.value)
        assert np.all(np.isfinite(res.grad))
        if name in ("cross_entropy", "focal"):
            # -log q = 800 with (1 - q)^gamma = 1, and the slope is -1 at q = 0
            assert res.value == 800.0
            np.testing.assert_array_equal(res.grad, [[1.0, -1.0, 0.0]])

    def test_loss_by_name_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown loss"):
            loss_by_name("hinge")


class TestIgnoreLabelBelowK:
    """An ignore label inside [0, K) marks pixels to skip, not pixels of that class."""

    SCORES = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_ignored_pixel_leaves_value_and_gradient_as_if_absent(self, name):
        labels = np.array([0, 1, 1], dtype=np.uint8)
        mask = MaskBatch(labels=labels, width=3, height=1, n_images=1, ignore_index=0)
        loss = loss_by_name(name)
        res = loss(ScoreBatch(scores=self.SCORES), mask, simple_margins(2))
        alone = loss(ScoreBatch(scores=self.SCORES[1:]), make_mask(labels[1:]),
                     simple_margins(2))
        assert res.value == pytest.approx(alone.value, rel=1e-15)
        np.testing.assert_array_equal(res.grad[0], 0.0)
        np.testing.assert_allclose(res.grad[1:], alone.grad, rtol=1e-15)

    def test_cross_entropy_worked_example(self):
        """log(1 + e^-3) and log 2 over the two kept pixels: 0.3709, not the
        0.4343 of counting the ignored pixel as class 0."""
        mask = MaskBatch(labels=np.array([0, 1, 1], dtype=np.uint8), width=3, height=1,
                         n_images=1, ignore_index=0)
        value = cross_entropy(ScoreBatch(scores=self.SCORES), mask).value
        assert value == pytest.approx((math.log1p(math.exp(-3.0)) + math.log(2.0)) / 2,
                                      rel=1e-15)


class TestLinearTimeScaling:
    def test_wall_time_grows_linearly_in_batch_size(self):
        """Least-squares fit of time vs pixel count has R^2 >= 0.98.

        Every round times each size once, and each size takes its median
        over the rounds, so a slow phase of the host lands on all sizes alike.
        """
        import time as _time

        rng = np.random.default_rng(0)
        m = simple_margins(8, tau=2.0)
        sizes = [2**p for p in range(12, 19)]
        cases = []
        for n in sizes:
            labels = rng.integers(0, 8, size=n).astype(np.uint8)
            cases.append((ScoreBatch(scores=rng.normal(size=(n, 8))), make_mask(labels)))
            calibrated_log_loss(*cases[-1], m)  # warm caches
        times = [[] for _ in sizes]
        for _ in range(5):
            for (batch, mask), reps in zip(cases, times):
                t0 = _time.perf_counter()
                calibrated_log_loss(batch, mask, m)
                reps.append(_time.perf_counter() - t0)
        medians = [float(np.median(reps)) for reps in times]
        x = np.asarray(sizes, dtype=float)
        t = np.asarray(medians)
        slope, intercept = np.polyfit(x, t, 1)
        fitted = slope * x + intercept
        ss_res = np.sum((t - fitted) ** 2)
        ss_tot = np.sum((t - t.mean()) ** 2)
        r2 = 1.0 - ss_res / ss_tot
        assert r2 >= 0.98, f"R^2 = {r2:.4f}, times={medians}"
