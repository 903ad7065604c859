"""Tests for confusion counting, IoU reports and the lower-bound report."""
import numpy as np
import pytest

from margincal.errors import ConfigError, DataError, ShapeError
from margincal.losses import BLOCK_PX, ScoreBatch, _pixel_kernel, rho_margin_objective
from margincal.margins import compute_margins
from margincal.metrics import (
    ConfusionCounts,
    confusion,
    iou_report,
    lower_bound_report,
    predict_labels,
    write_metrics_csv,
)
from margincal.segdata import FeatureBatch, LabelStats, MaskBatch, accumulate_stats
from margincal.trainer import PixelMLP, evaluate


def make_mask(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return MaskBatch(labels=labels, width=labels.size, height=1, n_images=1)


def tied_case(k, seed=0):
    """Scores and labels over two full pixel blocks and a 17-pixel third one.

    Small-integer scores tie often; each block also plants exact two-way ties
    between the first, middle and last class and all-equal rows, and the
    second block holds the only ignored pixels.
    """
    rng = np.random.default_rng(seed)
    n = 2 * BLOCK_PX + 17
    scores = rng.integers(0, 3, size=(n, k)).astype(np.float64)
    mid, last = k // 2, k - 1
    for start in (0, BLOCK_PX, 2 * BLOCK_PX):
        for i, pair in enumerate([(0, mid), (mid, last), (0, last), range(k)]):
            row = scores[start + 2 * i + 1]
            row[:] = 0.0
            row[list(pair)] = 4.0
    labels = rng.integers(0, k, size=n).astype(np.uint8)
    labels[BLOCK_PX + 100 : BLOCK_PX + 400] = 255
    return scores, make_mask(labels)


def recount(scores, labels, k, ignore_index=255):
    """(tp, fp, fn, n) of the first-max prediction by np.argmax and np.bincount."""
    valid = labels != ignore_index
    pred = np.argmax(scores, axis=1)[valid]
    truth = labels[valid].astype(np.int64)
    matrix = np.bincount(truth * k + pred, minlength=k * k).reshape(k, k)
    tp = np.diag(matrix)
    return tp, matrix.sum(axis=0) - tp, matrix.sum(axis=1) - tp, int(valid.sum())


class TestConfusion:
    def test_perfect_prediction(self):
        truth = make_mask([0, 1, 2, 1, 0])
        counts = confusion(truth, truth, 3)
        np.testing.assert_array_equal(counts.fp, 0)
        np.testing.assert_array_equal(counts.fn, 0)
        report = iou_report(counts)
        np.testing.assert_array_equal(report.iou_per_class, 1.0)
        assert report.miou == 1.0

    def test_disjoint_class_zero_iou(self):
        truth = make_mask([1, 1, 0, 0])
        pred = make_mask([0, 0, 1, 1])
        report = iou_report(confusion(pred, truth, 2))
        np.testing.assert_array_equal(report.iou_per_class, 0.0)

    def test_matches_per_pixel_tally(self):
        rng = np.random.default_rng(3)
        truth_labels = rng.integers(0, 3, size=10)
        pred_labels = rng.integers(0, 3, size=10)
        counts = confusion(make_mask(pred_labels), make_mask(truth_labels), 3)
        for k in range(3):
            tp = int(np.sum((truth_labels == k) & (pred_labels == k)))
            fn = int(np.sum((truth_labels == k) & (pred_labels != k)))
            fp = int(np.sum((truth_labels != k) & (pred_labels == k)))
            assert (counts.tp[k], counts.fn[k], counts.fp[k]) == (tp, fn, fp)

    def test_ignore_pixels_skipped(self):
        truth = make_mask([0, 255, 1, 255])
        pred = make_mask([0, 1, 0, 0])
        counts = confusion(pred, truth, 2)
        assert counts.total == 2
        assert counts.tp[0] == 1 and counts.fn[1] == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            confusion(make_mask([0, 1]), make_mask([0, 1, 0]), 2)

    @pytest.mark.parametrize("truth", [[1, 1], [0, 1]])
    def test_negative_prediction_rejected(self, truth):
        """Before, truth 1 with prediction -1 was counted as truth 0
        predicted 2, and truth 0 raised numpy's ValueError."""
        pred = MaskBatch(labels=np.array([-1, 1], dtype=np.int16), width=2, height=1,
                         n_images=1)
        with pytest.raises(DataError, match="^labels below 0$"):
            confusion(pred, make_mask(truth), 3)


class TestIgnoreLabelBelowK:
    """With ignore_index = 0 the first pixel is skipped, not counted as class 0."""

    SCORES = ScoreBatch(scores=np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]]))
    MASK = MaskBatch(labels=np.array([0, 1, 1], dtype=np.uint8), width=3, height=1,
                     n_images=1, ignore_index=0)

    def test_lower_bound_report_counts_agree_with_confusion(self):
        """Over the 2 valid pixels: tp [0, 1], fp [1, 0], fn [0, 1]."""
        margins = compute_margins(LabelStats([3, 5]), tau=1.0, upsilon=1.0)
        report = lower_bound_report(self.SCORES, self.MASK, margins)
        np.testing.assert_array_equal(report.p_k, [0.0, 1.0])  # (tp + fn) / 2
        np.testing.assert_array_equal(report.p_k0, [0.0, 0.5])  # fn / 2
        np.testing.assert_array_equal(report.p_0k, [0.5, 0.0])  # fp / 2: the tie goes to 0
        assert report.pixel_accuracy == 0.5
        tp, fp, fn, n = recount(self.SCORES.scores, self.MASK.labels, 2, ignore_index=0)
        assert (n, tp.tolist(), fp.tolist(), fn.tolist()) == (2, [0, 1], [1, 0], [0, 1])

    def test_lower_bound_as_if_the_pixel_were_absent(self):
        margins = compute_margins(LabelStats([3, 5]), tau=1.0, upsilon=1.0)
        got = lower_bound_report(self.SCORES, self.MASK, margins)
        want = lower_bound_report(ScoreBatch(scores=self.SCORES.scores[1:]),
                                  make_mask([1, 1]), margins)
        assert got.miou == want.miou
        for field in ("ell_k0", "ell_0k", "iou_lower_per_class"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-15)


class TestIouReport:
    def test_count_form_worked_example(self):
        counts = ConfusionCounts(tp=[8], fp=[1], fn=[1], total=64)
        report = iou_report(counts)
        assert report.iou_per_class[0] == pytest.approx(0.8, abs=1e-15)
        assert report.dsc_per_class[0] == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_probability_form_worked_example(self):
        """N=100 with P_k=0.10, P_k0=0.02, P_0k=0.03 gives IoU 8/13."""
        counts = ConfusionCounts(tp=[8, 0], fp=[3, 0], fn=[2, 0], total=100)
        # class 0: p_k = 0.10, p_k0 = 0.02, p_0k = 0.03
        report = iou_report(counts)
        assert report.p_k[0] == pytest.approx(0.10)
        assert report.p_k0[0] == pytest.approx(0.02)
        assert report.p_0k[0] == pytest.approx(0.03)
        assert report.iou_per_class[0] == pytest.approx((0.10 - 0.02) / 0.13,
                                                        rel=1e-12)

    def test_equal_ious_average(self):
        counts = ConfusionCounts(tp=[1, 1], fp=[1, 1], fn=[0, 0], total=4)
        report = iou_report(counts)
        assert report.miou == pytest.approx(0.5)

    def test_absent_class_is_nan_and_excluded(self):
        counts = ConfusionCounts(tp=[5, 0], fp=[0, 0], fn=[0, 0], total=5)
        report = iou_report(counts)
        assert np.isnan(report.iou_per_class[1])
        assert report.miou == 1.0
        assert not report.present[1]

    def test_count_and_probability_forms_agree_randomly(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            tp = rng.integers(0, 1000, size=4)
            fp = rng.integers(0, 1000, size=4)
            fn = rng.integers(0, 1000, size=4)
            total = int(tp.sum() + fp.sum() + fn.sum()) + int(rng.integers(1, 500))
            report = iou_report(ConfusionCounts(tp=tp, fp=fp, fn=fn, total=total))
            pr = report.present
            prob_form = (report.p_k[pr] - report.p_k0[pr]) / (
                report.p_k[pr] + report.p_0k[pr]
            )
            np.testing.assert_allclose(report.iou_per_class[pr], prob_form,
                                       atol=1e-12)

    def test_dsc_iou_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            tp = rng.integers(1, 1000, size=3)
            fp = rng.integers(0, 1000, size=3)
            fn = rng.integers(0, 1000, size=3)
            report = iou_report(
                ConfusionCounts(tp=tp, fp=fp, fn=fn, total=int(3000 + tp.sum()))
            )
            identity = 2.0 * report.iou_per_class / (1.0 + report.iou_per_class)
            np.testing.assert_allclose(report.dsc_per_class, identity, atol=1e-12)

    def test_fp_to_tn_mutation_never_decreases_iou(self):
        """Dropping one false positive (all else equal) cannot hurt IoU."""
        rng = np.random.default_rng(12)
        for _ in range(100):
            tp = int(rng.integers(1, 50))
            fp = int(rng.integers(1, 50))
            fn = int(rng.integers(0, 50))
            total = tp + fp + fn + 100
            before = iou_report(
                ConfusionCounts(tp=[tp], fp=[fp], fn=[fn], total=total)
            ).iou_per_class[0]
            after = iou_report(
                ConfusionCounts(tp=[tp], fp=[fp - 1], fn=[fn], total=total)
            ).iou_per_class[0]
            assert after >= before


class TestPredictLabels:
    def test_argmax_tie_breaks_low_index(self):
        scores = np.array([[1.0, 1.0, 0.5], [0.2, 0.9, 0.9]])
        pred = predict_labels(ScoreBatch(scores=scores), make_mask([0, 0]))
        np.testing.assert_array_equal(pred.labels, [0, 1])

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_blocked_ties_match_argmax(self, k):
        """Row-major and class-major score layouts both predict np.argmax."""
        scores, mask = tied_case(k)
        class_major = np.ascontiguousarray(scores.T).T
        for layout in (scores, class_major):
            pred = predict_labels(ScoreBatch(scores=layout), mask)
            np.testing.assert_array_equal(pred.labels, np.argmax(scores, axis=1))


class TestLowerBoundReport:
    def _random_case(self, seed, n=1000, k=3, tau=2.0):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(n, k))
        labels = rng.integers(0, k, size=n).astype(np.uint8)
        labels[:k] = np.arange(k)  # every class present
        mask = make_mask(labels)
        stats = accumulate_stats(mask, k)
        margins = compute_margins(stats, tau=tau, upsilon=1.0)
        return ScoreBatch(scores=scores), mask, margins, stats

    def test_perfect_separation_reaches_iou(self):
        """Margins beyond every offset collapse the bound onto the exact IoU."""
        stats = LabelStats([3, 3])
        margins = compute_margins(stats, tau=0.5, upsilon=1.0)
        big = 5.0 + margins.rho_max
        labels = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)
        scores = np.where(
            np.arange(2)[None, :] == labels[:, None], big, 0.0
        )
        report = lower_bound_report(ScoreBatch(scores=scores), make_mask(labels),
                                    margins)
        np.testing.assert_allclose(report.iou_per_class, 1.0)
        np.testing.assert_allclose(report.iou_lower_per_class, 1.0, atol=1e-12)
        np.testing.assert_array_equal(report.ell_k0, 0.0)
        np.testing.assert_array_equal(report.ell_0k, 0.0)

    def test_all_zero_scores_zero_lower_bound(self):
        """Zero margins put every loss term at 1, so l_k0 = P_k and the
        lower-bound numerator vanishes."""
        sb, mask, margins, stats = self._random_case(0)
        zero = ScoreBatch(scores=np.zeros_like(sb.scores))
        report = lower_bound_report(zero, mask, margins, stats)
        np.testing.assert_allclose(report.ell_k0, report.p_k, atol=1e-15)
        np.testing.assert_allclose(report.iou_lower_per_class, 0.0, atol=1e-15)

    def test_sandwich_holds_over_seeds(self):
        """P_k0 <= l_k0, P_0k <= l_0k and IoU_lower <= IoU on random batches."""
        for seed in range(100):
            sb, mask, margins, stats = self._random_case(seed)
            report = lower_bound_report(sb, mask, margins, stats)
            pr = report.present
            assert np.all(report.p_k0[pr] <= report.ell_k0[pr] + 1e-15)
            assert np.all(report.p_0k[pr] <= report.ell_0k[pr] + 1e-15)
            assert np.all(
                report.iou_lower_per_class[pr] <= report.iou_per_class[pr] + 1e-15
            )
            assert report.miou_lower <= report.miou + 1e-15

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_blocked_walk_matches_recount(self, k):
        """Counts agree exactly with an argmax/bincount recount, and the phi-sums
        bitwise with rho_margin_objective, across ties, blocks and ignored pixels."""
        scores, mask = tied_case(k)
        sb = ScoreBatch(scores=np.ascontiguousarray(scores.T).T)
        margins = compute_margins(accumulate_stats(mask, k), tau=2.0, upsilon=1.0)
        report = lower_bound_report(sb, mask, margins)
        tp, fp, fn, n = recount(scores, mask.labels, k)
        np.testing.assert_array_equal(report.p_k0, fn / n)
        np.testing.assert_array_equal(report.p_0k, fp / n)
        np.testing.assert_array_equal(report.p_k, (tp + fn) / n)
        assert report.pixel_accuracy == tp.sum() / n
        objective = rho_margin_objective(sb, mask, margins)
        np.testing.assert_array_equal(report.ell_k0, objective.per_class_fg)
        np.testing.assert_array_equal(report.ell_0k, objective.per_class_bg)

    def test_missing_offsets_name_the_caller(self):
        """Without margin-offsets the report names itself, and training's
        loss kernel keeps its own text."""
        sb, mask, _, _ = self._random_case(2)
        with pytest.raises(ConfigError, match="^lower_bound_report needs margin-offsets$"):
            lower_bound_report(sb, mask, None)
        with pytest.raises(ConfigError,
                           match="^the margin-calibration loss needs margin-offsets$"):
            _pixel_kernel("margin_calibration", None, 3)

    def test_scope_labels(self):
        sb, mask, margins, stats = self._random_case(1)
        assert lower_bound_report(sb, mask, margins, stats).bound_scope == "dataset"
        other = LabelStats([10, 10, 10])
        assert lower_bound_report(sb, mask, margins, other).bound_scope == "batch"
        assert lower_bound_report(sb, mask, margins).bound_scope == "batch"

    def test_evaluate_scope_labels(self):
        """``trainer.evaluate`` passes ``stats`` on as ``lower_bound_report`` does."""
        _, mask, margins, stats = self._random_case(1)
        feats = FeatureBatch(np.random.default_rng(2).normal(size=(mask.n_pixels, 4)))
        model = PixelMLP.init(4, 8, 3, seed=0)
        assert evaluate(model, feats, mask, margins, stats).bound_scope == "dataset"
        other = LabelStats([10, 10, 10])
        assert evaluate(model, feats, mask, margins, other).bound_scope == "batch"
        assert evaluate(model, feats, mask, margins).bound_scope == "batch"

    def test_indicator_margin_smooth_chain_on_batches(self):
        """The per-class miss rates sit below the margin-loss sums, which sit
        below the smoothed-loss sums."""
        from margincal.losses import calibrated_log_loss

        for seed in (5, 6, 7):
            sb, mask, margins, stats = self._random_case(seed)
            report = lower_bound_report(sb, mask, margins, stats)
            smooth = calibrated_log_loss(sb, mask, margins)
            pr = report.present
            assert np.all(report.p_k0[pr] <= report.ell_k0[pr] + 1e-15)
            assert np.all(report.ell_k0[pr] <= smooth.per_class_fg[pr] + 1e-15)
            assert np.all(report.p_0k[pr] <= report.ell_0k[pr] + 1e-15)
            assert np.all(report.ell_0k[pr] <= smooth.per_class_bg[pr] + 1e-15)


class TestMetricsCsv:
    def test_schema_and_summary_rows(self, tmp_path):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(200, 3))
        labels = rng.integers(0, 3, size=200).astype(np.uint8)
        mask = make_mask(labels)
        stats = accumulate_stats(mask, 3)
        margins = compute_margins(stats, tau=2.0)
        report = lower_bound_report(ScoreBatch(scores=scores), mask, margins, stats)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "class_index,iou,dsc,p_k,p_k0,p_0k,iou_lower"
        assert len(lines) == 1 + 3 + 3
        assert lines[4].startswith("miou,")
        assert lines[5].startswith("miou_lower,")
        assert lines[6].startswith("pixel_acc,")
        miou = float(lines[4].split(",")[1])
        assert miou == pytest.approx(report.miou, rel=1e-12)
