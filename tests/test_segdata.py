"""Tests for PGM I/O, synthetic generation and label statistics."""
import hashlib
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from margincal.errors import ConfigError, DataError, FormatError, ShapeError, StatsError
from margincal.losses import ScoreBatch, rho_margin_objective
from margincal.margins import compute_margins
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
    read_mask_pgm,
    read_stats_csv,
    write_mask_pgm,
    write_stats_csv,
)

# sha256 of the PGM bytes for the seed-3 64x64 mask, frozen at first build
GOLDEN_MASK_SHA256 = "3be4d1edf7b01eed5eb8114e799e22e61cbc0ac1570436cce91c5c97e78970b5"


class TestReadMaskPgm:
    def test_direct_byte_mapping(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 1, 1, 0]))
        mask = read_mask_pgm(path)
        assert mask.width == 2 and mask.height == 2 and mask.n_images == 1
        np.testing.assert_array_equal(mask.labels, [0, 1, 1, 0])

    def test_ascii_pgm_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 1 0\n")
        with pytest.raises(FormatError, match="ASCII PGM unsupported"):
            read_mask_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="magic"):
            read_mask_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + bytes(4))
        with pytest.raises(FormatError, match="maxval"):
            read_mask_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(FormatError, match="truncated"):
            read_mask_pgm(path)

    def test_malformed_header_token(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 four\n255\n" + bytes(16))
        with pytest.raises(FormatError, match="height"):
            read_mask_pgm(path)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([3, 4]))
        mask = read_mask_pgm(path)
        np.testing.assert_array_equal(mask.labels, [3, 4])


class TestWriteMaskPgm:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 256, size=64 * 64).astype(np.uint8)
        mask = MaskBatch(labels=labels, width=64, height=64, n_images=1)
        path = tmp_path / "m.pgm"
        write_mask_pgm(mask, path)
        back = read_mask_pgm(path)
        np.testing.assert_array_equal(back.labels, labels)
        assert (back.width, back.height) == (64, 64)

    def test_round_trip_all_byte_values(self, tmp_path):
        labels = np.arange(256, dtype=np.uint8)
        mask = MaskBatch(labels=labels, width=16, height=16, n_images=1)
        path = tmp_path / "m.pgm"
        write_mask_pgm(mask, path)
        np.testing.assert_array_equal(read_mask_pgm(path).labels, labels)

    def test_label_out_of_range(self, tmp_path):
        mask = MaskBatch(
            labels=np.array([0, 300, 1, 2], dtype=np.int64),
            width=2, height=2, n_images=1,
        )
        with pytest.raises(DataError, match="255"):
            write_mask_pgm(mask, tmp_path / "m.pgm")

    def test_multi_image_rejected(self, tmp_path):
        mask = MaskBatch(labels=np.zeros(8, dtype=np.uint8), width=2, height=2,
                         n_images=2)
        with pytest.raises(DataError, match="one image"):
            write_mask_pgm(mask, tmp_path / "m.pgm")

    def test_deterministic_bytes_golden_hash(self, tmp_path):
        """The seed-3 sample mask serializes to the frozen golden digest."""
        cfg = SynthConfig(seed=3, width=64, height=64, n_images=1, k_classes=3)
        _, masks = generate_synthetic(cfg)
        path = tmp_path / "a.pgm"
        write_mask_pgm(masks, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MASK_SHA256


class TestGenerateSynthetic:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(seed=11, width=32, height=32, n_images=5, k_classes=3)
        f1, m1 = generate_synthetic(cfg)
        f2, m2 = generate_synthetic(cfg)
        np.testing.assert_array_equal(m1.labels, m2.labels)
        np.testing.assert_array_equal(f1.features, f2.features)

    def test_features_are_feature_major_and_made_once(self):
        """2,097,152 px (512 images of 64 x 64): the (n, d) features are the
        transposed view of a C-ordered (d, n) array, and the call's peak
        (``tracemalloc``) is its outputs plus under 2 MB, where a second
        feature array would be 134 MB and one pixel-length row 16.8 MB."""
        cfg = SynthConfig(seed=0, width=64, height=64, n_images=512)
        tracemalloc.start()
        try:
            feats, masks = generate_synthetic(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats.features.shape == (2_097_152, FEATURE_DIM)
        assert feats.features.T.flags.c_contiguous
        assert peak - feats.features.nbytes - masks.labels.nbytes < 2_000_000

    def test_fractions_match_targets(self):
        """Measured class fractions stay within 20% relative of the targets."""
        cfg = SynthConfig(
            seed=5, width=64, height=64, n_images=200, k_classes=3,
            target_ratios=(0.90, 0.07, 0.03),
        )
        _, masks = generate_synthetic(cfg)
        stats = accumulate_stats(masks, 3)
        for k, target in enumerate(cfg.target_ratios):
            measured = stats.p_per_class[k]
            assert abs(measured - target) / target < 0.20, (
                f"class {k}: measured {measured:.4f} vs target {target}"
            )

    def test_noiseless_intensity_levels(self):
        cfg = SynthConfig(seed=2, width=32, height=32, n_images=3, k_classes=4,
                          target_ratios=(0.85, 0.06, 0.05, 0.04), noise_sigma=0.0)
        feats, _ = generate_synthetic(cfg)
        levels = np.unique(feats.features[:, 2])
        assert levels.size == 4
        np.testing.assert_allclose(levels, [0.2, 0.4, 0.6, 0.8])

    def test_unachievable_ratio_rejected(self):
        cfg_kwargs = dict(seed=0, width=8, height=8, n_images=1, k_classes=2)
        with pytest.raises(ConfigError, match="radius"):
            generate_synthetic(
                SynthConfig(target_ratios=(0.2, 0.8), **cfg_kwargs)
            )

    def test_coordinate_features_in_unit_range(self):
        cfg = SynthConfig(seed=7, width=16, height=24, n_images=2, k_classes=2,
                          target_ratios=(0.9, 0.1))
        feats, _ = generate_synthetic(cfg)
        coords = feats.features[:, [0, 1, 3, 4, 5, 6]]
        assert coords.min() >= 0.0 and coords.max() <= 1.0
        np.testing.assert_array_equal(feats.features[:, 7], 1.0)
        assert feats.features.shape[1] == FEATURE_DIM

    def test_ratio_validation(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            SynthConfig(seed=0, k_classes=2, target_ratios=(0.9, 0.2))
        with pytest.raises(ConfigError, match="positive"):
            SynthConfig(seed=0, k_classes=2, target_ratios=(1.1, -0.1))


class TestAccumulateStats:
    def test_direct_count(self):
        labels = np.array([0] * 90 + [1] * 10, dtype=np.uint8)
        mask = MaskBatch(labels=labels, width=10, height=10, n_images=1)
        stats = accumulate_stats(mask, 2)
        assert stats.n_total == 100
        np.testing.assert_array_equal(stats.n_per_class, [90, 10])
        np.testing.assert_allclose(stats.p_per_class, [0.9, 0.1], rtol=0, atol=0)

    def test_all_ignored_is_error(self):
        labels = np.full(16, 255, dtype=np.uint8)
        mask = MaskBatch(labels=labels, width=4, height=4, n_images=1)
        with pytest.raises(StatsError, match="empty effective dataset"):
            accumulate_stats(mask, 2)

    def test_out_of_range_label_reports_location(self):
        labels = np.zeros(32, dtype=np.uint8)
        labels[20] = 7  # image 1, pixel 4 for 4x4 images
        mask = MaskBatch(labels=labels, width=4, height=4, n_images=2)
        with pytest.raises(DataError, match=r"image 1, pixel 4"):
            accumulate_stats(mask, 3)
        clean = MaskBatch(labels=np.zeros(48, dtype=np.uint8), width=4, height=4, n_images=3)
        with pytest.raises(ShapeError) as caught:  # images count on across batches
            accumulate_stats([clean, mask], 3)
        assert str(caught.value) == "label 7 at image 4, pixel 4 exceeds k_classes=3"

    def test_instrument_style_split_exact_frequencies(self):
        """A 91.2/4.9/1.4/1.6/0.8 percent split is recovered to 1e-12 from
        integer counts at the 1e6-pixel scale.

        Those published rounded fractions total 99.9%, so the remaining 0.1%
        of the canvas carries the ignore label and the exact frequencies are
        counts/999000.
        """
        counts = [912_000, 49_000, 14_000, 16_000, 8_000]
        labels = np.concatenate(
            [
                np.repeat(np.arange(5, dtype=np.uint8), counts),
                np.full(1_000, 255, dtype=np.uint8),
            ]
        )
        mask = MaskBatch(labels=labels, width=1000, height=1000, n_images=1)
        stats = accumulate_stats(mask, 5)
        assert stats.n_total == 999_000
        expected = np.asarray(counts) / 999_000
        np.testing.assert_allclose(stats.p_per_class, expected, rtol=0, atol=1e-12)
        # the intended headline fractions hold to the published rounding
        np.testing.assert_allclose(
            stats.p_per_class, [0.912, 0.049, 0.014, 0.016, 0.008], atol=1e-3
        )

    def test_ignored_plus_counted_equals_raw_total(self):
        rng = np.random.default_rng(4)
        labels = rng.choice(
            np.array([0, 1, 2, 255], dtype=np.uint8), size=500,
            p=[0.5, 0.2, 0.2, 0.1],
        )
        mask = MaskBatch(labels=labels, width=50, height=10, n_images=1)
        stats = accumulate_stats(mask, 3)
        ignored = int((labels == 255).sum())
        assert stats.n_total + ignored == labels.size

    def test_multiple_batches_accumulate(self):
        m1 = MaskBatch(labels=np.zeros(4, dtype=np.uint8), width=2, height=2,
                       n_images=1)
        m2 = MaskBatch(labels=np.ones(4, dtype=np.uint8), width=2, height=2,
                       n_images=1)
        stats = accumulate_stats([m1, m2], 2)
        np.testing.assert_array_equal(stats.n_per_class, [4, 4])

    def test_counts_across_scan_blocks_match_bincount(self):
        """Exact counts over several SCAN_BLOCK blocks and a partial last one,
        with an ignore label below K that must not count as its class."""
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 4, size=2 * SCAN_BLOCK + 1000).astype(np.uint8)
        mask = MaskBatch(labels=labels, width=labels.size, height=1, n_images=1, ignore_index=1)
        want = np.bincount(labels[labels != 1], minlength=4)
        np.testing.assert_array_equal(accumulate_stats(mask, 4).n_per_class, want)


class TestFeatureBatch:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_feature_names_pixel_and_column(self, bad):
        """The first non-finite entry in pixel order is named, here past the
        first SCAN_BLOCK rows and outside column 0."""
        features = np.zeros((SCAN_BLOCK + 100, FEATURE_DIM))
        features[SCAN_BLOCK + 5, 3] = bad
        features[SCAN_BLOCK + 6, 0] = bad
        with pytest.raises(DataError) as caught:
            FeatureBatch(features)
        assert str(caught.value) == f"non-finite feature at pixel {SCAN_BLOCK + 5}, column 3"


@pytest.fixture(scope="module")
def large_split():
    """2,097,152 px (128 images of 128x128), K = 2, an ignore label every 11 px."""
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, size=128 * 128 * 128).astype(np.uint8)
    labels[::11] = 255
    masks = MaskBatch(labels=labels, width=128, height=128, n_images=128)
    return masks, rng.normal(size=(labels.size, FEATURE_DIM)), rng.normal(size=(labels.size, 2))


@pytest.mark.parametrize("scan", ["FeatureBatch", "check_labels", "accumulate_stats",
                                  "rho_margin_objective"])
def test_whole_split_scans_hold_one_block_of_scratch(large_split, scan):
    """Each scan over 2,097,152 px allocates under 2 MB (``tracemalloc``'s
    peak), where a pixel-length bool array alone is 2.1 MB."""
    masks, features, scores = large_split
    scores = ScoreBatch(scores)
    margins = compute_margins(LabelStats([9, 1]), tau=2.0, upsilon=1.0)
    call = {
        "FeatureBatch": lambda: FeatureBatch(features),
        "check_labels": lambda: check_labels(masks, 2),
        "accumulate_stats": lambda: accumulate_stats(masks, 2),
        "rho_margin_objective": lambda: rho_margin_objective(scores, masks, margins),
    }[scan]
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


class TestLabelStats:
    def test_total_frequencies_and_classes_follow_from_the_counts(self):
        stats = LabelStats([6, 3, 0, 1])
        assert [f.name for f in fields(LabelStats)] == ["n_per_class"]
        assert stats.n_per_class.dtype == np.int64
        assert stats.n_total == 10 and type(stats.n_total) is int
        np.testing.assert_array_equal(stats.p_per_class, [0.6, 0.3, 0.0, 0.1])
        assert stats.k_classes == 4

    @pytest.mark.parametrize("counts, message", [
        ([[6, 3], [0, 1]], r"^label counts must be 1-D \(one per class\); got shape \(2, 2\)$"),
        (7, r"^label counts must be 1-D \(one per class\); got shape \(\)$"),
        ([4, 3, -1], r"^class 2 has a negative pixel count -1$"),
        ([0, 0], r"^empty effective dataset \(no counted pixels\)$"),
    ], ids=["2-D", "scalar", "negative", "zero-sum"])
    def test_refuses_counts_that_are_not_1d_negative_or_zero(self, counts, message):
        with pytest.raises(StatsError, match=message):
            LabelStats(counts)

    @pytest.mark.parametrize("counts, message", [
        ([1e20, 1], r"^class 0 has a pixel count 1e\+20 that does not fit int64$"),
        ([5, 10**20], rf"^class 1 has a pixel count {10**20} that does not fit int64$"),
        (np.array([3.0, -1e20]), r"^class 1 has a pixel count -1e\+20 that does not fit int64$"),
        ([9e18, 1e18], r"^the pixel counts overflow int64 at class 1$"),
        ([1, 2**62, 2**62], r"^the pixel counts overflow int64 at class 2$"),
    ], ids=["float-too-large", "int-too-large", "float-array-too-small", "float-total",
            "int-total"])
    def test_refuses_counts_that_overflow_int64(self, counts, message):
        """Before, a count beyond int64 raised numpy's OverflowError (or, from
        a float array, became a negative count) and a total beyond it wrapped
        to a negative total reported as an empty dataset."""
        with pytest.raises(StatsError, match=message):
            LabelStats(counts)

    def test_the_largest_total_is_kept_exactly(self):
        stats = LabelStats([2**62, 2**62 - 1])
        assert stats.n_total == 2**63 - 1


class TestStatsCsv:
    def test_round_trip(self, tmp_path):
        stats = LabelStats([912_000, 49_000, 14_000, 16_000, 8_000])
        path = tmp_path / "stats.csv"
        write_stats_csv(stats, path)
        back = read_stats_csv(path)
        assert back.n_total == stats.n_total
        np.testing.assert_array_equal(back.n_per_class, stats.n_per_class)
        np.testing.assert_allclose(back.p_per_class, stats.p_per_class, atol=0)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("class,count,freq\n0,10,1.0\n")
        with pytest.raises(FormatError, match="header"):
            read_stats_csv(path)

    def test_inconsistent_frequency_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("class_index,n_pixels,p_k\n0,90,0.5\n1,10,0.5\n")
        with pytest.raises(FormatError, match="p_k"):
            read_stats_csv(path)

    def test_nan_frequency_rejected(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text("class_index,n_pixels,p_k\n0,90,nan\n1,10,0.1\n")
        with pytest.raises(FormatError, match="p_k column inconsistent"):
            read_stats_csv(path)

    def test_negative_count_rejected(self, tmp_path):
        """The counts sum to 5 and the file's p_k agree with them, so only a
        sign check stops the negative class."""
        path = tmp_path / "stats.csv"
        path.write_text("class_index,n_pixels,p_k\n0,-5,-1\n1,10,2\n")
        with pytest.raises(StatsError, match=r"^class 0 has a negative pixel count -5$"):
            read_stats_csv(path)
