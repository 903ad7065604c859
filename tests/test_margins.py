"""Tests for margin-offset computation, ratio verification and CSV I/O."""
import re
from dataclasses import fields

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mpsqrt

from margincal.errors import ConfigError, DegenerateError, FormatError, StatsError
from margincal.margins import (
    MarginOffsets,
    compute_margins,
    read_margins_csv,
    verify_corollary_ratios,
    write_margins_csv,
)
from margincal.segdata import LabelStats

mp.dps = 50


def margins_oracle(counts, tau, upsilon):
    """Line-by-line 50-digit evaluation of the offset recurrence."""
    n = mpf(sum(counts))
    rows = []
    for nk in counts:
        nk = mpf(nk)
        p = nk / n
        mu = p * mpsqrt(nk) / (mpf(upsilon) * (n - nk) - p * mpsqrt(n - nk))
        rho0 = mpf(tau) * mpsqrt(n - nk) / nk
        rows.append((float(mu), float(rho0), float(mu * rho0)))
    return rows


class TestComputeMargins:
    def test_worked_two_class_example(self):
        """N=100 split 90/10 with tau=10, upsilon=1 against the scalar oracle."""
        stats = LabelStats([90, 10])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        oracle = margins_oracle([90, 10], 10, 1)
        for k, (mu, rho0, rhok0) in enumerate(oracle):
            assert abs(m.mu_k[k] - mu) < 1e-5
            assert abs(m.rho_0k[k] - rho0) < 1e-5
            assert abs(m.rho_k0[k] - rhok0) < 1e-5
        # frozen six-decimal reference values for the same case
        np.testing.assert_allclose(m.rho_0k, [0.351364, 9.486833], atol=1e-5)
        np.testing.assert_allclose(m.mu_k, [1.193487, 0.003551], atol=1e-5)
        np.testing.assert_allclose(m.rho_k0, [0.419351, 0.033688], atol=1e-5)

    def test_worked_example_ratio_closed_form(self):
        """rho_01/rho_02 equals (N_2/N_1)*sqrt(N-N_1)/sqrt(N-N_2) = 1/27."""
        stats = LabelStats([90, 10])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        assert abs(m.rho_0k[0] / m.rho_0k[1] - 1.0 / 27.0) < 1e-12

    def test_symmetric_classes_equal_offsets(self):
        stats = LabelStats([50, 50])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        expected = 10.0 * np.sqrt(50.0) / 50.0
        np.testing.assert_allclose(m.rho_0k, expected, rtol=1e-12)
        assert m.rho_0k[0] == m.rho_0k[1]

    def test_empty_class_error(self):
        stats = LabelStats([100, 0, 50])
        with pytest.raises(StatsError, match="empty class 1"):
            compute_margins(stats)

    def test_single_class_degenerate(self):
        stats = LabelStats([100])
        with pytest.raises(DegenerateError, match="every pixel"):
            compute_margins(stats)

    def test_mu_underflow_reports_minimal_upsilon(self):
        """A too-small upsilon is rejected with the restoring threshold."""
        stats = LabelStats([90, 10])
        # minimal workable upsilon is max_k P_k/sqrt(N-N_k) = 0.9/sqrt(10)
        upsilon_min = 0.9 / np.sqrt(10.0)
        with pytest.raises(ConfigError, match="mu underflow") as err:
            compute_margins(stats, tau=10.0, upsilon=0.5 * upsilon_min)
        assert f"{upsilon_min:.6g}"[:6] in str(err.value)
        # just above the threshold it works
        m = compute_margins(stats, tau=10.0, upsilon=upsilon_min * 1.001)
        assert np.all(m.mu_k > 0)

    def test_nonpositive_hyperparameters(self):
        """NaN is not positive either."""
        stats = LabelStats([90, 10])
        for tau, upsilon in ((0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(ConfigError, match="^tau and upsilon must be finite and positive$"):
                compute_margins(stats, tau=tau, upsilon=upsilon)

    def test_infinite_hyperparameters_fail_their_own_rule(self):
        """Not the offsets' later checks: an infinite tau made rho_0k
        non-finite, an infinite upsilon made rho_k0 zero."""
        stats = LabelStats([90, 10])
        for tau, upsilon in ((np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0)):
            with pytest.raises(ConfigError, match="^tau and upsilon must be finite and positive$"):
                compute_margins(stats, tau=tau, upsilon=upsilon)

    @pytest.mark.parametrize("tau, upsilon, k", [
        (1e308, 1.0, 0), (3e307, 1.0, 1), (10.0, 1e308, 0), (1e-320, 1.0, 0), (1e-306, 1.0, 1),
    ], ids=["tau-overflows", "tau-overflows-class-1", "upsilon-overflows", "tau-subnormal",
            "tau-subnormal-class-1"])
    def test_offsets_outside_float64_fail_their_own_rule(self, tau, upsilon, k):
        """Finite settings whose offsets overflow, or underflow to subnormal
        numbers or 0, name the first such class, with no numpy warning.
        Before, they failed as "rho_0k contains non-finite values" or
        "rho_k0 must be strictly positive", or passed with a subnormal mu_k."""
        message = (f"tau={tau!r} and upsilon={upsilon!r} put the margin-offsets of class {k} "
                   "outside float64's normal range")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            compute_margins(LabelStats([90, 10]), tau=tau, upsilon=upsilon)

    def test_mu_is_derived_from_the_offsets(self):
        """mu_k is rho_k0/rho_0k bit for bit and the closed form to 1e-12;
        the offsets are all that MarginOffsets stores."""
        assert [f.name for f in fields(MarginOffsets)] == ["rho_0k", "rho_k0"]
        rng = np.random.default_rng(4)
        for _ in range(20):
            counts = rng.integers(1, 100_000, size=5)
            m = compute_margins(LabelStats(counts), tau=3.7, upsilon=0.8)
            n, n_k = float(counts.sum()), counts.astype(float)
            p_k = n_k / n
            mu_k = p_k * np.sqrt(n_k) / (0.8 * (n - n_k) - p_k * np.sqrt(n - n_k))
            np.testing.assert_array_equal(m.mu_k, m.rho_k0 / m.rho_0k)
            np.testing.assert_allclose(m.mu_k, mu_k, rtol=1e-12)


class TestMarginProperties:
    def test_tau_scales_offsets_linearly(self):
        """Scaling tau by c scales every offset by exactly c; mu is tau-free."""
        stats = LabelStats([500, 200, 300])
        base = compute_margins(stats, tau=10.0, upsilon=1.0)
        for c in (0.5, 2.0, 4.0, 16.0):
            scaled = compute_margins(stats, tau=10.0 * c, upsilon=1.0)
            np.testing.assert_allclose(scaled.rho_0k, c * base.rho_0k, rtol=1e-15)
            np.testing.assert_allclose(scaled.rho_k0, c * base.rho_k0, rtol=1e-15)
            np.testing.assert_array_equal(scaled.mu_k, base.mu_k)

    def test_mu_strictly_decreasing_in_upsilon(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            counts = rng.integers(10, 10_000, size=4)
            stats = LabelStats(counts)
            grid = np.linspace(0.5, 4.0, 12)
            mus = np.array(
                [compute_margins(stats, tau=10.0, upsilon=u).mu_k for u in grid]
            )
            assert np.all(np.diff(mus, axis=0) < 0), f"counts={counts}"

    def test_minority_class_has_small_return_offset(self):
        """For a minority class with upsilon=1, rho_k0 < rho_0k (mu < 1)."""
        stats = LabelStats([90, 10])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        assert m.mu_k[1] < 1.0
        assert m.rho_k0[1] < m.rho_0k[1]

    def test_doubled_counts_match_formula_exactly(self):
        """compute_margins on doubled stats equals the closed forms at 2N."""
        counts = np.array([700, 250, 50])
        doubled = LabelStats(2 * counts)
        m = compute_margins(doubled, tau=10.0, upsilon=1.0)
        n = float(2 * counts.sum())
        n_k = (2 * counts).astype(float)
        p_k = n_k / n
        rho_0k = 10.0 * np.sqrt(n - n_k) / n_k
        mu_k = p_k * np.sqrt(n_k) / (1.0 * (n - n_k) - p_k * np.sqrt(n - n_k))
        np.testing.assert_allclose(m.rho_0k, rho_0k, rtol=1e-12)
        np.testing.assert_allclose(m.mu_k, mu_k, rtol=1e-12)
        np.testing.assert_allclose(m.rho_k0, mu_k * rho_0k, rtol=1e-12)


class TestVerifyCorollaryRatios:
    def test_computed_margins_pass(self):
        stats = LabelStats([888, 77, 35])
        m = compute_margins(stats, tau=3.0, upsilon=1.3)
        ok, dev = verify_corollary_ratios(m, stats)
        assert ok and dev < 1e-12

    def test_one_percent_perturbation_detected(self):
        stats = LabelStats([90, 10])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        rho = m.rho_0k.copy()
        rho[0] *= 1.01
        perturbed = MarginOffsets(rho_0k=rho, rho_k0=m.rho_k0.copy())
        ok, dev = verify_corollary_ratios(perturbed, stats)
        assert not ok
        assert 5e-3 < dev < 2e-2

    def test_uniform_stats_equal_offsets_pass(self):
        stats = LabelStats([400, 400, 400])
        m = compute_margins(stats, tau=1.0, upsilon=1.0)
        ok, dev = verify_corollary_ratios(m, stats)
        assert ok and m.rho_0k.std() == 0


class TestMarginsCsv:
    def test_round_trip(self, tmp_path):
        stats = LabelStats([9_000, 700, 300])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        path = tmp_path / "margins.csv"
        write_margins_csv(m, stats, path)
        back, back_stats = read_margins_csv(path)
        np.testing.assert_allclose(back.rho_0k, m.rho_0k, rtol=1e-10)
        np.testing.assert_allclose(back.rho_k0, m.rho_k0, rtol=1e-10)
        np.testing.assert_allclose(back.mu_k, m.mu_k, rtol=1e-10)
        assert verify_corollary_ratios(back, back_stats)[0]
        np.testing.assert_array_equal(back_stats.n_per_class, stats.n_per_class)

    def test_negative_offset_rejected(self, tmp_path):
        stats = LabelStats([90, 10])
        m = compute_margins(stats)
        path = tmp_path / "margins.csv"
        write_margins_csv(m, stats, path)
        text = path.read_text().replace(
            f"{m.rho_0k[0]:.12g}", f"{-m.rho_0k[0]:.12g}"
        )
        path.write_text(text)
        with pytest.raises(FormatError, match="invariant"):
            read_margins_csv(path)

    def test_manual_override_loads_with_warning_flag(self, tmp_path):
        """Hand-edited allocations violating the optimal ratios stay loadable,
        so ablations can reuse the file format; the ratio check finds them
        non-optimal."""
        stats = LabelStats([90, 10])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        hand = MarginOffsets(
            rho_0k=np.array([1.0, 1.0]),  # deliberately uniform
            rho_k0=m.mu_k * np.array([1.0, 1.0]),
        )
        path = tmp_path / "margins.csv"
        write_margins_csv(hand, stats, path)
        back, back_stats = read_margins_csv(path)
        assert not verify_corollary_ratios(back, back_stats)[0]
        np.testing.assert_allclose(back.rho_0k, [1.0, 1.0], rtol=1e-10)

    def test_offsets_whose_ratio_underflows_rejected(self, tmp_path):
        """rho_k0/rho_0k = 1e-600 is 0 in float64, and so is the stored mu_k.
        Before, 0/0 raised a RuntimeWarning and the check let the row pass."""
        path = tmp_path / "m.csv"
        path.write_text("class_index,n_pixels,p_k,mu_k,rho_0k,rho_k0\n"
                        "0,90,0.9,0,1e+300,1e-300\n1,10,0.1,0,1e+300,1e-300\n")
        with pytest.raises(FormatError, match="^margins CSV violates a structural invariant: "
                                              "mu_k != rho_k0/rho_0k$"):
            read_margins_csv(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError, match="header"):
            read_margins_csv(path)

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("class_index,n_pixels,p_k,mu_k,rho_0k,rho_k0\n")
        with pytest.raises(StatsError, match="empty"):
            read_margins_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        stats = LabelStats([90, 10])
        m = compute_margins(stats)
        path = tmp_path / "margins.csv"
        write_margins_csv(m, stats, path)
        text = path.read_text().replace(f"{m.mu_k[0]:.12g}", "nan")
        path.write_text(text)
        with pytest.raises(FormatError, match="non-finite"):
            read_margins_csv(path)


class TestMarginOffsetsInvariants:
    def test_positivity_enforced(self):
        with pytest.raises(ConfigError, match="positive"):
            MarginOffsets(rho_0k=np.array([1.0, -1.0]), rho_k0=np.array([1.0, 1.0]))
