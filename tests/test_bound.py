"""Tests for the generalization-gap evaluation and its optimality checks."""
import math

import numpy as np
import pytest
from mpmath import mp, mpf, log as mplog, sqrt as mpsqrt

from margincal.bound import (
    BoundConfig,
    allocation_epsilon,
    brute_force_allocation,
    confidence_term,
    evaluate_epsilon,
    reparam_identity_check,
    scaling_check,
)
from margincal.errors import ConfigError, VacuousBoundError
from margincal.margins import MarginOffsets, compute_margins
from margincal.segdata import LabelStats

mp.dps = 50

# frozen 50-digit oracle values (see eps_oracle below) for the valid
# two-class reference config: counts (9e7, 1e7), tau=10, upsilon=1,
# M=64, eta=0.05, C=1
REF_SIGMA = 0.02808495672493192
REF_EPS_PER_CLASS = (16277.951555124518, 439504.69198836198)
REF_EPS = 227891.32177174325

# ten classes of 1e7 pixels, tau=3000, upsilon=1, M=2^16, eta=0.05, C=10
GOLDEN_TEN_CLASS_EPS = 3559051.699806172


def eps_oracle(counts, tau, upsilon, m_pixels, eta, c_theta):
    """50-digit line-by-line evaluation of the gap formula."""
    n = mpf(sum(counts))
    k = len(counts)
    rows = []
    for nk in counts:
        nk = mpf(nk)
        p = nk / n
        mu = p * mpsqrt(nk) / (mpf(upsilon) * (n - nk) - p * mpsqrt(n - nk))
        rho0 = mpf(tau) * mpsqrt(n - nk) / nk
        rows.append((mu, rho0, mu * rho0))
    rho_max = max(max(r0, rk0) for (_, r0, rk0) in rows)
    sigma = rho_max / (4 * k) * mpsqrt(2 * m_pixels * mplog(2 * k / mpf(eta)))
    f_cal = mpf(c_theta) + sigma
    terms = []
    for nk, (mu, r0, _) in zip(counts, rows):
        nk = mpf(nk)
        denom = nk * r0 / (4 * k * f_cal) - mpsqrt(n - nk)
        numer = mpsqrt(n - nk) + mpsqrt(nk) / mu
        terms.append((float(numer / denom), float(denom)))
    return float(sigma), terms


def reference_config(c_theta=1.0):
    stats = LabelStats([90_000_000, 10_000_000])
    margins = compute_margins(stats, tau=10.0, upsilon=1.0)
    return BoundConfig(stats=stats, margins=margins, m_pixels=64, eta=0.05,
                       c_theta=c_theta)


class TestEvaluateEpsilon:
    def test_matches_scalar_oracle(self):
        result = evaluate_epsilon(reference_config())
        sigma, terms = eps_oracle([90_000_000, 10_000_000], 10, 1, 64, 0.05, 1)
        assert result.sigma == pytest.approx(sigma, rel=1e-13)
        for k, (eps_k, _) in enumerate(terms):
            assert result.eps_per_class[k] == pytest.approx(eps_k, rel=1e-12)
        assert result.eps == pytest.approx(sum(e for e, _ in terms) / 2, rel=1e-12)

    def test_frozen_reference_values(self):
        result = evaluate_epsilon(reference_config())
        assert result.sigma == pytest.approx(REF_SIGMA, rel=1e-12)
        np.testing.assert_allclose(result.eps_per_class, REF_EPS_PER_CLASS,
                                   rtol=1e-12)
        assert result.eps == pytest.approx(REF_EPS, rel=1e-12)
        assert result.valid_per_class.all()

    def test_tiny_dataset_is_vacuous_for_every_class(self):
        """At N=100 the denominators are negative for both classes, so the
        bound is uninformative and evaluation refuses to average it."""
        stats = LabelStats([90, 10])
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        cfg = BoundConfig(stats=stats, margins=margins, m_pixels=64, eta=0.05,
                          c_theta=1.0)
        # oracle confirms the sign of each denominator
        _, terms = eps_oracle([90, 10], 10, 1, 64, 0.05, 1)
        assert all(denom < 0 for _, denom in terms)
        with pytest.raises(VacuousBoundError, match="vacuous"):
            evaluate_epsilon(cfg)

    def test_ten_class_default_tau_is_vacuous(self):
        """Ten classes of 1e7 pixels with tau=10 and C=10: the complexity
        total swamps the offsets, so every denominator is negative."""
        stats = LabelStats([10_000_000] * 10)
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        cfg = BoundConfig(stats=stats, margins=margins, m_pixels=2**16,
                          eta=0.05, c_theta=10.0)
        _, terms = eps_oracle([10_000_000] * 10, 10, 1, 2**16, 0.05, 10)
        assert all(denom < 0 for _, denom in terms)
        with pytest.raises(VacuousBoundError):
            evaluate_epsilon(cfg)

    def test_ten_class_golden_value(self):
        """The same shape with tau=3000 is valid; frozen golden gap value."""
        stats = LabelStats([10_000_000] * 10)
        margins = compute_margins(stats, tau=3000.0, upsilon=1.0)
        cfg = BoundConfig(stats=stats, margins=margins, m_pixels=2**16,
                          eta=0.05, c_theta=10.0)
        result = evaluate_epsilon(cfg)
        assert result.valid_per_class.all()
        assert result.eps > 0 and math.isfinite(result.eps)
        assert result.eps == pytest.approx(GOLDEN_TEN_CLASS_EPS, rel=1e-12)

    def test_mixed_validity_flags(self):
        """A hand-built allocation can be valid for one class and vacuous for
        another; the vacuous class is flagged, not dropped silently."""
        stats = LabelStats([90_000_000, 10_000_000])
        margins = MarginOffsets(
            rho_0k=np.array([1.0, 0.001]),
            rho_k0=np.array([0.5, 0.0005]),
        )
        cfg = BoundConfig(stats=stats, margins=margins, m_pixels=64, eta=0.05,
                          c_theta=1.0)
        result = evaluate_epsilon(cfg)
        np.testing.assert_array_equal(result.valid_per_class, [True, False])
        # the average keeps 1/K normalization but only counts valid terms
        assert result.eps == pytest.approx(result.eps_per_class[0] / 2, rel=1e-14)
        assert result.eps_per_class[1] < 0  # visible, flagged vacuous

    def test_huge_mu_leaves_only_background_numerator(self):
        """As mu grows the sqrt(N_k)/mu term vanishes from the numerator."""
        stats = LabelStats([90_000_000, 10_000_000])
        base = compute_margins(stats, tau=10.0, upsilon=1.0)
        f_cal = 1.0 + confidence_term(base.rho_max, 2, 64, 0.05)
        eps_k, valid = allocation_epsilon(stats, base.rho_0k, np.full(2, 1e12),
                                          f_cal)
        assert valid.all()
        n = float(stats.n_total)
        n_k = stats.n_per_class.astype(float)
        rest = np.sqrt(n - n_k)
        denom = n_k * base.rho_0k / (8.0 * f_cal) - rest
        np.testing.assert_allclose(eps_k, rest / denom, rtol=1e-9)

    def test_config_validation(self):
        stats = LabelStats([90, 10])
        margins = compute_margins(stats)
        with pytest.raises(ConfigError):
            BoundConfig(stats=stats, margins=margins, m_pixels=64, eta=1.5,
                        c_theta=1.0)
        with pytest.raises(ConfigError):
            BoundConfig(stats=stats, margins=margins, m_pixels=0, eta=0.05,
                        c_theta=1.0)
        for c_theta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="^c_theta must be finite and non-negative$"):
                BoundConfig(stats=stats, margins=margins, m_pixels=64, eta=0.05,
                            c_theta=c_theta)


class TestConfidenceTerm:
    def test_decreasing_in_eta_increasing_in_m(self):
        etas = np.linspace(0.01, 0.99, 25)
        values = [confidence_term(1.0, 3, 256, float(e)) for e in etas]
        assert np.all(np.diff(values) < 0)
        ms = [2**p for p in range(1, 16)]
        values = [confidence_term(1.0, 3, m, 0.05) for m in ms]
        assert np.all(np.diff(values) > 0)

    def test_scalar_formula(self):
        expected = 0.25 / (4 * 3) * math.sqrt(2 * 100 * math.log(6 / 0.05))
        assert confidence_term(0.25, 3, 100, 0.05) == pytest.approx(expected,
                                                                    rel=1e-15)


class TestScalingCheck:
    def test_no_op_at_c_equal_one(self):
        cfg = reference_config()
        result = scaling_check(cfg, 1.0)
        assert result.eps_before == result.eps_after
        assert result.compared and result.decreased is False

    def test_gap_strictly_decreases_with_growth(self):
        cfg = reference_config()
        for c in (2.0, 4.0, 8.0, 10.0):
            result = scaling_check(cfg, c)
            assert result.compared
            assert result.decreased, f"c={c}"
            assert result.eps_after < result.eps_before

    def test_monotone_over_scale_sweep(self):
        cfg = reference_config()
        values = [scaling_check(cfg, c).eps_after for c in (2.0, 4.0, 8.0, 10.0)]
        assert np.all(np.diff(values) < 0)

    def test_vacuous_side_skips_comparison(self):
        stats = LabelStats([900, 100])
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        cfg = BoundConfig(stats=stats, margins=margins, m_pixels=64, eta=0.05,
                          c_theta=1.0)
        result = scaling_check(cfg, 2.0)
        assert not result.compared and result.decreased is None

    def test_c_below_one_rejected(self):
        with pytest.raises(ConfigError):
            scaling_check(reference_config(), 0.5)


# (counts, tau, upsilon, M, eta, C) of criterion 10 (256,000 px at 0.9/0.1)
# and of criterion 06
CLOSED_FORM_CASES = {
    "criterion10": ((230_400, 25_600), 10.0, 1.0, 256, 0.05, 0.05),
    "criterion06": ((90_000_000, 10_000_000), 10.0, 1.0, 64, 0.05, 1.0),
}


def closed_form_eps(counts, tau, upsilon, f_cal, scale=1.0):
    """eps_k = upsilon*sqrt(N-N_k) / (P_k*(sqrt(c)*tau/(4*K*F) - 1)): the gap
    term at counts (c*N, c*N_k) with offsets computed at (N, N_k)."""
    n, k = sum(counts), len(counts)
    return [upsilon * math.sqrt(n - nk) * n / nk
            / (math.sqrt(scale) * tau / (4 * k * f_cal) - 1.0) for nk in counts]


class TestClosedForm:
    """The gap term in closed form, an oracle that shares no arithmetic with
    ``allocation_epsilon``; F = C + sigma comes from the scalar sigma formula."""

    @staticmethod
    def config(case, c_theta=None):
        counts, tau, upsilon, m_pixels, eta, c = CLOSED_FORM_CASES[case]
        stats = LabelStats(list(counts))
        margins = compute_margins(stats, tau=tau, upsilon=upsilon)
        cfg = BoundConfig(stats=stats, margins=margins, m_pixels=m_pixels, eta=eta,
                          c_theta=c if c_theta is None else c_theta)
        k = len(counts)
        sigma = margins.rho_max / (4 * k) * math.sqrt(2 * m_pixels * math.log(2 * k / eta))
        return cfg, counts, tau, upsilon, cfg.c_theta + sigma

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_evaluate_epsilon(self, case):
        cfg, counts, tau, upsilon, f_cal = self.config(case)
        assert tau > 4 * len(counts) * f_cal
        result = evaluate_epsilon(cfg)
        want = closed_form_eps(counts, tau, upsilon, f_cal)
        assert result.valid_per_class.all()
        np.testing.assert_allclose(result.eps_per_class, want, rtol=1e-12, atol=0)
        assert result.eps == pytest.approx(sum(want) / len(counts), rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_scaling_check(self, case):
        cfg, counts, tau, upsilon, f_cal = self.config(case)
        k = len(counts)
        for c in (2.0, 4.0, 8.0, 10.0):
            result = scaling_check(cfg, c)
            assert result.compared and result.decreased
            assert result.eps_before == pytest.approx(
                sum(closed_form_eps(counts, tau, upsilon, f_cal)) / k, rel=1e-12, abs=0)
            assert result.eps_after == pytest.approx(
                sum(closed_form_eps(counts, tau, upsilon, f_cal, c)) / k, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
    def test_vacuous_exactly_when_tau_at_most_4kf(self, case):
        """Raising C until tau <= 4KF makes every class vacuous at once."""
        _, counts, tau, _, f_cal = self.config(case)
        k = len(counts)
        sigma = f_cal - CLOSED_FORM_CASES[case][5]
        just_valid = tau / (4 * k) - sigma - 1e-6
        cfg, *_ = self.config(case, c_theta=just_valid)
        assert evaluate_epsilon(cfg).valid_per_class.all()
        cfg, *_ = self.config(case, c_theta=tau / (4 * k) - sigma + 1e-6)
        with pytest.raises(VacuousBoundError):
            evaluate_epsilon(cfg)


class TestBruteForceAllocation:
    def test_two_class_grid_dominated_by_closed_form(self):
        stats = LabelStats([90_000_000, 10_000_000])
        result = brute_force_allocation(stats, m_pixels=64, eta=0.05,
                                        c_theta=1.0, tau=10.0, upsilon=1.0,
                                        grid_resolution=1000)
        assert result.n_grid_points == 1000
        assert result.closed_is_min
        assert result.closed_eps <= result.grid_eps * (1 + 1e-9)

    def test_three_class_grid_dominated_by_closed_form(self):
        stats = LabelStats([80_000_000, 15_000_000, 5_000_000])
        result = brute_force_allocation(stats, m_pixels=64, eta=0.05,
                                        c_theta=1.0, tau=20.0, upsilon=1.0,
                                        grid_resolution=100)
        assert result.closed_is_min

    def test_exact_closed_form_point_self_consistency(self):
        """Evaluating the closed-form allocation directly reproduces the
        search's own closed-form value to 1e-12."""
        stats = LabelStats([90_000_000, 10_000_000])
        result = brute_force_allocation(stats, m_pixels=64, eta=0.05,
                                        c_theta=1.0, tau=10.0, upsilon=1.0,
                                        grid_resolution=100)
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        sigma = confidence_term(margins.rho_max, 2, 64, 0.05)
        eps_k, valid = allocation_epsilon(stats, result.closed_rho_0k,
                                          margins.mu_k, 1.0 + sigma)
        assert valid.all()
        direct = float(eps_k.sum() / 2)
        assert direct == pytest.approx(result.closed_eps, rel=1e-12)

    def test_all_grid_points_vacuous_raises(self):
        """An extreme split leaves the single midpoint grid allocation
        vacuous for the minority class even though the closed form is valid."""
        stats = LabelStats([99_900_000, 100_000])
        with pytest.raises(VacuousBoundError, match="grid"):
            brute_force_allocation(stats, m_pixels=1, eta=0.05, c_theta=1.0,
                                   tau=39.0, upsilon=1.0, grid_resolution=1)

    def test_unsupported_k_rejected(self):
        stats = LabelStats([400, 300, 200, 100])
        with pytest.raises(ConfigError, match="K in"):
            brute_force_allocation(stats, m_pixels=64, eta=0.05, c_theta=1.0,
                                   tau=100.0, upsilon=1.0, grid_resolution=3)


class TestEpsilonMonotonicity:
    def test_eps_k_decreasing_in_rho_while_valid(self):
        """With mu fixed and the denominator positive, a larger offset budget
        can only shrink the per-class gap."""
        stats = LabelStats([90_000_000, 10_000_000])
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        sigma = confidence_term(margins.rho_max, 2, 64, 0.05)
        f_cal = 1.0 + sigma
        scales = np.linspace(1.0, 3.0, 15)
        values = []
        for s in scales:
            eps_k, valid = allocation_epsilon(stats, margins.rho_0k * s,
                                              margins.mu_k, f_cal)
            assert valid.all()
            values.append(eps_k.copy())
        values = np.array(values)
        assert np.all(np.diff(values, axis=0) < 0)


class TestReparamIdentity:
    def test_worked_two_class_stats(self):
        stats = LabelStats([90, 10])
        assert reparam_identity_check(stats, 1.0)

    def test_random_stats_and_upsilons(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            k = int(rng.integers(2, 8))
            counts = rng.integers(10, 1_000_000, size=k)
            upsilon = float(rng.uniform(0.5, 2.0))
            stats = LabelStats(counts)
            assert reparam_identity_check(stats, upsilon), (counts, upsilon)

    def test_half_upsilon(self):
        rng = np.random.default_rng(56)
        counts = rng.integers(100, 10_000, size=5)
        assert reparam_identity_check(LabelStats(counts), 0.5)

    def test_deliberate_mismatch_detected(self):
        stats = LabelStats([90, 10])
        r_wrong = stats.n_total * 1.0 + 1.0
        assert not reparam_identity_check(stats, 1.0, r=r_wrong)
