"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The heavyweight criteria (the toy ablation and the distribution
check) train real models and take a few minutes combined.
"""
import math
import time

import numpy as np

from margincal.bound import (
    BoundConfig,
    brute_force_allocation,
    evaluate_epsilon,
    reparam_identity_check,
    scaling_check,
)
from margincal.gradcheck import check_loss_gradient
from margincal.losses import (
    LOSS_NAMES,
    ScoreBatch,
    calibrated_log_loss,
    rho_calibrated_log_loss,
)
from margincal.margins import compute_margins
from margincal.metrics import lower_bound_report
from margincal.segdata import (
    FEATURE_DIM,
    LabelStats,
    MaskBatch,
    SynthConfig,
    accumulate_stats,
    generate_synthetic,
)
from margincal.trainer import PixelMLP, TrainConfig, evaluate, forward, train

from test_margins import margins_oracle


def report(index, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {index:02d} [{tag}] {description} {detail}".rstrip())
    assert ok, f"criterion {index}: {description} {detail}"


class TestAcceptance:
    def test_01_margin_offset_fidelity(self):
        started = time.perf_counter()
        stats = LabelStats.from_counts([90, 10])
        m = compute_margins(stats, tau=10.0, upsilon=1.0)
        oracle = margins_oracle([90, 10], 10, 1)
        worst = 0.0
        for k, (mu, rho0, rhok0) in enumerate(oracle):
            worst = max(
                worst,
                abs(m.mu_k[k] - mu),
                abs(m.rho_0k[k] - rho0),
                abs(m.rho_k0[k] - rhok0),
            )
        ratio_dev = abs(m.rho_0k[0] / m.rho_0k[1] - 1.0 / 27.0)
        elapsed = time.perf_counter() - started
        report(
            1,
            "offset recurrence matches the scalar oracle",
            worst <= 1e-5 and ratio_dev <= 1e-12 and elapsed < 1.0,
            f"(max abs dev {worst:.2e}, ratio dev {ratio_dev:.2e}, {elapsed:.2f}s)",
        )

    def test_02_loss_bound_chain(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        n = 1_000_000
        lam = rng.uniform(-10.0, 10.0, size=n)
        rho = rng.uniform(1e-3, 10.0, size=n)
        indicator = (lam <= 0).astype(float)
        phi = np.clip(1.0 - lam / rho, 0.0, 1.0)
        phi_bar = rho_calibrated_log_loss(lam, rho)
        violations = int(np.sum(indicator > phi)) + int(np.sum(phi > phi_bar))
        at_rho = np.max(np.abs(rho_calibrated_log_loss(rho, rho) - 1.0))
        elapsed = time.perf_counter() - started
        report(
            2,
            "indicator <= margin loss <= smoothed loss over 1e6 pairs",
            violations == 0 and at_rho <= 1e-12 and elapsed < 5.0,
            f"({violations} violations, |phi_bar(rho)-1| {at_rho:.1e}, {elapsed:.2f}s)",
        )

    def test_03_gradient_correctness(self):
        started = time.perf_counter()
        worst = {}
        for name in LOSS_NAMES:
            result = check_loss_gradient(name, seed=7, n_batches=50,
                                         n_pixels=16, k_classes=3, h=1e-5)
            worst[name] = result.max_rel_err
        elapsed = time.perf_counter() - started
        overall = max(worst.values())
        report(
            3,
            "finite differences confirm every loss gradient",
            overall <= 1e-4 and elapsed < 30.0,
            f"(max rel err {overall:.2e}, {elapsed:.1f}s)",
        )

    def test_04_empirical_bound_sandwich(self):
        started = time.perf_counter()
        violations = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            scores = rng.normal(size=(1000, 3))
            labels = rng.integers(0, 3, size=1000).astype(np.uint8)
            labels[:3] = np.arange(3)
            mask = MaskBatch(labels=labels, width=1000, height=1, n_images=1)
            stats = accumulate_stats(mask, 3)
            margins = compute_margins(stats, tau=2.0, upsilon=1.0)
            rep = lower_bound_report(ScoreBatch(scores=scores), mask, margins,
                                     stats)
            pr = rep.present
            if (
                np.any(rep.p_k0[pr] > rep.ell_k0[pr])
                or np.any(rep.p_0k[pr] > rep.ell_0k[pr])
                or np.any(rep.iou_lower_per_class[pr] > rep.iou_per_class[pr])
            ):
                violations += 1
        elapsed = time.perf_counter() - started
        report(
            4,
            "lower-bound sandwich holds on 100 random batches",
            violations == 0 and elapsed < 10.0,
            f"({violations} violations, {elapsed:.1f}s)",
        )

    def test_05_allocation_optimality(self):
        started = time.perf_counter()
        two = brute_force_allocation(
            LabelStats.from_counts([90_000_000, 10_000_000]),
            m_pixels=64, eta=0.05, c_theta=1.0, tau=10.0, upsilon=1.0,
            grid_resolution=1000,
        )
        three = brute_force_allocation(
            LabelStats.from_counts([80_000_000, 15_000_000, 5_000_000]),
            m_pixels=64, eta=0.05, c_theta=1.0, tau=20.0, upsilon=1.0,
            grid_resolution=100,
        )
        elapsed = time.perf_counter() - started
        ok = (
            two.closed_is_min
            and three.closed_is_min
            and two.closed_eps <= two.grid_eps * (1 + 1e-9)
            and three.closed_eps <= three.grid_eps * (1 + 1e-9)
            and elapsed < 120.0
        )
        report(
            5,
            "closed-form allocation dominates the search grids",
            ok,
            f"(K=2 gap {two.grid_eps - two.closed_eps:.3g}, "
            f"K=3 gap {three.grid_eps - three.closed_eps:.3g}, {elapsed:.1f}s)",
        )

    def test_06_gap_shrinks_with_data(self):
        started = time.perf_counter()
        stats = LabelStats.from_counts([90_000_000, 10_000_000])
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        cfg = BoundConfig(stats=stats, margins=margins, m_pixels=64, eta=0.05,
                          c_theta=1.0)
        base = evaluate_epsilon(cfg).eps
        values = [scaling_check(cfg, c) for c in (2.0, 4.0, 8.0, 10.0)]
        seq = [base] + [v.eps_after for v in values]
        decreasing = all(v.compared and v.decreased for v in values) and all(
            b < a for a, b in zip(seq, seq[1:])
        )
        elapsed = time.perf_counter() - started
        report(
            6,
            "gap strictly decreases under proportional dataset growth",
            decreasing and elapsed < 1.0,
            f"(eps {', '.join(f'{v:.0f}' for v in seq)}, {elapsed:.2f}s)",
        )

    def test_07_reparameterization_identity(self):
        started = time.perf_counter()
        rng = np.random.default_rng(123)
        ok = True
        for _ in range(100):
            k = int(rng.integers(2, 9))
            counts = rng.integers(10, 2_000_000, size=k)
            upsilon = float(rng.uniform(0.3, 3.0))
            ok &= reparam_identity_check(LabelStats.from_counts(counts), upsilon)
        elapsed = time.perf_counter() - started
        report(
            7,
            "both closed forms of mu agree on 100 random configurations",
            ok and elapsed < 1.0,
            f"({elapsed:.2f}s)",
        )

    def test_08_linear_time_loss(self):
        started = time.perf_counter()
        rng = np.random.default_rng(0)
        counts = [800, 40, 30, 25, 35, 25, 20, 25]
        margins = compute_margins(LabelStats.from_counts(counts), tau=2.0)
        sizes = [2**p for p in range(12, 21)]
        cases = []
        for n in sizes:
            scores = rng.normal(size=(n, 8))
            labels = rng.integers(0, 8, size=n).astype(np.uint8)
            mask = MaskBatch(labels=labels, width=n, height=1, n_images=1)
            cases.append((ScoreBatch(scores=scores), mask))
            calibrated_log_loss(*cases[-1], margins)  # warm-up
        # every round times each size once, and each size takes its median
        # over the rounds, so a slow phase of the host lands on all sizes alike
        times = [[] for _ in sizes]
        for _ in range(5):
            for (batch, mask), reps in zip(cases, times):
                t0 = time.perf_counter()
                calibrated_log_loss(batch, mask, margins)
                reps.append(time.perf_counter() - t0)
        medians = [float(np.median(reps)) for reps in times]
        x = np.asarray(sizes, dtype=float)
        t = np.asarray(medians)
        slope, intercept = np.polyfit(x, t, 1)
        fitted = slope * x + intercept
        r2 = 1.0 - np.sum((t - fitted) ** 2) / np.sum((t - t.mean()) ** 2)
        elapsed = time.perf_counter() - started
        report(
            8,
            "loss evaluation time is linear in the pixel count",
            r2 >= 0.98,
            f"(R^2 {r2:.4f}, 2^20 takes {medians[-1]*1e3:.1f} ms, {elapsed:.1f}s)",
        )

    def test_09_toy_ablation_direction(self):
        """Margin calibration matches or beats plain cross-entropy on the
        imbalanced toy benchmark, and helps at least one minority class."""
        started = time.perf_counter()
        data_cfg = SynthConfig(seed=1, width=64, height=64, n_images=200,
                               k_classes=3, target_ratios=(0.90, 0.07, 0.03),
                               noise_sigma=0.1)
        feats, masks = generate_synthetic(data_cfg)
        val_cfg = SynthConfig(seed=2, width=64, height=64, n_images=50,
                              k_classes=3, target_ratios=(0.90, 0.07, 0.03),
                              noise_sigma=0.1)
        vfeats, vmasks = generate_synthetic(val_cfg)
        stats = accumulate_stats(masks, 3)
        margins = compute_margins(stats, tau=10.0, upsilon=1.0)
        # data hygiene: offsets come from the training split alone
        recomputed = compute_margins(accumulate_stats(masks, 3), tau=10.0,
                                     upsilon=1.0)
        np.testing.assert_array_equal(margins.rho_0k, recomputed.rho_0k)

        means = {}
        class_means = {}
        for loss in ("margin_calibration", "cross_entropy"):
            mious, per_class = [], []
            for seed in range(5):
                cfg = TrainConfig(loss_name=loss, epochs=100, batch_images=50,
                                  learning_rate=0.1, momentum=0.9, seed=seed,
                                  eval_every=0)
                model = PixelMLP.init(FEATURE_DIM, 16, 3, seed=seed)
                model, _ = train(model, feats, masks, cfg, margins=margins)
                rep = evaluate(model, vfeats, vmasks)
                mious.append(rep.miou)
                per_class.append(rep.iou_per_class)
            means[loss] = float(np.mean(mious))
            class_means[loss] = np.mean(np.asarray(per_class), axis=0)
        elapsed = time.perf_counter() - started
        mc, ce = means["margin_calibration"], means["cross_entropy"]
        minority_gain = np.any(
            class_means["margin_calibration"][1:] >= class_means["cross_entropy"][1:]
        )
        report(
            9,
            "toy ablation: calibrated margins at least match cross-entropy",
            mc >= ce - 0.005 and minority_gain and elapsed < 300.0,
            f"(margin {mc:.4f} vs CE {ce:.4f}, minority IoU "
            f"{np.round(class_means['margin_calibration'][1:], 3)} vs "
            f"{np.round(class_means['cross_entropy'][1:], 3)}, {elapsed:.0f}s)",
        )

    def test_10_distribution_level_sanity(self):
        """Treating the generator as the data distribution, the held-out mean
        IoU stays above the train lower bound minus the (valid) gap in at
        least 95% of seeded trials.

        At this criterion's sizes eps exceeds 100, so that check holds for
        any model.  A second check, at label counts only, can fail: with
        N_k = 5e7 for both classes, tau = 1e6, upsilon = 0.05, M = 1,
        eta = 0.05 and C = 0.05, rho_0k = tau*sqrt(N-N_k)/N_k = 141.42 is
        rho_max (mu_k = 1.4e-3, so rho_k0 = 0.2), sigma = 141.42/8 *
        sqrt(2*ln 80) = 52.33, F = C + sigma = 52.38 and tau/(4KF) = 2386.3.
        The closed form eps_k = upsilon*sqrt(N-N_k) / (P_k*(tau/(4KF) - 1))
        = 0.05*7071.07 / (0.5*2385.3) = 0.296 for both classes, so the gap
        must be valid, below 1 and equal to the closed form to 1e-12.
        """
        started = time.perf_counter()
        counts, tau, upsilon, m_pixels, eta, c_theta = (
            [50_000_000, 50_000_000], 1e6, 0.05, 1, 0.05, 0.05)
        stats = LabelStats.from_counts(counts)
        margins = compute_margins(stats, tau=tau, upsilon=upsilon)
        large = evaluate_epsilon(BoundConfig(stats=stats, margins=margins, m_pixels=m_pixels,
                                             eta=eta, c_theta=c_theta))
        n, k = sum(counts), len(counts)
        f_cal = c_theta + margins.rho_max / (4 * k) * math.sqrt(
            2 * m_pixels * math.log(2 * k / eta))
        closed = [upsilon * math.sqrt(n - nk) / (nk / n * (tau / (4 * k * f_cal) - 1.0))
                  for nk in counts]
        assert large.all_valid, "label-count gap must be non-vacuous"
        assert large.eps < 1.0, f"label-count gap {large.eps} must be below 1"
        np.testing.assert_allclose(large.eps_per_class, closed, rtol=1e-12, atol=0)

        successes = 0
        trials = 20
        eps = []
        for trial in range(trials):
            train_cfg = SynthConfig(seed=1000 + trial, width=16, height=16,
                                    n_images=1000, k_classes=2,
                                    target_ratios=(0.9, 0.1), noise_sigma=0.1)
            feats, masks = generate_synthetic(train_cfg)
            stats = accumulate_stats(masks, 2)
            margins = compute_margins(stats, tau=10.0, upsilon=1.0)
            cfg = BoundConfig(stats=stats, margins=margins, m_pixels=256,
                              eta=0.05, c_theta=0.05)
            result = evaluate_epsilon(cfg)
            assert result.all_valid, f"trial {trial}: gap must be non-vacuous"
            eps.append(result.eps)

            tc = TrainConfig(loss_name="margin_calibration", epochs=5,
                             batch_images=250, learning_rate=0.1, seed=trial,
                             eval_every=0)
            model = PixelMLP.init(FEATURE_DIM, 16, 2, seed=trial)
            model, _ = train(model, feats, masks, tc, margins=margins)

            train_rep = lower_bound_report(forward(model, feats), masks,
                                           margins, stats)
            heldout_cfg = SynthConfig(seed=5000 + trial, width=16, height=16,
                                      n_images=400, k_classes=2,
                                      target_ratios=(0.9, 0.1),
                                      noise_sigma=0.1)
            hfeats, hmasks = generate_synthetic(heldout_cfg)
            heldout = evaluate(model, hfeats, hmasks)
            if heldout.miou >= train_rep.miou_lower - result.eps:
                successes += 1
        elapsed = time.perf_counter() - started
        report(
            10,
            "held-out mean IoU respects the train bound minus the gap",
            successes >= int(np.ceil(0.95 * trials)),
            f"({successes}/{trials} trials, eps {min(eps):.4g}..{max(eps):.4g}, "
            f"label-count eps {large.eps:.3g}, {elapsed:.0f}s)",
        )
