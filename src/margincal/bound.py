"""Numeric evaluation of the IoU generalization-gap bound.

For a dataset of N pixels with N_k per class, margin-offsets (rho_0k, rho_k0),
per-image pixel count M, confidence eta and a user-supplied hypothesis
complexity scalar C, the gap contribution of class k is

    eps_k = (sqrt(N-N_k) + sqrt(N_k)/mu_k) / (N_k*rho_0k/(4*K*F) - sqrt(N-N_k))

with F = C + sigma and sigma = rho_max/(4K) * sqrt(2*M*ln(2K/eta)).  A class
whose denominator is non-positive gets a vacuous (flagged) bound; the overall
gap averages the valid terms over K.  The natural logarithm is used in sigma.

With offsets from ``margins.compute_margins``, N_k*rho_0k = tau*sqrt(N-N_k)
and sqrt(N_k)/mu_k = upsilon*(N-N_k)/P_k - sqrt(N-N_k) with P_k = N_k/N, so
the term has the closed form

    eps_k = upsilon*sqrt(N-N_k) / (P_k*(tau/(4*K*F) - 1)),

and the bound is valid exactly when tau > 4*K*F, for every class and every
N.  With the same offsets at counts (c*N, c*N_k), as in ``scaling_check``,
tau becomes sqrt(c)*tau in that denominator.  The tests use both as oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, VacuousBoundError
from .margins import MarginOffsets, compute_margins
from .segdata import LabelStats, write_csv


@dataclass
class BoundConfig:
    """Inputs to the gap evaluation."""

    stats: LabelStats
    margins: MarginOffsets
    m_pixels: int
    eta: float
    c_theta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < 1.0):
            raise ConfigError("eta must lie in (0, 1)")
        if self.m_pixels < 1:
            raise ConfigError("m_pixels must be at least 1")
        if self.c_theta < 0:
            raise ConfigError("c_theta must be non-negative")
        if self.stats.k_classes != self.margins.k_classes:
            raise ConfigError("stats and margins disagree on the number of classes")

    @property
    def k_classes(self) -> int:
        return self.stats.k_classes

    def confidence(self) -> tuple[float, float]:
        """sigma and the complexity total F = C + sigma."""
        sigma = confidence_term(self.margins.rho_max, self.k_classes, self.m_pixels, self.eta)
        return sigma, self.c_theta + sigma


@dataclass
class BoundResult:
    """Evaluated gap: confidence term, per-class epsilons and validity flags.

    ``eps`` averages only the valid classes (still divided by K); invalid
    classes keep their raw ratio in ``eps_per_class`` so vacuity is visible.
    """

    sigma: float
    f_cal: float
    rho_max: float
    eps_per_class: np.ndarray
    eps: float
    valid_per_class: np.ndarray

    @property
    def all_valid(self) -> bool:
        return bool(self.valid_per_class.all())


def confidence_term(rho_max: float, k_classes: int, m_pixels: int, eta: float) -> float:
    """sigma = rho_max/(4K) * sqrt(2*M*ln(2K/eta)); decreasing in eta, increasing in M."""
    return rho_max / (4.0 * k_classes) * math.sqrt(2.0 * m_pixels * math.log(2.0 * k_classes / eta))


def _combine(eps_k: np.ndarray, valid: np.ndarray, k_classes: int) -> float:
    if not valid.any():
        return math.nan
    return float(eps_k[valid].sum() / k_classes)


def evaluate_epsilon(cfg: BoundConfig) -> BoundResult:
    """Evaluate the gap for every class; error out only if all are vacuous."""
    sigma, f_cal = cfg.confidence()
    eps_k, valid = allocation_epsilon(cfg.stats, cfg.margins.rho_0k, cfg.margins.mu_k, f_cal)
    if not valid.any():
        raise VacuousBoundError(
            "vacuous bound: every class has a non-positive denominator; "
            "increase the per-class pixel counts, raise the margin scale tau, "
            "or decrease C(theta)"
        )
    return BoundResult(
        sigma=sigma,
        f_cal=f_cal,
        rho_max=cfg.margins.rho_max,
        eps_per_class=eps_k,
        eps=_combine(eps_k, valid, cfg.k_classes),
        valid_per_class=valid,
    )


@dataclass
class ScalingResult:
    """Gap before/after proportional dataset growth with fixed margin-offsets."""

    eps_before: float
    eps_after: float
    compared: bool
    decreased: Optional[bool]


def scaling_check(cfg: BoundConfig, c: float) -> ScalingResult:
    """Evaluate the gap at (N, N_k) and at (c*N, c*N_k) with the same offsets.

    The offsets are constants of the bound, so they are held fixed while the
    counts grow; the gap must then shrink.  If either side has any vacuous
    class the comparison is skipped and flagged.
    """
    if c < 1:
        raise ConfigError("scale factor c must be >= 1")
    k = cfg.k_classes
    _, f_cal = cfg.confidence()
    offsets = (cfg.margins.rho_0k, cfg.margins.mu_k, f_cal)
    eps_b, valid_b = allocation_epsilon(cfg.stats, *offsets)
    eps_a, valid_a = allocation_epsilon(cfg.stats, *offsets, scale=c)
    before = _combine(eps_b, valid_b, k)
    after = _combine(eps_a, valid_a, k)
    if not (valid_b.all() and valid_a.all()):
        return ScalingResult(before, after, compared=False, decreased=None)
    return ScalingResult(before, after, compared=True, decreased=bool(after < before))


def allocation_epsilon(
    stats: LabelStats,
    rho_0k: np.ndarray,
    mu_k: np.ndarray,
    f_cal: float,
    scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class gap terms eps_k and their validity (denominator > 0) for one
    explicit offset allocation, at the counts (scale*N, scale*N_k).

    ``rho_0k`` may be a (n_points, K) stack of allocations.  ``scale`` grows
    the counts while the offsets stay fixed, as ``scaling_check`` needs.
    """
    n = scale * float(stats.n_total)
    n_k = scale * stats.n_per_class.astype(np.float64)
    rest = np.sqrt(n - n_k)
    numer = rest + np.sqrt(n_k) / np.asarray(mu_k, dtype=np.float64)
    rho_0k = np.asarray(rho_0k, dtype=np.float64)
    denom = n_k * rho_0k / (4.0 * stats.k_classes * f_cal) - rest
    valid = denom > 0
    with np.errstate(divide="ignore"):
        eps_k = numer / denom
    return eps_k, valid


@dataclass
class AllocationSearchResult:
    """Grid-search optimum versus the closed-form offset allocation."""

    closed_eps: float
    grid_eps: float
    closed_rho_0k: np.ndarray
    grid_rho_0k: np.ndarray
    n_grid_points: int
    n_vacuous: int
    closed_is_min: bool


def _simplex_grid(k_classes: int, resolution: int) -> np.ndarray:
    """Interior grid of positive weight vectors summing to 1."""
    ticks = (np.arange(resolution, dtype=np.float64) + 1.0) / (resolution + 1.0)
    if k_classes == 2:
        return np.stack([ticks, 1.0 - ticks], axis=1)
    if k_classes == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        a, b = a.ravel(), b.ravel()
        keep = a + b < 1.0
        return np.stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]], axis=1)
    raise ConfigError("allocation search supports K in {2, 3} only")


def brute_force_allocation(
    stats: LabelStats,
    m_pixels: int,
    eta: float,
    c_theta: float,
    tau: float,
    upsilon: float,
    grid_resolution: int = 1000,
) -> AllocationSearchResult:
    """Grid-search the offset simplex and compare with the closed-form optimum.

    mu_k follows the optimal-ratio formula (a function of stats and upsilon
    only) for every candidate, and the complexity total F is computed once
    from the closed-form allocation and held fixed, since the bound treats
    it as a constant of the minimization.  Grid allocations share the closed
    form's offset total sum_k rho_0k.  Vacuous grid points are skipped.
    """
    k = stats.k_classes
    if k not in (2, 3):
        raise ConfigError("allocation search supports K in {2, 3} only")
    closed = compute_margins(stats, tau=tau, upsilon=upsilon)
    closed_rho = closed.rho_0k
    _, f_cal = BoundConfig(stats, closed, m_pixels, eta, c_theta).confidence()

    eps_closed_k, valid_closed = allocation_epsilon(stats, closed_rho, closed.mu_k, f_cal)
    if not valid_closed.all():
        raise VacuousBoundError(
            "closed-form allocation is vacuous for some class; enlarge the "
            "dataset or the offset budget"
        )
    closed_eps = float(eps_closed_k.sum() / k)

    weights = _simplex_grid(k, grid_resolution)
    rho_grid = weights * float(closed_rho.sum())  # (n_points, K)
    eps_grid, valid_grid = allocation_epsilon(stats, rho_grid, closed.mu_k, f_cal)
    point_valid = valid_grid.all(axis=1)
    if not point_valid.any():
        raise VacuousBoundError("every grid point is vacuous; search impossible")
    eps_points = eps_grid.sum(axis=1) / k
    eps_points[~point_valid] = np.inf
    best = int(np.argmin(eps_points))
    grid_eps = float(eps_points[best])
    slack = 1e-9 * abs(grid_eps)
    return AllocationSearchResult(
        closed_eps=closed_eps,
        grid_eps=grid_eps,
        closed_rho_0k=closed_rho,
        grid_rho_0k=rho_grid[best],
        n_grid_points=int(weights.shape[0]),
        n_vacuous=int((~point_valid).sum()),
        closed_is_min=bool(closed_eps <= grid_eps + slack),
    )


def reparam_identity_check(
    stats: LabelStats, upsilon: float, r: Optional[float] = None
) -> bool:
    """Check that the two closed forms of mu_k agree to 1e-12 relative.

    Form 1: mu_k = P_k*sqrt(N_k) / (upsilon*(N-N_k) - P_k*sqrt(N-N_k)).
    Form 2: mu_k = sqrt(N_k) / (r*(N/N_k - 1) - sqrt(N-N_k)) with r = N*upsilon.
    Passing an explicit r probes deliberate mismatches.
    """
    n = float(stats.n_total)
    n_k = stats.n_per_class.astype(np.float64)
    p_k = stats.p_per_class
    rest = np.sqrt(n - n_k)
    if r is None:
        r = n * upsilon
    den1 = upsilon * (n - n_k) - p_k * rest
    den2 = r * (n / n_k - 1.0) - rest
    if np.any(den1 <= 0) or np.any(den2 <= 0):
        return False
    mu1 = p_k * np.sqrt(n_k) / den1
    mu2 = np.sqrt(n_k) / den2
    return bool(np.max(np.abs(mu1 / mu2 - 1.0)) <= 1e-12)


BOUND_CSV_HEADER = ["class_index", "eps_k", "valid"]


def write_bound_csv(result: BoundResult, path) -> None:
    """Per-class rows plus eps / sigma / f_cal / rho_max summary rows."""
    write_csv(path, BOUND_CSV_HEADER, [
        *([k, result.eps_per_class[k], int(result.valid_per_class[k])]
          for k in range(result.eps_per_class.size)),
        *([name, getattr(result, name), ""] for name in ("eps", "sigma", "f_cal", "rho_max")),
    ])
