"""Per-class margin-offset calculation from label statistics.

The offsets follow the optimal-allocation rule: rho_0k = tau * sqrt(N-N_k)/N_k
penalizes background pixels scored as class k, and rho_k0 = mu_k * rho_0k
penalizes class-k pixels scored as background, with

    mu_k = P_k * sqrt(N_k) / (upsilon*(N-N_k) - P_k*sqrt(N-N_k)).

Minority classes therefore receive large rho_0k, and the pairwise ratios
rho_0i/rho_0j = (N_j/N_i) * sqrt(N-N_i)/sqrt(N-N_j) minimize the associated
generalization-gap bound (see the bound module).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateError, FormatError, StatsError
from .segdata import LabelStats, read_class_csv, write_csv

DEFAULT_TAU = 10.0
DEFAULT_UPSILON = 1.0

#: relative tolerance for the optimal-ratio check
RATIO_RTOL = 1e-10


@dataclass
class MarginOffsets:
    """Per-class margin-offsets rho_0k and rho_k0; mu_k = rho_k0/rho_0k.

    ``corollary_ok`` is False when the offsets were loaded from a hand-edited
    file that no longer satisfies the optimal pairwise ratios; such overrides
    are allowed for ablation experiments.
    """

    rho_0k: np.ndarray
    rho_k0: np.ndarray
    corollary_ok: bool = True

    def __post_init__(self) -> None:
        self.rho_0k = np.asarray(self.rho_0k, dtype=np.float64)
        self.rho_k0 = np.asarray(self.rho_k0, dtype=np.float64)
        if self.rho_0k.shape != self.rho_k0.shape:
            raise ConfigError("margin-offset arrays must share one shape")
        for name, arr in (("rho_0k", self.rho_0k), ("rho_k0", self.rho_k0)):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"{name} contains non-finite values")
            if np.any(arr <= 0):
                raise ConfigError(f"{name} must be strictly positive")

    @property
    def mu_k(self) -> np.ndarray:
        return self.rho_k0 / self.rho_0k

    @property
    def k_classes(self) -> int:
        return self.rho_0k.size

    @property
    def rho_max(self) -> float:
        return float(max(self.rho_0k.max(), self.rho_k0.max()))

    def check_classes(self, stats: LabelStats) -> None:
        """Raise ConfigError unless ``stats`` counts as many classes as there are offsets."""
        if self.k_classes != stats.k_classes:
            raise ConfigError(f"margins and stats disagree on the number of classes "
                              f"({self.k_classes} and {stats.k_classes})")


def _check_no_empty_class(stats: LabelStats) -> None:
    """Raise StatsError naming the first class with no pixels: rho_0k divides by N_k."""
    empty = np.flatnonzero(stats.n_per_class < 1)
    if empty.size:
        raise StatsError(f"empty class {int(empty[0])}: margin-offsets need N_k >= 1")


def compute_margins(
    stats: LabelStats,
    tau: float = DEFAULT_TAU,
    upsilon: float = DEFAULT_UPSILON,
) -> MarginOffsets:
    """Compute per-class margin-offsets from exact label statistics.

    Raises when a class is empty, when the dataset is single-class (the
    offsets degenerate to zero), or when upsilon is too small to keep every
    mu_k denominator positive.
    """
    if not (tau > 0 and upsilon > 0):
        raise ConfigError("tau and upsilon must be positive")
    _check_no_empty_class(stats)
    n = float(stats.n_total)
    n_k = stats.n_per_class.astype(np.float64)
    if np.any(n_k == n):
        full = int(np.flatnonzero(n_k == n)[0])
        raise DegenerateError(
            f"class {full} owns every pixel; sqrt(N-N_k)=0 makes rho_0k=0"
        )
    p_k = n_k / n
    rest = np.sqrt(n - n_k)
    mu_den = upsilon * (n - n_k) - p_k * rest
    if np.any(mu_den <= 0):
        upsilon_min = float(np.max(p_k / rest))
        raise ConfigError(
            f"mu underflow: upsilon={upsilon:g} makes a mu_k denominator "
            f"non-positive; use upsilon > {upsilon_min:.6g}"
        )
    mu_k = p_k * np.sqrt(n_k) / mu_den
    rho_0k = tau * rest / n_k
    rho_k0 = mu_k * rho_0k
    return MarginOffsets(rho_0k=rho_0k, rho_k0=rho_k0)


def verify_corollary_ratios(m: MarginOffsets, stats: LabelStats) -> tuple[bool, float]:
    """Check rho_0i/rho_0j against the closed-form count ratio for every
    class pair to RATIO_RTOL; return (ok, worst deviation).  The other
    condition, rho_k0 = mu_k * rho_0k, holds as ``MarginOffsets`` derives mu_k.
    """
    m.check_classes(stats)
    n = float(stats.n_total)
    n_k = stats.n_per_class.astype(np.float64)
    weight = np.sqrt(n - n_k) / n_k  # rho_0k is proportional to this
    actual = m.rho_0k[:, None] / m.rho_0k[None, :]
    expected = weight[:, None] / weight[None, :]
    worst = float(np.max(np.abs(actual / expected - 1.0)))
    return worst <= RATIO_RTOL, worst


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

MARGINS_CSV_HEADER = ["class_index", "n_pixels", "p_k", "mu_k", "rho_0k", "rho_k0"]


def write_margins_csv(m: MarginOffsets, stats: LabelStats, path) -> None:
    m.check_classes(stats)
    columns = (stats.n_per_class, stats.p_per_class, m.mu_k, m.rho_0k, m.rho_k0)
    write_csv(path, MARGINS_CSV_HEADER, ([k, *row] for k, row in enumerate(zip(*columns))))


def read_margins_csv(path) -> tuple[MarginOffsets, LabelStats]:
    """Load margin-offsets and the label statistics they were computed from.

    An empty class and a broken structural invariant (positivity, finiteness,
    a ``mu_k`` column that misses rho_k0/rho_0k at the file's precision) are
    hard errors.  A violated optimal-ratio condition only clears the
    ``corollary_ok`` flag so hand-edited allocations stay loadable.
    """
    counts, (_, mu, rho_0k, rho_k0) = read_class_csv(path, MARGINS_CSV_HEADER, "margins")
    stats = LabelStats(counts)
    _check_no_empty_class(stats)
    for name, arr in (("mu_k", mu), ("rho_0k", rho_0k), ("rho_k0", rho_k0)):
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"margins CSV column {name} contains non-finite values")
    if np.any(rho_0k <= 0) or np.any(rho_k0 <= 0):
        raise FormatError("margins CSV violates a structural invariant: "
                          "offsets must be strictly positive")
    # the file stores 12 significant digits, so the stored mu_k can miss
    # rho_k0/rho_0k by a few 1e-12; validate at format precision
    if np.any(np.abs(rho_k0 - mu * rho_0k) > 1e-9 * rho_k0):
        raise FormatError(
            "margins CSV violates a structural invariant: mu_k != rho_k0/rho_0k"
        )
    margins = MarginOffsets(rho_0k=rho_0k, rho_k0=rho_k0)
    margins.corollary_ok = verify_corollary_ratios(margins, stats)[0]
    return margins, stats
