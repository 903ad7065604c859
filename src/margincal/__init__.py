"""Distribution-aware margin calibration for IoU-oriented per-pixel models."""

from .bound import (
    AllocationSearchResult,
    BoundConfig,
    BoundResult,
    ScalingResult,
    brute_force_allocation,
    evaluate_epsilon,
    reparam_identity_check,
    scaling_check,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateError,
    FormatError,
    MarginCalError,
    NumericError,
    ShapeError,
    StatsError,
    TrainError,
    VacuousBoundError,
)
from .losses import (
    LossResult,
    ScoreBatch,
    calibrated_log_loss,
    cross_entropy,
    focal,
    rho_margin_loss,
    rho_margin_objective,
    soft_dice,
    tversky,
)
from .margins import (
    MarginOffsets,
    compute_margins,
    read_margins_csv,
    verify_corollary_ratios,
    write_margins_csv,
)
from .metrics import (
    ConfusionCounts,
    MetricsReport,
    iou_report,
)
from .segdata import (
    FeatureBatch,
    LabelStats,
    MaskBatch,
    SynthConfig,
    accumulate_stats,
    generate_synthetic,
    read_mask_pgm,
    read_stats_csv,
    write_mask_pgm,
    write_stats_csv,
)
from .trainer import (
    PixelMLP, TrainConfig, evaluate, load_model, save_model, train,
)

__version__ = "0.1.0"
