"""Distribution-aware margin calibration for IoU-oriented per-pixel models."""

__version__ = "0.1.0"
