"""Mask I/O (binary PGM), synthetic imbalanced datasets, and label statistics.

Masks are stored as binary PGM (magic ``P5``, maxval 255) with the pixel byte
equal to the class index and 255 reserved for "ignore".  The synthetic
generator paints one disk per foreground class on a background canvas, sized
so the expected per-class pixel fractions match the requested ratios.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError, StatsError

IGNORE_INDEX = 255
FEATURE_DIM = 8
#: labels per block of a whole-split label scan, whose scratch is one block's
SCAN_BLOCK = 65536


@dataclass
class MaskBatch:
    """Dense integer class labels for a stack of equally sized images.

    ``labels`` is flat (row-major, image-major) with one entry per pixel.
    """

    labels: np.ndarray
    width: int
    height: int
    n_images: int
    ignore_index: int = IGNORE_INDEX

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1 or not np.issubdtype(self.labels.dtype, np.integer):
            raise DataError("labels must be a flat integer array")
        expected = self.n_images * self.width * self.height
        if self.labels.size != expected:
            raise DataError(
                f"labels length {self.labels.size} != n_images*width*height = {expected}"
            )

    @property
    def pixels_per_image(self) -> int:
        return self.width * self.height

    @property
    def n_pixels(self) -> int:
        return self.labels.size


def _checked_block(masks: MaskBatch, k_classes: int, image_base: int, start: int):
    """The SCAN_BLOCK labels from ``start`` and their valid row, once they
    pass ``check_labels``'s test."""
    block = masks.labels[start : start + SCAN_BLOCK]
    valid = block != masks.ignore_index
    bad = block >= k_classes
    if block.dtype.kind == "i":
        bad |= block < 0
    bad &= valid
    if bad.any():
        at = int(bad.argmax())
        image, pixel = divmod(start + at, masks.pixels_per_image)
        why = "is below 0" if block[at] < 0 else f"exceeds k_classes={k_classes}"
        raise ShapeError(f"label {block[at]} at image {image_base + image}, pixel {pixel} {why}")
    return block, valid


def check_labels(masks: MaskBatch, k_classes: int) -> int:
    """Raise ShapeError naming the first non-ignored label outside [0,
    ``k_classes``) by its image and pixel; else return the count of labels
    that are not ignored.  Unsigned labels skip the test for negatives."""
    n_valid = 0
    for start in range(0, masks.n_pixels, SCAN_BLOCK):
        n_valid += np.count_nonzero(_checked_block(masks, k_classes, 0, start)[1])
    return n_valid


def _non_finite_at(values: np.ndarray) -> Optional[tuple[int, int]]:
    """(row, column) of the first non-finite entry of 2-D ``values``, or None.

    NaN propagates through min and max, so two reductions see every
    non-finite entry without a mask of their shape; only a failure builds one.
    """
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        row, col = np.argwhere(~np.isfinite(values))[0]
        return int(row), int(col)
    return None


@dataclass
class FeatureBatch:
    """Per-pixel real feature vectors, aligned with a MaskBatch's flat order, in
    any layout (never copied); feature-major, as ``generate_synthetic`` makes, reads fastest."""

    features: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError("features must be a 2-D (n_pixels, d) array")
        bad = _non_finite_at(self.features)
        if bad is not None:
            raise DataError(f"non-finite feature at pixel {bad[0]}, column {bad[1]}")

    @property
    def n_pixels(self) -> int:
        return self.features.shape[0]


@dataclass
class LabelStats:
    """Exact per-class pixel counts N_k over a dataset, from which the total
    N, the frequencies P_k = N_k/N and the class count K are computed."""

    n_per_class: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.n_per_class)
        if counts.ndim != 1:
            raise StatsError(f"label counts must be 1-D (one per class); got shape {counts.shape}")
        total = 0  # exact: the checks below see the counts before int64 can wrap them
        for k, count in enumerate(counts.tolist()):
            total += count
            if not -2**63 <= count < 2**63:
                raise StatsError(f"class {k} has a pixel count {count} that does not fit int64")
            if total >= 2**63:
                raise StatsError(f"the pixel counts overflow int64 at class {k}")
        self.n_per_class = counts = counts.astype(np.int64)
        negative = np.flatnonzero(counts < 0)
        if negative.size:
            k = int(negative[0])
            raise StatsError(f"class {k} has a negative pixel count {int(counts[k])}")
        if self.n_total <= 0:
            raise StatsError("empty effective dataset (no counted pixels)")

    @property
    def n_total(self) -> int:
        return int(self.n_per_class.sum())

    @property
    def p_per_class(self) -> np.ndarray:
        return self.n_per_class / self.n_total

    @property
    def k_classes(self) -> int:
        return self.n_per_class.size


@dataclass
class SynthConfig:
    """Configuration for the seeded disk-scene generator."""

    seed: int
    width: int = 64
    height: int = 64
    n_images: int = 100
    k_classes: int = 3
    target_ratios: tuple = (0.90, 0.07, 0.03)
    noise_sigma: float = 0.1

    def __post_init__(self) -> None:
        if self.k_classes < 2:
            raise ConfigError("need at least 2 classes (background + 1 foreground)")
        ratios = np.asarray(self.target_ratios, dtype=np.float64)
        if ratios.size != self.k_classes:
            raise ConfigError("target_ratios must have one entry per class")
        if not np.all(np.isfinite(ratios) & (ratios > 0)):
            raise ConfigError("target_ratios must all be finite and positive")
        if abs(float(ratios.sum()) - 1.0) > 1e-9:
            raise ConfigError("target_ratios must sum to 1")
        if self.width < 2 or self.height < 2 or self.n_images < 1:
            raise ConfigError("width, height and n_images must be positive")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError("noise_sigma must be finite and non-negative")


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------


def _parse_pgm_header(raw: bytes) -> tuple[int, int, int, int]:
    """Parse a binary PGM header, returning (width, height, maxval, payload offset)."""
    pos = 2
    values: list[int] = []
    while len(values) < 3:
        # skip whitespace and '#' comments between header tokens
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token or not token.isdigit():
            field_name = ("width", "height", "maxval")[len(values)]
            raise FormatError(f"malformed PGM header: bad {field_name} token {token!r}")
        values.append(int(token))
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise FormatError("malformed PGM header: missing separator before payload")
    return values[0], values[1], values[2], pos + 1


def read_mask_pgm(path) -> MaskBatch:
    """Read a single-image mask from a binary PGM (P5, maxval 255) file."""
    raw = Path(path).read_bytes()
    magic = raw[:2]
    if magic == b"P2":
        raise FormatError("ASCII PGM unsupported (magic P2); expected binary P5")
    if magic != b"P5":
        raise FormatError(f"not a binary PGM: magic {magic!r}, expected b'P5'")
    width, height, maxval, offset = _parse_pgm_header(raw)
    if width < 1 or height < 1:
        raise FormatError(f"malformed PGM header: size {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}; class masks require 255")
    payload = raw[offset:]
    expected = width * height
    if len(payload) < expected:
        raise FormatError(
            f"truncated payload: got {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise FormatError(
            f"trailing bytes after payload: got {len(payload)}, expected {expected}"
        )
    labels = np.frombuffer(payload, dtype=np.uint8).copy()
    return MaskBatch(labels=labels, width=width, height=height, n_images=1)


def write_mask_pgm(mask: MaskBatch, path) -> None:
    """Write a single-image MaskBatch as binary PGM (P5, maxval 255)."""
    if mask.n_images != 1:
        raise DataError(f"PGM holds one image; mask has {mask.n_images}")
    labels = mask.labels
    if labels.size and (int(labels.min()) < 0 or int(labels.max()) > 255):
        raise DataError(
            f"labels outside [0, 255] cannot be stored in a PGM byte "
            f"(found {int(labels.max() if labels.max() > 255 else labels.min())})"
        )
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + labels.astype(np.uint8).tobytes())


def write_image_pgm(values: np.ndarray, width: int, height: int, path) -> None:
    """Quantize a flat [0, 1]-ish greyscale array to bytes and write as P5."""
    arr = np.asarray(values, dtype=np.float64).reshape(height, width)
    quantized = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def _disk_radii(cfg: SynthConfig) -> np.ndarray:
    """Radius per foreground class so the expected pixel fraction matches its target."""
    ratios = np.asarray(cfg.target_ratios, dtype=np.float64)
    area = cfg.width * cfg.height
    radii = np.sqrt(ratios[1:] * area / math.pi)
    max_r = (min(cfg.width, cfg.height) - 1) / 2.0
    for k, r in enumerate(radii, start=1):
        if r > max_r:
            raise ConfigError(
                f"target ratio {ratios[k]:.4g} for class {k} needs a disk of radius "
                f"{r:.2f} that cannot fit a {cfg.width}x{cfg.height} image"
            )
    return radii


def generate_synthetic(cfg: SynthConfig) -> tuple[FeatureBatch, MaskBatch]:
    """Generate a seeded disk-scene dataset: features and masks for all images.

    Each image is background (class 0) with one disk per foreground class,
    painted in class order (later classes overwrite earlier ones on overlap).
    Per-pixel features: x/w, y/h, intensity, xy/(wh), (x/w)^2, (y/h)^2,
    normalized distance to image center, and a constant 1.  Intensity is the
    class-specific mean 0.2 + 0.6*k/(K-1) plus Gaussian noise.  The (n, d)
    features are stored feature-major, as the view of a C-ordered (d, n) array.
    """
    radii = _disk_radii(cfg)
    rng = np.random.default_rng(cfg.seed)
    w, h, k_cls = cfg.width, cfg.height, cfg.k_classes
    ppi = w * h

    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    cx0, cy0 = (w - 1) / 2.0, (h - 1) / 2.0
    r_center = np.sqrt((xs - cx0) ** 2 + (ys - cy0) ** 2)
    r_center /= math.sqrt(cx0**2 + cy0**2)

    coord = np.stack(
        [
            xs / w,
            ys / h,
            np.zeros_like(xs),  # intensity slot, filled per image
            xs * ys / (w * h),
            (xs / w) ** 2,
            (ys / h) ** 2,
            r_center,
            np.ones_like(xs),
        ],
    ).reshape(FEATURE_DIM, 1, ppi)

    means = 0.2 + 0.6 * np.arange(k_cls, dtype=np.float64) / (k_cls - 1)

    labels = np.zeros(cfg.n_images * ppi, dtype=np.uint8)
    features = np.empty((FEATURE_DIM, cfg.n_images * ppi))  # feature-major
    features.reshape(FEATURE_DIM, cfg.n_images, ppi)[...] = coord
    for i in range(cfg.n_images):
        img = np.zeros((h, w), dtype=np.uint8)
        for k in range(1, k_cls):
            r = radii[k - 1]
            cx = rng.uniform(r, (w - 1) - r)
            cy = rng.uniform(r, (h - 1) - r)
            img[(xs - cx) ** 2 + (ys - cy) ** 2 <= r * r] = k
        noise = rng.normal(size=ppi)
        flat = img.reshape(ppi)
        labels[i * ppi : (i + 1) * ppi] = flat
        features[2, i * ppi : (i + 1) * ppi] = means[flat] + cfg.noise_sigma * noise

    mask = MaskBatch(labels=labels, width=w, height=h, n_images=cfg.n_images)
    return FeatureBatch(features=features.T), mask


# ---------------------------------------------------------------------------
# Label statistics
# ---------------------------------------------------------------------------


def accumulate_stats(masks, k_classes: int) -> LabelStats:
    """Count per-class pixels over one or more MaskBatches, skipping ignore pixels."""
    if k_classes < 1:
        raise ConfigError(f"k_classes must be >= 1; got {k_classes}")
    if isinstance(masks, MaskBatch):
        masks = [masks]
    if not masks:
        raise StatsError("no masks given")
    counts = np.zeros(k_classes, dtype=np.int64)
    image_base = 0
    for batch in masks:
        for start in range(0, batch.n_pixels, SCAN_BLOCK):
            block, valid = _checked_block(batch, k_classes, image_base, start)
            counts += np.bincount(block[valid], minlength=k_classes)
        image_base += batch.n_images
    if counts.sum() == 0:
        raise StatsError("empty effective dataset: every pixel carries the ignore index")
    return LabelStats(counts)


STATS_CSV_HEADER = ["class_index", "n_pixels", "p_k"]


def write_csv(path, header, rows) -> None:
    """Write ``header``, then ``rows``: float cells as ``.12g``, the rest as they are."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{c:.12g}" if isinstance(c, float) else c for c in row])


def read_class_csv(path, header, kind) -> tuple[list, np.ndarray]:
    """Read a per-class CSV: one row per class in class order, whose first two
    columns (``class_index``, ``n_pixels``) are integers and the rest numbers.

    Returns the counts and a C-ordered (len(header) - 2, K) array of the other
    columns.  Any deviation raises FormatError naming ``kind``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise FormatError(f"{kind} CSV header mismatch: {first or 'empty'}")
        counts, values = [], []
        for row in reader:
            if len(row) != len(header):
                raise FormatError(
                    f"{kind} CSV row has {len(row)} fields, expected {len(header)}"
                )
            cells = []
            for i, (name, text) in enumerate(zip(header, row)):
                try:
                    cells.append(int(text) if i < 2 else float(text))
                except ValueError:
                    what = "an integer" if i < 2 else "a number"
                    raise FormatError(f"{kind} CSV line {reader.line_num} field {name}: "
                                      f"expected {what}, got {text!r}") from None
            if cells[0] != len(counts):
                raise FormatError(f"{kind} CSV class indices out of order at {row[0]}")
            counts.append(cells[1])
            values.append(cells[2:])
    return counts, np.array(values, float).reshape(len(counts), len(header) - 2).T.copy()


def write_stats_csv(stats: LabelStats, path) -> None:
    write_csv(path, STATS_CSV_HEADER, (
        [k, int(stats.n_per_class[k]), stats.p_per_class[k]] for k in range(stats.k_classes)
    ))


def read_stats_csv(path) -> LabelStats:
    counts, (file_p,) = read_class_csv(path, STATS_CSV_HEADER, "stats")
    stats = LabelStats(counts)
    # frequencies are recomputed exactly from counts; the file copy must agree
    if not np.all(np.abs(file_p - stats.p_per_class) <= 1e-9):
        raise FormatError("stats CSV p_k column inconsistent with counts")
    return stats
