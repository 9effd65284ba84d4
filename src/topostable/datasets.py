"""Synthetic manifold generators and loaders for real data.

Generators draw parameters from numpy's default_rng (PCG64), so a fixed
(n, seed) pair reproduces the sample bit-exactly. The returned params are
the ground-truth manifold coordinates, row-aligned with the points.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadCountError,
    BadDimError,
    BadMagicError,
    DimensionMismatchError,
    NonFiniteError,
    NonNumericCellError,
    RaggedRowsError,
    TruncatedFileError,
)
from .graph import DataSet

__all__ = [
    "SyntheticSample",
    "gen_helix",
    "gen_swiss_roll",
    "gen_punctured_sphere",
    "load_idx",
    "load_csv",
]

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


@dataclass(frozen=True)
class SyntheticSample:
    """Generated points plus the manifold parameters that produced them."""

    data: DataSet
    params: np.ndarray  # (n, q) generating parameters, row-aligned
    seed: int


def _check_count(n):
    if n < 10:
        raise BadCountError(f"need at least 10 points, got {n}")


def gen_helix(n, seed):
    """Toroidal helix: ((2+cos 8t) cos t, (2+cos 8t) sin t, sin 8t), t in [0, 2pi).

    The curve winds 8 times around the tube of a radius-2 torus, so every
    point satisfies (sqrt(x^2+y^2) - 2)^2 + z^2 = 1.
    """
    _check_count(n)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, n)
    r = 2.0 + np.cos(8.0 * t)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t), np.sin(8.0 * t)])
    return SyntheticSample(DataSet(pts), t.reshape(-1, 1), seed)


def gen_swiss_roll(n, seed):
    """Swiss roll: (t cos t, h, t sin t), t in [3pi/2, 9pi/2], h in [0, 21]."""
    _check_count(n)
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    h = rng.uniform(0.0, 21.0, n)
    pts = np.column_stack([t * np.cos(t), h, t * np.sin(t)])
    return SyntheticSample(DataSet(pts), np.column_stack([t, h]), seed)


def gen_punctured_sphere(n, seed):
    """Unit sphere with the south cap removed and top-heavy sampling.

    Polar angle phi = 0.8 pi u^2 with u uniform on [0, 1), so density
    increases toward the north pole and no point has z < cos(0.8 pi).
    """
    _check_count(n)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, n)
    phi = 0.8 * np.pi * u**2
    psi = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.column_stack([np.sin(phi) * np.cos(psi), np.sin(phi) * np.sin(psi), np.cos(phi)])
    return SyntheticSample(DataSet(pts), np.column_stack([phi, psi]), seed)


def load_idx(path, labels_path=None, take_first=None, sample_random=False, seed=0):
    """DataSet from an IDX image file (big-endian, magic 2051).

    Pixels are scaled to [0, 1]. A companion label file (magic 2049) fills
    labels. take_first keeps the first n images; with sample_random=True it
    instead keeps a seeded uniform subset (original order preserved).
    Raises BadCountError when take_first is below 1.
    """
    if take_first is not None and take_first < 1:
        raise BadCountError(f"take_first must be at least 1, got {take_first}")
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise TruncatedFileError(f"{path}: shorter than the 16-byte IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise BadMagicError(f"{path}: expected image magic {IDX_IMAGE_MAGIC}, got {magic}")
    need = count * rows * cols
    if len(raw) < 16 + need:
        raise TruncatedFileError(f"{path}: expected {need} pixel bytes, found {len(raw) - 16}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=need, offset=16)
    points = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0

    labels = None
    if labels_path is not None:
        lraw = Path(labels_path).read_bytes()
        if len(lraw) < 8:
            raise TruncatedFileError(f"{labels_path}: shorter than the 8-byte IDX label header")
        lmagic, lcount = struct.unpack(">II", lraw[:8])
        if lmagic != IDX_LABEL_MAGIC:
            raise BadMagicError(f"{labels_path}: expected label magic {IDX_LABEL_MAGIC}, got {lmagic}")
        if lcount != count:
            raise DimensionMismatchError(f"{lcount} labels for {count} images")
        if len(lraw) < 8 + lcount:
            raise TruncatedFileError(f"{labels_path}: expected {lcount} label bytes, found {len(lraw) - 8}")
        labels = np.frombuffer(lraw, dtype=np.uint8, count=lcount, offset=8).astype(np.int64)

    if take_first is not None:
        keep = min(int(take_first), count)
        if sample_random:
            idx = np.sort(np.random.default_rng(seed).choice(count, size=keep, replace=False))
        else:
            idx = np.arange(keep)
        points = points[idx]
        labels = None if labels is None else labels[idx]
    return DataSet(points, labels)


def load_csv(path):
    """DataSet from a plain numeric CSV: comma-separated, no quoting, no header.

    Row order is preserved and blank lines at the end of the file are ignored.
    Rows of differing widths, fewer than 2 columns, and non-numeric or
    non-finite (NaN/inf) cells are refused with typed errors naming the file.
    """
    lines = Path(path).read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    rows = [line.split(",") for line in lines]
    if not rows:
        raise RaggedRowsError(f"{path}: no data rows")
    width = len(rows[0])
    for i, cells in enumerate(rows):
        if len(cells) != width:
            raise RaggedRowsError(f"{path}: row {i} has {len(cells)} cells, expected {width}")
    if width < 2:
        raise BadDimError(f"{path}: {width} column, need at least 2")
    try:
        values = np.array(rows, dtype=np.float64)
    except ValueError:
        i, j = next((i, j) for i, cells in enumerate(rows) for j, c in enumerate(cells) if not _is_number(c))
        raise NonNumericCellError(f"{path}: row {i}, column {j}: {rows[i][j]!r}") from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise NonFiniteError(f"{path}: row {i}, column {j}: {rows[i][j]!r} is not finite")
    return DataSet(values)


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False
