"""Synthetic manifold generators and loaders for real data.

Generators draw parameters from numpy's default_rng (PCG64), so a fixed
(n, seed) pair reproduces the sample bit-exactly. The returned params are
the ground-truth manifold coordinates, row-aligned with the points.
"""

import contextlib
import io
import os
import stat
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
    return SyntheticSample(DataSet(pts), t.reshape(-1, 1))


def gen_swiss_roll(n, seed):
    """Swiss roll: (t cos t, h, t sin t), t in [3pi/2, 9pi/2], h in [0, 21]."""
    _check_count(n)
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    h = rng.uniform(0.0, 21.0, n)
    pts = np.column_stack([t * np.cos(t), h, t * np.sin(t)])
    return SyntheticSample(DataSet(pts), np.column_stack([t, h]))


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
    return SyntheticSample(DataSet(pts), np.column_stack([phi, psi]))


def load_idx(path, labels_path=None, take_first=None, seed=None):
    """DataSet from an IDX image file (big-endian, magic 2051).

    Pixels are scaled to [0, 1]. A companion label file (magic 2049) fills
    labels. take_first keeps the first n images; given a seed, it instead
    keeps a uniform draw of n images seeded by it, in file order. Without
    take_first every image is kept, seed or not: a uniform draw of all of
    them in file order is that same set.
    Both headers and payload lengths are checked first; then only the kept
    rows are read, as bytes, and only they are converted to float64, so the
    input costs keep x rows x cols x 8 B rather than the whole file's worth.
    Raises BadCountError when take_first is below 1 or the file holds no
    images, and BadDimError when an image has fewer than 2 pixels.
    """
    if take_first is not None and take_first < 1:
        raise BadCountError(f"take_first must be at least 1, got {take_first}")
    with contextlib.ExitStack() as files:
        images, size = _open_idx(path, files)
        count, rows, cols = _idx_header(images, path, "image", IDX_IMAGE_MAGIC)
        if count == 0:
            raise BadCountError(f"{path}: holds no images")
        width = rows * cols
        if width < 2:
            raise BadDimError(f"{path}: {rows}x{cols} images have {width} pixel, need at least 2")
        if size - 16 < count * width:
            raise TruncatedFileError(f"{path}: expected {count * width} pixel bytes, found {size - 16}")
        if labels_path is not None:
            labels, lsize = _open_idx(labels_path, files)
            (lcount,) = _idx_header(labels, labels_path, "label", IDX_LABEL_MAGIC)
            if lcount != count:
                raise DimensionMismatchError(f"{lcount} labels for {count} images")
            if lsize - 8 < lcount:
                raise TruncatedFileError(f"{labels_path}: expected {lcount} label bytes, found {lsize - 8}")
        chosen = _chosen_rows(count, take_first, seed)
        points = _read_rows(images, path, 16, width, count, chosen).astype(np.float64)
        points /= 255.0
        kept_labels = None
        if labels_path is not None:
            kept_labels = _read_rows(labels, labels_path, 8, 1, count, chosen).reshape(-1).astype(np.int64)
    return DataSet(points, kept_labels)


def _open_idx(path, files):
    """Binary handle on an IDX file, closed with the ExitStack files, and
    the file's size in bytes. A pipe has no size and cannot seek, so it is
    read whole into memory."""
    fh = files.enter_context(open(path, "rb"))
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        return fh, st.st_size
    raw = fh.read()
    return io.BytesIO(raw), len(raw)


def _idx_header(fh, path, kind, magic):
    """Fields after the magic number of an IDX header (">IIII" for images,
    ">II" for labels), checked for length and magic."""
    fmt = ">IIII" if kind == "image" else ">II"
    size = struct.calcsize(fmt)
    head = fh.read(size)
    if len(head) < size:
        raise TruncatedFileError(f"{path}: shorter than the {size}-byte IDX {kind} header")
    found, *fields = struct.unpack(fmt, head)
    if found != magic:
        raise BadMagicError(f"{path}: expected {kind} magic {magic}, got {found}")
    return fields


def _chosen_rows(count, take_first, seed):
    """Sorted indices of the rows load_idx keeps, or None for all of them."""
    if take_first is None:
        return None
    keep = min(int(take_first), count)
    if seed is not None:
        return np.sort(np.random.default_rng(seed).choice(count, size=keep, replace=False))
    return np.arange(keep)


def _read_rows(fh, path, offset, width, count, chosen):
    """uint8 (len(chosen), width) array of the chosen rows of a payload of
    count rows that starts at byte offset; chosen=None reads every row.
    Each run of adjacent rows is one seek and one read."""
    if chosen is None:
        chosen = np.arange(count)
    out = np.empty((chosen.size, width), dtype=np.uint8)
    view = memoryview(out.reshape(-1))
    starts = np.flatnonzero(np.diff(chosen, prepend=-2) != 1)
    for a, b in zip(starts, [*starts[1:], chosen.size]):
        fh.seek(offset + int(chosen[a]) * width)
        if fh.readinto(view[a * width : b * width]) != (b - a) * width:
            raise TruncatedFileError(f"{path}: ended before its declared payload was read")
    return out


def load_csv(path):
    """DataSet from a plain numeric CSV: comma-separated, no quoting, no header.

    Row order is preserved and blank lines at the end of the file are ignored.
    Rows of differing widths, fewer than 2 columns, and non-numeric or
    non-finite (NaN/inf) cells are refused with typed errors naming the file.
    The file must be UTF-8, with or without a byte-order mark; an invalid
    byte is refused with NonNumericCellError naming its offset in the file.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        bad = raw[exc.start:exc.end]
        raise NonNumericCellError(f"{path}: byte {exc.start} is not UTF-8: {bad!r}") from None
    lines = text.splitlines()
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
