"""Workload inputs, generated from a seed.

Each workload embeds one fixed manifold sample: a Swiss roll drawn with
seed 1 (the ROADMAP baseline sample) or a set of 28x28 Gaussian-blob images
drawn with seed 1. The benchmark seed only picks the pose of that sample:
an orthogonal map of the ambient space and an order of the points. Seed 0 is
the canonical pose (identity map, original order), the one the recorded
reference was taken at.

A pose changes every byte the program reads but no pairwise distance beyond
round-off, so neighbor graphs, residual variances and embeddings (mapped
back to canonical point ids) must equal the reference for every seed, and
the quality metric does not wander with the seed.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_SEED = 1
IDX_SIDE = 28
IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
BLOB_SIGMA = 3.0
BLOB_CHUNK = 4096


@dataclass(frozen=True)
class Inputs:
    """Generated files plus what the verifier needs to know about them."""

    argv: tuple            # CLI arguments after `python -m topostable`
    files: tuple           # input files the program reads
    outputs: dict          # role ("csv", "svg", "report") -> output path
    base_ids: np.ndarray   # canonical id of each point the program keeps as input
    labels: np.ndarray | None  # label of each such point; None when the input has none
    cells: tuple           # (k, method) per pipeline cell, in the CLI's order


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # (workdir, seed, smoke) -> Inputs


def swiss_roll(n, seed=SAMPLE_SEED):
    """(t cos t, h, t sin t) with the parameter draws of topostable's generator."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    h = rng.uniform(0.0, 21.0, n)
    return np.column_stack([t * np.cos(t), h, t * np.sin(t)])


def blob_images(count, seed=SAMPLE_SEED):
    """count 28x28 uint8 images of one Gaussian blob each.

    The blob centre is the 2-D manifold parameter; it is drawn from a square
    symmetric about the image centre, so every flip or rotation of the image
    grid maps the family onto itself. The label is the centre's quadrant.
    """
    rng = np.random.default_rng(seed)
    lo, hi = 5.5, IDX_SIDE - 1 - 5.5
    centres = rng.uniform(lo, hi, size=(count, 2))
    axis = np.arange(IDX_SIDE, dtype=np.float64)
    images = np.empty((count, IDX_SIDE, IDX_SIDE), dtype=np.uint8)
    for s in range(0, count, BLOB_CHUNK):
        c = centres[s : s + BLOB_CHUNK]
        gx = np.exp(-((axis - c[:, :1]) ** 2) / (2.0 * BLOB_SIGMA**2))
        gy = np.exp(-((axis - c[:, 1:]) ** 2) / (2.0 * BLOB_SIGMA**2))
        images[s : s + BLOB_CHUNK] = np.rint(255.0 * gy[:, :, None] * gx[:, None, :])
    mid = (IDX_SIDE - 1) / 2.0
    labels = (centres[:, 0] >= mid).astype(np.uint8) + 2 * (centres[:, 1] >= mid).astype(np.uint8)
    return images, labels


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def write_csv(path, points):
    """17 significant digits per value, as `topostable generate` writes them."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in points:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def write_idx(image_path, label_path, images, labels):
    with open(image_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())
    with open(label_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.size))
        fh.write(labels.tobytes())


def _posed_swiss_roll(workdir, seed, n):
    points = swiss_roll(n)
    order = np.arange(n)
    if seed != 0:
        rng = np.random.default_rng(seed)
        points = points @ _orthogonal(rng, 3).T
        order = rng.permutation(n)
    path = Path(workdir) / "input.csv"
    write_csv(path, points[order])
    return path, order


def _make_embed_swissroll(workdir, seed, smoke):
    workdir = Path(workdir)
    path, order = _posed_swiss_roll(workdir, seed, 120 if smoke else 1600)
    out = {"csv": workdir / "embedding.csv", "svg": workdir / "embedding.svg"}
    argv = ("embed", "--in", str(path), "--method", "stable", "--k", "10",
            "--out", str(out["csv"]), "--svg", str(out["svg"]))
    return Inputs(argv, (path,), out, order, None, ((10, "stable"),))


SWEEP_K = (10, 15, 20, 30)


def _make_sweep_swissroll(workdir, seed, smoke):
    workdir = Path(workdir)
    path, order = _posed_swiss_roll(workdir, seed, 100 if smoke else 800)
    out = {"report": workdir / "report.csv"}
    argv = ("compare", "--in", str(path), "--k", ",".join(map(str, SWEEP_K)),
            "--method", "both", "--out", str(out["report"]))
    cells = tuple((k, method) for k in SWEEP_K for method in ("standard", "stable"))
    return Inputs(argv, (path,), out, order, None, cells)


def _make_idx(workdir, seed, smoke):
    workdir = Path(workdir)
    count, take = (1500, 100) if smoke else (60000, 500)
    images, labels = blob_images(count)
    order = np.arange(count)
    if seed != 0:
        rng = np.random.default_rng(seed)
        # A flip or rotation of the pixel grid permutes coordinates: an isometry.
        turn = int(rng.integers(8))
        images = np.rot90(images, turn % 4, axes=(1, 2))
        if turn >= 4:
            images = images[:, :, ::-1]
        # Reorder within the kept prefix and within the rest, so the same
        # points are kept.
        order = np.concatenate([rng.permutation(take), take + rng.permutation(count - take)])
    images, labels = np.ascontiguousarray(images[order]), labels[order]
    image_path = workdir / "train-images-idx3-ubyte"
    label_path = workdir / "train-labels-idx1-ubyte"
    write_idx(image_path, label_path, images, labels)
    out = {"csv": workdir / "embedding.csv"}
    argv = ("embed", "--in", str(image_path), "--labels", str(label_path),
            "--take-first", str(take), "--k", "10", "--out", str(out["csv"]))
    return Inputs(argv, (image_path, label_path), out, order[:take], labels[:take].astype(np.int64),
                  ((10, "stable"),))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "embed-swissroll-1600",
            "ROADMAP baseline shape: APSP and the dense n x n matrices of MDS dominate time and memory",
            _make_embed_swissroll,
        ),
        Workload(
            "sweep-swissroll-800",
            "criterion-3 sweep: 8 (k, method) cells redo distances, kNN and APSP on one input",
            _make_sweep_swissroll,
        ),
        Workload(
            "idx-take-first-500",
            "README IDX command on 60000 blob images: the loader and the 784-D selector dominate, APSP is small",
            _make_idx,
        ),
    )
}
