"""End-to-end embedding runs, method comparisons, and file outputs."""

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import BadConfigError, BadDimError, TopoStableError
from .geodesic import (
    classical_mds,
    floyd_all_pairs,
    largest_component,
    residual_variance,
)
from .graph import SelectorConfig, _check_method, build_graph, knn_table

__all__ = [
    "RunConfig",
    "ReportRow",
    "isomap_embed",
    "compare_methods",
    "write_embedding_csv",
    "write_report_csv",
    "write_scatter_svg",
]


@dataclass(frozen=True, kw_only=True)
class RunConfig(SelectorConfig):
    """Knobs for one pipeline run: the selector's settings (k, dim_w,
    delta_theta_deg, with their defaults) plus the method and the embedding
    dimension m; the defaults mirror the reference experiments. Settings
    that no input can take are refused on construction (BadConfigError)."""

    method: str
    m: int = 2

    def __post_init__(self):
        _check_method(self.method)
        if self.m < 1:
            raise BadConfigError("m must be positive")
        super().__post_init__()
        if self.method == "stable":
            self._check_stable()


@contextlib.contextmanager
def _stage(name):
    """Prefix pipeline errors with the stage that produced them."""
    try:
        yield
    except TopoStableError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def isomap_embed(data, cfg):
    """Full pipeline: neighbor graph, geodesics, largest component, MDS.

    Returns (embedding, geodesic_matrix, graph), the geodesic matrix
    restricted to the embedded (largest) component: geodesic_matrix.points[r]
    is the point id of its row r and of embedding row r, in floyd_all_pairs'
    pivot order, not sorted.
    """
    return _embed(data, data, cfg)


def _embed(data, source, cfg):
    """isomap_embed's three values, with the graph built from source: data
    itself, or a KnnTable that knn_table made of data for this cell among
    others."""
    with _stage("neighbor graph"):
        graph = build_graph(source, cfg, cfg.method)
    with _stage("shortest paths"):
        gm = floyd_all_pairs(graph)
    # rebinding gm frees the full matrix once a component has been cut out
    _, gm, _ = largest_component(gm, data)
    with _stage("classical MDS"):
        emb = classical_mds(gm, cfg.m)
    return emb, gm, graph


@dataclass(frozen=True)
class ReportRow:
    k: int
    method: str
    residual_variance: float
    n_embedded: int
    n_dropped: int
    n_edges: int
    clipped_dims: int
    error: str | None = None


def compare_methods(data, cells):
    """A tuple of one ReportRow per cell, a RunConfig, in the cells' order:
    what isomap_embed and residual_variance give for that cell alone.

    One KnnTable serves every cell (knn_table), so each distinct cell is
    checked once, and the n x n distances are computed once and freed
    before the first cell runs. A failed cell (selector degeneracy,
    disconnection artifacts, config invalid for this data) is recorded as a
    marker row with residual variance NaN and all points counted as
    dropped, instead of aborting the sweep.
    """
    table = knn_table(data, [(cfg, cfg.method) for cfg in cells])
    return tuple(_run_cell(table, cfg) for cfg in cells)


def _run_cell(table, cfg):
    """One compare_methods cell as its ReportRow, from the sweep's
    KnnTable. The cell's graph, geodesic matrix and embedding are locals
    here, so they are freed before the next cell builds its graph, whether
    this cell succeeded or not; only the table's O(n * k) arrays outlive
    it."""
    data = table.data
    try:
        emb, gm, graph = _embed(data, table, cfg)
        rv = residual_variance(gm, emb)
    except (TopoStableError, ValueError) as exc:
        return ReportRow(
            k=cfg.k,
            method=cfg.method,
            residual_variance=float("nan"),
            n_embedded=0,
            n_dropped=data.n,
            n_edges=0,
            clipped_dims=0,
            error=str(exc),
        )
    return ReportRow(
        k=cfg.k,
        method=cfg.method,
        residual_variance=rv,
        n_embedded=gm.n,
        n_dropped=data.n - gm.n,
        n_edges=graph.n_edges,
        clipped_dims=emb.n_clipped,
    )


def _fmt(x):
    return f"{x:.17g}"


@contextlib.contextmanager
def _open_out(path_or_file):
    if hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            yield fh


def write_embedding_csv(emb, points, labels, out):
    """Embedding rows as `index,label,y1..ym` with 17 significant digits,
    in ascending point id.

    points maps embedding rows, in any order, to original point ids, as
    GeodesicMatrix.points does; labels (length of the original dataset) may
    be None, in which case -1 is written so the file stays fully numeric.
    """
    points = np.asarray(points, dtype=np.int64)
    if points.size != emb.coords.shape[0]:
        raise ValueError("points length must match the embedding row count")
    order = np.argsort(points, kind="stable")
    with _open_out(out) as fh:
        fh.write("index,label," + ",".join(f"y{j + 1}" for j in range(emb.m)) + "\n")
        for row, orig in zip(order, points[order]):
            lab = -1 if labels is None else int(labels[orig])
            coords = ",".join(_fmt(c) for c in emb.coords[row])
            fh.write(f"{int(orig)},{lab},{coords}\n")


def write_report_csv(rows, out):
    """compare_methods' rows as CSV; failed cells carry residual_variance=nan."""
    with _open_out(out) as fh:
        fh.write("k,method,residual_variance,n_embedded,n_dropped,n_edges,clipped_dims\n")
        for r in rows:
            fh.write(
                f"{r.k},{r.method},{_fmt(r.residual_variance)},"
                f"{r.n_embedded},{r.n_dropped},{r.n_edges},{r.clipped_dims}\n"
            )


_SVG_WIDTH, _SVG_HEIGHT = 640, 480  # pixels

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _axis_range(values):
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:  # degenerate extent: fall back to a unit box
        return lo - 0.5, hi + 0.5
    margin = 0.05 * (hi - lo)
    return lo - margin, hi + margin


def write_scatter_svg(emb, labels, out):
    """Static SVG scatter of the first two embedding coordinates.

    One circle per embedding row, drawn in row order; fill color keyed by
    label when labels are given, one per row.
    """
    if emb.m < 2:
        raise BadDimError("scatter plot needs an embedding with m >= 2")
    x, y = emb.coords[:, 0], emb.coords[:, 1]
    x0, x1 = _axis_range(x)
    y0, y1 = _axis_range(y)
    px = (x - x0) / (x1 - x0) * _SVG_WIDTH
    py = (1.0 - (y - y0) / (y1 - y0)) * _SVG_HEIGHT

    if labels is None:
        colors = [_PALETTE[0]] * emb.coords.shape[0]
    else:
        order = {lab: i for i, lab in enumerate(sorted(set(int(v) for v in labels)))}
        colors = [_PALETTE[order[int(v)] % len(_PALETTE)] for v in labels]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for cx, cy, color in zip(px, py, colors):
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="{color}"/>')
    parts.append("</svg>")
    with _open_out(out) as fh:
        fh.write("\n".join(parts) + "\n")
