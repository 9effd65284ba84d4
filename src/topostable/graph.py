"""Weighted neighborhood graph construction.

build_graph offers two selection rules (METHODS): plain k-nearest-neighbor
selection, and a topology-aware rule that keeps a far candidate only when
its offset is close to orthogonal (90 degrees within a window) to a vector
from the orthogonal complement of the local subspace spanned by the nearest
neighbors. The filter suppresses "bridge" edges between nearby manifold folds.

Both rules start from build_graph's (n, k) kNN table (_knn_indices), which
is the stable argsort's: each row in ascending squared distance, ties
broken by index. The stable rule turns it into a keep-mask, one row per
point, on blocks of rows (_stable_block): a Gram-Schmidt basis walk over
the candidates (_project_out_rows), the complement vector from the farthest
probe outside the subspace, and the angle window. Every row takes this one
path. A duplicate of the point, or an offset whose squares underflow,
needs none of its own: its offset has norm 0, so the projection rejects it
from the basis (0 <= TOL_RANK * 0), and in the window its cosine, taken
against a norm of 1, is at most its true norm, which rounds to 90 degrees:
the candidate stays. The graph is the union of the kept (point, candidate)
pairs.

The table and the keep-masks come from knn_table, for the one cell of a
build_graph call on a DataSet, or once for all the cells of a sweep, which
then passes the KnnTable to build_graph in place of the DataSet. The table
at a smaller k is the prefix of the table at the largest k, entry for
entry, since both are the stable argsort's; so one table serves every k,
and each cell's edges are what its own build would give.

knn_table holds one n x n buffer: the squared distances, computed in place
over the Gram product (_pairwise_sq), and freed when it returns. The kNN
table and the keep-mask are made a block of at most ROW_BLOCK rows at a
time, and a selector block's (block, k, d) offsets stay near
EDGE_BLOCK_BYTES, so the other scratch is O(ROW_BLOCK * n) plus a few
EDGE_BLOCK_BYTES blocks plus the O(n * k) table and masks. A row whose
farthest probe lies in its subspace holds one (probes, d) offset stack,
which is at most the size of the input.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfigError,
    DegenerateBasisError,
    DegenerateComplementError,
    KTooLargeError,
    NonFiniteError,
    TopoStableError,
)
from .linalg import ROW_BLOCK, _small_ufunc_buffer

__all__ = [
    "DataSet",
    "SelectorConfig",
    "NeighborGraph",
    "build_graph",
]

METHODS = ("standard", "stable")  # the selection rules build_graph offers

EDGE_BLOCK_BYTES = 1 << 20  # size of one gathered block of edge ends or selector offsets

# Relative tolerance for declaring a residual numerically zero (collinear
# neighbors, probe point inside the subspace). Comfortably above double
# precision noise, far below any meaningful geometric angle.
TOL_RANK = 1e-9


@dataclass(frozen=True)
class DataSet:
    """N points in R^D, one sample per row, with optional integer labels."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] < 2:
            raise ValueError("points must be an (n, d) matrix with d >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (pts.shape[0],):
                raise ValueError("labels must be one integer per point")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    def subset(self, idx):
        """New DataSet restricted to the given row indices (order preserved)."""
        lab = None if self.labels is None else self.labels[idx]
        return DataSet(self.points[idx], lab)


@dataclass(frozen=True)
class SelectorConfig:
    """Knobs for neighbor selection.

    k: candidate neighbor count. dim_w: dimension of the local subspace
    (number of nearest-neighbor offsets kept as its basis). delta_theta_deg:
    half-width of the acceptance window around 90 degrees. Construction
    refuses a k below 1, _check_stable what the stable rule never takes.
    """

    k: int
    dim_w: int = 2
    delta_theta_deg: float = 5.0

    def __post_init__(self):
        if self.k < 1:
            raise BadConfigError("k must be positive")

    def _check_stable(self):
        if self.dim_w < 1:
            raise BadConfigError("dim_w must be positive")
        if not 0.0 < self.delta_theta_deg < 90.0:
            raise BadConfigError("delta_theta_deg must lie strictly between 0 and 90")


@dataclass(frozen=True)
class NeighborGraph:
    """Symmetric weighted graph over data points.

    Each undirected edge is stored once with i < j; weights are Euclidean
    distances. Logical symmetry (i, j, w) <-> (j, i, w) is implied.
    """

    n: int
    edges: np.ndarray    # (e, 2) int64, i < j, lexicographically sorted
    weights: np.ndarray  # (e,) float64

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if e.shape[0] != w.shape[0]:
            raise ValueError("edges and weights must have equal length")
        if e.size and (np.any(e[:, 0] >= e[:, 1]) or np.any(e < 0) or np.any(e >= self.n)):
            raise ValueError("edges must satisfy 0 <= i < j < n")
        if not np.all(w >= 0.0):
            raise ValueError("weights must be non-negative numbers (NaN is rejected)")
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "weights", w)

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def to_dense_weights(self, places):
        """Dense (n, n) weights with point i at row and column places[i], for a
        permutation places of range(n): 0 on the diagonal, inf off-edges."""
        d = np.full((self.n, self.n), np.inf)
        np.fill_diagonal(d, 0.0)
        i, j = places[self.edges[:, 0]], places[self.edges[:, 1]]
        d[i, j] = self.weights
        d[j, i] = self.weights
        return d


def _pairwise_sq(points):
    """Squared Euclidean distances via the Gram matrix (fast, used for
    ordering only; edge weights are recomputed exactly per pair).

    Entry (i, j) is (sq_i + sq_j) - 2 g_ij, written over the Gram product
    g one block of rows at a time, so the result is the only n x n buffer.
    """
    g = points @ points.T
    sq = np.diag(g).copy()
    g *= 2.0
    with _small_ufunc_buffer():
        for lo in range(0, len(sq), ROW_BLOCK):
            blk = slice(lo, lo + ROW_BLOCK)
            np.subtract(sq[blk, None] + sq[None, :], g[blk], out=g[blk])
        np.maximum(g, 0.0, out=g)
    np.fill_diagonal(g, 0.0)
    return g


def _knn_indices(d2, k):
    """(n, k) kNN table: each row's other points in ascending d2, ties
    broken by index, cut at k. It is the stable argsort's table, entry for
    entry, and d2 is left as it was.

    The diagonal is set to -1 so that self comes first and is dropped, then
    restored to 0. In each block of ROW_BLOCK rows, argpartition finds the
    (k + 1)-th smallest value of each row, the cut. Every entry up to and
    including the cut is kept, so every tie at the cut comes along, and the
    kept entries are sorted by (value, index); the first k + 1 of them are
    the stable argsort's first k + 1.
    """
    n = d2.shape[0]
    np.fill_diagonal(d2, -1.0)
    nn = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, ROW_BLOCK):
        blk = d2[lo : lo + ROW_BLOCK]
        cut = np.take_along_axis(blk, np.argpartition(blk, k, axis=1)[:, k : k + 1], axis=1)
        rows, cols = np.divmod(np.flatnonzero(blk <= cut), n)  # rows ascend
        order = np.lexsort((cols, blk[rows, cols], rows))
        first = np.searchsorted(rows, np.arange(len(blk)))
        nn[lo : lo + ROW_BLOCK] = cols[order[first[:, None] + np.arange(1, k + 1)]]
    np.fill_diagonal(d2, 0.0)
    return nn


def _dots(a, b):
    """Row-wise dot products of two (m, d) stacks. Each is one np.dot of
    two vectors (matmul hands a 1 x d by d x 1 product to the same BLAS
    dot), so each equals np.dot(a[i], b[i]) bit for bit."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _project_out_rows(d, basis):
    """Gram-Schmidt step on a stack: row i of d minus its projections on row
    i of each (vector, squared norm) pair in ``basis``, in order; a zero
    vector with squared norm 1 leaves the row as it was. Returns (r, ok), ok
    False where the residual is numerically zero: |r| <= TOL_RANK * |d|."""
    r = d.copy()
    for b, bb in basis:
        r -= (_dots(r, b) / bb)[:, None] * b
    ok = ~(np.sqrt(_dots(r, r)) <= TOL_RANK * np.sqrt(_dots(d, d)))  # ~(<=), not >: NaN passes
    return r, ok


def _stable_block(points, lo, nbrs, d2_rows, cfg):
    """(m, k) keep-mask of the stable rule for points[lo:lo + m], with
    candidates nbrs (ascending distance) and squared-distance rows d2_rows.

    Each row's basis slots start as zero vectors, so rows holding fewer
    offsets share each step of the basis walk. Every row projects its
    farthest probe; a row whose probe lies in the subspace projects all of
    its probes at once and takes the farthest that leaves it. The window is
    one matrix-vector product per row. Raises DegenerateBasisError or
    DegenerateComplementError, "point p: ...", for the lowest failing row.
    """
    dim_w = cfg.dim_w
    m, k = nbrs.shape
    x = points[lo:lo + m]
    diffs = points[nbrs]
    diffs -= x[:, None, :]

    basis = np.zeros((dim_w,) + x.shape)
    sq = np.ones((dim_w, m))  # squared norms, 1 in unfilled slots
    held = np.zeros(m, dtype=np.int64)
    pend = np.arange(m)
    for c in range(k):  # before column c a row holds at most c offsets
        if not pend.size:
            break
        at = slice(None) if len(pend) == m else pend  # views while every row is pending
        r, ok = _project_out_rows(diffs[at, c], [(basis[s, at], sq[s, at]) for s in range(min(c, dim_w))])
        got, r = pend[ok], r[ok]
        basis[held[got], got] = r
        sq[held[got], got] = _dots(r, r)
        held[got] += 1
        pend = pend[held[pend] < dim_w]
    failed = held < dim_w

    # far: the d2 rows with the point and its candidates masked, so argmax
    # is the farthest probe, the lowest index among equal distances; a row
    # whose probe lies in the subspace, or that has none, scans them all
    far = d2_rows.copy()
    own = np.arange(m)
    far[own, lo + own] = -np.inf
    far[own[:, None], nbrs] = -np.inf
    q = np.argmax(far, axis=1)
    w, ok = _project_out_rows(points[q] - x, [(basis[s], sq[s]) for s in range(dim_w)])
    for i in np.flatnonzero(~ok | (far[own, q] == -np.inf)):
        probes = np.flatnonzero(far[i] != -np.inf)  # ascending, so argmax keeps the tie rule
        offs = points[probes] - x[i]
        r, ok = _project_out_rows(offs, [(np.broadcast_to(basis[s, i], offs.shape), sq[s, i]) for s in range(dim_w)])
        if not ok.any():
            failed[i] = True
            break  # no later row of the block can be the one named
        w[i] = r[ok][np.argmax(far[i, probes[ok]])]

    if failed.any():
        i = int(np.argmax(failed))
        if held[i] < dim_w:
            raise DegenerateBasisError(f"point {lo + i}: only {held[i]} independent offsets among {k} candidates")
        raise DegenerateComplementError(f"point {lo + i}: no probe point outside the neighborhood spans the complement")

    rest = diffs[:, dim_w:]
    norms = np.linalg.norm(rest, axis=2)
    norms[norms == 0.0] = 1.0  # a zero offset's cosine is then 0: it stays
    cosines = (rest @ w[:, :, None])[:, :, 0] / (norms * np.sqrt(_dots(w, w))[:, None])
    theta = np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0)))
    keep = np.ones((m, k), dtype=bool)
    keep[:, dim_w:] = np.abs(theta - 90.0) <= cfg.delta_theta_deg
    return keep


def _stable_keep(points, nn, d2, cfg):
    """(n, k) keep-mask of the stable rule over the kNN table nn, by
    _stable_block on ascending row ranges of at most ROW_BLOCK rows, whose
    (block, k, d) offsets stay near EDGE_BLOCK_BYTES; the first failing
    point is the one named, as in a walk over every point."""
    n, k = nn.shape
    step = max(1, min(ROW_BLOCK, EDGE_BLOCK_BYTES // (8 * k * points.shape[1])))
    keep = np.empty(nn.shape, dtype=bool)
    for lo in range(0, n, step):
        keep[lo:lo + step] = _stable_block(points, lo, nn[lo:lo + step], d2[lo:lo + step], cfg)
    return keep


def _check_method(method):
    if method not in METHODS:
        raise BadConfigError(f"method must be one of {METHODS}, got {method!r}")


def _check_cell(data, cfg, method):
    """Raises build_graph's refusal of a cell, in its order: the method
    (_check_method) and the stable rule's settings (BadConfigError), k against
    n (KTooLargeError), then squared distances that would overflow
    (NonFiniteError, naming the point of largest magnitude)."""
    _check_method(method)
    if method == "stable":
        cfg._check_stable()
        if cfg.k < cfg.dim_w + 1:
            raise BadConfigError("k must be at least dim_w + 1")
        if cfg.dim_w >= data.dim:
            raise BadConfigError("dim_w must be smaller than the ambient dimension")
    if cfg.k >= data.n:
        raise KTooLargeError(f"k={cfg.k} but only {data.n} points are available")
    # every squared distance, Gram entry and selector dot product is at most
    # 4 D max|x|^2; Python floats overflow to inf without a numpy warning
    points = data.points
    top = max(-float(points.min()), float(points.max()))
    if not math.isfinite(4.0 * data.dim * top * top):
        p = int(np.abs(points).argmax()) // data.dim
        raise NonFiniteError(f"point {p}: a coordinate of magnitude {top:.3g} overflows the squared distances in float64")


def _cell_key(cfg, method):
    return method, cfg.k, cfg.dim_w, cfg.delta_theta_deg


@dataclass(frozen=True)
class KnnTable:
    """What build_graph needs of a DataSet for a set of cells, made once by
    knn_table, which build_graph takes in place of the DataSet.

    nn is the (n, k) kNN table at the largest k among the cells not
    refused, or None, and the table at a smaller k is its prefix. masks maps
    each cell, by method and selector settings, to its (n, k) keep-mask, or
    to its refusal or selector error, stored with no traceback: one would
    hold knn_table's frame, and so the n x n distances.
    """

    data: DataSet
    nn: np.ndarray | None
    masks: dict


def knn_table(data, cells):
    """The KnnTable of data for the (cfg, method) cells of build_graph.

    Each distinct cell is checked once (_check_cell). The squared distances
    are computed once, the kNN table is taken at the largest k among the
    cells not refused, and each such cell's keep-mask from that table's
    prefix. The n x n distances are freed on return, so the table holds
    O(n * k) values. A refusal or a selector failure is kept in the cell's
    entry and raised by that cell's build_graph, so every cell fails as it
    would alone. When every cell is refused, nothing is computed.
    """
    distinct = {_cell_key(cfg, method): (cfg, method) for cfg, method in cells}
    masks = {}
    for key, (cfg, method) in distinct.items():
        try:
            _check_cell(data, cfg, method)
        except (ValueError, TopoStableError) as exc:
            masks[key] = exc.with_traceback(None)
    ready = {key: cell for key, cell in distinct.items() if key not in masks}
    if not ready:
        return KnnTable(data, None, masks)
    # Rows sorted by the computed squared distances. The Gram product can
    # round the distances to two identical rows differently; the rounding
    # then decides.
    d2 = _pairwise_sq(data.points)
    nn = _knn_indices(d2, max(cfg.k for cfg, _ in ready.values()))
    for key, (cfg, method) in ready.items():
        if method == "standard":
            masks[key] = np.ones((data.n, cfg.k), dtype=bool)
            continue
        try:
            masks[key] = _stable_keep(data.points, nn[:, : cfg.k], d2, cfg)
        except (DegenerateBasisError, DegenerateComplementError) as exc:
            masks[key] = exc.with_traceback(None)
    return KnnTable(data, nn, masks)


def build_graph(data, cfg, method="standard"):
    """Neighborhood graph under either selection rule, symmetrized by union.

    An edge (i, j) is present when either endpoint selected the other;
    weights are exact Euclidean distances. data is a DataSet, or a KnnTable
    that knn_table made of one for this cell among others, so that a sweep
    computes the distances and the kNN table once; a DataSet gets a
    KnnTable of this one cell. The edges are the same either way, and so
    are the errors: the cell's refusal (_check_cell), or else a selector
    failure, which names the offending point ("point p: ..."), the lowest
    failing one. The kNN table and the stable keep-mask are made in row
    blocks, but each row is what a walk over one point at a time gives, so
    the edges do not depend on the blocks.
    """
    table = data if isinstance(data, KnnTable) else knn_table(data, [(cfg, method)])
    keep = table.masks[_cell_key(cfg, method)]  # a KeyError: the table was made for other cells
    if isinstance(keep, Exception):
        raise type(keep)(*keep.args)  # a copy, so that the stored error gets no traceback
    data = table.data
    points = data.points
    n = data.n
    nn = table.nn[:, : cfg.k]

    # Union of the kept (p, nn[p, c]) pairs: one key per unordered pair, and
    # ascending keys are the edges in lexicographic (i, j) order.
    rows, pos = np.nonzero(keep)
    cols = nn[rows, pos]
    keys = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols))
    edges = np.column_stack([keys // n, keys % n])
    # Exact weights a block of edges at a time, so the gathered endpoint
    # rows stay near EDGE_BLOCK_BYTES each however large d is.
    block = max(1, EDGE_BLOCK_BYTES // (8 * data.dim))
    weights = np.empty(len(edges))
    for s in range(0, len(edges), block):
        i, j = edges[s : s + block].T
        weights[s : s + block] = np.linalg.norm(points[i] - points[j], axis=1)
    return NeighborGraph(n=n, edges=edges, weights=weights)
