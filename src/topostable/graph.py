"""Weighted neighborhood graph construction.

build_graph offers two selection rules (METHODS): plain k-nearest-neighbor
selection, and a topology-aware rule that keeps a far candidate only when
its offset is close to orthogonal (90 degrees within a window) to a vector
from the orthogonal complement of the local subspace spanned by the nearest
neighbors. The filter suppresses "bridge" edges between nearby manifold folds.

Both rules start from build_graph's (n, k) kNN table. The stable rule turns
it into a keep-mask, one row per point, using linalg's projection step for
the local basis and the complement vector and its angle step for the window;
either way the graph is the union of the kept (point, candidate) pairs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, DegenerateComplementError, KTooLargeError
from .linalg import _angles_deg, _project_out

__all__ = [
    "DataSet",
    "SelectorConfig",
    "NeighborGraph",
    "build_graph",
]

METHODS = ("standard", "stable")  # the selection rules build_graph offers

EDGE_BLOCK_BYTES = 1 << 20  # size of one gathered endpoint block in build_graph


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
    half-width of the acceptance window around 90 degrees.
    """

    k: int
    dim_w: int = 2
    delta_theta_deg: float = 5.0

    def check(self, data, stable=True):
        """Validate against a dataset. Angle-filter fields are only
        constrained when the stable selector will actually run."""
        if self.k < 1:
            raise ValueError("k must be positive")
        if stable:
            if self.dim_w < 1:
                raise ValueError("dim_w must be positive")
            if self.k < self.dim_w + 1:
                raise ValueError("k must be at least dim_w + 1")
            if not 0.0 < self.delta_theta_deg < 90.0:
                raise ValueError("delta_theta_deg must lie strictly between 0 and 90")
            if self.dim_w >= data.dim:
                raise ValueError("dim_w must be smaller than the ambient dimension")


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

    def to_dense_weights(self):
        """Dense (n, n) weight matrix: 0 on the diagonal, inf off-edges."""
        d = np.full((self.n, self.n), np.inf)
        np.fill_diagonal(d, 0.0)
        i, j = self.edges[:, 0], self.edges[:, 1]
        d[i, j] = self.weights
        d[j, i] = self.weights
        return d


def _pairwise_sq(points):
    """Squared Euclidean distances via the Gram matrix (fast, used for
    ordering only; edge weights are recomputed exactly per pair)."""
    g = points @ points.T
    sq = np.diag(g).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * g
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _stable_select(points, p, nbrs, d2_row, cfg):
    """Angle-filtered neighbor selection for one point.

    nbrs: ascending-distance candidate indices for p. d2_row: squared
    distances from p to all points (used to pick the far probe point).
    Returns a boolean keep-mask over nbrs.
    """
    x_p = points[p]
    diffs = points[nbrs] - x_p
    norms = np.linalg.norm(diffs, axis=1)
    coincident = norms == 0.0  # duplicates: connected unconditionally, unusable for the basis

    # Basis of the local subspace: walk candidates in distance order and
    # keep dim_w offsets that survive Gram-Schmidt against those already kept.
    basis = []
    for idx in np.flatnonzero(~coincident):
        r = _project_out(diffs[idx], basis)
        if r is not None:
            basis.append(r)
            if len(basis) == cfg.dim_w:
                break
    if len(basis) < cfg.dim_w:
        raise DegenerateBasisError(
            f"only {len(basis)} independent offsets among {len(nbrs)} candidates"
        )

    # Complement vector from a probe point outside the candidate set: the
    # farthest one that does not lie in the subspace (argmax takes the
    # lowest index among equal distances; a tried probe is masked out).
    far = d2_row.copy()
    far[p] = -np.inf
    far[nbrs] = -np.inf
    w_perp = None
    while w_perp is None:
        q = int(np.argmax(far))
        if far[q] == -np.inf:
            break
        w_perp = _project_out(points[q] - x_p, basis)
        far[q] = -np.inf
    if w_perp is None:
        raise DegenerateComplementError("no probe point outside the neighborhood spans the complement")

    # The dim_w nearest (and any duplicates) stay unconditionally; farther
    # candidates must fall inside the 90 +- delta_theta window against the
    # complement vector.
    keep = coincident.copy()
    keep[: cfg.dim_w] = True
    rest = np.flatnonzero(~keep)
    if rest.size:
        theta = _angles_deg(diffs[rest], norms[rest], w_perp)
        keep[rest[np.abs(theta - 90.0) <= cfg.delta_theta_deg]] = True
    return keep


def build_graph(data, cfg, method="standard"):
    """Neighborhood graph under either selection rule, symmetrized by union.

    An edge (i, j) is present when either endpoint selected the other;
    weights are exact Euclidean distances. Selector failures are re-raised
    with the offending point index prepended.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cfg.check(data, stable=method == "stable")
    points = data.points
    n = data.n
    if cfg.k >= n:
        raise KTooLargeError(f"k={cfg.k} but only {n} points are available")

    # kNN table: rows sorted by the computed squared distances, ties broken
    # by index, self forced first and dropped. The Gram product can round the
    # distances to two identical rows differently; the rounding then decides.
    d2 = _pairwise_sq(points)
    np.fill_diagonal(d2, -1.0)
    nn = np.argsort(d2, axis=1, kind="stable")[:, 1 : cfg.k + 1]
    np.fill_diagonal(d2, 0.0)

    keep = np.ones(nn.shape, dtype=bool)
    if method == "stable":
        for p in range(n):
            try:
                keep[p] = _stable_select(points, p, nn[p], d2[p], cfg)
            except (DegenerateBasisError, DegenerateComplementError) as exc:
                raise type(exc)(f"point {p}: {exc}") from exc

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
