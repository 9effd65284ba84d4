"""Geodesic distances on the neighbor graph and classical MDS embedding.

All-pairs shortest paths approximate manifold geodesics; the embedding
comes from the top eigenpairs of the doubly-centered negative half
squared-distance matrix. Floyd-Warshall is the default all-pairs
algorithm; repeated Dijkstra is the slower cross-check. Both are plain
numpy and agree within 1e-12.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimError, NonFiniteError
from .linalg import pearson_r, symmetric_eigen_top

__all__ = [
    "GeodesicMatrix",
    "Embedding",
    "floyd_all_pairs",
    "dijkstra_all_pairs",
    "largest_component",
    "double_center",
    "classical_mds",
    "residual_variance",
]


@dataclass(frozen=True)
class GeodesicMatrix:
    """All-pairs shortest-path distances; inf marks unreachable pairs.

    component_ids numbers connected components by first appearance, so the
    component containing the lowest point index gets id 0.
    """

    d: np.ndarray
    component_ids: np.ndarray

    @property
    def n(self):
        return self.d.shape[0]


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates, one row per point.

    Column j equals sqrt(max(eigenvalue_j, 0)) times the j-th unit
    eigenvector, so columns are mutually orthogonal and ordered by
    descending eigenvalue.
    """

    coords: np.ndarray
    eigenvalues: np.ndarray
    m: int

    @property
    def n_clipped(self):
        """Number of retained dimensions whose eigenvalue was negative
        (their coordinate columns are zeroed)."""
        return int(np.sum(self.eigenvalues < 0.0))


def _component_ids(d):
    n = d.shape[0]
    ids = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for i in range(n):
        if ids[i] < 0:
            ids[np.isfinite(d[i])] = next_id
            next_id += 1
    return ids


# Rows updated per numpy call: a (_CHUNK, n) float64 block stays in cache.
_CHUNK = 64


def _floyd_in_place(d):
    """Floyd-Warshall on a dense (n, n) weight matrix with a zero diagonal.

    Step k is the textbook relaxation d[i, j] = min(d[i, j], d[i, k] +
    d[k, j]), in the same order of k, and the result equals that of the
    plain full-matrix recurrence entry for entry. Two shortcuts keep it
    exact. Row k and column k do not change during step k (d[k, k] is 0),
    so rows can be updated one chunk at a time. A row with d[i, k] = inf
    cannot change (NeighborGraph rejects NaN weights), so while fewer than
    half the rows reach k only those rows are gathered and updated.
    """
    n = d.shape[0]
    step = np.empty((min(_CHUNK, n), n))
    rows = np.empty_like(step)
    for k in range(n):
        dk = d[k]
        reach = np.flatnonzero(d[:, k] < np.inf)
        if 2 * reach.size < n:
            for lo in range(0, reach.size, _CHUNK):
                idx = reach[lo:lo + _CHUNK]
                r, s = rows[:idx.size], step[:idx.size]
                np.take(d, idx, axis=0, out=r)
                np.add(r[:, k, None], dk, out=s)
                np.minimum(r, s, out=r)
                d[idx] = r
        else:
            for lo in range(0, n, _CHUNK):
                blk = d[lo:lo + _CHUNK]
                s = step[:blk.shape[0]]
                np.add(blk[:, k, None], dk, out=s)
                np.minimum(blk, s, out=blk)
    return d


def _dijkstra_all(indptr, indices, weights, n):
    """Per-source Dijkstra (linear-scan selection) over CSR adjacency."""
    out = np.empty((n, n))
    for s in range(n):
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        visited = np.zeros(n, dtype=bool)
        for _ in range(n):
            masked = np.where(visited, np.inf, dist)
            u = int(np.argmin(masked))
            if masked[u] == np.inf:
                break
            visited[u] = True
            lo, hi = indptr[u], indptr[u + 1]
            nbr = indices[lo:hi]
            cand = dist[u] + weights[lo:hi]
            better = cand < dist[nbr]
            dist[nbr[better]] = cand[better]
        out[s] = dist
    return out


def floyd_all_pairs(g):
    """Exact all-pairs shortest paths via Floyd-Warshall (the default)."""
    d = _floyd_in_place(g.to_dense_weights())
    return GeodesicMatrix(d=d, component_ids=_component_ids(d))


def dijkstra_all_pairs(g):
    """Exact all-pairs shortest paths via per-source Dijkstra.

    Same contract as floyd_all_pairs; outputs agree within 1e-12. Its
    per-source Python loop is much slower than Floyd-Warshall, so it
    serves as the cross-check.
    """
    indptr, indices, weights = g.to_csr()
    d = _dijkstra_all(indptr, indices, weights, g.n)
    return GeodesicMatrix(d=d, component_ids=_component_ids(d))


def largest_component(gm, data):
    """Restrict a geodesic matrix and dataset to the largest component.

    Ties are broken in favor of the component containing the smallest
    point index. Returns (sub_data, sub_gm, kept_indices) where
    kept_indices maps restricted rows back to original ids.
    """
    counts = np.bincount(gm.component_ids)
    keep_id = int(np.argmax(counts))
    kept = np.flatnonzero(gm.component_ids == keep_id)
    sub = GeodesicMatrix(
        d=gm.d[np.ix_(kept, kept)].copy(),
        component_ids=np.zeros(kept.size, dtype=np.int64),
    )
    return data.subset(kept), sub, kept


def double_center(s):
    """-H s H / 2 with H the centering matrix I - ones/n.

    Row and column sums of the result are zero (up to round-off). Raises
    NonFiniteError on inf/NaN entries: restrict to one component first.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("matrix has non-finite entries")
    row = s.mean(axis=1, keepdims=True)
    col = s.mean(axis=0, keepdims=True)
    return -0.5 * (s - row - col + s.mean())


def classical_mds(gm, m):
    """Classical scaling of squared geodesic distances into m dimensions.

    Coordinate column j is sqrt(max(lambda_j, 0)) times eigenvector j of
    the doubly-centered matrix; negative-eigenvalue columns collapse to
    zero (see Embedding.n_clipped).
    """
    n = gm.n
    if not 1 <= m <= n - 1:
        raise BadDimError(f"m must be in [1, {n - 1}], got {m}")
    if not np.all(np.isfinite(gm.d)):
        raise NonFiniteError("geodesic matrix spans multiple components")
    b = double_center(gm.d**2)
    eig = symmetric_eigen_top(b, m)
    coords = eig.vectors * np.sqrt(np.maximum(eig.values, 0.0))[None, :]
    return Embedding(coords=coords, eigenvalues=eig.values, m=m)


def _pairwise_euclid(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def residual_variance(gm, emb):
    """1 - R^2 between geodesic and embedded pairwise distances.

    The correlation runs over the strict upper triangles, excluding the
    zero diagonal. 0 means the embedding explains the geodesic structure
    perfectly (up to uniform scaling).
    """
    n = gm.n
    if emb.coords.shape[0] != n:
        raise ValueError("embedding and geodesic matrix cover different point sets")
    if not np.all(np.isfinite(gm.d)):
        raise NonFiniteError("geodesic matrix spans multiple components")
    iu = np.triu_indices(n, 1)
    r = pearson_r(gm.d[iu], _pairwise_euclid(emb.coords)[iu])
    return max(0.0, 1.0 - r * r)
