"""Geodesic distances on the neighbor graph and classical MDS embedding.

All-pairs shortest paths approximate manifold geodesics; the embedding
comes from the top eigenpairs of the doubly-centered negative half
squared-distance matrix. The all-pairs step is one numpy Floyd-Warshall
(floyd_all_pairs) whose result equals the plain recurrence entry for entry.

Past all-pairs shortest paths, each stage holds at most two n x n buffers
beyond the geodesic matrix and none modifies it: centering fills one new
buffer in place, the eigensolver computes only the top m pairs
(linalg.symmetric_eigen_top), and residual variance gathers the upper
triangles row by row.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDimError, NonFiniteError
from .linalg import pearson_r, symmetric_eigen_top

__all__ = [
    "GeodesicMatrix",
    "Embedding",
    "floyd_all_pairs",
    "largest_component",
    "double_center",
    "classical_mds",
    "residual_variance",
]


@dataclass(frozen=True)
class GeodesicMatrix:
    """Geodesic distances (all-pairs shortest paths); inf marks unreachable pairs.

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

    @property
    def m(self):
        """Embedding dimension: the number of coordinate columns."""
        return self.coords.shape[1]

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


def floyd_all_pairs(g):
    """Exact all-pairs shortest paths via Floyd-Warshall."""
    d = _floyd_in_place(g.to_dense_weights())
    return GeodesicMatrix(d=d, component_ids=_component_ids(d))


def largest_component(gm, data):
    """Restrict a geodesic matrix and dataset to the largest component.

    Ties are broken in favor of the component containing the smallest
    point index. Returns (sub_data, sub_gm, kept_indices) where
    kept_indices maps restricted rows back to original ids. When nothing
    is dropped, data and gm come back as they are, not copied.
    """
    counts = np.bincount(gm.component_ids)
    keep_id = int(np.argmax(counts))
    kept = np.flatnonzero(gm.component_ids == keep_id)
    if kept.size == gm.n:
        return data, gm, kept
    sub = GeodesicMatrix(
        d=gm.d[np.ix_(kept, kept)],
        component_ids=np.zeros(kept.size, dtype=np.int64),
    )
    return data.subset(kept), sub, kept


def double_center(s):
    """-H s H / 2 with H the centering matrix I - ones/n.

    Row and column sums of the result are zero (up to round-off). Raises
    NonFiniteError on inf/NaN entries: restrict to one component first.
    The result is one new buffer, centered in place; s is not modified.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(s)):
        raise NonFiniteError("matrix has non-finite entries")
    out = s - s.mean(axis=1)[:, None]
    out -= s.mean(axis=0)[None, :]
    out += s.mean()
    out *= -0.5
    return out


def classical_mds(gm, m):
    """Classical scaling of squared geodesic distances into m dimensions.

    Coordinate column j is sqrt(max(lambda_j, 0)) times eigenvector j of
    the doubly-centered matrix; negative-eigenvalue columns collapse to
    zero (see Embedding.n_clipped). gm.d is left as it is: its squares go
    to a temporary that double_center turns into one new centered buffer,
    and only the top m eigenpairs of that are computed
    (linalg.symmetric_eigen_top).
    """
    n = gm.n
    if not 1 <= m <= n - 1:
        raise BadDimError(f"m must be in [1, {n - 1}], got {m}")
    if not np.all(np.isfinite(gm.d)):
        raise NonFiniteError("geodesic matrix spans multiple components")
    eig = symmetric_eigen_top(double_center(np.square(gm.d)), m)
    coords = eig.vectors * np.sqrt(np.maximum(eig.values, 0.0))[None, :]
    return Embedding(coords=coords, eigenvalues=eig.values)


def residual_variance(gm, emb):
    """1 - R^2 between geodesic and embedded pairwise distances.

    The correlation runs over the strict upper triangles, excluding the
    zero diagonal. 0 means the embedding explains the geodesic structure
    perfectly (up to uniform scaling). Both triangles are gathered row by
    row, in np.triu_indices order, into two preallocated vectors, and the
    embedded distances are computed one row at a time: no (n, n, m)
    difference tensor and no index arrays.
    """
    n = gm.n
    if emb.coords.shape[0] != n:
        raise ValueError("embedding and geodesic matrix cover different point sets")
    if not np.all(np.isfinite(gm.d)):
        raise NonFiniteError("geodesic matrix spans multiple components")
    coords = emb.coords
    geo = np.empty(n * (n - 1) // 2)
    euclid = np.empty_like(geo)
    lo = 0
    for i in range(n - 1):
        hi = lo + n - 1 - i
        geo[lo:hi] = gm.d[i, i + 1:]
        diff = coords[i] - coords[i + 1:]
        np.sqrt(np.einsum("jk,jk->j", diff, diff), out=euclid[lo:hi])
        lo = hi
    r = pearson_r(geo, euclid)
    return max(0.0, 1.0 - r * r)
