"""Geodesic distances on the neighbor graph and classical MDS embedding.

All-pairs shortest paths approximate manifold geodesics; the embedding
comes from the top eigenpairs of the doubly-centered negative half
squared-distance matrix. The all-pairs step is one numpy Floyd-Warshall
(floyd_all_pairs) whose result equals the plain recurrence entry for entry.
It takes the steps in panels of 64 pivots: the caller first runs a panel on
the pivots' own rows, saving each pivot row, and then every other row runs
the panel against the saved rows. From n = 1024 on those rows are shared by
two threads when the process's affinity mask holds two CPUs or more
(taskset restricts them; more threads were never measured): each thread
updates its own row chunks with its own scratch, which the caller
allocates, and with numpy's ufunc buffer size set in that thread, and the
caller waits for them once per panel, so the result is bitwise the same on
any number of threads. No thread outlives the call, also when a step
raises.

Past all-pairs shortest paths, each stage holds at most one n x n buffer
beyond the geodesic matrix and none modifies it: centering squares the
distances into one new buffer and centers it in place, the eigensolver
computes only the top m pairs (linalg.symmetric_eigen_top), and residual
variance gathers the upper triangles row by row into two half-size vectors
and centers them in place (one n x n buffer in all). With the geodesic
matrix itself, a run peaks at two n x n float64 buffers.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadDimError, NonFiniteError, ZeroVarianceError
from .linalg import symmetric_eigen_top

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


# Rows updated per numpy call, and pivots per panel: a (_CHUNK, n) float64
# block stays in cache.
_CHUNK = 64
# Floyd runs on the calling thread alone below this n, where a second thread
# saved nothing measurable. On a 2-vCPU AVX-512 Xeon (Swiss roll, k=10,
# stable, 4-5 runs each), two threads took 0.21-0.24 s at n=800 against
# 0.21-0.28 s for one, 0.38-0.47 s at n=1024 against 0.49-0.56 s, and
# 1.34-1.55 s at n=1600 against 2.07-2.22 s. Waiting once per panel (best
# of 3 runs, 3 rounds), two threads took 0.039-0.049 s at n=400 against
# 0.039-0.040 s, 0.22-0.32 s at n=800 against 0.24-0.25 s, and 0.39-0.43 s
# at n=1024 against 0.46-0.48 s.
_THREADS_FROM_N = 1024
# Most threads Floyd runs on, however many CPUs the process may use: the
# gain was measured at 2 only (see _THREADS_FROM_N), and with more threads
# each one's share shrinks toward one 64-row chunk while the Python code
# between its numpy calls still needs the GIL.
_MAX_WORKERS = 2


def _cpu_count():
    """CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else every CPU (macOS and Windows have no mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _floyd_in_place(d):
    """Floyd-Warshall on a dense (n, n) weight matrix with a zero diagonal.

    Step k is the textbook relaxation d[i, j] = min(d[i, j], d[i, k] +
    d[k, j]), in the same order of k, and the result equals that of the
    plain full-matrix recurrence entry for entry. Row k does not change
    during step k (d[k, k] is 0), and a row's update reads only that row and
    row k, so each row can run its steps apart from the others as long as
    it sees row k as it stood after step k - 1. The steps go in panels of
    _CHUNK pivots k0 <= k < k1, and rows in chunks of _CHUNK: panel p's
    pivot rows are chunk p. The caller first takes chunk p through the
    panel's steps, copying row k into a (_CHUNK, n) pivot block just before
    step k reads it; then every other chunk takes the same steps against
    those saved rows. A row with d[i, k] = inf cannot change (NeighborGraph
    rejects NaN weights), so while fewer than half of a worker's rows reach
    k only those rows are gathered and updated; every row gets the same
    operations on the same operands either way.

    From n = _THREADS_FROM_N on, the panels' other chunks are shared by one
    thread per CPU in the process's affinity mask (taskset restricts it),
    capped at _MAX_WORKERS and at the number of chunks; below it, the
    calling thread does all of them. The caller is worker 0, and workers
    1..W-1 are tasks on a thread pool that lives for the call. Worker t
    owns the chunks t, t + W, t + 2W, ... other than the panel's, and reads
    and writes only those rows and the pivot block, so the result is
    bitwise the same for every W. The caller waits for the workers' tasks
    once per panel, so there are ceil(n / _CHUNK) waits, not n: a wait that
    sleeps leaves its vCPU idle, and on a 2-vCPU Xeon whose host stole
    20-26% of its CPU time, waiting at every step made two threads take
    1.5-10.7 s at n=1600 where one took 1.9-3.0 s. A task's exception is
    raised here through its future, and leaving the pool joins every
    thread, also when the caller raises.

    Each worker's two scratch blocks share one slice, the pivot block
    follows them, and every slice starts on a 64-byte boundary. malloc
    promises only 16 bytes, and with 64-byte (AVX-512) vectors a misaligned
    step block splits every store across two cache lines: at n=1600 on a
    2-vCPU AVX-512 Xeon the kernel took 4.2-5.5 s that way against 3.3-3.9 s
    aligned, whatever the alignment of d. The caller allocates all the
    slices as one buffer before any task runs: allocated by each worker,
    they raised the peak RSS of an n=1600 embed run by 2.7 MB over one
    thread, and as one buffer by 1.0 MB.

    Every worker runs its steps with numpy's ufunc buffer at its smallest
    size, 16 elements, set around each panel's steps by the thread that runs
    them, because the size is per thread, and restores its own size
    afterwards, also when a step raises. The step add broadcasts the
    stride-0 column d[i, k], and numpy's iterator copies such an operand
    through its buffer whenever three rows fit in it: at the default 8192
    elements, for every n <= 2730. Buffered, a (64, n) step add cost 1.1-1.2
    ns per element against 0.27-0.48 ns unbuffered (n in {400, 800, 1600},
    same Xeon), and at n=1600 (Swiss roll, k=10, stable) the one-thread
    kernel took 4.1-4.5 s against 2.0-2.3 s; two threads with the default
    size in the second took 5.2 s. No operation here casts, so none needs
    the buffer, and the result is bitwise the same. The size is saved and
    restored by hand because np.errstate scopes it only from numpy 2.0 on.
    The gather's np.take clips its indices, which all come from d's own
    rows: with the default mode="raise" numpy copies the (64, n) result
    through a temporary on every call.
    """
    n = d.shape[0]
    chunk = min(_CHUNK, n)
    chunks = -(-n // _CHUNK)
    w = 1
    if n >= _THREADS_FROM_N:
        w = min(_MAX_WORKERS, _cpu_count(), chunks)
    # each worker's pair of blocks, rounded up to whole 64-byte lines, then
    # the pivot block
    per = -(-2 * chunk * n // 8) * 8
    raw = np.empty(w * per + chunk * n + 8)
    start = (-raw.ctypes.data) % 64 // 8
    scratch = raw[start:start + w * per].reshape(w, per)
    pivots = raw[start + w * per:start + w * per + chunk * n].reshape(chunk, n)

    def relax(t, p, panel=False):
        """Panel p's steps on worker t's chunks, or with panel on chunk p,
        saving each pivot row before its step."""
        mine = [p] if panel else [c for c in range(t, chunks, w) if c != p]
        mask = np.zeros(n, dtype=bool)
        for c in mine:
            mask[c * _CHUNK:(c + 1) * _CHUNK] = True
        own = np.flatnonzero(mask)
        step, rows = scratch[t, :2 * chunk * n].reshape(2, chunk, n)
        k0 = p * _CHUNK
        old = np.setbufsize(16)
        try:
            for k in range(k0, min(k0 + _CHUNK, n)):
                dk = pivots[k - k0]
                if panel:
                    dk[:] = d[k]
                reach = own[d[:, k][own] < np.inf]
                if 2 * reach.size < own.size:
                    for lo in range(0, reach.size, _CHUNK):
                        idx = reach[lo:lo + _CHUNK]
                        r, s = rows[:idx.size], step[:idx.size]
                        np.take(d, idx, axis=0, out=r, mode="clip")
                        np.add(r[:, k, None], dk, out=s)
                        np.minimum(r, s, out=r)
                        d[idx] = r
                else:
                    for c in mine:
                        blk = d[c * _CHUNK:(c + 1) * _CHUNK]
                        s = step[:blk.shape[0]]
                        np.add(blk[:, k, None], dk, out=s)
                        np.minimum(blk, s, out=blk)
        finally:
            np.setbufsize(old)

    with ThreadPoolExecutor(max(1, w - 1)) as pool:
        for p in range(chunks):
            relax(0, p, panel=True)
            futures = [pool.submit(relax, t, p) for t in range(1, w)]
            relax(0, p)
            for future in futures:
                future.result()
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


def double_center(d):
    """-H S H / 2 with S the entrywise squares of the distances d and H the
    centering matrix I - ones/n.

    Row and column sums of the result are zero (up to round-off). Raises
    NonFiniteError on inf/NaN entries or squares: restrict to one component
    first. The squares go into the one new buffer, their row, column and
    grand means are taken, and then that buffer is centered in place; d is
    not modified.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("expected a square matrix")
    out = np.square(d)
    # squares are >= 0 or NaN, and max propagates NaN: it is finite exactly
    # when every entry is, without an n x n mask
    if not np.isfinite(out.max()):
        raise NonFiniteError("matrix has non-finite entries")
    row, col, grand = out.mean(axis=1), out.mean(axis=0), out.mean()
    out -= row[:, None]
    out -= col[None, :]
    out += grand
    out *= -0.5
    return out


def classical_mds(gm, m):
    """Classical scaling of squared geodesic distances into m dimensions.

    Coordinate column j is sqrt(max(lambda_j, 0)) times eigenvector j of
    the doubly-centered matrix; negative-eigenvalue columns collapse to
    zero (see Embedding.n_clipped). gm.d is left as it is: double_center
    squares it into one new buffer and centers that in place, and only the
    top m eigenpairs of that are computed (linalg.symmetric_eigen_top).
    """
    n = gm.n
    if not 1 <= m <= n - 1:
        raise BadDimError(f"m must be in [1, {n - 1}], got {m}")
    if not np.all(np.isfinite(gm.d)):
        raise NonFiniteError("geodesic matrix spans multiple components")
    eig = symmetric_eigen_top(double_center(gm.d), m)
    coords = eig.vectors * np.sqrt(np.maximum(eig.values, 0.0))[None, :]
    return Embedding(coords=coords, eigenvalues=eig.values)


def residual_variance(gm, emb):
    """1 - R^2 between geodesic and embedded pairwise distances.

    R is the Pearson correlation over the strict upper triangles, excluding
    the zero diagonal, so at least 3 points are needed. 0 means the
    embedding explains the geodesic structure perfectly (up to uniform
    scaling). Both triangles are gathered row by row, in np.triu_indices
    order, into two preallocated vectors, the embedded distances one row at
    a time, and both vectors are centered in place: no (n, n, m) difference
    tensor, no index arrays and no centered copies. Raises
    ZeroVarianceError, naming the side, when either set of distances is
    constant, and also when their spreads are so small that the product of
    their squares underflows to 0; ValueError for fewer than 3 points: each
    message starts "residual variance undefined: ".
    """
    n = gm.n
    if emb.coords.shape[0] != n:
        raise ValueError("embedding and geodesic matrix cover different point sets")
    if n < 3:
        raise ValueError(f"residual variance undefined: needs at least 3 points, got {n}")
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
    for v, side in ((geo, "geodesic"), (euclid, "embedded")):
        # tested before centering: the mean of a constant need not round
        # back to it, and then the centered vector is not all zero
        if v.min() == v.max():
            raise ZeroVarianceError(f"residual variance undefined: every {side} distance is equal")
        v -= v.mean()
    sg = np.dot(geo, geo)
    se = np.dot(euclid, euclid)
    if sg * se == 0.0:
        raise ZeroVarianceError("residual variance undefined: the distances vary too little to correlate in float64")
    r = float(np.clip(np.dot(geo, euclid) / np.sqrt(sg * se), -1.0, 1.0))
    return max(0.0, 1.0 - r * r)
