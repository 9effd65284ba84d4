"""Geodesic distances on the neighbor graph and classical MDS embedding.

All-pairs shortest paths approximate manifold geodesics; the embedding
comes from the top eigenpairs of the doubly-centered negative half
squared-distance matrix. The all-pairs step is one numpy Floyd-Warshall
(floyd_all_pairs) whose result equals the plain recurrence entry for entry.
From n = 1024 on it runs on two threads when the process's affinity mask
holds two CPUs or more (taskset restricts them; more threads were never
measured): each thread updates its own row chunks with its own scratch,
which the caller allocates, and with numpy's ufunc buffer size set in that
thread, and a barrier whose waiters spin briefly before they block ends
every step, so the result is bitwise the same on any number of threads.
No thread outlives the call, also when a step raises.

Past all-pairs shortest paths, each stage holds at most one n x n buffer
beyond the geodesic matrix and none modifies it: centering squares the
distances into one new buffer and centers it in place, the eigensolver
computes only the top m pairs (linalg.symmetric_eigen_top), and residual
variance gathers the upper triangles row by row into two half-size vectors
and centers them in place (one n x n buffer in all). With the geodesic
matrix itself, a run peaks at two n x n float64 buffers.
"""

import os
import threading
import time
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


# Rows updated per numpy call: a (_CHUNK, n) float64 block stays in cache.
_CHUNK = 64
# Floyd runs on the calling thread alone below this n: a second thread costs
# a CPU spinning at every step's barrier, and below it saved nothing
# measurable. On a 2-vCPU AVX-512 Xeon (Swiss roll, k=10, stable, 4-5 runs
# each), two threads took 0.21-0.24 s at n=800 against 0.21-0.28 s for one,
# 0.38-0.47 s at n=1024 against 0.49-0.56 s, and 1.34-1.55 s at n=1600
# against 2.07-2.22 s.
_THREADS_FROM_N = 1024
# Most threads Floyd runs on, however many CPUs the process may use: the
# gain was measured at 2 only (see _THREADS_FROM_N), and with more threads
# each one's step shrinks toward one 64-row chunk while the Python code
# between its numpy calls, and every waiter's turn, still needs the GIL.
_MAX_WORKERS = 2
# How long a waiter at Floyd's barrier spins before it blocks (seconds). On
# the 2-vCPU Xeon at n=1600 (15 runs each), 1 ms, 10 ms and no bound gave
# the same time within noise, medians 1.35-1.54 s on two CPUs and 2.26-2.31 s
# on one (taskset -c 0); a 1 ms waiter blocked at 3-6% of the steps (4 runs).
_SPIN_S = 1e-3


class _SpinBarrier:
    """A barrier for Floyd's workers whose waiters spin before they sleep:
    each one polls the generation count, releasing the GIL at every turn
    (time.sleep(0)), for up to _SPIN_S seconds, and then blocks on a
    condition until the last party arrives or the barrier is aborted; then
    it raises threading.BrokenBarrierError, as threading.Barrier does.

    threading.Barrier puts a waiter to sleep at once, so its CPU goes idle,
    and under a hypervisor that lends idle CPUs to other guests, waking it
    costs as long as the host takes to give the CPU back, at every one of
    the n steps. On a 2-vCPU Xeon whose host stole 20-26% of its CPU time,
    Floyd at n=1600 (8 alternating runs each) took 1.5-10.7 s on two
    threads with threading.Barrier, over 8 s in 3 runs, 1.4-2.8 s with
    waiters that only spin, and 1.9-3.0 s on one thread. The spin is
    bounded because a waiter that never blocks takes CPU time from the
    worker still computing whenever there are fewer CPUs than threads
    (a cgroup quota, other load).
    """

    def __init__(self, parties):
        self._parties = parties
        self._count = 0
        self._generation = 0
        self._broken = False
        self._cond = threading.Condition(threading.Lock())

    def wait(self):
        with self._cond:
            if self._broken:
                raise threading.BrokenBarrierError
            generation = self._generation
            self._count += 1
            if self._count == self._parties:
                self._count = 0
                self._generation += 1
                self._cond.notify_all()
                return
        deadline = time.perf_counter() + _SPIN_S
        while self._generation == generation and not self._broken:
            if time.perf_counter() > deadline:
                with self._cond:
                    while self._generation == generation and not self._broken:
                        self._cond.wait()
                break
            time.sleep(0)
        if self._generation == generation:
            raise threading.BrokenBarrierError

    def abort(self):
        """Make every waiting and later wait() raise BrokenBarrierError."""
        with self._cond:
            self._broken = True
            self._cond.notify_all()


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
    plain full-matrix recurrence entry for entry. Two shortcuts keep it
    exact. Row k and column k do not change during step k (d[k, k] is 0),
    and a row's update reads only that row and row k, so rows can be
    updated one chunk at a time, in any order and on any thread. A row with
    d[i, k] = inf cannot change (NeighborGraph rejects NaN weights), so
    while fewer than half the rows reach k only those rows are gathered and
    updated.

    From n = _THREADS_FROM_N on, the steps run on one thread per CPU in the
    process's affinity mask (taskset restricts it), capped at _MAX_WORKERS
    and at the number of 64-row chunks; below it, on the calling thread
    alone. The calling thread is worker 0. Worker t owns the 64-row chunks
    t, t + W, t + 2W, ... of the W workers: at step k it updates only its
    own rows, in the gather or the dense branch (every worker takes the
    same one), and then waits at a _SpinBarrier, so step k + 1 starts when
    every row has finished step k. Each row gets the same operations on the
    same operands as on one thread, so the result is bitwise the same for
    every W. During step k the other workers read row k and column k while
    their owners rewrite them with the values they hold. If any thread
    raises, it aborts the barrier, every worker is joined, and the first
    exception is raised here; none is replaced by the BrokenBarrierError it
    causes elsewhere.

    Each worker's two scratch blocks share one slice, and every slice
    starts on a 64-byte boundary. malloc promises only 16 bytes, and with
    64-byte (AVX-512) vectors a misaligned step block splits every store
    across two cache lines: at n=1600 on a 2-vCPU AVX-512 Xeon the kernel
    took 4.2-5.5 s that way against 3.3-3.9 s aligned, whatever the
    alignment of d. The caller allocates all W slices as one buffer before
    it starts any thread: allocated by each worker, they raised the peak
    RSS of an n=1600 embed run by 2.7 MB over one thread, and as one buffer
    by 1.0 MB.

    Every worker runs its steps with numpy's ufunc buffer at its smallest
    size, 16 elements, set by itself because the size is per thread, and
    restores its own size afterwards, also when a step raises. The step add
    broadcasts the stride-0 column d[i, k], and numpy's iterator copies such
    an operand through its buffer whenever three rows fit in it: at the
    default 8192 elements, for every n <= 2730. Buffered, a (64, n) step add
    cost 1.1-1.2 ns per element against 0.27-0.48 ns unbuffered (n in {400,
    800, 1600}, same Xeon), and at n=1600 (Swiss roll, k=10, stable) the
    one-thread kernel took 4.1-4.5 s against 2.0-2.3 s; two threads with
    the default size in the second took 5.2 s. No operation here casts, so
    none needs the buffer, and the result is bitwise the same. The size is
    saved and restored by hand because np.errstate scopes it only from
    numpy 2.0 on.
    """
    n = d.shape[0]
    chunk = min(_CHUNK, n)
    w = 1
    if n >= _THREADS_FROM_N:
        w = min(_MAX_WORKERS, _cpu_count(), -(-n // _CHUNK))
    # each worker's pair of blocks, rounded up to whole 64-byte lines
    per = -(-2 * chunk * n // 8) * 8
    raw = np.empty(w * per + 8)
    start = (-raw.ctypes.data) % 64 // 8
    scratch = raw[start:start + w * per].reshape(w, per)
    barrier = _SpinBarrier(w)
    failures = []

    def work(t):
        step, rows = scratch[t, :2 * chunk * n].reshape(2, chunk, n)
        old = np.setbufsize(16)
        try:
            for k in range(n):
                dk = d[k]
                reach = np.flatnonzero(d[:, k] < np.inf)
                if 2 * reach.size < n:
                    if w > 1:
                        reach = reach[reach // _CHUNK % w == t]
                    for lo in range(0, reach.size, _CHUNK):
                        idx = reach[lo:lo + _CHUNK]
                        r, s = rows[:idx.size], step[:idx.size]
                        np.take(d, idx, axis=0, out=r)
                        np.add(r[:, k, None], dk, out=s)
                        np.minimum(r, s, out=r)
                        d[idx] = r
                else:
                    for lo in range(t * _CHUNK, n, w * _CHUNK):
                        blk = d[lo:lo + _CHUNK]
                        s = step[:blk.shape[0]]
                        np.add(blk[:, k, None], dk, out=s)
                        np.minimum(blk, s, out=blk)
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # another thread failed; its exception is raised
        except BaseException as exc:
            failures.append(exc)
            barrier.abort()
        finally:
            np.setbufsize(old)

    threads = []
    try:
        for t in range(1, w):
            thread = threading.Thread(target=work, args=(t,), name=f"floyd-{t}")
            thread.start()
            threads.append(thread)
        work(0)
    except BaseException:
        barrier.abort()  # a thread failed to start: free those waiting
        raise
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
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
