"""Geodesic distances on the neighbor graph and classical MDS embedding.

All-pairs shortest paths approximate manifold geodesics; the embedding
comes from the top eigenpairs of the doubly-centered negative half
squared-distance matrix. The all-pairs step is one numpy Floyd-Warshall
(floyd_all_pairs) whose result equals the plain recurrence entry for entry.
It takes the steps in panels of 64 pivots: the caller first runs a panel on
the pivots' own rows, saving each pivot row, and then every other row runs
the panel against the saved rows. Its input must be exactly symmetric, as
NeighborGraph.to_dense_weights makes it, and the recurrence keeps it so:
d[i, k] + d[k, j] and d[j, k] + d[k, i] are the same float64 number. So a
row reads its d[i, k] from the saved pivot row k, and each 64-row chunk
updates only the columns from its own first row on (half the matrix) and
takes a whole panel's steps while it stays in cache; a mirror at the end
fills in the other half.
From n = 512 on the rows are shared by two processes when the process may
use two CPUs or more (its affinity mask, which taskset restricts, capped at
its cgroup CPU quota; more were never measured): the caller and a worker
forked for the call, each with its own interpreter lock. The matrix lives
in an anonymous shared mapping, and the pivot block and the workers'
scratch in a second one for the call; each process updates its own row
chunks with its own scratch, and the caller waits for the workers once per
panel over a pipe, so the result is bitwise the same on any number of
processes. No worker outlives the call,
also when a step raises in it or in the caller. Where the platform cannot
fork, Floyd runs in the caller alone.

Past all-pairs shortest paths, each stage holds at most one n x n buffer
beyond the geodesic matrix and none modifies it: centering squares the
distances into one new buffer and centers it in place, the eigensolver
computes only the top m pairs (linalg.symmetric_eigen_top), and residual
variance gathers the upper triangles row by row into two half-size vectors
and centers them in place (one n x n buffer in all). With the geodesic
matrix itself, a run peaks at two n x n float64 buffers.
"""

import contextlib
import mmap
import os
import warnings
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
# Floyd runs in the calling process alone below this n, where a forked
# worker saved nothing. On a 2-vCPU AVX-512 Xeon (Swiss roll, k=10, stable,
# in-process, alternating runs, medians), two processes against one took
# 0.018 against 0.013 s at n=256 (11 runs), 0.032 against 0.034 s at n=384
# (11), 0.036-0.041 against 0.042-0.045 s at n=448 (11 and 15),
# 0.048-0.052 against 0.059-0.065 s at n=512 (11, 15 and 15; two won 37 of
# 41), 0.068-0.072 against 0.096-0.102 s at n=576, 0.13 against 0.21 s at
# n=800 and 0.23 against 0.35 s at n=1024. The 15-run rounds held 60 MB
# more in the caller, as the CLI does, since a fork copies its page tables.
# At n <= 512 both took all their rows through each step at once, a cache
# rule Floyd no longer has; those times were not taken again.
# Two threads, which this replaced, gained nothing below n=1280: a numpy
# call here takes 10-40 us, and two threads that each looped np.add and
# np.minimum on their own (64, w) block, handing the GIL back and forth,
# ran 1.25-1.44 times as fast as one at w=400 (11 us a call) and 1.54-1.84
# times at w=800 (16 us), with the Python between calls on top.
_FORK_FROM_N = 512
# Most processes Floyd runs on, however many CPUs the process may use: the
# gain was measured at 2 only (see _FORK_FROM_N), and with more processes
# each one's share shrinks toward one 64-row chunk, while each adds a pipe
# round trip per panel and a fork of the whole caller.
_MAX_WORKERS = 2
# A container's CPU quota: cgroup v2's "quota period" line ("max" when there
# is none), else cgroup v1's quota (-1 when there is none) and period, in
# microseconds.
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA_PERIOD = ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us")


def _read(path):
    """The text of a file, or None when it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _quota_cpus():
    """CPUs the cgroup CPU quota allows, rounded up and at least 1, or None
    when there is no quota or its files cannot be read or parsed."""
    text = _read(_CPU_MAX)
    fields = text.split() if text is not None else [_read(path) for path in _CFS_QUOTA_PERIOD]
    try:
        quota, period = (int(field) for field in fields)
    except (TypeError, ValueError):  # "max", a missing file, or garbage
        return None
    if quota < 0 or period <= 0:
        return None
    return max(1, -(-quota // period))


def _cpu_count():
    """CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else every CPU (macOS and Windows have no mask),
    capped at its cgroup CPU quota when it has one. Two processes confined
    to one CPU (taskset -c 0) took as long as one, plus the fork: 0.18
    against 0.17 s at n=800 and 1.06 against 1.09 s at n=1600 (7
    alternating runs, medians)."""
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    quota = _quota_cpus()
    return count if quota is None else min(count, quota)


def _worker_count(n):
    """Processes Floyd runs on for an n x n matrix: the caller alone below
    _FORK_FROM_N and where the platform cannot fork, else one per CPU the
    process may use (see _cpu_count), capped at _MAX_WORKERS and at the
    number of row chunks."""
    if n < _FORK_FROM_N or not hasattr(os, "fork"):
        return 1
    return min(_MAX_WORKERS, _cpu_count(), -(-n // _CHUNK))


def _shared(size):
    """A zeroed flat float64 array of size elements in a new anonymous
    mapping that forked children share (MAP_SHARED, mmap's default). It
    starts on a page, and the mapping lives as long as any view of it."""
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)


def _serve(run, t, go, done, held):
    """Worker t's side of Floyd, in the child forked for it, which it never
    leaves: after closing the pipe ends in held other than its own, it runs
    run(t, p) for panel p = 0, 1, ... each time a byte arrives on go and
    answers each with one b"." on done. On EOF, the caller has finished or
    failed, and the worker exits; if a step raises, it writes the exception
    text on done instead and exits. It leaves through os._exit in any case,
    so it never returns into the caller's stack and runs none of its atexit
    handlers or stdio flushes."""
    code = 1
    try:
        for fd in held:
            if fd not in (go, done):
                os.close(fd)
        np.setbufsize(16)
        p = 0
        while os.read(go, 1):
            run(t, p)
            os.write(done, b".")
            p += 1
        code = 0
    except BaseException as e:  # reported to the caller; the process ends below
        os.write(done, f"{type(e).__name__}: {e}".encode(errors="replace"))
    finally:
        os._exit(code)


def _fork():
    """os.fork, without the DeprecationWarning that Python 3.12 and later
    give in a process with other threads (numpy's BLAS pool always counts),
    because a lock one of them held at the fork stays held in the child. A
    Floyd worker takes none of those locks: it runs only numpy ufuncs,
    copies and index arithmetic, never BLAS; glibc resets malloc's locks in
    the child and CPython its own; and it leaves through os._exit. The
    warning is new in 3.12 and the suite has run on 3.11 only, so the
    filter is tested against the warning's text, not the warning itself."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning)
        return os.fork()


@contextlib.contextmanager
def _panels(w, run):
    """Floyd's panels on w processes. Calls run(0, p) in the caller and
    run(t, p) for t = 1..w-1 in forked workers (see _serve), once for each
    panel p in turn, and returns only when every one of them has finished
    panel p; one pipe byte to each worker and one back per panel. A
    worker's failure is raised here as a RuntimeError with its exception
    text. The caller closes its pipe ends and reaps every worker before it
    returns or raises, and a worker whose caller was killed exits on the
    EOF that follows."""
    held, pids, workers = [], [], []  # the caller's pipe ends; the workers
    try:
        for t in range(1, w):
            go_r, go_w = os.pipe()
            held += [go_r, go_w]
            done_r, done_w = os.pipe()
            held += [done_r, done_w]
            pid = _fork()
            if pid == 0:
                _serve(run, t, go_r, done_w, held)
            pids.append(pid)
            for fd in (go_r, done_w):
                held.remove(fd)
                os.close(fd)
            workers.append((t, go_w, done_r))

        def panel(p):
            for _, go, _ in workers:
                os.write(go, b"g")
            run(0, p)
            for t, _, done in workers:
                reply = os.read(done, 1)
                if reply != b".":
                    while more := os.read(done, 4096):
                        reply += more
                    text = reply.decode(errors="replace") or "it exited"
                    raise RuntimeError(f"Floyd worker {t} failed in panel {p}: {text}")

        yield panel
    finally:
        for fd in held:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _floyd_in_place(d, w=1):
    """Floyd-Warshall on a dense (n, n) weight matrix with a zero diagonal,
    which must be exactly symmetric (NeighborGraph.to_dense_weights writes
    each edge's weight to both entries).

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
    those saved rows.

    The recurrence keeps d exactly symmetric: if it is after step k - 1,
    d[j, k] + d[k, i] is bitwise the same number as d[i, k] + d[k, j],
    because floating-point addition commutes, and so entry (j, i) of step k
    is entry (i, j). So a row reads its d[i, k] from entry i of the saved
    pivot row k, not from its own column k, and a chunk's rows need only
    the columns from the chunk's first row on, the block-upper triangle:
    about half the matrix.

    Each worker takes one chunk c at a time through all the panel's steps,
    which the rows allow because within a panel they read only their own
    entries and the saved pivot rows. A chunk other than the panel's
    updates only d[i, j] for j >= _CHUNK * c: the triangle is copied into
    the worker's scratch, where it is contiguous and stays in L2 across the
    _CHUNK steps, and copied back after the panel. The chunk's other
    entries go stale. So before panel p the caller copies the panel's rows
    left of the diagonal block from the columns above it, which are
    current, and takes those rows through the panel in place, over whole
    rows, so the saved pivot rows are whole; after the last panel it
    mirrors the triangle once; numpy proves that the two blocks of each
    copy do not overlap, so it makes no temporary. A row with d[i, k] = inf
    cannot change (NeighborGraph rejects NaN weights), so while fewer than
    half of a chunk's rows reach k, only those rows are gathered and
    updated; every row gets the same operations on the same operands
    either way. The pivot rows change during their own panel, so the
    panel's chunk tests its reach at each step; any other chunk counts its
    rows that reach each of the panel's pivots before the first step.

    The panels' other chunks are shared by w processes (floyd_all_pairs
    takes w from _worker_count). The caller is worker 0, and workers 1..w-1
    are children forked for the call (see _panels), each with its own
    interpreter lock: the numpy calls here take 10-40 us each at n=1600, too
    short for threads, which must take the lock back between calls, to
    overlap. Worker t owns the chunks t, t + w, t + 2w, ... other than the
    panel's, and reads and writes only those rows, its scratch and the pivot
    block, so the result is bitwise the same for every w. With w > 1, d must
    be in a shared mapping (see _shared), so that every worker writes the
    one matrix, and the scratch and the pivot block get a mapping of their
    own, freed when the call returns: kept in d's mapping, they stayed as
    long as d, and the caller of an n=1600 embed run peaked at 86.0 MB
    against 83.7 MB. The caller waits for the workers once per panel, one
    pipe byte each way, so there are ceil(n / _CHUNK) waits, not n: a wait
    that sleeps leaves its vCPU idle, and on a 2-vCPU Xeon whose host stole
    20-26% of its CPU time, waiting at every step made two threads take
    1.5-10.7 s at n=1600 where one took 1.9-3.0 s.

    Each worker's two scratch blocks share one slice of one buffer, the
    pivot block follows them, and every slice starts on a 64-byte boundary.
    malloc promises only 16 bytes, and with 64-byte (AVX-512) vectors a
    misaligned step block splits every store across two cache lines: at
    n=1600 on a 2-vCPU AVX-512 Xeon the kernel took 4.2-5.5 s that way
    against 3.3-3.9 s aligned, whatever the alignment of d. The caller lays
    out all the slices before any worker starts.

    Every worker runs its steps with numpy's ufunc buffer at its smallest
    size, 16 elements: the caller sets it around the whole call and gives
    its own size back, also when a step raises, and a forked worker sets it
    once. The step add broadcasts the pivot entries d[i, k] as a stride-0
    column, and numpy's iterator copies such an operand through its buffer
    whenever three rows fit in it: at the default 8192 elements, for every
    n <= 2730. Buffered, a (64, n) step add cost 1.1-1.2 ns per element
    against 0.27-0.48 ns unbuffered (n in {400, 800, 1600}, same Xeon), and
    at n=1600 (Swiss roll, k=10, stable) this kernel took 1.8-2.0 s in one
    process against 1.0-1.1 s. No operation here casts, so none needs the
    buffer, and the result is bitwise the same. The size is saved and
    restored by hand because np.errstate scopes it only from numpy 2.0 on.
    The gather's take clips its indices, which all come from the block's
    own rows: with the default mode="raise" numpy copies the (64, n) result
    through a temporary on every call.
    """
    n = d.shape[0]
    chunk = min(_CHUNK, n)
    chunks = -(-n // _CHUNK)
    # each worker's pair of blocks, rounded up to whole 64-byte lines, then
    # the pivot block: in numpy's memory, with the slack to a 64-byte
    # boundary, or in a mapping, which starts on a page
    per = -(-2 * chunk * n // 8) * 8
    size = w * per + chunk * n
    room = np.empty(size + 8) if w == 1 else _shared(size)
    start = (-room.ctypes.data) % 64 // 8
    scratch = room[start:start + w * per].reshape(w, per)
    pivots = room[start + w * per:start + size].reshape(chunk, n)

    def mirror(c):
        """Chunk c's entries left of its diagonal block, from the columns
        above it."""
        a, b = c * _CHUNK, min((c + 1) * _CHUNK, n)
        d[a:b, :a] = d[:a, a:b].T

    def relax(t, p, c):
        """Panel p's steps on the rows of chunk c, by worker t. The panel's
        own chunk (c == p) runs in place over whole rows, saving each pivot
        row just before its step; any other chunk runs over the columns
        from its first row on, in worker t's scratch."""
        k0 = p * _CHUNK
        k1 = min(k0 + _CHUNK, n)
        a, b = c * _CHUNK, min((c + 1) * _CHUNK, n)
        panel = c == p
        lo = 0 if panel else a
        width = n - lo
        rows, step = scratch[t, :chunk * n], scratch[t, chunk * n:2 * chunk * n]
        own = np.arange(a - lo, b - lo)  # the chunk's rows, numbered as in blk
        blk, col = d, np.empty(chunk)
        if not panel:
            blk = rows[:own.size * width].reshape(own.size, width)
            np.copyto(blk, d[lo:b, lo:])
            # a gather takes fewer than _CHUNK // 2 rows: its rows and sums
            # share the step block
            rows = step[chunk // 2 * n:]
            reaches = pivots[:k1 - k0, lo:b] < np.inf
            counts = np.count_nonzero(reaches, axis=1).tolist()
        part, sums = blk[a - lo:b - lo], step[:own.size * width].reshape(own.size, width)
        for k in range(k0, k1):
            dk = pivots[k - k0, lo:]
            if panel:
                dk[:] = d[k]
                reach = own[dk[own] < np.inf]
                count = reach.size
            else:
                count = counts[k - k0]
            if 2 * count >= own.size:
                np.add(dk[a - lo:b - lo, None], dk, out=sums)
                np.minimum(part, sums, out=part)
            elif count:
                if not panel:
                    reach = np.flatnonzero(reaches[k - k0])
                r = rows[:count * width].reshape(count, width)
                s = step[:r.size].reshape(r.shape)
                blk.take(reach, axis=0, out=r, mode="clip")
                dk.take(reach, out=col[:count], mode="clip")
                np.add(col[:count, None], dk, out=s)
                np.minimum(r, s, out=r)
                blk[reach] = r
        if not panel:
            d[lo:b, lo:] = blk

    def run(t, p):
        """Panel p's steps on worker t's chunks."""
        for c in range(t, chunks, w):
            if c != p:
                relax(t, p, c)

    old = np.setbufsize(16)
    try:
        with _panels(w, run) as panel:
            for p in range(chunks):
                mirror(p)
                relax(0, p, p)
                panel(p)
    finally:
        np.setbufsize(old)
    for c in range(1, chunks):
        mirror(c)
    return d


def floyd_all_pairs(g):
    """Exact all-pairs shortest paths via Floyd-Warshall."""
    n, w = g.n, _worker_count(g.n)
    # with workers, the weights go straight into the mapping they share
    out = None if w == 1 else _shared(n * n).reshape(n, n)
    d = _floyd_in_place(g.to_dense_weights(out=out), w)
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


def _all_finite(d):
    """Whether every entry of d is finite, without an n x n mask: min and
    max propagate NaN, and between them catch -inf and inf."""
    return bool(np.isfinite(d.min()) and np.isfinite(d.max()))


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
    if not _all_finite(gm.d):
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
    if not _all_finite(gm.d):
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
