"""Geodesic distances on the neighbor graph and classical MDS embedding.

All-pairs shortest paths approximate manifold geodesics; the embedding
comes from the top eigenpairs of the doubly-centered negative half
squared-distance matrix. The all-pairs step is one blocked numpy
Floyd-Warshall (floyd_all_pairs; Venkataraman, Sahni & Mukhopadhyaya, JEA
2003), run in the calling process (see _floyd_in_place). It takes its
pivots in a nested-dissection order of the graph (_pivot_order; George,
SIAM J. Numer. Anal. 1973), made in that order and left in it
(GeodesicMatrix.points), so read by point its result is bitwise the plain
recurrence with k in that order, and within rounding of it in the natural
order. Each panel of pivots works only in its reach set, the columns its
pivot rows reach: an update outside it has an inf operand and cannot
change its entry, and no step of the panel makes a pivot row reach
further. In the nested-dissection order a panel reaches only its own part
and the separators around it.

Past all-pairs shortest paths, each stage holds at most one n x n buffer
beyond the geodesic matrix and none modifies it, so with the geodesic
matrix itself a run peaks at two n x n float64 buffers. None puts the
rows back in the points' order: classical scaling follows a relabelling
of the points and the residual variance does not change under one.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BadDimError, NonFiniteError, ZeroVarianceError
from .linalg import ROW_BLOCK, _small_ufunc_buffer, symmetric_eigen_top

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

    Row and column r of d are point points[r], an int64 array: floyd_all_pairs
    leaves them in its pivot order, and a matrix built by hand defaults to
    the points' own order, range(n). The connected components are read
    from d's finite entries, not stored beside it (see component_ids).
    """

    d: np.ndarray
    points: np.ndarray = None

    def __post_init__(self):
        if self.points is None:
            object.__setattr__(self, "points", np.arange(self.n, dtype=np.int64))

    @property
    def n(self):
        return self.d.shape[0]

    @property
    def component_ids(self):
        """Each row's connected component, read from d on every access:
        numbered by first appearance in row order. In the points' own
        order and in floyd_all_pairs' (see _pivot_order) that is the order
        of each component's lowest point id."""
        ids = np.full(self.n, -1, dtype=np.int64)
        next_id = 0
        for i in range(self.n):
            if ids[i] < 0:
                ids[np.isfinite(self.d[i])] = next_id
                next_id += 1
        return ids


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


def _floyd_in_place(d):
    """Floyd-Warshall on a dense (n, n) weight matrix d with a zero
    diagonal, in place; returns d.

    d must be exactly symmetric (NeighborGraph.to_dense_weights writes each
    edge to both entries), with no negative entry and no NaN. Step k is
    d[i, j] = min(d[i, j], d[i, k] + d[k, j]) in the plain order of k, and
    the result is bitwise that of the plain full-matrix recurrence at every
    ROW_BLOCK: each update made gets the same operands, and each one skipped
    has an inf operand, so min(x, x + inf) = x would not change it.

    Row k does not change in step k, and a row's update reads only itself
    and row k. So the steps go in panels of ROW_BLOCK pivots, panel p's pivots
    being row chunk p: chunk p goes through the panel first, saving each
    pivot row just before its step, and then every other chunk takes the
    panel's steps against the saved rows.

    A panel works only inside its reach set R, the columns j at which some
    pivot row has a finite d[k, j] as the panel starts. Step k changes d[i,
    j] only where d[i, k] = d[k, i] and d[k, j] are finite, so in R x R,
    and makes a pivot row finite only where row k is, so R stays closed. A
    chunk gathers its rows in R at R's columns into scratch, runs the steps
    there and scatters the rows back; a chunk with no row in R is skipped.
    A chunk other than the panel's finds, before the first step, the pivots
    none of its rows reach, and skips their steps.

    The recurrence keeps d symmetric: d[i, k] + d[k, j] and d[j, k] +
    d[k, i] are the same float64 number. So a row reads d[i, k] from the
    saved pivot row, and a chunk other than the panel's takes only the
    columns of R from its own first row in R on. The stale rest of the
    panel's rows is mirrored before each panel, and of every chunk after
    the last.

    The scratch and the pivot block start on a 64-byte boundary: a
    misaligned block splits every AVX-512 store across two cache lines.
    The ufunc buffer is at its smallest (_small_ufunc_buffer), because numpy
    copies the step add's stride-0 column d[i, k] through it whenever three
    rows fit. take uses mode="clip", which clips nothing here, as
    mode="raise" copies through a temporary.
    """
    n = d.shape[0]
    chunk = min(ROW_BLOCK, n)
    chunks = -(-n // ROW_BLOCK)
    # the pair of blocks, rounded up to whole 64-byte lines, then the pivot
    # block, with the slack to a 64-byte boundary
    per = -(-2 * chunk * n // 8) * 8
    room = np.empty(per + chunk * n + 8)
    start = (-room.ctypes.data) % 64 // 8
    scratch = room[start:start + per]
    pivots = room[start + per:start + per + chunk * n].reshape(chunk, n)

    def mirror(c):
        """Chunk c's entries left of its diagonal block, from above it."""
        a, b = c * ROW_BLOCK, min((c + 1) * ROW_BLOCK, n)
        d[a:b, :a] = d[:a, a:b].T

    def relax(p, c, reach):
        """Panel p's steps on chunk c's rows in the reach set reach, in the
        scratch: at every column of the set for the panel's own chunk
        (c == p), else at those from the chunk's first row on."""
        k0, k1 = p * ROW_BLOCK, min((p + 1) * ROW_BLOCK, n)
        lo, hi = np.searchsorted(reach, (c * ROW_BLOCK, (c + 1) * ROW_BLOCK)).tolist()
        if lo == hi:
            return
        first = 0 if c == p else lo  # the set's column at blk's column 0
        cols, mine = reach[first:], reach[lo:hi]
        height, width, at = hi - lo, cols.size, lo - first  # blk's row r is its column at + r
        # blk's rows and d's: one slice each where d's are one, else one row at a time
        whole = mine[-1] - mine[0] == height - 1
        rows = ([slice(None)], [slice(mine[0], mine[-1] + 1)]) if whole else (range(height), mine)
        blk = scratch[:height * width].reshape(height, width)
        sums = scratch[chunk * n:chunk * n + blk.size].reshape(blk.shape)
        for r, i in zip(*rows):
            d[i].take(cols, axis=-1, out=blk[r], mode="clip")
        if c != p:
            reached = (np.minimum.reduce(pivots[:k1 - k0, lo:hi], axis=1) < np.inf).tolist()
        for k in range(k0, k1):
            dk = pivots[k - k0, first:first + width]
            if c == p:
                dk[:] = blk[k - k0]
            elif not reached[k - k0]:
                continue
            np.add(dk[at:at + height, None], dk, out=sums)
            np.minimum(blk, sums, out=blk)
        for r, i in zip(*rows):
            d[i, cols] = blk[r]

    with _small_ufunc_buffer():
        for p in range(chunks):
            mirror(p)
            low = np.minimum.reduce(d[p * ROW_BLOCK:(p + 1) * ROW_BLOCK], axis=0, out=scratch[:n])
            reach = np.flatnonzero(low < np.inf)
            relax(p, p, reach)
            for c in range(chunks):
                if c != p:
                    relax(p, c, reach)
    for c in range(1, chunks):
        mirror(c)
    return d


def _pivot_order(g):
    """Floyd's pivot order for the graph g, from its edge list alone: a
    nested-dissection order (George, SIAM J. Numer. Anal. 1973), as an
    int64 permutation of range(g.n).

    Each part, the whole graph first, takes two breadth-first searches by
    hop count over its own vertices: one from its lowest vertex, whose last
    vertex reached is the pseudo-peripheral root, and one from that root.
    The root's level at which the cumulative count reaches half the part is
    its separator: the vertices of the levels before it are ordered first,
    then the rest of the part, each by the same rule, and the separator
    last. A part that the first search does not cover is split, with no
    separator, into the vertices it reached and then the rest, in the order
    they were. A part of at most ROW_BLOCK vertices keeps its order. So
    the connected components come in the order of their lowest vertex:
    every search starts from its part's lowest vertex, what it reaches is
    one component, and the rest keeps its ascending order.

    Every part is a range of the order, rewritten in place. The order is a
    view of one block that also holds each vertex's part label, the search
    queue and the adjacency list with its offsets, 4n + 1 + 2E words, and
    the searches run in Python over memoryviews of it, which at n=1600 is
    faster than making numpy arrays level by level: 9-14 against 16 ms.
    """
    n, edges = g.n, g.edges
    room = np.zeros(4 * n + 1 + edges.size, np.int64)  # zeroed: every vertex starts in part 0
    order, label, queue, start, nbrs = (
        room[:n], room[n:2 * n], room[2 * n:3 * n], room[3 * n:4 * n + 1], room[4 * n + 1:]
    )
    np.cumsum(np.bincount(edges.ravel(), minlength=n), out=start[1:])
    # each end of each edge as v * n + u for its vertex v and neighbor u,
    # sorted in place: then u = key % n runs through v's neighbors from
    # nbrs[start[v]] on
    np.multiply(edges.ravel(), n, out=nbrs)
    pairs = nbrs.reshape(-1, 2)
    pairs[:, 0] += edges[:, 1]
    pairs[:, 1] += edges[:, 0]
    nbrs.sort()
    np.remainder(nbrs, n, out=nbrs)
    at, label, queue, start, nbrs = (memoryview(a) for a in (order, label, queue, start, nbrs))
    for t in range(n):
        at[t] = t
    fresh = itertools.count(1).__next__

    def search(root, part, mark, stop):
        """Breadth-first search from root over the vertices labelled part,
        relabelling them mark and queueing them from queue[0] on, until
        stop are queued or none is left. Returns the range of the last
        level in the queue."""
        label[root] = mark
        queue[0] = root
        lo, hi = 0, 1
        while hi < stop:
            end = hi
            for v in queue[lo:hi]:
                for u in nbrs[start[v]:start[v + 1]]:
                    if label[u] == part:
                        label[u] = mark
                        queue[end] = u
                        end += 1
            if end == hi:
                break
            lo, hi = hi, end
        return lo, hi

    def queue_rest(a, b, part, end):
        """Queue the vertices of order[a:b] labelled part from queue[end]
        on, in their order."""
        for v in at[a:b]:
            if label[v] == part:
                queue[end] = v
                end += 1

    todo = [(0, n, 0)]  # (first place, end, label) of each part still to order
    while todo:
        a, b, part = todo.pop()
        size = b - a
        if size <= ROW_BLOCK:
            continue
        near = fresh()
        _, hi = search(min(at[a:b]), part, near, size)
        if hi < size:  # disconnected: what the search reached, then the rest
            queue_rest(a, b, part, hi)
            at[a:b] = queue[:size]
            todo += [(a, a + hi, near), (a + hi, b, part)]
            continue
        lo, hi = search(queue[hi - 1], near, fresh(), (size + 1) // 2)
        queue_rest(a, b, near, hi)  # the rest of the part: the levels after the separator
        mid = b - (hi - lo)
        at[a:a + lo], at[a + lo:mid], at[mid:b] = queue[:lo], queue[hi:size], queue[lo:hi]
        for x, y in ((a, a + lo), (a + lo, mid)):
            name = fresh()
            for v in at[x:y]:
                label[v] = name
            todo.append((x, y, name))
    return order


def floyd_all_pairs(g):
    """Exact all-pairs shortest paths via Floyd-Warshall, in the pivot order.

    The pivots go in _pivot_order(g)'s order: the weight matrix is made in
    that order, _floyd_in_place runs on it in its plain order of k, and the
    result stays in that order, row r being point points[r]. Read by point,
    it is bitwise the plain recurrence d[i, j] = min(d[i, j], d[i, k] +
    d[k, j]) taken with k in that order, at every ROW_BLOCK. In the natural
    order of k each entry is the length of a shortest path too, but its
    terms may be added in another grouping or along another path of equal
    length, so the two differ by rounding only. In the nested-dissection
    order a panel's pivots reach only their own part and the separators
    around it, so each panel's reach set, the only columns and rows the
    kernel touches for it, is a small share of the matrix.

    The matrix is the one n x n buffer. The order's block goes before it
    comes: points is a copy, as a view would keep the block alive. Component
    ids are read from d when asked for (GeodesicMatrix.component_ids).
    """
    points = _pivot_order(g).copy()
    places = np.empty(g.n, np.int64)  # each point's place in the order
    places[points] = np.arange(g.n)
    return GeodesicMatrix(d=_floyd_in_place(g.to_dense_weights(places)), points=points)


def largest_component(gm, data):
    """Restrict a geodesic matrix and dataset to the largest component.

    Ties go to the component whose rows come first, which in the points'
    own order and in floyd_all_pairs' is the one holding the lowest point
    id (GeodesicMatrix.component_ids). Returns (sub_data, sub_gm, kept)
    where kept holds the point ids of sub_gm's rows, in gm's row order,
    and sub_data those points in that order. The components are read from
    gm.d's finite entries, once per call. When nothing is dropped, gm comes
    back as it is, not copied.
    """
    ids = gm.component_ids
    rows = np.flatnonzero(ids == np.argmax(np.bincount(ids)))
    kept = gm.points[rows]
    if rows.size < gm.n:
        gm = GeodesicMatrix(d=gm.d[np.ix_(rows, rows)], points=kept)
    return data.subset(kept), gm, kept


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
    with _small_ufunc_buffer():
        out = np.square(d)
        # squares are >= 0 or NaN, and max propagates NaN: it is finite
        # exactly when every entry is, without an n x n mask
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
    top m eigenpairs of that are computed (linalg.symmetric_eigen_top),
    whose eigenvectors are scaled in place into the coordinates.
    """
    n = gm.n
    if not 1 <= m <= n - 1:
        raise BadDimError(f"m must be in [1, {n - 1}], got {m}")
    try:
        centered = double_center(gm.d)
    except NonFiniteError:
        # double_center's one scan of the squares found inf or NaN; only
        # then is gm.d scanned, to tell missing paths from squares that
        # overflow
        if not _all_finite(gm.d):
            raise NonFiniteError("geodesic matrix spans multiple components") from None
        raise
    values, vectors = symmetric_eigen_top(centered, m)
    del centered
    vectors *= np.sqrt(np.maximum(values, 0.0))
    return Embedding(coords=vectors, eigenvalues=values)


def residual_variance(gm, emb):
    """1 - R^2 between geodesic and embedded pairwise distances.

    R is the Pearson correlation over the strict upper triangles, excluding
    the zero diagonal, so at least 3 points are needed. 0 means the
    embedding explains the geodesic structure perfectly (up to uniform
    scaling).

    One pass over blocks of ROW_BLOCK rows. A block's pairs are its diagonal
    block's strict upper triangle, taken through flat indices made once,
    and the rectangle right of it, one contiguous copy; each side gathers
    them into one scratch vector of ROW_BLOCK * n values. The squared
    embedded distances are summed one coordinate column at a time from
    np.subtract.outer differences, with no (block, n, m) buffer, and their
    square roots taken last. Each side's min and max are taken before
    centering, for the constant-side test: the mean of a constant need not
    round back to it. The block then centers its vectors on its own means
    and takes its sums of squares and of products with np.dot, and the
    blocks' counts, means and sums are merged by the pairwise update of
    Chan, Golub & LeVeque (The American Statistician, 1983). So the scratch
    is three vectors of ROW_BLOCK * n values, with no n x n or n(n - 1)/2
    array.

    Raises ZeroVarianceError, naming the side, when either set of distances
    is constant, and also when a side's spread is so small that its sum of
    squares is not a normal float; ValueError for fewer than 3 points:
    each message starts "residual variance undefined: ". Raises
    NonFiniteError when gm.d or the coordinates hold inf or NaN.
    """
    n = gm.n
    if emb.coords.shape[0] != n:
        raise ValueError("embedding and geodesic matrix cover different point sets")
    if n < 3:
        raise ValueError(f"residual variance undefined: needs at least 3 points, got {n}")
    d = np.asarray(gm.d, dtype=np.float64)
    if not _all_finite(d):
        raise NonFiniteError("geodesic matrix spans multiple components")
    if not _all_finite(emb.coords):
        raise NonFiniteError("embedding has non-finite coordinates")
    cols = emb.coords.T.copy()  # one contiguous row per coordinate column
    chunk = min(ROW_BLOCK, n)
    # squares is zeroed: with no coordinate column every embedded distance is 0
    geo, euclid, squares = np.empty(chunk * n), np.empty(chunk * n), np.zeros(chunk * n)

    def upper(h):
        """Flat indices, in h rows of n from a diagonal entry on, of the
        strict upper triangle of the h x h block there."""
        i, j = np.triu_indices(h, 1)
        return i * n + j

    full = upper(chunk)
    lows, highs = [np.inf, np.inf], [-np.inf, -np.inf]
    # Python floats: a product that overflows is inf, with no warning
    count, mean_g, mean_e, sgg, see, sge = 0, 0.0, 0.0, 0.0, 0.0, 0.0
    with _small_ufunc_buffer():  # each 2-D call here runs three to four times faster
        for a in range(0, n - 1, ROW_BLOCK):  # the last row has no pair of its own
            b = min(a + ROW_BLOCK, n)
            h = b - a
            tri = full if h == chunk else upper(h)
            t, size = tri.size, tri.size + h * (n - b)
            g, e = geo[:size], euclid[:size]
            # mode="raise" would copy through a temporary
            np.take(d[a:b].reshape(-1)[a:], tri, out=g[:t], mode="clip")
            g[t:].reshape(h, n - b)[...] = d[a:b, b:]
            # the block's rows against columns a on, in rows of n, so that tri
            # indexes them too; euclid holds each later column's squares
            acc = squares[:h * n].reshape(h, n)[:, :n - a]
            later = euclid[:h * n].reshape(h, n)[:, :n - a]
            for c, x in enumerate(cols):
                out = later if c else acc
                np.subtract.outer(x[a:b], x[a:], out=out)
                np.square(out, out=out)
                if c:
                    acc += later
            np.take(squares, tri, out=e[:t], mode="clip")
            e[t:].reshape(h, n - b)[...] = acc[:, h:]
            np.sqrt(e, out=e)
            for s, v in enumerate((g, e)):
                if lows[s] >= highs[s]:  # once two distances differ, the side is not constant
                    lows[s], highs[s] = min(lows[s], float(v.min())), max(highs[s], float(v.max()))
            mg, me = float(g.mean()), float(e.mean())
            g -= mg
            e -= me
            total = count + size
            dg, de, weight = mg - mean_g, me - mean_e, count * size / total
            sgg += float(np.dot(g, g)) + dg * dg * weight
            see += float(np.dot(e, e)) + de * de * weight
            sge += float(np.dot(g, e)) + dg * de * weight
            mean_g += dg * (size / total)
            mean_e += de * (size / total)
            count = total
    for s, side in enumerate(("geodesic", "embedded")):
        if lows[s] == highs[s]:
            raise ZeroVarianceError(f"residual variance undefined: every {side} distance is equal")
    tiny = np.finfo(float).tiny
    if min(sgg, see) < tiny:
        raise ZeroVarianceError("residual variance undefined: the distances vary too little to correlate in float64")
    # sqrt(sgg) * sqrt(see) can round otherwise, so it is taken only where the product is not a normal float
    norm = np.sqrt(sgg * see) if tiny <= sgg * see < np.inf else np.sqrt(sgg) * np.sqrt(see)
    r = float(np.clip(sge / norm, -1.0, 1.0))
    return max(0.0, 1.0 - r * r)
