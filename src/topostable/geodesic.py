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

The geodesic matrix is symmetric, and is stored once, as its upper row
blocks (linalg.SymmetricBlocks, whose block height, linalg.ROW_BLOCK, every
step here reads from linalg when called): about half an n x n float64
buffer, which Floyd fills and every later step reads in place. Classical
scaling only reads it, through the doubly-centered squares as an operator
over it (double_center), which squares it a row block at a time inside
each product. With only (ROW_BLOCK, n) scratch beside it, a run peaks in
Floyd, at about 0.65 n x n buffers; only the full eigh it falls back on
makes whole n x n matrices (linalg._top_full). None puts the rows back in
the points' order: classical scaling follows a relabelling of the points
and the residual variance does not change under one.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadDimError, ZeroVarianceError
from .linalg import (
    CenteredSquares,
    SymmetricBlocks,
    _check_finite,
    _small_ufunc_buffer,
    symmetric_eigen_top,
)

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

    d is a linalg.SymmetricBlocks, the matrix stored once as its upper row
    blocks, symmetric by construction; anything else raises TypeError. Only
    tests make the whole matrix (d.dense()). Row and column r of d are
    point points[r], a 1-D integer array of length n
    (TypeError for another type or dtype, ValueError for another shape):
    floyd_all_pairs leaves them in its pivot order, and a matrix built by
    hand defaults to the points' own order, range(n). The connected
    components are read from d's finite entries, not stored beside it (see
    component_ids).
    """

    d: SymmetricBlocks
    points: np.ndarray = None

    def __post_init__(self):
        if not isinstance(self.d, SymmetricBlocks):
            raise TypeError(f"d must be a linalg.SymmetricBlocks, got {type(self.d).__name__}")
        points = np.arange(self.n, dtype=np.int64) if self.points is None else self.points
        if not (isinstance(points, np.ndarray) and np.issubdtype(points.dtype, np.integer)):
            raise TypeError(f"points must be an integer array, got {getattr(points, 'dtype', type(points).__name__)}")
        if points.shape != (self.n,):
            raise ValueError(f"points must be 1-D with one id for each of the {self.n} rows, got shape {points.shape}")
        object.__setattr__(self, "points", points)

    @property
    def n(self):
        return self.d.n

    @property
    def component_ids(self):
        """Each row's connected component, read from d on every access:
        numbered by first appearance in row order. In the points' own
        order and in floyd_all_pairs' (see _pivot_order) that is the order
        of each component's lowest point id. Only the upper part of each
        component's first row is read: every lower row is labelled, so the
        component's other rows are higher."""
        d, n = self.d, self.n
        ids = np.full(n, -1, dtype=np.int64)
        next_id = 0
        for i in range(n):
            if ids[i] < 0:
                at = d.flat(i, i)
                ids[i + np.flatnonzero(np.isfinite(d.buf[at:at + n - i]))] = next_id
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
    """Floyd-Warshall on a linalg.SymmetricBlocks d of weights with a zero
    diagonal, in place; returns d.

    d must hold no negative entry and no NaN. Step k is d[i, j] = min(d[i,
    j], d[i, k] + d[k, j]) in the plain order of k, and the result is bitwise
    that of the plain full-matrix recurrence at every ROW_BLOCK: each update
    made gets the same operands, and each one skipped has an inf operand, so
    min(x, x + inf) = x would not change it.

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
    none of its rows reach, and skips their steps. R's part left of the
    panel's block is read from every block above, in its columns of the
    panel.

    The recurrence keeps d symmetric: d[i, k] + d[k, j] and d[j, k] +
    d[k, i] are the same float64 number. So a row reads d[i, k] from the
    saved pivot row, and a chunk other than the panel's takes only the
    columns of R from its own first row in R on, all in its own block. The
    panel's own rows take their part left of their block from the earlier
    blocks' columns of the panel, transposed, at R's rows only, and scatter
    back only their own block's part: the earlier chunks' steps write the
    same numbers above.

    The scratch and the pivot block start on a 64-byte boundary: a
    misaligned block splits every AVX-512 store across two cache lines.
    The ufunc buffer is at its smallest (_small_ufunc_buffer), because numpy
    copies the step add's stride-0 column d[i, k] through it whenever three
    rows fit. take uses mode="clip", which clips nothing here, as
    mode="raise" copies through a temporary.
    """
    n, block = d.n, linalg.ROW_BLOCK  # the height of d's row blocks
    blocks = [blk for _, blk in d.blocks()]
    chunk, chunks = min(block, n), len(blocks)
    # the pair of blocks, rounded up to whole 64-byte lines, then the pivot
    # block, with the slack to a 64-byte boundary
    per = -(-2 * chunk * n // 8) * 8
    room = np.empty(per + chunk * n + 8)
    start = (-room.ctypes.data) % 64 // 8
    scratch = room[start:start + per]
    pivots = room[start + per:start + per + chunk * n].reshape(chunk, n)

    def relax(p, c, reach):
        """Panel p's steps on chunk c's rows in the reach set reach, in the
        scratch: at every column of the set for the panel's own chunk
        (c == p), else at those from the chunk's first row on."""
        k0, k1 = p * block, min((p + 1) * block, n)
        a, own = c * block, blocks[c]
        lo, hi = np.searchsorted(reach, (a, a + block)).tolist()
        if lo == hi:
            return
        first = 0 if c == p else lo  # the set's column at blk's column 0
        mine, upper = reach[lo:hi] - a, reach[lo:] - a  # in own's rows and columns
        height, width, at = hi - lo, reach.size - first, lo - first  # blk's row r is its column at + r
        # blk's rows and own's: one slice each where own's are one, else one row at a time
        whole = mine[-1] - mine[0] == height - 1
        rows = ([slice(None)], [slice(mine[0], mine[-1] + 1)]) if whole else (range(height), mine)
        blk = scratch[:height * width].reshape(height, width)
        spare = scratch[chunk * n:2 * chunk * n]  # sums in the steps, free until then
        sums = spare[:blk.size].reshape(blk.shape)
        # take copies through a temporary into a strided out, so the panel's
        # own part goes through spare
        part = spare[:height * (width - at)].reshape(height, width - at) if at else blk
        for r, i in zip(*rows):
            own[i].take(upper, axis=-1, out=part[r], mode="clip")
        if at:
            # the panel's rows left of its block: from each block above, its
            # rows in reach at the panel's columns, through spare (take would
            # copy a strided source), transposed
            blk[:, at:] = part
            strip, left = spare[:2 * block * height].reshape(2, -1)
            strip = strip.reshape(block, height)
            ends = np.searchsorted(reach[:lo], np.arange(block, a + 1, block)).tolist()
            for e, (s, t) in enumerate(zip([0] + ends, ends)):
                if s < t:
                    top = e * block
                    strip[...] = blocks[e][:, a - top:a - top + height]
                    picked = left[:(t - s) * height].reshape(t - s, height)
                    strip.take(reach[s:t] - top, axis=0, out=picked, mode="clip")
                    blk[:, s:t] = picked.T
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
            own[i, upper] = blk[r, at:]

    with _small_ufunc_buffer():
        for p in range(chunks):
            a, h = p * block, blocks[p].shape[0]
            low = scratch[:n]
            for e in range(p):
                top = e * block
                np.minimum.reduce(blocks[e][:, a - top:a - top + h], axis=1, out=low[top:top + block])
            np.minimum.reduce(blocks[p], axis=0, out=low[a:])
            reach = np.flatnonzero(low < np.inf)
            relax(p, p, reach)
            for c in range(chunks):
                if c != p:
                    relax(p, c, reach)
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
        if size <= linalg.ROW_BLOCK:
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

    The matrix is held once, as its upper row blocks (_weights fills them,
    linalg.SymmetricBlocks), about (n^2 + ROW_BLOCK n) / 2 words, and no n x
    n buffer is made. The order's block goes before it comes: points is a
    copy, as a view would keep the block alive. Component ids are read from
    d when asked for (GeodesicMatrix.component_ids).
    """
    points = _pivot_order(g).copy()
    places = np.empty(g.n, np.int64)  # each point's place in the order
    places[points] = np.arange(g.n)
    return GeodesicMatrix(d=_floyd_in_place(_weights(g, places)), points=points)


def _weights(g, places):
    """g's weights as a linalg.SymmetricBlocks with point i at row and
    column places[i], for a permutation places of range(g.n): 0 on the
    diagonal, inf off the edges (SymmetricBlocks.put)."""
    d = SymmetricBlocks.full(g.n, np.inf)
    diag = np.arange(g.n)
    d.buf[d.flat(diag, diag)] = 0.0
    d.put(places[g.edges[:, 0]], places[g.edges[:, 1]], g.weights)
    return d


def largest_component(gm, data):
    """Restrict a geodesic matrix and dataset to the largest component.

    Ties go to the component whose rows come first, which in the points'
    own order and in floyd_all_pairs' is the one holding the lowest point
    id (GeodesicMatrix.component_ids). Returns (sub_data, sub_gm, kept)
    where kept holds the point ids of sub_gm's rows, in gm's row order,
    and sub_data those points in that order. The components are read from
    gm.d's finite entries, once per call, and the kept rows' upper parts
    are gathered into a new packed matrix (SymmetricBlocks.take). When
    nothing is dropped, gm comes back as it is, not copied.
    """
    ids = gm.component_ids
    rows = np.flatnonzero(ids == np.argmax(np.bincount(ids)))
    kept = gm.points[rows]
    if rows.size < gm.n:
        gm = GeodesicMatrix(d=gm.d.take(rows), points=kept)
    return data.subset(kept), gm, kept


def double_center(d):
    """-H S H / 2 with S the squares of the distances d and H the centering
    matrix I - ones/n, as a linalg.CenteredSquares over d itself: d is only
    read, and neither S nor an n x n matrix is made beside it; each product
    squares d a row block at a time. d is a linalg.SymmetricBlocks, symmetric
    by construction; anything else raises TypeError. One pass over d
    refuses an inf or NaN entry with NonFiniteError (restrict to one
    component first); squares that overflow in a product are refused there,
    with NonFiniteError too.
    """
    if not isinstance(d, SymmetricBlocks):
        raise TypeError(f"d must be a linalg.SymmetricBlocks, got {type(d).__name__}")
    _check_finite(d.buf, "geodesic matrix spans multiple components")
    return CenteredSquares(d)


def classical_mds(gm, m):
    """Classical scaling of squared geodesic distances into m dimensions.

    Coordinate column j is sqrt(max(lambda_j, 0)) times eigenvector j of
    the doubly-centered matrix; negative-eigenvalue columns collapse to
    zero (see Embedding.n_clipped). Only the top m eigenpairs of
    double_center's operator over gm.d are computed
    (linalg.symmetric_eigen_top), whose eigenvectors are scaled in place
    into the coordinates. gm.d is only read.
    """
    n = gm.n
    if not 1 <= m <= n - 1:
        raise BadDimError(f"m must be in [1, {n - 1}], got {m}")
    values, vectors = symmetric_eigen_top(double_center(gm.d), m)
    vectors *= np.sqrt(np.maximum(values, 0.0))
    return Embedding(coords=vectors, eigenvalues=values)


def residual_variance(gm, emb):
    """1 - R^2 between geodesic and embedded pairwise distances.

    R is the Pearson correlation over the strict upper triangles, excluding
    the zero diagonal, so at least 3 points are needed. 0 means the
    embedding explains the geodesic structure perfectly (up to uniform
    scaling).

    One pass over gm.d's row blocks (linalg.SymmetricBlocks). A block's
    pairs are its diagonal tile's strict upper triangle, taken through flat
    indices, and the rectangle right of the tile, one contiguous copy; each
    side gathers them into one scratch vector of ROW_BLOCK * n values. The
    squared embedded distances are summed one coordinate column at a time
    from np.subtract.outer differences, with no (block, n, m) buffer, and
    their square roots taken last. Each side's min and max are taken before
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
    _check_finite(gm.d.buf, "geodesic matrix spans multiple components")
    _check_finite(emb.coords, "embedding has non-finite coordinates")
    cols = emb.coords.T.copy()  # one contiguous row per coordinate column
    chunk = min(linalg.ROW_BLOCK, n)
    # squares is zeroed: with no coordinate column every embedded distance is 0
    geo, euclid, squares = np.empty(chunk * n), np.empty(chunk * n), np.zeros(chunk * n)
    full = np.triu_indices(chunk, 1)
    lows, highs = [np.inf, np.inf], [-np.inf, -np.inf]
    # Python floats: a product that overflows is inf, with no warning
    count, mean_g, mean_e, sgg, see, sge = 0, 0.0, 0.0, 0.0, 0.0, 0.0
    with _small_ufunc_buffer():  # each 2-D call here runs three to four times faster
        for a, blk in gm.d.blocks():
            h, w = blk.shape
            if w < 2:  # the last row alone has no pair of its own
                break
            i, j = full if h == chunk else np.triu_indices(h, 1)
            tri = i * w + j  # the tile's strict upper triangle, in rows of w
            t, size = tri.size, tri.size + h * (w - h)
            g, e = geo[:size], euclid[:size]
            # mode="raise" would copy through a temporary
            np.take(blk.reshape(-1), tri, out=g[:t], mode="clip")
            g[t:].reshape(h, w - h)[...] = blk[:, h:]
            # the block's rows against columns a on, in rows of w, so that
            # tri indexes them too; euclid holds each later column's squares
            acc = squares[:h * w].reshape(h, w)
            later = euclid[:h * w].reshape(h, w)
            for c, x in enumerate(cols):
                out = later if c else acc
                np.subtract.outer(x[a:a + h], x[a:], out=out)
                np.square(out, out=out)
                if c:
                    acc += later
            np.take(squares, tri, out=e[:t], mode="clip")
            e[t:].reshape(h, w - h)[...] = acc[:, h:]
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
