import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from topostable import DataSet, graph, linalg
from topostable.graph import METHODS

from stable_reference import _stable_select


def two_plane_bridge():
    """Two aligned 20x10 grids (spacing 0.15) at z=0 and z=0.4 plus one
    midpoint bridge point over an interior grid node.

    Returns (data, side) where side is 0 for the lower plane, 1 for the
    upper plane, and 2 for the bridge point. Corner points of either plane
    have their opposite-plane twin (distance 0.4) inside their 8 nearest
    neighbors, so plain kNN always creates direct cross-plane edges; every
    cross-plane offset is nearly parallel to the planes' normal, so the
    angle filter rejects them all.
    """
    xs = np.arange(20) * 0.15
    ys = np.arange(10) * 0.15
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    plane = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    upper = plane.copy()
    upper[:, 2] = 0.4
    bridge = np.array([[xs[10], ys[5], 0.2]])
    pts = np.vstack([plane, upper, bridge])
    side = np.array([0] * plane.shape[0] + [1] * plane.shape[0] + [2])
    return DataSet(pts), side


def cross_plane_edges(g, side):
    """Edges joining the two plane point sets (bridge belongs to neither)."""
    s0 = side[g.edges[:, 0]]
    s1 = side[g.edges[:, 1]]
    return int(np.sum((s0 != s1) & (s0 != 2) & (s1 != 2)))


def pairwise_sq(points):
    """The squared distances the graph orders by, as one (n, n) array:
    graph._pairwise_sq's row blocks, stacked."""
    return np.vstack([rows.copy() for _, rows in graph._pairwise_sq(points)])


def nearest_neighbors(data, p, k):
    """Reference kNN list of point p, sorted on its own: row p of the
    computed squared distances in stable (index) order, with p dropped."""
    order = np.argsort(pairwise_sq(data.points)[p], kind="stable")
    return order[order != p][:k]


def stable_neighbors(data, p, cfg):
    """Reference neighbor list of point p under the angle-filtered rule:
    p's own kNN list filtered by the one-point reference selector."""
    graph._check_cell(data, cfg, "stable")
    d2_row = pairwise_sq(data.points)[p]
    nbrs = nearest_neighbors(data, p, cfg.k)
    keep = _stable_select(data.points, p, nbrs, d2_row, cfg)
    return [int(j) for j in nbrs[keep]]


def sweep_cells(k_values, base, methods=METHODS):
    """The RunConfigs of a sweep over k_values, k by k and the methods in
    order within each k, each base with that method and k: the cells that
    compare_methods takes."""
    return [replace(base, method=method, k=int(k)) for k in k_values for method in methods]


def short_circuit_edges(g, intrinsic):
    """Number of edges of the neighbor graph g whose distance on the
    manifold, intrinsic(i, j) for the arrays of edge ends, is more than
    twice their length (weight): the paper's short-circuit edges.

    The punctured sphere has no such count: on a unit sphere an arc is at
    most pi/2 times its chord, so no edge can be twice as long on the
    sphere as in space, and a sphere test needs another reference."""
    i, j = g.edges[:, 0], g.edges[:, 1]
    return int(np.sum(intrinsic(i, j) > 2.0 * g.weights))


def swiss_roll_distance(params):
    """Distance on the unrolled roll between gen_swiss_roll points with
    params (t, h). The spiral (t cos t, t sin t) has arc length S(t) =
    (t sqrt(1 + t^2) + asinh t) / 2, and the roll unrolls to the (S(t), h)
    plane."""
    t, h = params[:, 0], params[:, 1]
    s = 0.5 * (t * np.sqrt(1.0 + t * t) + np.arcsinh(t))
    return lambda i, j: np.hypot(s[i] - s[j], h[i] - h[j])


def helix_distance(params, steps=1 << 16):
    """Arc length along gen_helix's closed curve between points with params
    t, the shorter way round. The curve ((2 + cos 8t) cos t, (2 + cos 8t)
    sin t, sin 8t) has speed sqrt(64 + (2 + cos 8t)^2); its integral from 0
    is taken by the trapezoid rule on `steps` intervals of [0, 2pi] and
    interpolated at each t."""
    grid = np.linspace(0.0, 2.0 * np.pi, steps + 1)
    speed = np.sqrt(64.0 + (2.0 + np.cos(8.0 * grid)) ** 2)
    arc = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(grid))])
    s = np.interp(params[:, 0], grid, arc)

    def distance(i, j):
        along = np.abs(s[i] - s[j])
        return np.minimum(along, arc[-1] - along)

    return distance


def blob_images(n, seed):
    """n 28 x 28 images of one Gaussian blob each (sigma 3 pixels), rounded
    as 8-bit pixels are: points in 784-D on a 2-D manifold."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(5.5, 21.5, size=(n, 2))
    axis = np.arange(28.0)
    gx = np.exp(-((axis - centres[:, :1]) ** 2) / 18.0)
    gy = np.exp(-((axis - centres[:, 1:]) ** 2) / 18.0)
    return np.rint(255.0 * gy[:, :, None] * gx[:, None, :]).reshape(n, 784)


def in_rows(gm, d):
    """d, an (n, n) matrix over the points in their own order, with its rows
    and columns in gm's: row r for point gm.points[r]. floyd_all_pairs
    leaves its result in its pivot order, so a reference made in the
    points' order is compared with it through this gather."""
    return d[np.ix_(gm.points, gm.points)]


def pack(a):
    """The square array a as a linalg.SymmetricBlocks, packed from its upper
    triangle into a new buffer: each block takes a's rows at its columns,
    and each diagonal tile's lower part is its upper part mirrored. a's
    lower triangle is not read, so it is not checked either."""
    a = np.asarray(a, dtype=np.float64)
    out = linalg.SymmetricBlocks.full(a.shape[0], 0.0)
    for lo, blk in out.blocks():
        blk[...] = a[lo:lo + blk.shape[0], lo:]
        tile = blk[:, :blk.shape[0]]
        lower = np.tril_indices(blk.shape[0], -1)
        tile[lower] = tile.T[lower]
    return out


def centered_squares(d):
    """-H S H / 2 for S the squares of the packed distances d and H = I -
    ones/n, from d.dense() by dense products: the reference for
    linalg.CenteredSquares, which never forms it."""
    n = d.n
    h = np.eye(n) - 1.0 / n
    return -0.5 * (h @ np.square(d.dense()) @ h)


def peak_bytes(fn):
    """(fn(), the highest traced memory while fn ran, in bytes above what
    was traced when it started). tracemalloc runs only for the call and is
    stopped also when fn raises."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """Fails the run if a test leaves a child process running or unreaped,
    such as a CLI run started with subprocess."""
    yield
    if not hasattr(os, "WNOHANG"):  # Windows: no way to poll for one
        return
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind (os.waitpid(-1, os.WNOHANG) gave {left})")


@pytest.fixture(scope="session")
def bridge_fixture():
    return two_plane_bridge()
