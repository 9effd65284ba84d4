import numpy as np
import pytest

from topostable import DataSet, graph


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


def nearest_neighbors(data, p, k):
    """Reference kNN list of point p, sorted on its own: row p of the
    computed squared distances in stable (index) order, with p dropped."""
    order = np.argsort(graph._pairwise_sq(data.points)[p], kind="stable")
    return order[order != p][:k]


def stable_neighbors(data, p, cfg):
    """Reference neighbor list of point p under the angle-filtered rule:
    p's own kNN list filtered by the selector's keep-mask."""
    cfg.check(data, stable=True)
    d2_row = graph._pairwise_sq(data.points)[p]
    nbrs = nearest_neighbors(data, p, cfg.k)
    keep = graph._stable_select(data.points, p, nbrs, d2_row, cfg)
    return [int(j) for j in nbrs[keep]]


@pytest.fixture(scope="session")
def bridge_fixture():
    return two_plane_bridge()
