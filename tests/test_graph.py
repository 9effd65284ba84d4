import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topostable
from topostable import DataSet, NeighborGraph, SelectorConfig, build_graph
from topostable.errors import DegenerateBasisError, DegenerateComplementError, KTooLargeError
from topostable.graph import EDGE_BLOCK_BYTES

from conftest import cross_plane_edges, nearest_neighbors, stable_neighbors


# Deterministic example sets, small enough to keep the suite fast.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
seeds = st.integers(0, 2**32 - 1)
methods = st.sampled_from(["standard", "stable"])


def gaussian_points(seed, n, dim=3):
    """Gaussian points, in general position with probability one: no
    distance ties and no four points on a plane."""
    return np.random.default_rng(seed).normal(size=(n, dim))


def edge_weights(graph):
    return {(int(i), int(j)): w for (i, j), w in zip(graph.edges, graph.weights)}


def line_points_2d():
    return DataSet(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))


class TestDataSet:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DataSet(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_rejects_1d_ambient(self):
        with pytest.raises(ValueError):
            DataSet(np.array([[1.0], [2.0]]))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            DataSet(np.zeros((3, 2)), labels=[1, 2])

    def test_subset_keeps_labels(self):
        d = DataSet(np.arange(8.0).reshape(4, 2), labels=[5, 6, 7, 8])
        s = d.subset(np.array([2, 0]))
        assert np.array_equal(s.points, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(s.labels, [7, 5])


def selector_example():
    """Base point with two orthogonal nearest neighbors, one off-surface
    bridge direction, one in-plane direction, and a far probe point."""
    pts = np.array(
        [
            [0.0, 0.0, 0.0],    # 0: base
            [1.0, 0.0, 0.0],    # 1: nearest
            [0.0, 1.0, 0.0],    # 2: second nearest
            [0.22, 0.22, 1.1],  # 3: bridge direction, theta ~ 15.8 deg
            [0.85, 0.85, 0.0],  # 4: in-plane, theta = 90 deg
            [5.0, 5.0, 5.0],    # 5: far probe (outside k=4)
        ]
    )
    return DataSet(pts)


class TestSelectNeighborsStable:
    def test_bridge_rejected_in_plane_kept(self):
        cfg = SelectorConfig(k=4, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(selector_example(), 0, cfg) == [1, 2, 4]

    def test_all_candidates_coplanar_all_kept(self):
        # every in-plane offset is orthogonal to the complement vector
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.2, 0.7, 0.0],
                [-0.9, 1.1, 0.0],
                [7.0, 7.0, 9.0],  # off-plane probe beyond the k-neighborhood
            ]
        )
        cfg = SelectorConfig(k=4, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(pts), 0, cfg) == [1, 2, 3, 4]

    def test_candidate_along_complement_rejected(self):
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.5],  # exactly along v3: theta = 0
                [0.0, 0.0, 9.0],  # probe
            ]
        )
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(pts), 0, cfg) == [1, 2]

    def test_collinear_second_neighbor_substituted(self):
        # second-nearest is collinear with the nearest; the basis walks on to
        # the third while the collinear point stays selected (it is one of
        # the two nearest) and the third passes the angle test at 90 degrees
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.5, 0.0, 0.0],
                [0.8, 0.0, 0.0],
                [0.0, 0.9, 0.0],
                [0.0, 0.0, 7.0],  # probe
            ]
        )
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(pts), 0, cfg) == [1, 2, 3]

    def test_duplicate_point_kept_unconditionally(self):
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],  # duplicate of the base point
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [4.0, 4.0, 4.0],  # probe
            ]
        )
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(pts), 0, cfg) == [1, 2, 3]

    def test_all_collinear_raises_degenerate_basis(self):
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [2.0, 0.0, 0.0],
                [3.0, 0.0, 0.0],
                [0.0, 5.0, 5.0],
            ]
        )
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        with pytest.raises(DegenerateBasisError):
            stable_neighbors(DataSet(pts), 0, cfg)

    def test_no_probe_outside_plane_raises_degenerate_complement(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.normal(size=(12, 2)), np.zeros(12)])
        cfg = SelectorConfig(k=4, dim_w=2, delta_theta_deg=5.0)
        with pytest.raises(DegenerateComplementError):
            stable_neighbors(DataSet(pts), 0, cfg)

    @pytest.mark.parametrize(
        "probes, kept",
        [
            # two probes tie for farthest: the lower index gives w_perp,
            # e4 keeps the candidate at 90 degrees, e3 rejects it
            ([[0.0, 0.0, 0.0, 10.0], [0.0, 0.0, 10.0, 0.0]], [1, 2, 3]),
            ([[0.0, 0.0, 10.0, 0.0], [0.0, 0.0, 0.0, 10.0]], [1, 2]),
            # the farthest probe lies in the plane: the walk moves on to
            # the next farthest
            ([[20.0, 20.0, 0.0, 0.0], [0.0, 0.0, 0.0, 10.0], [0.0, 0.0, 10.0, 0.0]], [1, 2, 3]),
        ],
    )
    def test_probe_is_farthest_outside_the_plane(self, probes, kept):
        pts = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.5, 0.5, 0.9, 0.0],  # candidate: off the plane along e3
                *probes,
            ]
        )
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(pts), 0, cfg) == kept

    def test_config_validation(self):
        data = selector_example()
        with pytest.raises(ValueError):
            build_graph(data, SelectorConfig(k=2, dim_w=2), "stable")
        with pytest.raises(ValueError):
            build_graph(data, SelectorConfig(k=4, dim_w=3), "stable")
        with pytest.raises(ValueError):
            build_graph(data, SelectorConfig(k=4, delta_theta_deg=95.0), "stable")


class TestBuildGraph:
    def test_collinear_standard_path_graph(self):
        g = build_graph(line_points_2d(), SelectorConfig(k=1), "standard")
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights == pytest.approx([1.0, 2.0])

    def test_collinear_standard_k2_all_edges(self):
        # hand-sorted pairwise distances: 0->(1,3), 1->(0,3), 3->(1,0)
        g = build_graph(line_points_2d(), SelectorConfig(k=2), "standard")
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.weights == pytest.approx([1.0, 3.0, 2.0])

    def test_bridge_fixture_standard_vs_stable(self, bridge_fixture):
        data, side = bridge_fixture
        cfg = SelectorConfig(k=8, dim_w=2, delta_theta_deg=5.0)
        assert cross_plane_edges(build_graph(data, cfg, "standard"), side) >= 1
        assert cross_plane_edges(build_graph(data, cfg, "stable"), side) == 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            build_graph(line_points_2d(), SelectorConfig(k=1), "fastest")

    def test_k_too_large_propagates(self):
        with pytest.raises(KTooLargeError):
            build_graph(line_points_2d(), SelectorConfig(k=3), "standard")

    def test_selector_error_names_the_point(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        with pytest.raises(DegenerateBasisError, match="point 0"):
            build_graph(DataSet(pts), SelectorConfig(k=3), "stable")

    def test_symmetric_no_self_loops_random(self):
        rng = np.random.default_rng(21)
        data = DataSet(rng.normal(size=(60, 4)))
        for method in ("standard", "stable"):
            g = build_graph(data, SelectorConfig(k=7), method)
            assert np.all(g.edges[:, 0] < g.edges[:, 1])
            dense = g.to_dense_weights()
            assert np.array_equal(dense, dense.T)
            # weights are exact Euclidean distances
            d = np.linalg.norm(data.points[g.edges[:, 0]] - data.points[g.edges[:, 1]], axis=1)
            assert np.max(np.abs(d - g.weights)) <= 1e-12

    def test_blocked_weights_equal_one_pass_norms(self):
        # 784-D: 167 edges per block, so the weights span many blocks
        data = DataSet(np.random.default_rng(5).standard_normal((300, 784)))
        for method in ("standard", "stable"):
            g = build_graph(data, SelectorConfig(k=10), method)
            assert g.n_edges > 2 * EDGE_BLOCK_BYTES // (8 * 784)
            d = np.linalg.norm(data.points[g.edges[:, 0]] - data.points[g.edges[:, 1]], axis=1)
            assert np.array_equal(g.weights, d)

    @PROPERTY
    @given(seed=seeds, n=st.integers(20, 60), dim=st.integers(3, 5), k=st.integers(3, 10))
    def test_stable_edges_subset_of_standard(self, seed, n, dim, k):
        data = DataSet(gaussian_points(seed, n, dim))
        cfg = SelectorConfig(k=k)
        std = edge_weights(build_graph(data, cfg, "standard"))
        stb = edge_weights(build_graph(data, cfg, "stable"))
        assert stb.keys() <= std.keys()

    @PROPERTY
    @given(seed=seeds, n=st.integers(20, 60), k=st.integers(3, 10))
    def test_wide_window_matches_standard(self, seed, n, k):
        data = DataSet(gaussian_points(seed, n))
        cfg = SelectorConfig(k=k, delta_theta_deg=89.999)
        std = build_graph(data, cfg, "standard")
        stb = build_graph(data, cfg, "stable")
        assert np.array_equal(std.edges, stb.edges)
        assert np.array_equal(std.weights, stb.weights)

    @PROPERTY
    @given(seed=seeds, n=st.integers(20, 60), method=methods)
    def test_rigid_motion_leaves_edges_unchanged(self, seed, n, method):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        moved = pts @ q.T + rng.uniform(-10.0, 10.0, size=3)
        cfg = SelectorConfig(k=6)
        e0 = build_graph(DataSet(pts), cfg, method).edges
        e1 = build_graph(DataSet(moved), cfg, method).edges
        assert np.array_equal(e0, e1)

    @PROPERTY
    @given(seed=seeds, n=st.integers(20, 60), method=methods)
    def test_permutation_permutes_edges(self, seed, n, method):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        perm = rng.permutation(n)
        cfg = SelectorConfig(k=6)
        g0 = build_graph(DataSet(pts), cfg, method)
        g1 = build_graph(DataSet(pts[perm]), cfg, method)
        # original point perm[a] is point a of the permuted set
        new_index = np.argsort(perm)
        expected = {}
        for (i, j), w in edge_weights(g0).items():
            a, b = sorted((int(new_index[i]), int(new_index[j])))
            expected[(a, b)] = w
        assert edge_weights(g1) == expected

    @PROPERTY
    @given(seed=seeds, n=st.integers(20, 60), exponent=st.integers(-20, 20), method=methods)
    def test_power_of_two_scaling_leaves_edges_unchanged(self, seed, n, exponent, method):
        # scaling by 2**e is exact, so every distance, projection and angle
        # scales (or stays) exactly
        pts = gaussian_points(seed, n)
        scale = 2.0**exponent
        cfg = SelectorConfig(k=6)
        g0 = build_graph(DataSet(pts), cfg, method)
        g1 = build_graph(DataSet(pts * scale), cfg, method)
        assert np.array_equal(g0.edges, g1.edges)
        assert np.array_equal(g0.weights * scale, g1.weights)

    @PROPERTY
    @given(seed=seeds, n=st.integers(20, 40), dups=st.integers(0, 4), k=st.integers(3, 8), method=methods)
    def test_edges_equal_pointwise_union(self, seed, n, dups, k, method):
        # oracle: union of the per-point neighbor lists, built with a set;
        # each list is sorted on its own (conftest), not read from
        # build_graph's kNN table. Duplicated rows add distance ties and
        # coincident candidates; a duplicated pair can fill two candidate
        # slots with one direction, so k grows by 2 per pair to leave dim_w
        # independent offsets.
        pts = gaussian_points(seed, n)
        data = DataSet(np.vstack([pts, pts[:dups]]))
        cfg = SelectorConfig(k=k + 2 * dups)
        pairs = set()
        for p in range(data.n):
            if method == "standard":
                chosen = nearest_neighbors(data, p, cfg.k)
            else:
                chosen = stable_neighbors(data, p, cfg)
            pairs.update((min(p, int(j)), max(p, int(j))) for j in chosen)
        edges = build_graph(data, cfg, method).edges
        assert list(map(tuple, edges.tolist())) == sorted(pairs)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_rejects_negative_or_nan_weight(self, bad):
        # the Floyd kernel skips rows with d[i, k] = inf, which is exact
        # only when no weight is NaN
        with pytest.raises(ValueError, match="non-negative"):
            NeighborGraph(n=3, edges=[[0, 1], [1, 2]], weights=[1.0, bad])


def test_exports_match_modules():
    modules = (topostable.graph, topostable.geodesic, topostable.linalg, topostable.datasets, topostable.pipeline)
    names = topostable.__all__
    assert names == ["__version__", "TopoStableError", *(name for m in modules for name in m.__all__)]
    assert len(set(names)) == len(names)
    assert all(hasattr(topostable, name) for name in names)
    for name in ("knn_lists", "select_neighbors_stable", "_knn_table"):
        assert name not in names
        assert not hasattr(topostable.graph, name)
    assert not hasattr(NeighborGraph, "has_edge")
