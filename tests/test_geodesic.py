import tracemalloc

import numpy as np
import pytest

from topostable import (
    DataSet,
    Embedding,
    GeodesicMatrix,
    NeighborGraph,
    RunConfig,
    SelectorConfig,
    build_graph,
    classical_mds,
    double_center,
    floyd_all_pairs,
    gen_helix,
    gen_swiss_roll,
    isomap_embed,
    largest_component,
    residual_variance,
)
from topostable import linalg
from topostable.errors import BadDimError, NonFiniteError
from topostable.linalg import pearson_r

from dijkstra_reference import dijkstra_all_pairs


def graph_from_edges(n, edge_list):
    edges = np.array([e[:2] for e in edge_list], dtype=np.int64).reshape(-1, 2)
    weights = np.array([e[2] for e in edge_list], dtype=np.float64)
    return NeighborGraph(n=n, edges=edges, weights=weights)


def random_graph(rng, n, p):
    iu = np.triu_indices(n, 1)
    mask = rng.uniform(size=iu[0].size) < p
    edges = np.column_stack([iu[0][mask], iu[1][mask]])
    weights = rng.uniform(0.1, 1.0, mask.sum())
    return graph_from_edges(n, np.column_stack([edges, weights]))


def path_graph(rng, n):
    """0 - 1 - ... - n-1: column k reaches one row more at each step."""
    return graph_from_edges(n, [(i, i + 1, w) for i, w in enumerate(rng.uniform(0.1, 1.0, n - 1))])


def blocks_graph(rng, sizes, p):
    """Disjoint connected random blocks, their points interleaved by a
    random permutation of the indices."""
    n = sum(sizes)
    label = rng.permutation(n)
    edge_list, lo = [], 0
    for size in sizes:
        block = label[lo:lo + size]
        for a in range(size):
            for b in range(a + 1, size):
                if b == a + 1 or rng.uniform() < p:
                    i, j = sorted((int(block[a]), int(block[b])))
                    edge_list.append((i, j, rng.uniform(0.1, 1.0)))
        lo += size
    edge_list.sort()
    return graph_from_edges(n, edge_list)


def floyd_reference(g):
    """The plain Floyd-Warshall recurrence: one full-matrix update per k."""
    d = g.to_dense_weights()
    for k in range(g.n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


# name -> (graph builder, expected number of components or None)
ORACLE_GRAPHS = {
    "random-connected-n80": (lambda rng: random_graph(rng, 80, 0.3), 1),
    # every component holds fewer than half the points, so no step ever
    # has half the rows reaching k; 70 rows also span two row chunks
    "random-disconnected-blocks": (lambda rng: blocks_graph(rng, (70, 66, 5), 0.1), 3),
    "random-sparse-n100": (lambda rng: random_graph(rng, 100, 0.02), None),
    "path-n150": (lambda rng: path_graph(rng, 150), 1),
    "n1": (lambda rng: random_graph(rng, 1, 0.5), 1),
    "n2": (lambda rng: random_graph(rng, 2, 1.0), 1),
    "n63": (lambda rng: random_graph(rng, 63, 0.08), None),
    "n64": (lambda rng: random_graph(rng, 64, 0.08), None),
    "n65": (lambda rng: random_graph(rng, 65, 0.08), None),
    "n130": (lambda rng: random_graph(rng, 130, 0.04), None),
    "swissroll-stable-n300": (
        lambda rng: build_graph(gen_swiss_roll(300, 1).data, SelectorConfig(k=10), "stable"),
        None,
    ),
}


@pytest.mark.parametrize("apsp", [floyd_all_pairs, dijkstra_all_pairs])
class TestAllPairs:
    def test_single_path(self, apsp):
        gm = apsp(graph_from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]))
        assert gm.d[0, 2] == 3.0
        assert np.array_equal(gm.component_ids, [0, 0, 0])

    def test_disconnected(self, apsp):
        gm = apsp(graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        assert np.isinf(gm.d[0, 2]) and np.isinf(gm.d[1, 3])
        assert gm.d[0, 1] == 1.0
        assert np.array_equal(gm.component_ids, [0, 0, 1, 1])

    def test_triangle_heavy_edge_bypassed(self, apsp):
        gm = apsp(graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]))
        assert gm.d[0, 2] == 2.0

    def test_empty_graph(self, apsp):
        gm = apsp(graph_from_edges(3, []))
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.isinf(gm.d[off]))
        assert np.all(np.diag(gm.d) == 0.0)
        assert np.array_equal(gm.component_ids, [0, 1, 2])


class TestFloydDijkstraAgreement:
    def test_random_sparse_n50(self):
        g = random_graph(np.random.default_rng(1), 50, 0.1)
        df = floyd_all_pairs(g).d
        dd = dijkstra_all_pairs(g).d
        finite = np.isfinite(df)
        assert np.array_equal(finite, np.isfinite(dd))
        assert np.max(np.abs(df[finite] - dd[finite])) <= 1e-12

    def test_varied_sizes_and_densities(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
            df = floyd_all_pairs(g).d
            dd = dijkstra_all_pairs(g).d
            finite = np.isfinite(df)
            assert np.array_equal(finite, np.isfinite(dd))
            if finite.any():
                assert np.max(np.abs(df[finite] - dd[finite])) <= 1e-12

    def test_fixed_sizes_and_densities(self):
        rng = np.random.default_rng(2)
        for n, p in ((20, 0.3), (40, 0.15)):
            g = random_graph(rng, n, p)
            df = floyd_all_pairs(g).d
            dd = dijkstra_all_pairs(g).d
            finite = np.isfinite(df)
            assert np.array_equal(finite, np.isfinite(dd))
            assert np.max(np.abs(df[finite] - dd[finite])) <= 1e-12

    def test_matrix_invariants(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 40, 0.15)
        gm = floyd_all_pairs(g)
        assert np.array_equal(gm.d, gm.d.T)
        assert np.all(np.diag(gm.d) == 0.0)
        finite = np.isfinite(gm.d)
        for _ in range(200):
            i, j, k = rng.integers(0, 40, size=3)
            if finite[i, j] and finite[i, k] and finite[k, j]:
                assert gm.d[i, j] <= gm.d[i, k] + gm.d[k, j] + 1e-9


class TestFloydOracle:
    """floyd_all_pairs must equal the plain recurrence entry for entry."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_equals_plain_recurrence(self, name):
        build, components = ORACLE_GRAPHS[name]
        g = build(np.random.default_rng(7))
        gm = floyd_all_pairs(g)
        if components is not None:
            assert int(gm.component_ids.max()) + 1 == components
        assert np.array_equal(gm.d, floyd_reference(g))
        assert np.array_equal(gm.d, gm.d.T)
        assert np.all(np.diag(gm.d) == 0.0)


class TestLargestComponent:
    def test_connected_is_identity(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        data = DataSet(np.arange(6.0).reshape(3, 2))
        sub_data, sub_gm, kept = largest_component(floyd_all_pairs(g), data)
        assert np.array_equal(kept, [0, 1, 2])
        assert np.array_equal(sub_data.points, data.points)

    def test_keeps_larger(self):
        g = graph_from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        data = DataSet(np.arange(10.0).reshape(5, 2))
        _, sub_gm, kept = largest_component(floyd_all_pairs(g), data)
        assert np.array_equal(kept, [0, 1, 2])
        assert np.all(np.isfinite(sub_gm.d))

    def test_nothing_dropped_returns_inputs(self):
        g = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        data = DataSet(np.arange(6.0).reshape(3, 2))
        gm = floyd_all_pairs(g)
        sub_data, sub_gm, _ = largest_component(gm, data)
        assert sub_gm is gm and sub_data is data

    def test_dropping_copies(self):
        g = graph_from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        data = DataSet(np.arange(10.0).reshape(5, 2))
        gm = floyd_all_pairs(g)
        sub_data, sub_gm, _ = largest_component(gm, data)
        assert not np.shares_memory(sub_gm.d, gm.d)
        assert not np.shares_memory(sub_data.points, data.points)
        assert np.array_equal(sub_gm.d, gm.d[:3, :3])

    def test_tie_keeps_component_of_lowest_index(self):
        g = graph_from_edges(4, [(0, 2, 1.0), (1, 3, 1.0)])
        data = DataSet(np.arange(8.0).reshape(4, 2))
        _, _, kept = largest_component(floyd_all_pairs(g), data)
        assert np.array_equal(kept, [0, 2])


class TestDoubleCenter:
    def test_two_point_hand_case(self):
        out = double_center([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(out, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_zero_matrix(self):
        assert np.array_equal(double_center(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_infinite_entry_raises(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = np.inf
        with pytest.raises(NonFiniteError):
            double_center(s)

    def test_input_not_modified(self):
        s = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 9.0], [4.0, 9.0, 0.0]])
        before = s.copy()
        double_center(s)
        assert np.array_equal(s, before)

    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 10, size=(20, 20))
        s = (a + a.T) / 2
        np.fill_diagonal(s, 0.0)
        out = double_center(s)
        scale = np.linalg.norm(out)
        assert np.max(np.abs(out.sum(axis=0))) <= 1e-9 * scale
        assert np.max(np.abs(out.sum(axis=1))) <= 1e-9 * scale
        assert np.allclose(out, out.T, atol=1e-12 * scale)


def gm_from_coords(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    return GeodesicMatrix(d=d, component_ids=np.zeros(len(coords), dtype=np.int64))


class TestClassicalMds:
    def test_two_points_half_coordinates(self):
        gm = GeodesicMatrix(d=np.array([[0.0, 1.0], [1.0, 0.0]]), component_ids=np.zeros(2, np.int64))
        emb = classical_mds(gm, 1)
        assert emb.eigenvalues == pytest.approx([0.5], abs=1e-15)
        assert np.allclose(emb.coords.ravel(), [0.5, -0.5], atol=1e-12)

    def test_planar_cloud_distances_recovered(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(30, 2))
        gm = gm_from_coords(coords)
        emb = classical_mds(gm, 2)
        rec = gm_from_coords(emb.coords)
        assert np.max(np.abs(rec.d - gm.d)) <= 1e-8

    def test_column_scaling_and_orthogonality(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        emb = classical_mds(gm_from_coords(square), 2)
        for j in range(2):
            lam = max(emb.eigenvalues[j], 0.0)
            assert np.dot(emb.coords[:, j], emb.coords[:, j]) == pytest.approx(lam, abs=1e-10)
        assert abs(np.dot(emb.coords[:, 0], emb.coords[:, 1])) <= 1e-8

    def test_bad_dim(self):
        gm = gm_from_coords(np.zeros((4, 2)) + np.arange(8).reshape(4, 2))
        with pytest.raises(BadDimError):
            classical_mds(gm, 0)
        with pytest.raises(BadDimError):
            classical_mds(gm, 4)

    def test_nonfinite_raises(self):
        d = np.zeros((3, 3))
        d[0, 1] = d[1, 0] = np.inf
        gm = GeodesicMatrix(d=d, component_ids=np.array([0, 1, 0]))
        with pytest.raises(NonFiniteError):
            classical_mds(gm, 1)

    def test_geodesic_matrix_not_modified(self):
        gm = gm_from_coords(np.random.default_rng(12).normal(size=(60, 3)))
        before = gm.d.copy()
        classical_mds(gm, 2)
        assert np.array_equal(gm.d, before)

    def test_negative_eigenvalues_clipped(self):
        # a random non-metric "distance" matrix is indefinite after double
        # centering, so the full spectrum contains negative eigenvalues
        rng = np.random.default_rng(0)
        d = rng.uniform(0.5, 2.0, size=(8, 8))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        gm = GeodesicMatrix(d=d, component_ids=np.zeros(8, np.int64))
        emb = classical_mds(gm, 7)
        assert emb.n_clipped >= 1
        clipped = np.flatnonzero(emb.eigenvalues < 0)
        kept = np.flatnonzero(emb.eigenvalues >= 0)
        assert np.all(emb.coords[:, clipped] == 0.0)
        for j in kept:
            assert np.dot(emb.coords[:, j], emb.coords[:, j]) == pytest.approx(
                emb.eigenvalues[j], abs=1e-10
            )


class TestResidualVariance:
    def test_exact_embedding_zero(self):
        coords = np.random.default_rng(6).normal(size=(20, 3))
        gm = gm_from_coords(coords)
        emb = Embedding(coords=coords, eigenvalues=np.zeros(3))
        assert residual_variance(gm, emb) <= 1e-12

    def test_uniform_scaling_zero(self):
        coords = np.random.default_rng(7).normal(size=(15, 2))
        gm = gm_from_coords(coords)
        scaled = GeodesicMatrix(d=2.0 * gm.d, component_ids=gm.component_ids)
        emb = Embedding(coords=coords, eigenvalues=np.zeros(2))
        assert residual_variance(scaled, emb) <= 1e-12

    def test_full_mds_of_euclidean_set(self):
        rng = np.random.default_rng(8)
        coords = rng.normal(size=(25, 4))
        gm = gm_from_coords(coords)
        emb = classical_mds(gm, 24)
        assert residual_variance(gm, emb) <= 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        coords = rng.normal(size=(12, 2))
        other = rng.normal(size=(12, 2))
        gm = gm_from_coords(other)
        emb = Embedding(coords=coords, eigenvalues=np.zeros(2))
        rv1 = residual_variance(gm, emb)
        rv2 = residual_variance(GeodesicMatrix(d=3.7 * gm.d, component_ids=gm.component_ids), emb)
        assert rv1 == pytest.approx(rv2, abs=1e-12)

    def test_mds_round_trip_after_rigid_lift(self):
        rng = np.random.default_rng(10)
        cloud = rng.normal(size=(50, 2))
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        lifted = np.hstack([cloud, np.zeros((50, 8))]) @ q.T + rng.normal(size=10)
        gm = gm_from_coords(lifted)
        emb = classical_mds(gm, 2)
        assert residual_variance(gm, emb) <= 1e-10


def residual_variance_reference(gm, emb):
    """The dense formula residual_variance replaced, kept as the oracle: the
    (n, n, m) difference tensor and the np.triu_indices gather."""
    coords = emb.coords
    diff = coords[:, None, :] - coords[None, :, :]
    euclid = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    iu = np.triu_indices(gm.n, 1)
    r = pearson_r(gm.d[iu], euclid[iu])
    return max(0.0, 1.0 - r * r)


class TestBackHalf:
    @pytest.mark.parametrize("method", ["standard", "stable"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_residual_variance_equals_dense_formula(self, method, m):
        data = gen_swiss_roll(300, 1).data
        emb, gm, _, _ = isomap_embed(data, RunConfig(method=method, k=10, m=m))
        assert residual_variance(gm, emb) == residual_variance_reference(gm, emb)

    @pytest.mark.parametrize("n, m", [(3, 1), (4, 2), (50, 5), (129, 9), (200, 17)])
    def test_residual_variance_equals_dense_formula_random(self, n, m):
        rng = np.random.default_rng(n)
        gm = gm_from_coords(rng.normal(size=(n, m + 2)))
        emb = Embedding(coords=rng.normal(size=(n, m)), eigenvalues=np.zeros(m))
        assert residual_variance(gm, emb) == residual_variance_reference(gm, emb)

    @pytest.mark.parametrize("method", ["standard", "stable"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_eigengap_embedding_matches_full_eigh(self, seed, method):
        # the helix's lambda1 / lambda2 is 3e4 to 6e4; the iteration's stop
        # rule is relative to lambda1, so the second column is the least
        # accurate one the pipeline produces
        emb, gm, _, _ = isomap_embed(gen_helix(500, seed).data, RunConfig(method=method, k=5))
        b = double_center(np.square(gm.d))
        assert linalg._top_subspace(b, 2) is not None  # the iteration answered
        values, vectors = linalg._top_full(b, 2)
        assert values[0] / values[1] > 1e4
        for j in range(2):
            col = vectors[:, j]
            if col[np.argmax(np.abs(col))] < 0.0:
                vectors[:, j] = -col
        assert np.max(np.abs(emb.coords - vectors * np.sqrt(values))) <= 1e-8

    def test_memory_at_most_about_two_n2_buffers(self):
        # classical_mds holds the squared distances and their centered copy,
        # residual_variance the two upper triangles and pearson_r's centered
        # copies of them: two n x n buffers each, one after the other
        n = 400
        gm = gm_from_coords(gen_swiss_roll(n, 1).data.points)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            emb = classical_mds(gm, 2)
            residual_variance(gm, emb)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * n * n * 8


class TestPipelineGraphIntegration:
    def test_geodesics_on_knn_graph(self):
        rng = np.random.default_rng(11)
        data = DataSet(rng.normal(size=(40, 3)))
        g = build_graph(data, SelectorConfig(k=6), "standard")
        gm_f = floyd_all_pairs(g)
        gm_d = dijkstra_all_pairs(g)
        finite = np.isfinite(gm_f.d)
        assert np.array_equal(finite, np.isfinite(gm_d.d))
        assert np.max(np.abs(gm_f.d[finite] - gm_d.d[finite])) <= 1e-12
