import math
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from topostable import geodesic, graph, linalg
from topostable.errors import BadDimError, NonFiniteError, ZeroVarianceError

from conftest import blob_images, centered_squares, dense, hand_built, in_rows, pack, peak_bytes
from dijkstra_reference import dijkstra_all_pairs


# one sequence of examples on every run; each test keeps its own count
PROPERTY = settings(derandomize=True, deadline=None)


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


def dense_weights(g):
    """g's (n, n) weights in the points' own order: 0 on the diagonal, inf
    off the edges, each edge at both of its entries."""
    d = np.full((g.n, g.n), np.inf)
    np.fill_diagonal(d, 0.0)
    d[g.edges[:, 0], g.edges[:, 1]] = g.weights
    d[g.edges[:, 1], g.edges[:, 0]] = g.weights
    return d


def floyd_reference(g, order):
    """The plain Floyd-Warshall recurrence, one full-matrix update per
    pivot k, with k taken in the given order."""
    d = dense_weights(g)
    for k in order:
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def pivoted_reference(g):
    """The plain recurrence in the order floyd_all_pairs takes its pivots."""
    return floyd_reference(g, geodesic._pivot_order(g))


# name -> (graph builder, expected number of components or None)
ORACLE_GRAPHS = {
    "random-connected-n80": (lambda rng: random_graph(rng, 80, 0.3), 1),
    # three components with their points interleaved: in the points' own
    # order a panel's reach set takes scattered rows of each chunk; 70 rows
    # also span two row chunks
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
        assert dense(gm.d)[0, 2] == 3.0
        assert np.array_equal(gm.component_ids, [0, 0, 0])

    def test_disconnected(self, apsp):
        gm = apsp(graph_from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        assert np.isinf(dense(gm.d)[0, 2]) and np.isinf(dense(gm.d)[1, 3])
        assert dense(gm.d)[0, 1] == 1.0
        assert np.array_equal(gm.component_ids, [0, 0, 1, 1])

    def test_triangle_heavy_edge_bypassed(self, apsp):
        gm = apsp(graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]))
        assert dense(gm.d)[0, 2] == 2.0

    def test_empty_graph(self, apsp):
        gm = apsp(graph_from_edges(3, []))
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.isinf(dense(gm.d)[off]))
        assert np.all(np.diag(dense(gm.d)) == 0.0)
        assert np.array_equal(gm.component_ids, [0, 1, 2])


class TestFloydDijkstraAgreement:
    def test_random_sparse_n50(self):
        g = random_graph(np.random.default_rng(1), 50, 0.1)
        gm = floyd_all_pairs(g)
        df, dd = dense(gm.d), in_rows(gm, dense(dijkstra_all_pairs(g).d))
        finite = np.isfinite(df)
        assert np.array_equal(finite, np.isfinite(dd))
        assert np.max(np.abs(df[finite] - dd[finite])) <= 1e-12

    def test_varied_sizes_and_densities(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
            gm = floyd_all_pairs(g)
            df, dd = dense(gm.d), in_rows(gm, dense(dijkstra_all_pairs(g).d))
            finite = np.isfinite(df)
            assert np.array_equal(finite, np.isfinite(dd))
            if finite.any():
                assert np.max(np.abs(df[finite] - dd[finite])) <= 1e-12

    def test_fixed_sizes_and_densities(self):
        rng = np.random.default_rng(2)
        for n, p in ((20, 0.3), (40, 0.15)):
            g = random_graph(rng, n, p)
            gm = floyd_all_pairs(g)
            df, dd = dense(gm.d), in_rows(gm, dense(dijkstra_all_pairs(g).d))
            finite = np.isfinite(df)
            assert np.array_equal(finite, np.isfinite(dd))
            assert np.max(np.abs(df[finite] - dd[finite])) <= 1e-12

    def test_matrix_invariants(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 40, 0.15)
        gm = floyd_all_pairs(g)
        assert np.array_equal(dense(gm.d), dense(gm.d).T)
        assert np.all(np.diag(dense(gm.d)) == 0.0)
        finite = np.isfinite(dense(gm.d))
        for _ in range(200):
            i, j, k = rng.integers(0, 40, size=3)
            if finite[i, j] and finite[i, k] and finite[k, j]:
                assert dense(gm.d)[i, j] <= dense(gm.d)[i, k] + dense(gm.d)[k, j] + 1e-9


def on_threads(workers, call):
    """call() on workers threads at once (one worker is this thread), its
    results in thread order. Floyd keeps no state between calls and numpy's
    ufunc buffer size, which it sets and restores, is per thread, so every
    caller must get the result it would get alone."""
    if workers == 1:
        return [call()]
    start = threading.Barrier(workers)

    def run():
        start.wait(timeout=30)
        return call()

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(run) for _ in range(workers)]
        return [f.result() for f in futures]


def oracle_cases(workers):
    """(graph name, worker threads, ROW_BLOCK) for every oracle graph, each
    count in workers, and 64- and 16-row chunks (the -chunks ids)."""
    return [
        pytest.param(name, w, chunk, id=(name if w == 1 else f"{name}-w{w}") + ("-chunks" if chunk == 16 else ""))
        for name in sorted(ORACLE_GRAPHS)
        for w in workers
        for chunk in (64, 16)
    ]


class TestFloydOracle:
    """floyd_all_pairs must equal the plain recurrence in its pivot order
    entry for entry, read through its points (in_rows), called from one
    thread and from several at once, in 64-row chunks and (the -chunks ids)
    in 16-row ones, with which even the small graphs span several chunks
    and panels, and the order several parts."""

    @pytest.mark.parametrize("name, workers, chunk", oracle_cases((1, 2, 3, 5)))
    def test_equals_plain_recurrence(self, name, workers, chunk, monkeypatch):
        build, components = ORACLE_GRAPHS[name]
        g = build(np.random.default_rng(7))
        monkeypatch.setattr(linalg, "ROW_BLOCK", chunk)
        reference = pivoted_reference(g)
        for gm in on_threads(workers, lambda: floyd_all_pairs(g)):
            if components is not None:
                assert int(gm.component_ids.max()) + 1 == components
            d = dense(gm.d)
            assert np.array_equal(d, in_rows(gm, reference))
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)


@st.composite
def symmetric_graphs(draw):
    """Random graphs on n points, n across the 64-row chunk boundaries, with
    zero-weight (duplicate-point) edges and disconnected blocks: the points
    fall into up to four blocks, and edges join points of one block only."""
    n = draw(st.one_of(st.sampled_from([63, 64, 65, 128, 129]), st.integers(1, 200)))
    seed = draw(st.integers(0, 2**32 - 1))
    blocks = draw(st.integers(1, 4))
    p = draw(st.sampled_from([0.02, 0.05, 0.2]))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5]))
    rng = np.random.default_rng(seed)
    block = rng.integers(0, blocks, n)
    iu = np.triu_indices(n, 1)
    keep = (block[iu[0]] == block[iu[1]]) & (rng.uniform(size=iu[0].size) < p)
    weights = np.where(rng.uniform(size=iu[0].size) < zeros, 0.0, rng.uniform(0.1, 1.0, iu[0].size))
    edges = np.column_stack([iu[0][keep], iu[1][keep]])
    return NeighborGraph(n=n, edges=edges, weights=weights[keep])


class TestFloydProperties:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @settings(PROPERTY, max_examples=40)
    @given(g=symmetric_graphs())
    def test_equals_plain_recurrence_and_stays_symmetric(self, workers, g):
        reference = pivoted_reference(g)
        for gm in on_threads(workers, lambda: floyd_all_pairs(g)):
            assert np.array_equal(dense(gm.d), in_rows(gm, reference))
            assert np.array_equal(dense(gm.d), dense(gm.d).T)

    def test_equals_plain_recurrence_at_a_realistic_size(self):
        # with a short last chunk
        n = 1340
        assert n % linalg.ROW_BLOCK
        g = build_graph(gen_swiss_roll(n, 1).data, SelectorConfig(k=10), "stable")
        gm = floyd_all_pairs(g)
        assert np.array_equal(dense(gm.d), in_rows(gm, pivoted_reference(g)))

    @pytest.mark.parametrize(
        "points",
        [gen_swiss_roll(1340, 1).data.points, blob_images(500, 1)],
        ids=["swiss-roll-n1340", "784-D-blobs-n500"],
    )
    def test_within_rounding_of_the_natural_order(self, points):
        # the pivot order changes how each geodesic's sum is grouped, or
        # which of two equal paths it follows, so only rounding may differ,
        # relative to the largest geodesic
        g = build_graph(DataSet(points), SelectorConfig(k=10), "stable")
        gm = floyd_all_pairs(g)
        d, natural = dense(gm.d), in_rows(gm, floyd_reference(g, range(g.n)))
        finite = np.isfinite(natural)
        assert np.array_equal(np.isfinite(d), finite)
        assert np.max(np.abs(d[finite] - natural[finite])) <= 1e-12 * natural[finite].max()


def kernel_in_natural_order(g):
    """_floyd_in_place on g's weights in the points' own order, with no
    pivot order, as an (n, n) array."""
    return dense(geodesic._floyd_in_place(geodesic._weights(g, np.arange(g.n))))


class TestFloydKernelNaturalOrder:
    """The kernel itself, called with the points in their own order, must
    equal the plain recurrence in that order entry for entry. There the
    panels' reach sets are scattered, so they cut row chunks partway and
    often hold rows that are not one slice of the matrix: the path that
    gathers and scatters a chunk's rows one at a time. The -w2 cases call
    it from two threads at once."""

    @pytest.mark.parametrize("name, workers, chunk", oracle_cases((1, 2)))
    def test_oracle_graphs(self, name, workers, chunk, monkeypatch):
        g = ORACLE_GRAPHS[name][0](np.random.default_rng(7))
        monkeypatch.setattr(linalg, "ROW_BLOCK", chunk)
        reference = floyd_reference(g, range(g.n))
        for d in on_threads(workers, lambda: kernel_in_natural_order(g)):
            assert np.array_equal(d, reference)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk", [64, 16])
    @settings(PROPERTY, max_examples=40)
    @given(g=symmetric_graphs())
    def test_random_graphs(self, workers, chunk, g):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "ROW_BLOCK", chunk)
            runs = on_threads(workers, lambda: kernel_in_natural_order(g))
        reference = floyd_reference(g, range(g.n))
        for d in runs:
            assert np.array_equal(d, reference)


class TestPivotOrder:
    @settings(PROPERTY, max_examples=60)
    @given(g=symmetric_graphs())
    @example(g=graph_from_edges(0, []))
    @example(g=graph_from_edges(1, []))
    def test_a_deterministic_permutation(self, g):
        order = geodesic._pivot_order(g)
        assert order.dtype == np.int64
        assert np.array_equal(np.sort(order), np.arange(g.n))
        assert np.array_equal(geodesic._pivot_order(g), order)

    def test_last_separator_splits_a_lattice_in_halves(self):
        # on a 40 x 40 grid the search from the corner (39, 39) runs along
        # the anti-diagonals, and the cumulative count reaches half the 1600
        # points on the diagonal x + y = 39: the last 40 places
        side = 40
        idx = np.arange(side * side).reshape(side, side)
        pairs = np.vstack([np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()]),
                           np.column_stack([idx[:-1].ravel(), idx[1:].ravel()])])
        g = graph_from_edges(side * side, [(i, j, 1.0) for i, j in sorted(map(tuple, pairs.tolist()))])
        order = geodesic._pivot_order(g)
        x, y = np.divmod(order, side)
        assert np.all(x[-side:] + y[-side:] == side - 1)
        half = (side * side - side) // 2
        first, second = set(order[:half].tolist()), set(order[half:-side].tolist())
        assert len(first) == len(second) == half
        assert not any((i in first and j in second) or (i in second and j in first) for i, j in g.edges.tolist())


class TestToDenseWeights:
    @staticmethod
    def permutations(n):
        rng = np.random.default_rng(n)
        yield np.arange(n)
        yield np.roll(np.arange(n), 1)  # one n-cycle
        for _ in range(3):
            yield rng.permutation(n)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("edges", ["random", "none"])
    def test_weights_made_in_place_equal_the_gather(self, n, edges):
        # point i at places[i] is the gather by the order the places invert,
        # each edge written to the one or two entries the blocks hold
        rng = np.random.default_rng(n + 2)
        g = random_graph(rng, n, 0.1) if edges == "random" else graph_from_edges(n, [])
        natural = dense_weights(g)
        for order in self.permutations(n):
            places = np.empty(n, np.int64)
            places[order] = np.arange(n)
            assert np.array_equal(dense(geodesic._weights(g, places)), natural[np.ix_(order, order)])


class _ModuleProxy:
    """Stands in for a module geodesic uses: the names given are replaced,
    and the rest come from the module."""

    def __init__(self, module, **names):
        self._module = module
        self.__dict__.update(names)

    def __getattr__(self, name):
        return getattr(self._module, name)


def buffer_scoped_calls():
    """name -> (module, call, a numpy function called inside the call's
    small-buffer scope) for each dense step that runs in one."""
    rng = np.random.default_rng(7)
    coords = rng.normal(size=(70, 2))
    gm = gm_from_coords(coords)
    emb = Embedding(coords=coords, eigenvalues=np.ones(2))
    return {
        "floyd_all_pairs": (geodesic, lambda: floyd_all_pairs(ORACLE_GRAPHS["n65"][0](rng)), "add"),
        "residual_variance": (geodesic, lambda: residual_variance(gm, emb), "take"),
        "_pairwise_sq": (graph, lambda: list(graph._pairwise_sq(coords)), "subtract"),
    }


class TestFloydBufferSize:
    """The kernel runs with numpy's ufunc buffer below three rows, and the
    caller gets its size back, from it and from every other dense step
    that shares its small-buffer scope."""

    SCOPED = ["floyd_all_pairs", "residual_variance", "_pairwise_sq"]

    @pytest.mark.parametrize("name", SCOPED)
    def test_caller_size_restored(self, name):
        _, call, _ = buffer_scoped_calls()[name]
        old = np.setbufsize(4096)
        try:
            call()
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(old)

    @pytest.mark.parametrize("name", SCOPED)
    def test_caller_size_restored_when_a_step_raises(self, monkeypatch, name):
        module, call, step = buffer_scoped_calls()[name]

        def failing_step(*args, **kwargs):
            raise RuntimeError("step failed")

        monkeypatch.setattr(module, "np", _ModuleProxy(np, **{step: failing_step}))
        old = np.getbufsize()
        with pytest.raises(RuntimeError, match="step failed"):
            call()
        assert np.getbufsize() == old

    def test_every_step_add_runs_below_three_rows_of_buffer(self, monkeypatch):
        seen = []  # the buffer size at each add

        def spy_add(*args, **kwargs):
            seen.append(np.getbufsize())
            return np.add(*args, **kwargs)

        g = ORACLE_GRAPHS["swissroll-stable-n300"][0](np.random.default_rng(7))
        monkeypatch.setattr(geodesic, "np", _ModuleProxy(np, add=spy_add))
        floyd_all_pairs(g)
        assert seen and 0 < min(seen) and max(seen) < 3 * g.n


class TestFloydMemory:
    """Traced memory of Floyd's parts: the kernel holds only its scratch
    beside the packed matrix, the pivot order only its one block, and a
    finished call only its result. tracemalloc traces every thread, so callers on
    several threads at once are bounded together."""

    @staticmethod
    def graph(name="swissroll-stable-n300"):
        return ORACLE_GRAPHS[name][0](np.random.default_rng(7))

    @staticmethod
    def scratch(n):
        """Bytes of the (64, n) step and row blocks and the (64, n) pivot
        block, plus the alignment slack of a numpy buffer."""
        return (3 * linalg.ROW_BLOCK * n + 8) * 8

    @staticmethod
    def packed(n):
        """Bytes of an n x n matrix as its upper row blocks."""
        return linalg.SymmetricBlocks.full(n, 0.0).buf.nbytes

    @staticmethod
    def order_room(g):
        """Bytes of the pivot order's block: the order, each vertex's part
        label, the search queue and the adjacency list with its offsets,
        4n + 1 + 2E words."""
        return (4 * g.n + 1 + 2 * g.n_edges) * 8

    def peak_and_scratch(self, name):
        g = self.graph(name)
        geodesic._floyd_in_place(geodesic._weights(g, np.arange(g.n)))  # numpy fills its own caches once
        d = geodesic._weights(g, np.arange(g.n))
        _, peak = peak_bytes(lambda: geodesic._floyd_in_place(d))
        return peak, self.scratch(g.n)

    @pytest.mark.parametrize("name", ["swissroll-stable-n300", "random-disconnected-blocks"])
    def test_peak_is_the_scratch(self, name):
        # in the points' own order: each chunk's rows in the panel's reach
        # set are copied into scratch at the set's columns, as one slice or,
        # where the blocks' interleaved points cut the chunk, one row at a
        # time. take's default mode="raise" would add a 150 KB temporary on
        # every gather, and a scatter through a 2-D fancy index one as large
        # as the block
        peak, scratch = self.peak_and_scratch(name)
        assert peak <= scratch + 16 * 1024

    @pytest.mark.parametrize("edges", ["none", "star", "complete", "swiss-roll"])
    def test_pivot_order_peak_is_its_room(self, edges):
        # beside its block there are only the degree count, n words, and
        # Python's own objects; the order is a view of the block, which
        # lives as long as the order
        n = 300
        pairs = {
            "none": np.zeros((0, 2), dtype=np.int64),
            "star": np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)]),
            "complete": np.column_stack(np.triu_indices(n, 1)),
            "swiss-roll": self.graph().edges,
        }[edges]
        g = NeighborGraph(n=n, edges=pairs, weights=np.ones(len(pairs)))
        geodesic._pivot_order(g)  # numpy fills its own caches once
        order, peak = peak_bytes(lambda: geodesic._pivot_order(g))
        assert peak <= self.order_room(g) + 8 * n + 16 * 1024
        room = weakref.ref(order.base)
        assert room().nbytes == self.order_room(g)
        del order
        assert room() is None

    def test_all_pairs_keeps_only_its_result(self):
        # the order's block and its inverse are freed by the time the call
        # returns: what stays is the packed matrix and its copy of the order
        g = self.graph()
        floyd_all_pairs(g)  # numpy fills its own caches once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            gm = floyd_all_pairs(g)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert gm.d.buf.nbytes <= kept <= gm.d.buf.nbytes + 16 * 1024

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_pairs_holds_the_matrix_and_the_scratch(self, workers):
        # each of the threads calling at once holds only its own; what the
        # threads themselves take is measured on calls that do nothing
        g = self.graph()
        on_threads(workers, lambda: floyd_all_pairs(g))  # numpy fills its own caches once
        threads = peak_bytes(lambda: on_threads(workers, lambda: None))[1] if workers > 1 else 0
        _, peak = peak_bytes(lambda: on_threads(workers, lambda: floyd_all_pairs(g)))
        assert peak <= threads + workers * (self.packed(g.n) + self.scratch(g.n) + 0.1 * 8 * g.n * g.n)


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
        assert np.all(np.isfinite(dense(sub_gm.d)))

    def test_nothing_dropped_returns_inputs(self):
        # past ROW_BLOCK points the pivot order is not the points' own
        g = path_graph(np.random.default_rng(3), 150)
        data = DataSet(np.arange(300.0).reshape(150, 2))
        gm = floyd_all_pairs(g)
        assert not np.array_equal(gm.points, np.arange(g.n))
        sub_data, sub_gm, kept = largest_component(gm, data)
        assert sub_gm is gm
        assert np.array_equal(kept, gm.points)
        assert np.array_equal(sub_data.points, data.subset(gm.points).points)

    def test_dropping_copies(self):
        g = graph_from_edges(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        data = DataSet(np.arange(10.0).reshape(5, 2))
        gm = floyd_all_pairs(g)
        sub_data, sub_gm, _ = largest_component(gm, data)
        assert not np.shares_memory(sub_gm.d.buf, gm.d.buf)
        assert not np.shares_memory(sub_data.points, data.points)
        assert np.array_equal(dense(sub_gm.d), dense(gm.d)[:3, :3])

    def test_tie_keeps_component_of_lowest_index(self):
        g = graph_from_edges(4, [(0, 2, 1.0), (1, 3, 1.0)])
        data = DataSet(np.arange(8.0).reshape(4, 2))
        _, _, kept = largest_component(floyd_all_pairs(g), data)
        assert np.array_equal(kept, [0, 2])

    @pytest.mark.parametrize("chunk", [64, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_tie_through_floyd_keeps_component_of_lowest_index(self, seed, chunk, monkeypatch):
        # three tied components of 70 points, their ids interleaved, each
        # split off by the pivot order, and three small ones that it leaves
        # as one part of at most ROW_BLOCK points in their own order
        monkeypatch.setattr(linalg, "ROW_BLOCK", chunk)
        rng = np.random.default_rng(seed)
        g = blocks_graph(rng, (70, 70, 70, 5, 3, 1), 0.1)
        data = DataSet(rng.normal(size=(g.n, 2)))
        ids = dijkstra_all_pairs(g).component_ids  # in the points' own order
        tied = np.flatnonzero(np.bincount(ids) == 70)
        lowest = min(int(np.flatnonzero(ids == c)[0]) for c in tied)
        gm = floyd_all_pairs(g)
        assert not np.array_equal(gm.points, np.arange(g.n))
        sub_data, sub_gm, kept = largest_component(gm, data)
        assert np.array_equal(np.sort(kept), np.flatnonzero(ids == ids[lowest]))
        assert np.array_equal(sub_gm.points, kept)
        assert np.array_equal(dense(sub_gm.d), in_rows(sub_gm, pivoted_reference(g)))
        assert np.array_equal(sub_data.points, data.points[kept])

    def test_components_read_from_the_distances(self):
        # a matrix built by hand, with no all-pairs run: points 0 and 3 are
        # one component, 1, 2 and 4 the other, the larger
        d = np.full((5, 5), np.inf)
        for part in ([0, 3], [1, 2, 4]):
            d[np.ix_(part, part)] = 1.0
        np.fill_diagonal(d, 0.0)
        gm = hand_built(d)
        assert np.array_equal(gm.component_ids, [0, 1, 1, 0, 1])
        sub_data, sub_gm, kept = largest_component(gm, DataSet(np.arange(10.0).reshape(5, 2)))
        assert np.array_equal(kept, [1, 2, 4])
        assert np.array_equal(dense(sub_gm.d), 1.0 - np.eye(3))
        assert np.array_equal(sub_gm.component_ids, [0, 0, 0])
        assert np.array_equal(sub_data.points, [[2.0, 3.0], [4.0, 5.0], [8.0, 9.0]])


class TestGeodesicMatrixInput:
    """GeodesicMatrix takes its distances packed (linalg.SymmetricBlocks, in
    a float64 buffer of the packed size) and one integer point id per row,
    and refuses anything else as it is made, not later in largest_component
    or the CSV writer."""

    @pytest.mark.parametrize("d", [np.zeros((3, 3)), np.zeros((3, 3)).tolist()], ids=["ndarray", "list"])
    def test_dense_distances_refused(self, d):
        with pytest.raises(TypeError, match="^d must be a linalg.SymmetricBlocks, got "):
            GeodesicMatrix(d=d, points=np.arange(3))

    @pytest.mark.parametrize("points", [np.arange(2), np.arange(5)[None, :], np.arange(6)],
                             ids=["short", "2-D", "long"])
    def test_points_of_another_shape_refused(self, points):
        with pytest.raises(ValueError, match=r"^points must be 1-D with one id for each of the 5 rows, got shape "):
            GeodesicMatrix(d=pack(np.zeros((5, 5))), points=points)

    @pytest.mark.parametrize("points", [np.array([0.5, 1.0, 2.0, 3.0, 4.0]), np.ones(5, dtype=bool), [0, 1, 2, 3, 4]],
                             ids=["float", "bool", "list"])
    def test_points_not_integer_ids_refused(self, points):
        with pytest.raises(TypeError, match="^points must be an integer array, got "):
            GeodesicMatrix(d=pack(np.zeros((5, 5))), points=points)

    @pytest.mark.parametrize("buf", [np.zeros(25, dtype=np.float32), np.zeros(25, dtype=np.int64), [0.0] * 25],
                             ids=["float32", "int64", "list"])
    def test_packed_buffer_not_float64_refused(self, buf):
        with pytest.raises(TypeError, match="^buf must be a float64 array, got "):
            linalg.SymmetricBlocks(5, buf)

    @pytest.mark.parametrize("buf, size", [(np.zeros(3), 3), (np.zeros(26), 26), (np.zeros((5, 5)), 25),
                                           (np.zeros(50)[::2], 25)], ids=["short", "long", "2-D", "strided"])
    def test_packed_buffer_of_another_size_or_layout_refused(self, buf, size):
        # a short buffer was once taken, with component_ids [0, 0, 0, -1, -1]
        expected = rf"^buf for n = 5 must be 1-D and contiguous with 25 entries, got {size} "
        with pytest.raises(ValueError, match=expected):
            GeodesicMatrix(d=linalg.SymmetricBlocks(5, buf))

    def test_points_kept_as_given(self):
        points = np.array([4, 0, 3, 1, 2], dtype=np.int32)
        assert GeodesicMatrix(d=pack(np.zeros((5, 5))), points=points).points is points

    def test_points_required(self):
        # the rows' point ids have no default order
        with pytest.raises(TypeError, match="points"):
            GeodesicMatrix(d=pack(np.zeros((5, 5))))


class TestDoubleCenter:
    """double_center's operator against the dense reference -H S H / 2
    (conftest.centered_squares), through its one form: its products, here
    with the identity."""

    def test_two_point_hand_case(self):
        d = pack([[0.0, 1.0], [1.0, 0.0]])
        out = double_center(d) @ np.eye(2)
        assert np.allclose(out, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)
        assert np.allclose(out, centered_squares(d), atol=1e-15)

    def test_zero_matrix(self):
        d = pack(np.zeros((3, 3)))
        assert np.array_equal(double_center(d) @ np.eye(3), np.zeros((3, 3)))
        assert np.array_equal(centered_squares(d), np.zeros((3, 3)))

    def test_infinite_entry_raises(self):
        s = np.zeros((3, 3))
        s[0, 1] = s[1, 0] = np.inf
        with pytest.raises(NonFiniteError):
            double_center(pack(s))

    @pytest.mark.parametrize("d", [np.zeros((3, 3)), np.zeros((3, 3)).tolist()], ids=["ndarray", "list"])
    def test_dense_squares_refused(self, d):
        with pytest.raises(TypeError, match="^d must be a linalg.SymmetricBlocks, got "):
            double_center(d)

    def test_input_not_modified(self):
        d = pack([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        before = d.buf.copy()
        out = double_center(d) @ np.eye(3)
        assert np.array_equal(d.buf, before)
        assert np.max(np.abs(out - centered_squares(d))) <= 1e-15 * np.max(np.abs(out))

    @pytest.mark.parametrize("n", [1, 2, 63, 65, 130])
    def test_equals_centering_of_the_squares(self, n):
        rng = np.random.default_rng(n)
        d = gm_from_coords(rng.normal(size=(n, 3))).d
        out = double_center(d) @ np.eye(n)
        reference = centered_squares(d)
        assert np.max(np.abs(out - reference)) <= 1e-13 * max(np.max(np.abs(reference)), np.finfo(float).tiny)

    def test_row_and_column_sums_vanish(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 10, size=(20, 20))
        d = (a + a.T) / 2
        np.fill_diagonal(d, 0.0)
        out = double_center(pack(d)) @ np.eye(20)
        scale = np.linalg.norm(out)
        assert np.max(np.abs(out.sum(axis=0))) <= 1e-9 * scale
        assert np.max(np.abs(out.sum(axis=1))) <= 1e-9 * scale
        assert np.allclose(out, out.T, atol=1e-12 * scale)
        assert np.allclose(out, centered_squares(pack(d)), atol=1e-12 * scale)

    @settings(PROPERTY, max_examples=28)
    @given(n=st.sampled_from([1, 2, 63, 64, 65, 130, 200]), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_blocks_hold_the_centered_matrix(self, n, seed, scale):
        # one block short of, at and past a whole block of rows, and two
        # and three blocks with a partial last one
        rng = np.random.default_rng(seed)
        d = gm_from_coords(scale * rng.normal(size=(n, 3))).d
        op = double_center(d)
        assert isinstance(op, linalg.CenteredSquares) and op.n == n
        assert op.d is d  # the operator is over the distances themselves, not a copy
        b = op @ np.eye(n)
        reference = centered_squares(d)
        top = np.max(np.abs(reference))
        assert np.max(np.abs(b - reference)) <= 1e-12 * top
        assert np.max(np.abs(b - b.T)) <= 1e-12 * top
        assert np.max(np.abs(b.sum(axis=1))) <= 1e-12 * top
        q = rng.normal(size=(n, 10))
        assert np.max(np.abs(op @ q - reference @ q)) <= 1e-12 * np.max(np.abs(reference @ q))


def gm_from_coords(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff**2).sum(-1))
    return hand_built(d)


class TestClassicalMds:
    def test_two_points_half_coordinates(self):
        gm = hand_built(np.array([[0.0, 1.0], [1.0, 0.0]]))
        emb = classical_mds(gm, 1)
        assert emb.eigenvalues == pytest.approx([0.5], abs=1e-15)
        assert np.allclose(emb.coords.ravel(), [0.5, -0.5], atol=1e-12)

    def test_planar_cloud_distances_recovered(self):
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(30, 2))
        gm = gm_from_coords(coords)
        emb = classical_mds(gm, 2)
        rec = gm_from_coords(emb.coords)
        assert np.max(np.abs(dense(rec.d) - dense(gm.d))) <= 1e-8

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
        gm = hand_built(d)
        with pytest.raises(NonFiniteError):
            classical_mds(gm, 1)

    def test_geodesic_matrix_not_modified(self):
        gm = gm_from_coords(np.random.default_rng(12).normal(size=(60, 3)))
        before = gm.d.buf.copy()
        classical_mds(gm, 2)
        assert np.array_equal(gm.d.buf, before)

    def test_negative_eigenvalues_clipped(self):
        # a random non-metric "distance" matrix is indefinite after double
        # centering, so the full spectrum contains negative eigenvalues
        rng = np.random.default_rng(0)
        d = rng.uniform(0.5, 2.0, size=(8, 8))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        gm = hand_built(d)
        emb = classical_mds(gm, 7)
        assert emb.n_clipped >= 1
        clipped = np.flatnonzero(emb.eigenvalues < 0)
        kept = np.flatnonzero(emb.eigenvalues >= 0)
        assert np.all(emb.coords[:, clipped] == 0.0)
        for j in kept:
            assert np.dot(emb.coords[:, j], emb.coords[:, j]) == pytest.approx(
                emb.eigenvalues[j], abs=1e-10
            )


class TestNonFiniteGeodesics:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("stage", ["mds", "rv"])
    def test_refused(self, stage, value):
        d = dense(gm_from_coords(np.random.default_rng(3).normal(size=(6, 2))).d)
        emb = classical_mds(hand_built(d), 2)
        d[4, 1] = d[1, 4] = value
        gm = hand_built(d)
        with pytest.raises(NonFiniteError, match="^geodesic matrix spans multiple components$"):
            classical_mds(gm, 2) if stage == "mds" else residual_variance(gm, emb)

    def test_overflowing_squares_are_not_missing_paths(self):
        # finite geodesics whose squares overflow keep the operator's message
        d = dense(gm_from_coords(np.random.default_rng(3).normal(size=(6, 2))).d)
        d[4, 1] = d[1, 4] = 1e200
        gm = hand_built(d)
        with pytest.raises(NonFiniteError, match="^matrix has non-finite entries$"):
            classical_mds(gm, 2)

    def test_column_sums_that_overflow_are_refused(self):
        # on the roll times 2^505 every square and every product with the
        # block is finite, but a column sum of a product overflows: refused
        # there, not left to the eigensolver's LinAlgError
        data = DataSet(np.ldexp(gen_swiss_roll(400, 1).data.points, 505))
        _, gm, _ = largest_component(floyd_all_pairs(build_graph(data, SelectorConfig(k=10), "standard")), data)
        with pytest.raises(NonFiniteError, match="^matrix has non-finite entries$"):
            classical_mds(gm, 2)


def same_bits(a, b):
    """Whether a and b are the same array bit for bit: dtype, shape and
    bytes, so -0.0 differs from 0.0 and each NaN payload counts."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSquaresInPlace:
    """classical_mds only reads gm.d: it is bitwise as it was after a run,
    also where the squares are subnormal or overflow, or the solver raises,
    and it may be read-only."""

    @staticmethod
    def embeds_and_restores(gm, m=2):
        before = gm.d.buf.copy()
        emb = classical_mds(gm, m)
        assert same_bits(gm.d.buf, before)
        return emb

    @pytest.mark.parametrize("k", [10, 15, 20, 30])
    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_workload_cells(self, k, method):
        # every sweep cell, on the roll at n = 800; the embed workload's cell
        # (k = 10, stable) is one of them
        data = gen_swiss_roll(800, 1).data
        _, gm, _ = largest_component(floyd_all_pairs(build_graph(data, SelectorConfig(k=k), method)), data)
        self.embeds_and_restores(gm)

    def test_read_only_packed_geodesics(self):
        data = gen_swiss_roll(300, 1).data
        _, gm, _ = largest_component(floyd_all_pairs(build_graph(data, SelectorConfig(k=10), "stable")), data)
        buf = gm.d.buf.copy()
        buf.flags.writeable = False
        frozen = GeodesicMatrix(d=linalg.SymmetricBlocks(gm.n, buf), points=gm.points)
        assert same_bits(self.embeds_and_restores(frozen).coords, classical_mds(gm, 2).coords)

    def test_tiny_pair_only_read(self):
        # one pair at 1e-160 in a unit-scale cloud: its square, 1e-320, is
        # subnormal, and its root would not be 1e-160; the squares were
        # once taken in place and their roots taken back
        d = dense(gm_from_coords(np.random.default_rng(8).normal(size=(70, 3))).d)
        d[3, 66] = d[66, 3] = 1e-160
        gm = hand_built(d)
        assert np.sqrt(np.square(1e-160)) != 1e-160
        self.embeds_and_restores(gm)

    @pytest.mark.parametrize("x", [2.0**512, 1e200], ids=["2^512", "1e200"])
    def test_squares_that_overflow_only_read(self, x):
        d = dense(gm_from_coords(np.random.default_rng(8).normal(size=(70, 3))).d)
        d[5, 1] = d[1, 5] = x
        gm = hand_built(d)
        before = gm.d.buf.copy()
        with pytest.raises(NonFiniteError, match="^matrix has non-finite entries$"):
            classical_mds(gm, 2)
        assert same_bits(gm.d.buf, before)

    def test_restored_when_the_solver_raises(self, monkeypatch):
        def failing_solver(product, n, m):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(linalg, "_top_subspace", failing_solver)
        gm = gm_from_coords(np.random.default_rng(10).normal(size=(70, 3)))
        before = gm.d.buf.copy()
        with pytest.raises(RuntimeError, match="solver failed"):
            classical_mds(gm, 2)
        assert same_bits(gm.d.buf, before)


class TestResidualVariance:
    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_points_refused(self, n):
        gm = hand_built(np.zeros((n, n)))
        emb = Embedding(coords=np.arange(n, dtype=np.float64).reshape(n, 1), eigenvalues=np.zeros(1))
        with pytest.raises(ValueError, match=f"at least 3 points, got {n}"):
            residual_variance(gm, emb)

    def test_point_count_mismatch_refused(self):
        gm = gm_from_coords(np.arange(8.0).reshape(4, 2))
        emb = Embedding(coords=np.zeros((3, 1)), eigenvalues=np.zeros(1))
        with pytest.raises(ValueError, match="different point sets"):
            residual_variance(gm, emb)

    def test_constant_geodesics_raise(self):
        # an equilateral triangle: all three geodesics are 1
        gm = hand_built(1.0 - np.eye(3))
        emb = Embedding(coords=np.array([[0.0], [1.0], [3.0]]), eigenvalues=np.zeros(1))
        with pytest.raises(ZeroVarianceError, match="^residual variance undefined: every geodesic distance is equal$"):
            residual_variance(gm, emb)

    def test_constant_geodesics_across_blocks_raise(self):
        n = 130  # three blocks of rows, each constant on its own
        gm = hand_built(1.0 - np.eye(n))
        emb = Embedding(coords=np.arange(n, dtype=np.float64).reshape(n, 1), eigenvalues=np.zeros(1))
        with pytest.raises(ZeroVarianceError, match="^residual variance undefined: every geodesic distance is equal$"):
            residual_variance(gm, emb)

    def test_geodesics_that_vary_only_in_a_later_block_are_not_constant(self):
        n = 130
        d = 1.0 - np.eye(n)
        d[100, 120] = d[120, 100] = 2.0  # in the second block of rows only
        gm = hand_built(d)
        emb = Embedding(coords=np.arange(n, dtype=np.float64).reshape(n, 1), eigenvalues=np.zeros(1))
        assert residual_variance(gm, emb) == pytest.approx(residual_variance_fsum(gm, emb), rel=1e-12, abs=0.0)

    def test_both_sides_constant_name_the_geodesics(self):
        n = 130
        gm = hand_built(2.5 * (1.0 - np.eye(n)))
        emb = Embedding(coords=np.ones((n, 2)), eigenvalues=np.zeros(2))
        with pytest.raises(ZeroVarianceError, match="^residual variance undefined: every geodesic distance is equal$"):
            residual_variance(gm, emb)

    def test_constant_embedding_across_blocks_raises(self):
        n = 130
        gm = gm_from_coords(np.random.default_rng(4).normal(size=(n, 3)))
        emb = Embedding(coords=np.full((n, 2), 0.1), eigenvalues=np.zeros(2))
        with pytest.raises(ZeroVarianceError, match="^residual variance undefined: every embedded distance is equal$"):
            residual_variance(gm, emb)

    def test_non_finite_geodesics_refused_before_any_block(self):
        # constant on both sides too, but the missing path is named first,
        # and no block's scratch is ever allocated
        n = 130
        d = 1.0 - np.eye(n)
        d[n - 1, n - 2] = d[n - 2, n - 1] = np.inf
        gm = hand_built(d)
        emb = Embedding(coords=np.zeros((n, 1)), eigenvalues=np.zeros(1))
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteError, match="^geodesic matrix spans multiple components$"):
                residual_variance(gm, emb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < linalg.ROW_BLOCK * n * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coordinates_refused(self, bad):
        # a NaN correlation would otherwise score as a perfect embedding, 0
        n = 130
        gm = gm_from_coords(np.random.default_rng(4).normal(size=(n, 3)))
        coords = np.random.default_rng(5).normal(size=(n, 2))
        coords[n - 1, 1] = bad
        with pytest.raises(NonFiniteError, match="^embedding has non-finite coordinates$"):
            residual_variance(gm, Embedding(coords=coords, eigenvalues=np.zeros(2)))

    @pytest.mark.parametrize("side, n", [(0.1, 3), (0.3, 5), (np.sqrt(2.0), 5), (0.3, 65), (np.sqrt(2.0), 65)])
    def test_constant_geodesics_whose_mean_rounds_off_raise(self, side, n):
        # the mean of these constants does not round back to them, so they
        # leave non-zero residues once centered
        geo = side * (1.0 - np.eye(n))
        iu = np.triu_indices(n, 1)
        assert np.any(geo[iu] - geo[iu].mean() != 0.0)
        gm = hand_built(geo)
        emb = Embedding(coords=np.arange(n, dtype=np.float64).reshape(n, 1), eigenvalues=np.zeros(1))
        with pytest.raises(ZeroVarianceError, match="^residual variance undefined: every geodesic distance is equal$"):
            residual_variance(gm, emb)

    @staticmethod
    def scaled_line(geo_scale, emb_scale):
        """Geodesics of 4 points on a line and a 1-D embedding of them, not
        constant and not a perfect fit, at the given scales."""
        x = np.array([0.0, 1.0, 3.0, 7.0]) * geo_scale
        gm = hand_built(np.abs(x[:, None] - x[None, :]))
        emb = Embedding(coords=np.array([[0.0], [1.0], [2.0], [5.0]]) * emb_scale, eigenvalues=np.zeros(1))
        return gm, emb

    @pytest.mark.parametrize("geo_scale, emb_scale", [(1e-170, 1.0), (1.0, 1e-160)])
    def test_spreads_that_underflow_raise(self, geo_scale, emb_scale):
        # not constant, but a side's centered sum of squares is not a normal
        # float (at 1e-160 the embedded distances are square roots of
        # subnormals; at 1e-170 they would round to one value)
        gm, emb = self.scaled_line(geo_scale, emb_scale)
        with pytest.raises(ZeroVarianceError, match="^residual variance undefined: the distances vary too little"):
            residual_variance(gm, emb)

    def test_subnormal_product_of_normal_spreads_gives_the_unscaled_rv(self):
        # each sum of squares is near 1e-200, a normal float, and their
        # product near 1e-400 is not: it underflows to 0
        want = residual_variance(*self.scaled_line(1.0, 1.0))
        assert 0.0 < want < 1.0
        assert abs(residual_variance(*self.scaled_line(1e-100, 1e-100)) - want) <= 1e-15

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_large_finite_geodesics_give_the_unscaled_rv(self, method):
        # at 1e150 the product of the two sums of squares overflows float64,
        # though each sum and the correlation are finite; at n = 20 MDS runs
        # the full eigh, at n = 100 the subspace iteration
        for n in (20, 100):
            pts = np.random.default_rng(0).normal(size=(n, 3))
            cfg = RunConfig(k=5, method=method)
            rvs = []
            for scale in (1.0, 1e150):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    emb, gm, _ = isomap_embed(DataSet(pts * scale), cfg)
                    rvs.append(residual_variance(gm, emb))
            assert 0.0 < rvs[0] < 1.0
            assert abs(rvs[1] - rvs[0]) <= 1e-9

    def test_exact_embedding_zero(self):
        coords = np.random.default_rng(6).normal(size=(20, 3))
        gm = gm_from_coords(coords)
        emb = Embedding(coords=coords, eigenvalues=np.zeros(3))
        assert residual_variance(gm, emb) <= 1e-12

    def test_uniform_scaling_zero(self):
        coords = np.random.default_rng(7).normal(size=(15, 2))
        gm = gm_from_coords(coords)
        scaled = hand_built(2.0 * dense(gm.d))
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
        rv2 = residual_variance(hand_built(3.7 * dense(gm.d)), emb)
        assert rv1 == pytest.approx(rv2, abs=1e-12)

    def test_mds_round_trip_after_rigid_lift(self):
        rng = np.random.default_rng(10)
        cloud = rng.normal(size=(50, 2))
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        lifted = np.hstack([cloud, np.zeros((50, 8))]) @ q.T + rng.normal(size=10)
        gm = gm_from_coords(lifted)
        emb = classical_mds(gm, 2)
        assert residual_variance(gm, emb) <= 1e-10


def pearson_r(a, b):
    """Sample Pearson correlation coefficient, clipped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("inputs must have equal length >= 2")
    ac = a - a.mean()
    bc = b - b.mean()
    sa = np.dot(ac, ac)
    sb = np.dot(bc, bc)
    if sa == 0.0 or sb == 0.0:
        raise ZeroVarianceError("correlation undefined for a constant sequence")
    return float(np.clip(np.dot(ac, bc) / np.sqrt(sa * sb), -1.0, 1.0))


def dense_pairs(gm, emb):
    """Both sides' distances over the strict upper triangle, in
    np.triu_indices order, the embedded ones from the (n, n, m) difference
    tensor."""
    coords = emb.coords
    diff = coords[:, None, :] - coords[None, :, :]
    euclid = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    iu = np.triu_indices(gm.n, 1)
    return dense(gm.d)[iu], euclid[iu]


def residual_variance_reference(gm, emb):
    """The dense formula residual_variance replaced: the (n, n, m)
    difference tensor, the np.triu_indices gather and a separate Pearson
    correlation on centered copies."""
    r = pearson_r(*dense_pairs(gm, emb))
    return max(0.0, 1.0 - r * r)


def residual_variance_fsum(gm, emb):
    """The accuracy oracle: the dense formula's two vectors with every sum
    exact. Each mean is math.fsum over the count, each centered value and
    each product is rounded once, and each sum of them is a math.fsum."""
    geo, euclid = dense_pairs(gm, emb)
    geo = geo - math.fsum(geo) / geo.size
    euclid = euclid - math.fsum(euclid) / euclid.size
    sgg, see, sge = (math.fsum(a * b) for a, b in ((geo, geo), (euclid, euclid), (geo, euclid)))
    r = sge / math.sqrt(sgg * see)
    return max(0.0, 1.0 - r * r)


def assert_rv_accurate(gm, emb):
    """residual_variance within 1e-12 relative of the fsum oracle, a bound
    the dense formula meets too: a reordered sum cannot equal the dense
    formula bit for bit, so both are held to the exact sums instead."""
    exact = residual_variance_fsum(gm, emb)
    assert residual_variance(gm, emb) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert residual_variance_reference(gm, emb) == pytest.approx(exact, rel=1e-12, abs=0.0)


def projected_points(n, m):
    """(gm, emb) for n normal points in m + 2 dimensions, embedded as a
    noisy projection onto their first m axes, so that rv is well inside
    (0, 1)."""
    rng = np.random.default_rng(n)
    points = rng.normal(size=(n, m + 2))
    emb = Embedding(coords=points[:, :m] + 0.1 * rng.normal(size=(n, m)), eigenvalues=np.zeros(m))
    return gm_from_coords(points), emb


def full_eigh_coords(b):
    """Top two eigenpairs of the CenteredSquares b from the full eigh of b @
    I (linalg._top_full), each vector's largest-magnitude component made
    positive."""
    values, vectors = linalg._top_full(b, 2)
    for j in range(2):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            vectors[:, j] = -col
    return values, vectors


class TestBackHalf:
    @pytest.mark.parametrize("method", ["standard", "stable"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_residual_variance_equals_dense_formula(self, method, m):
        data = gen_swiss_roll(300, 1).data
        emb, gm, _ = isomap_embed(data, RunConfig(method=method, k=10, m=m))
        assert_rv_accurate(gm, emb)

    # 63 to 65 and 127 to 129 points: one block short of, at and past a
    # whole block of rows, and a last row with no pair of its own
    @pytest.mark.parametrize(
        "n, m", [(3, 1), (4, 2), (50, 5), (63, 3), (64, 2), (65, 4), (127, 2), (128, 1), (129, 9), (200, 17)]
    )
    def test_residual_variance_equals_dense_formula_random(self, n, m):
        assert_rv_accurate(*projected_points(n, m))

    @settings(PROPERTY, max_examples=40)
    @given(order=st.integers(3, 200).flatmap(lambda n: st.permutations(range(n))), m=st.integers(1, 3))
    def test_relabelling_the_points_keeps_rv(self, order, m):
        # another order of the points puts other pairs in each block, so
        # the blocks' sums merge differently
        gm, emb = projected_points(len(order), m)
        p = np.array(order)
        moved = hand_built(dense(gm.d)[np.ix_(p, p)])
        moved_emb = Embedding(coords=emb.coords[p], eigenvalues=emb.eigenvalues)
        assert residual_variance(moved, moved_emb) == pytest.approx(residual_variance(gm, emb), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("method", ["standard", "stable"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_eigengap_embedding_matches_full_eigh(self, seed, method):
        # the helix's lambda1 / lambda2 is 3e4 to 6e4, so its second column
        # is the least accurate one the pipeline produces; the stop rule
        # bounds it from the residual and the gap, not relative to lambda1
        emb, gm, _ = isomap_embed(gen_helix(500, seed).data, RunConfig(method=method, k=5))
        b = double_center(gm.d)
        assert linalg._top_subspace(b.__matmul__, b.n, 2) is not None  # the iteration answered
        values, vectors = full_eigh_coords(b)
        assert values[0] / values[1] > 1e4
        assert np.max(np.abs(emb.coords - vectors * np.sqrt(values))) <= 1e-9

    @pytest.mark.parametrize("offset", [1, 2, 3])
    def test_large_eigengap_accuracy_does_not_depend_on_the_start(self, monkeypatch, offset):
        # the hash sequence shifted by offset entries is another start
        # block; the embedding meets the same bound
        start_block = linalg._start_block
        monkeypatch.setattr(linalg, "_start_block", lambda n, p: start_block(1, n * p + offset)[0, offset:].reshape(n, p))
        emb, gm, _ = isomap_embed(gen_helix(500, 1).data, RunConfig(method="standard", k=5))
        b = double_center(gm.d)
        assert linalg._top_subspace(b.__matmul__, b.n, 2) is not None
        values, vectors = full_eigh_coords(b)
        assert np.max(np.abs(emb.coords - vectors * np.sqrt(values))) <= 1e-9

    def test_memory_at_most_about_two_n2_buffers(self):
        # classical_mds only reads the packed geodesic matrix, each product
        # squaring one row block at a time into a (ROW_BLOCK, n) scratch:
        # 0.17 n^2 words beside it measured at n = 800 (0.091 squaring it in
        # place); the centered matrix's upper row blocks reached 0.636, and
        # a whole n x n one 1.07. residual_variance then holds three
        # (ROW_BLOCK, n) vectors of block scratch, about a quarter of an n x
        # n buffer at n = 800, which sets the peak: 0.263 measured
        n = 800
        gm = gm_from_coords(gen_swiss_roll(n, 1).data.points)
        emb, _ = peak_bytes(lambda: classical_mds(gm, 2))
        _, rv_peak = peak_bytes(lambda: residual_variance(gm, emb))
        _, peak = peak_bytes(lambda: residual_variance(gm, classical_mds(gm, 2)))
        assert rv_peak <= 4 * linalg.ROW_BLOCK * n * 8
        assert peak <= 0.35 * n * n * 8

    def test_full_eigh_fallback_memory(self, monkeypatch):
        # when the iteration cannot vouch for its answer, the full eigh
        # assembles the operator's matrix from its products with (n,
        # ROW_BLOCK) panels of the identity, frees the last panel and takes
        # the matrix as it is, with no symmetrized copy: that matrix and
        # eigh's n x n eigenvectors, 2.01 n^2 words measured at n = 800
        # beside the packed geodesics; with the centered matrix's row blocks
        # beside them it reached 2.55, and with (a + a.T) / 2 beside a whole
        # centered matrix 3.0
        n = 800
        gm = gm_from_coords(gen_swiss_roll(n, 1).data.points)
        monkeypatch.setattr(linalg, "_top_subspace", lambda product, n, m: None)
        emb, peak = peak_bytes(lambda: classical_mds(gm, 2))
        assert peak <= 2.1 * n * n * 8
        monkeypatch.undo()
        assert np.max(np.abs(emb.coords - classical_mds(gm, 2).coords)) <= 1e-9 * np.max(np.abs(emb.coords))


class TestPipelineGraphIntegration:
    def test_geodesics_on_knn_graph(self):
        rng = np.random.default_rng(11)
        data = DataSet(rng.normal(size=(40, 3)))
        g = build_graph(data, SelectorConfig(k=6), "standard")
        gm_f = floyd_all_pairs(g)
        d_d = in_rows(gm_f, dense(dijkstra_all_pairs(g).d))
        finite = np.isfinite(dense(gm_f.d))
        assert np.array_equal(finite, np.isfinite(d_d))
        assert np.max(np.abs(dense(gm_f.d)[finite] - d_d[finite])) <= 1e-12
