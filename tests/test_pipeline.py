import io
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topostable import (
    DataSet,
    Embedding,
    ReportRow,
    RunConfig,
    SelectorConfig,
    build_graph,
    compare_methods,
    gen_helix,
    gen_punctured_sphere,
    gen_swiss_roll,
    isomap_embed,
    load_csv,
    residual_variance,
    write_embedding_csv,
    write_report_csv,
    write_scatter_svg,
)
from topostable import graph, linalg, pipeline
from topostable.errors import BadConfigError, BadDimError, DegenerateComplementError, TopoStableError

from conftest import peak_bytes, sweep_cells


def lifted_plane_cloud(n=60, seed=0):
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=(n, 2))
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    return DataSet(np.hstack([cloud, np.zeros((n, 8))]) @ q.T + rng.normal(size=10))


class TestRunConfig:
    def test_rejects_bad_method(self):
        # with one text, whether the config or the graph build finds it
        with pytest.raises(BadConfigError) as config:
            RunConfig(method="fast", k=5)
        with pytest.raises(BadConfigError) as build:
            build_graph(gen_swiss_roll(20, 1).data, SelectorConfig(k=5), "fast")
        assert str(config.value) == str(build.value) == "method must be one of ('standard', 'stable'), got 'fast'"

    def test_rejects_bad_m(self):
        with pytest.raises(BadConfigError, match="^m must be positive$"):
            RunConfig(method="stable", k=5, m=0)

    @pytest.mark.parametrize("settings", [{"dim_w": 0}, {"delta_theta_deg": 0.0}, {"delta_theta_deg": 95.0}])
    def test_stable_settings_no_input_takes_refused_on_construction(self, settings):
        with pytest.raises(BadConfigError):
            RunConfig(method="stable", k=5, **settings)
        RunConfig(method="standard", k=5, **settings)  # the standard rule never reads them

    def test_selector_config_refuses_nonpositive_k(self):
        with pytest.raises(BadConfigError, match="k must be positive"):
            SelectorConfig(k=0)

    def test_is_the_selector_config_of_build_graph(self):
        # RunConfig carries the selector settings itself: build_graph takes it
        data = gen_swiss_roll(200, 1).data
        run = RunConfig(method="stable", k=8, m=3, delta_theta_deg=7.5)
        ref = build_graph(data, SelectorConfig(k=8, delta_theta_deg=7.5), "stable")
        g = build_graph(data, run, run.method)
        assert np.array_equal(g.edges, ref.edges)
        assert np.array_equal(g.weights, ref.weights)


class TestIsomapEmbed:
    def test_complete_graph_round_trip(self):
        data = lifted_plane_cloud()
        cfg = RunConfig(method="standard", k=data.n - 1, m=2)
        emb, gm, graph = isomap_embed(data, cfg)
        assert gm.n == data.n
        assert graph.n_edges == data.n * (data.n - 1) // 2
        assert residual_variance(gm, emb) <= 1e-10

    def test_stable_beats_standard_on_swiss_roll(self):
        data = gen_swiss_roll(300, 1).data
        rvs = {}
        for method in ("standard", "stable"):
            emb, gm, _ = isomap_embed(data, RunConfig(method=method, k=12))
            rvs[method] = residual_variance(gm, emb)
        assert rvs["stable"] <= rvs["standard"]

    def test_deterministic(self):
        data = gen_swiss_roll(120, 5).data
        runs = []
        for _ in range(2):
            emb, gm, graph = isomap_embed(data, RunConfig(method="stable", k=8))
            buf = io.StringIO()
            write_embedding_csv(emb, gm.points, None, buf)
            runs.append(buf.getvalue())
        assert runs[0] == runs[1]

    def test_stage_annotation_on_failure(self):
        rng = np.random.default_rng(1)
        flat = DataSet(np.column_stack([rng.normal(size=(20, 2)), np.zeros(20)]))
        with pytest.raises(DegenerateComplementError, match="neighbor graph"):
            isomap_embed(flat, RunConfig(method="stable", k=5))

    def test_bridge_fixture_stable_graph_has_no_cross_plane_edges(self, bridge_fixture):
        from conftest import cross_plane_edges

        data, side = bridge_fixture
        emb, gm, graph = isomap_embed(data, RunConfig(method="stable", k=8))
        assert cross_plane_edges(graph, side) == 0
        # the bridge point still links the planes, so one component remains
        assert gm.n == data.n

    def test_disconnected_graph_embeds_largest_component(self):
        rng = np.random.default_rng(2)
        near = rng.normal(size=(30, 3)) * 0.1
        far = rng.normal(size=(10, 3)) * 0.1 + 100.0
        data = DataSet(np.vstack([near, far]))
        emb, gm, graph = isomap_embed(data, RunConfig(method="standard", k=3))
        assert gm.n == emb.coords.shape[0] == 30
        assert np.all(gm.points < 30)
        assert np.all(np.isfinite(gm.d.buf))


class TestCompareMethods:
    def test_row_cardinality_and_order(self):
        data = gen_swiss_roll(100, 3).data
        rows = compare_methods(data, sweep_cells([5, 10], RunConfig(method="standard", k=5)))
        assert type(rows) is tuple and all(type(r) is ReportRow for r in rows)
        assert [(r.k, r.method) for r in rows] == [
            (5, "standard"), (5, "stable"), (10, "standard"), (10, "stable"),
        ]

    def test_dropped_accounting(self):
        data = gen_swiss_roll(100, 3).data
        rows = compare_methods(data, sweep_cells([5, 10], RunConfig(method="standard", k=5)))
        for r in rows:
            assert r.n_embedded + r.n_dropped == data.n
            assert 0.0 <= r.residual_variance <= 1.0

    def test_wide_window_identical_methods(self):
        data = gen_swiss_roll(100, 4).data
        rows = compare_methods(data, sweep_cells([8], RunConfig(method="standard", k=8, delta_theta_deg=89.9)))
        std, stb = rows
        assert abs(std.residual_variance - stb.residual_variance) <= 1e-12
        assert std.n_edges == stb.n_edges
        assert std.n_embedded == stb.n_embedded

    @staticmethod
    def watch(monkeypatch):
        """Names of the calls that check a cell or build a table or a graph,
        as they happen."""
        calls = []
        for module, name in [
            (pipeline, "knn_table"), (pipeline, "build_graph"), (graph, "_check_cell"), (graph, "_pairwise_sq"), (graph, "_knn_indices"),
        ]:
            def counting(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_invalid_k_refused_before_any_cell_runs(self, monkeypatch):
        # the table is made outside every cell's build_graph, so it is
        # watched too: the refusal comes before any distance is computed
        calls = self.watch(monkeypatch)
        data = gen_swiss_roll(100, 3).data
        with pytest.raises(ValueError, match="k must be positive"):
            compare_methods(data, sweep_cells([10, 0], RunConfig(method="standard", k=10)))
        assert calls == []

    def test_one_table_per_sweep(self, monkeypatch):
        calls = self.watch(monkeypatch)
        data = gen_swiss_roll(100, 3).data
        rows = compare_methods(data, sweep_cells([10, 15, 5], RunConfig(method="standard", k=10)))
        assert all(r.error is None for r in rows)
        # one pass over the distances' two row blocks
        assert calls == ["knn_table"] + ["_check_cell"] * 6 + ["_pairwise_sq"] + ["_knn_indices"] * 2 + ["build_graph"] * 6

    def test_each_distinct_cell_checked_once(self, monkeypatch):
        # repeated k values share their cells' checks, and build_graph only
        # raises what the table holds
        calls = self.watch(monkeypatch)
        data = gen_swiss_roll(100, 3).data
        rows = compare_methods(data, sweep_cells([10, 1, 10, 200, 1], RunConfig(method="standard", k=10)))
        assert [r.error is None for r in rows] == [True, True, True, False, True, True, False, False, True, False]
        assert calls.count("_check_cell") == 6
        assert calls.count("build_graph") == 10

    def test_empty_k_list_builds_nothing(self, monkeypatch):
        calls = self.watch(monkeypatch)
        data = gen_swiss_roll(100, 3).data
        assert compare_methods(data, sweep_cells([], RunConfig(method="standard", k=10))) == ()
        assert [c for c in calls if c != "knn_table"] == []  # a table of no cells computes nothing

    def test_failed_cell_becomes_marker_row(self):
        rng = np.random.default_rng(5)
        flat = DataSet(np.column_stack([rng.normal(size=(20, 2)), np.zeros(20)]))
        rows = compare_methods(flat, sweep_cells([5], RunConfig(method="standard", k=5)))
        std, stb = rows
        assert std.error is None
        assert stb.error is not None
        assert math.isnan(stb.residual_variance)
        assert stb.n_dropped == flat.n


class TestMemory:
    """Peak traced memory of whole runs, in units of one n x n float64
    buffer: the geodesic matrix as its upper row blocks, about half a
    buffer, which classical scaling only reads, plus the O(n * k) tables
    and the (ROW_BLOCK, n) scratch, which weigh more at smaller n. Each
    bound is the peak measured at that n, both methods, plus about 0.1."""

    @staticmethod
    def roll(n, points=None):
        """The Swiss roll of n points, seed 1, with the points {index:
        coordinates} moved."""
        data = gen_swiss_roll(n, 1).data
        if points:
            moved = data.points.copy()
            for i, x in points.items():
                moved[i] = x
            data = DataSet(moved)
        build_graph(data, SelectorConfig(k=10), "stable")  # warm-up: first-call allocations
        return data

    def embed_peak_within_bound(self, n, method, bound, points=None):
        # whole n x n geodesics reached 1.28 at n = 800, with the centered
        # matrix's upper row blocks beside them 1.66, and with a whole n x n
        # centered matrix 2.09
        roll = self.roll(n, points)

        def run():
            emb, gm, _ = isomap_embed(roll, RunConfig(method=method, k=10))
            return residual_variance(gm, emb)

        _, peak = peak_bytes(run)
        assert peak <= bound * n * n * 8

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_embed_and_residual_variance(self, method):
        self.embed_peak_within_bound(400, method, 1.3)  # measured 1.17-1.20

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_embed_and_residual_variance_at_n800(self, method):
        self.embed_peak_within_bound(800, method, 0.93)  # measured 0.82-0.83

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_embed_with_a_subnormal_square_at_n800(self, method):
        # two points 1e-160 apart: the square of their geodesic is
        # subnormal. MDS once squared the geodesics in place, and squared
        # such ones into a second packed matrix, which took the peak to 1.19
        self.embed_peak_within_bound(800, method, 0.93, {3: (0.0, 10.0, 0.0), 7: (1e-160, 10.0, 0.0)})

    def sweep_peak_within_bound(self, n, bound):
        # a cell still holding the previous cell's geodesic matrix, or a
        # sweep table whose squared distances outlived the graph stage, keeps
        # one more n x n buffer through the next cell's peak
        roll = self.roll(n)
        rows, peak = peak_bytes(lambda: compare_methods(roll, sweep_cells([10, 15, 20, 30], RunConfig(method="standard", k=10))))
        assert len(rows) == 8 and all(r.error is None for r in rows)
        assert peak <= bound * n * n * 8

    def test_sweep_frees_each_cell_before_the_next(self):
        self.sweep_peak_within_bound(400, 1.5)  # measured 1.41

    def test_sweep_frees_each_cell_before_the_next_at_n800(self):
        self.sweep_peak_within_bound(800, 1.03)  # measured 0.93

    @staticmethod
    def plane(n):
        """n points on a plane in 3-D, where every stable cell fails: no
        probe leaves a neighborhood's subspace."""
        rng = np.random.default_rng(1)
        return DataSet(np.column_stack([rng.uniform(size=(n, 2)), np.zeros(n)]))

    def test_sweep_with_failing_cells_frees_the_distances(self):
        # a failed cell's stored error holding knn_table's frame would keep
        # its distance rows alive through the sweep; measured 0.86
        n = 800
        data = self.plane(n)
        build_graph(data, SelectorConfig(k=10), "standard")  # warm-up: first-call allocations
        rows, peak = peak_bytes(lambda: compare_methods(data, sweep_cells([10, 15], RunConfig(method="standard", k=10))))
        assert [r.error is None for r in rows] == [True, False, True, False]
        assert peak <= 0.96 * n * n * 8

    def test_table_errors_hold_no_frame(self):
        # not even after build_graph has raised them
        data = self.plane(60)
        cells = [(SelectorConfig(k=10), "stable"), (SelectorConfig(k=60), "standard"), (SelectorConfig(k=10), "fast")]
        table = graph.knn_table(data, cells)
        for cfg, method in cells:
            with pytest.raises(ValueError if method == "fast" else TopoStableError):
                build_graph(table, cfg, method)
        assert len(table.masks) == 3 and all(e.__traceback__ is None for e in table.masks.values())


class TestNoDenseMatrix:
    """The run keeps its geodesics as their upper row blocks throughout: the
    eigensolver's full eigh (linalg._top_full), the one step that makes an n
    x n array, raises here. n is large enough that MDS takes the subspace
    iteration, not the full eigh."""

    @pytest.fixture(autouse=True)
    def refuse_dense(self, monkeypatch):
        def top_full(a, m):
            raise AssertionError(f"a {a.n} x {a.n} matrix was made")

        monkeypatch.setattr(linalg, "_top_full", top_full)

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_embed_and_residual_variance(self, method):
        emb, gm, _ = isomap_embed(gen_swiss_roll(300, 1).data, RunConfig(method=method, k=10))
        assert 0.0 < residual_variance(gm, emb) < 1.0

    def test_sweep_with_a_failing_cell(self):
        # on a plane no probe leaves a neighborhood's subspace, so every
        # stable cell fails while the standard ones embed
        rng = np.random.default_rng(1)
        data = DataSet(np.column_stack([rng.uniform(size=(200, 2)), np.zeros(200)]))
        rows = compare_methods(data, sweep_cells([10, 15], RunConfig(method="standard", k=10)))
        assert [r.error is None for r in rows] == [True, False, True, False]

    def test_disconnected_input_drops_points(self):
        # the kept rows' upper parts are gathered into a new packed matrix
        rng = np.random.default_rng(2)
        data = DataSet(np.vstack([rng.normal(size=(150, 3)), rng.normal(size=(40, 3)) + 100.0]))
        emb, gm, _ = isomap_embed(data, RunConfig(method="standard", k=5))
        assert gm.n == 150 and np.all(gm.points < 150)
        assert 0.0 <= residual_variance(gm, emb) < 1.0


SWEEP = settings(derandomize=True, deadline=None, max_examples=60)


def cell_alone(data, cfg):
    """The ReportRow of one cell run on its own through isomap_embed and
    residual_variance: what compare_methods must give for that cell."""
    try:
        emb, gm, g = isomap_embed(data, cfg)
        rv = residual_variance(gm, emb)
    except (TopoStableError, ValueError) as exc:
        return ReportRow(cfg.k, cfg.method, float("nan"), 0, data.n, 0, 0, str(exc))
    return ReportRow(cfg.k, cfg.method, rv, gm.n, data.n - gm.n, g.n_edges, emb.n_clipped)


def graph_or_error(source, cfg):
    """build_graph's edges and weights as bytes, or its error as (type,
    message)."""
    try:
        g = build_graph(source, cfg, cfg.method)
    except (TopoStableError, ValueError) as exc:
        return type(exc), str(exc)
    return g.edges.tobytes(), g.weights.tobytes()


def bits(row):
    """row with rv as its hex digits: NaN equals NaN, and 0.0 differs from -0.0."""
    return replace(row, residual_variance=float.hex(row.residual_variance))


class TestSweepParity:
    """A sweep shares one kNN table among its cells, and each of its rows
    and graphs is still what that cell gives alone, bit for bit."""

    @SWEEP
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 24),
        dim=st.integers(2, 5),
        grid=st.sampled_from([None, 2, 3]),
        dups=st.integers(0, 6),
        delta=st.sampled_from([5.0, 30.0, 89.0]),
        draw=st.data(),
    )
    def test_rows_and_graphs_equal_each_cell_alone(self, seed, n, dim, grid, dups, delta, draw):
        # duplicated rows tie at every distance, so ties straddle the k-th
        # neighbour; grid points tie everywhere; the k lists come unsorted,
        # repeated and past n
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, dim)) if grid is None else rng.integers(0, grid, size=(n, dim)).astype(np.float64)
        data = DataSet(np.vstack([pts, pts[rng.integers(0, n, size=dups)]]))
        ks = draw.draw(st.lists(st.integers(1, data.n + 2), min_size=1, max_size=6), label="ks")
        base = RunConfig(method="standard", k=1, delta_theta_deg=delta)
        cells = sweep_cells(ks, base)

        rows = compare_methods(data, cells)

        assert [bits(r) for r in rows] == [bits(cell_alone(data, cfg)) for cfg in cells]
        table = graph.knn_table(data, [(cfg, cfg.method) for cfg in cells])
        assert [graph_or_error(table, cfg) for cfg in cells] == [graph_or_error(data, cfg) for cfg in cells]


INVARIANCE = settings(derandomize=True, deadline=None, max_examples=25)
SHAPES = {"roll": gen_swiss_roll, "helix": gen_helix, "sphere": gen_punctured_sphere}


def run_by_id(points, ids, cfg):
    """isomap_embed and residual_variance on points, read by point id, row
    a of points being point ids[a]: (kept ids sorted, edges as a set of id
    pairs, coordinates in id order with zero rows for dropped points, rv),
    or the type of the error either one raised."""
    try:
        emb, gm, g = isomap_embed(DataSet(points), cfg)
        rv = residual_variance(gm, emb)
    except (TopoStableError, ValueError) as exc:
        return type(exc)
    coords = np.zeros((len(ids), emb.m))
    coords[ids[gm.points]] = emb.coords
    edges = {tuple(sorted(pair)) for pair in ids[g.edges].tolist()}
    return np.sort(ids[gm.points]), edges, coords, rv


class TestInvariance:
    """The whole pipeline follows a transform of its input: read by point
    id, isomap_embed plus residual_variance keep the same points and edges,
    coordinates within 1e-8 of max|coord| (the sign rule makes each
    eigenvector's largest entry positive, so it follows the points), and rv
    within 1e-9 relative; or both runs raise the same error type. A
    permutation moves Floyd's pivot order and an orthogonal map rounds the
    points, so both move the rounding; the translation is exact (the points
    on a grid of 2^-20, moved by a multiple of it), so it moves nothing."""

    @pytest.mark.parametrize("method", ["standard", "stable"])
    @pytest.mark.parametrize("transform", ["permutation", "orthogonal", "translation"])
    @INVARIANCE
    @given(shape=st.sampled_from(sorted(SHAPES)), n=st.integers(60, 300), k=st.integers(5, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_pipeline_follows_the_transform(self, transform, method, shape, n, k, seed):
        rng = np.random.default_rng(seed)
        points = SHAPES[shape](n, seed).data.points
        ids = np.arange(n)
        if transform == "permutation":
            ids = rng.permutation(n)
            moved = points[ids]
        elif transform == "orthogonal":
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            moved = points @ q.T
        else:
            points = np.ldexp(np.rint(np.ldexp(points, 20)), -20)
            shift = np.ldexp(rng.integers(-2**29, 2**29, size=3).astype(np.float64), -20)
            moved = points + shift
            assert np.array_equal(moved - shift, points)  # the shift rounds nothing
        cfg = RunConfig(method=method, k=k)
        want, got = run_by_id(points, np.arange(n), cfg), run_by_id(moved, ids, cfg)
        if isinstance(want, type) or isinstance(got, type):
            assert want is got
            return
        (kept, edges, coords, rv), (kept_moved, edges_moved, coords_moved, rv_moved) = want, got
        assert np.array_equal(kept, kept_moved)
        assert edges == edges_moved
        assert np.max(np.abs(coords_moved - coords)) <= 1e-8 * np.max(np.abs(coords))
        # rv is 1 - r^2, which resolves no finer than 1.0's ulps: a few of
        # them are a large share of an rv near 1e-7, as the helix gives
        assert abs(rv_moved - rv) <= 1e-9 * rv + 4 * np.finfo(float).eps


class TestWriteEmbeddingCsv:
    def test_header_plus_rows(self):
        emb = Embedding(coords=np.array([[0.5], [-0.5]]), eigenvalues=np.array([0.5]))
        buf = io.StringIO()
        write_embedding_csv(emb, [0, 1], None, buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        assert lines[0] == "index,label,y1"
        assert lines[1] == "0,-1,0.5"

    def test_round_trip_via_load_csv(self, tmp_path):
        rng = np.random.default_rng(6)
        coords = rng.normal(size=(12, 2))
        emb = Embedding(coords=coords, eigenvalues=np.ones(2))
        path = tmp_path / "emb.csv"
        write_embedding_csv(emb, np.arange(12), np.arange(12) % 3, path)
        body = tmp_path / "body.csv"
        body.write_text(path.read_text().split("\n", 1)[1])  # load_csv reads no header
        data = load_csv(body)
        assert np.max(np.abs(data.points[:, 2:] - coords)) <= 1e-15
        assert np.array_equal(data.points[:, 1], np.arange(12) % 3)

    def test_rows_in_ascending_point_id_whatever_their_order(self):
        # isomap_embed's rows are in the pivot order: the file is not
        rng = np.random.default_rng(8)
        kept = np.sort(rng.choice(40, size=25, replace=False))
        coords = rng.normal(size=(25, 2))
        labels = rng.integers(0, 4, size=40)
        files = []
        for rows in (np.arange(25), rng.permutation(25)):
            buf = io.StringIO()
            write_embedding_csv(Embedding(coords=coords[rows], eigenvalues=np.ones(2)), kept[rows], labels, buf)
            files.append(buf.getvalue())
        assert files[0] == files[1]

    def test_empty_embedding_header_only(self):
        emb = Embedding(coords=np.zeros((0, 2)), eigenvalues=np.zeros(2))
        buf = io.StringIO()
        write_embedding_csv(emb, [], None, buf)
        assert buf.getvalue() == "index,label,y1,y2\n"

    def test_m_follows_coords(self):
        # the header names one column per coordinate column, whatever the
        # eigenvalue count
        emb = Embedding(coords=np.ones((1, 3)), eigenvalues=np.ones(2))
        assert emb.m == 3
        buf = io.StringIO()
        write_embedding_csv(emb, [0], None, buf)
        assert buf.getvalue() == "index,label,y1,y2,y3\n0,-1,1,1,1\n"

    def test_length_mismatch(self):
        emb = Embedding(coords=np.zeros((2, 2)), eigenvalues=np.zeros(2))
        with pytest.raises(ValueError):
            write_embedding_csv(emb, [0], None, io.StringIO())


class TestWriteReportCsv:
    def test_schema_and_nan_marker(self):
        rng = np.random.default_rng(5)
        flat = DataSet(np.column_stack([rng.normal(size=(20, 2)), np.zeros(20)]))
        rows = compare_methods(flat, sweep_cells([5], RunConfig(method="standard", k=5)))
        buf = io.StringIO()
        write_report_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,method,residual_variance,n_embedded,n_dropped,n_edges,clipped_dims"
        assert len(lines) == 3
        assert lines[2].split(",")[2] == "nan"


class TestWriteScatterSvg:
    def test_one_circle_per_point_and_valid_xml(self, tmp_path):
        emb = Embedding(coords=np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]), eigenvalues=np.ones(2))
        path = tmp_path / "s.svg"
        write_scatter_svg(emb, [0, 1, 0], path)
        root = ET.parse(path).getroot()
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 3

    def test_label_colors_differ(self, tmp_path):
        emb = Embedding(coords=np.array([[0.0, 0.0], [1.0, 2.0]]), eigenvalues=np.ones(2))
        path = tmp_path / "c.svg"
        write_scatter_svg(emb, [0, 1], path)
        root = ET.parse(path).getroot()
        fills = {c.get("fill") for c in root.findall(".//{http://www.w3.org/2000/svg}circle")}
        assert len(fills) == 2

    def test_degenerate_points_fall_back_to_unit_box(self, tmp_path):
        emb = Embedding(coords=np.ones((4, 2)), eigenvalues=np.ones(2))
        path = tmp_path / "d.svg"
        write_scatter_svg(emb, None, path)
        root = ET.parse(path).getroot()
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        assert len(circles) == 4
        for c in circles:
            assert np.isfinite(float(c.get("cx"))) and np.isfinite(float(c.get("cy")))

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1]], ids=["short", "long"])
    def test_labels_of_another_length_refused(self, tmp_path, labels):
        # zip once drew a circle only for each row that had a label
        emb = Embedding(coords=np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]), eigenvalues=np.ones(2))
        path = tmp_path / "s.svg"
        with pytest.raises(ValueError, match="^labels length must match the embedding row count$"):
            write_scatter_svg(emb, labels, path)
        assert not path.exists()

    def test_one_dimensional_embedding_rejected(self, tmp_path):
        emb = Embedding(coords=np.zeros((3, 1)), eigenvalues=np.ones(1))
        with pytest.raises(BadDimError):
            write_scatter_svg(emb, None, tmp_path / "x.svg")
