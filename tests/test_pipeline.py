import io
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from topostable import (
    DataSet,
    Embedding,
    RunConfig,
    SelectorConfig,
    build_graph,
    compare_methods,
    gen_swiss_roll,
    isomap_embed,
    load_csv,
    residual_variance,
    write_embedding_csv,
    write_report_csv,
    write_scatter_svg,
)
from topostable.errors import BadDimError, DegenerateComplementError


def lifted_plane_cloud(n=60, seed=0):
    rng = np.random.default_rng(seed)
    cloud = rng.normal(size=(n, 2))
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    return DataSet(np.hstack([cloud, np.zeros((n, 8))]) @ q.T + rng.normal(size=10))


class TestRunConfig:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            RunConfig(method="fast", k=5)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            RunConfig(method="stable", k=5, m=0)

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
        emb, gm, kept, graph = isomap_embed(data, cfg)
        assert kept.size == data.n
        assert graph.n_edges == data.n * (data.n - 1) // 2
        assert residual_variance(gm, emb) <= 1e-10

    def test_stable_beats_standard_on_swiss_roll(self):
        data = gen_swiss_roll(300, 1).data
        rvs = {}
        for method in ("standard", "stable"):
            emb, gm, kept, _ = isomap_embed(data, RunConfig(method=method, k=12))
            rvs[method] = residual_variance(gm, emb)
        assert rvs["stable"] <= rvs["standard"]

    def test_deterministic(self):
        data = gen_swiss_roll(120, 5).data
        runs = []
        for _ in range(2):
            emb, gm, kept, graph = isomap_embed(data, RunConfig(method="stable", k=8))
            buf = io.StringIO()
            write_embedding_csv(emb, kept, None, buf)
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
        emb, gm, kept, graph = isomap_embed(data, RunConfig(method="stable", k=8))
        assert cross_plane_edges(graph, side) == 0
        # the bridge point still links the planes, so one component remains
        assert kept.size == data.n

    def test_disconnected_graph_embeds_largest_component(self):
        rng = np.random.default_rng(2)
        near = rng.normal(size=(30, 3)) * 0.1
        far = rng.normal(size=(10, 3)) * 0.1 + 100.0
        data = DataSet(np.vstack([near, far]))
        emb, gm, kept, graph = isomap_embed(data, RunConfig(method="standard", k=3))
        assert kept.size == 30
        assert np.all(kept < 30)
        assert np.all(np.isfinite(gm.d))


class TestCompareMethods:
    def test_row_cardinality_and_order(self):
        data = gen_swiss_roll(100, 3).data
        rep = compare_methods(data, [5, 10], RunConfig(method="standard", k=5))
        assert [(r.k, r.method) for r in rep.rows] == [
            (5, "standard"), (5, "stable"), (10, "standard"), (10, "stable"),
        ]

    def test_dropped_accounting(self):
        data = gen_swiss_roll(100, 3).data
        rep = compare_methods(data, [5, 10], RunConfig(method="standard", k=5))
        for r in rep.rows:
            assert r.n_embedded + r.n_dropped == data.n
            assert 0.0 <= r.residual_variance <= 1.0

    def test_wide_window_identical_methods(self):
        data = gen_swiss_roll(100, 4).data
        rep = compare_methods(data, [8], RunConfig(method="standard", k=8, delta_theta_deg=89.9))
        std, stb = rep.rows
        assert abs(std.residual_variance - stb.residual_variance) <= 1e-12
        assert std.n_edges == stb.n_edges
        assert std.n_embedded == stb.n_embedded

    def test_failed_cell_becomes_marker_row(self):
        rng = np.random.default_rng(5)
        flat = DataSet(np.column_stack([rng.normal(size=(20, 2)), np.zeros(20)]))
        rep = compare_methods(flat, [5], RunConfig(method="standard", k=5))
        std, stb = rep.rows
        assert std.error is None
        assert stb.error is not None
        assert math.isnan(stb.residual_variance)
        assert stb.n_dropped == flat.n


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
        rep = compare_methods(flat, [5], RunConfig(method="standard", k=5))
        buf = io.StringIO()
        write_report_csv(rep, buf)
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

    def test_one_dimensional_embedding_rejected(self, tmp_path):
        emb = Embedding(coords=np.zeros((3, 1)), eigenvalues=np.ones(1))
        with pytest.raises(BadDimError):
            write_scatter_svg(emb, None, tmp_path / "x.svg")
