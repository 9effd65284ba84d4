"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The MNIST criterion is conditional: it runs only when IDX files are
available locally (MNIST_DIR or ./data/mnist), otherwise it is skipped.
"""

import math
import os
import time
from pathlib import Path

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
    compare_methods,
    floyd_all_pairs,
    gen_helix,
    gen_punctured_sphere,
    gen_swiss_roll,
    isomap_embed,
    load_idx,
    residual_variance,
    symmetric_eigen_top,
)
from topostable.graph import _dots, _project_out_rows

from conftest import cross_plane_edges, in_rows, sweep_cells
from dijkstra_reference import dijkstra_all_pairs


def report(num, slug, ok, detail="", status=None):
    line = f"criterion {num} ({slug}): {status or ('PASS' if ok else 'FAIL')}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_1_bridge_rejection(bridge_fixture):
    data, side = bridge_fixture
    cfg = SelectorConfig(k=8, dim_w=2, delta_theta_deg=5.0)
    t0 = time.perf_counter()
    standard_cross = cross_plane_edges(build_graph(data, cfg, "standard"), side)
    stable_cross = cross_plane_edges(build_graph(data, cfg, "stable"), side)
    elapsed = time.perf_counter() - t0
    ok = standard_cross >= 1 and stable_cross == 0 and elapsed < 1.0
    report(1, "bridge rejection", ok,
           f"standard={standard_cross} stable={stable_cross} cross-plane edges, {elapsed:.2f}s")
    assert standard_cross >= 1
    assert stable_cross == 0
    assert elapsed < 1.0


def test_criterion_2_mds_round_trip():
    rng = np.random.default_rng(0)
    cloud = rng.normal(size=(100, 2))
    q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    data = DataSet(np.hstack([cloud, np.zeros((100, 8))]) @ q.T + rng.normal(size=10))
    t0 = time.perf_counter()
    emb, gm, _ = isomap_embed(data, RunConfig(method="standard", k=99, m=2))
    rv = residual_variance(gm, emb)
    elapsed = time.perf_counter() - t0
    ok = rv <= 1e-10 and gm.n == 100 and elapsed < 5.0
    report(2, "MDS oracle round-trip", ok, f"rv={rv:.3e}, {elapsed:.2f}s")
    assert gm.n == 100
    assert rv <= 1e-10
    assert elapsed < 5.0


def test_criterion_3_swiss_roll_sweep():
    data = gen_swiss_roll(800, 2).data
    k_values = [10, 15, 20, 30]
    t0 = time.perf_counter()
    rows = compare_methods(data, sweep_cells(k_values, RunConfig(method="standard", k=10)))
    elapsed = time.perf_counter() - t0
    rv = {(r.k, r.method): r.residual_variance for r in rows}
    wins = sum(1 for k in k_values if rv[(k, "stable")] <= rv[(k, "standard")])
    rv30 = rv[(30, "stable")]
    ok = rv30 <= 0.05 and wins >= 3 and elapsed < 60.0
    report(3, "swiss roll sweep", ok,
           f"stable k=30 rv={rv30:.4f}, stable wins {wins}/4, {elapsed:.1f}s")
    assert rv30 <= 0.05
    assert wins >= 3
    assert elapsed < 60.0


def winding_param_gap(t_i, t_j):
    """Parameter distance on the t circle, then to the nearest multiple of
    pi/4 (adjacent coil passes of the 8-fold winding sit at multiples)."""
    d = abs(t_i - t_j)
    d = min(d, 2.0 * math.pi - d)
    r = math.fmod(d, math.pi / 4.0)
    return min(r, math.pi / 4.0 - r)


def test_criterion_4_helix_edges_stay_local():
    sample = gen_helix(500, 1)
    t = sample.params[:, 0]
    cfg = SelectorConfig(k=5, dim_w=2, delta_theta_deg=5.0)
    g = build_graph(sample.data, cfg, "stable")
    worst = max(winding_param_gap(t[i], t[j]) for i, j in g.edges)
    ok = worst <= 0.15
    report(4, "helix edge locality", ok, f"max parameter gap {worst:.4f} rad over {g.n_edges} edges")
    assert worst <= 0.15


def test_criterion_5_shortest_path_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        p = float(rng.uniform(0.02, 0.5))
        iu = np.triu_indices(n, 1)
        mask = rng.uniform(size=iu[0].size) < p
        edges = np.column_stack([iu[0][mask], iu[1][mask]]).astype(np.int64)
        weights = rng.uniform(0.1, 1.0, int(mask.sum()))
        g = NeighborGraph(n=n, edges=edges, weights=weights)
        gm = floyd_all_pairs(g)
        df, dd = gm.d, in_rows(gm, dijkstra_all_pairs(g).d)
        finite = np.isfinite(df)
        assert np.array_equal(finite, np.isfinite(dd))
        if finite.any():
            worst = max(worst, float(np.max(np.abs(df[finite] - dd[finite]))))
    ok = worst <= 1e-12
    report(5, "shortest-path equivalence", ok, f"max |floyd - dijkstra| = {worst:.2e} over 100 graphs")
    assert worst <= 1e-12


def cosines(u, v):
    """|cos| of the angle between the rows of two stacks."""
    return np.abs(np.sum(u * v, axis=1)) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))


def test_criterion_6_numeric_kernel_properties():
    # the selector's own projection step, on stacks of 1000 draws each
    rng = np.random.default_rng(7)
    x_p, x_n1, x_n2 = rng.normal(size=(1000, 3, 6)).transpose(1, 0, 2)
    v1, ok1 = _project_out_rows(x_n1 - x_p, [])
    v2, ok2 = _project_out_rows(x_n2 - x_p, [(v1, _dots(v1, v1))])
    assert ok1.all() and ok2.all()
    worst_gs = float(cosines(v1, v2).max())

    pts = rng.normal(size=(1000, 4, 6)).transpose(1, 0, 2)
    v1, ok1 = _project_out_rows(pts[1] - pts[0], [])
    v2, ok2 = _project_out_rows(pts[2] - pts[0], [(v1, _dots(v1, v1))])
    v3, ok3 = _project_out_rows(pts[3] - pts[0], [(v1, _dots(v1, v1)), (v2, _dots(v2, v2))])
    assert ok1.all() and ok2.all() and ok3.all()
    worst_res = float(max(cosines(v3, v1).max(), cosines(v3, v2).max()))

    worst_eig = 0.0
    for _ in range(100):
        a = rng.normal(size=(10, 10))
        a = (a + a.T) / 2
        values, vectors = symmetric_eigen_top(a, 10)
        recon = (vectors * values) @ vectors.T
        worst_eig = max(worst_eig, float(np.max(np.abs(recon - a))))

    ok = worst_gs <= 1e-10 and worst_res <= 1e-8 and worst_eig <= 1e-8
    report(6, "numeric-kernel properties", ok,
           f"gs={worst_gs:.2e} residual={worst_res:.2e} eigen={worst_eig:.2e}")
    assert worst_gs <= 1e-10
    assert worst_res <= 1e-8
    assert worst_eig <= 1e-8


def test_criterion_7_residual_variance_identity():
    rng = np.random.default_rng(8)
    coords = rng.normal(size=(40, 3))
    diff = coords[:, None, :] - coords[None, :, :]
    dy = np.sqrt((diff**2).sum(-1))
    emb = Embedding(coords=coords, eigenvalues=np.zeros(3))
    worst = 0.0
    for alpha in (1.0, 2.0, 0.3, 17.5):
        gm = GeodesicMatrix(d=dy / alpha)
        worst = max(worst, residual_variance(gm, emb))
    ok = worst <= 1e-12
    report(7, "residual-variance identity", ok, f"max rv = {worst:.2e} over scalings")
    assert worst <= 1e-12


def test_criterion_8_filter_neutrality():
    samples = {
        "helix": gen_helix(300, 3),
        "swissroll": gen_swiss_roll(300, 3),
        "sphere": gen_punctured_sphere(300, 3),
    }
    base = RunConfig(method="standard", k=8, delta_theta_deg=89.9)
    worst = 0.0
    counts_equal = True
    for name, sample in samples.items():
        rows = compare_methods(sample.data, sweep_cells([8, 12], base))
        by = {(r.k, r.method): r for r in rows}
        for k in (8, 12):
            std, stb = by[(k, "standard")], by[(k, "stable")]
            assert std.error is None and stb.error is None, name
            worst = max(worst, abs(std.residual_variance - stb.residual_variance))
            counts_equal &= (
                std.n_edges == stb.n_edges
                and std.n_embedded == stb.n_embedded
                and std.clipped_dims == stb.clipped_dims
            )
    ok = worst <= 1e-12 and counts_equal
    report(8, "filter neutrality at wide window", ok,
           f"max |rv difference| = {worst:.2e}, counts equal: {counts_equal}")
    assert worst <= 1e-12
    assert counts_equal


def _find_mnist():
    roots = []
    env = os.environ.get("MNIST_DIR")
    if env:
        roots.append(Path(env))
    roots += [Path("data/mnist"), Path("data"), Path.home() / "data" / "mnist"]
    pairs = [
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
        ("train-images.idx3-ubyte", "train-labels.idx1-ubyte"),
        ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
    ]
    for root in roots:
        for img, lab in pairs:
            if (root / img).is_file():
                lab_path = root / lab if (root / lab).is_file() else None
                return root / img, lab_path
    return None, None


def test_criterion_9_mnist_direction():
    img_path, lab_path = _find_mnist()
    if img_path is None:
        report(9, "MNIST direction", True, "IDX files not present (conditional criterion)", status="SKIP")
        pytest.skip("MNIST IDX files not present; set MNIST_DIR to run")
    data = load_idx(img_path, labels_path=lab_path, take_first=1000)
    k_values = list(range(6, 16))
    rows = compare_methods(data, sweep_cells(k_values, RunConfig(method="standard", k=6, m=2)))
    rv = {(r.k, r.method): r.residual_variance for r in rows}
    wins = sum(
        1
        for k in k_values
        if not math.isnan(rv[(k, "stable")])
        and (math.isnan(rv[(k, "standard")]) or rv[(k, "stable")] <= rv[(k, "standard")])
    )
    ok = wins > len(k_values) // 2
    report(9, "MNIST direction", ok, f"stable wins {wins}/{len(k_values)} k values")
    assert ok
