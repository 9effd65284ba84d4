import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import topostable
from topostable import DataSet, NeighborGraph, SelectorConfig, build_graph, gen_helix, gen_swiss_roll
from topostable import graph
from topostable.errors import DegenerateBasisError, DegenerateComplementError, KTooLargeError, NonFiniteError
from topostable.graph import EDGE_BLOCK_BYTES, ROW_BLOCK

from conftest import (
    blob_images,
    cross_plane_edges,
    helix_distance,
    nearest_neighbors,
    pairwise_sq,
    peak_bytes,
    short_circuit_edges,
    stable_neighbors,
    swiss_roll_distance,
)
from stable_reference import _stable_select


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


# Degenerate rows for the stable rule: a basis walk that skips a collinear
# offset, a duplicate of the point, and a basis that cannot be filled.
COLLINEAR_SUBSTITUTION = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0],
        [0.8, 0.0, 0.0],
        [0.0, 0.9, 0.0],
        [0.0, 0.0, 7.0],  # probe
    ]
)
DUPLICATE_POINT = np.array(
    [
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],  # duplicate of the base point
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [4.0, 4.0, 4.0],  # probe
    ]
)
ALL_COLLINEAR = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [2.0, 0.0, 0.0],
        [3.0, 0.0, 0.0],
        [0.0, 5.0, 5.0],
    ]
)


def probe_fixture(probes):
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.5, 0.5, 0.9, 0.0],  # candidate: off the plane along e3
            *probes,
        ]
    )


PROBE_IN_PLANE = [[20.0, 20.0, 0.0, 0.0], [0.0, 0.0, 0.0, 10.0], [0.0, 0.0, 10.0, 0.0]]


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
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(COLLINEAR_SUBSTITUTION), 0, cfg) == [1, 2, 3]

    def test_duplicate_point_kept_unconditionally(self):
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(DUPLICATE_POINT), 0, cfg) == [1, 2, 3]

    def test_all_collinear_raises_degenerate_basis(self):
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        with pytest.raises(DegenerateBasisError):
            stable_neighbors(DataSet(ALL_COLLINEAR), 0, cfg)

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
            (PROBE_IN_PLANE, [1, 2, 3]),
        ],
    )
    def test_probe_is_farthest_outside_the_plane(self, probes, kept):
        cfg = SelectorConfig(k=3, dim_w=2, delta_theta_deg=5.0)
        assert stable_neighbors(DataSet(probe_fixture(probes)), 0, cfg) == kept

    def test_config_validation(self):
        data = selector_example()
        with pytest.raises(ValueError):
            build_graph(data, SelectorConfig(k=2, dim_w=2), "stable")
        with pytest.raises(ValueError):
            build_graph(data, SelectorConfig(k=4, dim_w=3), "stable")
        with pytest.raises(ValueError):
            build_graph(data, SelectorConfig(k=4, delta_theta_deg=95.0), "stable")


def full_stable_argsort(d2, k):
    """The kNN table as one stable argsort of all of d2, self sorted first
    by a -1 diagonal and dropped."""
    full = d2.copy()
    np.fill_diagonal(full, -1.0)
    return np.argsort(full, axis=1, kind="stable")[:, 1 : k + 1]


def points_with_duplicates(n, seed):
    """n Gaussian points in 3-D whose last quarter repeats earlier rows."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    dup = n // 4
    pts[n - dup :] = pts[rng.integers(0, n - dup, size=dup)]
    return pts


class TestDenseSteps:
    """The blocked squared distances and the partitioned kNN table against
    the one-pass formulas they replaced, bit for bit (the kNN order depends
    on the rounding, so equal within a tolerance would not do)."""

    @pytest.mark.parametrize("n", [1, 63, 65, 130])
    def test_pairwise_sq_equals_one_pass_formula(self, n):
        # the formula on each row block's own Gram products: a one-row block
        # is a matrix-vector product, whose rounding can differ from the
        # whole product's, so the whole one is only within rounding. Each
        # coordinate's range holds 0, so the points are not moved
        pts = points_with_duplicates(n, n)
        assert n == 1 or np.all((pts.min(axis=0) < 0.0) & (pts.max(axis=0) > 0.0))
        x = pts
        blocks = [x[lo:lo + ROW_BLOCK] for lo in range(0, n, ROW_BLOCK)]
        g = np.vstack([b @ x.T for b in blocks])
        sq = np.concatenate([np.diag(b @ b.T) for b in blocks])
        expected = sq[:, None] + sq[None, :] - 2.0 * g
        np.maximum(expected, 0.0, out=expected)
        np.fill_diagonal(expected, 0.0)
        assert [lo for lo, _ in graph._pairwise_sq(pts)] == list(range(0, n, ROW_BLOCK))
        got = pairwise_sq(pts)
        assert np.array_equal(got, expected)
        whole = np.square(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        assert np.max(np.abs(got - whole)) <= 1e-14 * max(1.0, whole.max())

    def test_pairwise_sq_in_column_chunks(self):
        # 200 dimensions far from the origin, moved by the middle of each
        # coordinate's range: 64 * 70 // 200 = 22 points per chunk of
        # columns, four chunks, against the formula on the whole moved cloud
        n, dim = 70, 200
        pts = np.random.default_rng(3).normal(size=(n, dim)) + 1e7
        x = pts - 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        g = x @ x.T
        sq = np.diag(g)
        expected = np.maximum(sq[:, None] + sq[None, :] - 2.0 * g, 0.0)
        np.fill_diagonal(expected, 0.0)
        got = pairwise_sq(pts)
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()
        whole = np.square(x[:, None, :] - x[None, :, :]).sum(axis=2)
        assert np.max(np.abs(got - whole)) <= 1e-12 * whole.max()

    # (70, 69) and (2, 1): k = n - 1, the partition's cut is each row's
    # largest value; 65 and 2 * ROW_BLOCK + 5 rows: a last block shorter
    # than ROW_BLOCK
    @pytest.mark.parametrize("n, k", [(2, 1), (63, 5), (65, 1), (130, 12), (70, 69), (2 * ROW_BLOCK + 5, 9)])
    def test_knn_indices_equals_full_stable_argsort(self, n, k):
        d2 = pairwise_sq(points_with_duplicates(n, n))
        before = d2.copy()
        assert np.array_equal(graph._knn_indices(d2, k), full_stable_argsort(d2, k))
        assert np.array_equal(d2, before)

    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_knn_indices_on_integer_grid_ties(self, k):
        # 40 points on the 27 nodes of {0, 1, 2}^3: exact duplicates and
        # equal distances everywhere, so many ties straddle the cut
        rng = np.random.default_rng(2024)
        for _ in range(200):
            d2 = pairwise_sq(rng.integers(0, 3, size=(40, 3)).astype(np.float64))
            before = d2.copy()
            assert np.array_equal(graph._knn_indices(d2, k), full_stable_argsort(d2, k))
            assert np.array_equal(d2, before)

    @PROPERTY
    @given(seed=seeds, n=st.integers(2, 2 * ROW_BLOCK + 10), levels=st.integers(2, 5), data=st.data())
    def test_knn_indices_property(self, seed, n, levels, data):
        k = data.draw(st.integers(1, n - 1), label="k")
        pts = np.random.default_rng(seed).integers(0, levels, size=(n, 3)).astype(np.float64)
        d2 = pairwise_sq(pts)
        before = d2.copy()
        assert np.array_equal(graph._knn_indices(d2, k), full_stable_argsort(d2, k))
        assert np.array_equal(d2, before)


def knn_table(points, k):
    d2 = pairwise_sq(points)
    return d2, graph._knn_indices(d2, k)


def serial_keep(points, nn, d2, cfg):
    """The keep-mask from the reference _stable_select, one point at a time
    in ascending order; the first point that fails raises its error with
    "point p: " prepended, as build_graph names it."""
    keep = []
    for p in range(len(points)):
        try:
            keep.append(_stable_select(points, p, nn[p], d2[p], cfg))
        except (DegenerateBasisError, DegenerateComplementError) as exc:
            raise type(exc)(f"point {p}: {exc}") from exc
    return np.array(keep)


def outcome(select, *args):
    """select(*args) as ("mask", keep-mask) or (error type, message)."""
    try:
        return "mask", select(*args)
    except (DegenerateBasisError, DegenerateComplementError) as exc:
        return type(exc), str(exc)


def assert_blocks_equal_serial(points, cfg):
    """_stable_keep against the reference: the same mask bit for bit, or
    the same error type and message. Returns the outcome."""
    d2, nn = knn_table(points, cfg.k)
    got = outcome(graph._stable_keep, points, nn, d2, cfg)
    expected = outcome(serial_keep, points, nn, d2, cfg)
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    return expected


def planted_points(seed):
    """65 to 200 points in 3 to 5 dimensions, more than one selector block:
    on the integer lattice {-3, ..., 3}^d for odd seeds (distance ties
    everywhere), Gaussian for even ones. Up to a quarter of the rows are
    overwritten with copies of others, and up to three runs of 3 to 5
    consecutive rows are put on a line."""
    rng = np.random.default_rng(seed)
    n, dim = int(rng.integers(65, 201)), int(rng.integers(3, 6))
    if seed % 2:
        pts = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    else:
        pts = rng.normal(size=(n, dim))
    dups = int(rng.integers(0, n // 4))
    pts[rng.integers(0, n, size=dups)] = pts[rng.integers(0, n, size=dups)]
    for _ in range(int(rng.integers(0, 4))):
        lo, run = int(rng.integers(0, n - 5)), int(rng.integers(3, 6))
        pts[lo : lo + run] = pts[lo] + np.arange(run)[:, None] * rng.normal(size=dim)
    return pts


def rotated_sheet(seed, n, lifts):
    """n Gaussian points on a 2-D sheet in a random plane of R^64, with
    ``lifts`` of them moved 0.5 to 3 off it along further axes of the
    rotation. At dim_w = 2 a row's farthest probe on the sheet lies in its
    subspace up to rounding, so the row tries every probe it has."""
    rng = np.random.default_rng(seed)
    axes, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    points = rng.normal(size=(n, 2)) @ axes[:2]
    for j, i in enumerate(rng.choice(n, size=lifts, replace=False)):
        points[i] += rng.uniform(0.5, 3.0) * axes[2 + j]
    return points


def rim_sheet(seed):
    """150 Gaussian points in the plane z = 0 and ten at radius 5 around
    them, lifted 0.3 to 4 times 1e-9 of their radius: their offsets from
    the sheet leave its plane by about TOL_RANK of their length, on either
    side of it."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, 10)
    lifts = 5.0e-9 * np.array([0.3, 0.6, 0.9, 1.1, 1.4, 1.8, 2.5, 4.0, 0.5, 1.0])
    rim = np.column_stack([5.0 * np.cos(angles), 5.0 * np.sin(angles), lifts])
    return np.vstack([np.column_stack([rng.normal(size=(150, 2)), np.zeros(150)]), rim])


def lifted_sheet(n):
    """n Gaussian points in the plane z = 0 and one point at (0, 0, 1), the
    last, which no row has among its candidates: at dim_w = 2 every row of
    the sheet misses its farthest probe and finds the lifted point."""
    flat = np.random.default_rng(0).normal(size=(n, 2))
    return np.vstack([np.column_stack([flat, np.zeros(n)]), [[0.0, 0.0, 1.0]]])


class TestStableBlocks:
    """The stable selector's row blocks against the one-point reference
    _stable_select (tests/stable_reference.py), row by row and bit for bit,
    and error for error."""

    @pytest.fixture(scope="class")
    def swiss(self):
        return gen_swiss_roll(800, 1).data.points

    @pytest.mark.parametrize("k", [10, 15, 20, 30])
    def test_swiss_roll_all_rows_in_blocks(self, swiss, k):
        cfg = SelectorConfig(k=k)
        d2, nn = knn_table(swiss, k)
        before = d2.copy()
        keep = graph._stable_keep(swiss, nn, d2, cfg)
        assert np.array_equal(d2, before)
        assert np.array_equal(keep, serial_keep(swiss, nn, d2, cfg))

    @pytest.mark.parametrize(
        "points", [gen_helix(500, 1).data.points, blob_images(500, 1)], ids=["helix", "784-D blobs"]
    )
    @pytest.mark.parametrize("k", [10, 20])
    def test_blocks_equal_serial(self, points, k):
        assert assert_blocks_equal_serial(points, SelectorConfig(k=k))[0] == "mask"

    @pytest.mark.parametrize(
        "points",
        [COLLINEAR_SUBSTITUTION, DUPLICATE_POINT, probe_fixture(PROBE_IN_PLANE)],
        ids=["collinear substitution", "duplicate point", "probe in the plane"],
    )
    def test_degenerate_rows_equal_serial(self, points):
        assert assert_blocks_equal_serial(points, SelectorConfig(k=3))[0] == "mask"

    def test_all_collinear_names_the_first_point(self):
        cfg = SelectorConfig(k=3)
        kind, message = assert_blocks_equal_serial(ALL_COLLINEAR, cfg)
        assert kind is DegenerateBasisError
        with pytest.raises(DegenerateBasisError, match=f"^{re.escape(message)}$"):
            build_graph(DataSet(ALL_COLLINEAR), cfg, "stable")
        assert message == "point 0: only 1 independent offsets among 3 candidates"

    def test_no_probe_names_the_first_point(self):
        # k = n - 1: every other point is a candidate, so no row has a probe
        points, cfg = gaussian_points(3, 6, 4), SelectorConfig(k=5)
        kind, message = assert_blocks_equal_serial(points, cfg)
        assert kind is DegenerateComplementError
        assert message == "point 0: no probe point outside the neighborhood spans the complement"
        # and a block of any one row fails by itself
        d2, nn = knn_table(points, cfg.k)
        for p in range(len(points)):
            with pytest.raises(DegenerateComplementError, match=f"^point {p}: "):
                graph._stable_block(points, p, nn[p : p + 1], d2[p : p + 1], cfg)

    @pytest.mark.parametrize("dim_w", [1, 2])
    @pytest.mark.parametrize("k", [3, 5, 10])
    def test_integer_grid_equals_serial(self, k, dim_w):
        # 40 points on the 27 nodes of {0, 1, 2}^3: duplicates, collinear
        # offsets, probes in the subspace and distance ties everywhere
        rng = np.random.default_rng(2024)
        cfg = SelectorConfig(k=k, dim_w=dim_w)
        for _ in range(200):
            assert_blocks_equal_serial(rng.integers(0, 3, size=(40, 3)).astype(np.float64), cfg)

    def test_planted_sets_past_one_block_equal_serial(self):
        outcomes = []
        for seed in range(120):
            rng = np.random.default_rng(seed)
            points = planted_points(seed)
            dim_w = int(rng.integers(1, 3))
            cfg = SelectorConfig(k=int(rng.integers(dim_w + 1, 12)), dim_w=dim_w)
            outcomes.append(assert_blocks_equal_serial(points, cfg))
        # the family reaches masks and basis failures, some named past the
        # first block
        assert {kind for kind, _ in outcomes} == {"mask", DegenerateBasisError}
        named = [int(re.match(r"point (\d+): ", m).group(1)) for kind, m in outcomes if kind != "mask"]
        assert max(named) >= ROW_BLOCK

    def test_complement_failure_past_the_first_block(self):
        # a 10 x 10 grid in the plane z = 0 and one point above its corner:
        # a row that has the point among its candidates has no probe off
        # the plane, and every other row's farthest probe lies in the
        # plane, so the row tries all of its probes and takes the point
        grid = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0), [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
        points = np.vstack([grid, [[9.0, 9.0, 0.5]]])
        kind, message = assert_blocks_equal_serial(points, SelectorConfig(k=10))
        assert kind is DegenerateComplementError
        assert int(re.match(r"point (\d+): ", message).group(1)) >= ROW_BLOCK

    @pytest.mark.parametrize("dim_w", [1, 2])
    @pytest.mark.parametrize("lifts", [0, 1, 3, 8])
    def test_rotated_sheet_in_64d_equals_serial(self, lifts, dim_w):
        # 150 points: three blocks of rows
        cfg = SelectorConfig(k=10, dim_w=dim_w)
        outcomes = [assert_blocks_equal_serial(rotated_sheet(seed, 150, lifts), cfg) for seed in range(3)]
        if lifts or dim_w == 1:
            assert [kind for kind, _ in outcomes] == ["mask"] * 3
        else:  # every subspace is the sheet's plane
            message = "point 0: no probe point outside the neighborhood spans the complement"
            assert outcomes == [(DegenerateComplementError, message)] * 3

    @pytest.mark.parametrize("dim_w", [1, 2])
    def test_lifted_sheet_equals_serial(self, dim_w):
        assert assert_blocks_equal_serial(lifted_sheet(400), SelectorConfig(k=10, dim_w=dim_w))[0] == "mask"

    @pytest.mark.parametrize("seed", range(5))
    def test_probes_near_the_rank_bound_equal_serial(self, seed):
        # the rows of the sheet miss their farthest probes; the rim's are
        # too near the bound for the scan's screen to decide, so
        # _project_out_rows decides them, farthest first, and rejects some
        assert assert_blocks_equal_serial(rim_sheet(seed), SelectorConfig(k=10))[0] == "mask"

    def test_lifted_sheet_tries_each_missing_row_in_one_projection(self, monkeypatch):
        # the basis walk and the first probes take dim_w + 1 projections per
        # block, and each row that misses its first probe takes one more
        points, cfg = lifted_sheet(400), SelectorConfig(k=10)
        d2, nn = knn_table(points, cfg.k)
        calls = []
        project = graph._project_out_rows
        monkeypatch.setattr(graph, "_project_out_rows", lambda *args: calls.append(1) or project(*args))
        graph._stable_keep(points, nn, d2, cfg)
        blocks = -(-len(points) // ROW_BLOCK)
        assert len(calls) <= blocks * (cfg.dim_w + 1) + len(points)

    @PROPERTY
    @given(seed=seeds, n=st.integers(20, 150), dim=st.integers(4, 6), dim_w=st.integers(1, 3), dups=st.integers(0, 6))
    def test_blocks_equal_serial_property(self, seed, n, dim, dim_w, dups):
        # copies of the first three points put coincident candidates before
        # and past the dim_w nearest; k grows by 2 per copy as in the union
        # oracle
        pts = gaussian_points(seed, n, dim)
        points = np.vstack([pts, pts[np.arange(dups) % 3]])
        assert_blocks_equal_serial(points, SelectorConfig(k=dim_w + 3 + 2 * dups, dim_w=dim_w))


class TestBuildGraph:
    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_memory_about_one_n2_buffer(self, method):
        # no n x n buffer: the squared distances, the kNN table and the
        # stable keep-mask are made a block of ROW_BLOCK rows at a time;
        # measured 0.37 and 0.41 (the whole distances held 1.21 and 1.24)
        n = 400
        data = gen_swiss_roll(n, 1).data
        cfg = SelectorConfig(k=10)
        build_graph(data, cfg, method)  # warm-up: first-call allocations
        _, peak = peak_bytes(lambda: build_graph(data, cfg, method))
        assert peak <= 0.51 * n * n * 8

    def test_memory_784d_bounded_by_blocks(self):
        # 784-D: the selector's (block, k, d) offsets and the weights'
        # gathered edge ends are cut to about EDGE_BLOCK_BYTES each, and the
        # moved points the distances are made from take at most a
        # (ROW_BLOCK, n) block's room, so the build holds a few such blocks
        # however large d is (64-row selector blocks would hold 4 MB of
        # offsets alone); measured 3.00 MB
        n = 300
        data = DataSet(np.random.default_rng(7).standard_normal((n, 784)))
        cfg = SelectorConfig(k=10)
        build_graph(data, cfg, "stable")  # warm-up: first-call allocations
        _, peak = peak_bytes(lambda: build_graph(data, cfg, "stable"))
        assert peak <= 3 * EDGE_BLOCK_BYTES

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

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_far_translation_leaves_edges_unchanged(self, method):
        # 1e7 times the cloud's extent from the origin: the Gram terms of
        # the points as given would round to about 10^2 times the squared
        # spacing of neighbours, which moving them to their box's middle first
        # keeps from cancelling
        data = gen_swiss_roll(400, 1).data
        extent = float(np.max(data.points.max(axis=0) - data.points.min(axis=0)))
        far = DataSet(data.points + 1e7 * extent)
        cfg = SelectorConfig(k=10)
        assert np.array_equal(build_graph(data, cfg, method).edges, build_graph(far, cfg, method).edges)

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


class TestOverflowGuard:
    """Coordinates whose squared distances overflow float64 are refused
    before the Gram product, with the point of largest magnitude named;
    large coordinates short of that build the graph of the unscaled ones."""

    cfg = SelectorConfig(k=5)

    @staticmethod
    def points(scale):
        return np.random.default_rng(0).normal(size=(20, 3)) * scale

    @pytest.mark.parametrize("method", ["standard", "stable"])
    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_overflow_names_the_point(self, scale, method):
        pts = self.points(scale)
        p = int(np.argmax(np.abs(pts).max(axis=1)))
        with pytest.raises(NonFiniteError, match=f"^point {p}: "):
            build_graph(DataSet(pts), self.cfg, method)

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_large_scales_build_the_unscaled_graph(self, method):
        g = build_graph(DataSet(self.points(1.0)), self.cfg, method)
        for scale in (1e150, 2.0**500):
            big = build_graph(DataSet(self.points(scale)), self.cfg, method)
            assert np.array_equal(big.edges, g.edges)
        # a power of two scales every weight exactly
        assert np.array_equal(big.weights, g.weights * 2.0**500)


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
    assert topostable.linalg.__all__ == ["symmetric_eigen_top"]
    for name in ("gram_schmidt_pair", "residual_vector", "angle_deg", "pearson_r"):
        assert name not in names
        assert not hasattr(topostable.linalg, name)
    assert not hasattr(topostable.errors, "ZeroVectorError")


class TestShortCircuitEdges:
    """The paper's claim: the angle filter keeps fewer edges that cut across
    the manifold than plain kNN does, across the Swiss roll's layers (n=800,
    seed 1) and between the helix's turns (n=500, seed 1)."""

    PINNED = {10: (0, 0), 15: (9, 0), 20: (39, 0), 30: (376, 2)}  # k: (standard, stable)
    HELIX_PINNED = {10: (5, 0), 15: (128, 0), 20: (489, 0)}

    @pytest.fixture(scope="class")
    def sample(self):
        return gen_swiss_roll(800, 1)

    @pytest.fixture(scope="class")
    def helix(self):
        return gen_helix(500, 1)

    @staticmethod
    def counts(sample, k, distance):
        return tuple(
            short_circuit_edges(build_graph(sample.data, SelectorConfig(k=k), method), distance)
            for method in ("standard", "stable")
        )

    @pytest.mark.parametrize("k", sorted(PINNED))
    def test_counts_pinned_and_stable_never_worse(self, sample, k):
        counts = self.counts(sample, k, swiss_roll_distance(sample.params))
        assert counts == self.PINNED[k]
        standard, stable = counts
        assert stable <= standard
        if k <= 20:
            assert stable == 0

    @pytest.mark.parametrize("k", sorted(HELIX_PINNED))
    def test_helix_counts_pinned(self, helix, k):
        assert self.counts(helix, k, helix_distance(helix.params)) == self.HELIX_PINNED[k]
