import math
import warnings

import numpy as np
import pytest

from topostable import (
    DataSet,
    Embedding,
    GeodesicMatrix,
    RunConfig,
    SelectorConfig,
    double_center,
    gen_swiss_roll,
    isomap_embed,
    residual_variance,
    symmetric_eigen_top,
)
from topostable import graph, linalg
from topostable.errors import (
    DegenerateBasisError,
    DegenerateComplementError,
    NonFiniteError,
    ZeroVarianceError,
)

from conftest import centered_squares, pack
from stable_reference import _angles_deg


def project(d, *basis):
    """graph._project_out_rows, the selector's projection step, on stacks:
    each row of d against the same row of each basis stack. Returns (r, ok);
    ok is False where the residual is numerically zero."""
    return graph._project_out_rows(d, [(b, graph._dots(b, b)) for b in basis])


def stack(*xs):
    return (np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in xs)


def project_pair(x_p, x_n1, x_n2):
    """v1, v2 and ok, on stacks of rows, as the stable selector's basis walk
    builds them from two neighbor offsets; ok is False where the offsets are
    collinear."""
    x_p, x_n1, x_n2 = stack(x_p, x_n1, x_n2)
    v1 = x_n1 - x_p
    return (v1, *project(x_n2 - x_p, v1))


def residual(x_q, x_p, basis):
    """Complement vector of the probe x_q (one row), as the selector's probe
    walk builds it; None when x_q lies in the spanned subspace."""
    x_q, x_p = stack(x_q, x_p)
    r, ok = project(x_q - x_p, *stack(*basis))
    return r[0] if ok[0] else None


def angle(u, v):
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    return float(_angles_deg(u, np.linalg.norm(u), v))


def select_first(pts, cfg):
    """The selector's keep-mask for point 0 with every other point as a
    candidate, in index order."""
    pts = np.asarray(pts, dtype=np.float64)
    d2_row = np.sum((pts - pts[0]) ** 2, axis=1)
    return graph._stable_block(pts, 0, np.arange(1, cfg.k + 1)[None], d2_row[None], cfg)[0]


class TestGramSchmidtPair:
    def test_projection_removes_first_component(self):
        v1, v2, ok = project_pair([0, 0, 0], [1, 0, 0], [1, 1, 0])
        assert ok.all()
        assert np.allclose(v1, [1, 0, 0], atol=0)
        assert np.allclose(v2, [0, 1, 0], atol=1e-15)

    def test_already_orthogonal_unchanged(self):
        v1, v2, ok = project_pair([0, 0, 0], [2, 0, 0], [0, 3, 0])
        assert ok.all()
        assert np.allclose(v1, [2, 0, 0], atol=0)
        assert np.allclose(v2, [0, 3, 0], atol=0)

    def test_collinear_raises(self):
        # the projection step reports collinear offsets as not ok, and the
        # selector, left without a second basis vector, raises
        assert not project_pair([0, 0, 0], [1, 0, 0], [2, 0, 0])[2].any()
        with pytest.raises(DegenerateBasisError):
            select_first([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 0, 5]], SelectorConfig(k=2))

    def test_random_triples_orthogonal(self):
        # one stack of 300 triples (the draws of 300 single triples)
        x_p, x_n1, x_n2 = np.random.default_rng(42).normal(size=(300, 3, 5)).transpose(1, 0, 2)
        v1, v2, ok = project_pair(x_p, x_n1, x_n2)
        assert ok.all()
        for a, b in zip(v1, v2):
            assert abs(np.dot(a, b)) <= 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)


class TestResidualVector:
    def test_already_in_complement(self):
        v3 = residual([0, 0, 1], [0, 0, 0], [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        assert np.allclose(v3, [0, 0, 1], atol=0)

    def test_hand_computed_projections(self):
        # (5,5,5) minus its x and y axis projections leaves (0,0,5)
        v3 = residual([5, 5, 5], [0, 0, 0], [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        assert np.allclose(v3, [0, 0, 5], atol=1e-14)

    def test_inside_subspace_raises(self):
        # the projection step reports a probe inside the subspace as not
        # ok, and the selector, left without a probe outside it, raises
        assert residual([3, 4, 0], [0, 0, 0], [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])]) is None
        with pytest.raises(DegenerateComplementError):
            select_first([[0, 0, 0], [1, 0, 0], [0, 1, 0], [3, 4, 0]], SelectorConfig(k=2))

    def test_orthogonality_and_reprojection(self):
        # one stack of 200 sets of four points (the draws of 200 single sets)
        pts = np.random.default_rng(3).normal(size=(200, 4, 6))
        v1, v2, ok = project_pair(pts[:, 0], pts[:, 1], pts[:, 2])
        v3, ok3 = project(pts[:, 3] - pts[:, 0], v1, v2)
        assert ok.all() and ok3.all()
        for p, a1, a2, a3 in zip(pts, v1, v2, v3):
            for b in (a1, a2):
                assert abs(np.dot(a3, b)) <= 1e-8 * np.linalg.norm(a3) * np.linalg.norm(b)
            # the removed part lies in span(v1, v2): re-project and compare
            d = p[3] - p[0]
            removed = d - a3
            back = (np.dot(removed, a1) / np.dot(a1, a1)) * a1
            back += (np.dot(removed, a2) / np.dot(a2, a2)) * a2
            assert np.allclose(removed, back, atol=1e-8 * np.linalg.norm(d))


class TestAngleDeg:
    def test_orthogonal_axes(self):
        assert angle([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0, abs=1e-12)

    def test_parallel(self):
        assert angle([1, 0, 0], [2, 0, 0]) == pytest.approx(0.0, abs=1e-6)

    def test_known_oblique_angle(self):
        # cos(theta) = 2.5 / (5 * sqrt(0.27)), about 15.79 degrees
        expected = math.degrees(math.acos(2.5 / (5.0 * math.sqrt(0.27))))
        got = angle([0, 0, 5], [0.1, 0.1, 0.5])
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(15.79, abs=0.005)

    def test_symmetry_and_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u, v = rng.normal(size=(2, 4))
            assert angle(u, v) == pytest.approx(angle(v, u), abs=1e-12)
            assert angle(u, 2.5 * u) == pytest.approx(0.0, abs=1e-5)
            assert angle(u, -0.7 * u) == pytest.approx(180.0, abs=1e-5)


class TestSymmetricEigenTop:
    def test_diagonal(self):
        values, vectors = symmetric_eigen_top(pack(np.diag([3.0, 1.0])), 1)
        assert values == pytest.approx([3.0])
        assert np.allclose(np.abs(vectors[:, 0]), [1, 0], atol=1e-12)

    def test_centered_gram_of_two_points(self):
        # hand decomposition of [[0.25,-0.25],[-0.25,0.25]]: eigenvalues 0.5 and 0
        values, _ = symmetric_eigen_top(pack([[0.25, -0.25], [-0.25, 0.25]]), 2)
        assert values == pytest.approx([0.5, 0.0], abs=1e-15)

    def test_degenerate_spectrum(self):
        values, vectors = symmetric_eigen_top(pack(np.eye(4)), 2)
        assert values == pytest.approx([1.0, 1.0])
        assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("n", [10, 30])  # the full eigh, and the subspace iteration
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_refused(self, n, bad):
        # without the check the full eigh answers the NaN case with the
        # eigenvalues 1, 1
        a = np.eye(n)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(NonFiniteError, match="^matrix has non-finite entries$"):
            symmetric_eigen_top(pack(a), 2)

    @pytest.mark.parametrize("a", [np.eye(4), np.eye(4).tolist()], ids=["ndarray", "list"])
    def test_array_refused(self, a):
        with pytest.raises(TypeError, match="^expected a SymmetricBlocks or a CenteredSquares, got "):
            symmetric_eigen_top(a, 2)

    def test_reconstruction_and_residuals(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=(10, 10))
            a = (a + a.T) / 2
            values, vectors = symmetric_eigen_top(pack(a), 10)
            recon = (vectors * values) @ vectors.T
            assert np.max(np.abs(recon - a)) <= 1e-8
            norm_a = np.linalg.norm(a)
            for j in range(10):
                res = a @ vectors[:, j] - values[j] * vectors[:, j]
                assert np.linalg.norm(res) <= 1e-8 * norm_a

    def test_deterministic_and_sign_canonical(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2
        values1, vectors1 = symmetric_eigen_top(pack(a), 6)
        values2, vectors2 = symmetric_eigen_top(pack(a.copy()), 6)
        assert np.array_equal(values1, values2)
        assert np.array_equal(vectors1, vectors2)
        for j in range(6):
            col = vectors1[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_descending_order(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        values, _ = symmetric_eigen_top(pack(a), 8)
        assert np.all(np.diff(values) <= 0)


def eigen_top_reference(a, m):
    """The full-eigh routine symmetric_eigen_top ran before block subspace
    iteration, kept as the oracle: all eigenpairs, stable descending sort,
    largest-magnitude component of each vector made positive."""
    a = np.asarray(a, dtype=np.float64)
    values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    order = np.argsort(-values, kind="stable")[:m]
    values = values[order]
    vectors = vectors[:, order]
    for j in range(m):
        col = vectors[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            vectors[:, j] = -col
    return values, vectors


def top_subspace(a, m):
    """linalg._top_subspace on the dense matrix a, through the product
    symmetric_eigen_top runs for it: that of pack(a)."""
    packed = pack(a)
    return linalg._top_subspace(packed.__matmul__, packed.n, m)


def distances(n, seed=0):
    """The distances of n normal points in 6-D, whose doubly-centered squares
    have six distinct positive eigenvalues and n - 6 at round-off."""
    points = np.random.default_rng(seed).normal(size=(n, 6)) * np.arange(6.0, 0.0, -1.0)
    return np.sqrt(np.square(points[:, None, :] - points[None, :, :]).sum(axis=-1))


def planted(n, top, rest_scale=1.0, seed=0):
    """Symmetric n x n matrix with eigenvalues ``top`` followed by n - len(top)
    values uniform in [-rest_scale, rest_scale], in a random orthonormal basis."""
    rng = np.random.default_rng(seed)
    spectrum = np.concatenate([top, rng.uniform(-rest_scale, rest_scale, n - len(top))])
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * spectrum) @ q.T
    return (a + a.T) / 2.0


class TestEigenOracle:
    """symmetric_eigen_top against the full-eigh oracle: values within 1e-12
    relative, vectors within 1e-10 under the sign rule."""

    def assert_matches_oracle(self, a, m, dense=None):
        """dense: a as a dense matrix, when a is not one; a dense a is
        passed packed."""
        if dense is None:
            dense, a = a, pack(a)
        got_values, got_vectors = symmetric_eigen_top(a, m)
        values, vectors = eigen_top_reference(dense, m)
        assert got_values.shape == (m,) and got_vectors.shape == (dense.shape[0], m)
        assert np.all(np.abs(got_values - values) <= 1e-12 * np.abs(values))
        assert np.max(np.abs(got_vectors - vectors)) <= 1e-10
        return got_values, values

    @pytest.mark.parametrize("n", [60, 200])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_planted_spectrum(self, n, m):
        a = planted(n, [100.0, 40.0, 15.0], seed=n + m)
        assert top_subspace(a, m) is not None  # the iteration answered
        self.assert_matches_oracle(a, m)

    @pytest.mark.parametrize("n", [60, 200])
    def test_large_negative_eigenvalues_in_the_block(self, n):
        # |lambda| is largest for the two negatives; they enter the block,
        # but the top two algebraic values still lie above every
        # eigenvalue left outside it
        a = planted(n, [-900.0, -400.0, 50.0, 20.0], seed=n)
        assert top_subspace(a, 2) is not None
        got, _ = self.assert_matches_oracle(a, 2)
        assert got == pytest.approx([50.0, 20.0], rel=1e-12)

    @pytest.mark.parametrize("n", [60, 200])
    def test_large_negative_eigenvalues_fill_the_block(self, n):
        # ten dominant negatives fill the block and it converges to them,
        # but the top algebraic pair lies outside it: the full solver answers
        a = planted(n, [5.0, 3.0] + [-100.0 - j for j in range(10)], rest_scale=0.5, seed=n)
        assert top_subspace(a, 2) is None
        got, _ = self.assert_matches_oracle(a, 2)
        assert got == pytest.approx([5.0, 3.0], rel=1e-12)

    @pytest.mark.parametrize("n", [60, 200])
    def test_fewer_positive_eigenvalues_than_m(self, n):
        # one positive eigenvalue, m = 3: the 11-column block converges to it
        # and ten large negatives, but the retained negatives are the least
        # negative ones, which only the full solver finds; n_clipped must be
        # exact
        rng = np.random.default_rng(n)
        spectrum = [30.0] + [-50.0 - j for j in range(10)] + list(-rng.uniform(0.1, 1.0, n - 11))
        a = planted(n, spectrum, seed=n)
        assert top_subspace(a, 3) is None
        got, values = self.assert_matches_oracle(a, 3)
        assert int(np.sum(got < 0.0)) == int(np.sum(values < 0.0)) == 2
        assert np.all(got[1:] > -1.0)

    def test_tied_top_pair(self):
        # a tied pair has no unique basis: compare the values and the
        # projector onto the pair's span
        a = planted(200, [50.0, 50.0, 10.0], seed=3)
        got_values, got_vectors = symmetric_eigen_top(pack(a), 2)
        values, vectors = eigen_top_reference(a, 2)
        assert np.all(np.abs(got_values - values) <= 1e-12 * np.abs(values))
        assert np.max(np.abs(got_vectors @ got_vectors.T - vectors @ vectors.T)) <= 1e-10
        assert np.allclose(got_vectors.T @ got_vectors, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("n, m", [(2, 1), (10, 10), (20, 2), (40, 12)])
    def test_small_n_runs_the_full_solver(self, n, m):
        # 2 (m + 8) >= n: the full eigh answers, entry for entry the oracle
        a = planted(n, [], seed=n)
        got_values, got_vectors = symmetric_eigen_top(pack(a), m)
        values, vectors = eigen_top_reference(a, m)
        assert np.array_equal(got_values, values)
        assert np.array_equal(got_vectors, vectors)

    def test_stalled_iteration_falls_back_early(self, monkeypatch):
        # eigenvalues 1.0, 0.999, ...: the block's gap closes far too slowly
        # for the cap; the measured rate says so after _RATE_SPAN + 1
        # iterations, and the full solver answers
        a = planted(100, np.linspace(1.0, 0.9, 100))
        qr = np.linalg.qr
        calls = []

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        assert top_subspace(a, 2) is None
        assert len(calls) == linalg._RATE_SPAN + 1  # the start block and one per iteration
        monkeypatch.undo()
        got_values, got_vectors = symmetric_eigen_top(pack(a), 2)
        values, vectors = eigen_top_reference(a, 2)
        assert np.array_equal(got_values, values)
        assert np.array_equal(got_vectors, vectors)

    def test_slow_iteration_within_the_cap_answers(self):
        # lambda_11 / lambda_2 = 0.6: dozens of iterations, but the measured
        # rate reaches the bound within the cap, so the iteration answers
        top = [1.0, 0.99, *np.linspace(0.98, 0.9, 8), 0.6 * 0.99]
        a = planted(200, top, rest_scale=0.3, seed=7)
        assert top_subspace(a, 2) is not None
        self.assert_matches_oracle(a, 2)

    def test_bounds_below_round_off_answer_within_the_stall_bound(self, monkeypatch):
        # bounds no residual can reach: the residuals stall at round-off,
        # and the block answers because they are within _STALL_TOL
        monkeypatch.setattr(linalg, "_COORD_TOL", 0.0)
        monkeypatch.setattr(linalg, "_RESIDUAL_TOL", 1e-20)
        a = planted(200, [100.0, 40.0, 15.0], seed=5)
        assert top_subspace(a, 2) is not None
        self.assert_matches_oracle(a, 2)
        monkeypatch.setattr(linalg, "_STALL_TOL", 1e-20)
        assert top_subspace(a, 2) is None

    @pytest.mark.parametrize("n", [20, 130])  # the full eigh, and the subspace iteration
    def test_packed_matrix_gives_the_dense_answer(self, n):
        # the doubly-centered operator over the distances against the
        # oracle on the dense reference, which its products match
        op = double_center(pack(distances(n, seed=n)))
        reference = centered_squares(op.d)
        assert np.max(np.abs(op @ np.eye(n) - reference)) <= 1e-12 * np.max(np.abs(reference))
        self.assert_matches_oracle(op, 2, reference)

    @pytest.mark.parametrize("n", [20, 130])
    def test_full_solver_takes_the_operators_own_products(self, monkeypatch, n):
        # with the iteration off, the full eigh reads the operator only
        # through its products: bitwise the eigh of op @ I
        monkeypatch.setattr(linalg, "_top_subspace", lambda product, n, m: None)
        op = double_center(pack(distances(n, seed=n)))
        got_values, got_vectors = symmetric_eigen_top(op, 2)
        values, vectors = np.linalg.eigh(op @ np.eye(n))
        order = np.argsort(-values, kind="stable")[:2]
        values, vectors = values[order], vectors[:, order]
        for j in range(2):
            if vectors[np.argmax(np.abs(vectors[:, j])), j] < 0.0:
                vectors[:, j] *= -1.0
        assert np.array_equal(got_values, values)
        assert np.array_equal(got_vectors, vectors)

    @pytest.mark.parametrize("n", [20, 130])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_packed_non_finite_entries_refused(self, n, bad):
        d = distances(n)
        d[-1, -1] = bad
        with pytest.raises(NonFiniteError, match="^geodesic matrix spans multiple components$"):
            symmetric_eigen_top(double_center(pack(d)), 2)


SPLITMIX_MASK = (1 << 64) - 1


def splitmix64(k):
    """The k-th output (k >= 1) of splitmix64 started from state 0, in
    Python integers: the oracle of linalg._start_block."""
    z = k * 0x9E3779B97F4A7C15 & SPLITMIX_MASK
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & SPLITMIX_MASK
    z = (z ^ z >> 27) * 0x94D049BB133111EB & SPLITMIX_MASK
    return z ^ z >> 31


class TestStopRuleScale:
    @staticmethod
    def scaled_error(monkeypatch, method, e):
        """Largest coordinate error of the embedding of the roll x 2^e against
        the unscaled one x 2^e, over its largest coordinate; run with
        warnings as errors and the full solver patched to fail."""
        pts = gen_swiss_roll(400, 1).data.points
        cfg = RunConfig(method=method, k=10)
        ref, ref_gm, _ = isomap_embed(DataSet(pts), cfg)

        def no_full_solver(a, m):
            raise AssertionError("the full solver ran")

        monkeypatch.setattr(linalg, "_top_full", no_full_solver)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb, gm, _ = isomap_embed(DataSet(np.ldexp(pts, e)), cfg)
        assert np.array_equal(gm.points, ref_gm.points)
        want = np.ldexp(ref.coords, e)
        return np.max(np.abs(emb.coords - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("method", ["standard", "stable"])
    @pytest.mark.parametrize("e", [-500, -280, 0, 280, 490])
    def test_scaled_input_gives_the_scaled_embedding(self, monkeypatch, method, e):
        # the residual norms square entries of size |lambda|max, which
        # underflow to 0 from about 2^-270 times the roll's scale (a false
        # stop on the start block) and overflow from 2^280 (warnings, then
        # the full solver) unless taken in units of a power of two
        assert self.scaled_error(monkeypatch, method, e) <= 1e-12

    @pytest.mark.parametrize("method", ["standard", "stable"])
    def test_subnormal_spectrum_gives_the_scaled_embedding(self, monkeypatch, method):
        # at 2^-520 every eigenvalue is subnormal: the inverse of the power
        # of two at |lambda|max overflows, and the centered squared
        # geodesics keep fewer digits, hence the looser bound
        assert self.scaled_error(monkeypatch, method, -520) <= 1e-11

    def test_subnormal_eigenvalues_are_found(self):
        # (1..40) x 2^-1040 lie below 2^-1022; n = 40 runs the subspace iteration
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, vectors = symmetric_eigen_top(pack(np.diag(np.ldexp(np.arange(1.0, 41.0), -1040))), 2)
        # subnormals are spaced 2^-1074, so at 2^-1040 about 34 bits are left
        assert np.allclose(np.ldexp(values, 1040), [40.0, 39.0], rtol=1e-9, atol=0.0)
        assert np.allclose(vectors, np.eye(40)[:, [39, 38]], rtol=0.0, atol=1e-9)


class TestStartBlock:
    def test_oracle_outputs(self):
        # splitmix64's published first outputs from state 0
        assert [splitmix64(k) for k in (1, 2, 3)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_first_values_pinned(self):
        # a platform or numpy version that computes other bits fails here
        assert linalg._start_block(3, 2).tolist() == [
            [0.3833108082136426, -0.06847200295149003],
            [-0.47356622840740226, 0.4708819781538285],
            [-0.39365330843278756, -0.17267423578187424],
        ]

    @pytest.mark.parametrize("n, p", [(1, 1), (21, 10), (400, 11)])
    def test_matches_the_oracle(self, n, p):
        block = linalg._start_block(n, p)
        expected = [(splitmix64(k) >> 11) * 2.0**-53 - 0.5 for k in range(1, n * p + 1)]
        assert block.shape == (n, p) and block.dtype == np.float64
        assert block.ravel().tolist() == expected


def rv_of_three(geo, coords):
    """residual_variance of three points whose geodesics (0,1), (0,2), (1,2)
    are geo: the correlation it takes runs over exactly those three pairs."""
    d = np.zeros((3, 3))
    d[np.triu_indices(3, 1)] = geo
    coords = np.asarray(coords, dtype=np.float64)
    gm = GeodesicMatrix(d=pack(d + d.T))
    return residual_variance(gm, Embedding(coords=coords, eigenvalues=np.zeros(coords.shape[1])))


class TestPearsonR:
    """The Pearson correlation inside residual_variance (1 - r^2)."""

    def test_identical(self):
        # embedded distances (1, 2, 3)
        assert rv_of_three([1, 2, 3], [[0], [1], [-2]]) == pytest.approx(0.0, abs=1e-12)

    def test_positive_scaling(self):
        # embedded distances (2, 4, 6)
        assert rv_of_three([1, 2, 3], [[0], [2], [-4]]) == pytest.approx(0.0, abs=1e-12)

    def test_constant_raises(self):
        # one embedded point: every embedded distance is 0
        with pytest.raises(ZeroVarianceError, match="^residual variance undefined: every embedded distance is equal$"):
            rv_of_three([1, 2, 3], [[5], [5], [5]])

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.normal(size=(7, 7))
            gm = GeodesicMatrix(d=pack(a + a.T))
            emb = Embedding(coords=rng.normal(size=(7, 2)), eigenvalues=np.zeros(2))
            rv = residual_variance(gm, emb)
            for alpha, beta in ((2.0, 1.0), (-3.0, 0.5), (0.1, -7.0)):
                moved = GeodesicMatrix(d=pack(alpha * gm.d.dense() + beta))
                assert residual_variance(moved, emb) == pytest.approx(rv, abs=1e-10)
