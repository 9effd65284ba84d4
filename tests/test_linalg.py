import math

import numpy as np
import pytest

from topostable import (
    angle_deg,
    gram_schmidt_pair,
    pearson_r,
    residual_vector,
    symmetric_eigen_top,
)
from topostable.errors import (
    DegenerateBasisError,
    DegenerateComplementError,
    NotSymmetricError,
    ZeroVarianceError,
    ZeroVectorError,
)


class TestGramSchmidtPair:
    def test_projection_removes_first_component(self):
        v1, v2 = gram_schmidt_pair([0, 0, 0], [1, 0, 0], [1, 1, 0])
        assert np.allclose(v1, [1, 0, 0], atol=0)
        assert np.allclose(v2, [0, 1, 0], atol=1e-15)

    def test_already_orthogonal_unchanged(self):
        v1, v2 = gram_schmidt_pair([0, 0, 0], [2, 0, 0], [0, 3, 0])
        assert np.allclose(v1, [2, 0, 0], atol=0)
        assert np.allclose(v2, [0, 3, 0], atol=0)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateBasisError):
            gram_schmidt_pair([0, 0, 0], [1, 0, 0], [2, 0, 0])

    def test_coincident_neighbor_raises(self):
        with pytest.raises(DegenerateBasisError):
            gram_schmidt_pair([1, 1, 1], [1, 1, 1], [2, 0, 0])

    def test_random_triples_orthogonal(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            x_p, x_n1, x_n2 = rng.normal(size=(3, 5))
            v1, v2 = gram_schmidt_pair(x_p, x_n1, x_n2)
            assert abs(np.dot(v1, v2)) <= 1e-10 * np.linalg.norm(v1) * np.linalg.norm(v2)


class TestResidualVector:
    def test_already_in_complement(self):
        v3 = residual_vector([0, 0, 1], [0, 0, 0], [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        assert np.allclose(v3, [0, 0, 1], atol=0)

    def test_hand_computed_projections(self):
        # (5,5,5) minus its x and y axis projections leaves (0,0,5)
        v3 = residual_vector([5, 5, 5], [0, 0, 0], [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        assert np.allclose(v3, [0, 0, 5], atol=1e-14)

    def test_inside_subspace_raises(self):
        with pytest.raises(DegenerateComplementError):
            residual_vector([3, 4, 0], [0, 0, 0], [np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])

    def test_orthogonality_and_reprojection(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pts = rng.normal(size=(4, 6))
            v1, v2 = gram_schmidt_pair(pts[0], pts[1], pts[2])
            v3 = residual_vector(pts[3], pts[0], [v1, v2])
            for b in (v1, v2):
                assert abs(np.dot(v3, b)) <= 1e-8 * np.linalg.norm(v3) * np.linalg.norm(b)
            # the removed part lies in span(v1, v2): re-project and compare
            d = pts[3] - pts[0]
            removed = d - v3
            back = (np.dot(removed, v1) / np.dot(v1, v1)) * v1
            back += (np.dot(removed, v2) / np.dot(v2, v2)) * v2
            assert np.allclose(removed, back, atol=1e-8 * np.linalg.norm(d))


class TestAngleDeg:
    def test_orthogonal_axes(self):
        assert angle_deg([1, 0, 0], [0, 1, 0]) == pytest.approx(90.0, abs=1e-12)

    def test_parallel(self):
        assert angle_deg([1, 0, 0], [2, 0, 0]) == pytest.approx(0.0, abs=1e-6)

    def test_known_oblique_angle(self):
        # cos(theta) = 2.5 / (5 * sqrt(0.27)), about 15.79 degrees
        expected = math.degrees(math.acos(2.5 / (5.0 * math.sqrt(0.27))))
        got = angle_deg([0, 0, 5], [0.1, 0.1, 0.5])
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(15.79, abs=0.005)

    def test_symmetry_and_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u, v = rng.normal(size=(2, 4))
            assert angle_deg(u, v) == pytest.approx(angle_deg(v, u), abs=1e-12)
            assert angle_deg(u, 2.5 * u) == pytest.approx(0.0, abs=1e-5)
            assert angle_deg(u, -0.7 * u) == pytest.approx(180.0, abs=1e-5)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            angle_deg([0, 0], [1, 0])


class TestSymmetricEigenTop:
    def test_diagonal(self):
        eig = symmetric_eigen_top(np.diag([3.0, 1.0]), 1)
        assert eig.values == pytest.approx([3.0])
        assert np.allclose(np.abs(eig.vectors[:, 0]), [1, 0], atol=1e-12)

    def test_centered_gram_of_two_points(self):
        # hand decomposition of [[0.25,-0.25],[-0.25,0.25]]: eigenvalues 0.5 and 0
        eig = symmetric_eigen_top([[0.25, -0.25], [-0.25, 0.25]], 2)
        assert eig.values == pytest.approx([0.5, 0.0], abs=1e-15)

    def test_degenerate_spectrum(self):
        eig = symmetric_eigen_top(np.eye(4), 2)
        assert eig.values == pytest.approx([1.0, 1.0])
        assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(2), atol=1e-10)

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetricError):
            symmetric_eigen_top([[1.0, 2.0], [1.0, 1.0]], 1)

    def test_reconstruction_and_residuals(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=(10, 10))
            a = (a + a.T) / 2
            eig = symmetric_eigen_top(a, 10)
            recon = (eig.vectors * eig.values) @ eig.vectors.T
            assert np.max(np.abs(recon - a)) <= 1e-8
            norm_a = np.linalg.norm(a)
            for j in range(10):
                res = a @ eig.vectors[:, j] - eig.values[j] * eig.vectors[:, j]
                assert np.linalg.norm(res) <= 1e-8 * norm_a

    def test_deterministic_and_sign_canonical(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2
        e1 = symmetric_eigen_top(a, 6)
        e2 = symmetric_eigen_top(a.copy(), 6)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)
        for j in range(6):
            col = e1.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_descending_order(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(8, 8))
        a = (a + a.T) / 2
        eig = symmetric_eigen_top(a, 8)
        assert np.all(np.diff(eig.values) <= 0)


class TestPearsonR:
    def test_identical(self):
        assert pearson_r([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversed(self):
        assert pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_positive_scaling(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceError):
            pearson_r([1, 2, 3], [5, 5, 5])

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = rng.normal(size=(2, 20))
            r = pearson_r(a, b)
            for alpha, beta in ((2.0, 1.0), (-3.0, 0.5), (0.1, -7.0)):
                assert pearson_r(a, alpha * b + beta) == pytest.approx(math.copysign(1, alpha) * r, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson_r([1, 2], [1, 2, 3])
