import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import sparse

from mfquant.linalg import (
    EmbeddingSpace,
    cosine,
    load_embedding,
    pca_2d,
    save_embedding,
    truncated_svd,
)
from mfquant.vectorizer import Vocabulary


def planted_rank_matrix(m, n, rank, seed, decay=0.8):
    """Random matrix of exact rank with a geometric singular spectrum."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    right, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    spectrum = decay ** np.arange(rank)
    return (left * spectrum) @ right.T


class TestTruncatedSvd:
    def test_identity_spectrum(self):
        result = truncated_svd(np.eye(5), k=2, seed=0)
        np.testing.assert_allclose(result.singular_values, [1.0, 1.0], atol=1e-12)

    def test_diagonal_spectrum(self):
        result = truncated_svd(np.diag([3.0, 2.0, 1.0]), k=2, seed=0)
        np.testing.assert_allclose(result.singular_values, [3.0, 2.0], atol=1e-12)

    def test_rank50_matches_dense_oracle(self):
        matrix = planted_rank_matrix(200, 300, rank=50, seed=42)
        oracle = np.linalg.svd(matrix, compute_uv=False)
        result = truncated_svd(matrix, k=20, seed=1)
        np.testing.assert_allclose(
            result.singular_values, oracle[:20], rtol=1e-6
        )

    def test_orthonormal_columns(self):
        matrix = planted_rank_matrix(120, 180, rank=40, seed=3)
        result = truncated_svd(matrix, k=15, seed=2)
        gram = result.u_k.T @ result.u_k
        assert np.max(np.abs(gram - np.eye(15))) <= 1e-8

    def test_sparse_input(self):
        dense = planted_rank_matrix(60, 80, rank=10, seed=4)
        dense[np.abs(dense) < 0.02] = 0.0
        oracle = np.linalg.svd(dense, compute_uv=False)
        result = truncated_svd(sparse.csr_matrix(dense), k=5, seed=5)
        np.testing.assert_allclose(result.singular_values, oracle[:5], rtol=1e-6)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(4), k=5, seed=0)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(4), k=0, seed=0)

    def test_non_finite_rejected(self):
        bad = np.eye(4)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            truncated_svd(bad, k=2, seed=0)

    def test_deterministic_for_fixed_seed(self):
        matrix = planted_rank_matrix(50, 70, rank=20, seed=6)
        first = truncated_svd(matrix, k=8, seed=77)
        second = truncated_svd(matrix, k=8, seed=77)
        np.testing.assert_array_equal(first.u_k, second.u_k)
        np.testing.assert_array_equal(first.singular_values, second.singular_values)

    def test_singular_values_nonincreasing(self):
        matrix = planted_rank_matrix(80, 60, rank=30, seed=8)
        result = truncated_svd(matrix, k=10, seed=9)
        assert (np.diff(result.singular_values) <= 1e-12).all()
        assert (result.singular_values >= 0).all()


class TestCosine:
    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            0.7071067811865475, abs=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    def test_zero_vector_gives_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_tiny_magnitudes_do_not_underflow(self):
        assert cosine(1e-170 * np.ones(3), np.ones(3)) == pytest.approx(1.0, abs=1e-12)
        assert cosine(np.array([1e-159, 1e-159]), np.array([3e-159, 3e-159])) <= 1.0

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=8),
        st.floats(0.1, 50),
        st.floats(0.1, 50),
    )
    @example(values=[1.0135419353247768e-159] * 2, a=1.0, b=3.0)
    def test_range_and_scale_invariance(self, values, a, b):
        u = np.array(values)
        v = u[::-1].copy()
        base = cosine(u, v)
        assert -1.0 - 1e-12 <= base <= 1.0 + 1e-12
        assert cosine(a * u, b * v) == pytest.approx(base, abs=1e-9)


class TestPca2d:
    def test_collinear_points_have_zero_pc2(self):
        direction = np.array([1.0, 2.0, 3.0, 4.0])
        data = np.outer([0.0, 1.0, 2.0, 5.0], direction)
        projection = pca_2d(data, list("abcd"))
        for _, _, pc2 in projection.points:
            assert abs(pc2) < 1e-10

    def test_symmetric_pair_sums_to_zero(self):
        x = np.array([1.0, -2.0, 0.5])
        data = np.stack([x, -x, np.zeros(3)])
        projection = pca_2d(data, list("abc"))
        pc1_sum = sum(p[1] for p in projection.points)
        pc2_sum = sum(p[2] for p in projection.points)
        assert pc1_sum == pytest.approx(0.0, abs=1e-12)
        assert pc2_sum == pytest.approx(0.0, abs=1e-12)

    def test_matches_covariance_eigensolver_oracle(self, rng):
        data = rng.standard_normal((10, 4))
        projection = pca_2d(data, [f"p{i}" for i in range(10)])
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (10 - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]
        components = eigvecs[:, :2].T.copy()
        for c in range(2):  # same sign convention as the implementation
            pivot = int(np.argmax(np.abs(components[c])))
            if components[c, pivot] < 0:
                components[c] = -components[c]
        oracle_scores = centered @ components.T
        got = np.array([[p[1], p[2]] for p in projection.points])
        np.testing.assert_allclose(got, oracle_scores, atol=1e-8)
        np.testing.assert_allclose(
            projection.explained_variance, eigvals[:2], atol=1e-8
        )

    def test_explained_variance_ordering(self, rng):
        data = rng.standard_normal((20, 5))
        projection = pca_2d(data, [str(i) for i in range(20)])
        ev = projection.explained_variance
        assert ev[0] >= ev[1] >= 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            pca_2d(np.ones((2, 3)), ["a", "b"])

    def test_zero_variance(self):
        with pytest.raises(ValueError):
            pca_2d(np.ones((4, 3)), list("abcd"))

    def test_sign_convention_deterministic(self, rng):
        data = rng.standard_normal((12, 6))
        first = pca_2d(data, [str(i) for i in range(12)])
        second = pca_2d(data.copy(), [str(i) for i in range(12)])
        assert first.points == second.points


class TestEmbeddingPersistence:
    def test_roundtrip_9_significant_digits(self, tmp_path, rng):
        space = EmbeddingSpace(
            words=Vocabulary(("alpha", "beta", "gamma")),
            vectors=rng.standard_normal((3, 7)),
        )
        save_embedding(space, tmp_path / "emb.tsv")
        loaded = load_embedding(tmp_path / "emb.tsv")
        assert loaded.words.words == space.words.words
        np.testing.assert_allclose(loaded.vectors, space.vectors, rtol=1e-8)
