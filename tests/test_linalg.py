import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import sparse

from mfquant import linalg
from mfquant.linalg import (
    EmbeddingSpace,
    cosine,
    gram_matrix,
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


def flat_spectrum_matrix(m, n, blocks, seed):
    """Random m x n matrix whose singular values fall by only 0.2% from one to the next.

    It is block diagonal in a random order of rows and columns, with ``blocks``
    dense blocks that share the spectrum out in turn, so blocks > 1 leaves all but
    1/blocks of the entries zero.
    """
    rng = np.random.default_rng(seed)
    spectrum = 1.002 ** -np.arange(min(m, n))
    out = np.zeros((m, n))
    row_sets = np.array_split(rng.permutation(m), blocks)
    col_sets = np.array_split(rng.permutation(n), blocks)
    for b, (rows, cols) in enumerate(zip(row_sets, col_sets)):
        rank = min(len(rows), len(cols))
        left, _ = np.linalg.qr(rng.standard_normal((len(rows), rank)))
        right, _ = np.linalg.qr(rng.standard_normal((len(cols), rank)))
        out[np.ix_(rows, cols)] = (left * spectrum[b::blocks]) @ right.T
    return out


class TestTruncatedSvd:
    def test_identity_spectrum(self):
        result = truncated_svd(np.eye(5), k=2)
        np.testing.assert_allclose(result.singular_values, [1.0, 1.0], atol=1e-12)

    def test_diagonal_spectrum(self):
        result = truncated_svd(np.diag([3.0, 2.0, 1.0]), k=2)
        np.testing.assert_allclose(result.singular_values, [3.0, 2.0], atol=1e-12)

    def test_rank50_matches_dense_oracle(self):
        matrix = planted_rank_matrix(200, 300, rank=50, seed=42)
        oracle = np.linalg.svd(matrix, compute_uv=False)
        result = truncated_svd(matrix, k=20)
        np.testing.assert_allclose(
            result.singular_values, oracle[:20], rtol=1e-6
        )

    def test_orthonormal_columns(self):
        matrix = planted_rank_matrix(120, 180, rank=40, seed=3)
        result = truncated_svd(matrix, k=15)
        gram = result.u_k.T @ result.u_k
        assert np.max(np.abs(gram - np.eye(15))) <= 1e-8

    def test_sparse_input(self):
        dense = planted_rank_matrix(60, 80, rank=10, seed=4)
        dense[np.abs(dense) < 0.02] = 0.0
        oracle = np.linalg.svd(dense, compute_uv=False)
        result = truncated_svd(sparse.csr_matrix(dense), k=5)
        np.testing.assert_allclose(result.singular_values, oracle[:5], rtol=1e-6)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(4), k=5)
        with pytest.raises(ValueError):
            truncated_svd(np.eye(4), k=0)

    def test_non_finite_rejected(self):
        bad = np.eye(4)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            truncated_svd(bad, k=2)

    def test_deterministic_for_fixed_matrix(self):
        matrix = planted_rank_matrix(50, 70, rank=20, seed=6)
        first = truncated_svd(matrix, k=8)
        second = truncated_svd(matrix, k=8)
        np.testing.assert_array_equal(first.u_k, second.u_k)
        np.testing.assert_array_equal(first.singular_values, second.singular_values)

    def test_singular_values_nonincreasing(self):
        matrix = planted_rank_matrix(80, 60, rank=30, seed=8)
        result = truncated_svd(matrix, k=10)
        assert (np.diff(result.singular_values) <= 1e-12).all()
        assert (result.singular_values >= 0).all()


    @pytest.mark.parametrize("m,n", [(60, 90), (90, 60)], ids=["wide", "tall"])
    @pytest.mark.parametrize("blocks", [1, 3], ids=["dense", "sparse"])
    def test_exact_on_flat_spectrum(self, m, n, blocks):
        """Singular values and the span of U_k match the dense SVD where sigma_k / sigma_k+1 is 1.002."""
        k = 20
        matrix = flat_spectrum_matrix(m, n, blocks, seed=m + blocks)
        u_oracle, s_oracle, _ = np.linalg.svd(matrix)
        assert 1.0 < s_oracle[k - 1] / s_oracle[k] < 1.003
        result = truncated_svd(matrix if blocks == 1 else sparse.csr_matrix(matrix), k=k)
        assert np.max(np.abs(result.singular_values - s_oracle[:k])) <= 1e-10 * s_oracle[0]
        cosines = np.linalg.svd(u_oracle[:, :k].T @ result.u_k, compute_uv=False)
        assert cosines.min() >= 1 - 1e-8
        pivots = result.u_k[np.abs(result.u_k).argmax(axis=0), np.arange(k)]
        assert (pivots > 0).all()

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps call arguments on the caller's stack")
    @pytest.mark.parametrize("m,n", [(300, 500), (500, 300)], ids=["wide", "tall"])
    def test_only_a_tall_matrix_outlives_the_gram_matrix(self, monkeypatch, m, n):
        """A wide A is the Gram matrix's only input, so truncated_svd lets it go before eigh, and then
        trims the C heap; a tall A is still needed for U = qr(A V), which comes out as when the caller
        keeps A."""
        matrix = sparse.random(m, n, density=0.05, format="csr", random_state=m)
        held = truncated_svd(matrix, k=10)
        eigh, alive, trimmed = linalg.scipy.linalg.eigh, [], []
        refs = [weakref.ref(a) for a in (matrix, matrix.data, matrix.indices)]

        def recording_eigh(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return eigh(*args, **kwargs)

        monkeypatch.setattr(linalg.scipy.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(linalg, "_malloc_trim", lambda pad: trimmed.append([ref() is not None for ref in refs]))
        only = [matrix]
        del matrix
        result = truncated_svd(only.pop(), k=10)
        assert alive == [[m > n] * 3]
        assert trimmed == ([] if m > n else [[False] * 3])
        np.testing.assert_array_equal(result.u_k, held.u_k)
        np.testing.assert_array_equal(result.singular_values, held.singular_values)

    @pytest.mark.parametrize("m,n", [(300, 500), (500, 300)], ids=["wide", "tall"])
    def test_lower_triangle_gives_the_eigenpairs_of_the_mirrored_gram_matrix(self, monkeypatch, m, n):
        """eigh reads only the lower triangle: the zero upper one changes no bit of U_k or sigma."""
        matrix = sparse.random(m, n, density=0.05, format="csr", random_state=m + 2 * n)
        lower_only = truncated_svd(matrix, k=12)
        gram = linalg.gram_matrix

        def mirrored_gram(a):
            lower = gram(a)
            full = np.asfortranarray(lower + np.tril(lower, -1).T)
            oracle = (a @ a.T if m <= n else a.T @ a).toarray()
            assert full.tobytes(order="F") == np.asfortranarray(oracle).tobytes(order="F")
            return full

        monkeypatch.setattr(linalg, "gram_matrix", mirrored_gram)
        full = truncated_svd(matrix, k=12)
        assert lower_only.u_k.tobytes() == full.u_k.tobytes()
        assert lower_only.singular_values.tobytes() == full.singular_values.tobytes()


def assert_lower_gram(gram, matrix):
    """``gram`` is a float64 Fortran array whose lower triangle, diagonal included, is the public sparse
    Gram product's bit for bit, and whose strict upper triangle is exactly zero."""
    m, n = matrix.shape
    oracle = (matrix @ matrix.T if m <= n else matrix.T @ matrix).toarray()
    assert gram.flags.f_contiguous and gram.dtype == np.float64 and gram.shape == oracle.shape
    assert np.tril(gram).tobytes() == np.tril(oracle).tobytes()
    assert not np.triu(gram, 1).any()


class TestGramMatrix:
    @pytest.mark.parametrize(
        "m,n",
        [(50, 700), (600, 900), (900, 300), (700, 50), (512, 512)],
        ids=["wide-under-one-block", "wide-partial-block", "tall-partial-block", "tall-under-one-block", "square"],
    )
    def test_blocked_gram_is_the_sparse_product_bit_for_bit(self, m, n):
        assert linalg.GRAM_BLOCK_COLS == 64  # the ids name block counts at this width
        matrix = sparse.random(m, n, density=0.05, format="csr", random_state=m + n)
        assert_lower_gram(gram_matrix(matrix), matrix)

    def test_int64_indices_are_read_in_place(self, monkeypatch):
        matrix = sparse.random(300, 500, density=0.05, format="csr", random_state=5)
        matrix.indices, matrix.indptr = matrix.indices.astype(np.int64), matrix.indptr.astype(np.int64)
        matmat, shared = linalg._sparsetools.csr_matmat, []

        def recording_matmat(*args):
            shared.append(np.shares_memory(args[3], matrix.indices) and np.shares_memory(args[4], matrix.data))
            return matmat(*args)

        monkeypatch.setattr(linalg._sparsetools, "csr_matmat", recording_matmat)
        assert_lower_gram(gram_matrix(matrix), matrix)
        assert shared and all(shared)

    @pytest.mark.parametrize("shape", [(0, 7), (7, 0), (0, 0)], ids=["no-rows", "no-columns", "empty"])
    def test_empty_side_gives_an_empty_gram_matrix(self, shape):
        gram = gram_matrix(sparse.csr_matrix(shape))
        assert gram.shape == (0, 0) and gram.dtype == np.float64 and gram.flags.f_contiguous

    def test_dense_input(self):
        matrix = planted_rank_matrix(30, 20, rank=5, seed=2)
        np.testing.assert_array_equal(gram_matrix(matrix), matrix.T @ matrix)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "m,n,blocks", [(60, 700, 1), (120, 700, 2), (900, 300, 5)], ids=["one-block", "two-blocks", "five-blocks"]
    )
    def test_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, m, n, blocks, cpus):
        matrix = sparse.random(m, n, density=0.05, format="csr", random_state=m * n)
        fill, threads = linalg._fill_gram_columns, set()

        def recording_fill(left, gram, starts):
            threads.add(threading.get_ident())
            fill(left, gram, starts)

        monkeypatch.setattr(linalg, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(linalg, "_fill_gram_columns", recording_fill)
        assert_lower_gram(gram_matrix(matrix), matrix)
        assert -(-min(m, n) // linalg.GRAM_BLOCK_COLS) == blocks
        assert len(threads) == min(cpus, blocks)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_every_tail_is_a_view_of_the_matrix(self, monkeypatch, cpus):
        """The numeric pass of each block reads its row tail from A's own data and indices."""
        matrix = sparse.random(600, 900, density=0.05, format="csr", random_state=9)
        matmat, tails = linalg._sparsetools.csr_matmat, []

        def recording_matmat(n_row, n_col, a_indptr, a_indices, a_data, *rest):
            shared = np.shares_memory(a_data, matrix.data) and np.shares_memory(a_indices, matrix.indices)
            tails.append((n_row, shared))
            return matmat(n_row, n_col, a_indptr, a_indices, a_data, *rest)

        monkeypatch.setattr(linalg, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(linalg._sparsetools, "csr_matmat", recording_matmat)
        assert_lower_gram(gram_matrix(matrix), matrix)
        starts = range(0, 600, linalg.GRAM_BLOCK_COLS)
        assert len(starts) >= 4
        assert sorted(tails) == sorted((600 - start, True) for start in starts)

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_block_exception_reaches_the_caller_after_every_helper_ends(self, monkeypatch, failing):
        fill, caller = linalg._fill_gram_columns, threading.get_ident()

        def failing_fill(left, gram, starts):
            if (threading.get_ident() == caller) == (failing == "caller"):
                raise RuntimeError(f"{failing} block failed")
            fill(left, gram, starts)

        monkeypatch.setattr(linalg, "_available_cpus", lambda: 3)
        monkeypatch.setattr(linalg, "_fill_gram_columns", failing_fill)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match=f"{failing} block failed"):
            gram_matrix(sparse.random(600, 900, density=0.05, format="csr", random_state=1))
        assert threading.enumerate() == before


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
        # a subnormal v times b can round to the zero vector, whose cosine is 0 by definition
        st.lists(st.floats(-100, 100, allow_subnormal=False), min_size=2, max_size=8),
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
    def test_roundtrip_exact(self, tmp_path, rng):
        space = EmbeddingSpace(
            words=Vocabulary(("alpha", "beta", "gamma")),
            vectors=rng.standard_normal((3, 7)),
        )
        save_embedding(space, tmp_path / "emb.npy")
        loaded = load_embedding(tmp_path / "emb.npy", space.words.words)
        assert loaded.words == space.words
        np.testing.assert_array_equal(loaded.vectors, space.vectors)
