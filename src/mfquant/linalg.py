"""Numerical kernels: truncated randomized SVD, row-wise cosine similarity, 2D PCA.

The SVD uses a seeded Gaussian range finder with oversampling 10 and 4
power iterations (QR re-orthonormalized each half-step), keeping only
U_k and the singular values. All kernels are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import tables
from .errors import DataError
from .vectorizer import Vocabulary, WeightedMatrix

DEFAULT_OVERSAMPLE = 10
DEFAULT_POWER_ITERS = 4


@dataclass
class SVDResult:
    """Top-k left singular vectors and singular values (V discarded)."""

    u_k: np.ndarray
    singular_values: np.ndarray


@dataclass
class EmbeddingSpace:
    """Rank-k keyword vectors: one row of U_k per keyword."""

    words: Vocabulary
    vectors: np.ndarray

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    def vector(self, word: str) -> np.ndarray | None:
        i = self.words.index.get(word)
        return self.vectors[i] if i is not None else None


@dataclass
class PCAProjection:
    points: list[tuple[str, float, float]]
    explained_variance: tuple[float, float]


def truncated_svd(
    matrix: WeightedMatrix | sparse.spmatrix | np.ndarray,
    k: int,
    seed: int,
    oversample: int = DEFAULT_OVERSAMPLE,
    power_iters: int = DEFAULT_POWER_ITERS,
) -> SVDResult:
    """Randomized truncated SVD of a (possibly sparse) real matrix.

    Deterministic for fixed (matrix, k, seed) on one platform/build and
    BLAS thread count; another thread count rounds differently (about 1e-13).
    Raises ValueError for k out of range or non-finite entries.
    """
    if isinstance(matrix, WeightedMatrix):
        mat = matrix.weights
    else:
        mat = matrix
    m, n = mat.shape
    if k < 1 or k > min(m, n):
        raise ValueError(f"k={k} out of range for matrix of shape {m}x{n}")
    data = mat.data if sparse.issparse(mat) else np.asarray(mat)
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix contains non-finite entries")

    rng = np.random.default_rng(seed)
    n_probe = min(k + oversample, min(m, n))
    omega = rng.standard_normal((n, n_probe))
    q, _ = np.linalg.qr(mat @ omega)
    for _ in range(power_iters):
        z, _ = np.linalg.qr(mat.T @ q)
        q, _ = np.linalg.qr(mat @ z)
    b = np.ascontiguousarray((mat.T @ q).T)  # equals Q^T A
    u_b, s, _ = np.linalg.svd(b, full_matrices=False)
    return SVDResult(u_k=np.asarray(q @ u_b[:, :k]), singular_values=s[:k].copy())


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """2-D copy of ``matrix`` with each nonzero row scaled to unit L2 norm; zero rows stay zero."""
    rows = np.array(matrix, dtype=np.float64, ndmin=2)
    # dividing by the max-abs first keeps squared norms from underflowing or overflowing,
    # and leaves every nonzero row with norm >= 1
    max_abs = np.maximum(rows.max(axis=1, initial=0.0), -rows.min(axis=1, initial=0.0))
    rows /= np.where(max_abs > 0, max_abs, 1.0)[:, None]
    rows /= np.maximum(np.sqrt(np.einsum("ij,ij->i", rows, rows)), 1.0)[:, None]
    return rows


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """len(a) x len(b) cosines between the rows of ``a`` and ``b``, as one product.

    Values are clipped to [-1, 1]; a zero row has cosine 0 with everything.
    """
    return np.clip(_unit_rows(a) @ _unit_rows(b).T, -1.0, 1.0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u| |v|) of two vectors, by ``row_cosines``; a zero vector gives 0.0.

    Vectors of different lengths raise ValueError.
    """
    return float(row_cosines(u, v)[0, 0])


def pca_2d(points: np.ndarray, labels: list[str]) -> PCAProjection:
    """Project rows onto the top-2 principal components of the centered data.

    Sign convention: each component's largest-magnitude entry is made
    positive. Raises ValueError for fewer than 3 points, fewer than 2
    dimensions, or zero-variance data.
    """
    data = np.asarray(points, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != len(labels):
        raise ValueError("points must be a 2-D array with one label per row")
    m, dim = data.shape
    if m < 3:
        raise ValueError("PCA needs at least 3 points")
    if dim < 2:
        raise ValueError("PCA needs at least 2 dimensions")
    centered = data - data.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0:
        raise ValueError("zero-variance data; PCA undefined")
    pivots = vt[np.arange(2), np.abs(vt[:2]).argmax(axis=1)]
    components = vt[:2] * np.where(pivots < 0, -1.0, 1.0)[:, None]
    scores = centered @ components.T
    explained = (s[:2] ** 2) / (m - 1)
    return PCAProjection(
        points=[(label, float(scores[i, 0]), float(scores[i, 1])) for i, label in enumerate(labels)],
        explained_variance=(float(explained[0]), float(explained[1])),
    )


def save_embedding(space: EmbeddingSpace, path: str | Path) -> None:
    """Persist as TSV: word followed by k values at 9 significant digits."""
    tables.write_vectors(path, space.words.words, space.vectors)


def load_embedding(path: str | Path) -> EmbeddingSpace:
    words, vectors = tables.read_vectors(path)
    if not words:
        raise DataError(f"{path}: embedding file is empty")
    return EmbeddingSpace(words=Vocabulary(tuple(words)), vectors=vectors)


def save_pca(projection: PCAProjection, path: str | Path) -> None:
    """CSV: label, pc1, pc2."""
    rows = (f"{label},{pc1:.9g},{pc2:.9g}" for label, pc1, pc2 in projection.points)
    tables.write_lines(path, rows, header="label,pc1,pc2")
