"""Numerical kernels: truncated randomized SVD, cosine similarity, 2D PCA.

The SVD uses a seeded Gaussian range finder with oversampling 10 and 4
power iterations (QR re-orthonormalized each half-step), keeping only
U_k and the singular values. All kernels are pure.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import tables
from .errors import DataError
from .vectorizer import Vocabulary, WeightedMatrix

logger = logging.getLogger(__name__)

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

    Deterministic for fixed (matrix, k, seed) on one platform/build.
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


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u| |v|); zero-norm inputs give 0.0 (logged) rather than an error."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        logger.debug("cosine of zero-norm vector defined as 0")
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


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
    components = vt[:2].copy()
    for c in range(2):
        pivot = int(np.argmax(np.abs(components[c])))
        if components[c, pivot] < 0:
            components[c] = -components[c]
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
