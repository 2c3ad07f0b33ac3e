"""Numerical kernels: exact truncated SVD, row-wise cosine similarity, 2D PCA.

The SVD is exact: it takes the top-k eigenpairs of the Gram matrix on the
smaller side of the input (``A @ A.T``, 2000 x 2000, at the paper
defaults) and keeps only U_k and the singular values. A sparse input's
Gram matrix is formed one triangle at a time, in column blocks shared out
over every CPU the process may use, straight into the Fortran-order array
LAPACK works in; its bytes do not depend on the thread count. Each block
multiplies a tail of the rows built on the matrix's own arrays, since
scipy's ``(data, indices, indptr)`` constructor would copy a tail of less
than half of them; so a wide CSR A is held once while the Gram matrix
fills, and let go before the eigensolver. Each singular vector's sign is
fixed so that its largest-magnitude entry is positive, as in the PCA.
U_k is persisted as one binary array whose rows follow a word list kept
elsewhere. All kernels are pure.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy import sparse

from . import tables
from .errors import DataError
from .vectorizer import Vocabulary, WeightedMatrix

DEFAULT_OVERSAMPLE = 10
DEFAULT_POWER_ITERS = 4
# columns of the Gram matrix one sparse product forms: bounds that temporary at min(m, n) x 128
GRAM_BLOCK_COLS = 128


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


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_gram_columns(left: sparse.csr_matrix, gram: np.ndarray, starts) -> None:
    """Fill the column blocks of ``gram`` = ``left @ left.T`` that begin at ``starts``.

    Block ``[s, s+B)`` forms only rows ``s:`` (the lower triangle and the
    diagonal block) and mirrors them into rows ``s:s+B`` of the upper
    triangle. Blocks write disjoint parts of ``gram``. Only numpy and
    scipy are called here; scipy's sparse product releases the GIL, so
    threads running this in parallel use separate cores.

    Each tail ``left[s:]`` shares ``left``'s data and indices. It is an
    empty matrix given the views as attributes: the ``(data, indices,
    indptr)`` constructor ends in ``prune()``, which copies a view of
    less than half its base, so every tail past the middle row would be a
    copy of up to half of ``left``, one per thread.
    """
    size, width = left.shape
    data, indices, indptr = left.data, left.indices, left.indptr
    for start in starts:
        stop = min(start + GRAM_BLOCK_COLS, size)
        offset = indptr[start]
        tail = sparse.csr_matrix((size - start, width), dtype=data.dtype)
        tail.data, tail.indices, tail.indptr = data[offset:], indices[offset:], indptr[start:] - offset
        gram[start:, start:stop] = (tail @ left[start:stop].T).toarray()
        gram[start:stop, stop:] = gram[stop:, start:stop].T


def gram_matrix(matrix: sparse.spmatrix | np.ndarray) -> np.ndarray:
    """The smaller Gram matrix of A, ``A @ A.T`` if A has no more rows than columns, else ``A.T @ A``.

    Returned as a dense float64 array in Fortran order. A sparse A's
    product is formed GRAM_BLOCK_COLS columns at a time, lower triangle
    only, each block mirrored into the upper triangle. Each block reads
    its rows of the CSR form of A (of A.T when m > n) in place, not as a
    copy (see ``_fill_gram_columns``). The blocks are
    dealt round-robin to the calling thread and one helper thread per
    further CPU (``_available_cpus``), and all helpers have ended when this
    returns or raises; an exception in a helper is raised here. Each entry
    is the same products summed in the same order as in the whole sparse
    product, so for a CSR A with sorted indices (every matrix the pipeline
    builds) the result equals that product bit for bit, whatever the
    thread count.
    """
    m, n = matrix.shape
    left = matrix if m <= n else matrix.T
    if not sparse.issparse(left):
        return np.asarray(left @ left.T, dtype=np.float64, order="F")
    left = sparse.csr_matrix(left)
    size = left.shape[0]
    gram = np.empty((size, size), order="F")
    starts = range(0, size, GRAM_BLOCK_COLS)
    workers = max(1, min(_available_cpus(), len(starts)))
    errors: list[BaseException] = []

    def helper(share: range) -> None:
        try:
            _fill_gram_columns(left, gram, share)
        except BaseException as exc:
            errors.append(exc)

    started: list[threading.Thread] = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=helper, args=(starts[worker::workers],))
            thread.start()
            started.append(thread)
        _fill_gram_columns(left, gram, starts[::workers])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return gram


def truncated_svd(
    matrix: WeightedMatrix | sparse.spmatrix | np.ndarray,
    k: int,
    seed: int | None = None,
    oversample: int = DEFAULT_OVERSAMPLE,
    power_iters: int = DEFAULT_POWER_ITERS,
) -> SVDResult:
    """Exact top-k singular values and left singular vectors of a (possibly sparse) real m x n matrix A.

    One symmetric eigendecomposition of the smaller Gram matrix gives
    them: U and Sigma^2 from ``A @ A.T`` when m <= n; otherwise V and
    Sigma^2 from ``A.T @ A``, with U the Q factor of A V, so that its
    columns stay orthonormal where sigma is 0. Sigma is the square root
    of the eigenvalues clipped at 0, in descending order, and each column
    of U_k has its largest-magnitude entry made positive. When m <= n,
    the Gram matrix alone gives U, so this drops its references to A once
    that is formed; if the caller keeps none, A is freed before the
    eigensolver (from CPython 3.11, whose calls leave no reference to an
    argument on the caller's stack).

    ``seed``, ``oversample`` and ``power_iters`` are ignored; they remain
    only because callers still pass them. Deterministic for a fixed matrix
    and k on one platform/build and BLAS thread count; another BLAS thread
    count rounds differently in the eigensolver (about 1e-14). The number
    of threads ``gram_matrix`` runs on changes no bit. Raises ValueError
    for k out of range or non-finite entries.
    """
    mat = matrix.weights if isinstance(matrix, WeightedMatrix) else matrix
    m, n = mat.shape
    if k < 1 or k > min(m, n):
        raise ValueError(f"k={k} out of range for matrix of shape {m}x{n}")
    if not np.all(np.isfinite(mat.data if sparse.issparse(mat) else np.asarray(mat))):
        raise ValueError("matrix contains non-finite entries")

    gram = gram_matrix(mat)
    if m <= n:
        del matrix, mat
    size = len(gram)
    eigenvalues, vectors = scipy.linalg.eigh(
        gram, subset_by_index=[size - k, size - 1], driver="evr", overwrite_a=True
    )
    singular_values = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    vectors = vectors[:, ::-1]
    if m > n:
        vectors, _ = np.linalg.qr(mat @ vectors)
    pivots = vectors[np.abs(vectors).argmax(axis=0), np.arange(k)]
    u_k = np.ascontiguousarray(vectors * np.where(pivots < 0, -1.0, 1.0))
    return SVDResult(u_k=u_k, singular_values=singular_values)


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
    """Persist U_k as one 2-D float64 ``.npy`` array, one row per word of ``space.words``.

    The words are not stored with it; the caller keeps them in their own file.
    """
    tables.write_array(path, np.ascontiguousarray(space.vectors, dtype=np.float64))


def load_embedding(path: str | Path, words: tuple[str, ...]) -> EmbeddingSpace:
    """The save_embedding array at ``path`` as the vectors of ``words``, row i for words[i].

    An array of another ndim or dtype, a row count other than
    ``len(words)``, or a non-finite value is a DataError naming the path.
    """
    vectors = tables.read_array(path, np.dtype(np.float64), shape=(len(words), None))
    if not np.isfinite(vectors).all():
        raise DataError(f"{path}: non-finite value in the embedding")
    return EmbeddingSpace(words=Vocabulary(tuple(words)), vectors=vectors)


def save_pca(projection: PCAProjection, path: str | Path) -> None:
    """CSV: label, pc1, pc2."""
    rows = (f"{label},{pc1:.9g},{pc2:.9g}" for label, pc1, pc2 in projection.points)
    tables.write_lines(path, rows, header="label,pc1,pc2")
