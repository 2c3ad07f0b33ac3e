"""Numerical kernels: exact truncated SVD, row-wise cosine similarity, 2D PCA.

The SVD is exact: it takes the top-k eigenpairs of ``A @ A.T`` (2000 x
2000 at the paper defaults) for a CSR matrix A with no more rows than
columns, as the keyword x context PPMI matrix is (a taller A is refused),
and keeps only U_k and the singular values. Only the lower triangle of the Gram matrix, the part
the eigensolver reads, is formed, in column blocks shared out over every
CPU the process may use, straight into the Fortran-order array LAPACK
works in; its bytes do not depend on the thread count. Each block reads
A's own arrays in place. Where they view a read-only file map, as
``tables.read_csr`` returns them, the fill hands back the pages of the
rows it has passed, so A is not held whole while the Gram matrix fills;
it is let go before the eigensolver. Each singular vector's sign is fixed
so that its largest-magnitude entry is positive, as in the PCA. U_k is
persisted as one binary array whose rows follow a word list kept
elsewhere. All kernels are pure.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse import _sparsetools

from . import tables
from .errors import DataError
from .vectorizer import Vocabulary, WeightedMatrix

DEFAULT_OVERSAMPLE = 10
DEFAULT_POWER_ITERS = 4
# columns of the Gram matrix one numeric pass forms: bounds each worker's buffers at m x 64 entries
GRAM_BLOCK_COLS = 64

try:  # glibc's; other C libraries have no malloc_trim
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


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
    """Fill the lower triangle, diagonal included, of the column blocks of ``gram`` = ``left @ left.T`` at ``starts``.

    Block ``[s, s+B)`` is the product of the row tail ``left[s:]`` and
    ``left[s:s+B].T``, formed in one numeric pass: scipy's ``csr_matmat``
    writes it into CSR buffers sized for the densest block, and
    ``csr_todense`` spreads it over a dense buffer, whose entries on and
    below the diagonal are copied into ``gram``. These are the two kernels
    ``(tail @ left[s:s+B].T).toarray()`` runs, less the counting pass
    (``csr_matmat_maxnnz``) that sizes its output, so every entry is the
    same sum in the same order. The buffers hold rows x GRAM_BLOCK_COLS
    entries and are allocated once per call. Blocks write disjoint parts of
    ``gram`` and never an entry above its diagonal. Both kernels release
    the GIL, so threads running this in parallel use separate cores. They
    are scipy internals: the tests compare the result bit for bit with the
    public product, so a scipy release that changes them fails there.

    Each tail shares ``left``'s data and indices: they are passed to the
    kernel as views, with only the tail's row pointers rebased.
    """
    size = left.shape[0]
    data, indices, indptr = left.data, left.indices, left.indptr
    index_dtype = indices.dtype
    out_indptr = np.empty(size + 1, dtype=index_dtype)
    out_indices = np.empty(size * GRAM_BLOCK_COLS, dtype=index_dtype)
    out_data = np.empty(size * GRAM_BLOCK_COLS, dtype=data.dtype)
    dense = np.empty(size * GRAM_BLOCK_COLS, dtype=data.dtype)
    lower = np.tri(GRAM_BLOCK_COLS, dtype=bool)
    for start in starts:
        stop = min(start + GRAM_BLOCK_COLS, size)
        rows, cols = size - start, stop - start
        offset = indptr[start]
        right = left[start:stop].T.tocsr()
        _sparsetools.csr_matmat(
            rows, cols,
            (indptr[start:] - offset).astype(index_dtype, copy=False), indices[offset:], data[offset:],
            right.indptr.astype(index_dtype, copy=False), right.indices.astype(index_dtype, copy=False), right.data,
            out_indptr, out_indices, out_data,
        )
        block = dense[:rows * cols]
        block.fill(0.0)  # csr_todense adds each entry to what the buffer holds
        _sparsetools.csr_todense(rows, cols, out_indptr, out_indices, out_data, block)
        block = block.reshape(rows, cols)
        np.copyto(gram[start:stop, start:stop], block[:cols], where=lower[:cols, :cols])
        gram[stop:, start:stop] = block[cols:]


def _read_only_map(array: np.ndarray) -> mmap.mmap | None:
    """The memory map ``array`` is a read-only view of, as ``tables.read_csr`` returns its arrays, else None."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview) and base.readonly and isinstance(base.obj, mmap.mmap):
        return base.obj
    return None


def _page_releaser(arrays: list[np.ndarray]):
    """A function of ``n`` that hands back to the system every whole page of ``arrays`` holding only entries
    below ``n``, for arrays that view a read-only file map; a page read again is read back from the file."""
    spans = []
    for array in arrays:
        whole = _read_only_map(array)
        if whole is None:
            continue
        offset = array.ctypes.data - np.frombuffer(whole, dtype=np.uint8).ctypes.data
        spans.append([whole, offset, array.itemsize, -(-offset // mmap.PAGESIZE) * mmap.PAGESIZE])

    def release(n: int) -> None:
        for span in spans:
            whole, offset, itemsize, released = span
            stop = (offset + n * itemsize) // mmap.PAGESIZE * mmap.PAGESIZE
            if stop > released:
                whole.madvise(mmap.MADV_DONTNEED, released, stop - released)
                span[3] = stop

    return release


def gram_matrix(matrix: sparse.spmatrix | np.ndarray) -> np.ndarray:
    """The Gram matrix ``A @ A.T`` of the rows of A, formed from A's CSR form.

    It is m x m whatever A's shape, so a tall A gives the larger of its two
    Gram matrices (``truncated_svd`` refuses one). Returned as a float64
    array in Fortran order, of which only the lower triangle and diagonal,
    the part ``eigh`` reads, are formed; the strict upper triangle is zero.
    It lives in a fresh anonymous memory map, not a numpy allocation, which
    may be advised into huge pages, so the pages wholly above the diagonal
    are never touched and never become resident (8.5 of the 30.5 MiB at
    2000 x 2000). The product is formed GRAM_BLOCK_COLS columns at a time, one
    numeric pass per block, reading the rows of ``sparse.csr_matrix(A)`` in
    place, not as a copy (see ``_fill_gram_columns``). The blocks are dealt
    round-robin to the calling thread and one pool thread per further CPU
    (``_available_cpus``), and every pool thread has ended when this returns
    or raises; an exception in the calling thread is raised here, else the
    first one of a pool thread. Each entry is the same products summed in
    the same order as in the public sparse product ``A @ A.T``, so the lower
    triangle equals that product's bit for bit, whatever the thread count.

    Block ``[s, s+B)`` reads only rows ``s:``. So where the CSR form's data
    and indices are read-only views of a file map, as ``tables.read_csr``
    returns them, the whole pages of both that hold only rows below every
    worker's next block are handed back to the system as the fill passes
    them (``madvise(MADV_DONTNEED)``): A is not held whole while the Gram
    matrix fills. A stays intact for the caller, as a page read again is
    read back from the file.
    """
    left = sparse.csr_matrix(matrix)
    size = left.shape[0]
    # private, so that a read of a page never written (eigh's finiteness check reads every entry)
    # maps the shared zero page rather than a new one; a map of length 0 is refused
    buffer = mmap.mmap(-1, max(size * size * 8, 1), flags=mmap.MAP_PRIVATE)
    gram = np.ndarray((size, size), dtype=np.float64, buffer=buffer, order="F")
    starts = range(0, size, GRAM_BLOCK_COLS)
    workers = max(1, min(_available_cpus(), len(starts)))
    release, lock = _page_releaser([left.data, left.indices]), threading.Lock()
    pending = list(starts[:workers])  # the block each worker runs or runs next; size once it has none left

    def share(worker: int):
        """The starts of ``worker``'s blocks; asked for the next one, it marks the last one done."""
        for start in starts[worker::workers]:
            yield start
            with lock:
                pending[worker] = min(start + workers * GRAM_BLOCK_COLS, size)
                release(left.indptr[min(pending)])

    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(_fill_gram_columns, left, gram, share(w)) for w in range(1, workers)]
        _fill_gram_columns(left, gram, share(0))
    for helper in helpers:
        helper.result()
    return gram


def truncated_svd(
    matrix: WeightedMatrix | sparse.spmatrix | np.ndarray,
    k: int,
    seed: int | None = None,
    oversample: int = DEFAULT_OVERSAMPLE,
    power_iters: int = DEFAULT_POWER_ITERS,
) -> SVDResult:
    """Exact top-k singular values and left singular vectors of a real m x n matrix A, m <= n.

    A is taken in its CSR form, ``sparse.csr_matrix(A)``, so a dense A
    gives the same bytes as its CSR form. One symmetric eigendecomposition
    of ``A @ A.T`` gives U and Sigma^2. Sigma is the square root of the
    eigenvalues clipped at 0, in descending order, and each column of U_k
    has its largest-magnitude entry made positive. The Gram matrix alone
    gives U, so this drops its references to A once that is formed; if the
    caller keeps none, A is freed before the eigensolver (from CPython
    3.11, whose calls leave no reference to an argument on the caller's
    stack), and with glibc the heap's free pages are then handed back to
    the system. An A read by ``tables.read_csr`` views a read-only map of
    its archive, and ``gram_matrix`` hands back each of its rows once the
    fill has passed it, on any CPython, so such an A is not held whole
    while the Gram matrix fills; a row read again, as after this returns,
    is read back from the file.

    ``seed``, ``oversample`` and ``power_iters`` are ignored; they remain
    only because callers still pass them. Deterministic for a fixed matrix
    and k on one platform/build and BLAS thread count; another BLAS thread
    count rounds differently in the eigensolver (on the 2000 x 20000 PPMI
    matrix of 50k tweets, 1 against 2 threads moved entries of U_k by up
    to 1.48e-12). The number of threads ``gram_matrix`` runs on changes no
    bit, and nor does its zero upper triangle, which ``eigh`` never reads.
    Raises ValueError for a matrix with more rows than columns (naming its
    shape), k out of range or non-finite entries.
    """
    mat = sparse.csr_matrix(matrix.weights if isinstance(matrix, WeightedMatrix) else matrix)
    m, n = mat.shape
    if not 1 <= k <= m <= n:
        raise ValueError(f"k={k} out of range for matrix of shape {m}x{n}: need 1 <= k <= rows <= columns")
    if not np.all(np.isfinite(mat.data)):
        raise ValueError("matrix contains non-finite entries")

    gram = gram_matrix(mat)
    del matrix, mat
    # A's arrays sit in the C heap, and a small block that outlives them above them (which one
    # varies from run to run) can keep the heap from shrinking, so that their 15 MB stay resident
    # through eigh at the paper defaults (in about 1 of 20 one-process runs of every stage).
    # Trimming hands back every wholly free page.
    if _malloc_trim is not None:
        _malloc_trim(0)
    eigenvalues, vectors = scipy.linalg.eigh(gram, subset_by_index=[m - k, m - 1], driver="evr", overwrite_a=True)
    singular_values = np.sqrt(np.maximum(eigenvalues[::-1], 0.0))
    vectors = vectors[:, ::-1]
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
