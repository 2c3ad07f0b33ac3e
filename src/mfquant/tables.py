"""Artifact tables: the on-disk formats that pipeline stages share.

An artifact is a UTF-8 text file with one record per line and fields
joined by a single delimiter (tab or comma), optionally preceded by a
header line, or numpy arrays (no pickled objects) for data too large to
pass as text: one array in a ``.npy`` file, or one CSR matrix, after any
further named 1-D arrays, in one uncompressed ``.npz`` archive. Writers
stream to ``<file>.tmp`` and rename it over the target, so a killed or
failed write leaves the previous file intact. Text readers skip blank
lines, require every row to have as many fields as the first, and report
every malformed row as a DataError naming ``path:line``; the array
readers report a missing, truncated or unreadable file, a missing archive
member, a dtype, ndim or length other than the caller expects, or a
broken CSR structure, as a DataError naming the path.
"""

from __future__ import annotations

import math
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np
from scipy import sparse

from .errors import DataError

T = TypeVar("T")


@contextmanager
def _replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Handle on ``<path>.tmp``, renamed over ``path`` on success and removed on any failure."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") if binary else tmp.open("w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: Iterable[str], header: str | None = None) -> None:
    """Atomically replace ``path`` with ``header`` (if given) and ``lines``, one per line."""
    with _replacing(path) as handle:
        if header is not None:
            handle.write(f"{header}\n")
        for line in lines:
            handle.write(f"{line}\n")


def write_array(path: str | Path, array: np.ndarray) -> None:
    """Atomically replace ``path`` with ``array`` in ``.npy`` format (no pickled objects)."""
    with _replacing(path, binary=True) as handle:
        np.save(handle, array, allow_pickle=False)


def read_array(path: str | Path, dtype: np.dtype, shape: tuple[int | None, ...] = (None,)) -> np.ndarray:
    """The ``dtype`` array of ``shape`` in a write_array file; anything else is a DataError naming the path.

    ``shape`` gives the expected length of each axis, None for any length.
    """
    try:
        with open(path, "rb") as handle:
            array = np.load(handle, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"{path}: cannot read array: {exc}") from exc
    expected = " x ".join("*" if n is None else str(n) for n in shape)
    if not isinstance(array, np.ndarray):
        raise DataError(f"{path}: expected a {expected} {np.dtype(dtype)} array, found a .npz archive")
    if array.dtype != dtype or array.ndim != len(shape) or any(
        n is not None and found != n for found, n in zip(array.shape, shape)
    ):
        found = " x ".join(map(str, array.shape)) or "scalar"
        raise DataError(f"{path}: expected a {expected} {np.dtype(dtype)} array, found a {found} {array.dtype} array")
    return array


def write_csr(path: str | Path, matrix: sparse.csr_matrix, **arrays: np.ndarray) -> None:
    """Atomically replace ``path`` with an uncompressed ``.npz`` archive of the 1-D ``arrays``, then ``matrix``.

    The matrix is stored in canonical form, with sorted indices and no duplicates or zeros (``matrix`` itself
    is left as it is), as ``shape`` and ``indptr`` (``<i8``), ``indices`` (``<i4``) and ``data`` in its dtype.
    """
    if not matrix.has_canonical_format or np.count_nonzero(matrix.data) < matrix.nnz:
        matrix = matrix.copy()
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
    shape = np.array(matrix.shape, dtype="<i8")
    indptr, indices = matrix.indptr.astype("<i8", copy=False), matrix.indices.astype("<i4", copy=False)
    with _replacing(path, binary=True) as handle:
        np.savez(handle, allow_pickle=False, **arrays, shape=shape, indptr=indptr, indices=indices, data=matrix.data)


def read_csr(
    path: str | Path, data_dtype: str, extra_dtypes: Mapping[str, str]
) -> tuple[sparse.csr_matrix, dict[str, np.ndarray]]:
    """The matrix of a write_csr archive and its 1-D arrays named in ``extra_dtypes``.

    A dtype is a dtype (``"<f8"``) or a dtype kind (``"u"``: any unsigned integer). An unreadable
    archive, a missing array, another dtype or ndim, a shape that is not two lengths, an indptr that
    does not split the entries into its rows, an index outside its columns, indices out of strictly
    increasing order within a row, or a zero or non-finite value is a DataError naming the path.
    """
    dtypes = {**extra_dtypes, "shape": "<i8", "indptr": "<i8", "indices": "<i4", "data": data_dtype}
    try:
        with open(path, "rb") as handle:
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise DataError(f"{path}: expected a .npz archive, found a .npy array")
            missing = sorted(set(dtypes) - set(archive.files))
            if missing:
                raise DataError(f"{path}: archive lacks the arrays {missing}")
            arrays = {name: archive[name] for name in dtypes}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: cannot read archive: {exc}") from exc
    for name, expected in dtypes.items():
        array = arrays[name]
        kind_ok = array.dtype.kind == expected if len(expected) == 1 else array.dtype == np.dtype(expected)
        if array.ndim != 1 or not kind_ok:
            raise DataError(f"{path}: array {name!r} is {array.ndim}-D {array.dtype}, expected 1-D {expected}")
    shape, indptr, indices, data = (arrays.pop(name) for name in ("shape", "indptr", "indices", "data"))
    if len(shape) != 2 or (shape < 0).any():
        raise DataError(f"{path}: shape {shape.tolist()} is not two lengths")
    n_rows, n_cols = shape.tolist()
    if (
        len(indptr) != n_rows + 1 or indptr[0] != 0 or indptr[-1] != len(indices)
        or len(data) != len(indices) or (np.diff(indptr) < 0).any()
    ):
        raise DataError(f"{path}: indptr does not split {len(indices)} entries into {n_rows} rows")
    if ((indices < 0) | (indices >= n_cols)).any():
        raise DataError(f"{path}: index outside the {n_cols} columns")
    # an index may fail to exceed the one before it only where a row starts
    if not np.isin(np.flatnonzero(np.diff(indices) <= 0) + 1, indptr).all():
        raise DataError(f"{path}: indices not strictly increasing within a row")
    if not np.isfinite(data).all():
        raise DataError(f"{path}: non-finite value")
    if np.count_nonzero(data) < len(data):
        raise DataError(f"{path}: zero value")
    return sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols)), arrays


def read_rows(
    path: str | Path, parse: Callable[[list[str]], T] = list, *,
    sep: str = "\t", ncols: int | None = None, header: str | None = None,
) -> Iterator[T]:
    """Yield ``parse(fields)`` for each non-blank line of a table.

    A missing or unreadable file, a first line other than ``header``, a
    row whose field count differs from ``ncols`` (default: the first
    row's), or a ValueError raised by ``parse`` becomes a DataError that
    names the path and line number.
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        if header is not None and handle.readline().rstrip("\n") != header:
            raise DataError(f"{path}:1: expected header {header!r}")
        for lineno, line in enumerate(handle, start=1 if header is None else 2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(sep)
            ncols = ncols or len(fields)
            if len(fields) != ncols:
                raise DataError(f"{path}:{lineno}: expected {ncols} fields, got {len(fields)}")
            try:
                row = parse(fields)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            yield row


def write_vectors(path: str | Path, labels: Sequence[str], vectors: Iterable[np.ndarray]) -> None:
    """TSV of labeled vectors: label followed by its values at 9 significant digits."""
    write_lines(path, (
        label + "\t" + "\t".join(f"{x:.9g}" for x in vector)
        for label, vector in zip(labels, vectors)
    ))


def read_vectors(path: str | Path, parse_label: Callable[[str], T] = str) -> tuple[list[T], np.ndarray]:
    """Labels (each through ``parse_label``) and the (rows x k) matrix, all finite, of a write_vectors file."""

    def parse(fields: list[str]) -> tuple[T, list[float]]:
        if len(fields) < 2:
            raise ValueError("expected a label plus a vector")
        values = [float(x) for x in fields[1:]]
        if not all(map(math.isfinite, values)):
            raise ValueError("non-finite value")
        return parse_label(fields[0]), values

    rows = list(read_rows(path, parse))
    if not rows:
        return [], np.zeros((0, 0), dtype=np.float64)
    return [label for label, _ in rows], np.array([v for _, v in rows], dtype=np.float64)
