"""Artifact tables: the on-disk formats that pipeline stages share.

An artifact is a UTF-8 text file with one record per line and fields
joined by a single delimiter (tab or comma), optionally preceded by a
header line, or numpy arrays (no pickled objects) for data too large to
pass as text: one array in a ``.npy`` file, or several named 1-D arrays
in one uncompressed ``.npz`` archive. Writers stream to ``<file>.tmp``
and rename it over the target, so a killed or failed write leaves the
previous file intact. Text readers skip blank lines, require every row to
have as many fields as the first, and report every malformed row as a
DataError naming ``path:line``; the array readers report a missing,
truncated or unreadable file, a missing archive member, or a dtype, ndim
or length other than the caller expects, as a DataError naming the path.
"""

from __future__ import annotations

import os
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

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


def write_arrays(path: str | Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Atomically replace ``path`` with an uncompressed ``.npz`` archive of the named ``arrays``."""
    with _replacing(path, binary=True) as handle:
        np.savez(handle, allow_pickle=False, **arrays)


def read_arrays(path: str | Path, dtypes: Mapping[str, str]) -> dict[str, np.ndarray]:
    """The 1-D arrays that ``dtypes`` names in a write_arrays archive; anything else is a DataError naming the path.

    Each value of ``dtypes`` is a dtype (``"<i4"``) or a one-letter dtype kind (``"u"``: any unsigned integer).
    """
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
    return arrays


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
    """Labels (each through ``parse_label``) and the (rows x k) matrix of a write_vectors file."""

    def parse(fields: list[str]) -> tuple[T, list[float]]:
        if len(fields) < 2:
            raise ValueError("expected a label plus a vector")
        return parse_label(fields[0]), [float(x) for x in fields[1:]]

    rows = list(read_rows(path, parse))
    if not rows:
        return [], np.zeros((0, 0), dtype=np.float64)
    return [label for label, _ in rows], np.array([v for _, v in rows], dtype=np.float64)
