"""Artifact tables: the on-disk formats that pipeline stages share.

An artifact is a UTF-8 text file with one record per line and fields
joined by a single delimiter (tab or comma), optionally preceded by a
header line, or numpy arrays (no pickled objects) for data too large to
pass as text: one array in a ``.npy`` file, or one CSR matrix, after any
further named 1-D arrays, in one uncompressed ``.npz`` archive whose
arrays each start at a multiple of ALIGN bytes, read as read-only views of
a read-only map of the file. Writers stream to ``<file>.tmp`` and rename
it over the target, so a killed or failed write leaves the previous file
intact. Text readers skip blank lines, require every row to have as many
fields as the first, and report every malformed row as a DataError naming
``path:line``; the array readers report a missing, truncated or
unreadable file, a missing, compressed or damaged archive member, a dtype,
ndim or length other than the caller expects, or a broken CSR structure,
as a DataError naming the path.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import struct
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np
from scipy import sparse

from .errors import DataError

T = TypeVar("T")
# entries a CSR check reads at a time: bounds its temporaries at about 2 MB whatever the archive's size
# (checks over whole arrays raised the matrix stage's peak by 3 MB on 150k tweets)
CHECK_BLOCK = 1 << 16
# byte boundary each member of a write_csr archive starts on; a .npy header pads the array to the same
ALIGN = 64
# a local-header extra field that pads a member to ALIGN: header id, data size, ALIGN, then zeros
# (the id and layout Android's zipalign uses; zip readers skip a field they do not know)
_ALIGN_FIELD = struct.Struct("<HHH")
_ALIGN_FIELD_ID = 0xD935
# bytes of a local file header ahead of its name, and of the zip64 extra field zipfile adds after ours
_LOCAL_HEADER_BYTES, _ZIP64_FIELD_BYTES = 30, 20
# lines of a text table formatted and written at a time: keeps each block's text under the 128 KiB
# above which malloc maps memory of its own (4096-line blocks, when tables were also read in such
# blocks, raised the loadings stage's peak by about 1.3 MB)
LINE_BLOCK = 1024
# bytes of a member read to parse its .npy header: np.load's own limit on a header is 10,000 bytes
_NPY_HEADER_BYTES = 1 << 14
_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}


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


def write_blocks(path: str | Path, blocks: Iterable[str], header: str | None = None) -> None:
    """Atomically replace ``path`` with ``header`` (if given) and ``blocks``, each a run of whole lines, written at once."""
    with _replacing(path) as handle:
        if header is not None:
            handle.write(f"{header}\n")
        for block in blocks:
            handle.write(block)


def write_lines(path: str | Path, lines: Iterable[str], header: str | None = None) -> None:
    """Atomically replace ``path`` with ``header`` (if given) and ``lines``, one per line."""
    write_blocks(path, (f"{line}\n" for line in lines), header)


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
    Each member holds the bytes ``np.save`` writes, written from the array's own memory rather than copied
    first. Its local header carries an extra field of padding, so that the member starts at a multiple of
    ALIGN bytes into the file; its ``.npy`` header pads to ALIGN as well, so every array does too, and so
    does its view in a map of the file. ``np.load`` reads the archive as it reads one ``np.savez`` writes.
    """
    if not matrix.has_canonical_format or np.count_nonzero(matrix.data) < matrix.nnz:
        matrix = matrix.copy()
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
    shape = np.array(matrix.shape, dtype="<i8")
    indptr, indices = matrix.indptr.astype("<i8", copy=False), matrix.indices.astype("<i4", copy=False)
    members = {**arrays, "shape": shape, "indptr": indptr, "indices": indices, "data": matrix.data}
    # np.savez would copy each array in 16 MiB chunks on its way into the archive
    with _replacing(path, binary=True) as handle, zipfile.ZipFile(handle, "w", allowZip64=True) as archive:
        for name, array in members.items():
            array = np.ascontiguousarray(array)
            info = zipfile.ZipInfo(f"{name}.npy")
            header = _LOCAL_HEADER_BYTES + len(info.filename.encode()) + _ALIGN_FIELD.size + _ZIP64_FIELD_BYTES
            padding = -(handle.tell() + header) % ALIGN
            info.extra = _ALIGN_FIELD.pack(_ALIGN_FIELD_ID, 2 + padding, ALIGN) + bytes(padding)
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(array))
                member.write(memoryview(array).cast("B"))


def _map_members(path: str | Path, names: Collection[str]) -> dict[str, np.ndarray]:
    """The ``<name>.npy`` members of the zip archive at ``path``, as read-only views of one read-only map of it.

    Only the archive's central directory is read as a file; each member's bytes are checked against the
    CRC-32 the directory records, as zipfile checks them, and its ``.npy`` header is parsed without pickling.
    An array whose bytes are not aligned for its dtype, which an archive write_csr did not write can hold, is
    copied instead. A member that is compressed, and so cannot be mapped, is a DataError naming the path,
    and so is one that holds Python objects.
    """
    with open(path, "rb") as handle:
        if handle.read(len(np.lib.format.MAGIC_PREFIX)) == np.lib.format.MAGIC_PREFIX:
            raise DataError(f"{path}: expected a .npz archive, found a .npy array")
        with zipfile.ZipFile(handle) as archive:
            members = {info.filename: info for info in archive.infolist()}
        missing = sorted(name for name in names if f"{name}.npy" not in members)
        if missing:
            raise DataError(f"{path}: archive lacks the arrays {missing}")
        whole = memoryview(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ))
    arrays = {}
    for name in names:
        info = members[f"{name}.npy"]
        if info.compress_type != zipfile.ZIP_STORED:
            raise DataError(f"{path}: array {name!r} is compressed; only stored arrays can be mapped")
        if whole[info.header_offset:info.header_offset + 4] != b"PK\x03\x04":
            raise DataError(f"{path}: array {name!r} has no local file header")
        name_length, extra_length = struct.unpack_from("<2H", whole, info.header_offset + 26)
        start = info.header_offset + _LOCAL_HEADER_BYTES + name_length + extra_length
        member = whole[start:start + info.compress_size]
        if len(member) != info.compress_size or zlib.crc32(member) != info.CRC:
            raise DataError(f"{path}: array {name!r} fails its CRC-32 check")
        header = io.BytesIO(member[:_NPY_HEADER_BYTES])
        version = np.lib.format.read_magic(header)
        if version not in _NPY_HEADER_READERS:
            raise DataError(f"{path}: array {name!r} has .npy format version {version}")
        shape, fortran_order, dtype = _NPY_HEADER_READERS[version](header)
        if dtype.hasobject:
            raise DataError(f"{path}: array {name!r} holds Python objects")
        count = math.prod(shape)
        if header.tell() + count * dtype.itemsize > len(member):
            raise DataError(f"{path}: array {name!r} is shorter than its header says")
        array = np.frombuffer(member, dtype=dtype, count=count, offset=header.tell())
        array = array.reshape(shape, order="F" if fortran_order else "C")
        arrays[name] = array if array.flags.aligned else array.copy()
    return arrays


def _blocks(array: np.ndarray, overlap: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """``array`` in consecutive slices of CHECK_BLOCK entries, each with the ``overlap`` entries before it, and
    the position of each slice's first entry."""
    for start in range(0, len(array), CHECK_BLOCK):
        first = max(start - overlap, 0)
        yield first, array[first:start + CHECK_BLOCK]


def read_csr(
    path: str | Path, data_dtype: str, extra_dtypes: Mapping[str, str]
) -> tuple[sparse.csr_matrix, dict[str, np.ndarray]]:
    """The matrix of a write_csr archive and its 1-D arrays named in ``extra_dtypes``.

    The archive is mapped read-only, and every array returned, the matrix's included, is a read-only view
    of the map, so a page of it is read from the file only when touched. In a write_csr archive each array
    starts at a multiple of ALIGN bytes; an array of another archive that is not aligned for its dtype is
    copied, so that scipy's sparse kernels never read through a misaligned pointer.

    A dtype is a dtype (``"<f8"``) or a dtype kind (``"u"``: any unsigned integer). An unreadable archive, a
    missing, compressed or damaged (CRC-32) array, another dtype or ndim, a shape that is not two lengths, an
    indptr that does not split the entries into its rows, an index outside its columns, indices out of
    strictly increasing order within a row, or a zero or non-finite value is a DataError naming the path.
    The checks read the arrays CHECK_BLOCK entries at a time, so their temporaries do not grow with the
    archive.
    """
    dtypes = {**extra_dtypes, "shape": "<i8", "indptr": "<i8", "indices": "<i4", "data": data_dtype}
    try:
        arrays = _map_members(path, dtypes)
    except (OSError, ValueError, EOFError, struct.error, zipfile.BadZipFile) as exc:
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
        len(indptr) != n_rows + 1 or indptr[0] != 0 or indptr[-1] != len(indices) or len(data) != len(indices)
        or any((block[1:] < block[:-1]).any() for _, block in _blocks(indptr, 1))
    ):
        raise DataError(f"{path}: indptr does not split {len(indices)} entries into {n_rows} rows")
    if any(block.min() < 0 or block.max() >= n_cols for _, block in _blocks(indices)):
        raise DataError(f"{path}: index outside the {n_cols} columns")
    for first, block in _blocks(indices, 1):
        # an index may fail to exceed the one before it only where a row starts
        falls = np.flatnonzero(block[1:] <= block[:-1]) + first + 1
        if (indptr[np.searchsorted(indptr, falls)] != falls).any():
            raise DataError(f"{path}: indices not strictly increasing within a row")
    if not all(np.isfinite(block).all() for _, block in _blocks(data)):
        raise DataError(f"{path}: non-finite value")
    if any(np.count_nonzero(block) < len(block) for _, block in _blocks(data)):
        raise DataError(f"{path}: zero value")
    return sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols)), arrays


def read_rows(
    path: str | Path, parse: Callable[[list[str]], T] = list, *,
    sep: str = "\t", ncols: int | None = None, header: str | None = None,
) -> Iterator[T]:
    """Yield ``parse(fields)`` for each non-blank line of a table.

    A missing or unreadable file, text that is not UTF-8, a first line
    other than ``header``, a row whose field count differs from ``ncols``
    (default: the first row's), or a ValueError raised by ``parse`` becomes
    a DataError that names the path, and the line number where there is one.
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        try:
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
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc


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
