import re
import zipfile

import numpy as np
import pytest
from scipy import sparse

from mfquant.errors import DataError
from mfquant.tables import read_array, read_csr, read_rows, write_array, write_csr, write_lines, write_npz


def test_failed_write_keeps_previous_file(tmp_path):
    target = tmp_path / "table.tsv"
    target.write_text("old\tbytes\n", encoding="utf-8")

    def lines():
        yield "new\trow"
        raise RuntimeError("stage crashed")

    with pytest.raises(RuntimeError, match="stage crashed"):
        write_lines(target, lines(), header="col\tcol")
    assert target.read_bytes() == b"old\tbytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_table_that_is_not_utf8_names_path(tmp_path):
    table = tmp_path / "table.tsv"
    table.write_bytes(b"a\t1\ncaf\xe9\t2\n")
    with pytest.raises(DataError, match=r"cannot read .*table\.tsv: 'utf-8' codec can't decode"):
        list(read_rows(table))


def test_failed_write_array_keeps_previous_file(tmp_path):
    target = tmp_path / "array.npy"
    write_array(target, np.arange(3))
    before = target.read_bytes()
    with pytest.raises(ValueError, match="allow_pickle"):
        write_array(target, np.array([object()]))
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]
    np.testing.assert_array_equal(read_array(target, np.arange(3).dtype), np.arange(3))


CSR_MATRICES = {
    "0x0": np.zeros((0, 0)),
    "3x0": np.zeros((3, 0)),
    "empty-rows": [[0, 0, 0], [2, 0, 7], [0, 0, 0], [0, 1, 0]],
    "non-empty": np.arange(1, 36).reshape(5, 7) % 4,
}


@pytest.mark.parametrize("dtype,data_dtype", [(np.uint8, "u"), (np.uint16, "u"), (np.float64, "<f8")])
@pytest.mark.parametrize("dense", CSR_MATRICES.values(), ids=CSR_MATRICES)
def test_csr_round_trip(tmp_path, dense, dtype, data_dtype):
    matrix = sparse.csr_matrix(np.asarray(dense, dtype=dtype))
    extra = np.frombuffer("wörds".encode("utf-8"), dtype=np.uint8)
    write_csr(tmp_path / "m.npz", matrix, extra=extra)
    with np.load(tmp_path / "m.npz") as archive:
        assert archive.files == ["extra", "shape", "indptr", "indices", "data"]
    loaded, arrays = read_csr(tmp_path / "m.npz", data_dtype, {"extra": "u1"})
    assert loaded.shape == matrix.shape and loaded.dtype == matrix.dtype
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(matrix, name))
    assert list(arrays) == ["extra"] and arrays["extra"].tobytes() == extra.tobytes()
    for array in (loaded.data, loaded.indices, arrays["extra"]):  # views of the map (scipy copies indptr)
        assert array.ctypes.data % 64 == 0


def test_misaligned_array_of_another_archive_is_read_as_an_aligned_copy(tmp_path):
    """np.savez stores each array wherever its member's headers end; read_csr copies one not aligned for its
    dtype."""
    target = tmp_path / "m.npz"
    matrix = sparse.csr_matrix(np.asarray(CSR_MATRICES["non-empty"], dtype=np.float64))
    shape = np.array(matrix.shape, dtype="<i8")
    np.savez(target, data=matrix.data, shape=shape, indptr=matrix.indptr.astype("<i8"), indices=matrix.indices)
    assert target.read_bytes().index(matrix.data.tobytes()) % 8  # the stored float64 values are misaligned
    loaded, _ = read_csr(target, "<f8", {})
    assert loaded.data.flags.aligned and loaded.indices.flags.aligned
    np.testing.assert_array_equal(loaded.toarray(), matrix.toarray())


def test_write_csr_stores_the_canonical_form_and_keeps_its_input(tmp_path):
    # row 0 holds column 2 twice and out of order, row 1 an explicit zero
    messy = sparse.csr_matrix(
        (np.array([1.5, 0.25, 2.0, 0.0, 0.5]), np.array([2, 0, 2, 0, 1]), np.array([0, 3, 4, 5])), shape=(3, 3)
    )
    before = [a.copy() for a in (messy.data, messy.indices, messy.indptr)]
    write_csr(tmp_path / "messy.npz", messy)
    write_csr(tmp_path / "canonical.npz", sparse.csr_matrix(messy.toarray()))
    assert (tmp_path / "messy.npz").read_bytes() == (tmp_path / "canonical.npz").read_bytes()
    for array, copy in zip((messy.data, messy.indices, messy.indptr), before):
        np.testing.assert_array_equal(array, copy)


def _replaced(name, value):
    return lambda arrays: {**arrays, name: np.asarray(value, dtype=arrays[name].dtype)}


# edits of the arrays of CSR_MATRICES["empty-rows"] as float64: shape [4, 3], indptr [0, 0, 2, 2, 3],
# indices [0, 2, 1], data [2, 7, 1]; and the start of the DataError each must raise after the path
CSR_CORRUPTIONS = {
    "missing-array": (lambda arrays: {k: v for k, v in arrays.items() if k != "indptr"}, r"archive lacks .*indptr"),
    "other-dtype": (lambda arrays: {**arrays, "data": arrays["data"].astype(np.float32)}, "array 'data' is .*float32"),
    "2-d-array": (lambda arrays: {**arrays, "indices": arrays["indices"][:, None]}, "array 'indices' is 2-D"),
    "extra-array-dtype": (lambda arrays: {**arrays, "extra": arrays["extra"].astype(np.int16)}, "array 'extra' is"),
    "three-lengths": (_replaced("shape", [4, 3, 1]), r"shape \[4, 3, 1\] is not two lengths"),
    "negative-length": (_replaced("shape", [-1, 3]), r"shape \[-1, 3\] is not two lengths"),
    "indptr-too-short": (_replaced("indptr", [0, 0, 2, 3]), "indptr does not split 3 entries into 4 rows"),
    "indptr-not-from-zero": (_replaced("indptr", [1, 1, 2, 2, 3]), "indptr does not split"),
    "indptr-short-of-entries": (_replaced("indptr", [0, 0, 2, 2, 2]), "indptr does not split"),
    "indptr-decreasing": (_replaced("indptr", [0, 2, 1, 2, 3]), "indptr does not split"),
    "data-too-short": (_replaced("data", [2, 7]), "indptr does not split"),
    "negative-index": (_replaced("indices", [0, 2, -1]), "index outside the 3 columns"),
    "index-past-columns": (_replaced("indices", [0, 3, 1]), "index outside the 3 columns"),
    "unsorted-row": (_replaced("indices", [2, 0, 1]), "indices not strictly increasing within a row"),
    "repeated-index": (_replaced("indices", [2, 2, 1]), "indices not strictly increasing within a row"),
    "nan": (_replaced("data", [2, np.nan, 1]), "non-finite value"),
    "inf": (_replaced("data", [2, 7, -np.inf]), "non-finite value"),
    "zero": (_replaced("data", [0, 7, 1]), "zero value"),
    "object-array": (lambda arrays: {**arrays, "data": arrays["data"].astype(object)}, "array 'data' holds Python"),
}


@pytest.mark.parametrize("corruption", CSR_CORRUPTIONS)
def test_corrupt_csr_names_path(tmp_path, corruption):
    target = tmp_path / "m.npz"
    matrix = sparse.csr_matrix(np.asarray(CSR_MATRICES["empty-rows"], dtype=np.float64))
    write_csr(target, matrix, extra=np.zeros(2, dtype=np.uint8))
    read_csr(target, "<f8", {"extra": "u1"})
    with np.load(target) as archive:
        arrays = dict(archive)
    edit, message = CSR_CORRUPTIONS[corruption]
    # in write_csr's member layout, so that the checks read views of the map, as on write_csr's archives;
    # an array of Python objects has no buffer to write from, and np.savez pickles it
    if corruption == "object-array":
        np.savez(target, **edit(arrays))
    else:
        write_npz(target, edit(arrays))
    with pytest.raises(DataError, match=f"^{re.escape(str(target))}: {message}"):
        read_csr(target, "<f8", {"extra": "u1"})


@pytest.mark.parametrize("damage", ["truncated", "npy-array", "missing"])
def test_unreadable_csr_names_path(tmp_path, damage):
    target = tmp_path / "m.npz"
    write_csr(target, sparse.csr_matrix(np.eye(3)))
    if damage == "truncated":
        target.write_bytes(target.read_bytes()[:-100])
    elif damage == "npy-array":
        with target.open("wb") as handle:
            np.save(handle, np.eye(3))
    else:
        target.unlink()
    with pytest.raises(DataError, match=f"^{re.escape(str(target))}: "):
        read_csr(target, "<f8", {})


def test_flipped_byte_inside_an_array_fails_its_crc(tmp_path):
    """A flipped low bit of a stored value leaves every CSR check passing; the member's CRC-32 catches it."""
    target = tmp_path / "m.npz"
    matrix = sparse.csr_matrix(np.asarray(CSR_MATRICES["non-empty"], dtype=np.float64))
    write_csr(target, matrix)
    raw = bytearray(target.read_bytes())
    raw[raw.rindex(matrix.data.tobytes()) + 8] ^= 0x01  # the lowest mantissa bit of the second value
    target.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=f"^{re.escape(str(target))}: array 'data' fails its CRC-32 check"):
        read_csr(target, "<f8", {})


def test_compressed_archive_names_path(tmp_path):
    target = tmp_path / "m.npz"
    write_csr(target, sparse.csr_matrix(np.asarray(CSR_MATRICES["empty-rows"], dtype=np.float64)))
    with np.load(target) as archive:
        arrays = dict(archive)
    np.savez_compressed(target, **arrays)
    with zipfile.ZipFile(target) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    with pytest.raises(DataError, match=f"^{re.escape(str(target))}: array 'shape' is compressed"):
        read_csr(target, "<f8", {})
