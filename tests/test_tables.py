import numpy as np
import pytest

from mfquant.tables import read_array, write_array, write_lines


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


def test_failed_write_array_keeps_previous_file(tmp_path):
    target = tmp_path / "array.npy"
    write_array(target, np.arange(3))
    before = target.read_bytes()
    with pytest.raises(ValueError, match="allow_pickle"):
        write_array(target, np.array([object()]))
    assert target.read_bytes() == before
    assert list(tmp_path.iterdir()) == [target]
    np.testing.assert_array_equal(read_array(target, np.arange(3).dtype), np.arange(3))
