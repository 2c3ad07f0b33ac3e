import pytest

from mfquant.tables import write_lines


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
