import logging
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mfquant.lexicon import load_packaged_dictionary, write_dictionary_report

logging.getLogger("mfquant").setLevel(logging.WARNING)


@pytest.fixture(scope="session")
def packaged_dict():
    return load_packaged_dictionary()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class DictionaryReport(NamedTuple):
    coverage: list  # (foundation, pattern, matched words, their counts) per coverage.tsv row
    vice: list  # (word, foundations, count) per vice_report.tsv row
    fraction: str  # the coverage fraction as both files state it


def _spaced(field: str) -> list[str]:
    return field.split(" ") if field else []


def read_dictionary_report(dictionary, frequencies) -> DictionaryReport:
    """Both files of ``write_dictionary_report``, parsed after checking their header, footer and fraction lines."""
    with tempfile.TemporaryDirectory() as tmp:
        coverage_path, vice_path = Path(tmp, "coverage.tsv"), Path(tmp, "vice_report.tsv")
        write_dictionary_report(dictionary, frequencies, coverage_path, vice_path)
        header, *coverage_rows, footer = coverage_path.read_text(encoding="utf-8").splitlines()
        vice_header, column_names, *vice_rows = vice_path.read_text(encoding="utf-8").splitlines()
    label, fraction = footer.split("\t")
    assert (header, label) == ("foundation\tpattern\tmatched_words\tfrequencies", "# coverage_fraction")
    assert (vice_header, column_names) == (f"# vice_coverage\t{fraction}", "word\tfoundations\tfrequency")
    coverage = [
        (foundation, pattern, _spaced(words), [int(n) for n in _spaced(counts)])
        for foundation, pattern, words, counts in (row.split("\t") for row in coverage_rows)
    ]
    vice = [(word, tuple(names.split("|")), int(n)) for word, names, n in (row.split("\t") for row in vice_rows)]
    return DictionaryReport(coverage, vice, fraction)


@pytest.fixture(scope="session")
def dictionary_report():
    """``read_dictionary_report``; session-scoped, so that hypothesis tests may take it."""
    return read_dictionary_report
