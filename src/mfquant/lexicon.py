"""Moral-foundation dictionary: loading, wildcard matching, coverage.

Entries are (pattern, foundation, polarity) rows in a TSV file. One rule,
``match_matrix``, matches them: over the sorted words, a stem (trailing
'*') matches the range of words it prefixes, itself included, and an exact
pattern matches by equality. Every use of the dictionary reads the
ALL_FOUNDATIONS x words 0/1 matrix that ``foundation_matrix`` folds those
matches into: the foundation vectors, ``match_word``, the synthetic plan's
anchor check and the vice report. MoralityGeneral, its last row, is in no
five-foundation product.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from importlib import resources
from itertools import chain, pairwise
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from . import tables
from .errors import LexiconError

FOUNDATIONS = ("Care", "Fairness", "Ingroup", "Authority", "Purity")
MORALITY_GENERAL = "MoralityGeneral"
ALL_FOUNDATIONS = FOUNDATIONS + (MORALITY_GENERAL,)
POLARITIES = ("virtue", "vice")

VIRTUE = "virtue"
VICE = "vice"


@dataclass(frozen=True)
class MFEntry:
    pattern: str
    foundation: str
    polarity: str

    @property
    def is_stem(self) -> bool:
        return self.pattern.endswith("*")

    @property
    def stem(self) -> str:
        """Pattern with the trailing '*' removed (the pattern itself if exact)."""
        return self.pattern[:-1] if self.is_stem else self.pattern


def match_matrix(entries: Sequence[MFEntry], words: Sequence[str]) -> sparse.csr_matrix:
    """Entries x words 0/1 matrix, columns in ``words`` order: one sort, then one ``bisect`` range per entry."""
    order = sorted(range(len(words)), key=words.__getitem__)
    ordered = [words[i] for i in order]
    indptr, indices = [0], []
    for entry in entries:
        start = bisect_left(ordered, entry.stem)
        if entry.is_stem:
            stop = bisect_left(ordered, True, start, key=lambda w: not w.startswith(entry.stem))
        else:
            stop = bisect_right(ordered, entry.pattern, start)
        indices.extend(order[start:stop])
        indptr.append(len(indices))
    return sparse.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(entries), len(words)))


class MFDictionary:
    """Immutable foundation dictionary with wildcard-stem matching."""

    def __init__(self, entries: Iterable[MFEntry]):
        self.entries: tuple[MFEntry, ...] = tuple(entries)

    def select(self, polarity: str, foundations: Sequence[str] = FOUNDATIONS) -> list[MFEntry]:
        """Entries of ``polarity`` whose foundation is one of ``foundations``, in file order."""
        return [e for e in self.entries if e.polarity == polarity and e.foundation in foundations]

    @property
    def vice_count(self) -> int:
        """Number of vice entries across the five foundations."""
        return len(self.select(VICE))

    def match_word(self, word: str, polarity: str = VICE) -> set[str]:
        """Foundations whose entries of ``polarity`` match ``word``; empty on no match."""
        return {ALL_FOUNDATIONS[i] for i in foundation_matrix(self, [word], polarity).nonzero()[0]}


def foundation_matrix(dictionary: MFDictionary, words: Sequence[str], polarity: str = VICE) -> sparse.csr_matrix:
    """ALL_FOUNDATIONS x words 0/1 float64 matrix, columns in ``words`` order, with sorted indices.

    Row f marks the words that some ``polarity`` entry of foundation f
    matches: one-hot(entries) @ match_matrix(entries, words) > 0. Its
    first five rows are the five foundations; MoralityGeneral is the last.
    """
    entries = dictionary.select(polarity, ALL_FOUNDATIONS)
    rows = [ALL_FOUNDATIONS.index(e.foundation) for e in entries]
    onehot = sparse.csr_matrix(np.eye(len(ALL_FOUNDATIONS))[:, rows])  # foundations x entries
    matrix = (onehot @ match_matrix(entries, words) > 0).astype(np.float64)
    matrix.sort_indices()  # a product with it then sums each row's words in word order, reproducibly
    return matrix


def load_dictionary(path: str | Path) -> MFDictionary:
    """Parse a TSV dictionary (pattern, foundation, polarity); a leading byte-order mark is skipped. Malformed rows are fatal."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except OSError as exc:
        raise LexiconError(f"cannot read dictionary {path}: {exc}") from exc
    entries: list[MFEntry] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconError(f"{path}:{lineno}: expected 3 tab-separated fields")
        pattern, foundation, polarity = (f.strip() for f in fields)
        if not pattern:
            raise LexiconError(f"{path}:{lineno}: empty pattern")
        if "*" in pattern[:-1]:
            raise LexiconError(f"{path}:{lineno}: '*' is only allowed as the final character")
        if foundation not in ALL_FOUNDATIONS:
            raise LexiconError(f"{path}:{lineno}: unknown foundation {foundation!r}")
        if polarity not in POLARITIES:
            raise LexiconError(f"{path}:{lineno}: unknown polarity {polarity!r}")
        entries.append(MFEntry(pattern=pattern, foundation=foundation, polarity=polarity))
    return MFDictionary(entries)


def packaged_dictionary_path() -> Path:
    """Path of the dictionary TSV shipped with the package."""
    return Path(resources.files("mfquant").joinpath("data/moral_foundations.tsv"))


def load_packaged_dictionary() -> MFDictionary:
    return load_dictionary(packaged_dictionary_path())


def write_dictionary_report(
    dictionary: MFDictionary, frequencies: Mapping[str, int], coverage_path: str | Path, vice_path: str | Path
) -> None:
    """Write the five foundations' vice entries against the words of ``frequencies`` (word -> corpus count).

    coverage: per entry in file order, its matched words (sorted) and their
    counts, then the fraction of entries with a match. vice report: that
    fraction, then per matched word its foundations ('|'-joined by name) and
    count, by count descending, then word. MoralityGeneral takes no part.
    """
    entries = dictionary.select(VICE)
    if not entries:
        raise LexiconError("dictionary has no vice entries; coverage undefined")
    words = sorted(frequencies)
    counts = [str(int(frequencies[w])) for w in words]
    matches = match_matrix(entries, words)
    matched = [matches.indices[a:b].tolist() for a, b in pairwise(matches.indptr)]
    fraction = sum(map(bool, matched)) / len(entries)
    rows = (
        f"{e.foundation}\t{e.pattern}\t{' '.join(words[j] for j in m)}\t{' '.join(counts[j] for j in m)}"
        for e, m in zip(entries, matched)
    )
    footer = f"# coverage_fraction\t{fraction!r}"
    tables.write_lines(coverage_path, chain(rows, [footer]), header="foundation\tpattern\tmatched_words\tfrequencies")

    columns = foundation_matrix(dictionary, words)[: len(FOUNDATIONS)].tocsc()
    by_word = sorted(
        (-int(frequencies[w]), w, "|".join(sorted(FOUNDATIONS[i] for i in columns.indices[a:b])))
        for w, a, b in zip(words, columns.indptr, columns.indptr[1:]) if b > a
    )
    header = f"# vice_coverage\t{fraction!r}\nword\tfoundations\tfrequency"
    tables.write_lines(vice_path, (f"{w}\t{f}\t{-n}" for n, w, f in by_word), header=header)
