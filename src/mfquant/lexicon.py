"""Moral-foundation dictionary: loading, wildcard matching, coverage.

Entries are (pattern, foundation, polarity) rows in a TSV file. One rule,
``match_matrix``, matches them: over the sorted words, a stem (trailing
'*') matches the range of words it prefixes, itself included, and an exact
pattern matches by equality. MoralityGeneral is in no five-foundation product.
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


def matched_foundations(entries: Sequence[MFEntry], matches: sparse.csr_matrix) -> list[set[str]]:
    """Per word (column) of ``entries``' match matrix, the foundations of the entries matching it."""
    columns = matches.tocsc()
    return [{entries[i].foundation for i in columns.indices[a:b]} for a, b in pairwise(columns.indptr)]


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

    def foundation_sets(self, words: Sequence[str], polarity: str = VICE) -> list[set[str]]:
        """Per word, the foundations (MoralityGeneral included) whose ``polarity`` entries match it."""
        entries = self.select(polarity, ALL_FOUNDATIONS)
        return matched_foundations(entries, match_matrix(entries, words))

    def match_word(self, word: str, polarity: str = VICE) -> set[str]:
        """Foundations whose entries of ``polarity`` match ``word``; empty on no match."""
        return self.foundation_sets([word], polarity)[0]


@dataclass
class EntryCoverage:
    entry: MFEntry
    matched_words: list[str]
    frequencies: list[int]


@dataclass
class CoverageResult:
    fraction: float
    entries: list[EntryCoverage]
    words: list[str]
    matches: sparse.csr_matrix

    @property
    def matched_count(self) -> int:
        return sum(1 for e in self.entries if e.matched_words)


def load_dictionary(path: str | Path) -> MFDictionary:
    """Parse a TSV dictionary (pattern, foundation, polarity). Malformed rows are fatal."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
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


def coverage(
    dictionary: MFDictionary,
    vocabulary: set[str] | Mapping[str, int],
    polarity: str = VICE,
) -> CoverageResult:
    """Fraction of five-foundation entries of ``polarity`` matched by the vocabulary.

    ``vocabulary`` may be a plain set of words or a word -> frequency
    mapping; with a mapping the per-entry matched-word frequencies are
    filled in (the data behind the frequency report). MoralityGeneral
    entries are not part of the five-foundation coverage. The result keeps
    the entries x ``words`` match matrix over the sorted vocabulary.
    """
    freqs: Mapping[str, int] = vocabulary if isinstance(vocabulary, Mapping) else {}
    relevant = dictionary.select(polarity)
    if not relevant:
        raise LexiconError(f"dictionary has no {polarity} entries; coverage undefined")
    words = sorted(vocabulary)
    matches = match_matrix(relevant, words)
    matched = [[words[j] for j in matches.indices[a:b]] for a, b in pairwise(matches.indptr)]
    results = [EntryCoverage(e, m, [freqs.get(w, 0) for w in m]) for e, m in zip(relevant, matched)]
    return CoverageResult(sum(map(bool, matched)) / len(relevant), results, words, matches)


def write_coverage_report(result: CoverageResult, path: str | Path) -> None:
    """Emit per-entry coverage as TSV: foundation, pattern, matched words, frequencies."""
    rows = (
        f"{item.entry.foundation}\t{item.entry.pattern}\t{' '.join(item.matched_words)}"
        f"\t{' '.join(str(f) for f in item.frequencies)}"
        for item in result.entries
    )
    footer = f"# coverage_fraction\t{result.fraction!r}"
    tables.write_lines(path, chain(rows, [footer]), header="foundation\tpattern\tmatched_words\tfrequencies")
