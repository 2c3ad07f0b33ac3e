"""Moral-foundation dictionary: loading, wildcard matching, coverage.

Entries are (pattern, foundation, polarity) rows in a TSV file. A
trailing '*' marks a stem pattern that matches itself and any extension
by prefix; all other patterns match exactly. MoralityGeneral entries are
loaded but sit outside the five foundations used for context vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

from . import tables
from .errors import LexiconError

logger = logging.getLogger(__name__)

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


class MFDictionary:
    """Immutable foundation dictionary with wildcard-stem matching."""

    def __init__(self, entries: Iterable[MFEntry]):
        self.entries: tuple[MFEntry, ...] = tuple(entries)
        self._exact: dict[tuple[str, str], set[str]] = {}
        self._stems: dict[str, list[MFEntry]] = {VIRTUE: [], VICE: []}
        for entry in self.entries:
            if entry.is_stem:
                self._stems[entry.polarity].append(entry)
            else:
                key = (entry.pattern, entry.polarity)
                self._exact.setdefault(key, set()).add(entry.foundation)

    @property
    def vice_count(self) -> int:
        """Number of vice entries across the five foundations."""
        return sum(e.polarity == VICE and e.foundation in FOUNDATIONS for e in self.entries)

    def match_word(self, word: str, polarity: str = VICE) -> set[str]:
        """Foundations whose entries of ``polarity`` match ``word``.

        Exact patterns must equal the word; stem patterns match when the
        word starts with the stem. Returns an empty set on no match.
        """
        matched = set(self._exact.get((word, polarity), ()))
        for entry in self._stems[polarity]:
            if word.startswith(entry.stem):
                matched.add(entry.foundation)
        return matched


@dataclass
class EntryCoverage:
    entry: MFEntry
    matched_words: list[str]
    frequencies: list[int]


@dataclass
class CoverageResult:
    fraction: float
    entries: list[EntryCoverage]

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
    entries are not part of the five-foundation coverage.
    """
    freqs: Mapping[str, int] = vocabulary if isinstance(vocabulary, Mapping) else {}
    words = sorted(vocabulary)
    relevant = [
        e
        for e in dictionary.entries
        if e.polarity == polarity and e.foundation in FOUNDATIONS
    ]
    if not relevant:
        raise LexiconError(f"dictionary has no {polarity} entries; coverage undefined")
    results: list[EntryCoverage] = []
    for entry in relevant:
        if entry.is_stem:
            matched = [w for w in words if w.startswith(entry.stem)]
        else:
            matched = [w for w in words if w == entry.pattern]
        results.append(EntryCoverage(entry, matched, [freqs.get(w, 0) for w in matched]))
    matched_count = sum(1 for r in results if r.matched_words)
    return CoverageResult(fraction=matched_count / len(relevant), entries=results)


def write_coverage_report(result: CoverageResult, path: str | Path) -> None:
    """Emit per-entry coverage as TSV: foundation, pattern, matched words, frequencies."""
    rows = (
        f"{item.entry.foundation}\t{item.entry.pattern}\t{' '.join(item.matched_words)}"
        f"\t{' '.join(str(f) for f in item.frequencies)}"
        for item in result.entries
    )
    footer = f"# coverage_fraction\t{result.fraction!r}"
    tables.write_lines(path, chain(rows, [footer]), header="foundation\tpattern\tmatched_words\tfrequencies")
