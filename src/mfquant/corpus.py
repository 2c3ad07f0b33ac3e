"""Corpus ingestion, cleaning, tokenization, and deduplication.

Records arrive as line-delimited JSON (one object per line with at least
``id`` and ``text``; retweets carry the original text under
``retweeted_status.text``). Cleaning applies, in order: effective-text
selection, whitespace chunking, dropping URL and screen-name chunks,
lowercasing, one code-point rule (delete '#', digits and apostrophes; keep
letters; blank the rest), whitespace splitting, and the minimum-length /
stopword / query-word filter. The code-point rule classifies each code
point on first use and maps a deleted one to None, which keeps an ASCII
text on ``str.translate``'s ASCII fast path.

The filter is a word table that each ``CleaningConfig`` carries: it maps
every stopword and query word to None, and each other word, on first
sight, to None if it is shorter than ``min_token_len`` and otherwise to
itself, so each kept occurrence of a word in the corpus shares one
object. The pipeline builds one config per corpus, which bounds the
table to that corpus's ingest.

Ingest reads each corpus in one loop (``read_corpus``): each line is
decoded, checked and cleaned as it is read, and its tokens' first-seen word
positions are appended to one flat buffer and its id to one text buffer
(``TokenRows``), so no stage holds a corpus's records, token lists or a
Python object per tweet; ``vectorizer.count_unique_tweets`` then drops the
tweets that repeat an earlier token sequence. ``load_records`` runs the
same loop to list the loaded records uncleaned, and it and ``deduplicate``
are the same steps in list form, for library callers and tests.
``write_tokenized`` and ``read_tokenized`` keep a token-level TSV, in token
order, for library users who want to inspect what cleaning kept.
"""

from __future__ import annotations

import io
import json
import logging
import re
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import tables
from .errors import CorpusError
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

_URL_MARKER = re.compile(r"https?://|www\.")
_APOSTROPHES = ("'", "’", "ʼ")
# field and line separators of the artifact tables that carry ids downstream
_ID_DELIMITER = re.compile(r"[\t,\n\r]")


# named tuples, not frozen dataclasses: ingest builds two per record, each in a third to a half of the
# time; like any tuple they compare equal to plain tuples, unpack, and take 8 bytes more each
class TweetRecord(NamedTuple):
    """One raw record. ``retweet_text`` is the original text of a retweet."""

    id: str
    text: str
    retweet_text: str | None = None
    lang: str | None = None

    @property
    def effective_text(self) -> str:
        """Text used downstream: the retweeted text when present."""
        return self.retweet_text if self.retweet_text is not None else self.text


class TokenizedTweet(NamedTuple):
    id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CleaningConfig:
    """Cleaning parameters. ``query_words`` are the corpus search terms to drop.

    Each instance also holds the word table ``clean_and_tokenize`` filters
    through, which applies the stopword, query-word and minimum-length
    filter; it is not a field, so equality, hashing and repr ignore it.
    """

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    query_words: frozenset[str] = frozenset()
    min_token_len: int = 3

    def __post_init__(self) -> None:
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")
        object.__setattr__(self, "_words", _WordTable(self.stopwords | self.query_words, self.min_token_len))


class _WordTable(dict):
    """Word -> the one str kept for it, or None for a dropped word.

    Starts with the ``dropped`` words; a word first looked up is dropped when
    shorter than ``min_len`` and kept otherwise.
    """

    def __init__(self, dropped: frozenset[str], min_len: int) -> None:
        super().__init__(dict.fromkeys(dropped))
        self.min_len = min_len

    def __missing__(self, word: str) -> str | None:
        self[word] = kept = word if len(word) >= self.min_len else None
        return kept


@dataclass
class IngestStats:
    """Bookkeeping from one read_corpus run."""

    loaded: int = 0
    malformed: int = 0
    lang_filtered: int = 0
    duplicate_ids: int = 0

    @property
    def skipped(self) -> int:
        return self.malformed + self.duplicate_ids


class _FirstSeenPositions(dict):
    """word -> its position in first-seen order, assigned when a word is first looked up."""

    def __missing__(self, word: str) -> int:
        self[word] = position = len(self)
        return position


@dataclass
class TokenRows:
    """The cleaned records of one corpus, one row each, in file order (``read_corpus``).

    Row r's tokens are the word positions ``values[bounds[r]:bounds[r + 1]]``,
    where ``words`` maps each word to its position in first-seen order and
    ``bounds`` starts at 0; ``values`` (C int) and ``bounds`` (int64) are
    writable views of the buffers the rows were appended to. Row r's id is
    the r-th newline-terminated line of the UTF-8 bytes ``ids``, the layout a
    ``vectorizer.TweetIds`` holds. ``vectorizer.count_unique_tweets`` consumes
    the rows: it renumbers ``values`` in place and takes ``words`` and ``ids``,
    leaving them empty, so that the word dict is freed once the renumbering is
    known and the ids once it has compacted them. The cleaning config's word
    table, which holds every word seen too, is the caller's to let go.
    """

    words: dict[str, int]
    values: np.ndarray
    bounds: np.ndarray
    ids: bytes


# what json.loads skips around a value: a form feed or an NBSP is not JSON whitespace
_JSON_SPACE = " \t\n\r"
# the C scanner behind json.loads, called without its three Python-level wrappers
_scan_json = json.JSONDecoder().scan_once
# a tuple's constructor: a named tuple's own __new__ is a Python function
_new_tuple = tuple.__new__


def read_corpus(path: str | Path, lang_filter: str | None, stats: IngestStats, cleaning: CleaningConfig) -> TokenRows:
    """Read line-delimited JSON records in file order, cleaning each loaded record as its line is read.

    This is the one loop from JSON line to token row. Each loaded record is
    cleaned by ``clean_and_tokenize`` (the module attribute, looked up once per
    call) through ``cleaning``, and appended as one row of the result.

    A UTF-8 byte-order mark at the start of the file is skipped. A line is
    decoded exactly as ``json.loads`` decodes it. Malformed lines (bytes
    that are not UTF-8, bad JSON, missing id/text, an id that is a boolean or
    contains a tab, comma, newline or lone surrogate) and duplicate ids are
    logged with their line number and skipped; records failing
    ``lang_filter`` are dropped silently. ``stats`` counts each outcome as it
    happens. An unreadable file raises CorpusError.
    """
    return _read_lines(path, lang_filter, stats, cleaning, None)


def _read_lines(
    path: str | Path, lang_filter: str | None, stats: IngestStats,
    cleaning: CleaningConfig | None, records: list[TweetRecord] | None,
) -> TokenRows:
    """``read_corpus``'s loop; with ``records`` given, each loaded record is appended to it instead,
    uncleaned, and the result has no rows (``load_records``)."""
    path = Path(path)
    clean = clean_and_tokenize
    seen_ids: set[str] = set()
    words = _FirstSeenPositions()
    position = words.__getitem__
    flat, ends, id_lines = array("i"), array("q", [0]), io.StringIO()
    try:
        handle = path.open("r", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")  # a byte that is not UTF-8 was decoded to a lone surrogate
                body = line.strip(_JSON_SPACE)
                try:
                    obj, end = _scan_json(body, 0)
                    if end != len(body):
                        raise ValueError("extra data")
                except (StopIteration, ValueError):
                    obj = json.loads(line)  # raises json's own error for the line
                if not isinstance(obj, dict):
                    raise ValueError("line is not an object")
                rec_id = obj.get("id")
                if type(rec_id) is int:  # not isinstance: a JSON true or false is a bool, which is an int
                    rec_id = str(rec_id)
                text = obj.get("text")
                if not isinstance(rec_id, str) or not rec_id:
                    raise ValueError("'id' is missing, empty, or neither a string nor an integer")
                if _ID_DELIMITER.search(rec_id):
                    raise ValueError(f"id {rec_id!r} contains a tab, comma or newline")
                if not rec_id.isascii():
                    rec_id.encode("utf-8")  # a lone surrogate (JSON "\ud800") cannot reach a UTF-8 artifact
                if not isinstance(text, str):
                    raise ValueError("missing 'text'")
            except ValueError as exc:  # a JSONDecodeError or UnicodeEncodeError too
                stats.malformed += 1
                logger.warning("%s:%d: skipping malformed line (%s)", path, lineno, exc)
                continue
            if rec_id in seen_ids:
                stats.duplicate_ids += 1
                logger.warning("%s:%d: skipping duplicate id %r", path, lineno, rec_id)
                continue
            seen_ids.add(rec_id)
            lang = obj.get("lang")
            if lang_filter is not None and lang != lang_filter:
                stats.lang_filtered += 1
                continue
            stats.loaded += 1
            retweeted = obj.get("retweeted_status")
            retweet_text = retweeted.get("text") if isinstance(retweeted, dict) else None
            record = _new_tuple(TweetRecord, (
                rec_id, text, retweet_text if isinstance(retweet_text, str) else None,
                lang if isinstance(lang, str) else None,
            ))
            if records is not None:
                records.append(record)
                continue
            flat.extend(map(position, clean(record, cleaning).tokens))
            ends.append(len(flat))
            id_lines.write(rec_id)
            id_lines.write("\n")
    logger.info(
        "loaded %d records from %s (%d malformed, %d duplicate ids, %d filtered by lang)",
        stats.loaded, path, stats.malformed, stats.duplicate_ids, stats.lang_filtered,
    )
    del seen_ids  # before the ids buffer is formed, which can then take the set's memory
    return TokenRows(
        words, np.frombuffer(flat, dtype=np.intc), np.frombuffer(ends, dtype=np.longlong),
        id_lines.getvalue().encode("utf-8"),
    )


def load_records(
    path: str | Path, lang_filter: str | None = None
) -> tuple[list[TweetRecord], IngestStats]:
    """Every record ``read_corpus`` loads, uncleaned, as a list, and the IngestStats of reading them."""
    stats, records = IngestStats(), []
    _read_lines(path, lang_filter, stats, None, records)
    return records, stats


class _CodePointRule(dict):
    """``str.translate`` table that classifies each code point on first use:
    '#', digits and apostrophes are deleted, letters kept, anything else becomes a space."""

    def __missing__(self, code: int) -> str | None:
        ch = chr(code)
        deleted = ch == "#" or ch.isdigit() or ch in _APOSTROPHES
        # None, not "": str.translate leaves its ASCII fast path at the first code point mapped to ""
        self[code] = None if deleted else ch if ch.isalpha() else " "
        return self[code]


_CODE_POINT_RULE = _CodePointRule()


def clean_and_tokenize(record: TweetRecord, config: CleaningConfig) -> TokenizedTweet:
    """Clean one record into a TokenizedTweet (empty output is valid).

    The text is lowercased first. Whitespace chunks containing a URL marker
    or starting with '@' are dropped wholesale. Apostrophes and digits are
    deleted in place, other punctuation splits tokens, and the stopword /
    query-word / min-length filter runs on the results.

    Pure in its results: equal inputs give equal outputs. Each kept token
    is the word's entry in ``config``'s word table, which this call extends
    with the words it sees first.
    """
    # lowercase before the letter filter: some uppercase letters lower to letter + combining mark,
    # which must not survive; lowering makes and removes no whitespace, and no final-sigma context
    # crosses it, so the chunks are the lowered chunks of the text
    text = record.effective_text.lower()
    # '@' and the URL markers hold no whitespace, so a text without them keeps every chunk,
    # and re-joining the chunks is moot: the code-point rule blanks all whitespace anyway
    url = ("://" in text or "www." in text) and _URL_MARKER.search(text)
    if url or "@" in text:
        text = " ".join([
            chunk for chunk in text.split() if not chunk.startswith("@") and not (url and _URL_MARKER.search(chunk))
        ])
    tokens = text.translate(_CODE_POINT_RULE).split()
    # None marks a dropped word
    return TokenizedTweet(record.id, tuple(filter(None, map(config._words.__getitem__, tokens))))


def deduplicate(corpus: list[TokenizedTweet]) -> tuple[list[TokenizedTweet], int]:
    """Keep the first tweet for each distinct token sequence.

    Returns (kept tweets in original order, number removed).
    """
    seen: set[tuple[str, ...]] = set()
    kept: list[TokenizedTweet] = []
    for tweet in corpus:
        if tweet.tokens in seen:
            continue
        seen.add(tweet.tokens)
        kept.append(tweet)
    removed = len(corpus) - len(kept)
    if removed:
        logger.info("deduplicate: removed %d duplicate tweets", removed)
    return kept, removed


def write_tokenized(corpus: list[TokenizedTweet], path: str | Path) -> None:
    """Persist a tokenized corpus as TSV: id<TAB>space-joined tokens, in token order."""
    tables.write_lines(path, (f"{tweet.id}\t{' '.join(tweet.tokens)}" for tweet in corpus))


def read_tokenized(path: str | Path) -> list[TokenizedTweet]:
    """Load a tokenized corpus written by write_tokenized."""
    return list(tables.read_rows(path, lambda f: TokenizedTweet(f[0], tuple(f[1].split())), ncols=2))
