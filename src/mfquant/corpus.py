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
tweets that repeat an earlier token sequence. A corpus of MIN_RANGE_BYTES
or more runs the loop over byte ranges at once, one per CPU, each ending
just after a line break: the calling process reads the first, a worker
forked for each further range reads that one into buffers of its own, and
the caller appends the workers' rows to its own in file order. There a
record whose id an earlier range saw is a duplicate id, and the line
numbers, warnings and counts are those of one pass over the file.
``load_records`` runs the same loop over the whole file to list the loaded
records uncleaned, and it and ``deduplicate`` are the same steps in list
form, for library callers and tests.
``write_tokenized`` and ``read_tokenized`` keep a token-level TSV, in token
order, for library users who want to inspect what cleaning kept.
"""

from __future__ import annotations

import io
import json
import logging
import os
import re
from array import array
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import compress, count
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

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
# bytes of a corpus per byte range: a smaller corpus is one range, read by the calling process alone
MIN_RANGE_BYTES = 1 << 20
# bytes of a later range's ids decoded at a time, when the caller checks them against the ids seen before
_ID_BLOCK_BYTES = 1 << 16


def read_corpus(path: str | Path, lang_filter: str | None, stats: IngestStats, cleaning: CleaningConfig) -> TokenRows:
    """Read line-delimited JSON records in file order, cleaning each loaded record as its line is read.

    This is the one loop from JSON line to token row. Each loaded record is
    cleaned by ``clean_and_tokenize`` (the module attribute, looked up once per
    byte range) through ``cleaning``, and appended as one row of the result.

    The file is read in ``min(CPUs, size // MIN_RANGE_BYTES)`` byte ranges,
    at least one, each but the last ending just after a newline. The calling
    process reads the first range while the workers it forks, one per
    further range, read the others; their rows, ids and counts are then
    appended to the caller's in file order, as if the caller had read the
    whole file. No worker outlives the call: a worker's exception is raised
    here, and a worker that dies raises ``BrokenProcessPool``. The workers
    are forked: read a large corpus while no other thread of the process runs.

    A UTF-8 byte-order mark at the start of the file is skipped. A line is
    decoded exactly as ``json.loads`` decodes it. Malformed lines (bytes
    that are not UTF-8, bad JSON, missing id/text, an id that is a boolean or
    contains a tab, comma, newline or lone surrogate) and duplicate ids are
    logged with their line number and skipped; records failing
    ``lang_filter`` are dropped silently. ``stats`` counts each outcome. An
    unreadable file raises CorpusError.
    """
    path = Path(path)
    first, *rest = _byte_ranges(path, tables._available_cpus())
    rows = _Rows(stats)
    with _range_workers(path, rest, lang_filter, cleaning) as futures:
        lines = _read_range(path, *first, lang_filter, cleaning, rows, partial(_log_warning, path))
        while futures:
            part = futures.pop(0).result()  # popped, so that no future holds the part once it is merged
            rows.merge(part, path, lines, last=not futures)
            lines += part.lines
            del part
    logger.info(
        "loaded %d records from %s (%d malformed, %d duplicate ids, %d filtered by lang)",
        stats.loaded, path, stats.malformed, stats.duplicate_ids, stats.lang_filtered,
    )
    rows.seen_ids = set()  # before the ids buffer is formed, which can then take the set's memory
    return TokenRows(
        rows.words, np.frombuffer(rows.values, dtype=np.intc), np.frombuffer(rows.ends, dtype=np.longlong),
        rows.ids.getvalue().encode("utf-8"),
    )


def load_records(
    path: str | Path, lang_filter: str | None = None
) -> tuple[list[TweetRecord], IngestStats]:
    """Every record ``read_corpus`` loads, uncleaned, as a list, and the IngestStats of reading them."""
    path, stats, records = Path(path), IngestStats(), []
    (whole,) = _byte_ranges(path, 1)
    _read_range(path, *whole, lang_filter, None, _Rows(stats), partial(_log_warning, path), records)
    return records, stats


@contextmanager
def _range_workers(
    path: Path, ranges: list[tuple[int, int]], lang_filter: str | None, cleaning: CleaningConfig
) -> Iterator[list[Future]]:
    """Futures of the parts that one forked worker per range reads (``_read_part``), once every worker has
    started; none is started for no range, and every one has exited when this exits."""
    if not ranges:
        yield []
        return
    # imported here: the 10 modules they load add 0.6 MB to every process that imports mfquant
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    started, signal = os.pipe()
    try:
        with ProcessPoolExecutor(len(ranges), mp_context=multiprocessing.get_context("fork")) as pool:
            # each worker cleans through a config of its own: the caller's word table grows while it is sent
            futures = [
                pool.submit(_read_part, signal, path, start, stop, lang_filter, replace(cleaning))
                for start, stop in ranges
            ]
            for future in futures:  # a range that fails before its worker starts on it signals too
                future.add_done_callback(lambda _: os.write(signal, b"\0"))
            # Wait, without the GIL, until each worker has started. The pool's threads need the GIL to hand
            # the ranges over, and the caller's read, which lets it go for a moment at each read of the file
            # and takes it straight back, would keep it from them for most of that read.
            for _ in ranges:
                os.read(started, 1)
            yield futures
    finally:  # after the pool's shutdown, which runs every callback first
        os.close(started)
        os.close(signal)


def _log_warning(path: Path, line: int, text: str) -> None:
    logger.warning("%s:%d: %s", path, line, text)


def _open_bytes(path: Path, buffering: int = -1) -> io.BufferedReader | io.FileIO:
    try:
        return open(path, "rb", buffering=buffering)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc


def _byte_ranges(path: Path, cpus: int) -> list[tuple[int, int]]:
    """(start, stop) of each of the ``min(cpus, size // MIN_RANGE_BYTES)`` byte ranges of ``path``, at least one,
    in file order; each but the last ends just after a newline, and none is empty unless the file is."""
    with _open_bytes(path) as handle:
        size = os.fstat(handle.fileno()).st_size
        parts = max(1, min(cpus, size // MIN_RANGE_BYTES))
        bounds = [0]
        for i in range(1, parts):
            handle.seek(max(size * i // parts, bounds[-1]))
            # on to just after the next newline, a bounded piece of a long line at a time
            while (piece := handle.readline(1 << 16)) and not piece.endswith(b"\n"):
                pass
            bounds.append(handle.tell())
    bounds.append(size)
    return [(start, stop) for start, stop in zip(bounds, bounds[1:]) if start < stop] or [(0, 0)]


class _ByteRange(io.RawIOBase):
    """The next ``length`` bytes of ``file``, which closing this closes."""

    def __init__(self, file: io.FileIO, length: int) -> None:
        super().__init__()
        self._file, self._left = file, length

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        read = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= read
        return read

    def close(self) -> None:
        self._file.close()
        super().close()


def _open_range(path: Path, start: int, stop: int) -> io.TextIOWrapper:
    """Bytes ``start`` up to ``stop`` of ``path``, streamed as text: UTF-8 (behind a skipped byte-order mark at
    offset 0 only), each byte that is not UTF-8 decoded to a lone surrogate, and universal newlines."""
    file = _open_bytes(path, buffering=0)
    file.seek(start)
    return io.TextIOWrapper(
        io.BufferedReader(_ByteRange(file, stop - start)),
        encoding="utf-8-sig" if start == 0 else "utf-8", errors="surrogateescape",
    )


class _Part(NamedTuple):
    """What a worker read from a later byte range (``_read_part``), for the caller to merge into its rows.

    Its line numbers count from the range's first line; ``ids`` holds its rows' ids as UTF-8 lines.
    """

    lines: int
    stats: IngestStats
    warnings: list[tuple[int, str]]
    words: dict[str, int]
    values: array
    ends: array
    ids: bytes
    row_lines: array
    filtered: list[tuple[int, str]]


class _Rows:
    """The buffers ``_read_range`` appends a range's records to, and the ids it has seen.

    Only a worker's range keeps ``row_lines``, the line of each row, and
    ``filtered``, the (line, id) of each record the language filter drops:
    the caller reads them to find the ids that an earlier range saw.
    """

    def __init__(self, stats: IngestStats, lines_kept: bool = False) -> None:
        self.stats = stats
        self.seen_ids: set[str] = set()
        self.words = _FirstSeenPositions()
        self.values, self.ends, self.ids = array("i"), array("q", [0]), io.StringIO()
        self.row_lines: array | None = array("i") if lines_kept else None
        self.filtered: list[tuple[int, str]] | None = [] if lines_kept else None

    def merge(self, part: _Part, path: Path, offset: int, last: bool) -> None:
        """Append a later range's rows after these, as if this range had read on to its ``offset``-th line and
        beyond; with ``last``, no range follows it, so its ids need not be kept to check later ones against.

        A record whose id an earlier range saw becomes a duplicate id: it is dropped and logged at its line,
        after the part's own warnings, in line order. Only the words of the rows kept join ``words``.
        """
        seen, stats, warnings = self.seen_ids, part.stats, part.warnings
        for line, rec_id in part.filtered:
            if rec_id in seen:
                stats.lang_filtered -= 1
                stats.duplicate_ids += 1
                warnings.append((line, f"skipping duplicate id {rec_id!r}"))
        if not last:
            seen.update(rec_id for _, rec_id in part.filtered)
        dropped, row, start = [], 0, 0
        while start < len(part.ids):
            stop = part.ids.find(b"\n", start + _ID_BLOCK_BYTES) + 1 or len(part.ids)
            block = part.ids[start:stop].decode("utf-8")
            ids = block.split("\n")[:-1]
            repeated = seen.intersection(ids)
            if repeated:
                for i, rec_id in enumerate(ids):
                    if rec_id in repeated:
                        dropped.append(row + i)
                        warnings.append((part.row_lines[row + i], f"skipping duplicate id {rec_id!r}"))
                block = "".join(f"{rec_id}\n" for rec_id in ids if rec_id not in repeated)
            if not last:
                seen.update(ids)
            self.ids.write(block)
            row, start = row + len(ids), stop
        stats.loaded -= len(dropped)
        stats.duplicate_ids += len(dropped)
        for field in fields(stats):
            setattr(self.stats, field.name, getattr(self.stats, field.name) + getattr(stats, field.name))
        for line, text in sorted(warnings):
            _log_warning(path, offset + line, text)

        values = np.frombuffer(part.values, dtype=np.intc)
        lengths = np.diff(np.frombuffer(part.ends, dtype=np.longlong))
        if dropped:
            keep = np.ones(len(lengths), dtype=bool)
            keep[dropped] = False
            values, lengths = values[np.repeat(keep, lengths)], lengths[keep]
        used = np.zeros(len(part.words), dtype=bool)
        used[values] = True
        words, kept_words = self.words, list(compress(part.words, used.tolist()))  # in the part's position order
        # the words new here take the next positions at once, rather than in one __missing__ call each
        words.update(zip([word for word in kept_words if word not in words], count(len(words))))
        remap = np.zeros(len(part.words), dtype=np.intc)  # the part's word positions -> these rows'
        remap[used] = np.fromiter(map(words.__getitem__, kept_words), dtype=np.intc, count=len(kept_words))
        np.take(remap, values, out=values, mode="clip")  # in place: each entry is read before it is written
        np.cumsum(lengths, out=lengths)
        lengths += len(self.values)
        self.values.frombytes(memoryview(values).cast("B"))
        self.ends.frombytes(memoryview(lengths).cast("B"))


def _read_part(
    started: int, path: Path, start: int, stop: int, lang_filter: str | None, cleaning: CleaningConfig
) -> _Part:
    """Read a later byte range of a corpus in a worker process, after writing a byte to the descriptor
    ``started``; it logs nothing, and returns its warnings."""
    os.write(started, b"\0")
    rows, warnings = _Rows(IngestStats(), lines_kept=True), []
    lines = _read_range(path, start, stop, lang_filter, cleaning, rows, lambda line, text: warnings.append((line, text)))
    return _Part(
        lines, rows.stats, warnings, rows.words, rows.values, rows.ends, rows.ids.getvalue().encode("utf-8"),
        rows.row_lines, rows.filtered,
    )


def _read_range(
    path: Path, start: int, stop: int, lang_filter: str | None, cleaning: CleaningConfig | None, rows: _Rows,
    warn: Callable[[int, str], None], records: list[TweetRecord] | None = None,
) -> int:
    """``read_corpus``'s loop over bytes ``start`` up to ``stop`` of ``path``, appending to ``rows`` and passing
    each warning's line number, counted from the range's first line, and text to ``warn``; returns the number
    of lines read, lone CR line breaks included. With ``records`` given, each loaded record is appended to it
    instead, uncleaned, and ``rows`` gets no row (``load_records``)."""
    clean = clean_and_tokenize
    stats, seen_ids, position = rows.stats, rows.seen_ids, rows.words.__getitem__
    flat, ends, id_lines, row_lines, filtered = rows.values, rows.ends, rows.ids, rows.row_lines, rows.filtered
    lineno = 0
    with _open_range(path, start, stop) as handle:
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
                warn(lineno, f"skipping malformed line ({exc})")
                continue
            if rec_id in seen_ids:
                stats.duplicate_ids += 1
                warn(lineno, f"skipping duplicate id {rec_id!r}")
                continue
            seen_ids.add(rec_id)
            lang = obj.get("lang")
            if lang_filter is not None and lang != lang_filter:
                stats.lang_filtered += 1
                if filtered is not None:
                    filtered.append((lineno, rec_id))
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
            if row_lines is not None:
                row_lines.append(lineno)
    return lineno


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
