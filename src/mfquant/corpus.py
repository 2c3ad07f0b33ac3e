"""Corpus ingestion, cleaning, tokenization, and deduplication.

Records arrive as line-delimited JSON (one object per line with at least
``id`` and ``text``; retweets carry the original text under
``retweeted_status.text``). Cleaning applies, in order: effective-text
selection, URL removal, screen-name removal, hashtag-symbol stripping,
special-character and digit removal, lowercasing, whitespace splitting,
and the stopword / query-word / minimum-length filter.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from . import tables
from .errors import CorpusError
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

_URL_MARKERS = ("http://", "https://", "www.")
_APOSTROPHES = ("'", "’", "ʼ")
# field and line separators of the artifact tables that carry ids downstream
_ID_DELIMITERS = ("\t", ",", "\n", "\r")


@dataclass(frozen=True)
class TweetRecord:
    """One raw record. ``retweet_text`` is the original text of a retweet."""

    id: str
    text: str
    retweet_text: str | None = None
    lang: str | None = None

    @property
    def effective_text(self) -> str:
        """Text used downstream: the retweeted text when present."""
        return self.retweet_text if self.retweet_text is not None else self.text


@dataclass(frozen=True)
class TokenizedTweet:
    id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CleaningConfig:
    """Cleaning parameters. ``query_words`` are the corpus search terms to drop."""

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    query_words: frozenset[str] = frozenset()
    min_token_len: int = 3
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")


@dataclass
class IngestStats:
    """Bookkeeping from one load_records run."""

    total_lines: int = 0
    loaded: int = 0
    malformed: int = 0
    lang_filtered: int = 0
    duplicate_ids: int = 0
    skipped: int = field(init=False, default=0)

    def finish(self) -> None:
        self.skipped = self.malformed + self.duplicate_ids


def _parse_line(obj: dict) -> TweetRecord:
    rec_id = obj.get("id")
    if isinstance(rec_id, int):
        rec_id = str(rec_id)
    text = obj.get("text")
    if not isinstance(rec_id, str) or not rec_id:
        raise ValueError("missing or empty 'id'")
    if any(ch in rec_id for ch in _ID_DELIMITERS):
        raise ValueError(f"id {rec_id!r} contains a tab, comma or newline")
    if not isinstance(text, str):
        raise ValueError("missing 'text'")
    retweet_text = None
    retweeted = obj.get("retweeted_status")
    if isinstance(retweeted, dict):
        rt = retweeted.get("text")
        if isinstance(rt, str):
            retweet_text = rt
    lang = obj.get("lang")
    if lang is not None and not isinstance(lang, str):
        lang = None
    return TweetRecord(id=rec_id, text=text, retweet_text=retweet_text, lang=lang)


def load_records(
    path: str | Path, lang_filter: str | None = None
) -> tuple[list[TweetRecord], IngestStats]:
    """Read line-delimited JSON records in file order.

    Malformed lines (bad JSON, missing id/text, an id containing a tab,
    comma or newline) and duplicate ids are logged with their line number
    and skipped; records failing ``lang_filter`` are dropped silently. An unreadable file raises CorpusError.
    """
    path = Path(path)
    stats = IngestStats()
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            stats.total_lines += 1
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not an object")
                record = _parse_line(obj)
            except (json.JSONDecodeError, ValueError) as exc:
                stats.malformed += 1
                logger.warning("%s:%d: skipping malformed line (%s)", path, lineno, exc)
                continue
            if record.id in seen_ids:
                stats.duplicate_ids += 1
                logger.warning("%s:%d: skipping duplicate id %r", path, lineno, record.id)
                continue
            seen_ids.add(record.id)
            if lang_filter is not None and record.lang != lang_filter:
                stats.lang_filtered += 1
                continue
            records.append(record)
            stats.loaded += 1
    stats.finish()
    logger.info(
        "loaded %d records from %s (%d malformed, %d duplicate ids, %d filtered by lang)",
        stats.loaded, path, stats.malformed, stats.duplicate_ids, stats.lang_filtered,
    )
    return records, stats


def _clean_chunk(chunk: str) -> str:
    """Strip '#', delete digits/apostrophes in place, blank other non-letters."""
    out: list[str] = []
    for ch in chunk:
        if ch == "#" or ch.isdigit() or ch in _APOSTROPHES:
            continue
        if ch.isalpha():
            out.append(ch)
        else:
            out.append(" ")
    return "".join(out)


def clean_and_tokenize(record: TweetRecord, config: CleaningConfig) -> TokenizedTweet:
    """Clean one record into a TokenizedTweet (pure; empty output is valid).

    Whitespace chunks containing a URL marker or starting with '@' are
    dropped wholesale. Apostrophes and digits are deleted in place, other
    punctuation splits tokens, and the stopword / query-word /
    min-length filter runs on the lowercased results.
    """
    tokens: list[str] = []
    for chunk in record.effective_text.split():
        if chunk.startswith("@"):
            continue
        if any(marker in chunk.lower() for marker in _URL_MARKERS):
            continue
        if config.lowercase:
            # lowercase before the letter filter: some uppercase letters
            # lower to letter + combining mark, which must not survive
            chunk = chunk.lower()
        cleaned = _clean_chunk(chunk)
        for token in cleaned.split():
            if len(token) < config.min_token_len:
                continue
            if token in config.stopwords or token in config.query_words:
                continue
            tokens.append(token)
    return TokenizedTweet(id=record.id, tokens=tuple(tokens))


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
    """Persist a tokenized corpus as TSV: id<TAB>space-joined tokens."""
    tables.write_lines(path, (f"{tweet.id}\t{' '.join(tweet.tokens)}" for tweet in corpus))


def read_tokenized(path: str | Path) -> list[TokenizedTweet]:
    """Load a tokenized corpus written by write_tokenized."""
    return list(tables.read_rows(path, lambda f: TokenizedTweet(f[0], tuple(f[1].split())), ncols=2))
