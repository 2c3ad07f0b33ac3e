"""Corpus ingestion, cleaning, tokenization, and deduplication.

Records arrive as line-delimited JSON (one object per line with at least
``id`` and ``text``; retweets carry the original text under
``retweeted_status.text``). Cleaning applies, in order: effective-text
selection, whitespace chunking, dropping URL and screen-name chunks,
lowercasing, one code-point rule (delete '#', digits and apostrophes; keep
letters; blank the rest), whitespace splitting, and the minimum-length /
stopword / query-word filter.

The filter is a word table that each ``CleaningConfig`` carries: it maps
every stopword and query word to None and every other word to the first
``str`` cleaned for it, so each occurrence of a word in the corpus shares
one object. The pipeline builds one config per corpus, which bounds the
table to that corpus's ingest.

Ingest streams: ``iter_records`` yields one record per line read, each is
cleaned as it arrives, and ``vectorizer.count_unique_tweets`` appends its
tokens to one flat buffer of word ids and its id to one text buffer, and
drops the tweets that repeat an earlier token sequence after the last one,
so no stage holds a corpus's records, token lists or a Python object per
tweet. ``load_records`` and ``deduplicate`` are
the same steps in list form, for library callers and tests, and
``write_tokenized`` and ``read_tokenized`` keep a token-level TSV, in token
order, for library users who want to inspect what cleaning kept.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import tables
from .errors import CorpusError
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

_URL_MARKER = re.compile(r"https?://|www\.")
_APOSTROPHES = ("'", "’", "ʼ")
# field and line separators of the artifact tables that carry ids downstream
_ID_DELIMITER = re.compile(r"[\t,\n\r]")


# slots: a library caller of load_records holds every record of a corpus at once
@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class TokenizedTweet:
    id: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class CleaningConfig:
    """Cleaning parameters. ``query_words`` are the corpus search terms to drop.

    Each instance also holds the word table ``clean_and_tokenize`` filters
    through; it is not a field, so equality, hashing and repr ignore it.
    """

    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    query_words: frozenset[str] = frozenset()
    min_token_len: int = 3
    lowercase: bool = True

    def __post_init__(self) -> None:
        if self.min_token_len < 1:
            raise ValueError("min_token_len must be >= 1")
        # dropped words map to None; every other word to the first str seen for it
        object.__setattr__(self, "_words", dict.fromkeys(self.stopwords | self.query_words))
        # cleaned text holds only letters and spaces, so this is split() plus the length filter
        object.__setattr__(self, "_tokens", re.compile(f"[^ ]{{{self.min_token_len},}}").findall)


@dataclass
class IngestStats:
    """Bookkeeping from one iter_records run."""

    loaded: int = 0
    malformed: int = 0
    lang_filtered: int = 0
    duplicate_ids: int = 0

    @property
    def skipped(self) -> int:
        return self.malformed + self.duplicate_ids


def _parse_line(obj: dict) -> TweetRecord:
    rec_id = obj.get("id")
    if type(rec_id) is int:  # not isinstance: a JSON true or false is a bool, which is an int
        rec_id = str(rec_id)
    text = obj.get("text")
    if not isinstance(rec_id, str) or not rec_id:
        raise ValueError("'id' is missing, empty, or neither a string nor an integer")
    if _ID_DELIMITER.search(rec_id):
        raise ValueError(f"id {rec_id!r} contains a tab, comma or newline")
    rec_id.encode("utf-8")  # a lone surrogate (JSON "\ud800") cannot reach a UTF-8 artifact
    if not isinstance(text, str):
        raise ValueError("missing 'text'")
    retweeted = obj.get("retweeted_status")
    retweet_text = retweeted.get("text") if isinstance(retweeted, dict) else None
    lang = obj.get("lang")
    return TweetRecord(
        id=rec_id, text=text,
        retweet_text=retweet_text if isinstance(retweet_text, str) else None,
        lang=lang if isinstance(lang, str) else None,
    )


def iter_records(path: str | Path, lang_filter: str | None, stats: IngestStats) -> Iterator[TweetRecord]:
    """Yield line-delimited JSON records in file order, reading one line per record.

    Malformed lines (bytes that are not UTF-8, bad JSON, missing id/text, an id that is a
    boolean or contains a tab, comma, newline or lone surrogate) and duplicate ids are
    logged with their line number and skipped; records failing ``lang_filter`` are dropped
    silently. ``stats`` counts each outcome as it happens. An unreadable file raises
    CorpusError when the first record is asked for.
    """
    path = Path(path)
    seen_ids: set[str] = set()
    try:
        handle = path.open("r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")  # a byte that is not UTF-8 was decoded to a lone surrogate
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
            stats.loaded += 1
            yield record
    logger.info(
        "loaded %d records from %s (%d malformed, %d duplicate ids, %d filtered by lang)",
        stats.loaded, path, stats.malformed, stats.duplicate_ids, stats.lang_filtered,
    )


def load_records(
    path: str | Path, lang_filter: str | None = None
) -> tuple[list[TweetRecord], IngestStats]:
    """Every record ``iter_records`` yields, as a list, and the IngestStats of reading them."""
    stats = IngestStats()
    return list(iter_records(path, lang_filter, stats)), stats


class _CodePointRule(dict):
    """``str.translate`` table that classifies each code point on first use:
    '#', digits and apostrophes are deleted, letters kept, anything else becomes a space."""

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        deleted = ch == "#" or ch.isdigit() or ch in _APOSTROPHES
        self[code] = "" if deleted else ch if ch.isalpha() else " "
        return self[code]


_CODE_POINT_RULE = _CodePointRule()


def clean_and_tokenize(record: TweetRecord, config: CleaningConfig) -> TokenizedTweet:
    """Clean one record into a TokenizedTweet (empty output is valid).

    Whitespace chunks containing a URL marker or starting with '@' are
    dropped wholesale. Apostrophes and digits are deleted in place, other
    punctuation splits tokens, and the stopword / query-word /
    min-length filter runs on the lowercased results.

    Pure in its results: equal inputs give equal outputs. Each kept token
    is the word's entry in ``config``'s word table, which this call extends
    with the words it sees first.
    """
    text = record.effective_text
    lowered = text.lower()
    # '@' and the URL markers hold no whitespace, so a text without them keeps every chunk,
    # and re-joining the chunks is moot: the code-point rule blanks all whitespace anyway
    if "@" in text or _URL_MARKER.search(lowered):
        text = " ".join([
            chunk for chunk in text.split()
            if not chunk.startswith("@") and not _URL_MARKER.search(chunk.lower())
        ])
        lowered = text.lower()
    if config.lowercase:
        # lowercase before the letter filter: some uppercase letters
        # lower to letter + combining mark, which must not survive
        text = lowered
    tokens = config._tokens(text.translate(_CODE_POINT_RULE))
    kept = filter(None, map(config._words.setdefault, tokens, tokens))  # None marks a dropped word
    return TokenizedTweet(id=record.id, tokens=tuple(kept))


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
