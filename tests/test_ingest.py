"""Ingest streams each corpus from JSON line to count row. The list-shaped library path,
load_records -> clean_and_tokenize -> deduplicate -> count_corpus, is its oracle; a line-by-line
reader over json.loads is the oracle of which lines load_records and ingest accept."""

import json
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfquant.corpus
import mfquant.vectorizer
from mfquant.corpus import (
    CleaningConfig, IngestStats, TokenizedTweet, TweetRecord, clean_and_tokenize, deduplicate, load_records, read_corpus,
)
from mfquant.pipeline import Artifacts, PipelineConfig, run
from mfquant.vectorizer import count_corpus, count_unique_tweets, save_corpus_counts

IMMORALITY_LINES = [
    {"id": "1", "text": "war kill sin", "lang": "en"},
    {"id": "1", "text": "a duplicate id", "lang": "en"},
    "\ufeff" + json.dumps({"id": "bom", "text": "war bom"}),  # a byte-order mark starts only the file
    {"id": "2", "text": "War, kill; SIN!", "lang": "en"},  # the tokens of "1" again
    {"id": "2", "text": "a duplicate id in another lang", "lang": "fr"},
    {"id": "3", "text": "the and of it", "lang": "en"},  # no token survives cleaning
    "{not json",
    {"id": "4", "text": "@someone https://t.co/x", "lang": "en"},  # empty again: a repeat of "3"
    {"id": "5", "text": "sin kill war", "lang": "fr"},  # the same words in another order
    b'{"id": "6", "text": "caf\xe9 war"}',  # a byte that is not UTF-8
    {"id": 7, "text": "peace love war", "lang": "en"},
    {"id": "8", "retweeted_status": {"text": "no text of its own"}},
    {"id": "9", "text": "RT", "retweeted_status": {"text": "peace, love & war"}, "lang": "en"},
    {"id": True, "text": "a boolean id"},
    {"id": "10", "text": "unfair cheat unfair"},  # no lang
    {"id": "11", "text": "immoral war kill sin", "lang": "en"},  # a query word drops out: "1" again
    # non-ASCII texts, cleaned by the code-point rule: 'İ' lowers to 'i' + a combining mark,
    # 'ẞ' to 'ß'; NBSP blanks and fullwidth digits are deleted
    {"id": "12", "text": "İSTANBUL war kill １２３sin", "lang": "en"},
    {"id": "13", "text": "GROẞE war kill", "lang": "en"},
    {"id": "14", "text": " war kill sin１", "lang": "en"},  # "1" again
    # only space, tab, CR and LF may surround a JSON value
    json.dumps({"id": "15", "text": "form feed"}) + "\f",
    json.dumps({"id": "16", "text": "nbsp"}) + "\u00a0",
    " \t" + json.dumps({"id": "17", "text": "spaced war"}) + " \r",
    '{"id": "\\ud800", "text": "lone surrogate"}',  # an ASCII line whose id is a lone surrogate
    '{"id": "18", "text": "\\ud800 war \\udfff sin"}',  # lone surrogates in the text blank out
]
TOPIC_LINES = [
    {"id": "t1", "text": "topiccare helps kids", "lang": "en"},
    {"id": "t1", "text": "again", "lang": "en"},
    {"id": "t2", "text": "helps kids", "lang": "fr"},  # "t1" once its query word is dropped
    "[1, 2]",
    {"id": "t3", "text": "", "lang": "en"},
    {"id": "t4", "text": "http://x.y", "lang": "en"},  # empty again: a repeat of "t3"
]


def write_corpus(path, lines):
    raw = [line if isinstance(line, bytes) else (line if isinstance(line, str) else json.dumps(line)).encode()
           for line in lines]
    path.write_bytes(b"\n".join(raw) + b"\n\n")
    return path


@pytest.fixture
def crafted(tmp_path):
    return PipelineConfig(
        immorality_path=write_corpus(tmp_path / "immorality.jsonl", IMMORALITY_LINES),
        out_dir=tmp_path / "out",
        topic_paths={"topic_care": write_corpus(tmp_path / "topic_care.jsonl", TOPIC_LINES)},
        query_words={"immorality": ("immoral", "immorality"), "topic_care": ("topiccare",)},
    )


def warnings_of(caplog):
    return [(r.name, r.levelno, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING]


def json_loads_records(path, lang_filter):
    """The records, IngestStats and warnings of reading ``path`` one line at a time through json.loads."""
    records, stats, warnings, seen = [], IngestStats(), [], set()
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not an object")
                rec_id = str(obj.get("id")) if type(obj.get("id")) is int else obj.get("id")
                if not isinstance(rec_id, str) or not rec_id:
                    raise ValueError("'id' is missing, empty, or neither a string nor an integer")
                if re.search(r"[\t,\n\r]", rec_id):
                    raise ValueError(f"id {rec_id!r} contains a tab, comma or newline")
                rec_id.encode("utf-8")
                if not isinstance(obj.get("text"), str):
                    raise ValueError("missing 'text'")
            except ValueError as exc:
                stats.malformed += 1
                warnings.append(f"{path}:{lineno}: skipping malformed line ({exc})")
                continue
            if rec_id in seen:
                stats.duplicate_ids += 1
                warnings.append(f"{path}:{lineno}: skipping duplicate id {rec_id!r}")
                continue
            seen.add(rec_id)
            lang = obj.get("lang") if isinstance(obj.get("lang"), str) else None
            if lang_filter is not None and lang != lang_filter:
                stats.lang_filtered += 1
                continue
            stats.loaded += 1
            retweeted = obj.get("retweeted_status")
            retweet_text = retweeted.get("text") if isinstance(retweeted, dict) else None
            records.append(TweetRecord(rec_id, obj["text"], retweet_text if isinstance(retweet_text, str) else None, lang))
    return records, stats, warnings


@pytest.mark.parametrize("lang_filter", [None, "en"])
@pytest.mark.parametrize("lines", [IMMORALITY_LINES, TOPIC_LINES], ids=["immorality", "topic"])
def test_load_records_accepts_the_lines_json_loads_accepts(tmp_path, caplog, lines, lang_filter):
    path = write_corpus(tmp_path / "c.jsonl", lines)
    records, stats = load_records(path, lang_filter)
    expected_records, expected_stats, expected_warnings = json_loads_records(path, lang_filter)
    assert records == expected_records and stats == expected_stats
    assert [message for _, _, message in warnings_of(caplog)] == expected_warnings


# what may surround a JSON value on a line: of these, json.loads skips only space, tab and CR
SURROUNDS = st.text(st.sampled_from(" \t\r\f\v\u00a0\ufeff\x85\u2028"), max_size=2)
GENERATED_LINES = st.lists(st.one_of(
    st.builds(
        lambda before, obj, after: before + json.dumps(obj, ensure_ascii=False) + after,
        SURROUNDS,
        st.fixed_dictionaries(
            {"id": st.one_of(st.text(max_size=2), st.integers(-5, 5), st.booleans(), st.none())},
            optional={"text": st.one_of(st.text(max_size=4), st.integers()), "lang": st.sampled_from(("en", "fr", 1))},
        ),
        SURROUNDS,
    ),
    st.text(max_size=8),
), max_size=8)


@settings(max_examples=150, deadline=None)
@given(GENERATED_LINES)
def test_load_records_accepts_what_json_loads_accepts_on_generated_lines(lines):
    logger = logging.getLogger("mfquant.corpus")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = write_corpus(Path(tmp) / "c.jsonl", lines)
        found = []
        patch.setattr(logger, "warning", lambda message, *args: found.append(message % args))
        records, stats = load_records(path, "en")
        assert (records, stats, found) == json_loads_records(path, "en")


def test_read_corpus_needs_a_cleaning_config(tmp_path):
    """The public reader has no mode that reads without cleaning; only load_records lists records uncleaned."""
    path = write_corpus(tmp_path / "c.jsonl", IMMORALITY_LINES)
    with pytest.raises(TypeError, match="cleaning"):
        read_corpus(path, "en", IngestStats())
    rows = read_corpus(path, "en", IngestStats(), CleaningConfig())
    records, _ = load_records(path, "en")
    assert len(rows.bounds) == len(records) + 1 and rows.bounds[0] == 0
    assert rows.ids.decode("utf-8").split("\n")[:-1] == [r.id for r in records]


@pytest.mark.parametrize("lang_filter", [None, "en"])
def test_streaming_ingest_equals_the_list_shaped_path(crafted, tmp_path, caplog, lang_filter):
    crafted.lang_filter = lang_filter
    run("ingest", crafted)
    streamed_warnings = warnings_of(caplog)
    caplog.clear()
    metrics = json.loads((crafted.out_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]["ingest"]["metrics"]

    art, oracle = Artifacts(crafted.out_dir), tmp_path / "oracle"
    for name, path in {"immorality": crafted.immorality_path, **crafted.topic_paths}.items():
        records, expected_stats = load_records(path, lang_filter)
        cleaning = crafted.cleaning_config(name)
        kept, expected_removed = deduplicate([clean_and_tokenize(r, cleaning) for r in records])
        save_corpus_counts(count_corpus(kept), oracle / f"{name}.npz", oracle / f"{name}.tsv")
        assert art.corpus_counts(name).read_bytes() == (oracle / f"{name}.npz").read_bytes(), name
        assert art.corpus(name).read_bytes() == (oracle / f"{name}.tsv").read_bytes(), name
        assert metrics["corpora"][name] == {
            "loaded": expected_stats.loaded, "malformed": expected_stats.malformed,
            "duplicate_ids": expected_stats.duplicate_ids, "lang_filtered": expected_stats.lang_filtered,
            "repeats_removed": expected_removed, "kept": len(kept),
        }, name
        assert expected_stats.malformed >= 1 and expected_removed >= 1
    immorality = metrics["corpora"]["immorality"]
    assert immorality["malformed"] == 8 and immorality["duplicate_ids"] == 2
    assert metrics["corpora"]["topic_care"]["duplicate_ids"] == 1
    assert immorality["lang_filtered"] == (0 if lang_filter is None else 4)
    assert metrics["corpora"]["topic_care"]["lang_filtered"] == (0 if lang_filter is None else 1)
    assert warnings_of(caplog) == streamed_warnings
    assert len(streamed_warnings) == 12


def test_ingest_metrics_count_each_kind_of_line(tmp_path):
    """One line of each kind: loaded, malformed, duplicate id, lang-filtered, and a token-sequence repeat."""
    lines = [
        {"id": "1", "text": "war kill", "lang": "en"},
        "{not json",
        {"id": "1", "text": "duplicate id", "lang": "en"},
        {"id": "2", "text": "peace love", "lang": "fr"},
        {"id": "3", "text": "War; KILL!", "lang": "en"},
    ]
    config = PipelineConfig(
        immorality_path=write_corpus(tmp_path / "immorality.jsonl", lines), out_dir=tmp_path / "out",
        query_words={"immorality": ("immoral",)}, lang_filter="en",
    )
    run("ingest", config)
    entry = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]["ingest"]
    assert entry["metrics"]["corpora"] == {"immorality": {
        "loaded": 2, "malformed": 1, "duplicate_ids": 1, "lang_filtered": 1, "repeats_removed": 1, "kept": 1,
    }}
    assert "metrics" not in json.dumps(entry["inputs"])
    run("select", config)  # the upstream check reads inputs alone


def test_ingest_reads_at_most_one_record_ahead_of_cleaning(tmp_path, monkeypatch):
    """Each record is cleaned before the next line is parsed, so ingest never holds the corpus's records."""
    lines = [{"id": str(i), "text": f"war kill {'abcdefghij'[i % 10] * 3}"} for i in range(40)]
    config = PipelineConfig(
        immorality_path=write_corpus(tmp_path / "immorality.jsonl", lines), out_dir=tmp_path / "out",
        query_words={"immorality": ("immoral",)},
    )
    parsed, ahead = [], []
    scan = mfquant.corpus._scan_json

    def counting_scan(line, start):
        parsed.append(line)
        return scan(line, start)

    clean = mfquant.corpus.clean_and_tokenize

    def checking_clean(record, cleaning):
        ahead.append(len(parsed) - len(ahead))  # lines parsed less the records cleaned before this one
        return clean(record, cleaning)

    monkeypatch.setattr(mfquant.corpus, "_scan_json", counting_scan)
    monkeypatch.setattr(mfquant.corpus, "clean_and_tokenize", checking_clean)
    run("ingest", config)
    assert len(parsed) == len(ahead) == 40 and max(ahead) == 1


# a few words, so token sequences often repeat, in and out of order
TOKEN_LISTS = st.lists(st.lists(st.sampled_from(("war", "sin", "kill", "ünfair", "b")), max_size=4), max_size=30)


def assert_counted_like_the_oracle(token_lists):
    """count_unique_tweets of the rows read_corpus reads, with every token kept, against the list path."""
    tweets = [TokenizedTweet(str(i), tuple(tokens)) for i, tokens in enumerate(token_lists)]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_corpus(Path(tmp) / "c.jsonl", [{"id": t.id, "text": " ".join(t.tokens)} for t in tweets])
        rows = read_corpus(path, None, IngestStats(), CleaningConfig(stopwords=frozenset(), min_token_len=1))
    found, removed = count_unique_tweets(rows)
    assert rows.ids == b""  # taken, so that only the kept ids outlive the compaction
    kept, expected_removed = deduplicate(tweets)
    expected = count_corpus(kept)
    assert removed == expected_removed
    assert found.ids == expected.ids and found.vocab.words == expected.vocab.words
    assert found.counts.shape == expected.counts.shape and found.counts.dtype == expected.counts.dtype
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(found.counts, name), getattr(expected.counts, name))


@settings(max_examples=80, deadline=None)
@given(TOKEN_LISTS)
def test_count_unique_tweets_is_count_corpus_of_deduplicate(token_lists):
    assert_counted_like_the_oracle(token_lists)


@settings(max_examples=40, deadline=None)
@given(TOKEN_LISTS)
def test_count_unique_tweets_compares_the_bytes_of_rows_whose_hashes_collide(token_lists):
    """With every row on one hash value, only the comparison of the rows' bytes tells them apart."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mfquant.vectorizer, "_row_hashes", lambda values, indptr: np.zeros(len(indptr) - 1, np.uint64))
        assert_counted_like_the_oracle(token_lists)
