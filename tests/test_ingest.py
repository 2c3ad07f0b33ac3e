"""Ingest streams each corpus from JSON line to count row. The list-shaped library path,
load_records -> clean_and_tokenize -> deduplicate -> count_corpus, is its oracle."""

import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfquant.corpus
import mfquant.vectorizer
from mfquant.corpus import TokenizedTweet, clean_and_tokenize, deduplicate, load_records
from mfquant.pipeline import Artifacts, PipelineConfig, run
from mfquant.vectorizer import count_corpus, count_unique_tweets, save_corpus_counts

IMMORALITY_LINES = [
    {"id": "1", "text": "war kill sin", "lang": "en"},
    {"id": "1", "text": "a duplicate id", "lang": "en"},
    {"id": "2", "text": "War, kill; SIN!", "lang": "en"},  # the tokens of "1" again
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


@pytest.mark.parametrize("lang_filter", [None, "en"])
def test_streaming_ingest_equals_the_list_shaped_path(crafted, tmp_path, monkeypatch, caplog, lang_filter):
    crafted.lang_filter = lang_filter
    stats, removed = {}, {}
    iter_records, count_unique = mfquant.corpus.iter_records, mfquant.vectorizer.count_unique_tweets

    def recording_iter_records(path, lang, ingest_stats):
        stats[path.name] = ingest_stats
        return iter_records(path, lang, ingest_stats)

    def recording_count(tweets):
        counts, dropped = count_unique(tweets)
        removed[len(removed)] = dropped
        return counts, dropped

    with monkeypatch.context() as patch:
        patch.setattr(mfquant.corpus, "iter_records", recording_iter_records)
        patch.setattr(mfquant.vectorizer, "count_unique_tweets", recording_count)
        run("ingest", crafted)
    streamed_warnings = warnings_of(caplog)
    caplog.clear()

    art, oracle = Artifacts(crafted.out_dir), tmp_path / "oracle"
    for i, (name, path) in enumerate({"immorality": crafted.immorality_path, **crafted.topic_paths}.items()):
        records, expected_stats = load_records(path, lang_filter)
        cleaning = crafted.cleaning_config(name)
        kept, expected_removed = deduplicate([clean_and_tokenize(r, cleaning) for r in records])
        save_corpus_counts(count_corpus(kept), oracle / f"{name}.npz", oracle / f"{name}.tsv")
        assert art.corpus_counts(name).read_bytes() == (oracle / f"{name}.npz").read_bytes(), name
        assert art.corpus(name).read_bytes() == (oracle / f"{name}.tsv").read_bytes(), name
        assert stats[path.name] == expected_stats, name
        assert removed[i] == expected_removed, name
        assert expected_stats.malformed >= 1 and expected_stats.duplicate_ids == 1 and expected_removed >= 1
        assert expected_stats.lang_filtered == (0 if lang_filter is None else 2 if name == "immorality" else 1)
    assert warnings_of(caplog) == streamed_warnings
    assert len(streamed_warnings) == 7


def test_ingest_reads_at_most_one_record_ahead_of_cleaning(tmp_path, monkeypatch):
    """Each record is cleaned before the next line is parsed, so ingest never holds the corpus's records."""
    lines = [{"id": str(i), "text": f"war kill {'abcdefghij'[i % 10] * 3}"} for i in range(40)]
    config = PipelineConfig(
        immorality_path=write_corpus(tmp_path / "immorality.jsonl", lines), out_dir=tmp_path / "out",
        query_words={"immorality": ("immoral",)},
    )
    parsed, ahead = [], []

    def counting_loads(line):
        parsed.append(line)
        return json.loads(line)

    clean = mfquant.corpus.clean_and_tokenize

    def checking_clean(record, cleaning):
        ahead.append(len(parsed) - len(ahead))  # lines parsed less the records cleaned before this one
        return clean(record, cleaning)

    monkeypatch.setattr(mfquant.corpus, "json", SimpleNamespace(loads=counting_loads, JSONDecodeError=json.JSONDecodeError))
    monkeypatch.setattr(mfquant.corpus, "clean_and_tokenize", checking_clean)
    run("ingest", config)
    assert len(ahead) == 40 and max(ahead) <= 1


# a few words, so token sequences often repeat, in and out of order
TOKEN_LISTS = st.lists(st.lists(st.sampled_from(("war", "sin", "kill", "ünfair", "b")), max_size=4), max_size=30)


def assert_counted_like_the_oracle(token_lists):
    tweets = [TokenizedTweet(str(i), tuple(tokens)) for i, tokens in enumerate(token_lists)]
    found, removed = count_unique_tweets(iter(tweets))
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
