"""Ingest streams each corpus from JSON line to count row. The list-shaped library path,
load_records -> clean_and_tokenize -> deduplicate -> count_corpus, is its oracle; a line-by-line
reader over json.loads is the oracle of which lines load_records and ingest accept; and a read
in one byte range is the oracle of a read split over byte ranges and worker processes."""

import json
import logging
import multiprocessing
import os
import re
import signal
import tempfile
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfquant.corpus
import mfquant.vectorizer
from mfquant import tables
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


# ---- ranged reads: a corpus of MIN_RANGE_BYTES or more is read in byte ranges, the first by the caller and each
# further one by a forked worker, and merged into what one range would give

def read_with(path, lang_filter, cpus, floor):
    """The count_unique_tweets result (vocabulary, count arrays, id bytes, repeats), the IngestStats and the
    warnings of reading ``path`` with ``cpus`` CPUs and a range floor of ``floor`` bytes."""
    found, stats = [], IngestStats()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mfquant.corpus, "MIN_RANGE_BYTES", floor)
        patch.setattr(tables, "_available_cpus", lambda: cpus)
        patch.setattr(mfquant.corpus.logger, "warning", lambda message, *args: found.append(message % args))
        rows = read_corpus(path, lang_filter, stats, CleaningConfig(query_words=frozenset({"immoral"})))
    counts, removed = count_unique_tweets(rows)
    matrix = counts.counts
    return (counts.vocab.words, matrix.data.tobytes(), matrix.indices.tobytes(), matrix.indptr.tobytes(),
            counts.ids._lines, removed), stats, found


def ranges_of(path, cpus, floor):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mfquant.corpus, "MIN_RANGE_BYTES", floor)
        return mfquant.corpus._byte_ranges(path, cpus)


def assert_ranged_reads_equal_one_range(path, lang_filter, floor):
    expected, raw = read_with(path, lang_filter, 1, floor), path.read_bytes()
    for cpus in (2, 3):
        ranges = ranges_of(path, cpus, floor)
        assert 1 <= len(ranges) <= max(1, min(cpus, len(raw) // floor))
        assert ranges[0][0] == 0 and ranges[-1][1] == len(raw)
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        # no range is empty, and each but the last ends just after a line break
        assert all(start < stop for start, stop in ranges)
        assert all(raw[stop - 1:stop] == b"\n" for _, stop in ranges[:-1])
        assert read_with(path, lang_filter, cpus, floor) == expected, cpus
    return expected


def fixed_width_corpus(path, lines, width=80):
    """``lines`` (JSON objects, text or bytes) each padded with spaces before its break to ``width`` bytes; a
    line ending in CR ends in CRLF, and the last line has no break."""
    raw = []
    for i, line in enumerate(lines):
        line = line if isinstance(line, bytes) else (line if isinstance(line, str) else json.dumps(line)).encode()
        end = b"" if i == len(lines) - 1 else b"\r\n" if line.endswith(b"\r") else b"\n"
        line = line.removesuffix(b"\r")
        assert len(line) + len(end) <= width, line
        raw.append(line + b" " * (width - len(line) - len(end)) + end)
    path.write_bytes(b"".join(raw))
    return path


def crafted_ranged_lines():
    """32 lines of 80 bytes, each thing that a range boundary must not change placed clear of the boundaries of
    two and three ranges (before lines 11, 17 and 22), where fillers stand."""
    lines = [{"id": f"f{i}", "text": f"filler {('war', 'kill', 'sin', 'cheat')[i % 4]} {i % 3}", "lang": "en"}
             for i in range(32)]
    lines[0] = "﻿" + json.dumps({"id": "a1", "text": "war kill sin", "lang": "en"})  # the file's byte-order mark
    lines[1] = {"id": "dup-loaded", "text": "peace love war", "lang": "en"}
    lines[2] = {"id": "dup-filtered", "text": "peace love war", "lang": "fr"}
    lines[3] = " \t"
    lines[4] = json.dumps({"id": "a2", "text": "cheat unfair war", "lang": "en"}) + "\r"
    lines[5] = json.dumps({"id": "a3", "text": "harm kill"}) + "\r" + json.dumps({"id": "a4", "text": "betray"})
    lines[6] = b'{"id": "a5", "text": "caf\xe9 war"}'
    lines[7] = "{not json"
    lines[8] = {"id": "a6", "text": "war kill sin", "lang": "en"}  # the tokens of a1 again
    lines[13] = {"id": "mid", "text": "purity dirty", "lang": "en"}
    lines[19] = ""
    lines[24] = {"id": "dup-loaded", "text": "onlyindup war", "lang": "en"}  # holds the only "onlyindup"
    lines[25] = {"id": "dup-filtered", "text": "again war", "lang": "en"}
    lines[26] = {"id": "mid", "text": "midrepeat", "lang": "en"}
    lines[27] = b'{"id": "b1", "text": "\xff\xfe war"}'
    lines[28] = json.dumps({"id": "b2", "text": "sin"}) + "\r" + "{broken"
    lines[29] = json.dumps({"id": "b3", "text": "kill cheat", "lang": "en"}) + "\r"
    lines[31] = {"id": "last", "text": "final words war", "lang": "en"}  # no line break after it
    return lines


@pytest.mark.parametrize("lang_filter", [None, "en"])
def test_ranged_read_equals_one_range_on_crafted_boundaries(tmp_path, lang_filter):
    path, lines = tmp_path / "c.jsonl", crafted_ranged_lines()
    fixed_width_corpus(path, lines)
    starts = {start // 80 for cpus in (2, 3) for start, _ in ranges_of(path, cpus, 256)[1:]}
    assert starts == {11, 17, 22} and all(lines[i]["id"].startswith("f") for i in starts)
    for i in starts:  # a byte-order mark inside the file starts a later range: it stays a character
        lines[i] = "﻿" + json.dumps({"id": f"bom{i}", "text": "bom war"})
    fixed_width_corpus(path, lines)
    assert {start // 80 for cpus in (2, 3) for start, _ in ranges_of(path, cpus, 256)[1:]} == starts

    (vocabulary, *_), stats, warnings = assert_ranged_reads_equal_one_range(path, lang_filter, 256)
    assert "onlyindup" not in vocabulary and "midrepeat" not in vocabulary and "final" in vocabulary
    assert stats.duplicate_ids == 3 and stats.malformed == 7
    assert [w for w in warnings if "duplicate" in w] == [
        f"{path}:{n}: skipping duplicate id {rec_id!r}"
        for n, rec_id in ((26, "dup-loaded"), (27, "dup-filtered"), (28, "mid"))
    ]


# records with ids from a small pool, so ids repeat across ranges; blank, malformed, non-UTF-8 and BOM-led lines;
# and LF, CRLF and lone CR breaks
RANGED_LINES = st.lists(st.tuples(
    st.one_of(
        st.builds(
            lambda rec_id, words, lang: json.dumps({"id": rec_id, "text": " ".join(words), **lang}).encode(),
            st.sampled_from(("1", "2", "3", "4")),
            st.lists(st.sampled_from(("war", "kill", "sin", "cheat", "unique", "ünfair", "ab")), max_size=4),
            st.sampled_from(({}, {"lang": "en"}, {"lang": "fr"})),
        ),
        st.sampled_from((b"", b"  ", b"{not json", b'{"id": "7", "text": "caf\xe9"}', b"[1]")),
        st.builds(lambda n: "﻿".encode() + json.dumps({"id": str(n), "text": "bom"}).encode(), st.integers(8, 9)),
    ),
    st.sampled_from((b"\n", b"\r\n", b"\r")),
), min_size=6, max_size=24)


@settings(max_examples=40, deadline=None)
@given(RANGED_LINES, st.booleans(), st.sampled_from((None, "en")))
def test_ranged_read_equals_one_range_on_generated_corpora(lines, bom, lang_filter):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        path.write_bytes(("﻿".encode() if bom else b"") + b"".join(line + end for line, end in lines))
        assert_ranged_reads_equal_one_range(path, lang_filter, 32)


def test_a_corpus_under_the_floor_is_read_by_the_caller_alone(tmp_path, monkeypatch):
    path = write_corpus(tmp_path / "c.jsonl", IMMORALITY_LINES)
    assert path.stat().st_size < mfquant.corpus.MIN_RANGE_BYTES

    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(tables, "_available_cpus", lambda: 4)
    assert read_corpus(path, None, IngestStats(), CleaningConfig()).ids


@pytest.fixture
def ranged(tmp_path, monkeypatch):
    """An ingest config whose immorality corpus of 90 distinct ids is read in three byte ranges."""
    lines = [{"id": str(i), "text": f"war kill {'abcdefghij'[i % 10] * 3}", "lang": "en"} for i in range(90)]
    path = write_corpus(tmp_path / "immorality.jsonl", lines)
    monkeypatch.setattr(mfquant.corpus, "MIN_RANGE_BYTES", 256)
    monkeypatch.setattr(tables, "_available_cpus", lambda: 3)
    assert len(mfquant.corpus._byte_ranges(path, 3)) == 3
    return PipelineConfig(immorality_path=path, out_dir=tmp_path / "out", query_words={"immorality": ("immoral",)})


def patch_clean(monkeypatch, tmp_path, in_worker):
    """Clean through ``in_worker(record)`` first in every process but this one; returns the directory that holds
    a file named after each process it ran in."""
    clean, caller, pids = mfquant.corpus.clean_and_tokenize, os.getpid(), tmp_path / "pids"
    pids.mkdir()

    def patched(record, cleaning):
        if os.getpid() != caller:
            (pids / str(os.getpid())).touch()
            in_worker(record)
        return clean(record, cleaning)

    monkeypatch.setattr(mfquant.corpus, "clean_and_tokenize", patched)
    return pids


def assert_no_worker_left(pids):
    found = [int(p.name) for p in pids.iterdir()]
    assert found and multiprocessing.active_children() == []
    for pid in found:  # reaped: neither running nor a zombie
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="lists /proc/self/fd, which Linux has")
def test_a_ranged_ingest_worker_holds_no_descriptor_of_the_lock(ranged, monkeypatch, tmp_path):
    listings = tmp_path / "listings"
    listings.mkdir()

    def list_fds(record):
        links = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                links.append(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:  # the listing's own descriptor, closed by now
                pass
        (listings / str(os.getpid())).write_text("\n".join(links))

    pids = patch_clean(monkeypatch, tmp_path, list_fds)
    run("ingest", ranged)
    lock_path = os.path.realpath(ranged.out_dir / ".lock")
    workers = [(listings / p.name).read_text().splitlines() for p in pids.iterdir()]
    assert workers and all(lock_path not in links for links in workers)
    assert_no_worker_left(pids)


def test_a_worker_exception_is_raised_by_ingest(ranged, monkeypatch, tmp_path):
    def fail(record):
        raise RuntimeError(f"worker failed on {record.id}")

    pids = patch_clean(monkeypatch, tmp_path, fail)
    with pytest.raises(RuntimeError, match="worker failed on"):
        run("ingest", ranged)
    assert_no_worker_left(pids)
    monkeypatch.undo()
    run("ingest", ranged)  # the next run takes the lock


@contextmanager
def within(seconds):
    """Fail with TimeoutError unless the body has returned or raised after ``seconds``."""
    def timed_out(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_worker_that_dies_makes_ingest_raise(ranged, monkeypatch, tmp_path):
    pids = patch_clean(monkeypatch, tmp_path, lambda record: os.kill(os.getpid(), signal.SIGKILL))
    with within(60), pytest.raises(BrokenProcessPool):
        run("ingest", ranged)
    assert_no_worker_left(pids)
    monkeypatch.undo()
    run("ingest", ranged)


def test_a_range_that_cannot_be_sent_to_its_worker_makes_ingest_raise(ranged, monkeypatch):
    """The caller waits for each worker to start its range: a range that never reaches one ends the wait too."""
    class Unsendable:
        def __reduce__(self):
            raise RuntimeError("cannot be sent")

    monkeypatch.setattr(mfquant.corpus, "replace", lambda cleaning: Unsendable())
    with within(60), pytest.raises(RuntimeError, match="cannot be sent"):
        run("ingest", ranged)
    assert multiprocessing.active_children() == []


def test_ranged_ingest_cleans_each_loaded_record_once_through_the_module_attribute(ranged, monkeypatch, tmp_path):
    """Beside the benchmark surface test: each process writes the ids it cleans to a file of its own."""
    cleaned, clean = tmp_path / "cleaned", mfquant.corpus.clean_and_tokenize
    cleaned.mkdir()

    def recording(record, cleaning):
        with open(cleaned / str(os.getpid()), "a", encoding="utf-8") as out:
            out.write(f"{record.id}\n")
        return clean(record, cleaning)

    monkeypatch.setattr(mfquant.corpus, "clean_and_tokenize", recording)
    run("ingest", ranged)
    files = [p.read_text(encoding="utf-8").splitlines() for p in cleaned.iterdir()]
    loaded = [r.id for r in load_records(ranged.immorality_path)[0]]
    # the caller and at least one worker: a worker done with its range before another starts may take a second
    assert len(files) >= 2 and sorted(i for ids in files for i in ids) == sorted(loaded) and len(loaded) == 90
