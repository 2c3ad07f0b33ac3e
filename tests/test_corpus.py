import json

import pytest
from hypothesis import given, strategies as st

from mfquant.corpus import (
    CleaningConfig,
    TokenizedTweet,
    TweetRecord,
    clean_and_tokenize,
    deduplicate,
    load_records,
    read_tokenized,
    write_tokenized,
)
from mfquant.errors import CorpusError
from mfquant.stopwords import BASE_STOPWORDS, DEFAULT_STOPWORDS

IMMORALITY_CONFIG = CleaningConfig(query_words=frozenset({"immoral", "immorality"}))

WORKED_TWEET = (
    "@CharlesMBlow 50% marginal taxrates aren't immoral. Letting the majority "
    "of public school kids live in poverty is. https://t.co/grEgeu9lPj"
)
WORKED_TOKENS = (
    "marginal", "taxrates", "letting", "majority",
    "public", "school", "kids", "live", "poverty",
)


def tok(text, config=IMMORALITY_CONFIG, tweet_id="t"):
    return clean_and_tokenize(TweetRecord(id=tweet_id, text=text), config)


class TestCleanAndTokenize:
    def test_worked_example_reproduces_exactly(self):
        assert tok(WORKED_TWEET).tokens == WORKED_TOKENS

    def test_empty_text(self):
        assert tok("").tokens == ()

    def test_hashtag_stopword_and_length(self):
        # manual trace: '#harm' -> 'harm'; 'is' stopword; 'BAD!!' -> 'bad' (len 3, kept)
        assert tok("#harm is BAD!!").tokens == ("harm", "bad")

    def test_urls_removed_wholesale(self):
        assert tok("see www.example.com/harm now").tokens == ("see",)
        assert tok("HTTPS://T.CO/x harm").tokens == ("harm",)

    def test_screen_names_removed(self):
        assert tok("@someone said harm").tokens == ("said", "harm")

    def test_numbers_stripped_in_place(self):
        assert tok("covid19 2nd 50%").tokens == ("covid",)

    def test_punctuation_splits_tokens(self):
        assert tok("good/bad war,peace").tokens == ("good", "bad", "war", "peace")

    def test_apostrophe_deleted_not_split(self):
        # "aren't" -> "arent", which the contraction stopwords absorb
        assert tok("aren't isn't won't o'clock").tokens == ("oclock",)

    def test_query_words_removed(self):
        assert tok("Immoral. immorality immorally").tokens == ("immorally",)

    def test_retweet_text_preferred(self):
        record = TweetRecord(id="r", text="RT @x: junk", retweet_text="pure harm")
        assert clean_and_tokenize(record, IMMORALITY_CONFIG).tokens == ("pure", "harm")

    def test_non_ascii_letters_kept(self):
        assert tok("café ÉCOLE").tokens == ("café", "école")

    def test_combining_marks_from_lowercasing_do_not_survive(self):
        # 'İ'.lower() is 'i' + a combining mark; the mark must split the token
        tokens = tok("İİİİ harm").tokens
        assert tokens == ("harm",)

    def test_pure_function(self):
        record = TweetRecord(id="p", text=WORKED_TWEET)
        first = clean_and_tokenize(record, IMMORALITY_CONFIG)
        second = clean_and_tokenize(record, IMMORALITY_CONFIG)
        assert first == second

    @given(st.text(max_size=280))
    def test_output_token_invariants(self, text):
        tokens = tok(text).tokens
        for token in tokens:
            assert len(token) >= 3
            assert token not in DEFAULT_STOPWORDS
            assert token not in IMMORALITY_CONFIG.query_words
            assert token == token.lower()
            assert token.isalpha()
            for banned in (" ", "#", "@"):
                assert banned not in token
            assert not any(ch.isdigit() for ch in token)


class TestStopwordLists:
    def test_base_list_has_127_entries(self):
        assert len(BASE_STOPWORDS) == 127

    def test_contractions_are_supplementary(self):
        assert "arent" in DEFAULT_STOPWORDS
        assert "arent" not in BASE_STOPWORDS


class TestDeduplicate:
    def test_keeps_first_of_each_sequence(self):
        corpus = [
            TokenizedTweet("1", ("a", "b")),
            TokenizedTweet("2", ("a", "b")),
            TokenizedTweet("3", ("b", "a")),
        ]
        kept, removed = deduplicate(corpus)
        assert [t.id for t in kept] == ["1", "3"]
        assert removed == 1

    def test_many_copies(self):
        corpus = [TokenizedTweet(str(i), ("war", "harm")) for i in range(1000)]
        kept, removed = deduplicate(corpus)
        assert len(kept) == 1 and kept[0].id == "0"
        assert removed == 999

    def test_url_only_difference_collapses(self):
        cfg = IMMORALITY_CONFIG
        first = tok("harm is coming https://t.co/abc", cfg, "1")
        second = tok("harm is coming https://t.co/xyz", cfg, "2")
        kept, removed = deduplicate([first, second])
        assert len(kept) == 1 and removed == 1

    def test_idempotent(self):
        corpus = [
            TokenizedTweet("1", ("a", "b")),
            TokenizedTweet("2", ("a", "b")),
            TokenizedTweet("3", ()),
            TokenizedTweet("4", ("c",)),
        ]
        once, _ = deduplicate(corpus)
        twice, removed_again = deduplicate(once)
        assert twice == once
        assert removed_again == 0


class TestLoadRecords:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_well_formed(self, tmp_path):
        lines = [json.dumps({"id": str(i), "text": f"tweet {i}"}) for i in range(3)]
        records, stats = load_records(self.write(tmp_path, lines))
        assert [r.id for r in records] == ["0", "1", "2"]
        assert stats.loaded == 3 and stats.skipped == 0

    def test_lang_filter(self, tmp_path):
        lines = [
            json.dumps({"id": "1", "text": "one", "lang": "en"}),
            json.dumps({"id": "2", "text": "deux", "lang": "fr"}),
            json.dumps({"id": "3", "text": "three", "lang": "en"}),
        ]
        records, stats = load_records(self.write(tmp_path, lines), lang_filter="en")
        assert [r.id for r in records] == ["1", "3"]
        assert stats.lang_filtered == 1

    def test_malformed_line_skipped_and_counted(self, tmp_path):
        lines = [
            json.dumps({"id": "1", "text": "a"}),
            "{not json",
            json.dumps({"id": "2", "text": "b"}),
            json.dumps({"id": "3", "text": "c"}),
            json.dumps({"id": "4", "text": "d"}),
        ]
        records, stats = load_records(self.write(tmp_path, lines))
        assert len(records) == 4
        assert stats.malformed == 1 and stats.skipped == 1

    def test_missing_fields_are_malformed(self, tmp_path):
        lines = [json.dumps({"id": "1"}), json.dumps({"text": "no id"})]
        lines += [
            json.dumps({"id": bad, "text": "text"})
            for bad in ("a,b\tc", "a\tb", "a,b", "a\nb", "a\rb")
        ]
        records, stats = load_records(self.write(tmp_path, lines))
        assert records == [] and stats.malformed == 7

    def test_duplicate_ids_skipped(self, tmp_path):
        lines = [
            json.dumps({"id": "1", "text": "a"}),
            json.dumps({"id": "1", "text": "b"}),
        ]
        records, stats = load_records(self.write(tmp_path, lines))
        assert len(records) == 1 and stats.duplicate_ids == 1

    def test_retweeted_status_parsed(self, tmp_path):
        lines = [json.dumps({"id": "1", "text": "RT", "retweeted_status": {"text": "orig"}})]
        records, _ = load_records(self.write(tmp_path, lines))
        assert records[0].effective_text == "orig"

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(CorpusError):
            load_records(tmp_path / "missing.jsonl")


class TestTokenizedRoundtrip:
    def test_roundtrip(self, tmp_path):
        corpus = [
            TokenizedTweet("a", ("war", "harm")),
            TokenizedTweet("b", ()),
            TokenizedTweet("c", ("sin",)),
        ]
        path = tmp_path / "tok.tsv"
        write_tokenized(corpus, path)
        assert read_tokenized(path) == corpus
