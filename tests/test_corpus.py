import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

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
from mfquant.synth import default_plan, synth_corpus

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


# The per-character tokenizer that clean_and_tokenize replaced, kept verbatim as its oracle.
_URL_MARKERS = ("http://", "https://", "www.")
_APOSTROPHES = ("'", "’", "ʼ")


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


def oracle_clean_and_tokenize(record: TweetRecord, config: CleaningConfig) -> TokenizedTweet:
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
        # lowercase before the letter filter: some uppercase letters
        # lower to letter + combining mark, which must not survive
        cleaned = _clean_chunk(chunk.lower())
        for token in cleaned.split():
            if len(token) < config.min_token_len:
                continue
            if token in config.stopwords or token in config.query_words:
                continue
            tokens.append(token)
    return TokenizedTweet(id=record.id, tokens=tuple(tokens))


# clean_and_tokenize before its word table filtered lengths and its URL regex waited for a substring
# check, kept as an oracle: one code-point rule (its translate table, which deleted code points by
# mapping them to "", applied _clean_chunk's rule), a findall for the length filter, a table of the
# dropped words that setdefault extends, and the URL regex run on every text.
_PREVIOUS_URL_MARKER = re.compile(r"https?://|www\.")


def previous_clean_and_tokenize(record: TweetRecord, config: CleaningConfig) -> TokenizedTweet:
    text = record.effective_text
    lowered = text.lower()
    if "@" in text or _PREVIOUS_URL_MARKER.search(lowered):
        text = " ".join([
            chunk for chunk in text.split()
            if not chunk.startswith("@") and not _PREVIOUS_URL_MARKER.search(chunk.lower())
        ])
        lowered = text.lower()
    tokens = re.findall(f"[^ ]{{{config.min_token_len},}}", _clean_chunk(lowered))
    words = dict.fromkeys(config.stopwords | config.query_words)
    return TokenizedTweet(id=record.id, tokens=tuple(filter(None, map(words.setdefault, tokens, tokens))))


MIXED_CASE_URL_MARKERS = st.sampled_from(_URL_MARKERS).flatmap(
    lambda marker: st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in marker)).map("".join)
)
TWEET_PIECES = st.one_of(
    st.characters(blacklist_categories=("Cs",)),  # any code point but a lone surrogate
    MIXED_CASE_URL_MARKERS,
    st.sampled_from(_APOSTROPHES + ("@", "#", "İ", "Σ", "ΟΔΟΣ", "σς", "the", "Aren't", "immoral")),
    st.sampled_from((" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000")),
    st.characters(categories=("Nd", "No", "Nl")),
    st.text(st.characters(categories=("Lu", "Ll", "Lt", "Lm", "Lo", "Mn")), min_size=1, max_size=6),
)

# texts that are ASCII, often only once lowered, and texts that mix ASCII with other code points
ASCII_PIECES = st.one_of(
    st.characters(max_codepoint=127),
    MIXED_CASE_URL_MARKERS,
    st.sampled_from(("'", "@", "@user", "#tag", "http://t.co/x", "WWW.x.org", "the", "Aren't", "IMMORAL", "a1b2")),
    st.text(st.characters(max_codepoint=127), min_size=1, max_size=8),
)
NON_ASCII_PIECES = st.one_of(
    st.sampled_from(("’", "ʼ", "\u212a", "\u0130", "ẞ", "é", "\xa0", "\u3000", "１２", "…", "ΟΔΟΣ", "İİ@x")),
    st.characters(min_codepoint=128, blacklist_categories=("Cs",)),
)
ASCII_OR_MIXED_TEXT = st.one_of(
    st.lists(ASCII_PIECES, max_size=40).map("".join),
    st.lists(st.one_of(ASCII_PIECES, NON_ASCII_PIECES), max_size=40).map("".join),
)


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

    # upper: the text is upper-cased first, as in a shouted tweet, so that every cased letter reaches the
    # cleaner's lowering as a capital
    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("min_token_len", [1, 3])
    @settings(max_examples=250, deadline=None)
    @given(text=st.lists(TWEET_PIECES, max_size=60).map("".join))
    @example(text="ΟΔΟΣ ΣΑΣ. İİİ HTTP://x wWw.y @İ #Σσ ’tis 3rd ʼa’b'c")
    def test_matches_per_character_oracle(self, text, upper, min_token_len):
        config = CleaningConfig(query_words=IMMORALITY_CONFIG.query_words, min_token_len=min_token_len)
        record = TweetRecord(id="o", text=text.upper() if upper else text)
        assert clean_and_tokenize(record, config) == oracle_clean_and_tokenize(record, config)

    @settings(max_examples=400, deadline=None)
    @given(text=ASCII_OR_MIXED_TEXT, min_token_len=st.integers(1, 4))
    @example(text="\u212aILL \u212a\u212a\u212a war", min_token_len=3)  # KELVIN SIGN lowers to 'k'
    @example(text="\u0130STANBUL i\u0130i war", min_token_len=1)  # U+0130 lowers to 'i' + U+0307
    def test_matches_the_previous_cleaner(self, text, min_token_len):
        config = CleaningConfig(query_words=IMMORALITY_CONFIG.query_words, min_token_len=min_token_len)
        record = TweetRecord("o", text)
        assert clean_and_tokenize(record, config) == previous_clean_and_tokenize(record, config)

    @pytest.mark.parametrize("upper", [True, False])  # as in test_matches_per_character_oracle
    @pytest.mark.parametrize("min_token_len", [1, 2, 3, 4])
    def test_every_ascii_code_point_matches_the_previous_cleaner(self, upper, min_token_len):
        config = CleaningConfig(query_words=IMMORALITY_CONFIG.query_words, min_token_len=min_token_len)
        for code in range(128):
            ch = chr(code)
            for text in (ch, f"Ab{ch}cD x{ch}{ch}y {ch}War", f"{ch}the{ch}IMMORAL{ch}é{ch}"):
                record = TweetRecord("a", text.upper() if upper else text)
                assert clean_and_tokenize(record, config) == previous_clean_and_tokenize(record, config), text

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


class TestWordTable:
    PLAN = default_plan(fillers_per_cluster=30, noise_pool=60)
    # some planted fillers as extra stopwords, so the corpus certainly holds words to drop
    CONFIG_ARGS = dict(
        stopwords=DEFAULT_STOPWORDS | frozenset(PLAN.clusters[0].fillers[:10]),
        query_words=IMMORALITY_CONFIG.query_words,
    )

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        out = []
        for seed in (5, 6):
            path = tmp_path_factory.mktemp("synth") / "c.jsonl"
            synth_corpus(self.PLAN, 300, seed, path)
            out.append(load_records(path)[0])
        return out

    def test_each_distinct_token_is_one_object(self, corpora):
        config = CleaningConfig(**self.CONFIG_ARGS)
        tokens = [token for record in corpora[0] for token in clean_and_tokenize(record, config).tokens]
        assert len({id(token) for token in tokens}) == len(set(tokens)) > 0
        assert not set(tokens) & (config.stopwords | config.query_words)

    def test_reused_config_matches_fresh_configs(self, corpora):
        shared = CleaningConfig(**self.CONFIG_ARGS)
        reused = [[clean_and_tokenize(r, shared) for r in records] for records in corpora]
        fresh_configs = [CleaningConfig(**self.CONFIG_ARGS) for _ in corpora]
        fresh = [[clean_and_tokenize(r, config) for r in records] for records, config in zip(corpora, fresh_configs)]
        assert reused == fresh

    def test_table_is_not_part_of_equality_or_repr(self, corpora):
        used = CleaningConfig(**self.CONFIG_ARGS)
        for record in corpora[0]:
            clean_and_tokenize(record, used)
        fresh = CleaningConfig(**self.CONFIG_ARGS)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


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
            for bad in ("a,b\tc", "a\tb", "a,b", "a\nb", "a\rb", "a\ud800b")
        ]
        records, stats = load_records(self.write(tmp_path, lines))
        assert records == [] and stats.malformed == 8

    @pytest.mark.parametrize("bad_id", [True, False, "x\ty", "x,y", "x\ny", "x\ry"])
    def test_bad_id_is_malformed_with_its_line_number(self, tmp_path, caplog, bad_id):
        # a JSON boolean is a Python int, but only a true integer id is taken
        lines = [json.dumps({"id": 7, "text": "a"}), json.dumps({"id": bad_id, "text": "b"})]
        path = self.write(tmp_path, lines)
        records, stats = load_records(path)
        assert [r.id for r in records] == ["7"] and stats.malformed == 1
        assert f"{path}:2: skipping malformed line" in caplog.text

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

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_line_that_is_not_utf8_is_malformed(self, tmp_path, caplog, newline):
        lines = [json.dumps({"id": str(i), "text": f"tweet {i}"}).encode() for i in range(3)]
        lines[1] = lines[1].replace(b"tweet", b"tw\xffeet")
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(newline.join(lines) + newline)
        records, stats = load_records(path)
        assert [r.id for r in records] == ["0", "2"]
        assert stats.malformed == 1
        assert f"{path}:2: skipping malformed line" in caplog.text

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_leading_byte_order_mark_is_not_data(self, tmp_path, caplog, newline):
        lines = [json.dumps({"id": str(i), "text": f"tweet {i}"}).encode() for i in range(3)]
        lines[2] = b"\xef\xbb\xbf" + lines[2]  # a mark after the first line is not a byte-order mark
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + newline.join(lines) + newline)
        records, stats = load_records(path)
        assert [r.id for r in records] == ["0", "1"] and stats.malformed == 1
        assert f"{path}:3: skipping malformed line" in caplog.text

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
