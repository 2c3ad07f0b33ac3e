import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mfquant.semantics
from mfquant import tables
from mfquant.corpus import TokenizedTweet
from mfquant.errors import DataError, LexiconError
from mfquant.lexicon import (
    ALL_FOUNDATIONS, FOUNDATIONS, POLARITIES, VICE, MFDictionary, MFEntry, foundation_matrix, match_matrix,
)
from mfquant.linalg import EmbeddingSpace, row_cosines
from mfquant.semantics import (
    UNCLASSIFIED,
    LoadingMatrix,
    context_vectors_for_corpus,
    dominant_indices,
    extend_dictionary,
    foundation_counts,
    load_loadings,
    loading_matrix,
    mf_similarity_matrix,
    mf_vectors,
    save_loadings,
    score_corpus,
    topic_vector,
)
from mfquant.vectorizer import SelectionResult, Vocabulary, count_corpus


@pytest.fixture
def fixture_dict():
    return MFDictionary([
        MFEntry("kill*", "Care", VICE),
        MFEntry("war", "Care", VICE),
        MFEntry("unfair*", "Fairness", VICE),
        MFEntry("enem*", "Ingroup", VICE),
        MFEntry("illegal*", "Authority", VICE),
        MFEntry("treason*", "Ingroup", VICE),
        MFEntry("treason*", "Authority", VICE),
        MFEntry("sin", "Purity", VICE),
        MFEntry("disgust*", "Purity", VICE),
    ])


@pytest.fixture
def fixture_embedding(rng):
    words = ("kill", "war", "unfair", "enemy", "illegal", "sin",
             "disgust", "god", "treason")
    return EmbeddingSpace(
        words=Vocabulary(words), vectors=rng.standard_normal((len(words), 6))
    )


def orthogonal_embedding():
    """One matched word per foundation, each on its own axis."""
    words = ("kill", "unfair", "enemy", "illegal", "sin")
    return EmbeddingSpace(words=Vocabulary(words), vectors=np.eye(5))


class TestTweetVector:
    def test_sum_of_keyword_vectors(self, fixture_embedding):
        tweet = TokenizedTweet("1", ("sin", "disgust", "god"))
        cv = context_vectors_for_corpus(count_corpus([tweet]), fixture_embedding)[0]
        index = fixture_embedding.words.index
        expected = (
            fixture_embedding.vectors[index["sin"]]
            + fixture_embedding.vectors[index["disgust"]]
            + fixture_embedding.vectors[index["god"]]
        )
        np.testing.assert_allclose(cv.vector, expected, atol=1e-12)
        assert not cv.degenerate

    def test_no_keywords_degenerate(self, fixture_embedding):
        corpus = count_corpus([TokenizedTweet("1", ("nothing", "matches"))])
        cv = context_vectors_for_corpus(corpus, fixture_embedding)[0]
        assert cv.degenerate
        assert cv.skipped == 2
        np.testing.assert_array_equal(cv.vector, 0.0)

    def test_repeats_add(self, fixture_embedding):
        cv = context_vectors_for_corpus(count_corpus([TokenizedTweet("1", ("war", "war"))]), fixture_embedding)[0]
        np.testing.assert_allclose(
            cv.vector, 2.0 * fixture_embedding.vectors[fixture_embedding.words.index["war"]], atol=1e-12
        )
        assert cv.contributing_words == (("war", 2),)

    def test_additivity_of_concatenation(self, fixture_embedding):
        left = TokenizedTweet("l", ("kill", "war", "god"))
        right = TokenizedTweet("r", ("sin", "kill"))
        joint = TokenizedTweet("j", left.tokens + right.tokens)
        combined = context_vectors_for_corpus(count_corpus([joint]), fixture_embedding)[0].vector
        parts = (
            context_vectors_for_corpus(count_corpus([left]), fixture_embedding)[0].vector
            + context_vectors_for_corpus(count_corpus([right]), fixture_embedding)[0].vector
        )
        np.testing.assert_allclose(combined, parts, atol=1e-9)


class TestMfVectors:
    def test_hand_assembly(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        index = fixture_embedding.words.index
        expected_care = fixture_embedding.vectors[index["kill"]] + fixture_embedding.vectors[index["war"]]
        np.testing.assert_allclose(mf[0], expected_care, atol=1e-12)
        assert mf.shape == (len(FOUNDATIONS), 6)

    def test_unmatched_foundation_errors(self, fixture_dict):
        words = ("kill", "war", "unfair", "enemy", "illegal")  # nothing for Purity
        space = EmbeddingSpace(words=Vocabulary(words), vectors=np.eye(5))
        with pytest.raises(DataError, match="Purity"):
            mf_vectors(fixture_dict, space)

    def test_multi_foundation_word_in_both_sums(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        index = fixture_embedding.words.index
        treason = fixture_embedding.vectors[index["treason"]]
        ingroup_without = mf[FOUNDATIONS.index("Ingroup")] - treason
        authority_without = mf[FOUNDATIONS.index("Authority")] - treason
        np.testing.assert_allclose(
            ingroup_without, fixture_embedding.vectors[index["enemy"]], atol=1e-12
        )
        np.testing.assert_allclose(
            authority_without, fixture_embedding.vectors[index["illegal"]], atol=1e-12
        )


class TestTopicVector:
    def selection(self, words):
        return SelectionResult(
            keywords=tuple(words),
            context_words=tuple(words),
            scores={w: float(len(words) - i) for i, w in enumerate(words)},
        )

    def test_no_filtering(self, fixture_embedding):
        words = list(fixture_embedding.words.words)[:5]
        vector = topic_vector(self.selection(words), fixture_embedding, n=5, label="t")
        expected = sum(fixture_embedding.vectors[fixture_embedding.words.index[w]] for w in words)
        np.testing.assert_allclose(vector, expected, atol=1e-12)

    def test_absent_words_skipped(self, fixture_embedding):
        # 3 of the top 6 are absent; survivors among the ranking fill n=3
        words = ["kill", "absent1", "war", "absent2", "absent3", "sin", "god"]
        vector = topic_vector(self.selection(words), fixture_embedding, n=3, label="t")
        index = fixture_embedding.words.index
        expected = (
            fixture_embedding.vectors[index["kill"]]
            + fixture_embedding.vectors[index["war"]]
            + fixture_embedding.vectors[index["sin"]]
        )
        np.testing.assert_allclose(vector, expected, atol=1e-12)

    def test_fewer_survivors_than_n(self, fixture_embedding):
        words = ["kill", "absent1", "absent2"]
        vector = topic_vector(self.selection(words), fixture_embedding, n=10, label="t")
        np.testing.assert_allclose(
            vector, fixture_embedding.vectors[fixture_embedding.words.index["kill"]], atol=1e-12
        )


class TestLoadingMatrix:
    def test_self_similarity_row(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        matrix = loading_matrix(["copy"], mf[0].copy()[None, :], mf)
        assert matrix.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert matrix.shape == (1, 5)

    def test_orthogonal_row_is_zero(self):
        space = orthogonal_embedding()
        mf = space.vectors.copy()
        matrix = loading_matrix(["x"], np.zeros((1, 5)), mf)
        np.testing.assert_array_equal(matrix.values[0], np.zeros(5))

    def test_degenerate_rows_flagged_zero(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        vectors = np.stack([np.zeros(6), fixture_embedding.vectors[fixture_embedding.words.index["god"]]])
        matrix = loading_matrix(["d", "l"], vectors, mf, degenerate=[True, False])
        assert matrix.degenerate == (True, False)
        np.testing.assert_array_equal(matrix.values[0], np.zeros(5))

    def test_values_in_range_and_five_columns(self, fixture_dict, fixture_embedding, rng):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        matrix = loading_matrix([str(i) for i in range(50)], rng.standard_normal((50, 6)), mf)
        assert matrix.shape == (50, 5)
        assert (matrix.values >= -1.0).all() and (matrix.values <= 1.0).all()

    def test_scale_invariance_of_dominant(self, fixture_dict, fixture_embedding, rng):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        vector = rng.standard_normal(6)
        base = loading_matrix(["a"], vector[None, :], mf)
        scaled = loading_matrix(["a"], 37.5 * vector[None, :], mf)
        np.testing.assert_array_equal(dominant_indices(base), dominant_indices(scaled))


class TestScoreCorpus:
    def test_batch_matches_per_tweet_oracle(self, fixture_dict, rng):
        keywords = ("kill", "war", "unfair", "enemy", "illegal", "sin", "disgust", "treason", "pos", "neg")
        vectors = rng.standard_normal((len(keywords), 6))
        vectors[-1] = -vectors[-2]  # "pos" + "neg" cancels to exactly zero
        space = EmbeddingSpace(words=Vocabulary(keywords), vectors=vectors)
        mf = mf_vectors(fixture_dict, space)
        pool = keywords + ("other", "noise", "filler")
        corpus = [
            TokenizedTweet(str(i), tuple(rng.choice(pool, size=rng.integers(0, 9)).tolist()))
            for i in range(300)
        ]
        corpus += [
            TokenizedTweet("cancel", ("pos", "noise", "neg")),
            TokenizedTweet("none", ("other", "filler")),
            TokenizedTweet("empty", ()),
            TokenizedTweet("repeat", ("war", "war", "war", "sin")),
        ]
        matrix = score_corpus(count_corpus(corpus), space, mf)

        for i, tweet in enumerate(corpus):
            found = [space.vectors[space.words.index[t]] for t in tweet.tokens if t in space.words.index]
            assert matrix.row_labels[i] == tweet.id
            assert matrix.degenerate[i] == (not found)
            expected = np.zeros(5)
            if found:
                summed = np.sum(found, axis=0)
                expected = row_cosines(summed, mf)[0]
            np.testing.assert_allclose(matrix.values[i], expected, rtol=0, atol=1e-12)
        assert matrix.degenerate[-4:] == (False, True, True, False)
        np.testing.assert_array_equal(matrix.values[-4], np.zeros(5))

    def test_row_blocks_match_one_batch(self, fixture_dict, fixture_embedding, rng, monkeypatch):
        pool = fixture_embedding.words.words + ("other", "noise")
        corpus = [
            TokenizedTweet(str(i), tuple(rng.choice(pool, size=rng.integers(0, 6)).tolist()))
            for i in range(100)
        ]
        mf = mf_vectors(fixture_dict, fixture_embedding)
        counts = count_corpus(corpus).select(fixture_embedding.words)
        vectors = np.asarray(counts @ fixture_embedding.vectors)
        one_batch = loading_matrix([t.id for t in corpus], vectors, mf, np.diff(counts.indptr) == 0)
        monkeypatch.setattr(mfquant.semantics, "SCORE_BLOCK_ROWS", 7)
        blocked = score_corpus(count_corpus(corpus), fixture_embedding, mf)
        assert any(one_batch.degenerate) and not all(one_batch.degenerate)
        assert blocked.row_labels == one_batch.row_labels
        assert blocked.degenerate == one_batch.degenerate
        np.testing.assert_array_equal(blocked.values, one_batch.values)

    def test_values_do_not_depend_on_the_block_rows(self, fixture_dict, fixture_embedding, rng, monkeypatch):
        """The loadings are the same bytes in blocks of 1 to 7 tweets as in the default blocks."""
        pool = fixture_embedding.words.words + ("other",)
        corpus = [
            TokenizedTweet(str(i), tuple(rng.choice(pool, size=rng.integers(0, 6)).tolist())) for i in range(60)
        ]
        mf = mf_vectors(fixture_dict, fixture_embedding)
        default = score_corpus(count_corpus(corpus), fixture_embedding, mf).values.tobytes()
        for rows in range(1, 8):
            monkeypatch.setattr(mfquant.semantics, "SCORE_BLOCK_ROWS", rows)
            assert score_corpus(count_corpus(corpus), fixture_embedding, mf).values.tobytes() == default, rows

    def test_context_vectors_share_the_batch(self, fixture_embedding):
        corpus = [TokenizedTweet("a", ("war", "x", "sin", "war")), TokenizedTweet("b", ("x",))]
        vectors = context_vectors_for_corpus(count_corpus(corpus), fixture_embedding)
        batch = count_corpus(corpus).select(fixture_embedding.words) @ fixture_embedding.vectors
        np.testing.assert_array_equal(np.stack([cv.vector for cv in vectors]), batch)
        assert dict(vectors[0].contributing_words) == {"war": 2, "sin": 1}
        assert vectors[0].skipped == 1 and vectors[1].degenerate


# writes the bytes of the loadings of a seeded corpus of 5000 tweets, k = 100, to argv[1]
SCORE_SEEDED_CORPUS = """
import sys
import numpy as np
from mfquant.corpus import TokenizedTweet
from mfquant.linalg import EmbeddingSpace
from mfquant.semantics import score_corpus
from mfquant.vectorizer import Vocabulary, count_corpus
rng = np.random.default_rng(5)
words = tuple(f"w{i}" for i in range(300))
space = EmbeddingSpace(words=Vocabulary(words), vectors=rng.standard_normal((len(words), 100)))
corpus = [TokenizedTweet(str(i), tuple(rng.choice(words, size=rng.integers(0, 12)).tolist())) for i in range(5000)]
with open(sys.argv[1], "wb") as out:
    out.write(score_corpus(count_corpus(corpus), space, rng.standard_normal((5, 100))).values.tobytes())
"""


def older_blas_core_type() -> str | None:
    """An older OpenBLAS core type (Sandybridge, Nehalem or Core2) whose instructions this CPU has, or None.

    A forced type whose instructions the CPU lacks can crash the process, so the type is taken from the
    flags ``/proc/cpuinfo`` lists (None where it cannot be read, or lists none of these).
    """
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            flags = next((line.split(":", 1)[1].split() for line in info if line.startswith("flags")), [])
    except OSError:
        return None
    return next((core for core, flag in (("Sandybridge", "avx"), ("Nehalem", "sse4_2"), ("Core2", "ssse3"))
                 if flag in flags), None)


def test_loadings_do_not_depend_on_the_blas_core_type(tmp_path):
    """A child process whose OpenBLAS is forced to an older kernel set (``OPENBLAS_CORETYPE``) writes the
    same loadings bytes as one whose OpenBLAS picks its own."""
    core = older_blas_core_type()
    if core is None:
        pytest.skip("no OpenBLAS core type matches this CPU's flags")
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(mfquant.__file__).parents[1])
    for name, forced in (("own", {}), ("forced", {"OPENBLAS_CORETYPE": core})):
        subprocess.run([sys.executable, "-c", SCORE_SEEDED_CORPUS, str(tmp_path / name)],
                       env={**env, **forced}, check=True, capture_output=True)
    assert (tmp_path / "own").read_bytes() == (tmp_path / "forced").read_bytes()


def loadings_of(rows) -> LoadingMatrix:
    """A LoadingMatrix of ``rows``, none of them degenerate."""
    values = np.array(rows, dtype=np.float64)
    return LoadingMatrix(tuple(map(str, range(len(values)))), values, (False,) * len(values))


class TestDominantFoundation:
    """``dominant_indices``: per row, the foundation with the maximum loading."""

    def test_clear_maximum(self):
        assert dominant_indices(loadings_of([[0.772, -0.016, 0.199, 0.063, 0.113]])).tolist() == [0]

    def test_tie_breaks_canonical(self):
        assert dominant_indices(loadings_of([[0.5, 0.5, 0.0, 0.0, 0.0], [0.0, 0.3, 0.3, 0.0, 0.0]])).tolist() == [0, 1]

    def test_all_zero_unclassified(self):
        assert dominant_indices(loadings_of(np.zeros((1, 5)))).tolist() == [len(FOUNDATIONS)]

    def test_matches_brute_force_scan(self, rng):
        rows = rng.standard_normal((100, 5))
        for row, index in zip(rows, dominant_indices(loadings_of(rows)).tolist()):
            best, best_value = None, -np.inf
            for name, value in zip(FOUNDATIONS, row):
                if value > best_value:
                    best, best_value = name, value
            assert FOUNDATIONS[index] == best

    def test_found_once_per_matrix_for_both_loadings_files(self, rng, tmp_path, monkeypatch):
        """save_loadings and foundation_counts, which the loadings stage calls in turn, read one read-only array."""
        matrix, argmax, calls = loadings_of(rng.standard_normal((50, 5))), np.argmax, []
        monkeypatch.setattr(np, "argmax", lambda *args, **kwargs: calls.append(1) or argmax(*args, **kwargs))
        save_loadings(matrix, tmp_path / "loadings.csv")
        counts = foundation_counts(matrix)
        assert len(calls) == 1 and dominant_indices(matrix) is dominant_indices(matrix)
        assert not dominant_indices(matrix).flags.writeable
        assert sum(counts.values()) == 50


class TestFoundationCounts:
    def test_direct_count(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        vectors = np.tile(mf[0], (3, 1))
        counts = foundation_counts(loading_matrix(["0", "1", "2"], vectors, mf))
        assert counts == {"Care": 3, "Fairness": 0, "Ingroup": 0, "Authority": 0, "Purity": 0}

    def test_counts_sum_to_non_degenerate(self, fixture_dict, fixture_embedding, rng):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        degenerate = np.arange(200) % 10 == 0
        vectors = np.zeros((200, 6))
        for i in np.flatnonzero(~degenerate):
            vectors[i] = rng.standard_normal(6)
        matrix = loading_matrix([str(i) for i in range(200)], vectors, mf, degenerate)
        counts = foundation_counts(matrix)
        assert sum(counts.values()) == sum(1 for d in matrix.degenerate if not d)

    def test_matches_per_row_scan(self, rng, tmp_path):
        values = rng.standard_normal((300, 5))
        values[::7] = 0.0  # all-zero rows
        values[1::7] = [0.4, 0.4, 0.1, -0.2, 0.4]  # exact three-way tie
        values[2::7] = [-0.3, 0.2, 0.0, 0.2, -0.1]  # exact tie after the first column
        values[3::7] = [0.0, 0.0, -0.5, 0.0, -0.1]  # maximum is zero
        degenerate = rng.random(300) < 0.1
        matrix = LoadingMatrix(
            tuple(str(i) for i in range(300)), values, tuple(degenerate.tolist())
        )
        expected = [
            UNCLASSIFIED if flag or not row.any() else FOUNDATIONS[int(np.argmax(row))]
            for row, flag in zip(values, degenerate)
        ]
        oracle = {f: expected.count(f) for f in FOUNDATIONS}
        assert foundation_counts(matrix) == oracle
        save_loadings(matrix, tmp_path / "loadings.csv")
        lines = (tmp_path / "loadings.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [line.split(",")[-2] for line in lines] == expected


class TestMfSimilarityMatrix:
    def test_identical_vectors_all_ones(self):
        v = np.array([1.0, 2.0, 3.0])
        mf = np.tile(v, (len(FOUNDATIONS), 1))
        np.testing.assert_allclose(mf_similarity_matrix(mf), np.ones((5, 5)), atol=1e-12)

    def test_orthogonal_vectors_identity(self):
        space = orthogonal_embedding()
        mf = space.vectors.copy()
        np.testing.assert_array_equal(mf_similarity_matrix(mf), np.eye(5))

    def test_symmetric_unit_diagonal(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        sim = mf_similarity_matrix(mf)
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(sim), np.ones(5), atol=1e-12)


class TestExtendDictionary:
    def test_empty_for_n_zero(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        extended = extend_dictionary(fixture_embedding, mf, 0)
        assert sum(map(len, extended.values())) == 0

    def test_top1_matches_exhaustive_scan(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        extended = extend_dictionary(fixture_embedding, mf, 1)
        for foundation in FOUNDATIONS:
            sims = {
                w: row_cosines(fixture_embedding.vectors[i], mf[FOUNDATIONS.index(foundation)])[0, 0]
                for i, w in enumerate(fixture_embedding.words.words)
            }
            best = max(sorted(sims), key=lambda w: sims[w])
            assert extended[foundation][0][0] == best

    def test_full_size_and_recomputed_similarities(self, fixture_dict, rng):
        words = tuple(f"w{i:03d}" for i in range(150)) + (
            "kill", "war", "unfair", "enemy", "illegal", "sin", "disgust", "treason"
        )
        space = EmbeddingSpace(words=Vocabulary(words), vectors=rng.standard_normal((len(words), 8)))
        mf = mf_vectors(fixture_dict, space)
        extended = extend_dictionary(space, mf, 100)
        assert sum(map(len, extended.values())) == 500
        for foundation in FOUNDATIONS:
            entries = extended[foundation]
            sims = [s for _, s in entries]
            assert all(sims[i] >= sims[i + 1] for i in range(len(sims) - 1))
            for word, sim in entries[:10]:
                row = space.vectors[space.words.index[word]]
                recomputed = row_cosines(row, mf[FOUNDATIONS.index(foundation)])[0, 0]
                assert sim == pytest.approx(recomputed, abs=1e-12)

    def test_n_larger_than_vocab_takes_all(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        extended = extend_dictionary(fixture_embedding, mf, 1000)
        assert sum(map(len, extended.values())) == 5 * len(fixture_embedding.words.words)


class TestViceFrequencyReport:
    def test_matched_word_row(self, fixture_dict, dictionary_report):
        report = dictionary_report(fixture_dict, {"war": 7, "god": 3})
        assert ("war", ("Care",), 7) in report.vice

    def test_unmatched_words_absent(self, fixture_dict, dictionary_report):
        report = dictionary_report(fixture_dict, {"god": 3})
        assert report.vice == []

    def test_fraction_consistent_with_coverage(self, fixture_dict, dictionary_report):
        # read_dictionary_report checks that both files state one fraction
        report = dictionary_report(fixture_dict, {"war": 7, "killing": 2, "sin": 1})
        assert report.fraction == repr(3 / len(fixture_dict.entries))

    def test_multi_foundation_word_listed_once(self, fixture_dict, dictionary_report):
        report = dictionary_report(fixture_dict, {"treasonous": 4})
        assert report.vice == [("treasonous", ("Authority", "Ingroup"), 4)]


def brute_matches(entry, word):
    """Independent matcher: a stem pattern prefixes the word, an exact one equals it."""
    return word.startswith(entry.pattern[:-1]) if entry.pattern.endswith("*") else word == entry.pattern


# a two-letter ASCII alphabet makes nested stems likely; the rest are non-ASCII
LETTERS = "ab\u00e9\u00df\u4e2d"
PATTERNS = st.one_of(
    st.text(LETTERS, min_size=1, max_size=3),
    st.text(LETTERS, max_size=2).map(lambda stem: stem + "*"),  # "" gives the bare "*"
)
DICTIONARY_ROWS = st.lists(
    st.tuples(
        PATTERNS,
        st.lists(st.sampled_from(ALL_FOUNDATIONS), min_size=1, max_size=3, unique=True),
        st.sampled_from(POLARITIES),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(DICTIONARY_ROWS, st.lists(st.text(LETTERS, min_size=1, max_size=4), max_size=12))
def test_matching_agrees_with_brute_force(dictionary_report, rows, drawn_words):
    """One pattern may sit under several foundations, and every stem is also a word."""
    entries = [MFEntry(pattern, f, polarity) for pattern, foundations, polarity in rows for f in foundations]
    dictionary = MFDictionary(entries)
    words = list(dict.fromkeys(drawn_words + [e.stem for e in entries if e.stem]))
    expected = [[float(brute_matches(e, w)) for w in words] for e in entries]
    np.testing.assert_array_equal(
        match_matrix(entries, words).toarray(), np.reshape(expected, (len(entries), len(words)))
    )
    for polarity in POLARITIES:
        matches = [[any(e.foundation == f and e.polarity == polarity and brute_matches(e, w) for e in entries)
                    for w in words] for f in ALL_FOUNDATIONS]
        matrix = foundation_matrix(dictionary, words, polarity)
        assert matrix.dtype == np.float64 and matrix.has_sorted_indices
        np.testing.assert_array_equal(matrix.toarray(), np.reshape(matches, (len(ALL_FOUNDATIONS), len(words))))
        for word in words:
            assert dictionary.match_word(word, polarity) == {
                e.foundation for e in entries if e.polarity == polarity and brute_matches(e, word)
            }

    vice = [e for e in entries if e.polarity == VICE and e.foundation in FOUNDATIONS]
    freqs = {w: 3 * j % 4 for j, w in enumerate(words)}  # ties exercise the report's word order
    if not vice:
        with pytest.raises(LexiconError):
            dictionary_report(dictionary, freqs)
    else:
        report = dictionary_report(dictionary, freqs)
        matched = [sorted(w for w in words if brute_matches(e, w)) for e in vice]
        assert report.coverage == [(e.foundation, e.pattern, m, [freqs[w] for w in m]) for e, m in zip(vice, matched)]
        assert float(report.fraction) == sum(map(bool, matched)) / len(vice)
        by_word = {w: tuple(sorted({e.foundation for e in vice if brute_matches(e, w)})) for w in words}
        report_rows = sorted(((w, f, freqs[w]) for w, f in by_word.items() if f), key=lambda r: (-r[2], r[0]))
        assert report.vice == report_rows

    # small integer embeddings keep every sum exact
    space = EmbeddingSpace(Vocabulary(tuple(words)), (np.arange(3 * len(words)) % 7 - 3.0).reshape(-1, 3))
    hits = [[j for j, w in enumerate(words) if any(e.foundation == f and brute_matches(e, w) for e in vice)]
            for f in FOUNDATIONS]
    if all(hits):
        expected_mf = np.array([space.vectors[h].sum(axis=0) for h in hits])
        np.testing.assert_array_equal(mf_vectors(dictionary, space), expected_mf)
    else:
        with pytest.raises(DataError, match="no keywords match"):
            mf_vectors(dictionary, space)


def oracle_loadings_csv(matrix):
    """loadings.csv as save_loadings wrote it with one f-string per value, kept as its oracle."""
    names = (*FOUNDATIONS, UNCLASSIFIED)
    header = "id,care,fairness,ingroup,authority,purity,dominant,degenerate\n"
    rows = (
        f"{label},{','.join(f'{x:.9g}' for x in values)},{names[index]},{int(flag)}\n"
        for label, values, index, flag in zip(
            matrix.row_labels, matrix.values, dominant_indices(matrix), matrix.degenerate
        )
    )
    return header + "".join(rows)


LOADING_VALUES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.1, 1e-5, -1e-5,
        # either side of 1e-4, where %g switches to exponent notation
        1e-4, -1e-4, 9.99999999e-5, 9.999999999999999e-5, 1.00000001e-4,
    ]),
    st.floats(min_value=-1.0, max_value=1.0),
)


class TestLoadingsPersistence:
    def test_roundtrip(self, fixture_dict, fixture_embedding, tmp_path, rng):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        vectors = np.stack([rng.standard_normal(6), np.zeros(6)])
        matrix = loading_matrix(["a", "b"], vectors, mf, degenerate=[False, True])
        save_loadings(matrix, tmp_path / "loadings.csv")
        loaded = load_loadings(tmp_path / "loadings.csv")
        assert loaded.row_labels == matrix.row_labels
        assert loaded.degenerate == matrix.degenerate
        np.testing.assert_allclose(loaded.values, matrix.values, atol=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.lists(LOADING_VALUES, min_size=5, max_size=5),
                    LOADING_VALUES.map(lambda x: [x] * 5),  # every foundation tied
                ),
                st.booleans(),
            ),
            max_size=12,
        ),
        block=st.integers(1, 5),
    )
    def test_bytes_match_f_string_rows(self, tmp_path_factory, rows, block):
        values = np.array([r[0] for r in rows], dtype=np.float64).reshape(len(rows), 5)
        degenerate = tuple(r[1] for r in rows)
        values[np.asarray(degenerate, dtype=bool)] = 0.0  # as loading_matrix leaves a degenerate row
        matrix = LoadingMatrix(row_labels=tuple(f"t{i}" for i in range(len(rows))), values=values, degenerate=degenerate)
        path = tmp_path_factory.mktemp("loadings") / "loadings.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tables, "LINE_BLOCK", block)  # rows formatted and written at a time
            save_loadings(matrix, path)
        assert path.read_bytes() == oracle_loadings_csv(matrix).encode()
