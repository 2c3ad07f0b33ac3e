import numpy as np
import pytest

from mfquant.corpus import TokenizedTweet
from mfquant.errors import DataError
from mfquant.lexicon import FOUNDATIONS, VICE, MFDictionary, MFEntry, coverage
from mfquant.linalg import EmbeddingSpace, cosine
from mfquant.semantics import (
    UNCLASSIFIED,
    ContextVector,
    LoadingMatrix,
    context_vectors_for_corpus,
    corpus_vectors,
    dominant_foundation,
    extend_dictionary,
    foundation_counts,
    load_loadings,
    loading_matrix,
    mf_similarity_matrix,
    mf_vectors,
    save_loadings,
    score_corpus,
    topic_vector,
    tweet_vector,
    vice_frequency_report,
)
from mfquant.vectorizer import SelectionResult, Vocabulary


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
        cv = tweet_vector(tweet, fixture_embedding)
        expected = (
            fixture_embedding.vector("sin")
            + fixture_embedding.vector("disgust")
            + fixture_embedding.vector("god")
        )
        np.testing.assert_allclose(cv.vector, expected, atol=1e-12)
        assert not cv.degenerate

    def test_no_keywords_degenerate(self, fixture_embedding):
        cv = tweet_vector(TokenizedTweet("1", ("nothing", "matches")), fixture_embedding)
        assert cv.degenerate
        assert cv.skipped == 2
        np.testing.assert_array_equal(cv.vector, 0.0)

    def test_repeats_add(self, fixture_embedding):
        cv = tweet_vector(TokenizedTweet("1", ("war", "war")), fixture_embedding)
        np.testing.assert_allclose(
            cv.vector, 2.0 * fixture_embedding.vector("war"), atol=1e-12
        )
        assert cv.contributing_words == (("war", 2),)

    def test_additivity_of_concatenation(self, fixture_embedding):
        left = TokenizedTweet("l", ("kill", "war", "god"))
        right = TokenizedTweet("r", ("sin", "kill"))
        joint = TokenizedTweet("j", left.tokens + right.tokens)
        combined = tweet_vector(joint, fixture_embedding).vector
        parts = (
            tweet_vector(left, fixture_embedding).vector
            + tweet_vector(right, fixture_embedding).vector
        )
        np.testing.assert_allclose(combined, parts, atol=1e-9)


class TestMfVectors:
    def test_hand_assembly(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        expected_care = fixture_embedding.vector("kill") + fixture_embedding.vector("war")
        np.testing.assert_allclose(mf["Care"].vector, expected_care, atol=1e-12)
        assert set(mf) == set(FOUNDATIONS)

    def test_unmatched_foundation_errors(self, fixture_dict):
        words = ("kill", "war", "unfair", "enemy", "illegal")  # nothing for Purity
        space = EmbeddingSpace(words=Vocabulary(words), vectors=np.eye(5))
        with pytest.raises(DataError, match="Purity"):
            mf_vectors(fixture_dict, space)

    def test_multi_foundation_word_in_both_sums(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        treason = fixture_embedding.vector("treason")
        ingroup_without = mf["Ingroup"].vector - treason
        authority_without = mf["Authority"].vector - treason
        np.testing.assert_allclose(
            ingroup_without, fixture_embedding.vector("enemy"), atol=1e-12
        )
        np.testing.assert_allclose(
            authority_without, fixture_embedding.vector("illegal"), atol=1e-12
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
        cv = topic_vector(self.selection(words), fixture_embedding, n=5, label="t")
        expected = sum(fixture_embedding.vector(w) for w in words)
        np.testing.assert_allclose(cv.vector, expected, atol=1e-12)
        assert cv.skipped == 0

    def test_absent_words_skipped(self, fixture_embedding):
        # 3 of the top 6 are absent; survivors among the ranking fill n=3
        words = ["kill", "absent1", "war", "absent2", "absent3", "sin", "god"]
        cv = topic_vector(self.selection(words), fixture_embedding, n=3, label="t")
        expected = (
            fixture_embedding.vector("kill")
            + fixture_embedding.vector("war")
            + fixture_embedding.vector("sin")
        )
        np.testing.assert_allclose(cv.vector, expected, atol=1e-12)
        assert cv.skipped == 3
        assert [w for w, _ in cv.contributing_words] == ["kill", "war", "sin"]

    def test_fewer_survivors_than_n(self, fixture_embedding):
        words = ["kill", "absent1", "absent2"]
        cv = topic_vector(self.selection(words), fixture_embedding, n=10, label="t")
        np.testing.assert_allclose(
            cv.vector, fixture_embedding.vector("kill"), atol=1e-12
        )
        assert len(cv.contributing_words) == 1


class TestLoadingMatrix:
    def test_self_similarity_row(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        matrix = loading_matrix(["copy"], mf["Care"].vector.copy()[None, :], mf)
        assert matrix.values[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert matrix.shape == (1, 5)

    def test_orthogonal_row_is_zero(self):
        space = orthogonal_embedding()
        mf = {
            f: ContextVector(f, space.vectors[i].copy(), ((space.words.words[i], 1),))
            for i, f in enumerate(FOUNDATIONS)
        }
        matrix = loading_matrix(["x"], np.zeros((1, 5)), mf)
        np.testing.assert_array_equal(matrix.values[0], np.zeros(5))

    def test_degenerate_rows_flagged_zero(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        vectors = np.stack([np.zeros(6), fixture_embedding.vector("god")])
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
        assert dominant_foundation(base.values[0]) == dominant_foundation(scaled.values[0])


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
        matrix = score_corpus(corpus, space, mf)

        for i, tweet in enumerate(corpus):
            found = [space.vector(t) for t in tweet.tokens if space.vector(t) is not None]
            assert matrix.row_labels[i] == tweet.id
            assert matrix.degenerate[i] == (not found)
            expected = np.zeros(5)
            if found:
                summed = np.sum(found, axis=0)
                expected = np.array([cosine(summed, mf[f].vector) for f in FOUNDATIONS])
            np.testing.assert_allclose(matrix.values[i], expected, rtol=0, atol=1e-12)
        assert matrix.degenerate[-4:] == (False, True, True, False)
        np.testing.assert_array_equal(matrix.values[-4], np.zeros(5))

    def test_context_vectors_share_the_batch(self, fixture_embedding):
        corpus = [TokenizedTweet("a", ("war", "x", "sin", "war")), TokenizedTweet("b", ("x",))]
        vectors = context_vectors_for_corpus(corpus, fixture_embedding)
        _, batch = corpus_vectors(corpus, fixture_embedding)
        np.testing.assert_array_equal(np.stack([cv.vector for cv in vectors]), batch)
        assert dict(vectors[0].contributing_words) == {"war": 2, "sin": 1}
        assert vectors[0].skipped == 1 and vectors[1].degenerate


class TestDominantFoundation:
    def test_clear_maximum(self):
        assert dominant_foundation([0.772, -0.016, 0.199, 0.063, 0.113]) == "Care"

    def test_tie_breaks_canonical(self):
        assert dominant_foundation([0.5, 0.5, 0.0, 0.0, 0.0]) == "Care"
        assert dominant_foundation([0.0, 0.3, 0.3, 0.0, 0.0]) == "Fairness"

    def test_all_zero_unclassified(self):
        assert dominant_foundation(np.zeros(5)) == UNCLASSIFIED

    def test_matches_brute_force_scan(self, rng):
        for _ in range(100):
            row = rng.standard_normal(5)
            best, best_value = None, -np.inf
            for name, value in zip(FOUNDATIONS, row):
                if value > best_value:
                    best, best_value = name, value
            assert dominant_foundation(row) == best

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            dominant_foundation([0.1, 0.2])
        with pytest.raises(ValueError):
            dominant_foundation([np.nan, 0, 0, 0, 0])


class TestFoundationCounts:
    def test_direct_count(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        vectors = np.tile(mf["Care"].vector, (3, 1))
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

    def test_matches_dominant_foundation_loop(self, rng, tmp_path):
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
            UNCLASSIFIED if flag else dominant_foundation(row)
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
        mf = {f: ContextVector(f, v.copy(), (("w", 1),)) for f in FOUNDATIONS}
        np.testing.assert_allclose(mf_similarity_matrix(mf), np.ones((5, 5)), atol=1e-12)

    def test_orthogonal_vectors_identity(self):
        space = orthogonal_embedding()
        mf = {
            f: ContextVector(f, space.vectors[i].copy(), ((space.words.words[i], 1),))
            for i, f in enumerate(FOUNDATIONS)
        }
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
        assert extended.total_entries == 0

    def test_top1_matches_exhaustive_scan(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        extended = extend_dictionary(fixture_embedding, mf, 1)
        for foundation in FOUNDATIONS:
            sims = {
                w: cosine(fixture_embedding.vector(w), mf[foundation].vector)
                for w in fixture_embedding.words.words
            }
            best = max(sorted(sims), key=lambda w: sims[w])
            assert extended.per_foundation[foundation][0][0] == best

    def test_full_size_and_recomputed_similarities(self, fixture_dict, rng):
        words = tuple(f"w{i:03d}" for i in range(150)) + (
            "kill", "war", "unfair", "enemy", "illegal", "sin", "disgust", "treason"
        )
        space = EmbeddingSpace(words=Vocabulary(words), vectors=rng.standard_normal((len(words), 8)))
        mf = mf_vectors(fixture_dict, space)
        extended = extend_dictionary(space, mf, 100)
        assert extended.total_entries == 500
        for foundation in FOUNDATIONS:
            entries = extended.per_foundation[foundation]
            sims = [s for _, s in entries]
            assert all(sims[i] >= sims[i + 1] for i in range(len(sims) - 1))
            for word, sim in entries[:10]:
                recomputed = cosine(space.vector(word), mf[foundation].vector)
                assert sim == pytest.approx(recomputed, abs=1e-12)

    def test_n_larger_than_vocab_takes_all(self, fixture_dict, fixture_embedding):
        mf = mf_vectors(fixture_dict, fixture_embedding)
        extended = extend_dictionary(fixture_embedding, mf, 1000)
        assert extended.total_entries == 5 * len(fixture_embedding.words.words)


class TestViceFrequencyReport:
    def test_matched_word_row(self, fixture_dict):
        report = vice_frequency_report(fixture_dict, {"war": 7, "god": 3})
        assert ("war", ("Care",), 7) in report.rows

    def test_unmatched_words_absent(self, fixture_dict):
        report = vice_frequency_report(fixture_dict, {"god": 3})
        assert all(word != "god" for word, _, _ in report.rows)

    def test_fraction_consistent_with_coverage(self, fixture_dict):
        vocab = {"war": 7, "killing": 2, "sin": 1}
        report = vice_frequency_report(fixture_dict, vocab)
        assert report.coverage_fraction == coverage(fixture_dict, vocab, VICE).fraction

    def test_multi_foundation_word_listed_once(self, fixture_dict):
        report = vice_frequency_report(fixture_dict, {"treasonous": 4})
        assert ("treasonous", ("Authority", "Ingroup"), 4) in report.rows


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
