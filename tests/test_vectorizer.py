import math
import random
import tempfile
from itertools import chain, repeat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from mfquant.corpus import TokenizedTweet
from mfquant import linalg, tables, vectorizer
from mfquant.errors import DataError
from mfquant.vectorizer import (
    ROW_SUM_BLOCK,
    CorpusCounts,
    SelectionResult,
    TweetIds,
    Vocabulary,
    WeightedMatrix,
    build_cooccurrence,
    build_word_tweet_matrix,
    count_corpus,
    load_corpus_counts,
    load_ranked_words,
    load_selection,
    load_triplets,
    overlap_scores,
    ppmi,
    save_corpus_counts,
    save_selection,
    save_triplets,
    select_terms,
    tfidf,
)


def tweets(*token_lists):
    return [TokenizedTweet(str(i), tuple(toks)) for i, toks in enumerate(token_lists)]


def random_corpus(n_tweets, vocab_size=30, max_len=12, seed=7):
    rng = random.Random(seed)
    words = [f"w{i:03d}" for i in range(vocab_size)]
    return tweets(*[
        [rng.choice(words) for _ in range(rng.randint(1, max_len))]
        for _ in range(n_tweets)
    ])


def tweet_term_counts(corpus, vocab):
    """Tweets x vocab int64 matrix: M[j, i] = occurrences of word i in tweet j, built
    from the tokens through COO; tokens outside ``vocab`` are dropped."""
    lengths = np.fromiter((len(t.tokens) for t in corpus), dtype=np.int64, count=len(corpus))
    columns = map(vocab.index.get, chain.from_iterable(t.tokens for t in corpus), repeat(-1))
    cols = np.fromiter(columns, dtype=np.int32, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(corpus), dtype=np.int32), lengths)
    keep = cols >= 0
    return sparse.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int64), (rows[keep], cols[keep])),
        shape=(len(corpus), len(vocab)),
    )


def dense_counts_oracle(corpus):
    """Nested-loop word-tweet counter over a sorted vocabulary."""
    vocab = sorted({t for tweet in corpus for t in tweet.tokens})
    index = {w: i for i, w in enumerate(vocab)}
    dense = np.zeros((len(vocab), len(corpus)), dtype=np.int64)
    for j, tweet in enumerate(corpus):
        for token in tweet.tokens:
            dense[index[token], j] += 1
    return vocab, dense


def dense_tfidf_oracle(dense):
    """Direct per-entry evaluation of tf * (ln(M+1) - ln(df))."""
    n_words, n_tweets = dense.shape
    out = np.zeros_like(dense, dtype=np.float64)
    for i in range(n_words):
        df = int(np.count_nonzero(dense[i]))
        for j in range(n_tweets):
            if dense[i, j]:
                out[i, j] = dense[i, j] * (math.log(n_tweets + 1) - math.log(df))
    return out


def dense_ppmi_oracle(dense):
    """Direct per-entry evaluation of max(log2(P(i,j)/(P(i)P(j))), 0)."""
    total = dense.sum()
    row = dense.sum(axis=1)
    col = dense.sum(axis=0)
    out = np.zeros_like(dense, dtype=np.float64)
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            if dense[i, j]:
                p_ij = dense[i, j] / total
                p_i = row[i] / total
                p_j = col[j] / total
                out[i, j] = max(math.log2(p_ij / (p_i * p_j)), 0.0)
    return out


def brute_cooccurrence_oracle(corpus, keywords, context_words):
    """O(M * N1 * N2) pair enumeration over tweets."""
    out = np.zeros((len(keywords), len(context_words)), dtype=np.int64)
    for tweet in corpus:
        counts = {}
        for t in tweet.tokens:
            counts[t] = counts.get(t, 0) + 1
        for i, kw in enumerate(keywords):
            for j, cw in enumerate(context_words):
                if kw == cw:
                    out[i, j] += 1 if counts.get(kw, 0) >= 2 else 0
                elif counts.get(kw, 0) >= 1 and counts.get(cw, 0) >= 1:
                    out[i, j] += 1
    return out


class TestWordTweetMatrix:
    def test_direct_counts(self):
        matrix = build_word_tweet_matrix(count_corpus(tweets(["a", "b", "a"], ["b"])))
        dense = matrix.counts.toarray()
        idx = matrix.row_vocab.index
        assert dense[idx["a"], 0] == 2
        assert dense[idx["b"], 0] == 1
        assert dense[idx["b"], 1] == 1
        assert dense.sum() == 4

    def test_empty_corpus_errors(self):
        with pytest.raises(DataError):
            build_word_tweet_matrix(count_corpus([]))

    def test_all_empty_tweets_give_zero_rows(self):
        matrix = build_word_tweet_matrix(count_corpus(tweets([])))
        assert matrix.shape == (0, 1)

    def test_matches_brute_force_counter(self):
        corpus = random_corpus(100)
        matrix = build_word_tweet_matrix(count_corpus(corpus))
        vocab, dense = dense_counts_oracle(corpus)
        assert matrix.row_vocab.words == tuple(vocab)
        np.testing.assert_array_equal(matrix.counts.toarray(), dense)


class TestTfidf:
    def test_single_cell(self):
        matrix = build_word_tweet_matrix(count_corpus(tweets(["abc"])))
        weighted = tfidf(matrix)
        assert weighted.weights.toarray()[0, 0] == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self):
        # tf=2, M=4, df=2 -> 2 (ln 5 - ln 2)
        corpus = tweets(["x", "x"], ["x"], ["y"], ["y"])
        weighted = tfidf(build_word_tweet_matrix(count_corpus(corpus)))
        idx = weighted.row_vocab.index
        assert weighted.weights.toarray()[idx["x"], 0] == pytest.approx(
            2 * (math.log(5) - math.log(2)), abs=1e-12
        )

    def test_zeros_preserved_and_pattern_kept(self):
        corpus = random_corpus(40)
        matrix = build_word_tweet_matrix(count_corpus(corpus))
        weighted = tfidf(matrix)
        assert (weighted.weights.indptr == matrix.counts.indptr).all()
        assert (weighted.weights.indices == matrix.counts.indices).all()
        assert (weighted.weights.data > 0).all()

    def test_matches_dense_oracle(self):
        corpus = random_corpus(100)
        weighted = tfidf(build_word_tweet_matrix(count_corpus(corpus)))
        _, dense = dense_counts_oracle(corpus)
        np.testing.assert_allclose(
            weighted.weights.toarray(), dense_tfidf_oracle(dense), atol=1e-12
        )


class TestOverlapScores:
    def test_single_entry(self):
        assert overlap_scores(count_corpus(tweets(["abc"])))["abc"] == pytest.approx(math.log(2))

    def test_zero_row_scores_zero(self):
        corpus = tweets(["a"], [])
        scores = overlap_scores(count_corpus(corpus))
        assert set(scores) == {"a"}

    def test_matches_dense_row_sums(self):
        corpus = random_corpus(100)
        counts = count_corpus(corpus)
        scores = overlap_scores(counts)
        vocab, dense = dense_counts_oracle(corpus)
        assert counts.vocab.words == tuple(vocab)
        oracle = dense_tfidf_oracle(dense).sum(axis=1)
        for i, word in enumerate(counts.vocab.words):
            assert scores[word] == pytest.approx(oracle[i], abs=1e-12)

    def test_equal_document_and_total_counts_tie_exactly(self):
        # b and d: df=2, tf=3; x: df=2, tf=2; a, c and y: df=1, tf=1; read back from the archive as uint8 counts
        corpus = tweets(["d", "b", "b", "c"], ["d", "d", "b", "x"], ["a", "x"], ["y"])
        scores = overlap_scores(saved_and_loaded(corpus))
        assert scores["b"] == scores["d"] == pytest.approx(3 * (math.log(5) - math.log(2)), abs=1e-12)
        assert scores["a"] == scores["c"] == scores["y"] == pytest.approx(math.log(5), abs=1e-12)
        assert select_terms(scores, 2, 6).context_words == ("b", "d", "x", "a", "c", "y")

    def test_corpus_without_tokens_scores_nothing(self, caplog):
        assert overlap_scores(count_corpus(tweets([], []))) == {}
        assert "corpus contains no tokens" in caplog.text

    def test_ranking_invariant_under_log_base(self):
        corpus = random_corpus(80, seed=11)
        scores_ln = overlap_scores(count_corpus(corpus))
        scores_log2 = {w: s / math.log(2) for w, s in scores_ln.items()}
        rank_ln = sorted(scores_ln, key=lambda w: (-scores_ln[w], w))
        rank_log2 = sorted(scores_log2, key=lambda w: (-scores_log2[w], w))
        assert rank_ln == rank_log2


class TestSelectTerms:
    def test_direct_ranking(self):
        result = select_terms({"a": 3.0, "b": 2.0, "c": 1.0}, 1, 2)
        assert result.keywords == ("a",)
        assert result.context_words == ("a", "b")

    def test_tie_breaks_lexicographic(self):
        result = select_terms({"b": 1.0, "a": 1.0}, 1, 2)
        assert result.keywords == ("a",)

    def test_prefix_property_on_large_random_scores(self):
        rng = random.Random(3)
        scores = {f"w{i:05d}": rng.random() for i in range(30000)}
        result = select_terms(scores, 2000, 20000)
        assert result.keywords == result.context_words[:2000]
        oracle = sorted(scores, key=lambda w: (-scores[w], w))
        assert list(result.context_words) == oracle[:20000]

    def test_n1_greater_than_n2_errors(self):
        with pytest.raises(DataError):
            select_terms({"a": 1.0}, 2, 1)

    def test_truncation_when_vocabulary_small(self):
        result = select_terms({"a": 1.0, "b": 0.5}, 1, 10)
        assert result.context_words == ("a", "b")


class TestCooccurrence:
    def test_hand_enumeration(self):
        corpus = tweets(["a", "b"], ["a", "b"], ["a", "c"])
        sel = SelectionResult(("a",), ("a", "b", "c"), {"a": 3.0, "b": 2.0, "c": 1.0})
        matrix = build_cooccurrence(count_corpus(corpus), sel)
        dense = matrix.counts.toarray()
        assert dense[0, 0] == 0  # 'a' never repeats within a tweet
        assert dense[0, 1] == 2
        assert dense[0, 2] == 1

    def test_one_token_tweets_all_zero(self):
        corpus = tweets(["a"], ["b"], ["c"])
        sel = SelectionResult(("a", "b"), ("a", "b", "c"), {"a": 3, "b": 2, "c": 1})
        assert build_cooccurrence(count_corpus(corpus), sel).counts.toarray().sum() == 0

    def test_same_word_needs_two_occurrences(self):
        corpus = tweets(["a", "a", "b"])
        sel = SelectionResult(("a", "b"), ("a", "b"), {"a": 2, "b": 1})
        dense = build_cooccurrence(count_corpus(corpus), sel).counts.toarray()
        assert dense[0, 0] == 1  # 'a' twice in one tweet
        assert dense[1, 1] == 0  # 'b' only once
        assert dense[0, 1] == 1 and dense[1, 0] == 1

    def test_matches_brute_force_pair_counter(self):
        corpus = random_corpus(100, vocab_size=20, seed=5)
        scores = overlap_scores(count_corpus(corpus))
        sel = select_terms(scores, 8, 15)
        matrix = build_cooccurrence(count_corpus(corpus), sel)
        oracle = brute_cooccurrence_oracle(corpus, sel.keywords, sel.context_words)
        np.testing.assert_array_equal(matrix.counts.toarray(), oracle)

    def test_order_independent(self):
        corpus = random_corpus(60, vocab_size=15, seed=9)
        scores = overlap_scores(count_corpus(corpus))
        sel = select_terms(scores, 5, 10)
        forward = build_cooccurrence(count_corpus(corpus), sel).counts.toarray()
        backward = build_cooccurrence(count_corpus(list(reversed(corpus))), sel).counts.toarray()
        np.testing.assert_array_equal(forward, backward)

    def test_empty_selection_errors(self):
        with pytest.raises(DataError):
            build_cooccurrence(count_corpus(tweets(["a"])), SelectionResult((), (), {}))


class TestPpmi:
    def from_dense(self, dense):
        from scipy import sparse

        from mfquant.vectorizer import SparseCountMatrix, Vocabulary

        dense = np.asarray(dense, dtype=np.int64)
        return SparseCountMatrix(
            row_vocab=Vocabulary(tuple(f"w{i}" for i in range(dense.shape[0]))),
            col_labels=tuple(f"c{j}" for j in range(dense.shape[1])),
            counts=sparse.csr_matrix(dense),
        )

    def test_diagonal_example(self):
        weighted = ppmi(self.from_dense([[2, 0], [0, 2]]))
        dense = weighted.weights.toarray()
        assert dense[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert dense[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert dense[0, 1] == 0.0 and dense[1, 0] == 0.0

    def test_independence_gives_zero(self):
        # rank-one counts: C_ij proportional to row_i * col_j -> PMI = 0 everywhere
        dense = np.outer([1, 2, 3], [2, 1, 1])
        weighted = ppmi(self.from_dense(dense))
        np.testing.assert_allclose(weighted.weights.toarray(), 0.0, atol=1e-12)

    def test_negative_pmi_clamped(self):
        dense = np.array([[1, 9], [9, 1]])
        weighted = ppmi(self.from_dense(dense))
        out = weighted.weights.toarray()
        assert out[0, 0] == 0.0 and out[1, 1] == 0.0
        assert (out >= 0).all()

    def test_zero_matrix_errors(self):
        with pytest.raises(DataError):
            ppmi(self.from_dense(np.zeros((2, 2), dtype=int)))

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            dense = rng.integers(0, 5, size=(12, 17))
            if dense.sum() == 0:
                continue
            weighted = ppmi(self.from_dense(dense))
            np.testing.assert_allclose(
                weighted.weights.toarray(), dense_ppmi_oracle(dense), atol=1e-12
            )


def random_counts(n_tweets, n_words, seed):
    """A corpus of int32 counts from 1 to 3, where every seventh word occurs at most once in a tweet
    but in more tweets than the others, so that it ranks among the keywords."""
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 4, size=(n_tweets, n_words)) * (rng.random((n_tweets, n_words)) < 0.03)
    dense[:, ::7] = rng.random((n_tweets, len(range(0, n_words, 7)))) < 0.08
    vocab = Vocabulary(tuple(f"w{i:04d}" for i in range(n_words)))
    return CorpusCounts(vocab=vocab, counts=sparse.csr_matrix(dense.astype(np.int32)))


def whole_array_cooccurrence(corpus, selection):
    """Co-occurrence counts with the single occurrences subtracted as an int64 diagonal matrix."""
    n1 = len(selection.keywords)
    presence = corpus.select(Vocabulary(selection.context_words))
    once = np.bincount(presence.indices[presence.data == 1], minlength=n1)[:n1]
    presence.data.fill(1)
    counts = presence[:, :n1].T.tocsr() @ presence
    counts -= sparse.diags(once, shape=counts.shape, dtype=np.int64)
    counts.eliminate_zeros()
    return counts


def whole_array_ppmi(counts):
    """PPMI from scipy's sums, with the denominators of every entry formed at once."""
    total = float(counts.sum())
    row_sums = np.asarray(counts.sum(axis=1)).ravel().astype(np.float64)
    col_sums = np.asarray(counts.sum(axis=0)).ravel().astype(np.float64)
    weights = counts.astype(np.float64)
    denominators = np.repeat(row_sums, np.diff(weights.indptr))
    denominators *= col_sums[weights.indices]
    pmi = weights.data
    pmi *= total
    pmi /= denominators
    np.log2(pmi, out=pmi)
    np.maximum(pmi, 0.0, out=pmi)
    weights.eliminate_zeros()
    return weights


def canonical_bytes(matrix, dtype):
    matrix = matrix.copy()
    matrix.sort_indices()
    return [matrix.indptr.astype(np.int64).tobytes(), matrix.indices.astype(np.int32).tobytes(),
            matrix.data.astype(dtype).tobytes()]


def test_matrix_stage_equals_the_whole_array_formulas_bit_for_bit(tmp_path, monkeypatch):
    """The in-place diagonal and the blocked PPMI give the bytes of the whole-array formulas,
    and save_triplets hands write_csr the PPMI matrix itself, already canonical."""
    corpus = random_counts(400, 700, seed=11)
    selection = select_terms(overlap_scores(corpus), 300, 600)
    assert len(selection.keywords) > 2 * vectorizer.PPMI_BLOCK_ROWS
    cooc = build_cooccurrence(corpus, selection)
    oracle = whole_array_cooccurrence(corpus, selection)
    assert cooc.counts.dtype == np.int32 and cooc.counts.has_canonical_format
    assert canonical_bytes(cooc.counts, np.int64) == canonical_bytes(oracle, np.int64)
    diagonal = oracle.diagonal()
    assert (diagonal == 0).any() and (diagonal > 0).any()  # some diagonals are zeroed, some kept

    weighted = ppmi(cooc)
    assert canonical_bytes(weighted.weights, np.float64) == canonical_bytes(whole_array_ppmi(oracle), np.float64)
    write_csr, received = vectorizer.tables.write_csr, []

    def recording_write_csr(path, matrix, **arrays):
        received.append((matrix, matrix.has_canonical_format, np.count_nonzero(matrix.data) == matrix.nnz))
        return write_csr(path, matrix, **arrays)

    monkeypatch.setattr(vectorizer.tables, "write_csr", recording_write_csr)
    save_triplets(weighted, tmp_path / "ppmi.npz")
    assert received == [(weighted.weights, True, True)]


class TestPersistence:
    def test_triplet_roundtrip(self, tmp_path):
        corpus = random_corpus(30, vocab_size=10, seed=2)
        scores = overlap_scores(count_corpus(corpus))
        sel = select_terms(scores, 4, 8)
        counts = build_cooccurrence(count_corpus(corpus), sel)
        weighted = ppmi(counts)
        empty_rows = WeightedMatrix(
            Vocabulary(("a", "b", "c", "d")), ("x", "y", "z"),
            sparse.csr_matrix([[0.0, 0.0, 0.0], [1.5, 0.0, 2.25], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        for matrix, source in ((weighted, weighted.weights), (counts, counts.counts), (empty_rows, empty_rows.weights)):
            save_triplets(matrix, tmp_path / "m.npz")
            loaded = load_triplets(tmp_path / "m.npz", matrix.row_vocab.words, matrix.col_labels)
            assert loaded.row_vocab.words == matrix.row_vocab.words
            assert loaded.col_labels == matrix.col_labels
            assert loaded.weights.dtype == np.float64
            np.testing.assert_array_equal(loaded.weights.toarray(), source.toarray())

    def test_loaded_weights_view_the_archive_map(self, tmp_path):
        """scipy's csr_matrix constructor copies an array that views less than half of its base; each array
        read_csr returns has a base of its own size, so the PPMI weights keep viewing the archive's read-only
        map, from which gram_matrix hands back the rows it has passed."""
        weights = sparse.random(50, 400, density=0.1, format="csr", random_state=4)
        labels = (Vocabulary(tuple(f"r{i:02d}" for i in range(50))), tuple(f"c{i:03d}" for i in range(400)))
        save_triplets(WeightedMatrix(*labels, weights), tmp_path / "m.npz")
        loaded = load_triplets(tmp_path / "m.npz", labels[0].words, labels[1]).weights
        for array in (loaded.data, loaded.indices):
            assert linalg._read_only_map(array) is not None and not array.flags.writeable
        np.testing.assert_array_equal(loaded.toarray(), weights.toarray())

    def test_non_canonical_input_saved_as_canonical_and_left_unmodified(self, tmp_path):
        # row 0 holds column 2 twice and out of order; row 1 is empty
        messy = sparse.csr_matrix(
            (np.array([1.5, 0.25, 2.0, 0.5]), np.array([2, 0, 2, 1]), np.array([0, 3, 3, 4])), shape=(3, 3)
        )
        arrays = [a.copy() for a in (messy.data, messy.indices, messy.indptr)]
        canonical = messy.copy()
        canonical.sum_duplicates()
        labels = (Vocabulary(("a", "b", "c")), ("x", "y", "z"))
        save_triplets(WeightedMatrix(*labels, messy), tmp_path / "messy.npz")
        save_triplets(WeightedMatrix(*labels, canonical), tmp_path / "canonical.npz")
        assert (tmp_path / "messy.npz").read_bytes() == (tmp_path / "canonical.npz").read_bytes()
        for before, after in zip(arrays, (messy.data, messy.indices, messy.indptr)):
            np.testing.assert_array_equal(after, before)
        loaded = load_triplets(tmp_path / "messy.npz", ("a", "b", "c"), ("x", "y", "z"))
        np.testing.assert_array_equal(loaded.weights.toarray(), [[0.25, 0.0, 3.5], [0.0, 0.0, 0.0], [0.0, 0.5, 0.0]])

    @pytest.mark.parametrize("rows,cols", [(("a", "b"), ("x", "y", "z")), (("a", "b", "c"), ("x", "y"))])
    def test_shape_other_than_the_sidecars_names_path(self, tmp_path, rows, cols):
        labels = (Vocabulary(("a", "b", "c")), ("x", "y", "z"))
        save_triplets(WeightedMatrix(*labels, sparse.csr_matrix(np.eye(3))), tmp_path / "m.npz")
        with pytest.raises(DataError, match=r"m\.npz: shape \(3, 3\) is not the word lists' \(\d, \d\)"):
            load_triplets(tmp_path / "m.npz", rows, cols)

    def test_repeated_selection_word_names_path_and_line(self, tmp_path):
        (tmp_path / "sel.tsv").write_text("1\ta\t3.0\n2\tb\t2.0\n3\ta\t1.5\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"sel\.tsv:3: word 'a' repeats an earlier rank"):
            load_selection(tmp_path / "sel.tsv", 2)

    def test_selection_roundtrip(self, tmp_path):
        sel = select_terms({"a": 3.0, "b": 2.0, "c": 1.5}, 2, 3)
        save_selection(sel, tmp_path / "sel.tsv")
        loaded = load_selection(tmp_path / "sel.tsv", 2)
        assert loaded.keywords == sel.keywords
        assert loaded.context_words == sel.context_words
        assert loaded.scores == sel.scores

    @pytest.mark.parametrize("n1,n2", [(2, 3), (2, 5), (4, 6)])  # three words: select ranks fewer than 5 or 4
    def test_ranked_words_equal_the_loaded_selection(self, tmp_path, n1, n2):
        sel = select_terms({"a": 3.0, "b": 2.0, "c": 1.5}, n1, n2)
        save_selection(sel, tmp_path / "sel.tsv")
        loaded = load_selection(tmp_path / "sel.tsv", n1)
        assert load_ranked_words(tmp_path / "sel.tsv", n1) == loaded.keywords
        assert load_ranked_words(tmp_path / "sel.tsv") == loaded.context_words == sel.context_words

    def test_ranked_words_read_no_row_after_the_first_n(self, tmp_path):
        (tmp_path / "sel.tsv").write_text("1\ta\t3.0\n2\tb\t2.0\n3\ta\tnot a score\n", encoding="utf-8")
        assert load_ranked_words(tmp_path / "sel.tsv", 2) == ("a", "b")
        with pytest.raises(DataError, match=r"sel\.tsv:3: word 'a' repeats an earlier rank"):
            load_ranked_words(tmp_path / "sel.tsv")


def saved_and_loaded(corpus):
    """``count_corpus(corpus)`` written by save_corpus_counts and read back with its ids."""
    with tempfile.TemporaryDirectory() as tmp:
        save_corpus_counts(count_corpus(corpus), Path(tmp) / "c.npz", Path(tmp) / "c.tsv")
        return load_corpus_counts(Path(tmp) / "c.npz", Path(tmp) / "c.tsv")


def assert_same_counts(found, expected):
    assert found.shape == expected.shape
    assert (found != expected).nnz == 0


# a few common words plus arbitrary letters, so tweets repeat words and share some
WORDS = st.one_of(
    st.sampled_from(("war", "sin", "kill", "ünfair")), st.text(st.characters(categories=("L",)), min_size=1, max_size=3)
)


class TestCorpusCounts:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(WORDS, max_size=8), max_size=10), st.lists(WORDS, unique=True, max_size=8))
    def test_saved_counts_and_selections_equal_the_token_oracle(self, token_lists, words):
        corpus = tweets(*token_lists)
        loaded = saved_and_loaded(corpus)
        assert loaded.ids == tuple(t.id for t in corpus)
        assert loaded.vocab.words == tuple(sorted({w for toks in token_lists for w in toks}))
        assert_same_counts(loaded.counts, tweet_term_counts(corpus, loaded.vocab))
        selection = Vocabulary(tuple(words))  # words absent from the corpus included
        for source in (count_corpus(corpus), loaded):
            selected = source.select(selection)
            assert selected.has_sorted_indices and selected.dtype == np.int32
            assert_same_counts(selected, tweet_term_counts(corpus, selection))

    def test_counts_above_255_survive(self):
        corpus = tweets(["war"] * 300 + ["sin"], ["war"] * 70000)
        loaded = saved_and_loaded(corpus)
        assert loaded.counts.dtype == np.uint32
        assert_same_counts(loaded.counts, tweet_term_counts(corpus, loaded.vocab))
        assert loaded.select(Vocabulary(("war",))).toarray().ravel().tolist() == [300, 70000]

    def test_corpus_of_empty_tweets_roundtrips(self):
        loaded = saved_and_loaded(tweets([], [], []))
        assert loaded.ids == ("0", "1", "2") and loaded.vocab.words == ()
        assert loaded.counts.shape == (3, 0)
        assert loaded.select(Vocabulary(("war",))).shape == (3, 1)

    def test_corpus_of_no_tweets_roundtrips_and_cannot_be_selected_from(self):
        loaded = saved_and_loaded([])
        assert loaded.ids == () and loaded.counts.shape == (0, 0)
        with pytest.raises(DataError, match="empty corpus"):
            build_word_tweet_matrix(loaded)

    def test_word_tweet_matrix_is_the_transposed_oracle(self):
        corpus = random_corpus(80, seed=4)
        matrix = build_word_tweet_matrix(saved_and_loaded(corpus))
        oracle = tweet_term_counts(corpus, matrix.row_vocab).T.tocsr()
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(matrix.counts, name), getattr(oracle, name))
        assert matrix.col_labels == tuple(t.id for t in corpus)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(st.characters(exclude_characters="\n"), max_size=4), max_size=12),
    st.integers(-14, 14), st.integers(-14, 14), st.sampled_from((1, 2, -1, -3)),
)
def test_tweet_ids_index_and_slice_like_their_tuple(ids, start, stop, step):
    """Characters of 1 to 4 UTF-8 bytes, and line breaks other than "\\n", sit inside one id."""
    found, expected = TweetIds.from_text("".join(f"{i}\n" for i in ids)), tuple(ids)
    assert len(found) == len(expected) and found == expected and list(found) == list(expected)
    assert found[start:stop:step] == list(expected[start:stop:step])
    assert [found[i] for i in range(-len(ids), len(ids))] == list(expected * 2)
    with pytest.raises(IndexError):
        found[len(ids)]


# rows [max, max, 1] and [1, 0, max] overflow the archive's dtype when summed in it; rows 0, 2 and 4 are empty
@pytest.mark.parametrize("block", [1, 2, ROW_SUM_BLOCK])
@pytest.mark.parametrize("top,rows", [(255, 5), (65535, 5), (255, 0)], ids=["uint8", "uint16", "no-rows"])
def test_lengths_are_the_row_sums_of_the_archive(tmp_path, monkeypatch, block, top, rows):
    monkeypatch.setattr(vectorizer, "ROW_SUM_BLOCK", block)
    dense = np.array([[0, 0, 0], [top, top, 1], [0, 0, 0], [1, 0, top], [0, 0, 0]])[:rows]
    corpus = CorpusCounts(
        Vocabulary(("a", "b", "c")), sparse.csr_matrix(dense.reshape(rows, 3)), tuple(map(str, range(rows)))
    )
    save_corpus_counts(corpus, tmp_path / "c.npz", tmp_path / "c.tsv")
    loaded = load_corpus_counts(tmp_path / "c.npz", tmp_path / "c.tsv")
    assert loaded.counts.dtype == np.min_scalar_type(top if rows else 0)
    lengths = loaded.lengths
    assert lengths.dtype == np.int64
    assert lengths.tolist() == np.asarray(loaded.counts.sum(axis=1)).ravel().tolist() == dense.sum(axis=1).tolist()


def counts_archive(path, sums):
    """A save_corpus_counts archive of one word whose rows sum to ``sums``."""
    counts = sparse.csr_matrix(np.array(sums).reshape(-1, 1))
    save_corpus_counts(CorpusCounts(Vocabulary(("w",)), counts, tuple(map(str, sums))), path, path.with_suffix(".tsv"))


def test_ids_file_error_names_the_line_after_a_blank_line(tmp_path):
    counts_archive(tmp_path / "c.npz", [1, 2, 3])
    (tmp_path / "c.tsv").write_text("a\t1\n\nb\t2\nc\t9\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"c\.tsv:4: 9 kept tokens, but .*c\.npz holds 3$"):
        load_corpus_counts(tmp_path / "c.npz", tmp_path / "c.tsv")


# a table of LINE_BLOCK + 1 rows, written in two blocks: a blank line on line 3, the last line without its
# line break, and each bad row on line LINE_BLOCK + 2
IDS_ROWS = tables.LINE_BLOCK + 1
BAD_IDS_ROWS = {
    "three fields": ("t\t1\t1", "expected 2 fields, got 3"),
    "one field": ("t", "expected 2 fields, got 1"),
    "no count": ("t\tx1", "invalid literal for int"),
    "count too large": ("t\t99999999999999999999", "9{20} kept tokens, but .* holds 1"),
    "another count": ("t\t2", "2 kept tokens, but .* holds 1"),
}


@pytest.mark.parametrize("bad", [None, *BAD_IDS_ROWS])
def test_ids_file_errors_name_their_line(tmp_path, bad):
    counts_archive(tmp_path / "c.npz", [1] * IDS_ROWS)
    rows = [f"{i} é\t1" for i in range(IDS_ROWS)]
    if bad is not None:
        rows[tables.LINE_BLOCK] = BAD_IDS_ROWS[bad][0]
    (tmp_path / "c.tsv").write_text("\n".join(rows[:2] + [""] + rows[2:]), encoding="utf-8")
    if bad is None:
        loaded = load_corpus_counts(tmp_path / "c.npz", tmp_path / "c.tsv")
        assert loaded.ids == [row.split("\t")[0] for row in rows]
    else:
        with pytest.raises(DataError, match=rf"c\.tsv:{tables.LINE_BLOCK + 2}: {BAD_IDS_ROWS[bad][1]}"):
            load_corpus_counts(tmp_path / "c.npz", tmp_path / "c.tsv")


def test_ids_file_writer_formats_a_block_of_lines_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "LINE_BLOCK", 2)
    counts = CorpusCounts(Vocabulary(("w",)), sparse.csr_matrix(np.array([[3], [0], [1], [7], [2]])), tuple("abcde"))
    save_corpus_counts(counts, tmp_path / "c.npz", tmp_path / "c.tsv")
    assert (tmp_path / "c.tsv").read_text(encoding="utf-8") == "a\t3\nb\t0\nc\t1\nd\t7\ne\t2\n"


class TestVocabulary:
    def test_a_repeated_word_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="unique"):
            Vocabulary(("war", "sin", "war"))

    def test_index_is_built_when_first_read(self):
        vocab = Vocabulary(("war", "sin"))
        assert "index" not in vars(vocab)
        assert len(vocab) == 2 and "index" not in vars(vocab)
        assert "sin" in vocab and "kill" not in vocab
        assert vars(vocab)["index"] == vocab.index == {"war": 0, "sin": 1}
        assert vocab == Vocabulary(("war", "sin")) and hash(vocab) == hash(Vocabulary(("war", "sin")))
        assert repr(vocab) == "Vocabulary(words=('war', 'sin'))"


def whole_array_select(corpus, words):
    """CorpusCounts.select through a column of every stored entry, a mask and the filtered copies."""
    columns = np.fromiter(map(words.index.get, corpus.vocab.words, repeat(-1)), dtype=np.int32, count=len(corpus.vocab))
    cols = columns[corpus.counts.indices]
    keep = cols >= 0
    indptr = np.zeros(corpus.counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(vectorizer.row_sums(keep, corpus.counts.indptr), out=indptr[1:])
    data = corpus.counts.data[keep].astype(np.int32)
    selected = sparse.csr_matrix((data, cols[keep], indptr), shape=(corpus.counts.shape[0], len(words)))
    selected.sort_indices()
    return selected


def whole_array_overlap_scores(corpus):
    """overlap_scores with df and tf each from one np.bincount over every stored entry."""
    n_tweets, n_words = corpus.counts.shape
    df = np.bincount(corpus.counts.indices, minlength=n_words)
    tf = np.bincount(corpus.counts.indices, weights=corpus.counts.data, minlength=n_words)
    return dict(zip(corpus.vocab.words, (tf * vectorizer._idf(df, n_tweets)).tolist()))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(WORDS, max_size=8), min_size=1, max_size=12), st.lists(WORDS, unique=True, max_size=8),
    st.integers(1, 9),
)
def test_blocked_select_and_scores_equal_the_whole_array_formulas(token_lists, words, block):
    """Blocks of a few entries split rows anywhere, a row across several blocks included."""
    corpus, selection = count_corpus(tweets(*token_lists)), Vocabulary(tuple(words))
    with mock.patch.object(tables, "CHECK_BLOCK", block):
        selected, scores = corpus.select(selection), overlap_scores(corpus)
    expected = whole_array_select(corpus, selection)
    assert selected.shape == expected.shape and selected.has_sorted_indices
    for found, oracle in ((selected.indptr, expected.indptr), (selected.indices, expected.indices),
                          (selected.data, expected.data)):
        assert found.dtype == oracle.dtype and found.tolist() == oracle.tolist()
    assert scores == whole_array_overlap_scores(corpus)


COMPRESS_IDS = ("1", "ünfair", "", "4\t", "5")


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.text(st.characters(exclude_characters="\n"), max_size=3), st.booleans()), max_size=20))
@example(rows=[(i, True) for i in COMPRESS_IDS])  # all kept
@example(rows=[(i, False) for i in COMPRESS_IDS])  # none kept
@example(rows=list(zip(COMPRESS_IDS, (False, True, True, True, False))))  # first and last dropped
@example(rows=list(zip(COMPRESS_IDS, (True, False, True, False, True))))
def test_compress_keeps_the_ids_of_the_kept_rows(rows):
    found = TweetIds.from_text("".join(f"{i}\n" for i, _ in rows)).compress(np.array([k for _, k in rows], dtype=bool))
    assert found == TweetIds.from_text("".join(f"{i}\n" for i, k in rows if k))
    assert list(found) == [i for i, k in rows if k]
