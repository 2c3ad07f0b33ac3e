"""Term weighting and matrix construction.

Builds the word-tweet count matrix, converts it to tf-idf weights
(natural log), ranks words by overlap score (row sum of tf-idf), selects
keywords / context words, builds the presence-based word-context
co-occurrence matrix (keywords as rows), and applies PPMI (base-2 log,
clamped at zero).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from . import tables
from .corpus import TokenizedTweet
from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Vocabulary:
    """Ordered set of unique words with a word -> position index."""

    words: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {w: i for i, w in enumerate(self.words)}
        if len(index) != len(self.words):
            raise ValueError("vocabulary words must be unique")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index


@dataclass
class SparseCountMatrix:
    """Nonnegative integer counts; rows are words, columns tweets or context words."""

    row_vocab: Vocabulary
    col_labels: tuple[str, ...]
    counts: sparse.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.counts.todense())


@dataclass
class WeightedMatrix:
    """Real-valued weights sharing a SparseCountMatrix's indices."""

    row_vocab: Vocabulary
    col_labels: tuple[str, ...]
    weights: sparse.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.weights.todense())


@dataclass
class SelectionResult:
    """Ranked terms: ``keywords`` is always a prefix of ``context_words``."""

    keywords: tuple[str, ...]
    context_words: tuple[str, ...]
    scores: dict[str, float]


def tweet_term_counts(corpus: Sequence[TokenizedTweet], vocab: Vocabulary) -> sparse.csr_matrix:
    """Tweets x vocab int64 matrix: M[j, i] = occurrences of word i in tweet j.

    Tokens outside ``vocab`` are dropped, so a tweet with none of its
    words has an empty row.
    """
    lengths = np.fromiter((len(t.tokens) for t in corpus), dtype=np.int64, count=len(corpus))
    columns = map(vocab.index.get, chain.from_iterable(t.tokens for t in corpus), repeat(-1))
    cols = np.fromiter(columns, dtype=np.int32, count=int(lengths.sum()))
    rows = np.repeat(np.arange(len(corpus), dtype=np.int32), lengths)
    keep = cols >= 0
    return sparse.csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int64), (rows[keep], cols[keep])),
        shape=(len(corpus), len(vocab)),
    )


def build_word_tweet_matrix(corpus: Sequence[TokenizedTweet]) -> SparseCountMatrix:
    """Count matrix X with X[i, j] = occurrences of word i in tweet j.

    Vocabulary covers every token seen at least once, ordered
    lexicographically for determinism. Raises on an empty corpus; a
    corpus whose tweets are all empty yields a 0-row matrix with a
    warning.
    """
    if not corpus:
        raise DataError("cannot build word-tweet matrix from an empty corpus")
    vocab = Vocabulary(tuple(sorted({t for tweet in corpus for t in tweet.tokens})))
    if not vocab.words:
        logger.warning("corpus contains no tokens; word-tweet matrix has 0 rows")
    return SparseCountMatrix(
        row_vocab=vocab,
        col_labels=tuple(t.id for t in corpus),
        counts=tweet_term_counts(corpus, vocab).T.tocsr(),
    )


def tfidf(matrix: SparseCountMatrix) -> WeightedMatrix:
    """tf * (ln(M + 1) - ln(df)) per nonzero entry; zeros stay zero."""
    counts = matrix.counts
    n_tweets = counts.shape[1]
    if n_tweets < 1:
        raise DataError("tf-idf requires at least one tweet column")
    df = np.diff(counts.indptr)  # nonzeros per row = tweets containing the word
    weights = counts.astype(np.float64)
    if weights.nnz:
        idf_per_row = np.log(n_tweets + 1.0) - np.log(np.maximum(df, 1).astype(np.float64))
        weights.data *= np.repeat(idf_per_row, df)
    return WeightedMatrix(
        row_vocab=matrix.row_vocab, col_labels=matrix.col_labels, weights=weights
    )


def overlap_scores(weighted: WeightedMatrix) -> dict[str, float]:
    """Per-word importance: sum of tf-idf weights across all tweets."""
    sums = np.asarray(weighted.weights.sum(axis=1)).ravel()
    return {word: float(sums[i]) for i, word in enumerate(weighted.row_vocab.words)}


def select_terms(scores: dict[str, float], n1: int, n2: int) -> SelectionResult:
    """Top n1 words as keywords and top n2 as context words.

    Ranking is by descending score with lexicographic tie-break. n1 and
    n2 are truncated (with a warning) if the vocabulary is smaller.
    """
    if n1 > n2:
        raise DataError(f"keyword count n1={n1} cannot exceed context count n2={n2}")
    if n1 < 0:
        raise DataError("n1 must be nonnegative")
    ranked = sorted(scores, key=lambda w: (-scores[w], w))
    if n2 > len(ranked):
        logger.warning(
            "requested %d context words but vocabulary has only %d; truncating",
            n2, len(ranked),
        )
        n2 = len(ranked)
        n1 = min(n1, n2)
    context = tuple(ranked[:n2])
    keywords = tuple(ranked[:n1])
    return SelectionResult(
        keywords=keywords,
        context_words=context,
        scores={w: scores[w] for w in context},
    )


def build_cooccurrence(
    corpus: Sequence[TokenizedTweet], selection: SelectionResult
) -> SparseCountMatrix:
    """Presence-based co-occurrence: C[i, j] = tweets containing keyword i and context word j.

    With P the tweets x context-words presence matrix, C = P[:, :n1]^T P,
    since the keywords are the first n1 context words. A keyword paired
    with itself counts tweets where the word occurs at least twice.
    Keywords that never co-occur produce zero rows (flagged in the log).
    """
    if not selection.keywords or not selection.context_words:
        raise DataError("selection is empty; nothing to co-occur")
    n1 = len(selection.keywords)
    if selection.context_words[:n1] != selection.keywords:
        raise DataError("keywords must be a prefix of the context words")
    counts = tweet_term_counts(corpus, Vocabulary(selection.context_words))
    presence = counts.sign()
    # the product pairs a keyword with itself in every tweet containing it: drop single occurrences
    once = np.bincount(counts.indices[counts.data == 1], minlength=n1)[:n1]
    counts_mat = presence[:, :n1].T.tocsr() @ presence
    counts_mat -= sparse.diags(once, shape=counts_mat.shape, dtype=np.int64)
    counts_mat.eliminate_zeros()
    empty_rows = int(np.sum(np.diff(counts_mat.indptr) == 0))
    if empty_rows:
        logger.warning("%d keywords have no co-occurrences (zero rows)", empty_rows)
    return SparseCountMatrix(
        row_vocab=Vocabulary(selection.keywords), col_labels=selection.context_words, counts=counts_mat
    )


def ppmi(matrix: SparseCountMatrix) -> WeightedMatrix:
    """max(log2(P(i,j) / (P(i) P(j))), 0) per nonzero entry; zero counts stay zero.

    Computed in place on a float64 copy of the counts, as
    (count * total) / (row sum * column sum), the order ppmi.npy's bytes depend on.
    """
    counts = matrix.counts
    total = float(counts.sum())
    if total <= 0:
        raise DataError("co-occurrence matrix is all zero; PPMI undefined")
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
    return WeightedMatrix(
        row_vocab=matrix.row_vocab, col_labels=matrix.col_labels, weights=weights
    )


TRIPLET_DTYPE = np.dtype([("row", "<i4"), ("col", "<i4"), ("value", "<f8")])


def save_triplets(matrix: SparseCountMatrix | WeightedMatrix, path: str | Path) -> None:
    """Persist as one ``.npy`` array of TRIPLET_DTYPE (row, col, value) entries in CSR order.

    Rows and columns index the vocabulary sidecars; integer counts become exact float64 values.
    """
    mat = matrix.counts if isinstance(matrix, SparseCountMatrix) else matrix.weights
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    triplets = np.empty(mat.nnz, dtype=TRIPLET_DTYPE)
    triplets["row"] = np.repeat(np.arange(mat.shape[0], dtype=np.int32), np.diff(mat.indptr))
    triplets["col"] = mat.indices
    triplets["value"] = mat.data
    tables.write_array(path, triplets)


def save_vocabulary(words: Iterable[str], path: str | Path) -> None:
    tables.write_lines(path, words)


def load_vocabulary(path: str | Path) -> tuple[str, ...]:
    return tuple(f[0] for f in tables.read_rows(path, ncols=1))


def load_triplets(
    path: str | Path, row_words: tuple[str, ...], col_labels: tuple[str, ...]
) -> WeightedMatrix:
    """Rebuild a weighted matrix from a save_triplets array plus its vocabulary sidecars.

    Indices outside the sidecars, entries out of strictly increasing (row, col)
    order (so also duplicates) and non-finite values are DataErrors naming the path.
    """
    triplets = tables.read_array(path, TRIPLET_DTYPE)
    rows, cols, values = (np.ascontiguousarray(triplets[name]) for name in TRIPLET_DTYPE.names)
    n_rows, n_cols = len(row_words), len(col_labels)
    if ((rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)).any():
        raise DataError(f"{path}: index outside the {n_rows} x {n_cols} vocabulary sidecars")
    if (np.diff(rows * np.int64(n_cols) + cols) <= 0).any():
        raise DataError(f"{path}: entries not in strictly increasing (row, col) order")
    if not np.isfinite(values).all():
        raise DataError(f"{path}: non-finite value")
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    weights = sparse.csr_matrix((values, cols, indptr), shape=(n_rows, n_cols))
    return WeightedMatrix(row_vocab=Vocabulary(row_words), col_labels=col_labels, weights=weights)


def save_selection(selection: SelectionResult, path: str | Path) -> None:
    """Persist ranked terms as TSV (rank, word, score)."""
    tables.write_lines(path, (
        f"{rank}\t{word}\t{selection.scores[word]!r}"
        for rank, word in enumerate(selection.context_words, start=1)
    ))


def load_selection(path: str | Path, n1: int) -> SelectionResult:
    """Rebuild a SelectionResult from a ranking TSV; keywords are the first n1 rows."""
    scores = dict(tables.read_rows(path, lambda f: (f[1], float(f[2])), ncols=3))
    words = tuple(scores)
    return SelectionResult(keywords=words[:n1], context_words=words, scores=scores)
