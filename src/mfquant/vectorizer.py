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

    def keyword_vocab(self) -> Vocabulary:
        return Vocabulary(self.keywords)

    def context_vocab(self) -> Vocabulary:
        return Vocabulary(self.context_words)


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
    rows: list[int] = []
    cols: list[int] = []
    data: list[int] = []
    for j, tweet in enumerate(corpus):
        seen: dict[int, int] = {}
        for token in tweet.tokens:
            i = vocab.index[token]
            seen[i] = seen.get(i, 0) + 1
        rows.extend(seen.keys())
        cols.extend([j] * len(seen))
        data.extend(seen.values())
    counts = sparse.coo_matrix(
        (data, (rows, cols)), shape=(len(vocab), len(corpus)), dtype=np.int64
    ).tocsr()
    return SparseCountMatrix(
        row_vocab=vocab,
        col_labels=tuple(t.id for t in corpus),
        counts=counts,
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

    A keyword paired with itself as a context word counts tweets where
    the word occurs at least twice. Keywords that never co-occur produce
    zero rows (flagged in the log).
    """
    if not selection.keywords or not selection.context_words:
        raise DataError("selection is empty; nothing to co-occur")
    kw_vocab = selection.keyword_vocab()
    ctx_vocab = selection.context_vocab()
    row_chunks: list[np.ndarray] = []
    col_chunks: list[np.ndarray] = []
    for tweet in corpus:
        counts: dict[str, int] = {}
        for token in tweet.tokens:
            counts[token] = counts.get(token, 0) + 1
        kw_words = [w for w in counts if w in kw_vocab.index]
        ctx_words = [w for w in counts if w in ctx_vocab.index]
        if not kw_words or not ctx_words:
            continue
        kw_idx = np.array([kw_vocab.index[w] for w in kw_words], dtype=np.int32)
        ctx_idx = np.array([ctx_vocab.index[w] for w in ctx_words], dtype=np.int32)
        # context-space position of each keyword, for same-word pair detection
        kw_in_ctx = np.array(
            [ctx_vocab.index.get(w, -1) for w in kw_words], dtype=np.int32
        )
        rows = np.repeat(kw_idx, len(ctx_idx))
        cols = np.tile(ctx_idx, len(kw_idx))
        same = np.repeat(kw_in_ctx, len(ctx_idx)) == cols
        repeated = np.array([counts[w] >= 2 for w in kw_words], dtype=bool)
        keep = ~same | np.repeat(repeated, len(ctx_idx))
        row_chunks.append(rows[keep])
        col_chunks.append(cols[keep])
    if row_chunks:
        all_rows = np.concatenate(row_chunks)
        all_cols = np.concatenate(col_chunks)
    else:
        all_rows = np.empty(0, dtype=np.int32)
        all_cols = np.empty(0, dtype=np.int32)
    counts_mat = sparse.coo_matrix(
        (np.ones(len(all_rows), dtype=np.int64), (all_rows, all_cols)),
        shape=(len(kw_vocab), len(ctx_vocab)),
    ).tocsr()
    empty_rows = int(np.sum(np.diff(counts_mat.indptr) == 0))
    if empty_rows:
        logger.warning("%d keywords have no co-occurrences (zero rows)", empty_rows)
    return SparseCountMatrix(
        row_vocab=kw_vocab, col_labels=ctx_vocab.words, counts=counts_mat
    )


def ppmi(matrix: SparseCountMatrix) -> WeightedMatrix:
    """max(log2(P(i,j) / (P(i) P(j))), 0) per nonzero entry; zero counts stay zero."""
    counts = matrix.counts.tocoo()
    total = float(matrix.counts.sum())
    if total <= 0:
        raise DataError("co-occurrence matrix is all zero; PPMI undefined")
    row_sums = np.asarray(matrix.counts.sum(axis=1)).ravel().astype(np.float64)
    col_sums = np.asarray(matrix.counts.sum(axis=0)).ravel().astype(np.float64)
    values = counts.data.astype(np.float64)
    pmi = np.log2(values * total / (row_sums[counts.row] * col_sums[counts.col]))
    np.maximum(pmi, 0.0, out=pmi)
    weights = sparse.coo_matrix((pmi, (counts.row, counts.col)), shape=matrix.shape).tocsr()
    weights.eliminate_zeros()
    return WeightedMatrix(
        row_vocab=matrix.row_vocab, col_labels=matrix.col_labels, weights=weights
    )


def save_triplets(
    matrix: SparseCountMatrix | WeightedMatrix, path: str | Path
) -> None:
    """Persist as TSV triplets (row_word, col_label, value) in CSR order.

    Integer counts are written as integers, weights as ``repr(float)``.
    """
    mat = matrix.counts if isinstance(matrix, SparseCountMatrix) else matrix.weights
    mat = mat.tocsr()
    if not mat.has_sorted_indices:
        mat = mat.sorted_indices()
    render = str if np.issubdtype(mat.dtype, np.integer) else repr
    cols = matrix.col_labels
    bounds = mat.indptr[1:-1]
    per_row = zip(matrix.row_vocab.words, np.split(mat.indices, bounds), np.split(mat.data, bounds))
    tables.write_lines(path, (
        f"{word}\t{cols[j]}\t{render(value)}"
        for word, row_cols, row_values in per_row
        for j, value in zip(row_cols.tolist(), row_values.tolist())
    ))


def save_vocabulary(words: Iterable[str], path: str | Path) -> None:
    tables.write_lines(path, words)


def load_vocabulary(path: str | Path) -> tuple[str, ...]:
    return tuple(f[0] for f in tables.read_rows(path, ncols=1))


def load_triplets(
    path: str | Path, row_words: tuple[str, ...], col_labels: tuple[str, ...]
) -> WeightedMatrix:
    """Rebuild a weighted matrix from triplet TSV plus its vocabulary sidecars."""
    row_vocab = Vocabulary(row_words)
    row_index = row_vocab.index
    col_index = {c: i for i, c in enumerate(col_labels)}
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []

    def parse(fields: list[str]) -> None:
        # appends in place: a tuple per entry would slow a 1M-line read by a quarter
        word, col, value = fields
        try:
            rows.append(row_index[word])
            cols.append(col_index[col])
        except KeyError:
            raise ValueError("label not in vocabulary sidecar") from None
        data.append(float(value))

    for _ in tables.read_rows(path, parse, ncols=3):
        pass
    weights = sparse.coo_matrix(
        (data, (rows, cols)), shape=(len(row_words), len(col_labels))
    ).tocsr()
    return WeightedMatrix(row_vocab=row_vocab, col_labels=col_labels, weights=weights)


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
