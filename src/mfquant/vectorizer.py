"""Corpus counts, term weighting and matrix construction.

A deduplicated corpus is counted once, over its sorted vocabulary, into a
tweets x words count matrix, which ingest saves as one CSR archive
(``tables.write_csr``) plus an ids file. Ingest counts as it reads
(``count_unique_tweets``): it keeps the first tweet of each token
sequence and holds only the kept tweets' word ids, one flat buffer for
the corpus; ``count_corpus`` counts a list of tweets the same way. The
overlap score that ranks keywords / context words, a word's tf-idf
(natural log) summed over tweets, is its total count times its idf
(``overlap_scores``), read from the matrix's column indices; no stage
builds the per-entry tf-idf matrix (``tfidf``). The presence-based
word-context co-occurrence matrix (keywords as rows) selects word columns
from the counts (``CorpusCounts.select``), and PPMI (base-2 log, clamped
at zero) is applied to it. The PPMI matrix goes to disk in the same CSR
archive layout (``save_triplets``), so ``tables.read_csr`` checks both.
"""

from __future__ import annotations

import io
import logging
from array import array
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

# rows per block in row_sums: bounds its int64 running sum at one block's stored entries
ROW_SUM_BLOCK = 4096


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


def row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """int64 sum of ``values[indptr[r]:indptr[r + 1]]`` for every row r of a CSR layout.

    Sums ROW_SUM_BLOCK rows at a time, so that no 64-bit copy of all of
    ``values`` is made (``csr_matrix.sum(axis=1)`` makes one).
    """
    sums = np.empty(len(indptr) - 1, dtype=np.int64)
    for start in range(0, len(sums), ROW_SUM_BLOCK):
        bounds = indptr[start:start + ROW_SUM_BLOCK + 1]
        running = np.concatenate(([0], np.cumsum(values[bounds[0]:bounds[-1]], dtype=np.int64)))
        sums[start:start + len(bounds) - 1] = np.diff(running[bounds - bounds[0]])
    return sums


@dataclass
class SelectionResult:
    """Ranked terms: ``keywords`` is always a prefix of ``context_words``."""

    keywords: tuple[str, ...]
    context_words: tuple[str, ...]
    scores: dict[str, float]


@dataclass
class CorpusCounts:
    """A corpus as counts: counts[j, i] = occurrences of word i of ``vocab`` in tweet j.

    ``vocab`` holds every word of the corpus in sorted order, and ``counts``
    is a canonical CSR matrix (sorted indices, no duplicates, no zeros).
    ``ids`` are the tweet ids in row order, or None when the corpus was
    loaded without its ids file.
    """

    vocab: Vocabulary
    counts: sparse.csr_matrix
    ids: tuple[str, ...] | None = None

    @property
    def lengths(self) -> np.ndarray:
        """Kept tokens per tweet: the row sums of ``counts``, as int64."""
        return row_sums(self.counts.data, self.counts.indptr)

    def select(self, words: Vocabulary) -> sparse.csr_matrix:
        """Tweets x ``words`` int64 counts with sorted indices; a word outside the corpus has an empty column.

        Equal to counting each tweet's tokens over ``words`` and dropping the rest.
        """
        positions = map(words.index.get, self.vocab.words, repeat(-1))
        columns = np.fromiter(positions, dtype=np.int32, count=len(self.vocab))
        cols = columns[self.counts.indices]
        keep = cols >= 0
        indptr = np.zeros(self.counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(row_sums(keep, self.counts.indptr), out=indptr[1:])
        cols = cols[keep]
        data = self.counts.data[keep].astype(np.int64)
        selected = sparse.csr_matrix((data, cols, indptr), shape=(self.counts.shape[0], len(words)))
        selected.sort_indices()  # counts @ U_k sums in stored order, so column order fixes its bits
        return selected


def count_corpus(corpus: Sequence[TokenizedTweet]) -> CorpusCounts:
    """Count every tweet's tokens over the corpus's sorted vocabulary, one row per tweet in corpus order."""
    vocab = Vocabulary(tuple(sorted({t for tweet in corpus for t in tweet.tokens})))
    lengths = np.fromiter((len(t.tokens) for t in corpus), dtype=np.int64, count=len(corpus))
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    tokens = map(vocab.index.__getitem__, chain.from_iterable(t.tokens for t in corpus))
    indices = np.fromiter(tokens, dtype=np.int32, count=int(indptr[-1]))
    counts = sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int32), indices, indptr), shape=(len(corpus), len(vocab))
    )
    counts.sum_duplicates()
    return CorpusCounts(vocab=vocab, counts=counts, ids=tuple(t.id for t in corpus))


class _FirstSeenPositions(dict):
    """word -> its position in first-seen order, assigned when a word is first looked up."""

    def __missing__(self, word: str) -> int:
        self[word] = position = len(self)
        return position


def count_unique_tweets(tweets: Iterable[TokenizedTweet]) -> tuple[CorpusCounts, int]:
    """``count_corpus`` of the first tweet of each token sequence, and how many tweets repeat an earlier one.

    Equal to ``count_corpus(deduplicate(list(tweets))[0])`` for ids without
    a line break (ingest rejects those), in one pass that holds one tweet at
    a time: a kept tweet appends its tokens' first-seen word positions to
    one flat buffer, and a repeat is recognised by the bytes of those
    positions. At the end the positions are renumbered to the sorted
    vocabulary.
    """
    positions = _FirstSeenPositions()
    seen: set[bytes] = set()
    flat, indptr = array("i"), array("q", [0])
    # the ids go into one buffer and become strs at the end, packed together: kept one by one,
    # they would be spread among the freed tweets and pin that memory after ingest
    id_lines = io.StringIO()
    removed = 0
    for tweet in tweets:
        row = array("i", map(positions.__getitem__, tweet.tokens))
        key = row.tobytes()
        if key in seen:
            removed += 1
            continue
        seen.add(key)
        flat += row
        indptr.append(len(flat))
        id_lines.write(tweet.id)
        id_lines.write("\n")
    del seen
    ids = tuple(id_lines.getvalue().split("\n")[:-1])
    words = sorted(positions)
    rank = np.empty(len(words), dtype=np.int32)  # first-seen position -> sorted position
    rank[[positions[word] for word in words]] = np.arange(len(words))
    indices = rank[np.frombuffer(flat, dtype=np.intc)]
    del flat
    counts = sparse.csr_matrix(
        (np.ones(len(indices), dtype=np.int32), indices, np.frombuffer(indptr, dtype=np.longlong)),
        shape=(len(ids), len(words)),
    )
    counts.sum_duplicates()
    return CorpusCounts(vocab=Vocabulary(tuple(words)), counts=counts, ids=ids), removed


def save_corpus_counts(corpus: CorpusCounts, counts_path: str | Path, ids_path: str | Path) -> None:
    """Write the counts as one tables.write_csr archive and the ids as ``id<TAB>kept-token count`` lines.

    The archive holds the vocabulary as newline-joined UTF-8 bytes (``vocab``)
    and the counts in the narrowest unsigned integer dtype that holds them.
    """
    counts = corpus.counts
    dtype = np.min_scalar_type(int(counts.data.max(initial=0)))
    tables.write_csr(
        counts_path, sparse.csr_matrix((counts.data.astype(dtype), counts.indices, counts.indptr), shape=counts.shape),
        vocab=np.frombuffer("\n".join(corpus.vocab.words).encode("utf-8"), dtype=np.uint8),
    )
    lengths = corpus.lengths.tolist()
    tables.write_lines(ids_path, (f"{tweet_id}\t{n}" for tweet_id, n in zip(corpus.ids, lengths)))


def load_corpus_counts(counts_path: str | Path, ids_path: str | Path | None = None) -> CorpusCounts:
    """Read a save_corpus_counts archive, and its ids file when ``ids_path`` is given.

    An archive that fails tables.read_csr's checks or holds no unsigned
    counts, a vocabulary that is not sorted and unique, or a column count
    other than its length is a DataError naming the archive. An ids file
    with another row count, or with a kept-token count other than its row's
    sum, is a DataError naming that file.
    """
    counts, arrays = tables.read_csr(counts_path, "u", {"vocab": "u1"})
    try:
        text = arrays["vocab"].tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{counts_path}: vocabulary is not UTF-8: {exc}") from exc
    words = tuple(text.split("\n")) if text else ()
    if any(a >= b for a, b in zip(words, words[1:])):
        raise DataError(f"{counts_path}: vocabulary is not sorted and unique")
    if counts.shape[1] != len(words):
        raise DataError(f"{counts_path}: shape {list(counts.shape)} disagrees with the {len(words)}-word vocabulary")
    corpus = CorpusCounts(vocab=Vocabulary(words), counts=counts)
    if ids_path is not None:
        corpus.ids = _load_ids(ids_path, corpus.lengths, counts_path)
    return corpus


def _load_ids(ids_path: str | Path, sums: np.ndarray, counts_path: str | Path) -> tuple[str, ...]:
    """Tweet ids of an ids file whose kept-token counts equal ``sums``, the row sums of the archive."""
    rows = list(tables.read_rows(ids_path, lambda f: (f[0], int(f[1])), ncols=2))
    if len(rows) != len(sums):
        raise DataError(f"{ids_path}: {len(rows)} ids for the {len(sums)} tweets of {counts_path}")
    ids, lengths = zip(*rows) if rows else ((), ())
    wrong = np.flatnonzero(np.array(lengths, dtype=np.int64) != sums)
    if wrong.size:
        i = int(wrong[0])
        raise DataError(f"{ids_path}:{i + 1}: {lengths[i]} kept tokens, but {counts_path} holds {sums[i]}")
    return ids


def build_word_tweet_matrix(corpus: CorpusCounts) -> SparseCountMatrix:
    """Count matrix X with X[i, j] = occurrences of word i in tweet j.

    Rows follow the corpus's sorted vocabulary and columns its tweets,
    labeled with their ids when the corpus carries them. Raises on a
    corpus of no tweets; a corpus whose tweets are all empty yields a
    0-row matrix with a warning.
    """
    if corpus.counts.shape[0] == 0:
        raise DataError("cannot build word-tweet matrix from an empty corpus")
    if not corpus.vocab.words:
        logger.warning("corpus contains no tokens; word-tweet matrix has 0 rows")
    return SparseCountMatrix(
        row_vocab=corpus.vocab, col_labels=corpus.ids or (), counts=corpus.counts.T.tocsr()
    )


def _idf(df: np.ndarray, n_tweets: int) -> np.ndarray:
    """ln(M + 1) - ln(df) per word, for M tweets; a df of 0 counts as 1."""
    return np.log(n_tweets + 1.0) - np.log(np.maximum(df, 1).astype(np.float64))


def tfidf(matrix: SparseCountMatrix) -> WeightedMatrix:
    """tf * (ln(M + 1) - ln(df)) per nonzero entry; zeros stay zero."""
    counts = matrix.counts
    n_tweets = counts.shape[1]
    if n_tweets < 1:
        raise DataError("tf-idf requires at least one tweet column")
    df = np.diff(counts.indptr)  # nonzeros per row = tweets containing the word
    weights = counts.astype(np.float64)
    if weights.nnz:
        weights.data *= np.repeat(_idf(df, n_tweets), df)
    return WeightedMatrix(
        row_vocab=matrix.row_vocab, col_labels=matrix.col_labels, weights=weights
    )


def overlap_scores(corpus: CorpusCounts) -> dict[str, float]:
    """Per-word tf-idf summed over tweets, in closed form: total count * (ln(M + 1) - ln(df)).

    Words with equal df and total count score bit for bit alike, so
    select_terms ranks them lexicographically. Raises on a corpus of no
    tweets; one whose tweets are all empty scores no words, with a warning.
    """
    n_tweets, n_words = corpus.counts.shape
    if n_tweets == 0:
        raise DataError("cannot score terms of an empty corpus")
    if n_words == 0:
        logger.warning("corpus contains no tokens; no terms to score")
    indices = corpus.counts.indices  # canonical CSR: one entry per (tweet, word)
    df = np.bincount(indices, minlength=n_words)
    tf = np.bincount(indices, weights=corpus.counts.data, minlength=n_words)
    return dict(zip(corpus.vocab.words, (tf * _idf(df, n_tweets)).tolist()))


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


def build_cooccurrence(corpus: CorpusCounts, selection: SelectionResult) -> SparseCountMatrix:
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
    presence = corpus.select(Vocabulary(selection.context_words))
    # the product pairs a keyword with itself in every tweet containing it: drop single occurrences
    once = np.bincount(presence.indices[presence.data == 1], minlength=n1)[:n1]
    presence.data.fill(1)  # the counts become presence in place, sharing their indices
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
    (count * total) / (row sum * column sum), the order ppmi.npz's bytes depend on.
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


def save_triplets(matrix: SparseCountMatrix | WeightedMatrix, path: str | Path) -> None:
    """Persist as a tables.write_csr archive of float64 values (counts exactly) indexing the vocabulary sidecars."""
    mat = matrix.counts if isinstance(matrix, SparseCountMatrix) else matrix.weights
    tables.write_csr(path, mat.astype(np.float64, copy=False))


def save_vocabulary(words: Iterable[str], path: str | Path) -> None:
    tables.write_lines(path, words)


def load_vocabulary(path: str | Path) -> tuple[str, ...]:
    return tuple(f[0] for f in tables.read_rows(path, ncols=1))


def load_triplets(path: str | Path, row_words: tuple[str, ...], col_labels: tuple[str, ...]) -> WeightedMatrix:
    """A save_triplets archive over its vocabulary sidecars; a shape other than their lengths is a DataError."""
    weights, _ = tables.read_csr(path, "<f8", {})
    if weights.shape != (len(row_words), len(col_labels)):
        raise DataError(f"{path}: shape {weights.shape} is not the sidecars' {(len(row_words), len(col_labels))}")
    return WeightedMatrix(row_vocab=Vocabulary(row_words), col_labels=col_labels, weights=weights)


def save_selection(selection: SelectionResult, path: str | Path) -> None:
    """Persist ranked terms as TSV (rank, word, score)."""
    tables.write_lines(path, (
        f"{rank}\t{word}\t{selection.scores[word]!r}"
        for rank, word in enumerate(selection.context_words, start=1)
    ))


def load_selection(path: str | Path, n1: int) -> SelectionResult:
    """Rebuild a SelectionResult from a ranking TSV; keywords are the first n1 rows, and no word may repeat."""
    seen: set[str] = set()

    def parse(fields: list[str]) -> tuple[str, float]:
        if fields[1] in seen:
            raise ValueError(f"word {fields[1]!r} repeats an earlier rank")
        seen.add(fields[1])
        return fields[1], float(fields[2])

    scores = dict(tables.read_rows(path, parse, ncols=3))
    words = tuple(scores)
    return SelectionResult(keywords=words[:n1], context_words=words, scores=scores)
