"""Context vectors and moral loadings.

A text's context vector is the sum of its keywords' embedding vectors
(per occurrence). A corpus is scored as one batch: its tweets x keywords
count matrix times U_k gives every context vector (``corpus_vectors``),
and one row-wise cosine kernel against the five foundation vectors
gives every loading (``loading_matrix``, ``score_corpus``). Loadings are
reported in canonical order (Care, Fairness, Ingroup, Authority, Purity).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from . import tables
from .corpus import TokenizedTweet
from .errors import DataError
from .lexicon import FOUNDATIONS, VICE, CoverageResult, MFDictionary, coverage
from .linalg import EmbeddingSpace, row_cosines
from .vectorizer import SelectionResult, tweet_term_counts

logger = logging.getLogger(__name__)

UNCLASSIFIED = "unclassified"
_DOMINANT_NAMES = np.array([*FOUNDATIONS, UNCLASSIFIED])
_EXTENDED_HEADER = "foundation\trank\tword\tsimilarity"
_FOUNDATION_COLUMNS = ",".join(f.lower() for f in FOUNDATIONS)


@dataclass
class ContextVector:
    """Sum of embedding vectors for a labeled set of contributing words."""

    label: str
    vector: np.ndarray
    contributing_words: tuple[tuple[str, int], ...]
    skipped: int = 0

    @property
    def degenerate(self) -> bool:
        return not self.contributing_words


@dataclass
class LoadingMatrix:
    """Rows x 5 cosine loadings in canonical foundation order."""

    row_labels: tuple[str, ...]
    values: np.ndarray
    degenerate: tuple[bool, ...]
    foundations: tuple[str, ...] = FOUNDATIONS

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class ExtendedDictionary:
    """Per-foundation ranked (word, similarity) lists."""

    per_foundation: dict[str, list[tuple[str, float]]]
    n: int

    @property
    def total_entries(self) -> int:
        return sum(len(v) for v in self.per_foundation.values())


@dataclass
class ViceFrequencyReport:
    """Word-level rows (word, foundations, corpus frequency) plus the coverage fraction."""

    rows: list[tuple[str, tuple[str, ...], int]]
    coverage_fraction: float
    coverage: CoverageResult | None = field(repr=False, default=None)


def corpus_vectors(
    corpus: Sequence[TokenizedTweet], embedding: EmbeddingSpace
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Keyword counts (tweets x keywords) and context vectors counts @ U_k (tweets x k).

    A tweet with no keyword tokens has an empty counts row and is degenerate.
    """
    counts = tweet_term_counts(corpus, embedding.words)
    return counts, np.asarray(counts @ embedding.vectors)


def tweet_vector(tweet: TokenizedTweet, embedding: EmbeddingSpace) -> ContextVector:
    """Sum the embeddings of the tweet's keyword tokens, once per occurrence.

    Non-keyword tokens are skipped and counted; a tweet with no keyword
    tokens yields the zero vector and is flagged degenerate.
    """
    return context_vectors_for_corpus([tweet], embedding)[0]


def mf_vectors(
    dictionary: MFDictionary, embedding: EmbeddingSpace, polarity: str = VICE
) -> dict[str, ContextVector]:
    """One context vector per foundation: the sum of all matching keywords' embeddings.

    A keyword matching several foundations contributes to each of them.
    A foundation matched by no keyword raises DataError (its vector
    would be undefined). MoralityGeneral never produces a vector.
    """
    matched: dict[str, list[str]] = {f: [] for f in FOUNDATIONS}
    for word in embedding.words.words:
        for foundation in dictionary.match_word(word, polarity):
            if foundation in matched:
                matched[foundation].append(word)
    vectors: dict[str, ContextVector] = {}
    for foundation in FOUNDATIONS:
        words = matched[foundation]
        if not words:
            raise DataError(
                f"no keywords match any {polarity} entry of foundation {foundation}; "
                "its context vector is undefined"
            )
        vectors[foundation] = ContextVector(
            label=foundation,
            vector=embedding.vectors[[embedding.words.index[w] for w in words]].sum(axis=0),
            contributing_words=tuple((w, 1) for w in words),
        )
    return vectors


def topic_vector(
    topic_selection: SelectionResult,
    embedding: EmbeddingSpace,
    n: int,
    label: str,
) -> ContextVector:
    """Sum the first n topic words (in score order) that exist in the keyword space.

    Topic words absent from the embedding are skipped and counted; if
    fewer than n survive, all survivors are used with a warning.
    """
    survivors: list[str] = []
    skipped = 0
    for word in topic_selection.context_words:
        if word in embedding.words.index:
            survivors.append(word)
            if len(survivors) == n:
                break
        else:
            skipped += 1
    if len(survivors) < n:
        logger.warning(
            "topic %s: only %d of the requested %d words are in the keyword space",
            label, len(survivors), n,
        )
    return ContextVector(
        label=label,
        vector=embedding.vectors[[embedding.words.index[w] for w in survivors]].sum(axis=0),
        contributing_words=tuple((w, 1) for w in survivors),
        skipped=skipped,
    )


def foundation_matrix(mf: Mapping[str, ContextVector]) -> np.ndarray:
    """5 x k matrix of the foundation vectors in canonical order."""
    return np.array([mf[f].vector for f in FOUNDATIONS], dtype=np.float64)


def loading_matrix(
    labels: Sequence[str],
    vectors: np.ndarray,
    mf: Mapping[str, ContextVector],
    degenerate: Sequence[bool] | np.ndarray | None = None,
) -> LoadingMatrix:
    """Cosine of every row of ``vectors`` against the five foundation vectors.

    Rows flagged in ``degenerate`` (default: none) get an all-zero
    loading row; so does any zero vector.
    """
    flags = np.asarray(np.zeros(len(labels)) if degenerate is None else degenerate, dtype=bool)
    values = row_cosines(vectors, foundation_matrix(mf))
    values[flags] = 0.0
    return LoadingMatrix(row_labels=tuple(labels), values=values, degenerate=tuple(flags.tolist()))


def score_corpus(
    corpus: Sequence[TokenizedTweet], embedding: EmbeddingSpace, mf: Mapping[str, ContextVector]
) -> LoadingMatrix:
    """Loadings of every tweet, one row per tweet in corpus order, as one batch."""
    counts, vectors = corpus_vectors(corpus, embedding)
    degenerate = np.diff(counts.indptr) == 0
    if degenerate.any():
        logger.info("%d of %d tweets have no keywords (degenerate)", degenerate.sum(), len(corpus))
    return loading_matrix([t.id for t in corpus], vectors, mf, degenerate)


def dominant_foundation(row: np.ndarray | Sequence[float]) -> str:
    """Foundation with the maximum loading; canonical order breaks ties.

    An all-zero row carries no signal and returns the ``unclassified``
    sentinel. ``dominant_indices`` is the same rule for a whole matrix.
    """
    values = np.asarray(row, dtype=np.float64)
    if values.shape != (len(FOUNDATIONS),):
        raise ValueError(f"expected {len(FOUNDATIONS)} loadings, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("loadings must be finite")
    if np.all(values == 0.0):
        return UNCLASSIFIED
    return FOUNDATIONS[int(np.argmax(values))]


def dominant_indices(matrix: LoadingMatrix) -> np.ndarray:
    """Per row, the index of its ``dominant_foundation`` in ``(*FOUNDATIONS, UNCLASSIFIED)``.

    Degenerate rows are unclassified.
    """
    index = np.argmax(matrix.values, axis=1)
    index[~matrix.values.any(axis=1) | np.asarray(matrix.degenerate, dtype=bool)] = len(FOUNDATIONS)
    return index


def foundation_counts(matrix: LoadingMatrix) -> dict[str, int]:
    """Histogram of dominant foundations over non-degenerate, classified rows."""
    counts = np.bincount(dominant_indices(matrix), minlength=len(FOUNDATIONS) + 1)
    return dict(zip(FOUNDATIONS, counts.tolist()))


def mf_similarity_matrix(mf: Mapping[str, ContextVector]) -> np.ndarray:
    """Symmetric 5x5 cosine matrix between foundation vectors, unit diagonal."""
    vectors = foundation_matrix(mf)
    return row_cosines(vectors, vectors)


def extend_dictionary(
    embedding: EmbeddingSpace, mf: Mapping[str, ContextVector], n: int
) -> ExtendedDictionary:
    """Top-n keywords by cosine to each foundation vector, ties broken by word.

    A word may repeat across foundations.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    words = embedding.words.words
    if n > len(words):
        logger.warning("requested %d words per foundation but only %d keywords exist", n, len(words))
    sims = row_cosines(embedding.vectors, foundation_matrix(mf))
    word_keys = np.array(words)
    per_foundation = {}
    for j, foundation in enumerate(FOUNDATIONS):
        top = np.lexsort((word_keys, -sims[:, j]))[:n]
        per_foundation[foundation] = list(zip(word_keys[top].tolist(), sims[top, j].tolist()))
    return ExtendedDictionary(per_foundation=per_foundation, n=n)


def vice_frequency_report(
    dictionary: MFDictionary,
    vocabulary_frequencies: Mapping[str, int],
    polarity: str = VICE,
) -> ViceFrequencyReport:
    """Word-level frequency rows for matched dictionary words (word-cloud data).

    ``vocabulary_frequencies`` maps each vocabulary word to its corpus
    occurrence count. Unmatched dictionary entries contribute no rows.
    """
    cov = coverage(dictionary, vocabulary_frequencies, polarity)
    by_word: dict[str, set[str]] = {}
    for item in cov.entries:
        for word in item.matched_words:
            by_word.setdefault(word, set()).add(item.entry.foundation)
    rows = [
        (word, tuple(sorted(foundations)), int(vocabulary_frequencies.get(word, 0)))
        for word, foundations in by_word.items()
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return ViceFrequencyReport(rows=rows, coverage_fraction=cov.fraction, coverage=cov)


def _csv_values(values: np.ndarray) -> str:
    return ",".join(f"{x:.9g}" for x in values)


def save_loadings(
    matrix: LoadingMatrix, path: str | Path
) -> None:
    """CSV: id, care, fairness, ingroup, authority, purity, dominant, degenerate_flag."""

    dominant = _DOMINANT_NAMES[dominant_indices(matrix)]
    rows = (
        f"{label},{_csv_values(values)},{name},{int(flag)}"
        for label, values, name, flag in zip(matrix.row_labels, matrix.values, dominant, matrix.degenerate)
    )
    tables.write_lines(path, rows, header=f"id,{_FOUNDATION_COLUMNS},dominant,degenerate")


def load_loadings(path: str | Path) -> LoadingMatrix:
    """Rebuild a LoadingMatrix from a CSV written by save_loadings."""

    def parse(fields: list[str]) -> tuple[str, list[float], bool]:
        values = [float(x) for x in fields[1:-2]]
        if not all(map(math.isfinite, values)):
            raise ValueError("loadings must be finite")
        return fields[0], values, fields[-1] == "1"

    rows = list(tables.read_rows(
        path, parse, sep=",", ncols=len(FOUNDATIONS) + 3,
        header=f"id,{_FOUNDATION_COLUMNS},dominant,degenerate",
    ))
    labels, values, flags = zip(*rows) if rows else ((), (), ())
    values = np.array(values, dtype=np.float64).reshape(len(rows), len(FOUNDATIONS))
    return LoadingMatrix(row_labels=labels, values=values, degenerate=flags)


def save_topic_loadings(
    matrices: Mapping[int, LoadingMatrix], path: str | Path
) -> None:
    """CSV of topic loadings, one block per keyword-count setting n."""
    rows = (
        f"{label},{n},{_csv_values(values)}"
        for n in sorted(matrices)
        for label, values in zip(matrices[n].row_labels, matrices[n].values)
    )
    tables.write_lines(path, rows, header=f"topic,keywords_used,{_FOUNDATION_COLUMNS}")


def save_extended_dictionary(extended: ExtendedDictionary, path: str | Path) -> None:
    """TSV: foundation, rank, word, similarity."""
    rows = (
        f"{foundation}\t{rank}\t{word}\t{sim:.9g}"
        for foundation in FOUNDATIONS
        for rank, (word, sim) in enumerate(extended.per_foundation[foundation], start=1)
    )
    tables.write_lines(path, rows, header=_EXTENDED_HEADER)


def load_extended_dictionary(path: str | Path) -> ExtendedDictionary:
    """Rebuild an ExtendedDictionary from a TSV written by save_extended_dictionary.

    ``n`` is the length of the longest per-foundation list.
    """
    per_foundation: dict[str, list[tuple[str, float]]] = {}
    rows = tables.read_rows(path, lambda f: (f[0], f[2], float(f[3])), ncols=4, header=_EXTENDED_HEADER)
    for foundation, word, sim in rows:
        per_foundation.setdefault(foundation, []).append((word, sim))
    return ExtendedDictionary(per_foundation, n=max(map(len, per_foundation.values()), default=0))


def save_similarity_matrix(matrix: np.ndarray, path: str | Path) -> None:
    """CSV 5x5 with foundation row/column labels."""
    rows = (f"{foundation},{_csv_values(values)}" for foundation, values in zip(FOUNDATIONS, matrix))
    tables.write_lines(path, rows, header=f"foundation,{_FOUNDATION_COLUMNS}")


def save_foundation_counts(counts: Mapping[str, int], path: str | Path) -> None:
    rows = (f"{foundation},{counts.get(foundation, 0)}" for foundation in FOUNDATIONS)
    tables.write_lines(path, rows, header="foundation,tweets")


def save_vice_report(report: ViceFrequencyReport, path: str | Path) -> None:
    """TSV rows (word, foundations, frequency) preceded by the coverage fraction."""
    rows = (f"{word}\t{'|'.join(foundations)}\t{freq}" for word, foundations, freq in report.rows)
    header = f"# vice_coverage\t{report.coverage_fraction!r}\nword\tfoundations\tfrequency"
    tables.write_lines(path, rows, header=header)


def context_vectors_for_corpus(
    corpus: Sequence[TokenizedTweet], embedding: EmbeddingSpace
) -> list[ContextVector]:
    """One ContextVector per tweet, with its keyword counts, from ``corpus_vectors``."""
    counts, vectors = corpus_vectors(corpus, embedding)
    words = embedding.words.words
    rows = counts.tolil()
    return [
        ContextVector(
            tweet.id, vector, tuple(zip(map(words.__getitem__, cols), n)), len(tweet.tokens) - sum(n)
        )
        for tweet, vector, cols, n in zip(corpus, vectors, rows.rows, rows.data)
    ]


def save_context_vectors(vectors: Sequence[ContextVector], path: str | Path) -> None:
    """TSV: label followed by the k vector values (9 significant digits)."""
    tables.write_vectors(path, [cv.label for cv in vectors], [cv.vector for cv in vectors])


def parse_topic_label(label: str) -> tuple[str, int]:
    """Split a topic vector label ``name:n`` into the topic name and its keyword count n."""
    name, _, n = label.rpartition(":")
    return name, int(n)
