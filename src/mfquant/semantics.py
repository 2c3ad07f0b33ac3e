"""Context vectors and moral loadings.

A text's context vector is the sum of its keywords' embedding vectors
(per occurrence). Moral loadings are cosine similarities against the
five foundation context vectors, reported in canonical order (Care,
Fairness, Ingroup, Authority, Purity).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import tables
from .corpus import TokenizedTweet
from .errors import DataError
from .lexicon import FOUNDATIONS, VICE, CoverageResult, MFDictionary, coverage
from .linalg import EmbeddingSpace, cosine
from .vectorizer import SelectionResult

logger = logging.getLogger(__name__)

UNCLASSIFIED = "unclassified"
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


def tweet_vector(tweet: TokenizedTweet, embedding: EmbeddingSpace) -> ContextVector:
    """Sum the embeddings of the tweet's keyword tokens, once per occurrence.

    Non-keyword tokens are skipped and counted; a tweet with no keyword
    tokens yields the zero vector and is flagged degenerate.
    """
    counts: dict[str, int] = {}
    skipped = 0
    for token in tweet.tokens:
        if token in embedding.words.index:
            counts[token] = counts.get(token, 0) + 1
        else:
            skipped += 1
    vector = np.zeros(embedding.k, dtype=np.float64)
    if counts:
        idx = np.array([embedding.words.index[w] for w in counts], dtype=np.intp)
        weights = np.array(list(counts.values()), dtype=np.float64)
        vector = weights @ embedding.vectors[idx]
    return ContextVector(
        label=tweet.id,
        vector=vector,
        contributing_words=tuple(counts.items()),
        skipped=skipped,
    )


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
        idx = np.array([embedding.words.index[w] for w in words], dtype=np.intp)
        vectors[foundation] = ContextVector(
            label=foundation,
            vector=embedding.vectors[idx].sum(axis=0),
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
    vector = np.zeros(embedding.k, dtype=np.float64)
    if survivors:
        idx = np.array([embedding.words.index[w] for w in survivors], dtype=np.intp)
        vector = embedding.vectors[idx].sum(axis=0)
    return ContextVector(
        label=label,
        vector=vector,
        contributing_words=tuple((w, 1) for w in survivors),
        skipped=skipped,
    )


def loading_matrix(
    rows: Sequence[ContextVector], mf: Mapping[str, ContextVector]
) -> LoadingMatrix:
    """Cosine of every row vector against the five foundation vectors.

    Degenerate rows get an all-zero loading row and a flag. Values are
    clipped to [-1, 1] to absorb floating-point overshoot.
    """
    mf_vecs = [mf[f].vector for f in FOUNDATIONS]
    values = np.zeros((len(rows), len(FOUNDATIONS)), dtype=np.float64)
    flags: list[bool] = []
    for i, row in enumerate(rows):
        flags.append(row.degenerate)
        if row.degenerate:
            continue
        for j, mv in enumerate(mf_vecs):
            values[i, j] = cosine(row.vector, mv)
    np.clip(values, -1.0, 1.0, out=values)
    return LoadingMatrix(
        row_labels=tuple(r.label for r in rows),
        values=values,
        degenerate=tuple(flags),
    )


def dominant_foundation(row: np.ndarray | Sequence[float]) -> str:
    """Foundation with the maximum loading; canonical order breaks ties.

    An all-zero row carries no signal and returns the ``unclassified``
    sentinel.
    """
    values = np.asarray(row, dtype=np.float64)
    if values.shape != (len(FOUNDATIONS),):
        raise ValueError(f"expected {len(FOUNDATIONS)} loadings, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("loadings must be finite")
    if np.all(values == 0.0):
        return UNCLASSIFIED
    return FOUNDATIONS[int(np.argmax(values))]


def foundation_counts(matrix: LoadingMatrix) -> dict[str, int]:
    """Histogram of dominant foundations over non-degenerate rows."""
    counts = {f: 0 for f in FOUNDATIONS}
    for i in range(matrix.values.shape[0]):
        if matrix.degenerate[i]:
            continue
        dominant = dominant_foundation(matrix.values[i])
        if dominant != UNCLASSIFIED:
            counts[dominant] += 1
    return counts


def mf_similarity_matrix(mf: Mapping[str, ContextVector]) -> np.ndarray:
    """Symmetric 5x5 cosine matrix between foundation vectors, unit diagonal."""
    vecs = [mf[f].vector for f in FOUNDATIONS]
    n = len(vecs)
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i, n):
            value = cosine(vecs[i], vecs[j])
            out[i, j] = value
            out[j, i] = value
    return out


def extend_dictionary(
    embedding: EmbeddingSpace, mf: Mapping[str, ContextVector], n: int
) -> ExtendedDictionary:
    """Top-n keywords by cosine to each foundation vector (a word may repeat across foundations)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > len(embedding.words.words):
        logger.warning(
            "requested %d words per foundation but only %d keywords exist",
            n, len(embedding.words.words),
        )
    per_foundation: dict[str, list[tuple[str, float]]] = {}
    for foundation in FOUNDATIONS:
        mv = mf[foundation].vector
        sims = [(word, cosine(embedding.vectors[i], mv))
                for i, word in enumerate(embedding.words.words)]
        sims.sort(key=lambda item: (-item[1], item[0]))
        per_foundation[foundation] = sims[:n]
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

    def line(label: str, values: np.ndarray, flag: bool) -> str:
        dominant = UNCLASSIFIED if flag else dominant_foundation(values)
        return f"{label},{_csv_values(values)},{dominant},{int(flag)}"

    rows = map(line, matrix.row_labels, matrix.values, matrix.degenerate)
    tables.write_lines(path, rows, header=f"id,{_FOUNDATION_COLUMNS},dominant,degenerate")


def load_loadings(path: str | Path) -> LoadingMatrix:
    """Rebuild a LoadingMatrix from a CSV written by save_loadings."""
    rows = list(tables.read_rows(
        path, lambda f: (f[0], [float(x) for x in f[1:-2]], f[-1] == "1"), sep=",",
        ncols=len(FOUNDATIONS) + 3, header=f"id,{_FOUNDATION_COLUMNS},dominant,degenerate",
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
    corpus: Iterable[TokenizedTweet], embedding: EmbeddingSpace
) -> list[ContextVector]:
    """tweet_vector over a whole corpus, logging how many were degenerate."""
    vectors = [tweet_vector(tweet, embedding) for tweet in corpus]
    degenerate = sum(1 for v in vectors if v.degenerate)
    if degenerate:
        logger.info("%d of %d tweets have no keywords (degenerate)", degenerate, len(vectors))
    return vectors


def save_context_vectors(vectors: Sequence[ContextVector], path: str | Path) -> None:
    """TSV: label followed by the k vector values (9 significant digits)."""
    tables.write_vectors(path, [cv.label for cv in vectors], [cv.vector for cv in vectors])


def load_context_vectors(path: str | Path) -> list[ContextVector]:
    """Rebuild labeled vectors saved by save_context_vectors.

    Contributing-word detail is not persisted; loaded vectors are marked
    degenerate only if they are exactly zero.
    """
    labels, vectors = tables.read_vectors(path)
    return [
        ContextVector(label, vector, ((label, 1),) if np.any(vector != 0.0) else ())
        for label, vector in zip(labels, vectors)
    ]
