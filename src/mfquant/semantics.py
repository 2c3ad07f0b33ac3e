"""Context vectors and moral loadings.

A text's context vector is the sum of its keywords' embedding vectors
(per occurrence). A corpus is scored with matrix products: its tweets x
keywords count matrix, the keyword columns of its ``CorpusCounts``, times
U_k gives every context vector (``corpus_vectors``); ``score_corpus``
forms that product one block of rows at a time, so that only one block's
vectors are held.
The five foundation vectors are the rows of one 5 x k matrix, the first
five rows of ``lexicon.foundation_matrix`` over the keywords times U_k
(``mf_vectors``), and one row-wise cosine kernel against it gives every
loading (``loading_matrix``, ``score_corpus``). Foundation rows and
loadings are in canonical order (Care, Fairness, Ingroup, Authority, Purity).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from . import tables
from .errors import DataError
from .lexicon import FOUNDATIONS, VICE, MFDictionary, foundation_matrix
from .linalg import EmbeddingSpace, row_cosines
from .vectorizer import CorpusCounts, SelectionResult

logger = logging.getLogger(__name__)

UNCLASSIFIED = "unclassified"
_DOMINANT_NAMES = np.array([*FOUNDATIONS, UNCLASSIFIED])
_EXTENDED_HEADER = "foundation\trank\tword\tsimilarity"
_FOUNDATION_COLUMNS = ",".join(f.lower() for f in FOUNDATIONS)
_LOADINGS_HEADER = f"id,{_FOUNDATION_COLUMNS},dominant,degenerate"
# one loadings.csv row; %.9g formats a float exactly as the f-string spec .9g does
_LOADINGS_ROW = "%s" + ",%.9g" * len(FOUNDATIONS) + ",%s,%d"
# tweets per block in score_corpus and save_loadings: bounds their temporaries at 4096 rows
SCORE_BLOCK_ROWS = 4096


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

    row_labels: Sequence[str]
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


def corpus_vectors(
    corpus: CorpusCounts, embedding: EmbeddingSpace
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Keyword counts (tweets x keywords) and context vectors counts @ U_k (tweets x k).

    A tweet with no keyword tokens has an empty counts row and is degenerate.
    """
    counts = corpus.select(embedding.words)
    return counts, np.asarray(counts @ embedding.vectors)


def mf_vectors(
    dictionary: MFDictionary, embedding: EmbeddingSpace, polarity: str = VICE
) -> np.ndarray:
    """The 5 x k foundation matrix F, one row per foundation in canonical order.

    Row f sums the embeddings of every keyword matching a ``polarity``
    entry of foundation f: F is the first five rows of the keywords'
    ``foundation_matrix`` times U_k, one sparse product. A keyword matching
    several foundations contributes to each of them. A foundation matched
    by no keyword raises DataError (its vector would be undefined).
    MoralityGeneral never produces a vector.
    """
    indicator = foundation_matrix(dictionary, embedding.words.words, polarity)[: len(FOUNDATIONS)]
    for foundation, matches in zip(FOUNDATIONS, np.diff(indicator.indptr)):
        if not matches:
            raise DataError(
                f"no keywords match any {polarity} entry of foundation {foundation}; "
                "its context vector is undefined"
            )
    return np.asarray(indicator @ embedding.vectors)


def topic_vector(
    topic_selection: SelectionResult,
    embedding: EmbeddingSpace,
    n: int,
    label: str,
) -> np.ndarray:
    """Sum the first n topic words (in score order) that exist in the keyword space.

    Topic words absent from the embedding are skipped; if fewer than n
    survive, all survivors are used with a warning naming ``label``.
    """
    index = embedding.words.index
    survivors = list(islice((w for w in topic_selection.context_words if w in index), n))
    if len(survivors) < n:
        logger.warning(
            "topic %s: only %d of the requested %d words are in the keyword space",
            label, len(survivors), n,
        )
    return embedding.vectors[[index[w] for w in survivors]].sum(axis=0)


def loading_matrix(
    labels: Sequence[str],
    vectors: np.ndarray,
    mf: np.ndarray,
    degenerate: Sequence[bool] | np.ndarray | None = None,
) -> LoadingMatrix:
    """Cosine of every row of ``vectors`` against each row of the foundation matrix ``mf``.

    Rows flagged in ``degenerate`` (default: none) get an all-zero
    loading row; so does any zero vector.
    """
    flags = np.asarray(np.zeros(len(labels)) if degenerate is None else degenerate, dtype=bool)
    values = row_cosines(vectors, mf)
    values[flags] = 0.0
    return LoadingMatrix(row_labels=tuple(labels), values=values, degenerate=tuple(flags.tolist()))


def _tweet_ids(corpus: CorpusCounts) -> Sequence[str]:
    if corpus.ids is None:
        raise ValueError("scoring a corpus needs its tweet ids; load it with its ids file")
    return corpus.ids


def score_corpus(corpus: CorpusCounts, embedding: EmbeddingSpace, mf: np.ndarray) -> LoadingMatrix:
    """Loadings of every tweet, one row per tweet in corpus order, labeled with its id.

    Equal to ``loading_matrix`` of the ``corpus_vectors``, computed
    SCORE_BLOCK_ROWS tweets at a time; a tweet with no keywords is degenerate.
    """
    ids = _tweet_ids(corpus)
    counts = corpus.select(embedding.words)
    degenerate = np.diff(counts.indptr) == 0
    if degenerate.any():
        logger.info("%d of %d tweets have no keywords (degenerate)", degenerate.sum(), len(ids))
    values = np.empty((len(ids), len(mf)))
    for start in range(0, len(ids), SCORE_BLOCK_ROWS):
        block = slice(start, start + SCORE_BLOCK_ROWS)
        values[block] = row_cosines(counts[block] @ embedding.vectors, mf)
    values[degenerate] = 0.0
    return LoadingMatrix(row_labels=ids, values=values, degenerate=tuple(degenerate.tolist()))


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


def mf_similarity_matrix(mf: np.ndarray) -> np.ndarray:
    """Symmetric 5x5 cosine matrix between the rows of the foundation matrix, unit diagonal."""
    return row_cosines(mf, mf)


def extend_dictionary(
    embedding: EmbeddingSpace, mf: np.ndarray, n: int
) -> ExtendedDictionary:
    """Top-n keywords by cosine to each foundation vector, ties broken by word.

    A word may repeat across foundations.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    words = embedding.words.words
    if n > len(words):
        logger.warning("requested %d words per foundation but only %d keywords exist", n, len(words))
    sims = row_cosines(embedding.vectors, mf)
    word_keys = np.array(words)
    per_foundation = {}
    for j, foundation in enumerate(FOUNDATIONS):
        top = np.lexsort((word_keys, -sims[:, j]))[:n]
        per_foundation[foundation] = list(zip(word_keys[top].tolist(), sims[top, j].tolist()))
    return ExtendedDictionary(per_foundation=per_foundation, n=n)


def _csv_values(values: np.ndarray) -> str:
    return ",".join(f"{x:.9g}" for x in values)


def save_loadings(
    matrix: LoadingMatrix, path: str | Path
) -> None:
    """CSV: id, care, fairness, ingroup, authority, purity, dominant, degenerate_flag."""

    names = _DOMINANT_NAMES.tolist()
    dominant = dominant_indices(matrix)

    def rows():  # SCORE_BLOCK_ROWS rows at a time, so that only one block's values are Python floats
        for start in range(0, len(matrix.row_labels), SCORE_BLOCK_ROWS):
            block = slice(start, start + SCORE_BLOCK_ROWS)
            yield from zip(
                matrix.row_labels[block], *matrix.values[block].T.tolist(),
                map(names.__getitem__, dominant[block].tolist()), matrix.degenerate[block],
            )

    tables.write_lines(path, (_LOADINGS_ROW % row for row in rows()), header=_LOADINGS_HEADER)


def load_loadings(path: str | Path) -> LoadingMatrix:
    """Rebuild a LoadingMatrix from a CSV written by save_loadings."""

    def parse(fields: list[str]) -> tuple[str, list[float], bool]:
        values = [float(x) for x in fields[1:-2]]
        if not all(map(math.isfinite, values)):
            raise ValueError("loadings must be finite")
        if fields[-1] not in ("0", "1"):
            raise ValueError(f"degenerate flag must be 0 or 1, got {fields[-1]!r}")
        return fields[0], values, fields[-1] == "1"

    rows = list(tables.read_rows(path, parse, sep=",", ncols=len(FOUNDATIONS) + 3, header=_LOADINGS_HEADER))
    labels, values, flags = zip(*rows) if rows else ((), (), ())
    values = np.array(values, dtype=np.float64).reshape(len(rows), len(FOUNDATIONS))
    return LoadingMatrix(row_labels=labels, values=values, degenerate=flags)


def load_foundation_counts(path: str | Path) -> dict[str, int]:
    """``foundation_counts`` of a save_loadings CSV, from its dominant and degenerate columns alone.

    Every row must have the CSV's field count, a ``dominant`` that is a
    foundation or ``unclassified`` (always the latter on a degenerate row)
    and a flag of 0 or 1; the loadings themselves are not parsed.
    """
    index = {name: i for i, name in enumerate(_DOMINANT_NAMES.tolist())}

    def parse(fields: list[str]) -> int:
        dominant, flag = fields[-2:]
        if flag not in ("0", "1"):
            raise ValueError(f"degenerate flag must be 0 or 1, got {flag!r}")
        if dominant not in index:
            raise ValueError(f"dominant must be a foundation or {UNCLASSIFIED!r}, got {dominant!r}")
        if flag == "1" and dominant != UNCLASSIFIED:
            raise ValueError(f"a degenerate row must be {UNCLASSIFIED!r}, got {dominant!r}")
        return index[dominant]

    rows = tables.read_rows(path, parse, sep=",", ncols=len(FOUNDATIONS) + 3, header=_LOADINGS_HEADER)
    counts = np.bincount(np.fromiter(rows, dtype=np.int64), minlength=len(_DOMINANT_NAMES))
    return dict(zip(FOUNDATIONS, counts.tolist()))


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


def context_vectors_for_corpus(corpus: CorpusCounts, embedding: EmbeddingSpace) -> list[ContextVector]:
    """One ContextVector per tweet, with its keyword counts, from ``corpus_vectors``."""
    ids = _tweet_ids(corpus)
    counts, vectors = corpus_vectors(corpus, embedding)
    lengths = corpus.lengths.tolist()
    words = embedding.words.words
    rows = counts.tolil()
    return [
        ContextVector(tweet_id, vector, tuple(zip(map(words.__getitem__, cols), n)), length - sum(n))
        for tweet_id, vector, cols, n, length in zip(ids, vectors, rows.rows, rows.data, lengths)
    ]


def parse_topic_label(label: str) -> tuple[str, int]:
    """Split a topic vector label ``name:n`` into the topic name and its keyword count n."""
    name, _, n = label.rpartition(":")
    return name, int(n)
