"""Context vectors and moral loadings.

A text's context vector is the sum of its keywords' embedding vectors
(per occurrence). A corpus is scored with matrix products: its tweets x
keywords count matrix, the keyword columns of its ``CorpusCounts``, times
U_k gives every context vector; ``score_corpus`` forms that product one
block of rows at a time, so that only one block's vectors are held, and
lets the rest of the corpus (its archive map and vocabulary) go once the
keyword columns are selected. The five foundation vectors are the rows of
one 5 x k matrix, the first five rows of ``lexicon.foundation_matrix``
over the keywords times U_k (``mf_vectors``), and one row-wise cosine
kernel against it gives every loading (``loading_matrix``,
``score_corpus``). Both products, scipy's sparse product and
``linalg.row_cosines`` (which calls no BLAS), sum each row on its own, so a
tweet's loadings depend on U_k and its own counts alone, not on the block
it falls in. Foundation rows and loadings are in canonical order (Care, Fairness,
Ingroup, Authority, Purity). ``loadings.csv`` is formatted and written a
block of ``tables.LINE_BLOCK`` rows at a time (``save_loadings``), and the
dominant foundation of each row is counted from the loadings in memory
(``foundation_counts``), never parsed back from that file.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

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
# one loadings.csv line; %.9g formats a float exactly as the f-string spec .9g does
_LOADINGS_ROW = "%s" + ",%.9g" * len(FOUNDATIONS) + ",%s,%d\n"
# tweets per block in score_corpus: bounds its temporaries at 4096 rows
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

    @cached_property
    def dominant(self) -> np.ndarray:
        """Per row, the index in ``(*FOUNDATIONS, UNCLASSIFIED)`` of the foundation with the maximum loading.

        Canonical order breaks ties. An all-zero row carries no signal, and it
        and every degenerate row are unclassified. The array is found when
        first read and then kept, read-only: the loadings stage reads it
        twice, to write each row's label and to count the rows of each
        foundation.
        """
        index = np.argmax(self.values, axis=1)
        index[~self.values.any(axis=1) | np.asarray(self.degenerate, dtype=bool)] = len(FOUNDATIONS)
        index.flags.writeable = False
        return index


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

    Equal bit for bit to ``loading_matrix`` of every context vector,
    counts @ U_k, at once, computed SCORE_BLOCK_ROWS tweets at a time to
    bound the vectors held; a tweet with no keywords is degenerate. Only
    the ids and the keyword counts are read after ``corpus.select``, so
    this drops its reference to ``corpus`` there:
    if the caller keeps none, the rest of the corpus (its archive map and
    vocabulary) is freed before any product (from CPython 3.11, whose calls
    leave no reference to an argument on the caller's stack).
    """
    ids = _tweet_ids(corpus)
    counts = corpus.select(embedding.words)
    del corpus
    degenerate = np.diff(counts.indptr) == 0
    if degenerate.any():
        logger.info("%d of %d tweets have no keywords (degenerate)", degenerate.sum(), len(ids))
    values = np.empty((len(ids), len(mf)))
    for start in range(0, len(ids), SCORE_BLOCK_ROWS):
        block = slice(start, start + SCORE_BLOCK_ROWS)
        values[block] = row_cosines(counts[block] @ embedding.vectors, mf)
    values[degenerate] = 0.0
    return LoadingMatrix(row_labels=ids, values=values, degenerate=tuple(degenerate.tolist()))


def foundation_counts(matrix: LoadingMatrix) -> dict[str, int]:
    """Histogram of dominant foundations over non-degenerate, classified rows."""
    counts = np.bincount(matrix.dominant, minlength=len(FOUNDATIONS) + 1)
    return dict(zip(FOUNDATIONS, counts.tolist()))


def mf_similarity_matrix(mf: np.ndarray) -> np.ndarray:
    """Symmetric 5x5 cosine matrix between the rows of the foundation matrix, unit diagonal."""
    return row_cosines(mf, mf)


def extend_dictionary(
    embedding: EmbeddingSpace, mf: np.ndarray, n: int
) -> dict[str, list[tuple[str, float]]]:
    """Per foundation, in canonical order, its top-n keywords by cosine to its vector, ties broken by word.

    Each list holds (word, cosine) pairs; a word may repeat across foundations.
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
    return per_foundation


def _csv_values(values: np.ndarray) -> str:
    return ",".join(f"{x:.9g}" for x in values)


def save_loadings(
    matrix: LoadingMatrix, path: str | Path
) -> None:
    """CSV: id, care, fairness, ingroup, authority, purity, dominant, degenerate_flag.

    Formatted and written tables.LINE_BLOCK rows at a time, so that only one
    block's values are Python floats and each block takes one write.
    """
    names = _DOMINANT_NAMES.tolist()
    dominant = matrix.dominant

    def blocks():
        for start in range(0, len(matrix.row_labels), tables.LINE_BLOCK):
            block = slice(start, start + tables.LINE_BLOCK)
            yield "".join(map(_LOADINGS_ROW.__mod__, zip(
                matrix.row_labels[block], *matrix.values[block].T.tolist(),
                map(names.__getitem__, dominant[block].tolist()), matrix.degenerate[block],
            )))

    tables.write_blocks(path, blocks(), header=_LOADINGS_HEADER)


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


def save_extended_dictionary(extended: Mapping[str, list[tuple[str, float]]], path: str | Path) -> None:
    """TSV: foundation, rank, word, similarity."""
    rows = (
        f"{foundation}\t{rank}\t{word}\t{sim:.9g}"
        for foundation in FOUNDATIONS
        for rank, (word, sim) in enumerate(extended[foundation], start=1)
    )
    tables.write_lines(path, rows, header=_EXTENDED_HEADER)


def load_extended_dictionary(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """The per-foundation (word, cosine) lists of a TSV written by save_extended_dictionary."""
    per_foundation: dict[str, list[tuple[str, float]]] = {}
    rows = tables.read_rows(path, lambda f: (f[0], f[2], float(f[3])), ncols=4, header=_EXTENDED_HEADER)
    for foundation, word, sim in rows:
        per_foundation.setdefault(foundation, []).append((word, sim))
    return per_foundation


def save_similarity_matrix(matrix: np.ndarray, path: str | Path) -> None:
    """CSV 5x5 with foundation row/column labels."""
    rows = (f"{foundation},{_csv_values(values)}" for foundation, values in zip(FOUNDATIONS, matrix))
    tables.write_lines(path, rows, header=f"foundation,{_FOUNDATION_COLUMNS}")


def save_foundation_counts(counts: Mapping[str, int], path: str | Path) -> None:
    rows = (f"{foundation},{counts.get(foundation, 0)}" for foundation in FOUNDATIONS)
    tables.write_lines(path, rows, header="foundation,tweets")


def context_vectors_for_corpus(corpus: CorpusCounts, embedding: EmbeddingSpace) -> list[ContextVector]:
    """One ContextVector per tweet, with its keyword counts, from the product counts @ U_k.

    A tweet with no keyword tokens has an empty counts row and is degenerate.
    """
    ids = _tweet_ids(corpus)
    counts = corpus.select(embedding.words)
    vectors = np.asarray(counts @ embedding.vectors)
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
