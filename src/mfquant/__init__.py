"""Quantify the five moral foundations in short-text corpora.

The pipeline: clean and deduplicate tweets, select keywords and context
words by tf-idf overlap score, build a PPMI-weighted word-context
matrix, embed keywords via truncated SVD, and score texts by cosine
similarity to the five moral-foundation context vectors.
"""

from .corpus import (
    CleaningConfig,
    IngestStats,
    TokenizedTweet,
    TokenRows,
    TweetRecord,
    clean_and_tokenize,
    deduplicate,
    load_records,
    read_corpus,
)
from .errors import ConfigError, CorpusError, DataError, LexiconError, MFQuantError, PipelineError
from .lexicon import (
    FOUNDATIONS,
    MFDictionary,
    MFEntry,
    foundation_matrix,
    load_dictionary,
    load_packaged_dictionary,
    write_dictionary_report,
)
from .linalg import EmbeddingSpace, PCAProjection, SVDResult, pca_2d, truncated_svd
from .pipeline import PipelineConfig, RunManifest, load_config, run
from .semantics import (
    ContextVector,
    LoadingMatrix,
    extend_dictionary,
    foundation_counts,
    loading_matrix,
    mf_similarity_matrix,
    mf_vectors,
    score_corpus,
    topic_vector,
)
from .vectorizer import (
    CorpusCounts,
    SelectionResult,
    SparseCountMatrix,
    Vocabulary,
    WeightedMatrix,
    build_cooccurrence,
    build_word_tweet_matrix,
    count_corpus,
    count_unique_tweets,
    overlap_scores,
    ppmi,
    select_terms,
    tfidf,
)

__version__ = "0.1.0"
