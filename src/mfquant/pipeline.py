"""Staged batch pipeline: config, run manifest, stage execution.

Stages run in a fixed order (ingest, select, matrix, svd, vectors,
loadings, extend, pca, report), each persisting its artifacts under the
output directory and recording content hashes in manifest.json. A rerun
with identical inputs, parameters, and seed reproduces identical
artifact bytes on the same platform/build.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import corpus as corpus_mod
from . import lexicon as lexicon_mod
from . import linalg as linalg_mod
from . import semantics as semantics_mod
from . import tables
from . import vectorizer as vectorizer_mod
from .errors import ConfigError, PipelineError
from .stopwords import DEFAULT_STOPWORDS

logger = logging.getLogger(__name__)

STAGES = (
    "ingest", "select", "matrix", "svd", "vectors",
    "loadings", "extend", "pca", "report",
)


@dataclass
class PipelineConfig:
    immorality_path: Path
    out_dir: Path
    topic_paths: dict[str, Path] = field(default_factory=dict)
    dictionary_path: Path | None = None
    n1: int = 2000
    n2: int = 20000
    k: int = 100
    topic_n: tuple[int, ...] = (10, 100)
    extend_n: int = 100
    seed: int = 42
    query_words: dict[str, tuple[str, ...]] = field(default_factory=dict)
    min_token_len: int = 3
    lowercase: bool = True
    lang_filter: str | None = None
    stopwords_path: Path | None = None

    def validate(self) -> None:
        problems: list[str] = []
        if self.n1 < 1:
            problems.append("n1 must be >= 1")
        if self.n1 > self.n2:
            problems.append(f"n1 ({self.n1}) must not exceed n2 ({self.n2})")
        if self.k < 1:
            problems.append("k must be >= 1")
        if self.extend_n < 0:
            problems.append("extend_n must be >= 0")
        if self.min_token_len < 1:
            problems.append("min_token_len must be >= 1")
        if not self.topic_n or any(n < 1 for n in self.topic_n):
            problems.append("topic_n must be a non-empty list of positive integers")
        for name in ("immorality", *sorted(self.topic_paths)):
            if not self.query_words.get(name):
                problems.append(f"query_words for corpus {name!r} must be non-empty")
        if problems:
            raise ConfigError("; ".join(problems))

    def cleaning_config(self, corpus_name: str) -> corpus_mod.CleaningConfig:
        stopwords = DEFAULT_STOPWORDS
        if self.stopwords_path is not None:
            try:
                text = Path(self.stopwords_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read stopwords file {self.stopwords_path}: {exc}") from exc
            stopwords = frozenset(w.strip() for w in text.splitlines() if w.strip())
        return corpus_mod.CleaningConfig(
            stopwords=stopwords,
            query_words=frozenset(self.query_words.get(corpus_name, ())),
            min_token_len=self.min_token_len,
            lowercase=self.lowercase,
        )

    def params_snapshot(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "k": self.k,
            "topic_n": list(self.topic_n),
            "extend_n": self.extend_n,
            "seed": self.seed,
            "min_token_len": self.min_token_len,
            "lowercase": self.lowercase,
            "lang_filter": self.lang_filter,
            "query_words": {k: list(v) for k, v in sorted(self.query_words.items())},
        }


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a YAML config file; relative paths resolve against its directory."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    base = path.parent

    def _resolve(p: str | None) -> Path | None:
        if p is None:
            return None
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    inputs = raw.get("inputs") or {}
    if not isinstance(inputs, dict) or not inputs.get("immorality"):
        raise ConfigError("config must set inputs.immorality")
    topics_raw = inputs.get("topics") or {}
    if not isinstance(topics_raw, dict):
        raise ConfigError("inputs.topics must be a mapping of name -> path")
    params = raw.get("params") or {}
    cleaning = raw.get("cleaning") or {}
    query_raw = cleaning.get("query_words") or {}
    if not isinstance(query_raw, dict):
        raise ConfigError("cleaning.query_words must be a mapping of corpus -> words")
    out = raw.get("output")
    if not out:
        raise ConfigError("config must set output")
    try:
        config = PipelineConfig(
            immorality_path=_resolve(inputs["immorality"]),
            out_dir=_resolve(out),
            topic_paths={name: _resolve(p) for name, p in sorted(topics_raw.items())},
            dictionary_path=_resolve(inputs.get("dictionary")),
            n1=int(params.get("n1", 2000)),
            n2=int(params.get("n2", 20000)),
            k=int(params.get("k", 100)),
            topic_n=tuple(int(n) for n in params.get("topic_n", (10, 100))),
            extend_n=int(params.get("extend_n", 100)),
            seed=int(params.get("seed", 42)),
            query_words={name: tuple(words) for name, words in query_raw.items()},
            min_token_len=int(cleaning.get("min_token_len", 3)),
            lowercase=bool(cleaning.get("lowercase", True)),
            lang_filter=cleaning.get("lang_filter"),
            stopwords_path=_resolve(cleaning.get("stopwords_file")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path} has a malformed value: {exc}") from exc
    return config


class Artifacts:
    """Canonical artifact locations under one output directory."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.ppmi = self.out_dir / "matrix" / "ppmi.tsv"
        self.row_vocab = self.out_dir / "matrix" / "row_vocab.tsv"
        self.col_vocab = self.out_dir / "matrix" / "col_vocab.tsv"
        self.embedding = self.out_dir / "svd" / "embedding.tsv"
        self.singular_values = self.out_dir / "svd" / "singular_values.tsv"
        self.mf_vectors = self.out_dir / "vectors" / "mf_vectors.tsv"
        self.topic_vectors = self.out_dir / "vectors" / "topic_vectors.tsv"
        self.loadings = self.out_dir / "loadings" / "loadings.csv"
        self.topics_csv = self.out_dir / "loadings" / "topics.csv"
        self.extended = self.out_dir / "extend" / "extended_dict.tsv"
        self.pca_csv = self.out_dir / "pca" / "pca.csv"
        self.pca_variance = self.out_dir / "pca" / "pca_variance.csv"
        self.counts_csv = self.out_dir / "report" / "foundation_counts.csv"
        self.similarity_csv = self.out_dir / "report" / "mf_similarity.csv"
        self.vice_report = self.out_dir / "report" / "vice_report.tsv"
        self.coverage_tsv = self.out_dir / "report" / "coverage.tsv"

    def corpus(self, name: str) -> Path:
        return self.out_dir / "corpus" / f"{name}.tsv"

    def terms(self, name: str) -> Path:
        return self.out_dir / "select" / f"{name}_terms.tsv"

    def rel(self, p: Path) -> str:
        return str(p.relative_to(self.out_dir))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunManifest:
    """Content hashes and parameter snapshot for every emitted artifact."""

    def __init__(self, path: Path, data: dict):
        self.path = path
        self.data = data

    @classmethod
    def load_or_create(cls, out_dir: Path, params: dict) -> "RunManifest":
        path = out_dir / "manifest.json"
        if path.exists():
            data = json.loads(path.read_text(encoding="utf-8"))
            if data.get("params") != params:
                logger.warning(
                    "manifest parameters differ from current config; "
                    "rerun earlier stages for consistent artifacts"
                )
            data["params"] = params
        else:
            data = {
                "created": _now(),
                "updated": _now(),
                "params": params,
                "inputs": {},
                "stages": {},
            }
        return cls(path, data)

    def record_inputs(self, inputs: dict[str, Path]) -> None:
        for name, p in sorted(inputs.items()):
            self.data["inputs"][name] = {"path": str(p), "sha256": sha256_file(p)}

    def record_stage(self, stage: str, artifacts: Artifacts, files: list[Path]) -> None:
        self.data["stages"][stage] = {
            "completed": _now(),
            "artifacts": {artifacts.rel(p): sha256_file(p) for p in sorted(files)},
        }
        self.data["updated"] = _now()
        self.save()

    def artifact_hashes(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for stage in self.data["stages"].values():
            out.update(stage["artifacts"])
        return out

    def save(self) -> None:
        tables.write_lines(self.path, [json.dumps(self.data, indent=2, sort_keys=True)])


@contextmanager
def output_lock(out_dir: Path):
    """Exclusive ownership of the output directory via an advisory flock on ``.lock``.

    The kernel releases the lock when the process exits, so the file is safe to leave behind.
    """
    with (out_dir / ".lock").open("a") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"output directory {out_dir} is locked by another run") from None
        yield


def _require(path: Path, producing_stage: str) -> Path:
    if not path.exists():
        raise PipelineError(
            f"missing artifact {path}; run stage {producing_stage!r} first"
        )
    return path


def _corpus_names(config: PipelineConfig) -> list[str]:
    return ["immorality", *sorted(config.topic_paths)]


def _input_path(config: PipelineConfig, name: str) -> Path:
    return config.immorality_path if name == "immorality" else config.topic_paths[name]


def _load_dictionary(config: PipelineConfig) -> lexicon_mod.MFDictionary:
    if config.dictionary_path is not None:
        return lexicon_mod.load_dictionary(config.dictionary_path)
    return lexicon_mod.load_packaged_dictionary()


def _stage_ingest(config: PipelineConfig, art: Artifacts) -> list[Path]:
    files: list[Path] = []
    for name in _corpus_names(config):
        source = _input_path(config, name)
        if not source.exists():
            raise PipelineError(f"input corpus {source} does not exist")
        records, _ = corpus_mod.load_records(source, lang_filter=config.lang_filter)
        cleaning = config.cleaning_config(name)
        tokenized = [corpus_mod.clean_and_tokenize(r, cleaning) for r in records]
        deduped, removed = corpus_mod.deduplicate(tokenized)
        logger.info(
            "%s: %d records -> %d after dedup (%d removed)",
            name, len(tokenized), len(deduped), removed,
        )
        target = art.corpus(name)
        corpus_mod.write_tokenized(deduped, target)
        files.append(target)
    return files


def _stage_select(config: PipelineConfig, art: Artifacts) -> list[Path]:
    files: list[Path] = []
    for name in _corpus_names(config):
        tokenized = corpus_mod.read_tokenized(_require(art.corpus(name), "ingest"))
        matrix = vectorizer_mod.build_word_tweet_matrix(tokenized)
        weighted = vectorizer_mod.tfidf(matrix)
        scores = vectorizer_mod.overlap_scores(weighted)
        selection = vectorizer_mod.select_terms(scores, config.n1, config.n2)
        target = art.terms(name)
        vectorizer_mod.save_selection(selection, target)
        files.append(target)
    return files


def _stage_matrix(config: PipelineConfig, art: Artifacts) -> list[Path]:
    tokenized = corpus_mod.read_tokenized(_require(art.corpus("immorality"), "ingest"))
    selection = vectorizer_mod.load_selection(
        _require(art.terms("immorality"), "select"), config.n1
    )
    cooc = vectorizer_mod.build_cooccurrence(tokenized, selection)
    weighted = vectorizer_mod.ppmi(cooc)
    vectorizer_mod.save_triplets(weighted, art.ppmi)
    vectorizer_mod.save_vocabulary(weighted.row_vocab.words, art.row_vocab)
    vectorizer_mod.save_vocabulary(weighted.col_labels, art.col_vocab)
    return [art.ppmi, art.row_vocab, art.col_vocab]


def _stage_svd(config: PipelineConfig, art: Artifacts) -> list[Path]:
    row_words = vectorizer_mod.load_vocabulary(_require(art.row_vocab, "matrix"))
    col_labels = vectorizer_mod.load_vocabulary(_require(art.col_vocab, "matrix"))
    weighted = vectorizer_mod.load_triplets(_require(art.ppmi, "matrix"), row_words, col_labels)
    if config.k > min(weighted.shape):
        raise PipelineError(
            f"k={config.k} exceeds matrix rank bound min{weighted.shape}; lower k"
        )
    result = linalg_mod.truncated_svd(weighted, config.k, config.seed)
    space = linalg_mod.EmbeddingSpace(words=weighted.row_vocab, vectors=result.u_k)
    linalg_mod.save_embedding(space, art.embedding)
    tables.write_lines(art.singular_values, (f"{s:.9g}" for s in result.singular_values))
    return [art.embedding, art.singular_values]


def _stage_vectors(config: PipelineConfig, art: Artifacts) -> list[Path]:
    embedding = linalg_mod.load_embedding(_require(art.embedding, "svd"))
    dictionary = _load_dictionary(config)
    mf = semantics_mod.mf_vectors(dictionary, embedding)
    semantics_mod.save_context_vectors(list(mf.values()), art.mf_vectors)
    files = [art.mf_vectors]
    topic_cvs: list[semantics_mod.ContextVector] = []
    for name in sorted(config.topic_paths):
        selection = vectorizer_mod.load_selection(
            _require(art.terms(name), "select"), config.n1
        )
        for n in config.topic_n:
            topic_cvs.append(
                semantics_mod.topic_vector(selection, embedding, n, label=f"{name}:{n}")
            )
    semantics_mod.save_context_vectors(topic_cvs, art.topic_vectors)
    files.append(art.topic_vectors)
    return files


def _load_mf_vectors(art: Artifacts) -> dict[str, semantics_mod.ContextVector]:
    loaded = semantics_mod.load_context_vectors(_require(art.mf_vectors, "vectors"))
    by_label = {cv.label: cv for cv in loaded}
    missing = [f for f in lexicon_mod.FOUNDATIONS if f not in by_label]
    if missing:
        raise PipelineError(f"mf_vectors artifact lacks foundations {missing}")
    return {f: by_label[f] for f in lexicon_mod.FOUNDATIONS}


def _stage_loadings(config: PipelineConfig, art: Artifacts) -> list[Path]:
    embedding = linalg_mod.load_embedding(_require(art.embedding, "svd"))
    mf = _load_mf_vectors(art)
    tokenized = corpus_mod.read_tokenized(_require(art.corpus("immorality"), "ingest"))
    tweet_cvs = semantics_mod.context_vectors_for_corpus(tokenized, embedding)
    matrix = semantics_mod.loading_matrix(tweet_cvs, mf)
    semantics_mod.save_loadings(matrix, art.loadings)
    files = [art.loadings]

    topic_cvs = semantics_mod.load_context_vectors(_require(art.topic_vectors, "vectors"))
    per_n: dict[int, list[semantics_mod.ContextVector]] = {}
    for cv in topic_cvs:
        name, _, n_str = cv.label.rpartition(":")
        cv.label = name
        per_n.setdefault(int(n_str), []).append(cv)
    topic_matrices = {
        n: semantics_mod.loading_matrix(cvs, mf) for n, cvs in sorted(per_n.items())
    }
    semantics_mod.save_topic_loadings(topic_matrices, art.topics_csv)
    files.append(art.topics_csv)
    return files


def _stage_extend(config: PipelineConfig, art: Artifacts) -> list[Path]:
    embedding = linalg_mod.load_embedding(_require(art.embedding, "svd"))
    mf = _load_mf_vectors(art)
    extended = semantics_mod.extend_dictionary(embedding, mf, config.extend_n)
    semantics_mod.save_extended_dictionary(extended, art.extended)
    return [art.extended]


def _stage_pca(config: PipelineConfig, art: Artifacts) -> list[Path]:
    embedding = linalg_mod.load_embedding(_require(art.embedding, "svd"))
    mf = _load_mf_vectors(art)
    extended = semantics_mod.load_extended_dictionary(_require(art.extended, "extend"))
    words = dict.fromkeys(w for entries in extended.per_foundation.values() for w, _ in entries)
    rows = []
    labels = []
    for word in words:
        vector = embedding.vector(word)
        if vector is not None:
            rows.append(vector)
            labels.append(word)
    for foundation in lexicon_mod.FOUNDATIONS:
        rows.append(mf[foundation].vector)
        labels.append(f"MF_{foundation}")
    try:
        projection = linalg_mod.pca_2d(np.array(rows), labels)
    except ValueError as exc:
        raise PipelineError(f"PCA projection failed: {exc}") from exc
    linalg_mod.save_pca(projection, art.pca_csv)
    variance = (f"pc{i + 1},{v:.9g}" for i, v in enumerate(projection.explained_variance))
    tables.write_lines(art.pca_variance, variance, header="component,explained_variance")
    return [art.pca_csv, art.pca_variance]


def _stage_report(config: PipelineConfig, art: Artifacts) -> list[Path]:
    tokenized = corpus_mod.read_tokenized(_require(art.corpus("immorality"), "ingest"))
    selection = vectorizer_mod.load_selection(
        _require(art.terms("immorality"), "select"), config.n1
    )
    keyword_set = set(selection.keywords)
    freqs = Counter(t for tweet in tokenized for t in tweet.tokens if t in keyword_set)
    dictionary = _load_dictionary(config)
    report = semantics_mod.vice_frequency_report(dictionary, dict(freqs))
    semantics_mod.save_vice_report(report, art.vice_report)
    lexicon_mod.write_coverage_report(report.coverage, art.coverage_tsv)

    matrix = semantics_mod.load_loadings(_require(art.loadings, "loadings"))
    counts = semantics_mod.foundation_counts(matrix)
    semantics_mod.save_foundation_counts(counts, art.counts_csv)

    mf = _load_mf_vectors(art)
    similarity = semantics_mod.mf_similarity_matrix(mf)
    semantics_mod.save_similarity_matrix(similarity, art.similarity_csv)
    return [art.vice_report, art.coverage_tsv, art.counts_csv, art.similarity_csv]


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "select": _stage_select,
    "matrix": _stage_matrix,
    "svd": _stage_svd,
    "vectors": _stage_vectors,
    "loadings": _stage_loadings,
    "extend": _stage_extend,
    "pca": _stage_pca,
    "report": _stage_report,
}


def run(stage: str, config: PipelineConfig) -> dict[str, list[str]]:
    """Execute one stage (or ``all``) and return stage -> artifact paths."""
    if stage != "all" and stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}; choose from {('all',) + STAGES}")
    config.validate()
    config.out_dir.mkdir(parents=True, exist_ok=True)
    plan = list(STAGES) if stage == "all" else [stage]
    art = Artifacts(config.out_dir)
    executed: dict[str, list[str]] = {}
    with output_lock(config.out_dir):
        manifest = RunManifest.load_or_create(config.out_dir, config.params_snapshot())
        inputs = {"immorality": config.immorality_path}
        inputs.update({name: p for name, p in config.topic_paths.items()})
        if config.dictionary_path is not None:
            inputs["dictionary"] = config.dictionary_path
        else:
            inputs["dictionary"] = lexicon_mod.packaged_dictionary_path()
        existing = [p for p in inputs.values() if p.exists()]
        if len(existing) == len(inputs):
            manifest.record_inputs(inputs)
        for name in plan:
            logger.info("stage %s: starting", name)
            files = _STAGE_FUNCS[name](config, art)
            manifest.record_stage(name, art, files)
            executed[name] = [art.rel(p) for p in files]
            logger.info("stage %s: wrote %d artifacts", name, len(files))
        manifest.save()
    return executed
