"""Staged batch pipeline: config, run manifest, stage execution.

Stages run in a fixed order (ingest, select, matrix, svd, vectors, loadings,
extend, pca, report), each persisting its artifacts under the output
directory. Ingest streams each corpus from JSON line to count row, with
per-tweet state in flat buffers (a corpus of ``corpus.MIN_RANGE_BYTES`` or
more over one process per CPU, ``corpus.read_corpus``), into
``corpus/<name>.npz`` (tweets x words counts over the corpus's sorted
vocabulary) and ``corpus/<name>.tsv`` (one
``id<TAB>kept-token count`` line per deduplicated tweet); matrix hands PPMI
to svd as ``matrix/ppmi.npz``, and svd hands U_k on as ``svd/embedding.npy``.
Neither stores its words: select's ranking ``select/immorality_terms.tsv``
holds them, its first n1 words the rows of both and all of its words the
columns of ``ppmi.npz``.
Loadings counts the tweets of each dominant foundation from the loadings it
holds, into ``loadings/foundation_counts.csv``; no stage reads
``loadings.csv`` back.

``stage_files`` declares what each stage reads and writes: its files, and
the config values it reads. Ingest reads ``min_token_len``,
``lang_filter`` and ``query_words``; select ``n2`` (it saves the n2-long
ranking, and n1 cuts it where it is read); every stage after it ``n1``, and
svd ``k``, vectors ``topic_n`` and extend ``extend_n`` as well. No stage
reads ``seed``, and the SVD is exact, so ``seed`` changes no artifact.
A stage's entry in manifest.json hashes the files it wrote, and records under
``inputs`` what it read (``stage_inputs``) and under ``metrics`` what it did,
which no check reads: its wall time (``wall_s``) and, where
``/proc/self/status`` can be read, the process's resident-set high-water mark
after it (``peak_rss_mb``, ``VmHWM``: a process-wide mark, so a stage run after
others in one process reports the highest of them all, and one that counts no
child process, such as ingest's range workers); ingest's entry also
records each corpus's record counts (``IngestStats``, the repeats removed and
the tweets kept). A stage has no entry while it
runs, and refuses to start, naming the first stage to rerun, while a file it
reads is missing or unrecorded, or a stage upstream of it has no entry or an
input record other than what it would read now. That check re-hashes each raw
input once per command. A rerun with identical inputs, parameters and BLAS
thread count reproduces identical artifact bytes on the same platform/build.

The per-tweet stages hold no whole-corpus structure that no later step of
theirs reads: matrix and loadings pass the corpus they load straight to
``build_cooccurrence`` and ``score_corpus``, which let it, its archive map and
its vocabulary go once its words are selected; report lets it go once the
keyword frequencies are summed; and after each stage ``run`` hands the heap's
free pages back to the system (``linalg.trim_heap``), so that what a stage
freed is not held resident into the next.
"""

from __future__ import annotations

import fcntl
import gc
import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
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
from .errors import ConfigError, DataError, PipelineError
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
    dictionary_path: Path = field(default_factory=lexicon_mod.packaged_dictionary_path)
    n1: int = 2000
    n2: int = 20000
    k: int = 100
    topic_n: tuple[int, ...] = (10, 100)
    extend_n: int = 100
    seed: int = 42
    query_words: dict[str, tuple[str, ...]] = field(default_factory=dict)
    min_token_len: int = 3
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
        if self.k > self.n1:
            # the PPMI matrix has at most n1 rows, so its rank cannot reach k
            problems.append(f"k ({self.k}) must not exceed n1 ({self.n1})")
        if self.extend_n < 0:
            problems.append("extend_n must be >= 0")
        if self.min_token_len < 1:
            problems.append("min_token_len must be >= 1")
        if not self.topic_n or any(n < 1 for n in self.topic_n):
            problems.append("topic_n must be a non-empty list of positive integers")
        repeated = sorted({n for n in self.topic_n if self.topic_n.count(n) > 1})
        if repeated:
            problems.append(f"topic_n values must be distinct; repeated: {repeated}")
        for name in sorted(self.topic_paths):
            if not name or name == "immorality" or set(str(name)) & set("/\t,\n\r"):
                problems.append(
                    f"topic name {name!r} must be non-empty, not 'immorality', "
                    "and free of '/', tabs, commas and line breaks"
                )
        for name in ("immorality", *sorted(self.topic_paths)):
            if not self.query_words.get(name):
                problems.append(f"query_words for corpus {name!r} must be non-empty")
        if problems:
            raise ConfigError("; ".join(problems))

    def read_stopwords(self) -> frozenset[str]:
        """The stopwords file's non-blank lines, stripped, or DEFAULT_STOPWORDS when there is no file; read on every call."""
        if self.stopwords_path is None:
            return DEFAULT_STOPWORDS
        try:
            text = Path(self.stopwords_path).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise ConfigError(f"cannot read stopwords file {self.stopwords_path}: {exc}") from exc
        # universal newlines leave only "\n" breaks; str.splitlines would also break at \f, \x1c, U+2028 and others
        return frozenset(w.strip() for w in text.split("\n") if w.strip())

    def cleaning_config(
        self, corpus_name: str, stopwords: frozenset[str] | None = None
    ) -> corpus_mod.CleaningConfig:
        """How to clean one corpus; ``stopwords`` defaults to ``read_stopwords()``."""
        return corpus_mod.CleaningConfig(
            stopwords=self.read_stopwords() if stopwords is None else stopwords,
            query_words=frozenset(self.query_words.get(corpus_name, ())),
            min_token_len=self.min_token_len,
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
            "lang_filter": self.lang_filter,
            "query_words": {k: list(v) for k, v in sorted(self.query_words.items())},
        }


def _typed(key: str, value, kind: type | tuple[type, ...], what: str = "an integer"):
    """``value`` if a YAML ``kind`` (a bool is no int; mapping names are strings), else a ConfigError naming ``key``."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is int):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    for name in value if kind is dict else ():
        _typed(f"{key} name", name, str, "a string")
    return value


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a YAML config file; relative paths resolve against its directory.

    The counts in ``params`` and ``cleaning.min_token_len`` must be YAML
    integers, ``cleaning.lowercase``, if set, ``true`` (ingest always
    lowercases), ``cleaning.lang_filter`` a string or null, ``inputs.immorality``,
    ``output`` and each ``inputs.topics.<name>`` a path string,
    ``inputs.dictionary`` (null: the packaged dictionary) and
    ``cleaning.stopwords_file`` a path string or null, each
    ``cleaning.query_words.<name>`` a list of strings, and every mapping's
    names strings; any other value is a ConfigError naming the key, never coerced.
    """
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

    def _resolve(key: str, p) -> Path | None:
        """``p`` against the config's directory (an absolute ``p`` replaces it); ``p`` must be a path string or null."""
        return None if p is None else base / _typed(key, p, str, "a path")

    inputs = raw.get("inputs") or {}
    if not isinstance(inputs, dict) or not inputs.get("immorality"):
        raise ConfigError("config must set inputs.immorality")
    topics = _typed("inputs.topics", inputs.get("topics") or {}, dict, "a mapping of name -> path")
    topics_raw = {name: _typed(f"inputs.topics.{name}", p, str, "a path") for name, p in topics.items()}
    params = _typed("params", raw.get("params") or {}, dict, "a mapping")
    cleaning = _typed("cleaning", raw.get("cleaning") or {}, dict, "a mapping")
    # only the values the YAML sets: one it leaves out keeps PipelineConfig's default
    values = {key: _typed(f"params.{key}", params[key], int) for key in ("n1", "n2", "k", "extend_n", "seed")
              if key in params}
    if "topic_n" in params:
        topic_n = _typed("params.topic_n", params["topic_n"], list, "a list of integers")
        values["topic_n"] = tuple(_typed("params.topic_n", n, int) for n in topic_n)
    if cleaning.get("lowercase", True) is not True:
        raise ConfigError(f"cleaning.lowercase must be true (ingest always lowercases), got {cleaning['lowercase']!r}")
    for key, kind, what in (("min_token_len", int, "an integer"),
                            ("lang_filter", (str, type(None)), "a string or null")):
        if key in cleaning:
            values[key] = _typed(f"cleaning.{key}", cleaning[key], kind, what)
    query_words = {}
    for name, words in _typed("cleaning.query_words", cleaning.get("query_words") or {}, dict, "a mapping").items():
        key, what = f"cleaning.query_words.{name}", "a list of words"
        query_words[name] = tuple(_typed(key, w, str, what) for w in _typed(key, words, list, what))
    out = raw.get("output")
    if not out:
        raise ConfigError("config must set output")
    try:
        config = PipelineConfig(
            immorality_path=_resolve("inputs.immorality", inputs["immorality"]),
            out_dir=_resolve("output", out),
            topic_paths={name: _resolve(f"inputs.topics.{name}", p) for name, p in sorted(topics_raw.items())},
            dictionary_path=(_resolve("inputs.dictionary", inputs.get("dictionary"))
                             or lexicon_mod.packaged_dictionary_path()),
            query_words=query_words,
            stopwords_path=_resolve("cleaning.stopwords_file", cleaning.get("stopwords_file")),
            **values,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config {path} has a malformed value: {exc}") from exc
    return config


class Artifacts:
    """Canonical artifact locations under one output directory."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.ppmi = self.out_dir / "matrix" / "ppmi.npz"
        self.embedding = self.out_dir / "svd" / "embedding.npy"
        self.singular_values = self.out_dir / "svd" / "singular_values.tsv"
        self.mf_vectors = self.out_dir / "vectors" / "mf_vectors.tsv"
        self.topic_vectors = self.out_dir / "vectors" / "topic_vectors.tsv"
        self.loadings = self.out_dir / "loadings" / "loadings.csv"
        self.topics_csv = self.out_dir / "loadings" / "topics.csv"
        self.counts_csv = self.out_dir / "loadings" / "foundation_counts.csv"
        self.extended = self.out_dir / "extend" / "extended_dict.tsv"
        self.pca_csv = self.out_dir / "pca" / "pca.csv"
        self.pca_variance = self.out_dir / "pca" / "pca_variance.csv"
        self.similarity_csv = self.out_dir / "report" / "mf_similarity.csv"
        self.vice_report = self.out_dir / "report" / "vice_report.tsv"
        self.coverage_tsv = self.out_dir / "report" / "coverage.tsv"

    def corpus(self, name: str) -> Path:
        """The ids file of corpus ``name``; its counts are ``corpus_counts(name)``."""
        return self.out_dir / "corpus" / f"{name}.tsv"

    def corpus_counts(self, name: str) -> Path:
        return self.out_dir / "corpus" / f"{name}.npz"

    def terms(self, name: str) -> Path:
        return self.out_dir / "select" / f"{name}_terms.tsv"

    def rel(self, p: Path) -> str:
        """Artifact ``p`` relative to the output directory: its key in manifest.json."""
        return os.path.relpath(p, self.out_dir)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunManifest:
    """Each completed stage's entry: the hashes of the files it wrote, and its input record (``stage_inputs``)."""

    def __init__(self, path: Path, data: dict):
        self.path = path
        self.data = data

    @classmethod
    def load_or_create(cls, out_dir: Path, params: dict) -> "RunManifest":
        """The manifest under ``out_dir``, or a new one if there is none; a malformed file is a DataError."""
        path = out_dir / "manifest.json"
        if not path.exists():
            return cls(path, {"created": _now(), "updated": _now(), "params": params, "stages": {}})
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise DataError(f"{path}: not a readable JSON manifest: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("stages"), dict):
            raise DataError(f"{path}: expected a JSON object with a 'stages' object")
        for stage, entry in data["stages"].items():
            # an entry written before entries recorded inputs has none: the stages after it refuse to run
            if not (isinstance(entry, dict) and isinstance(entry.get("artifacts"), dict)
                    and isinstance(entry.get("inputs", {}), dict)):
                raise DataError(f"{path}: stage {stage!r} must be an object whose 'artifacts' and 'inputs' are objects")
        data.pop("inputs", None)  # an older run's record of the raw inputs; stage entries record them now
        return cls(path, data)

    def record_stage(self, stage: str, art: Artifacts, writes: list[Path], inputs: dict, metrics: dict) -> None:
        """Hash the files ``stage`` wrote, and record ``inputs``, what it read (``stage_inputs``), and
        ``metrics``, what it did, which no check reads."""
        self.data["stages"][stage] = {
            "completed": _now(),
            "artifacts": {art.rel(p): sha256_file(p) for p in sorted(writes)},
            "inputs": inputs,
            "metrics": metrics,
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


# descriptors of the .lock files this process holds locked (``output_lock``)
_LOCK_FDS: set[int] = set()


def _close_lock_fds() -> None:
    """Close, in a forked child, its copies of the locked ``.lock`` descriptors: the lock stays with the parent's,
    so that a child that outlives a killed run (an ingest reader) does not keep the next run out."""
    for fd in _LOCK_FDS:
        os.close(fd)
    _LOCK_FDS.clear()


os.register_at_fork(after_in_child=_close_lock_fds)


@contextmanager
def output_lock(out_dir: Path):
    """Exclusive ownership of the output directory via an advisory flock on ``.lock``.

    The kernel releases the lock when the process exits, so the file is safe to leave behind. A process
    forked while the lock is held does not hold it.
    """
    fd = os.open(out_dir / ".lock", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"output directory {out_dir} is locked by another run") from None
        _LOCK_FDS.add(fd)
        try:
            yield
        finally:
            _LOCK_FDS.discard(fd)
    finally:
        os.close(fd)


def _remove_stale(files: list[Path]) -> None:
    """Delete every regular file in the directories of ``files`` that is not one of them."""
    for directory in {p.parent for p in files}:
        for path in directory.iterdir():
            if path.is_file() and path not in files:
                logger.info("removing stale artifact %s", path)
                path.unlink()


def _corpus_paths(config: PipelineConfig) -> dict[str, Path]:
    """Input file of each corpus: ``immorality`` first, then the topics by name."""
    return {"immorality": config.immorality_path, **dict(sorted(config.topic_paths.items()))}


def stage_files(config: PipelineConfig, art: Artifacts) -> dict[str, tuple[dict[str, Path], list[Path], tuple]]:
    """What each stage reads and writes, as ``(reads, writes, values)``; per-corpus files for each corpus.

    ``reads`` maps each file's key in manifest.json to its path: an artifact's path from the output
    directory, or a raw input's role (``corpus:<name>``, ``stopwords``, ``dictionary``), as no stage writes
    it. ``values`` names the config values the stage reads.
    """
    corpora, dictionary = _corpus_paths(config), {"dictionary": config.dictionary_path}
    names, sources = list(corpora), {f"corpus:{name}": p for name, p in corpora.items()}
    sources.update({"stopwords": config.stopwords_path} if config.stopwords_path else {})
    counts, ids, terms = art.corpus_counts("immorality"), art.corpus("immorality"), art.terms("immorality")
    embedding = [art.embedding, terms]  # U_k has no words: its rows follow the ranking's first n1 words

    def files(*paths: Path) -> dict[str, Path]:
        return {art.rel(p): p for p in paths}

    return {
        "ingest": (sources, [p for name in names for p in (art.corpus_counts(name), art.corpus(name))],
                   ("min_token_len", "lang_filter", "query_words")),
        "select": (files(*map(art.corpus_counts, names)), [art.terms(name) for name in names], ("n2",)),
        "matrix": (files(counts, terms), [art.ppmi], ("n1",)),
        "svd": (files(art.ppmi, terms), [art.embedding, art.singular_values], ("n1", "k")),
        "vectors": ({**files(*embedding, *map(art.terms, names[1:])), **dictionary},
                    [art.mf_vectors, art.topic_vectors], ("n1", "topic_n")),
        "loadings": (files(*embedding, art.mf_vectors, counts, ids, art.topic_vectors),
                     [art.loadings, art.topics_csv, art.counts_csv], ("n1",)),
        "extend": (files(*embedding, art.mf_vectors), [art.extended], ("n1", "extend_n")),
        "pca": (files(*embedding, art.mf_vectors, art.extended), [art.pca_csv, art.pca_variance], ("n1",)),
        "report": ({**files(counts, terms, art.mf_vectors), **dictionary},
                   [art.vice_report, art.coverage_tsv, art.similarity_csv], ("n1",)),
    }


def stage_inputs(stage: str, config: PipelineConfig, table: dict, manifest: RunManifest,
                 hashed: dict[Path, str | None]) -> dict:
    """``stage``'s input record, what it would read now: for each artifact, the hash in its writer's entry;
    for each raw input, its sha256 (None if it is gone), taken from ``hashed`` or hashed once into it; for
    each config value, the value as ``params_snapshot`` gives it."""
    reads, _, values = table[stage]
    written, recorded = {p for _, writes, _ in table.values() for p in writes}, manifest.artifact_hashes()
    for p in reads.values():
        if p not in written and p not in hashed:
            hashed[p] = sha256_file(p) if p.exists() else None
    params = config.params_snapshot()
    return {**{key: recorded.get(key) if p in written else hashed[p] for key, p in reads.items()},
            **{name: params[name] for name in values}}


def _difference(stage: str, key: str, now: dict, then: dict, values: tuple) -> str:
    """How an entry of ``stage`` that recorded inputs ``then`` differs at ``key`` from its inputs ``now``."""
    if key not in now:
        return f"built from {key}, a value or file that stage {stage!r} no longer reads"
    if key in values and key in then:
        return f"built with {key}={then[key]!r}, not {now[key]!r}"
    recorded = f"{'another' if key in then else 'no'} {'value' if key in values else 'hash'}"
    return f"not built from the current {key} (manifest.json records {recorded} of it)"


def _check_upstream(stage: str, config: PipelineConfig, table: dict, manifest: RunManifest,
                    hashed: dict[Path, str | None]) -> None:
    """A PipelineError naming the first stage to rerun if ``stage`` may not run yet.

    Each file ``stage`` reads must exist and, unless a raw input, have a recorded hash. Each stage upstream
    of it, in pipeline order, must have an entry whose ``inputs`` equal its ``stage_inputs`` now: the same
    artifact hashes, raw-input hashes and config values. ``hashed`` holds the raw inputs already hashed.
    """
    writer = {p: name for name, (_, writes, _) in table.items() for p in writes}
    hashes = manifest.artifact_hashes()
    for key, p in table[stage][0].items():
        if not p.exists():
            raise PipelineError(f"missing artifact {p}; run stage {writer[p]!r} first" if p in writer
                                else f"input file {p} does not exist")
        if p in writer and key not in hashes:
            raise PipelineError(f"{p}: manifest.json records no hash of it; rerun stage {writer[p]!r}")
    upstream = {stage}
    for name in reversed(STAGES):  # a stage reads only what earlier stages write
        if name in upstream:
            upstream.update(writer[p] for p in table[name][0].values() if p in writer)
    for name in (s for s in STAGES if s in upstream - {stage}):
        entry = manifest.data["stages"].get(name)
        if entry is None:
            raise PipelineError(f"manifest.json records no completed run of stage {name!r}; rerun stage {name!r}")
        now, then = stage_inputs(name, config, table, manifest, hashed), entry.get("inputs", {})
        for key in {**now, **then}:  # what it reads now first, in table order
            if key not in now or key not in then or now[key] != then[key]:
                why = _difference(name, key, now, then, table[name][2])
                raise PipelineError(f"{table[name][1][0]}: {why}; rerun stage {name!r}")


def _peak_rss() -> dict[str, float]:
    """``{"peak_rss_mb": ...}``: the process's resident-set high-water mark so far (``VmHWM`` in
    ``/proc/self/status``), in MiB, or an empty dict where that cannot be read."""
    try:
        with open("/proc/self/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return {"peak_rss_mb": round(int(line.split()[1]) / 1024, 1)}
    except OSError:  # no /proc
        pass
    return {}


def _stage_ingest(config: PipelineConfig, art: Artifacts) -> dict:
    """Read, clean and count each corpus, JSON line to count row; returns each corpus's record counts."""
    stopwords = config.read_stopwords()  # one read serves every corpus
    corpora = {}
    for name, source in _corpus_paths(config).items():
        stats = corpus_mod.IngestStats()
        # no name holds the cleaning config, whose word table goes once the corpus is read
        counts, removed = vectorizer_mod.count_unique_tweets(
            corpus_mod.read_corpus(source, config.lang_filter, stats, config.cleaning_config(name, stopwords))
        )
        kept = counts.counts.shape[0]
        logger.info("%s: %d records -> %d after dedup (%d removed)", name, stats.loaded, kept, removed)
        vectorizer_mod.save_corpus_counts(counts, art.corpus_counts(name), art.corpus(name))
        corpora[name] = {**asdict(stats), "repeats_removed": removed, "kept": kept}
    # The interpreter keeps freed tuples and other small objects for reuse, scattered over
    # memory that would otherwise go back to the system; a full collection drops them (on 50k
    # tweets this lowers the peak of the later svd stage by about 4 MB).
    gc.collect()
    return {"corpora": corpora}


def _stage_select(config: PipelineConfig, art: Artifacts) -> None:
    for name in _corpus_paths(config):
        counts = vectorizer_mod.load_corpus_counts(art.corpus_counts(name))
        scores = vectorizer_mod.overlap_scores(counts)
        selection = vectorizer_mod.select_terms(scores, config.n1, config.n2)
        vectorizer_mod.save_selection(selection, art.terms(name))


def _stage_matrix(config: PipelineConfig, art: Artifacts) -> None:
    selection = vectorizer_mod.load_selection(art.terms("immorality"), config.n1)
    # no name holds the corpus or the co-occurrence counts, so build_cooccurrence can let the corpus go
    # before its product, and ppmi the counts before the save
    weighted = vectorizer_mod.ppmi(vectorizer_mod.build_cooccurrence(
        vectorizer_mod.load_corpus_counts(art.corpus_counts("immorality")), selection
    ))
    vectorizer_mod.save_triplets(weighted, art.ppmi)


def _stage_svd(config: PipelineConfig, art: Artifacts) -> None:
    # the matrix's columns are every ranked word, and its rows the first n1 (select may have ranked fewer)
    col_labels = vectorizer_mod.load_ranked_words(art.terms("immorality"))
    row_words = col_labels[:config.n1]
    shape = (len(row_words), len(col_labels))  # load_triplets checks the archive against it
    if config.k > min(shape):
        raise PipelineError(f"k={config.k} exceeds matrix rank bound min{shape}; lower k")
    # no name holds the matrix, so truncated_svd can let it go before its eigensolver
    result = linalg_mod.truncated_svd(vectorizer_mod.load_triplets(art.ppmi, row_words, col_labels), config.k)
    space = linalg_mod.EmbeddingSpace(words=vectorizer_mod.Vocabulary(row_words), vectors=result.u_k)
    linalg_mod.save_embedding(space, art.embedding)
    tables.write_lines(art.singular_values, (f"{s:.9g}" for s in result.singular_values))


def _load_embedding(config: PipelineConfig, art: Artifacts) -> linalg_mod.EmbeddingSpace:
    """U_k from ``embedding.npy``, row i for keyword i, the i-th word of the ranking."""
    keywords = vectorizer_mod.load_ranked_words(art.terms("immorality"), config.n1)
    return linalg_mod.load_embedding(art.embedding, keywords)


def _stage_vectors(config: PipelineConfig, art: Artifacts) -> None:
    embedding = _load_embedding(config, art)
    mf = semantics_mod.mf_vectors(lexicon_mod.load_dictionary(config.dictionary_path), embedding)
    tables.write_vectors(art.mf_vectors, lexicon_mod.FOUNDATIONS, mf)
    labels, topic_vectors = [], []
    for name in sorted(config.topic_paths):
        selection = vectorizer_mod.load_selection(art.terms(name), config.n1)
        for n in config.topic_n:
            labels.append(f"{name}:{n}")
            topic_vectors.append(semantics_mod.topic_vector(selection, embedding, n, label=labels[-1]))
    tables.write_vectors(art.topic_vectors, labels, topic_vectors)


def _load_mf_vectors(art: Artifacts, width: int | None = None) -> np.ndarray:
    """The 5 x k foundation matrix; its rows must be labeled with the foundations in canonical order and,
    given U_k's ``width``, hold that many values each."""
    labels, mf = tables.read_vectors(art.mf_vectors, width=width)
    if tuple(labels) != lexicon_mod.FOUNDATIONS:
        raise PipelineError(
            f"{art.mf_vectors}: expected rows {list(lexicon_mod.FOUNDATIONS)} in that order, found {labels}"
        )
    return mf


def _stage_loadings(config: PipelineConfig, art: Artifacts) -> None:
    embedding = _load_embedding(config, art)
    mf = _load_mf_vectors(art, embedding.vectors.shape[1])
    # no name holds the corpus, so score_corpus can let it go once its keyword counts are selected
    loadings = semantics_mod.score_corpus(
        vectorizer_mod.load_corpus_counts(art.corpus_counts("immorality"), art.corpus("immorality")), embedding, mf
    )
    semantics_mod.save_loadings(loadings, art.loadings)
    semantics_mod.save_foundation_counts(semantics_mod.foundation_counts(loadings), art.counts_csv)

    topics, vectors = tables.read_vectors(art.topic_vectors, semantics_mod.parse_topic_label, mf.shape[1])
    ns = np.array([n for _, n in topics], dtype=np.int64)
    topic_matrices = {
        n: semantics_mod.loading_matrix([name for name, m in topics if m == n], vectors[ns == n], mf)
        for n in sorted(set(ns.tolist()))
    }
    semantics_mod.save_topic_loadings(topic_matrices, art.topics_csv)


def _stage_extend(config: PipelineConfig, art: Artifacts) -> None:
    embedding = _load_embedding(config, art)
    mf = _load_mf_vectors(art, embedding.vectors.shape[1])
    extended = semantics_mod.extend_dictionary(embedding, mf, config.extend_n)
    semantics_mod.save_extended_dictionary(extended, art.extended)


def _stage_pca(config: PipelineConfig, art: Artifacts) -> None:
    embedding = _load_embedding(config, art)
    mf = _load_mf_vectors(art, embedding.vectors.shape[1])
    extended = semantics_mod.load_extended_dictionary(art.extended)
    words = dict.fromkeys(w for entries in extended.values() for w, _ in entries)
    words = [w for w in words if w in embedding.words]
    points = np.vstack([embedding.vectors[[embedding.words.index[w] for w in words]], mf])
    labels = words + [f"MF_{foundation}" for foundation in lexicon_mod.FOUNDATIONS]
    try:
        projection = linalg_mod.pca_2d(points, labels)
    except ValueError as exc:
        raise PipelineError(f"PCA projection failed: {exc}") from exc
    linalg_mod.save_pca(projection, art.pca_csv)
    variance = (f"pc{i + 1},{v:.9g}" for i, v in enumerate(projection.explained_variance))
    tables.write_lines(art.pca_variance, variance, header="component,explained_variance")


def _stage_report(config: PipelineConfig, art: Artifacts) -> None:
    counts = vectorizer_mod.load_corpus_counts(art.corpus_counts("immorality"))
    selection = vectorizer_mod.load_selection(art.terms("immorality"), config.n1)
    keywords = vectorizer_mod.Vocabulary(selection.keywords)
    freqs = np.asarray(counts.select(keywords).sum(axis=0)).ravel()
    del counts  # its archive map and vocabulary: nothing below reads them
    dictionary = lexicon_mod.load_dictionary(config.dictionary_path)
    lexicon_mod.write_dictionary_report(
        dictionary, dict(zip(keywords.words, freqs.tolist())), art.coverage_tsv, art.vice_report
    )

    mf = _load_mf_vectors(art)
    similarity = semantics_mod.mf_similarity_matrix(mf)
    semantics_mod.save_similarity_matrix(similarity, art.similarity_csv)


_STAGE_FUNCS = {name: globals()[f"_stage_{name}"] for name in STAGES}


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
        table = stage_files(config, art)
        hashed: dict[Path, str | None] = {}  # each raw input is hashed at most once per command
        for name in plan:
            writes = table[name][1]
            _check_upstream(name, config, table, manifest, hashed)
            inputs = stage_inputs(name, config, table, manifest, hashed)
            # no entry while the stage writes, so a run killed between two of its files leaves it refused
            manifest.data["stages"].pop(name, None)
            manifest.save()
            logger.info("stage %s: starting", name)
            start = time.perf_counter()
            metrics = _STAGE_FUNCS[name](config, art) or {}
            metrics["wall_s"] = round(time.perf_counter() - start, 4)
            # what the stage freed is handed back before the next one allocates
            linalg_mod.trim_heap()
            metrics.update(_peak_rss())
            _remove_stale(writes)
            # only the values the stage read, and not before: a failed stage leaves them as they were
            manifest.data.setdefault("params", {}).update({key: inputs[key] for key in table[name][2]})
            manifest.record_stage(name, art, writes, inputs, metrics)
            executed[name] = [art.rel(p) for p in writes]
            logger.info("stage %s: wrote %d artifacts", name, len(writes))
    return executed
