"""The benchmark's tracer wraps mfquant functions by name and counts from their
arguments and results; each name must exist and each counter must still read them."""

import importlib
import importlib.util
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import mfquant.corpus
from mfquant.corpus import TokenizedTweet, load_records
from mfquant.linalg import EmbeddingSpace
from mfquant.pipeline import PipelineConfig, run
from mfquant.synth import DEFAULT_TOPICS, default_plan, synth_corpus, synth_topic_corpus
from mfquant.vectorizer import SelectionResult, Vocabulary, build_cooccurrence, count_corpus, ppmi

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in tracing.LAYER_FUNCTIONS.items() for name in names]
)
def test_traced_name_is_callable(layer, name):
    module = importlib.import_module(f"mfquant.{layer}")
    assert callable(getattr(module, name, None)), f"mfquant.{layer}.{name}"


def test_ingest_cleans_each_loaded_record_through_the_module_attribute(monkeypatch, tmp_path):
    """The tracer's per-record wrapper counts calls to ``corpus.clean_and_tokenize``: ingest must
    make exactly one such call per loaded record, in every corpus."""
    plan = default_plan(fillers_per_cluster=60, noise_pool=100)
    synth_corpus(plan, 120, 3, tmp_path / "immorality.jsonl")
    query_words = {"immorality": ("immoral", "immorality")}
    for i, (topic, cluster) in enumerate(DEFAULT_TOPICS[:2]):
        synth_topic_corpus(plan, cluster, 40, 10 + i, tmp_path / f"{topic}.jsonl", topic)
        query_words[topic] = (topic,)
    config = PipelineConfig(
        immorality_path=tmp_path / "immorality.jsonl", out_dir=tmp_path / "out",
        topic_paths={topic: tmp_path / f"{topic}.jsonl" for topic, _ in DEFAULT_TOPICS[:2]},
        query_words=query_words,
    )
    cleaned = []
    clean = mfquant.corpus.clean_and_tokenize

    def counting(record, cleaning):
        cleaned.append(record.id)
        return clean(record, cleaning)

    monkeypatch.setattr(mfquant.corpus, "clean_and_tokenize", counting)
    run("ingest", config)
    loaded = [r.id for p in (config.immorality_path, *config.topic_paths.values()) for r in load_records(p)[0]]
    assert len(loaded) == 200 and cleaned == loaded


# Tweet "3" repeats tweet "1" (one duplicate) and tweet "4" has no keyword (degenerate).
TWEETS = [
    TokenizedTweet("1", ("war", "sin", "god")),
    TokenizedTweet("2", ("war", "kill", "war")),
    TokenizedTweet("3", ("war", "sin", "god")),
    TokenizedTweet("4", ("other",)),
]
COUNTS = count_corpus(TWEETS)
SELECTION = SelectionResult(
    keywords=("war", "sin"), context_words=("war", "sin", "god", "kill"),
    scores={"war": 4.0, "sin": 3.0, "god": 2.0, "kill": 1.0},
)


def counter_arguments(name, tmp_path):
    """Tiny positional arguments for the traced function ``name``."""
    if name == "corpus.load_records":
        path = tmp_path / "tweets.jsonl"
        path.write_text("".join(json.dumps({"id": str(i), "text": "war sin"}) + "\n" for i in range(3)))
        return (path,)
    if name == "corpus.deduplicate":
        return (TWEETS,)
    if name == "vectorizer.build_cooccurrence":
        return (COUNTS, SELECTION)
    if name == "vectorizer.ppmi":
        return (build_cooccurrence(COUNTS, SELECTION),)
    if name == "linalg.truncated_svd":
        return (ppmi(build_cooccurrence(COUNTS, SELECTION)), 1, 0)
    if name == "semantics.context_vectors_for_corpus":
        return (COUNTS, EmbeddingSpace(Vocabulary(("war", "sin")), np.array([[1.0, 0.5], [-0.5, 2.0]])))
    raise KeyError(name)


COUNT_KEYS = {
    "corpus.load_records": ("corpus.records_in",),
    "corpus.deduplicate": ("dedup.in", "dedup.kept"),
    "vectorizer.build_cooccurrence": ("vectorizer.cooc_nnz", "vectorizer.cooc_pairs"),
    "vectorizer.ppmi": ("vectorizer.ppmi_nnz", "ppmi.cells"),
    "linalg.truncated_svd": ("linalg.svd_flops_computed", "linalg.svd_bytes_computed", "linalg.svd_energy"),
    "semantics.context_vectors_for_corpus": ("cv.tweets", "cv.degenerate", "cv.keyword_tokens", "cv.tokens"),
}


def test_every_counter_is_checked():
    assert set(tracing._COUNTERS) == set(COUNT_KEYS)


@pytest.mark.parametrize("name", sorted(COUNT_KEYS))
def test_counter_reads_the_wrapped_call(name, tmp_path):
    layer, fname = name.split(".")
    fn = getattr(importlib.import_module(f"mfquant.{layer}"), fname)
    tracer = tracing.Tracer()
    tracer.wrap(name, fn, tracing._COUNTERS[name])(*counter_arguments(name, tmp_path))
    counts = {key: tracer.counts.get(key, 0) for key in COUNT_KEYS[name]}
    assert all(value > 0 for value in counts.values()), counts


def test_every_workload_config_validates(monkeypatch, tmp_path):
    """The untraced benchmark path builds each workload's PipelineConfig in child.make_config."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench_run = importlib.import_module("run")
    child = importlib.import_module("child")
    for name, workload in bench_run.WORKLOADS.items():
        config = child.make_config(asdict(workload), tmp_path / name)
        assert isinstance(config, PipelineConfig), name
        config.validate()


def test_pipeline_output_passes_the_benchmark_checks(monkeypatch, tmp_path):
    """perfbench/checks.py reads the pipeline's output files directly (ids from the corpus
    files, loadings, topics, the manifest): a full run must pass every one of its checks."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    floor = importlib.import_module("run").ACCURACY_FLOOR
    plan = default_plan(fillers_per_cluster=120, noise_pool=300)
    synth_corpus(plan, 400, 13, tmp_path / "immorality.jsonl")
    topics = DEFAULT_TOPICS[:2]
    query_words = {"immorality": ("immoral", "immorality")}
    for i, (topic, cluster) in enumerate(topics):
        synth_topic_corpus(plan, cluster, 120, 100 + i, tmp_path / f"{topic}.jsonl", topic.replace("_", ""))
        query_words[topic] = (topic.replace("_", ""),)
    config = PipelineConfig(
        immorality_path=tmp_path / "immorality.jsonl", out_dir=tmp_path / "out",
        topic_paths={topic: tmp_path / f"{topic}.jsonl" for topic, _ in topics},
        query_words=query_words, n1=300, n2=1500, k=25, topic_n=(5, 20),
    )
    run("all", config)
    problems, hashes, accuracy = checks.check_operation(config.out_dir, [t for t, _ in topics], floor)
    assert problems == []
    assert "corpus/immorality.tsv" in hashes and accuracy >= floor
