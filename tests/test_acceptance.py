"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v``. The criteria are
property-based plus desk-scale oracle equivalence on planted synthetic
corpora; the original tweet datasets behind the published tables do not
exist here, so no criterion asserts those exact numbers.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mfquant
from mfquant.corpus import CleaningConfig, clean_and_tokenize, deduplicate, load_records
from mfquant.corpus import TweetRecord
from mfquant.lexicon import FOUNDATIONS, VICE, MFDictionary, MFEntry, load_packaged_dictionary
from mfquant.linalg import EmbeddingSpace, row_cosines, truncated_svd
from mfquant.pipeline import Artifacts, PipelineConfig, RunManifest, run
from mfquant.semantics import (
    ContextVector,
    LoadingMatrix,
    extend_dictionary,
    mf_similarity_matrix,
    mf_vectors,
    score_corpus,
)
from mfquant.synth import DEFAULT_TOPICS, default_plan, synth_corpus, synth_topic_corpus
from mfquant.vectorizer import (
    Vocabulary,
    build_cooccurrence,
    count_corpus,
    overlap_scores,
    ppmi,
    select_terms,
)

IMMORALITY_CLEANING = CleaningConfig(query_words=frozenset({"immoral", "immorality"}))


@pytest.fixture
def announce(capfd):
    def _announce(num, text):
        with capfd.disabled():
            print(f"ACCEPTANCE C{num:02d} PASS  {text}", flush=True)

    return _announce


def load_planted_corpus(path):
    records, _ = load_records(path)
    tokenized = [clean_and_tokenize(r, IMMORALITY_CLEANING) for r in records]
    deduped, _ = deduplicate(tokenized)
    return count_corpus(deduped)


@pytest.fixture(scope="session")
def planted_5k(tmp_path_factory):
    """5k-tweet planted corpus pushed through the full in-memory pipeline."""
    tmp = tmp_path_factory.mktemp("planted")
    start = time.monotonic()
    plan = default_plan()
    synth_corpus(plan, 5000, 20260809, tmp / "immorality.jsonl")
    corpus = load_planted_corpus(tmp / "immorality.jsonl")
    scores = overlap_scores(corpus)
    selection = select_terms(scores, 2000, 20000)
    weighted = ppmi(build_cooccurrence(corpus, selection))
    k = min(100, min(weighted.shape))
    svd = truncated_svd(weighted, k=k)
    embedding = EmbeddingSpace(words=weighted.row_vocab, vectors=svd.u_k)
    mf = mf_vectors(load_packaged_dictionary(), embedding)
    matrix = score_corpus(corpus, embedding, mf)
    return {
        "corpus": corpus,
        "selection": selection,
        "embedding": embedding,
        "mf": mf,
        "matrix": matrix,
        "build_seconds": time.monotonic() - start,
    }


@pytest.fixture(scope="session")
def e2e_workspace(tmp_path_factory):
    """Small full-pipeline workspace with 4 topic corpora, run twice."""
    tmp = tmp_path_factory.mktemp("e2e")
    plan = default_plan(fillers_per_cluster=150, noise_pool=400)
    synth_corpus(plan, 800, 31, tmp / "immorality.jsonl")
    query_words = {"immorality": ("immoral", "immorality")}
    topic_paths = {}
    for i, (topic, cluster) in enumerate(DEFAULT_TOPICS):
        token = topic.replace("_", "")
        synth_topic_corpus(plan, cluster, 200, 500 + i, tmp / f"{topic}.jsonl", token)
        topic_paths[topic] = tmp / f"{topic}.jsonl"
        query_words[topic] = (token,)
    base = dict(
        immorality_path=tmp / "immorality.jsonl",
        topic_paths=topic_paths,
        query_words=query_words,
        n1=400,
        n2=3000,
        k=30,
        topic_n=(5, 20),
        extend_n=40,
        seed=11,
    )
    config_a = PipelineConfig(out_dir=tmp / "out_a", **base)
    config_b = PipelineConfig(out_dir=tmp / "out_b", **base)
    run("all", config_a)
    run("all", config_b)
    return config_a, config_b


def test_criterion_01_preprocessing_fidelity(announce):
    """The worked cleaning example reproduces its 9 tokens exactly."""
    text = (
        "@CharlesMBlow 50% marginal taxrates aren't immoral. Letting the majority "
        "of public school kids live in poverty is. https://t.co/grEgeu9lPj"
    )
    start = time.monotonic()
    tokens = clean_and_tokenize(TweetRecord(id="1", text=text), IMMORALITY_CLEANING).tokens
    assert tokens == (
        "marginal", "taxrates", "letting", "majority",
        "public", "school", "kids", "live", "poverty",
    )
    assert time.monotonic() - start < 1.0
    announce(1, "worked preprocessing example reproduces the 9-token output")


def test_criterion_02_tfidf_and_selection_oracle(announce, tmp_path):
    """Overlap scores match sums of a naive dense tf-idf oracle; equal terms tie; selection matches the sort oracle."""
    start = time.monotonic()
    plan = default_plan(fillers_per_cluster=40, noise_pool=80)
    synth_corpus(plan, 100, 2024, tmp_path / "c.jsonl")
    corpus = load_planted_corpus(tmp_path / "c.jsonl")
    scores = overlap_scores(corpus)

    dense = corpus.counts.toarray().T  # words x tweets
    n_tweets = dense.shape[1]
    oracle = np.zeros_like(dense, dtype=np.float64)
    for i in range(dense.shape[0]):
        df = int(np.count_nonzero(dense[i]))
        for j in range(n_tweets):
            if dense[i, j]:
                oracle[i, j] = dense[i, j] * (math.log(n_tweets + 1) - math.log(df))

    oracle_scores = oracle.sum(axis=1)
    for i, word in enumerate(corpus.vocab.words):
        assert scores[word] == pytest.approx(oracle_scores[i], abs=1e-12)

    # words with equal document frequency and total count score bit for bit alike and rank lexicographically
    rank = {w: r for r, w in enumerate(select_terms(scores, 0, len(scores)).context_words)}
    groups: dict[tuple[int, int], list[str]] = {}
    for word, row in zip(corpus.vocab.words, dense):
        groups.setdefault((int(np.count_nonzero(row)), int(row.sum())), []).append(word)
    tied = [words for words in groups.values() if len(words) > 1]
    assert tied, "fixture must contain words with equal (df, tf)"
    for words in tied:
        assert len({scores[w] for w in words}) == 1, words
        assert sorted(words, key=rank.__getitem__) == sorted(words)

    # the rare tail words guarantee genuine score ties
    score_values = sorted(scores.values())
    assert any(
        a == b for a, b in zip(score_values, score_values[1:])
    ), "fixture must contain tied scores"
    selection = select_terms(scores, 60, 200)
    ranked_oracle = sorted(scores, key=lambda w: (-scores[w], w))
    assert list(selection.keywords) == ranked_oracle[:60]
    assert list(selection.context_words) == ranked_oracle[:200]
    assert time.monotonic() - start < 5.0
    announce(2, "tf-idf, overlap scores, and selection match dense/sort oracles")


def test_criterion_03_ppmi_oracle(announce):
    """PPMI equals dense brute-force evaluation on 100 random count matrices."""
    from scipy import sparse

    from mfquant.vectorizer import SparseCountMatrix

    start = time.monotonic()
    rng = np.random.default_rng(99)
    trials = 0
    for _ in range(100):
        dense = rng.integers(0, 5, size=(50, 80)) * (rng.random((50, 80)) < 0.15)
        if dense.sum() == 0:
            continue
        trials += 1
        counts = SparseCountMatrix(
            row_vocab=Vocabulary(tuple(f"w{i}" for i in range(50))),
            col_labels=tuple(f"c{j}" for j in range(80)),
            counts=sparse.csr_matrix(dense.astype(np.int64)),
        )
        got = ppmi(counts).weights.toarray()
        total = dense.sum()
        row = dense.sum(axis=1)
        col = dense.sum(axis=0)
        oracle = np.zeros_like(got)
        for i in range(50):
            for j in range(80):
                if dense[i, j]:
                    ratio = (dense[i, j] / total) / ((row[i] / total) * (col[j] / total))
                    oracle[i, j] = max(math.log2(ratio), 0.0)
        np.testing.assert_allclose(got, oracle, atol=1e-12)
        assert (got >= 0).all()
    assert trials == 100
    assert time.monotonic() - start < 5.0
    announce(3, f"PPMI matches the dense oracle on {trials} random matrices")


def test_criterion_04_svd_accuracy(announce):
    """Top-20 singular values within 1e-6 relative of dense SVD; U_k orthonormal."""
    start = time.monotonic()
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        left, _ = np.linalg.qr(rng.standard_normal((200, 50)))
        right, _ = np.linalg.qr(rng.standard_normal((300, 50)))
        spectrum = 0.8 ** np.arange(50)
        matrix = (left * spectrum) @ right.T
        oracle = np.linalg.svd(matrix, compute_uv=False)
        result = truncated_svd(matrix, k=20)
        np.testing.assert_allclose(result.singular_values, oracle[:20], rtol=1e-6)
        gram = result.u_k.T @ result.u_k
        assert np.max(np.abs(gram - np.eye(20))) <= 1e-8
    assert time.monotonic() - start < 30.0
    announce(4, "rank-50 singular values within 1e-6 of dense oracle; U_k orthonormal to 1e-8")


def test_criterion_05_loading_properties(announce, planted_5k):
    """Loadings bounded, planted Care cluster recovered >= 90%, argmax oracle."""
    start = time.monotonic()
    matrix = planted_5k["matrix"]
    corpus = planted_5k["corpus"]
    assert (matrix.values >= -1.0).all() and (matrix.values <= 1.0).all()

    non_degenerate = [i for i in range(matrix.shape[0]) if not matrix.degenerate[i]]
    live_values = matrix.values[non_degenerate]
    assert live_values.shape == (len(non_degenerate), 5)

    care_idx = [
        i for i in non_degenerate if corpus.ids[i].startswith("care-")
    ]
    assert len(care_idx) > 500
    assigned = matrix.dominant[care_idx]
    care_rate = np.mean(assigned == FOUNDATIONS.index("Care"))
    assert care_rate >= 0.90

    rng = np.random.default_rng(7)
    rows = rng.standard_normal((10000, 5))
    dominant = LoadingMatrix(tuple(map(str, range(len(rows)))), rows, (False,) * len(rows)).dominant
    for row, index in zip(rows, dominant.tolist()):
        best, best_value = None, -np.inf
        for name, value in zip(FOUNDATIONS, row):
            if value > best_value:
                best, best_value = name, value
        assert FOUNDATIONS[index] == best
    elapsed = planted_5k["build_seconds"] + (time.monotonic() - start)
    assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s including corpus build"
    announce(5, f"loadings in [-1,1]; Care cluster recovered at {care_rate:.1%}; argmax oracle holds")


def test_criterion_06_extended_dictionary(announce, planted_5k):
    """500 entries at n=100, similarities recomputable to 1e-12, nonincreasing."""
    embedding = planted_5k["embedding"]
    mf = planted_5k["mf"]
    assert len(embedding.words.words) >= 100
    extended = extend_dictionary(embedding, mf, 100)
    assert sum(map(len, extended.values())) == 500
    for foundation in FOUNDATIONS:
        entries = extended[foundation]
        assert len(entries) == 100
        sims = [s for _, s in entries]
        assert all(sims[i] >= sims[i + 1] for i in range(len(sims) - 1))
        for word, sim in entries:
            row = embedding.vectors[embedding.words.index[word]]
            recomputed = row_cosines(row, mf[FOUNDATIONS.index(foundation)])[0, 0]
            assert abs(sim - recomputed) <= 1e-12
    announce(6, "extended dictionary: 500 entries, nonincreasing, cosines verified to 1e-12")


def test_criterion_07_mf_similarity_matrix(announce, planted_5k):
    """Symmetric with unit diagonal; identity on an orthogonal fixture."""
    sim = mf_similarity_matrix(planted_5k["mf"])
    np.testing.assert_allclose(sim, sim.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(sim), np.ones(5), atol=1e-12)

    fixture_dict = MFDictionary([
        MFEntry("kill", "Care", VICE),
        MFEntry("unfair", "Fairness", VICE),
        MFEntry("enemy", "Ingroup", VICE),
        MFEntry("illegal", "Authority", VICE),
        MFEntry("sin", "Purity", VICE),
    ])
    space = EmbeddingSpace(
        words=Vocabulary(("kill", "unfair", "enemy", "illegal", "sin")),
        vectors=np.eye(5),
    )
    ortho = mf_similarity_matrix(mf_vectors(fixture_dict, space))
    np.testing.assert_array_equal(ortho, np.eye(5))
    announce(7, "MF similarity symmetric with unit diagonal; orthogonal fixture gives identity")


def test_criterion_08_determinism(announce, e2e_workspace):
    """Two identically-configured full runs produce identical artifact hashes."""
    config_a, config_b = e2e_workspace
    hashes_a = RunManifest.load_or_create(config_a.out_dir, config_a.params_snapshot()).artifact_hashes()
    hashes_b = RunManifest.load_or_create(config_b.out_dir, config_b.params_snapshot()).artifact_hashes()
    assert hashes_a
    assert hashes_a == hashes_b
    announce(8, f"two pipeline runs agree on all {len(hashes_a)} artifact hashes")


def test_criterion_10_shape_contracts(announce, e2e_workspace, planted_5k):
    """Loading matrices expose 5 canonical columns; topic matrix is 4x5."""
    matrix = planted_5k["matrix"]
    assert matrix.values.shape[1] == 5
    assert matrix.foundations == ("Care", "Fairness", "Ingroup", "Authority", "Purity")

    config_a, _ = e2e_workspace
    art = Artifacts(config_a.out_dir)
    header = art.loadings.read_text(encoding="utf-8").splitlines()[0]
    assert header == "id,care,fairness,ingroup,authority,purity,dominant,degenerate"

    lines = art.topics_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "topic,keywords_used,care,fairness,ingroup,authority,purity"
    blocks: dict[str, list[list[str]]] = {}
    for line in lines[1:]:
        fields = line.split(",")
        blocks.setdefault(fields[1], []).append(fields)
    for n, rows in blocks.items():
        assert len(rows) == 4, f"topic matrix for n={n} should have 4 rows"
        for fields in rows:
            assert len(fields) == 2 + 5
    assert len(blocks) == 2  # one 4x5 matrix per configured topic_n
    announce(10, "loading matrices have 5 canonical columns; topic matrices are 4x5")


# runs in a child process, so that ru_maxrss is this run's peak alone, not that of every test before it, and the
# peak of the child's own children (ingest's range readers) is theirs alone
C09_CHILD = """
import json, resource, sys, time
from pathlib import Path
from mfquant.pipeline import PipelineConfig, run

spec = json.loads(sys.argv[1])
config = PipelineConfig(
    immorality_path=Path(spec["immorality"]), out_dir=Path(spec["out"]),
    topic_paths={name: Path(p) for name, p in spec["topics"].items()},
    query_words={name: tuple(words) for name, words in spec["query_words"].items()},
    n1=2000, n2=20000, k=100, seed=42,
)
start = time.monotonic()
executed = run("all", config)
elapsed = time.monotonic() - start
print(json.dumps({"stages": len(executed), "elapsed": elapsed,
                  "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "children_peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


def test_criterion_09_end_to_end_desk_scale(announce, tmp_path):
    """run(all) on 50k synthetic tweets, N1=2000 N2=20000 k=100: <5 min, <4 GB."""
    plan = default_plan()
    synth_corpus(plan, 50000, 777, tmp_path / "immorality.jsonl")
    query_words = {"immorality": ("immoral", "immorality")}
    topic_paths = {}
    for i, (topic, cluster) in enumerate(DEFAULT_TOPICS):
        token = topic.replace("_", "")
        synth_topic_corpus(plan, cluster, 2000, 900 + i, tmp_path / f"{topic}.jsonl", token)
        topic_paths[topic] = str(tmp_path / f"{topic}.jsonl")
        query_words[topic] = (token,)
    spec = {
        "immorality": str(tmp_path / "immorality.jsonl"), "out": str(tmp_path / "out"),
        "topics": topic_paths, "query_words": query_words,
    }
    package_root = str(Path(mfquant.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", C09_CHILD, json.dumps(spec)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    # the 50k corpus is read in byte ranges, the later ones by forked workers: their peak counts too
    elapsed, peak_gb = result["elapsed"], (result["peak_kb"] + result["children_peak_kb"]) / (1024 ** 2)
    assert result["stages"] == 9
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
    assert peak_gb < 4.0, f"peak memory {peak_gb:.2f} GB"
    announce(9, f"50k-tweet run(all) finished in {elapsed:.1f}s with peak {peak_gb:.2f} GB")
