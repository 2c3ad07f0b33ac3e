import builtins
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import mfquant
from mfquant import linalg, pipeline, vectorizer
from mfquant.cli import main
from mfquant.corpus import TokenizedTweet
from mfquant.errors import ConfigError, DataError, PipelineError
from mfquant.lexicon import FOUNDATIONS, packaged_dictionary_path
from mfquant.linalg import load_embedding
from mfquant.pipeline import (
    STAGES,
    Artifacts,
    PipelineConfig,
    RunManifest,
    load_config,
    output_lock,
    run,
    sha256_file,
    stage_files,
    stage_inputs,
)
from mfquant.semantics import LoadingMatrix, save_loadings
from mfquant.synth import DEFAULT_TOPICS, default_plan, synth_corpus, synth_topic_corpus
from mfquant.tables import read_vectors, write_vectors
from mfquant.vectorizer import SelectionResult, count_corpus, load_corpus_counts, save_corpus_counts, save_selection

SMALL_PARAMS = dict(n1=300, n2=1500, k=25, topic_n=(5, 20), extend_n=30, seed=7)


def make_workspace(tmp_path, tweets=400, topic_tweets=120, topics=DEFAULT_TOPICS[:2]):
    plan = default_plan(fillers_per_cluster=120, noise_pool=300)
    synth_corpus(plan, tweets, 13, tmp_path / "immorality.jsonl")
    query_words = {"immorality": ("immoral", "immorality")}
    topic_paths = {}
    for i, (topic, cluster) in enumerate(topics):
        token = topic.replace("_", "")
        synth_topic_corpus(plan, cluster, topic_tweets, 100 + i, tmp_path / f"{topic}.jsonl", token)
        topic_paths[topic] = tmp_path / f"{topic}.jsonl"
        query_words[topic] = (token,)
    return PipelineConfig(
        immorality_path=tmp_path / "immorality.jsonl",
        out_dir=tmp_path / "out",
        topic_paths=topic_paths,
        query_words=query_words,
        **SMALL_PARAMS,
    )


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = make_workspace(tmp_path)
    executed = run("all", config)
    return config, executed


# the rise of the high-water RSS over pipeline.run("svd") on the workspace in argv[1], with one Gram worker
SVD_HIGH_WATER = r"""
import sys
from pathlib import Path
from mfquant import linalg, pipeline

def high_water():
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

linalg._available_cpus = lambda: 1
workspace = Path(sys.argv[1])
config = pipeline.PipelineConfig(immorality_path=workspace / "immorality.jsonl", out_dir=workspace / "out",
                                 query_words={"immorality": ("immoral",)}, k=10)
before = high_water()
pipeline.run("svd", config)
print(high_water() - before)
"""


class TestConfigFile:
    def write_config(self, tmp_path, body):
        path = tmp_path / "config.yaml"
        path.write_text(body, encoding="utf-8")
        return path

    def test_parse_and_relative_paths(self, tmp_path):
        body = """
inputs:
  immorality: corpus.jsonl
  topics:
    alpha: alpha.jsonl
output: results
params: {n1: 10, n2: 20, k: 5, seed: 3, topic_n: [4], extend_n: 6}
cleaning:
  lang_filter: en
  query_words:
    immorality: [immoral]
    alpha: [alphaq]
"""
        config = load_config(self.write_config(tmp_path, body))
        assert config.immorality_path == tmp_path / "corpus.jsonl"
        assert config.topic_paths["alpha"] == tmp_path / "alpha.jsonl"
        assert config.out_dir == tmp_path / "results"
        assert (config.n1, config.n2, config.k, config.seed) == (10, 20, 5, 3)
        assert config.topic_n == (4,)
        assert config.lang_filter == "en"
        config.validate()

    def test_missing_immorality_input(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write_config(tmp_path, "output: out\n"))

    def test_missing_query_words_fails_validation(self, tmp_path):
        body = """
inputs: {immorality: corpus.jsonl}
output: out
"""
        config = load_config(self.write_config(tmp_path, body))
        with pytest.raises(ConfigError, match="query_words"):
            config.validate()

    def test_n1_exceeding_n2_fails(self, tmp_path):
        config = PipelineConfig(
            immorality_path=tmp_path / "x.jsonl",
            out_dir=tmp_path / "out",
            n1=50,
            n2=10,
            query_words={"immorality": ("immoral",)},
        )
        with pytest.raises(ConfigError, match="n1"):
            config.validate()

    @pytest.mark.parametrize(
        "section,key",
        [
            ("params: {n1: 20.7}", "params.n1"),
            ("params: {n2: '20'}", "params.n2"),
            ("params: {k: true}", "params.k"),
            ("params: {extend_n: null}", "params.extend_n"),
            ("params: {seed: 1.5}", "params.seed"),
            ("params: {topic_n: [4, 5.5]}", "params.topic_n"),
            ("params: {topic_n: [false]}", "params.topic_n"),
            ("params: {topic_n: '10'}", "params.topic_n"),
            ("cleaning: {min_token_len: false}", "cleaning.min_token_len"),
            ("cleaning: {lowercase: 'false'}", "cleaning.lowercase"),
            ("cleaning: {lowercase: 0}", "cleaning.lowercase"),
            ("cleaning: {lang_filter: 5}", "cleaning.lang_filter"),
            ("cleaning: {query_words: {immorality: [immoral, 2016]}}", "cleaning.query_words.immorality"),
            ("cleaning: {query_words: {immorality: [immoral], 2016: [t]}}", "cleaning.query_words name"),
            ("params: [n1, 20]", "params"),
            ("params: {1: 2}", "params name"),
        ],
    )
    def test_malformed_value_names_its_key(self, tmp_path, section, key):
        path = self.write_config(tmp_path, f"inputs: {{immorality: corpus.jsonl}}\noutput: out\n{section}\n")
        with pytest.raises(ConfigError, match=rf"^{key} must"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "body,key",
        [
            ("inputs: {immorality: 5}\noutput: out", "inputs.immorality"),
            ("inputs: {immorality: corpus.jsonl, dictionary: 5}\noutput: out", "inputs.dictionary"),
            ("inputs: {immorality: corpus.jsonl}\noutput: [out]", "output"),
            ("inputs: {immorality: corpus.jsonl}\noutput: out\ncleaning: {stopwords_file: 5}", "cleaning.stopwords_file"),
        ],
        ids=["inputs.immorality", "inputs.dictionary", "output", "cleaning.stopwords_file"],
    )
    def test_non_string_path_names_its_key(self, tmp_path, body, key):
        path = self.write_config(tmp_path, f"{body}\n")
        with pytest.raises(ConfigError, match=rf"^{key} must be a path, got"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "topics,key",
        [("{2016: t.jsonl}", "inputs.topics name"), ("{topic_care: }", "inputs.topics.topic_care")],
    )
    def test_malformed_topic_names_its_key(self, tmp_path, topics, key):
        body = f"""
inputs: {{immorality: corpus.jsonl, topics: {topics}}}
output: out
cleaning: {{query_words: {{immorality: [immoral], topic_care: [t]}}}}
"""
        path = self.write_config(tmp_path, body)
        with pytest.raises(ConfigError, match=rf"^{key} must"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1

    def test_k_exceeding_n1_fails_before_any_stage(self, tmp_path):
        config = make_workspace(tmp_path, tweets=50, topics=())
        config.n1, config.k = 20, 21
        with pytest.raises(ConfigError, match=r"k \(21\) must not exceed n1 \(20\)"):
            run("all", config)
        assert not config.out_dir.exists()

    def test_k_exceeding_the_truncated_matrix_fails_at_svd(self, tmp_path):
        config = make_workspace(tmp_path, tweets=50, topics=())
        # 50 tweets hold about 400 distinct words, so the matrix has fewer than n1 rows
        config.n1, config.k = 1000, 500
        with pytest.raises(PipelineError, match="k=500 exceeds matrix rank bound"):
            run("all", config)
        manifest = json.loads((config.out_dir / "manifest.json").read_text())
        assert set(manifest["stages"]) == {"ingest", "select", "matrix"}

    def test_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write_config(tmp_path, "inputs: [unclosed"))

    def test_string_query_words_rejected(self, tmp_path):
        body = """
inputs: {immorality: corpus.jsonl}
output: out
cleaning:
  query_words: {immorality: immoral}
"""
        with pytest.raises(ConfigError, match="query_words.immorality"):
            load_config(self.write_config(tmp_path, body))

    @pytest.mark.parametrize(
        "name",
        ["", "immorality", "../../escaped", "a/b", "a,b", "a\tb", "a\nb", "a\rb"],
    )
    def test_bad_topic_name_rejected(self, tmp_path, name):
        config = PipelineConfig(
            immorality_path=tmp_path / "x.jsonl",
            out_dir=tmp_path / "out",
            topic_paths={name: tmp_path / "t.jsonl"},
            query_words={"immorality": ("immoral",), name: ("topic",)},
        )
        with pytest.raises(ConfigError, match="topic name"):
            config.validate()

    def test_repeated_topic_n_rejected(self, tmp_path):
        config = PipelineConfig(
            immorality_path=tmp_path / "x.jsonl",
            out_dir=tmp_path / "out",
            topic_n=(10, 5, 10),
            query_words={"immorality": ("immoral",)},
        )
        with pytest.raises(ConfigError, match=r"topic_n .*repeated: \[10\]"):
            config.validate()


class TestStages:
    def test_all_stages_execute_and_emit_artifacts(self, completed_run):
        config, executed = completed_run
        assert list(executed) == list(STAGES)
        art = Artifacts(config.out_dir)
        expected = [
            art.corpus("immorality"), art.corpus_counts("immorality"),
            art.terms("immorality"),
            art.ppmi, art.row_vocab, art.col_vocab,
            art.embedding, art.singular_values,
            art.mf_vectors, art.topic_vectors,
            art.loadings, art.topics_csv,
            art.extended,
            art.pca_csv, art.pca_variance,
            art.counts_csv, art.similarity_csv, art.vice_report, art.coverage_tsv,
        ]
        for path in expected:
            assert path.exists(), path

    def test_manifest_covers_all_artifacts(self, completed_run):
        config, executed = completed_run
        manifest = json.loads((config.out_dir / "manifest.json").read_text())
        recorded = set()
        for stage in manifest["stages"].values():
            recorded.update(stage["artifacts"])
        emitted = {rel for files in executed.values() for rel in files}
        assert emitted == recorded
        assert set(manifest["stages"]) == set(STAGES)
        assert manifest["params"]["seed"] == config.seed
        # each raw input is recorded, by its role, by the stages that read it, and nowhere else
        assert "inputs" not in manifest
        corpora = {"immorality": config.immorality_path, **config.topic_paths}
        assert manifest["stages"]["ingest"]["inputs"] == {
            **{f"corpus:{name}": sha256_file(path) for name, path in corpora.items()},
            "min_token_len": 3, "lowercase": True, "lang_filter": None,
            "query_words": {name: list(words) for name, words in config.query_words.items()},
        }
        readers = {name for name, entry in manifest["stages"].items() if "dictionary" in entry["inputs"]}
        assert readers == {"vectors", "report"}
        assert manifest["stages"]["report"]["inputs"]["dictionary"] == sha256_file(config.dictionary_path)
        values = {name: {key: entry["inputs"][key] for key in ("n1", "n2", "k", "topic_n", "extend_n")
                         if key in entry["inputs"]} for name, entry in manifest["stages"].items()}
        assert values == {"ingest": {}, "select": {"n2": 1500}, "matrix": {"n1": 300}, "svd": {"k": 25},
                          "vectors": {"topic_n": [5, 20]}, "loadings": {}, "extend": {"extend_n": 30},
                          "pca": {}, "report": {"n1": 300}}
        assert not any(key.startswith("..") for entry in manifest["stages"].values()
                       for key in (*entry["inputs"], *entry["artifacts"]))

    def test_missing_prerequisite_names_stage(self, tmp_path):
        config = make_workspace(tmp_path, tweets=50, topics=())
        with pytest.raises(PipelineError, match="'matrix'"):
            run("svd", config)

    def test_unknown_stage_rejected(self, tmp_path):
        config = make_workspace(tmp_path, tweets=50, topics=())
        with pytest.raises(ConfigError):
            run("polish", config)

    def test_lock_excludes_concurrent_runs(self, tmp_path):
        config = make_workspace(tmp_path, tweets=50, topics=())
        config.out_dir.mkdir(parents=True)
        with output_lock(config.out_dir):
            with pytest.raises(PipelineError, match="lock"):
                run("ingest", config)

    def test_stale_lock_file_is_not_a_lock(self, tmp_path):
        config = make_workspace(tmp_path, tweets=50, topics=())
        config.out_dir.mkdir(parents=True)
        (config.out_dir / ".lock").write_text("12345\n")
        assert list(run("ingest", config)) == ["ingest"]

    def test_delimiter_id_rejected_at_ingest(self, tmp_path):
        config = make_workspace(tmp_path, tweets=200, topics=())
        first = json.loads(config.immorality_path.read_text(encoding="utf-8").splitlines()[0])
        bad = {"id": "idq,idw\tinjq", "text": " ".join(reversed(first["text"].split()))}
        with config.immorality_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(bad) + "\n")
        executed = run("all", config)
        assert list(executed) == list(STAGES)
        for rel in (rel for files in executed.values() for rel in files):
            data = (config.out_dir / rel).read_bytes()
            assert b"idq" not in data and b"injq" not in data, rel

    def test_rerun_single_stage_after_all(self, completed_run):
        config, _ = completed_run
        art = Artifacts(config.out_dir)
        before = art.extended.read_bytes()
        run("extend", config)
        assert art.extended.read_bytes() == before

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps call arguments on the caller's stack")
    def test_ppmi_matrix_is_freed_before_the_eigensolver(self, tmp_path, monkeypatch):
        config = make_workspace(tmp_path, tweets=200, topics=())
        for stage in ("ingest", "select", "matrix"):
            run(stage, config)
        load, eigh, refs, alive = vectorizer.load_triplets, linalg.scipy.linalg.eigh, [], []

        def recording_load(*args, **kwargs):
            matrix = load(*args, **kwargs)
            assert matrix.shape[0] <= matrix.shape[1]
            weights = matrix.weights
            refs.extend(weakref.ref(a) for a in (matrix, weights, weights.data, weights.indices, weights.indptr))
            return matrix

        def recording_eigh(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return eigh(*args, **kwargs)

        monkeypatch.setattr(vectorizer, "load_triplets", recording_load)
        monkeypatch.setattr(linalg.scipy.linalg, "eigh", recording_eigh)
        run("svd", config)
        assert alive == [[False] * 5]

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc/self/status")
    def test_svd_stage_holds_each_ppmi_row_only_until_the_gram_fill_passes_it(self, tmp_path):
        """At the paper's n1 and n2 on 30k tweets, the svd stage's peak RSS rises by less than the whole Gram
        matrix plus half the PPMI archive, as the fill hands back the rows it has passed. Holding all of A
        through the fill rises by about 1.14 times that; the bound leaves room for one Gram worker's block
        buffers (2.5 MB at 2000 rows), so the stage runs with one."""
        synth_corpus(default_plan(), 30000, 1, tmp_path / "immorality.jsonl")
        config = PipelineConfig(immorality_path=tmp_path / "immorality.jsonl", out_dir=tmp_path / "out",
                                query_words={"immorality": ("immoral",)}, k=10)
        for stage in ("ingest", "select", "matrix"):
            run(stage, config)
        art = Artifacts(config.out_dir)
        rows = len(vectorizer.load_vocabulary(art.row_vocab))
        assert rows == config.n1
        env = {**os.environ, "PYTHONPATH": str(Path(mfquant.__file__).parents[1])}
        child = subprocess.run([sys.executable, "-c", SVD_HIGH_WATER, str(tmp_path)], env=env,
                               capture_output=True, text=True, check=True)
        assert int(child.stdout) < rows * rows * 8 + art.ppmi.stat().st_size / 2

    def test_run_all_without_topics(self, tmp_path):
        config = make_workspace(tmp_path, tweets=200, topics=())
        executed = run("all", config)
        assert list(executed) == list(STAGES)
        art = Artifacts(config.out_dir)
        lines = art.topics_csv.read_text(encoding="utf-8").splitlines()
        assert lines == ["topic,keywords_used,care,fairness,ingroup,authority,purity"]


def test_rerun_removes_files_a_stage_no_longer_writes(tmp_path):
    config = make_workspace(tmp_path, tweets=200, topic_tweets=60)
    dropped = sorted(config.topic_paths)[-1]
    run("all", config)
    art = Artifacts(config.out_dir)
    assert art.corpus(dropped).exists() and art.terms(dropped).exists()
    del config.topic_paths[dropped]
    run("all", config)
    assert not art.corpus(dropped).exists() and not art.terms(dropped).exists()
    manifest = json.loads((config.out_dir / "manifest.json").read_text())
    for stage in STAGES:
        listed = set(manifest["stages"][stage]["artifacts"])
        directories = {(config.out_dir / rel).parent for rel in listed}
        on_disk = {art.rel(p) for d in directories for p in d.iterdir()}
        assert on_disk == listed, stage


def record_every_stage(config):
    """manifest.json entries that agree with the stage table, for a hand-made workspace: each file's sha256,
    a placeholder for every file the workspace does not hold, and each stage's current input record."""
    art = Artifacts(config.out_dir)
    table = stage_files(config, art)
    manifest = RunManifest(config.out_dir / "manifest.json", {"stages": {
        name: {"artifacts": {art.rel(p): sha256_file(p) if p.exists() else "absent" for p in writes}}
        for name, (_, writes, _) in table.items()
    }})
    for name, entry in manifest.data["stages"].items():
        entry["inputs"] = stage_inputs(name, config, table, manifest, {})
    manifest.save()


def test_report_stage_writes_exact_dictionary_reports(tmp_path):
    """coverage.tsv and vice_report.tsv of a hand-made workspace, byte for byte."""
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text(
        "treason*\tIngroup\tvice\n"
        "treason*\tAuthority\tvice\n"  # treasonous matches two foundations
        "kill*\tCare\tvice\n"
        "war\tCare\tvice\n"  # matches no keyword
        "sin\tPurity\tvice\n"
        "unfair*\tFairness\tvice\n"  # matches no keyword
        "damn*\tMoralityGeneral\tvice\n"  # damned matches only MoralityGeneral: no report row
        "safe*\tCare\tvirtue\n",  # virtue entries take no part
        encoding="utf-8",
    )
    config = PipelineConfig(
        immorality_path=tmp_path / "immorality.jsonl", out_dir=tmp_path / "out", dictionary_path=dictionary,
        n1=6, n2=7, k=1, query_words={"immorality": ("immoral",)},
    )
    art = Artifacts(config.out_dir)
    # counts: damned 5, safety 4, killing 3, treasonous 3 (a tie), kill 2, sin 1, and warfare outside the keywords
    tokens = ["damned"] * 5 + ["safety"] * 4 + ["killing", "treasonous"] * 3 + ["kill"] * 2 + ["sin", "warfare"]
    tweets = [TokenizedTweet(f"t{i}", (token,)) for i, token in enumerate(tokens)]
    art.corpus_counts("immorality").parent.mkdir(parents=True)
    save_corpus_counts(count_corpus(tweets), art.corpus_counts("immorality"), art.corpus("immorality"))
    ranked = ("damned", "safety", "killing", "treasonous", "kill", "sin", "warfare")
    art.terms("immorality").parent.mkdir()
    scores = {word: 7.0 - rank for rank, word in enumerate(ranked)}
    save_selection(SelectionResult(ranked[:6], ranked, scores), art.terms("immorality"))
    art.loadings.parent.mkdir()
    save_loadings(LoadingMatrix(("t0",), np.eye(1, len(FOUNDATIONS)), (False,)), art.loadings)
    art.mf_vectors.parent.mkdir()
    write_vectors(art.mf_vectors, FOUNDATIONS, np.eye(len(FOUNDATIONS)))
    record_every_stage(config)

    assert run("report", config) == {"report": [art.rel(p) for p in (
        art.vice_report, art.coverage_tsv, art.counts_csv, art.similarity_csv)]}
    assert art.coverage_tsv.read_text(encoding="utf-8") == (
        "foundation\tpattern\tmatched_words\tfrequencies\n"
        "Ingroup\ttreason*\ttreasonous\t3\n"
        "Authority\ttreason*\ttreasonous\t3\n"
        "Care\tkill*\tkill killing\t2 3\n"
        "Care\twar\t\t\n"
        "Purity\tsin\tsin\t1\n"
        "Fairness\tunfair*\t\t\n"
        "# coverage_fraction\t0.6666666666666666\n"
    )
    assert art.vice_report.read_text(encoding="utf-8") == (
        "# vice_coverage\t0.6666666666666666\n"
        "word\tfoundations\tfrequency\n"
        "killing\tCare\t3\n"
        "treasonous\tAuthority|Ingroup\t3\n"
        "kill\tCare\t2\n"
        "sin\tPurity\t1\n"
    )


# Child of the kill tests: runs ``mfquant run`` and exits at once (os._exit, no cleanup) either right after
# a stage's last artifact is renamed into place ("after <stage>") or with the target file's .tmp half written
# ("writing <file name>").
KILLED_RUN = """
import os, sys
from mfquant import cli, pipeline
mode, target, *argv = sys.argv[1:]
if mode == "after":
    stage = pipeline._STAGE_FUNCS[target]
    def stage_then_exit(config, art):
        stage(config, art)
        os._exit(9)
    pipeline._STAGE_FUNCS[target] = stage_then_exit
else:
    replace = os.replace
    def exit_halfway(src, dst):
        if os.path.basename(dst) == target:
            os.truncate(src, os.path.getsize(src) // 2)
            os._exit(9)
        replace(src, dst)
    os.replace = exit_halfway
cli.main(argv)
"""

KILL_SIZES = ["--n1", "150", "--n2", "600", "--k", "10", "--topic-n", "3", "--extend-n", "10"]


def artifact_bytes(out_dir):
    """Every file under ``out_dir`` but manifest.json, by relative path."""
    return {
        p.relative_to(out_dir).as_posix(): p.read_bytes()
        for p in sorted(out_dir.rglob("*")) if p.is_file() and p.name != "manifest.json"
    }


@pytest.fixture(scope="module")
def clean_tiny_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("killed") / "ws"
    main(["synth", "--out", str(workdir), "--tweets", "150", "--topic-tweets", "40", "--seed", "3"])
    config = str(workdir / "config.yaml")
    assert main(["run", "--config", config, "--out", str(workdir / "clean"), *KILL_SIZES]) == 0
    return workdir, config, artifact_bytes(workdir / "clean")


@pytest.mark.parametrize("mode,target", [
    ("after", "ingest"), ("after", "matrix"), ("after", "svd"), ("after", "report"), ("writing", "ppmi.npz"),
])
def test_killed_run_neither_blocks_nor_corrupts_the_next(clean_tiny_run, mode, target):
    workdir, config, clean = clean_tiny_run
    out = workdir / f"{mode}-{target}"
    argv = ["run", "--config", config, "--out", str(out), *KILL_SIZES]
    env = {**os.environ, "PYTHONPATH": str(Path(mfquant.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", KILLED_RUN, mode, target, *argv], env=env, capture_output=True)
    assert child.returncode == 9, child.stderr.decode()
    # saved without a stage's entry before the stage writes its first file, and with it when the stage completes
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    if mode == "after":
        assert (out / {"ingest": "corpus"}.get(target, target)).is_dir() and target not in stages
    else:
        assert list(out.rglob(f"{target}.tmp"))
    assert (out / ".lock").exists()
    assert main(argv) == 0
    assert not list(out.rglob("*.tmp"))
    assert artifact_bytes(out) == clean


def test_failed_stage_leaves_the_params_its_inputs_were_built_with(clean_tiny_run, tmp_path):
    """vectors fails on a truncated embedding: manifest.json keeps extend_n=10, not the failed command's 20."""
    workdir, config, _ = clean_tiny_run
    out = tmp_path / "out"
    shutil.copytree(workdir / "clean", out)
    embedding = out / "svd" / "embedding.npy"
    embedding.write_bytes(embedding.read_bytes()[:-100])
    sizes = [("20" if option == "--extend-n" else value) for option, value in zip(["", *KILL_SIZES], KILL_SIZES)]
    assert main(["vectors", "--config", config, "--out", str(out), *sizes]) == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["params"]["extend_n"] == 10 and "vectors" not in manifest["stages"]


def test_completed_stage_updates_only_the_params_it_read(clean_tiny_run, tmp_path):
    """The run read n1=150: ingest asked for n1=50 reads no n1, so manifest.json's params keep the n1 the
    matrix entry records; extend asked for extend_n=5 reads it, so params record 5 next to its entry."""
    workdir, config, _ = clean_tiny_run
    out = tmp_path / "out"
    shutil.copytree(workdir / "clean", out)

    def run_with(stage, changed, value):
        sizes = [(value if before == changed else size) for before, size in zip(["", *KILL_SIZES], KILL_SIZES)]
        assert main([stage, "--config", config, "--out", str(out), *sizes]) == 0
        return json.loads((out / "manifest.json").read_text(encoding="utf-8"))

    manifest = run_with("ingest", "--n1", "50")
    assert manifest["params"]["n1"] == manifest["stages"]["matrix"]["inputs"]["n1"] == 150
    manifest = run_with("extend", "--extend-n", "5")
    assert manifest["params"]["extend_n"] == manifest["stages"]["extend"]["inputs"]["extend_n"] == 5
    assert manifest["params"]["n1"] == 150


@pytest.mark.parametrize("stage", ["vectors", "loadings", "extend", "pca"])
def test_stage_asked_for_another_k_than_the_embedding_has_is_refused(clean_tiny_run, tmp_path, capsys, stage):
    """svd ran with k=10: a stage that reads its embedding refuses k=5, naming svd, and writes nothing,
    manifest.json included, so the same stage with k=10 still runs."""
    workdir, config, clean = clean_tiny_run
    out = tmp_path / "out"
    shutil.copytree(workdir / "clean", out)
    manifest = (out / "manifest.json").read_bytes()
    sizes = [("5" if option == "--k" else value) for option, value in zip(["", *KILL_SIZES], KILL_SIZES)]
    capsys.readouterr()
    assert main([stage, "--config", config, "--out", str(out), *sizes]) == 2
    assert "svd/embedding.npy: built with k=10, not 5; rerun stage 'svd'" in capsys.readouterr().err
    assert artifact_bytes(out) == clean
    assert (out / "manifest.json").read_bytes() == manifest
    assert main([stage, "--config", config, "--out", str(out), *KILL_SIZES]) == 0
    assert artifact_bytes(out) == clean


@pytest.mark.parametrize("stage,option,value,rerun", [
    ("report", "--n1", "50", "matrix"), ("report", "--n2", "500", "select"),
    ("report", "--topic-n", "4", "vectors"), ("pca", "--extend-n", "5", "extend"),
])
def test_stage_asked_for_another_value_than_an_upstream_stage_read_is_refused(
        clean_tiny_run, tmp_path, capsys, stage, option, value, rerun):
    """The run read n1=150, n2=600, topic_n=3 and extend_n=10: a stage whose upstream stages read another
    value is refused, naming the first of them, and changes no byte, manifest.json included."""
    workdir, config, clean = clean_tiny_run
    out = tmp_path / "out"
    shutil.copytree(workdir / "clean", out)
    manifest = (out / "manifest.json").read_bytes()
    sizes = [(value if before == option else size) for before, size in zip(["", *KILL_SIZES], KILL_SIZES)]
    capsys.readouterr()
    assert main([stage, "--config", config, "--out", str(out), *sizes]) == 2
    assert f"rerun stage {rerun!r}" in capsys.readouterr().err
    assert artifact_bytes(out) == clean
    assert (out / "manifest.json").read_bytes() == manifest
    assert main(["report", "--config", config, "--out", str(out), "--extend-n", "5", *KILL_SIZES[:-2]]) == 0


def test_rerun_on_unchanged_input_keeps_downstream_and_changed_input_is_refused(tmp_path):
    config = make_workspace(tmp_path, tweets=200, topic_tweets=60)
    run("all", config)
    art = Artifacts(config.out_dir)
    loadings = art.loadings.read_bytes()
    run("ingest", config)
    run("loadings", config)
    assert art.loadings.read_bytes() == loadings
    lines = config.immorality_path.read_text(encoding="utf-8").splitlines(keepends=True)
    config.immorality_path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    run("ingest", config)
    # select recorded the hash of the old corpus/immorality.npz; matrix and svd were built from it
    with pytest.raises(PipelineError, match=r"immorality_terms\.tsv: not built from the current "
                       r"corpus/immorality\.npz .*rerun stage 'select'"):
        run("loadings", config)
    assert art.loadings.read_bytes() == loadings


def test_stage_killed_between_two_files_is_refused_until_it_reruns(tmp_path, monkeypatch):
    """matrix stops right after ppmi.npz is renamed into place, before row_vocab.tsv and col_vocab.tsv."""
    config = make_workspace(tmp_path, tweets=200, topic_tweets=60)
    run("all", config)
    clean = artifact_bytes(config.out_dir)
    run("ingest", config)
    run("select", config)
    replace = os.replace

    def stop_after_ppmi(src, dst):
        replace(src, dst)
        if os.path.basename(dst) == "ppmi.npz":
            raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", stop_after_ppmi)
        with pytest.raises(KeyboardInterrupt):
            run("matrix", config)
    assert "matrix" not in json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]
    with pytest.raises(PipelineError, match=r"row_vocab\.tsv: manifest\.json records no hash.*rerun stage 'matrix'"):
        run("vectors", config)
    with pytest.raises(PipelineError, match="records no completed run of stage 'matrix'; rerun stage 'matrix'"):
        run("report", config)
    run("all", config)
    assert artifact_bytes(config.out_dir) == clean


def test_stopwords_file_replaces_default_list_and_is_a_manifest_input(tmp_path):
    """ingest records the stopwords file's sha256 under its ``inputs``, keyed ``stopwords``."""
    config = make_workspace(tmp_path, tweets=200, topic_tweets=60)
    with config.immorality_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "extra", "text": "the war and the peace"}) + "\n")
    art = Artifacts(config.out_dir)
    names = ["immorality", *config.topic_paths]

    def corpus_words():
        return [set(load_corpus_counts(art.corpus_counts(name)).vocab.words) for name in names]

    listed = {"war", "kill", "unfair"}
    run("ingest", config)
    assert all(words & listed for words in corpus_words())
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("war\nkill\n\nunfair\n", encoding="utf-8")
    config.stopwords_path = stopwords
    run("ingest", config)
    words = corpus_words()
    assert all(not found & listed for found in words)
    assert {"the", "and", "peace"} <= words[0]
    manifest = json.loads((config.out_dir / "manifest.json").read_text())
    digest = hashlib.sha256(stopwords.read_bytes()).hexdigest()
    assert manifest["stages"]["ingest"]["inputs"]["stopwords"] == digest


def test_stopwords_file_may_start_with_a_byte_order_mark(tmp_path):
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_bytes(b"\xef\xbb\xbfwar\r\nkill\r\n")
    config = PipelineConfig(immorality_path=tmp_path / "x.jsonl", out_dir=tmp_path / "out", stopwords_path=stopwords)
    assert config.cleaning_config("immorality").stopwords == {"war", "kill"}


def test_manifest_inputs_do_not_depend_on_where_the_workspace_lives(tmp_path):
    """Raw inputs are keyed by their role: two copies of one workspace, at paths of different lengths,
    write equal ingest ``inputs`` and manifests of equal size."""
    (tmp_path / "source").mkdir()
    config = make_workspace(tmp_path / "source", tweets=60, topic_tweets=20)
    manifests = []
    for name in ("a", "a-much-longer-directory-name"):
        workspace = tmp_path / name / "ws"
        shutil.copytree(tmp_path / "source", workspace)
        copy = dataclasses.replace(
            config, immorality_path=workspace / config.immorality_path.name, out_dir=workspace / "out",
            topic_paths={topic: workspace / p.name for topic, p in config.topic_paths.items()},
        )
        run("ingest", copy)
        manifests.append(copy.out_dir / "manifest.json")
    first, second = (json.loads(p.read_text(encoding="utf-8")) for p in manifests)
    inputs = first["stages"]["ingest"]["inputs"]
    assert inputs["corpus:immorality"] == sha256_file(config.immorality_path)
    assert inputs == second["stages"]["ingest"]["inputs"]
    assert manifests[0].stat().st_size == manifests[1].stat().st_size


def test_every_file_a_stage_opens_is_in_the_stage_table(tmp_path, monkeypatch):
    """Each file a stage opens for reading under the workspace, or the dictionary, from its start to its
    record in manifest.json, is one of the files ``stage_files`` lists for that stage. (Before it starts,
    the staleness check hashes the raw inputs of the stages upstream of it.)"""
    config = make_workspace(tmp_path, tweets=200, topic_tweets=60)
    config.stopwords_path = tmp_path / "stopwords.txt"
    config.stopwords_path.write_text("war\nkill\n", encoding="utf-8")
    dictionary = Path(os.path.abspath(config.dictionary_path))
    opened, real_open = [], builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and ("r" in mode or "+" in mode):
            opened.append(Path(os.path.abspath(file)))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    table = stage_files(config, Artifacts(config.out_dir))
    seen = set()
    for stage in STAGES:
        func = pipeline._STAGE_FUNCS[stage]
        monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, lambda *args, func=func: (opened.clear(), func(*args)))
        run(stage, config)
        read = {p for p in opened if p.is_relative_to(tmp_path) or p == dictionary}
        listed = {Path(os.path.abspath(p)) for p in (*table[stage][0].values(), *table[stage][1])}
        assert read <= listed, (stage, read - listed)
        seen |= read
    assert {config.immorality_path, *config.topic_paths.values(), config.stopwords_path, dictionary} <= seen


def test_ingest_opens_the_stopwords_file_twice(tmp_path, monkeypatch):
    """Ingest reads the stopwords file once for all five corpora, and the manifest hashes it once."""
    config = make_workspace(tmp_path, tweets=100, topic_tweets=30, topics=DEFAULT_TOPICS)
    assert len(config.topic_paths) == 4
    config.stopwords_path = tmp_path / "stopwords.txt"
    config.stopwords_path.write_text("war\nkill\n", encoding="utf-8")
    opened, real_open = [], builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(os.path.abspath(file)) == config.stopwords_path:
            opened.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    run("ingest", config)
    assert sorted(opened) == ["r", "rb"]  # the words as text, the hash as bytes


def test_manifest_of_an_older_run_is_refused_until_run_all(completed_run, tmp_path):
    """A manifest from before stage entries recorded config values, with raw inputs keyed by their paths
    and a top-level ``inputs`` object: a stage after ingest is refused, naming ingest, and changes no byte;
    one ``run all`` writes the current format and drops the object."""
    config, _ = completed_run
    copy = PipelineConfig(**{**config.__dict__, "out_dir": tmp_path / "out"})
    shutil.copytree(config.out_dir, copy.out_dir)
    path = copy.out_dir / "manifest.json"
    older = json.loads(path.read_text(encoding="utf-8"))
    for entry in older["stages"].values():
        entry["inputs"] = {key: value for key, value in entry["inputs"].items() if "/" in key}
    older["stages"]["ingest"]["inputs"] = {"../immorality.jsonl": sha256_file(config.immorality_path)}
    older["inputs"] = {"immorality": {"path": "../immorality.jsonl", "sha256": sha256_file(config.immorality_path)}}
    path.write_text(json.dumps(older), encoding="utf-8")
    before = artifact_bytes(copy.out_dir), path.read_bytes()
    for stage in STAGES[1:]:
        with pytest.raises(PipelineError, match=r"current corpus:immorality \(manifest.json records no hash of it\); rerun stage 'ingest'"):
            run(stage, copy)
    assert (artifact_bytes(copy.out_dir), path.read_bytes()) == before
    run("all", copy)
    assert "inputs" not in json.loads(path.read_text(encoding="utf-8"))
    for stage in STAGES[1:]:
        run(stage, copy)
    assert artifact_bytes(copy.out_dir) == before[0]


def record_hashes(monkeypatch):
    """The list of paths ``pipeline.sha256_file`` is called on from now on."""
    hashed = []

    def recording_sha256(path):
        hashed.append(path)
        return sha256_file(path)

    monkeypatch.setattr(pipeline, "sha256_file", recording_sha256)
    return hashed


def test_rerun_of_svd_hashes_each_corpus_once(completed_run, tmp_path, monkeypatch):
    """svd checks ingest's record, so after ``run all`` it hashes each corpus once, the two files it writes,
    and no dictionary."""
    config, _ = completed_run
    copy = PipelineConfig(**{**config.__dict__, "out_dir": tmp_path / "out"})
    shutil.copytree(config.out_dir, copy.out_dir)
    hashed = record_hashes(monkeypatch)
    run("svd", copy)
    art = Artifacts(copy.out_dir)
    corpora = [copy.immorality_path, *copy.topic_paths.values()]
    assert sorted(hashed) == sorted([art.embedding, art.singular_values, *corpora])


def test_run_all_hashes_each_raw_input_once(tmp_path, monkeypatch):
    config = make_workspace(tmp_path, tweets=100, topic_tweets=30)
    config.stopwords_path = tmp_path / "stopwords.txt"
    config.stopwords_path.write_text("war\n", encoding="utf-8")
    hashed = record_hashes(monkeypatch)
    run("all", config)
    raw = [config.immorality_path, *config.topic_paths.values(), config.stopwords_path, config.dictionary_path]
    assert sorted(p for p in hashed if p in raw) == sorted(raw)


def test_missing_input_is_refused_before_ingest_replaces_a_file(clean_tiny_run, tmp_path, capsys):
    """The last topic corpus is gone: ingest exits 2 before it rewrites any corpus file or drops its entry."""
    workdir, _, clean = clean_tiny_run
    for source in (*workdir.glob("*.jsonl"), workdir / "config.yaml"):
        shutil.copy(source, tmp_path)
    out = tmp_path / "out"
    shutil.copytree(workdir / "clean", out)
    manifest = (out / "manifest.json").read_bytes()
    inode = (out / "corpus" / "immorality.npz").stat().st_ino
    config = load_config(tmp_path / "config.yaml")
    last = config.topic_paths[sorted(config.topic_paths)[-1]]
    last.unlink()
    capsys.readouterr()
    assert main(["ingest", "--config", str(tmp_path / "config.yaml"), *KILL_SIZES]) == 2
    assert (out / "corpus" / "immorality.npz").stat().st_ino == inode
    assert (out / "manifest.json").read_bytes() == manifest
    assert artifact_bytes(out) == clean
    assert f"input file {last} does not exist" in capsys.readouterr().err


def test_corpus_edited_after_ingest_is_refused_until_ingest_reruns(tmp_path):
    """A corpus edited after ingest: select is refused, naming ingest, and ingest's record stays the hash
    of the corpus it read."""
    config = make_workspace(tmp_path, tweets=200, topics=())
    run("ingest", config)
    read = sha256_file(config.immorality_path)
    with config.immorality_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps({"id": "late", "text": "a record added after ingest"}) + "\n")
    with pytest.raises(PipelineError, match=r"not built from the current corpus:immorality .*rerun stage 'ingest'"):
        run("select", config)
    manifest = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["stages"]["ingest"]["inputs"]["corpus:immorality"] == read != sha256_file(config.immorality_path)
    assert "select" not in manifest["stages"]
    run("ingest", config)
    run("select", config)


def test_stopwords_file_added_or_edited_after_ingest_is_refused(tmp_path):
    config = make_workspace(tmp_path, tweets=200, topics=())
    run("ingest", config)
    config.stopwords_path = tmp_path / "stopwords.txt"
    config.stopwords_path.write_text("war\n", encoding="utf-8")
    with pytest.raises(PipelineError, match=r"current stopwords \(manifest.json records no hash of it\); rerun stage 'ingest'"):
        run("select", config)
    run("ingest", config)
    config.stopwords_path.write_text("war\nkill\n", encoding="utf-8")
    with pytest.raises(PipelineError, match=r"not built from the current stopwords .*rerun stage 'ingest'"):
        run("select", config)


def test_topics_may_be_named_dictionary_and_stopwords(tmp_path):
    """Raw inputs are keyed by role, and a corpus's key by its name: a topic named ``dictionary`` or
    ``stopwords`` keeps its own key, apart from the dictionary's and the stopwords file's."""
    topics = (("dictionary", "care"), ("stopwords", "fairness"))
    config = make_workspace(tmp_path, tweets=200, topic_tweets=60, topics=topics)
    config.dictionary_path = tmp_path / "dictionary.tsv"
    shutil.copy(packaged_dictionary_path(), config.dictionary_path)
    config.stopwords_path = tmp_path / "stopwords.txt"
    config.stopwords_path.write_text("war\n", encoding="utf-8")
    config.validate()
    run("all", config)
    stages = json.loads((config.out_dir / "manifest.json").read_text(encoding="utf-8"))["stages"]
    raw = {f"corpus:{name}": f"{name}.jsonl" for name in ("immorality", "dictionary", "stopwords")}
    raw["stopwords"] = "stopwords.txt"
    values = stage_files(config, Artifacts(config.out_dir))["ingest"][2]
    recorded = {key: digest for key, digest in stages["ingest"]["inputs"].items() if key not in values}
    assert recorded == {key: sha256_file(tmp_path / name) for key, name in raw.items()}
    for stage in ("vectors", "report"):
        assert stages[stage]["inputs"]["dictionary"] == sha256_file(config.dictionary_path)
    labels, _ = read_vectors(Artifacts(config.out_dir).topic_vectors)
    assert labels == [f"{name}:{n}" for name in ("dictionary", "stopwords") for n in config.topic_n]


@pytest.fixture(scope="module")
def planted_corpus(tmp_path_factory):
    """A small planted corpus, its ids, and the ids ingest keeps from it."""
    tmp_path = tmp_path_factory.mktemp("planted")
    config = make_workspace(tmp_path, tweets=200, topics=())
    run("ingest", config)
    text = config.immorality_path.read_text(encoding="utf-8")
    ids = {json.loads(line)["id"] for line in text.splitlines()}
    rows = Artifacts(config.out_dir).corpus("immorality").read_text(encoding="utf-8").split("\n")[:-1]
    return config, text, ids, [row.split("\t")[0] for row in rows]


RECORD_IDS = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    # any code point, lone surrogates and delimiters included: ingest rejects those
    st.text(st.one_of(st.characters(), st.characters(categories=("Cs",))), min_size=1, max_size=8),
    st.text(min_size=1, max_size=6).map(lambda s: f"  {s} "),
)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(RECORD_IDS, st.integers(0, 3)), min_size=1, max_size=6))
# line breaks to str.splitlines but not to a file reader, among characters of 1 to 4 UTF-8 bytes
@example([("a\x0bb", 0), ("\x85ñ", 1), ("ü\u2028\U0001F600", 2), ("Ωmega\x1c", 3)])
def test_accepted_ids_reach_loadings_unchanged(planted_corpus, records):
    """Appended records, text t being "war kill uniq<t>": every id load_records accepts
    appears once per deduplicated tweet, unchanged and in order, in the corpus and the loadings."""
    config, planted_text, planted_ids, planted_kept = planted_corpus
    lines = [json.dumps({"id": rec_id, "text": f"war kill uniq{'abcd'[t]}"}) for rec_id, t in records]
    expected, seen_ids, seen_texts = list(planted_kept), set(planted_ids), set()
    for line, (_, t) in zip(lines, records):
        rec_id = json.loads(line)["id"]  # JSON joins an escaped surrogate pair into one character
        rec_id = str(rec_id) if isinstance(rec_id, int) else rec_id
        if set(rec_id) & set("\t,\n\r") or any(0xD800 <= ord(c) <= 0xDFFF for c in rec_id):
            continue
        if rec_id not in seen_ids and t not in seen_texts:
            expected.append(rec_id)
            seen_texts.add(t)
        seen_ids.add(rec_id)
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "immorality.jsonl"
        source.write_text(planted_text + "\n".join(lines) + "\n", encoding="utf-8")
        config = dataclasses.replace(config, immorality_path=source, out_dir=Path(tmp) / "out")
        for stage in STAGES[: STAGES.index("loadings") + 1]:
            run(stage, config)
        art = Artifacts(config.out_dir)
        corpus_rows = art.corpus("immorality").read_text(encoding="utf-8").split("\n")[:-1]
        loading_rows = art.loadings.read_text(encoding="utf-8").split("\n")[1:-1]
    assert [row.split("\t")[0] for row in corpus_rows] == expected
    assert [row.split(",")[0] for row in loading_rows] == expected


@pytest.mark.parametrize("edit", ["rename", "reorder"])
def test_mislabeled_mf_vectors_names_file(completed_run, tmp_path, edit):
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    target = Artifacts(out_dir).mf_vectors
    lines = target.read_text(encoding="utf-8").splitlines()
    if edit == "rename":
        lines[0] = "Harm" + lines[0][len("Care"):]
    else:
        lines[0], lines[1] = lines[1], lines[0]
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PipelineError, match="mf_vectors.tsv"):
        run("loadings", PipelineConfig(**{**config.__dict__, "out_dir": out_dir}))


# (artifact, stage that reads it, field to corrupt or None to add a field)
CORRUPTIONS = [
    ("vectors/mf_vectors.tsv", "loadings", 1),
    ("vectors/topic_vectors.tsv", "loadings", 4),
    ("vectors/topic_vectors.tsv", "loadings", 0),
    ("loadings/loadings.csv", "report", 6),
    ("loadings/loadings.csv", "report", None),
    ("select/immorality_terms.tsv", "matrix", 2),
    (f"select/{DEFAULT_TOPICS[0][0]}_terms.tsv", "vectors", None),
    ("corpus/immorality.tsv", "loadings", 1),
    ("corpus/immorality.tsv", "loadings", None),
    ("extend/extended_dict.tsv", "pca", 3),
    ("extend/extended_dict.tsv", "pca", None),
]


@pytest.mark.parametrize("artifact,stage,field", CORRUPTIONS)
def test_corrupt_artifact_names_path_and_line(completed_run, tmp_path, artifact, stage, field):
    corrupt_and_run(completed_run, tmp_path, artifact, stage, field, "x1")


def test_foundation_on_degenerate_row_names_path_and_line(completed_run, tmp_path):
    """report counts foundations from the dominant column alone, so a row flagged
    degenerate must be unclassified there."""
    config, _ = completed_run
    row = Artifacts(config.out_dir).loadings.read_text(encoding="utf-8").split("\n")[2].split(",")
    assert row[6] in FOUNDATIONS and row[7] == "0"
    corrupt_and_run(completed_run, tmp_path, "loadings/loadings.csv", "report", 7, "1")


def test_bad_degenerate_flag_names_path_and_line(completed_run, tmp_path):
    corrupt_and_run(completed_run, tmp_path, "loadings/loadings.csv", "report", 7, "2")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("artifact", ["vectors/mf_vectors.tsv", "vectors/topic_vectors.tsv"])
def test_non_finite_vector_names_path_and_line(completed_run, tmp_path, artifact, value):
    corrupt_and_run(completed_run, tmp_path, artifact, "loadings", 1, value)


def test_repeated_term_names_path_and_line(completed_run, tmp_path):
    """A word on two rows of a terms file would drop a rank, and a context word with it."""
    config, _ = completed_run
    first = Artifacts(config.out_dir).terms("immorality").read_text(encoding="utf-8").split("\t")[1]
    corrupt_and_run(completed_run, tmp_path, "select/immorality_terms.tsv", "matrix", 1, first)


def _first_pair(arrays):
    """Position of the first entry whose row holds a second entry after it."""
    indptr = arrays["indptr"]
    row = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
    return int(indptr[row])


def _with(arrays, name, edit):
    arrays = dict(arrays)
    arrays[name] = edit(arrays[name].copy(), arrays)
    return arrays


def _set(array, position, value):
    array[position] = value
    return array


def _swap_pair(indices, arrays):
    j = _first_pair(arrays)
    indices[j], indices[j + 1] = indices[j + 1], indices[j]
    return indices


def _duplicate_entry(arrays):
    """A copy of an entry inserted right after it, with the row ends moved to match."""
    j = _first_pair(arrays)
    indptr = arrays["indptr"].copy()
    indptr[indptr > j] += 1
    return {
        **arrays, "indptr": indptr,
        "indices": np.insert(arrays["indices"], j + 1, arrays["indices"][j]),
        "data": np.insert(arrays["data"], j + 1, arrays["data"][j]),
    }


# edits of a tables.write_csr archive's arrays: both corpus/<name>.npz and matrix/ppmi.npz must refuse each
CSR_CORRUPTIONS = {
    "missing-key": lambda arrays: {k: v for k, v in arrays.items() if k != "data"},
    "float64-array": lambda arrays: _with(arrays, "indices", lambda a, r: a.astype(np.float64)),
    # the last entry moved into a row past the shape's last
    "row-out-of-range": lambda arrays: _with(arrays, "indptr", lambda a, r: np.append(a[:-1], [a[-1] - 1, a[-1]])),
    "col-out-of-range": lambda arrays: _with(arrays, "indices", lambda a, r: _set(a, 0, -1)),
    "index-outside-vocabulary": lambda arrays: _with(arrays, "indices", lambda a, r: _set(a, -1, r["shape"][1])),
    "unsorted-row": lambda arrays: _with(arrays, "indices", _swap_pair),
    "repeated-index": lambda arrays: _with(
        arrays, "indices", lambda a, r: _set(a, _first_pair(r) + 1, a[_first_pair(r)])
    ),
    "duplicate-entry": _duplicate_entry,
    "zero-count": lambda arrays: _with(arrays, "data", lambda a, r: _set(a, -1, 0)),
    "nan-value": lambda arrays: _with(arrays, "data", lambda a, r: _set(a.astype(np.float64), -1, np.nan)),
    "shape-disagrees-with-vocabulary": lambda arrays: _with(arrays, "shape", lambda a, r: _set(a, 1, a[1] + 1)),
}


def corrupt_archive_and_run(completed_run, tmp_path, artifact, stage, corruption):
    """Apply CSR_CORRUPTIONS[corruption] (or truncate) to the archive; expect a DataError naming it."""
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    target = out_dir / artifact
    if corruption == "truncated":
        target.write_bytes(target.read_bytes()[:-100])
    else:
        with np.load(target) as archive:
            arrays = dict(archive)
        np.savez(target, **CSR_CORRUPTIONS[corruption](arrays))
    with pytest.raises(DataError, match=f"{target.name}: "):
        run(stage, PipelineConfig(**{**config.__dict__, "out_dir": out_dir}))


@pytest.mark.parametrize("corruption", ["truncated", *CSR_CORRUPTIONS])
def test_corrupt_matrix_names_path(completed_run, tmp_path, corruption):
    corrupt_archive_and_run(completed_run, tmp_path, "matrix/ppmi.npz", "svd", corruption)


@pytest.mark.parametrize("corruption", ["truncated", *CSR_CORRUPTIONS])
def test_corrupt_corpus_counts_names_path(completed_run, tmp_path, corruption):
    corrupt_archive_and_run(completed_run, tmp_path, "corpus/immorality.npz", "select", corruption)


def test_triplet_array_of_an_older_run_is_not_read(completed_run, tmp_path):
    """An output directory holding the PPMI matrix as ``ppmi.npy`` (a (row, col, value) array)
    must be rebuilt by the matrix stage, which then removes that file."""
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    art = Artifacts(out_dir)
    old = out_dir / "matrix" / "ppmi.npy"
    np.save(old, np.zeros(3, dtype=[("row", "<i4"), ("col", "<i4"), ("value", "<f8")]))
    art.ppmi.unlink()
    rebuilt = PipelineConfig(**{**config.__dict__, "out_dir": out_dir})
    with pytest.raises(PipelineError, match=r"ppmi\.npz; run stage 'matrix' first"):
        run("svd", rebuilt)
    run("matrix", rebuilt)
    assert sorted(p.name for p in old.parent.iterdir()) == ["col_vocab.tsv", "ppmi.npz", "row_vocab.tsv"]
    assert art.ppmi.read_bytes() == (config.out_dir / "matrix" / "ppmi.npz").read_bytes()


@pytest.mark.parametrize("edit", ["extra-row", "token-count"])
def test_ids_that_disagree_with_the_counts_name_path(completed_run, tmp_path, edit):
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    target = Artifacts(out_dir).corpus("immorality")
    lines = target.read_text(encoding="utf-8").split("\n")[:-1]
    if edit == "extra-row":
        lines.append(lines[-1])
    else:
        tweet_id, count = lines[2].split("\t")
        lines[2] = f"{tweet_id}\t{int(count) + 1}"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="immorality.tsv:" + ("3: " if edit == "token-count" else " ")):
        run("loadings", PipelineConfig(**{**config.__dict__, "out_dir": out_dir}))


def test_corpus_of_no_tweets_fails_select(tmp_path):
    config = make_workspace(tmp_path, tweets=50, topics=())
    config.immorality_path.write_text('{"id": "1"}\nnot json\n', encoding="utf-8")
    run("ingest", config)
    assert load_corpus_counts(Artifacts(config.out_dir).corpus_counts("immorality")).counts.shape == (0, 0)
    with pytest.raises(DataError, match="empty corpus"):
        run("select", config)


@pytest.mark.parametrize("other", ["t_vocab", "t.vocab"])
def test_topic_names_keep_their_own_corpus_files(tmp_path, other):
    """A topic's corpus files are named after it alone: ``t`` and ``t_vocab`` (or ``t.vocab``) never share one."""
    config = make_workspace(tmp_path, tweets=200, topic_tweets=60, topics=(("t", "care"), (other, "fairness")))
    run("all", config)
    art = Artifacts(config.out_dir)
    names = {"immorality", "t", other}
    assert sorted(p.name for p in (config.out_dir / "corpus").iterdir()) == sorted(
        f"{name}{suffix}" for name in names for suffix in (".npz", ".tsv")
    )
    for name, cluster in (("t", "care"), (other, "fairness")):
        corpus = load_corpus_counts(art.corpus_counts(name), art.corpus(name))
        assert corpus.ids and all(i.startswith(f"{cluster}-topic-") for i in corpus.ids), name


def _with_nan(u_k):
    u_k[-1, -1] = np.nan
    return u_k


EMBEDDING_CORRUPTIONS = {
    "1-d-array": lambda u_k: u_k[0],
    "float32-array": lambda u_k: u_k.astype(np.float32),
    "wrong-row-count": lambda u_k: u_k[:-1],
    "nan-value": _with_nan,
}


@pytest.mark.parametrize("corruption", ["truncated", *EMBEDDING_CORRUPTIONS])
def test_corrupt_embedding_names_path(completed_run, tmp_path, corruption):
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    art = Artifacts(out_dir)
    if corruption == "truncated":
        art.embedding.write_bytes(art.embedding.read_bytes()[:-100])
    else:
        np.save(art.embedding, EMBEDDING_CORRUPTIONS[corruption](np.load(art.embedding)))
    with pytest.raises(DataError, match="embedding.npy: "):
        run("vectors", PipelineConfig(**{**config.__dict__, "out_dir": out_dir}))


def test_embedding_from_another_matrix_rejected(completed_run, tmp_path):
    """embedding.npy carries no words: after matrix runs on another corpus with as many
    keywords, the stages that read it refuse it until svd runs again."""
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    art = Artifacts(out_dir)
    words = art.row_vocab.read_text(encoding="utf-8")
    synth_corpus(default_plan(fillers_per_cluster=120, noise_pool=300), 400, 14, tmp_path / "other.jsonl")
    other = PipelineConfig(**{**config.__dict__, "out_dir": out_dir, "immorality_path": tmp_path / "other.jsonl"})
    for stage in ("ingest", "select", "matrix"):
        run(stage, other)
    new_words = art.row_vocab.read_text(encoding="utf-8")
    assert new_words != words and len(new_words.split()) == len(words.split())
    with pytest.raises(DataError, match=r"embedding.npy: .*rerun stage 'svd'"):
        run("vectors", other)
    run("svd", other)
    run("vectors", other)


def test_embedding_without_manifest_rejected(completed_run, tmp_path):
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    (out_dir / "manifest.json").unlink()
    with pytest.raises(DataError, match=r"embedding.npy: .*records no hash.*rerun stage 'svd'"):
        run("extend", PipelineConfig(**{**config.__dict__, "out_dir": out_dir}))


@pytest.mark.parametrize("text", [
    '{"stages": ', '["stages"]', '{"inputs": {}, "stages": {"svd": ["x"]}}', '{"inputs": {}, "stages": {"svd": {}}}',
])
def test_corrupt_manifest_names_path(completed_run, tmp_path, text):
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    (out_dir / "manifest.json").write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match="manifest.json: "):
        run("report", PipelineConfig(**{**config.__dict__, "out_dir": out_dir}))
    assert (out_dir / "manifest.json").read_text(encoding="utf-8") == text


def corrupt_and_run(completed_run, tmp_path, artifact, stage, field, value):
    """Set ``field`` of the artifact's third line to ``value`` (None: add a field); expect path:3."""
    config, _ = completed_run
    out_dir = tmp_path / "out"
    shutil.copytree(config.out_dir, out_dir)
    target = out_dir / artifact
    sep = "," if target.suffix == ".csv" else "\t"
    lines = target.read_text(encoding="utf-8").split("\n")
    fields = lines[2].split(sep)
    if field is None:
        fields.append("extra")
    else:
        fields[field] = value
    lines[2] = sep.join(fields)
    target.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(DataError, match=f"{target.name}:3: "):
        run(stage, PipelineConfig(**{**config.__dict__, "out_dir": out_dir}))


class TestDeterminism:
    def test_two_runs_identical_artifact_hashes(self, tmp_path):
        config_a = make_workspace(tmp_path, tweets=250, topic_tweets=80)
        config_b = PipelineConfig(**{**config_a.__dict__, "out_dir": tmp_path / "out_b"})
        run("all", config_a)
        run("all", config_b)
        manifest_a = RunManifest.load_or_create(config_a.out_dir, config_a.params_snapshot())
        manifest_b = RunManifest.load_or_create(config_b.out_dir, config_b.params_snapshot())
        hashes_a = manifest_a.artifact_hashes()
        hashes_b = manifest_b.artifact_hashes()
        assert hashes_a and hashes_a == hashes_b

    def test_svd_stable_across_blas_threads(self, tmp_path):
        """Embedding bytes are reproducible for a fixed BLAS thread count; across counts
        they agree within 1e-9.

        At 1500 x 5000 and k=100 OpenBLAS threads the eigensolver, so one and two
        threads give different embedding bytes (about 2e-14 apart).
        """
        workdir = tmp_path / "ws"
        sizes = ["--n1", "1500", "--n2", "5000", "--k", "100", "--topic-n", "5", "--extend-n", "20"]
        main(["synth", "--out", str(workdir), "--tweets", "3000", "--topic-tweets", "60", "--seed", "5"])
        config = str(workdir / "config.yaml")
        for stage in ("ingest", "select", "matrix"):
            assert main(["run", "--config", config, "--stage", stage, *sizes]) == 0
        src = str(Path(mfquant.__file__).parents[1])
        embeddings = {}
        for name, threads in (("one", "1"), ("two", "2"), ("one-again", "1")):
            out = workdir / f"out-{name}"
            shutil.copytree(workdir / "out", out)
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-m", "mfquant.cli", "svd", "--config", config, "--out", str(out), *sizes],
                env=env, check=True, capture_output=True,
            )
            embeddings[name] = out / "svd" / "embedding.npy"
        assert embeddings["one"].read_bytes() == embeddings["one-again"].read_bytes()
        words = (workdir / "out" / "matrix" / "row_vocab.tsv").read_text(encoding="utf-8").split()
        one, two = (load_embedding(embeddings[name], words) for name in ("one", "two"))
        np.testing.assert_allclose(one.vectors, two.vectors, atol=1e-9)

    def test_run_all_equals_stage_by_stage(self, tmp_path):
        config_all = make_workspace(tmp_path, tweets=200, topic_tweets=60)
        config_steps = PipelineConfig(**{**config_all.__dict__, "out_dir": tmp_path / "out_steps"})
        run("all", config_all)
        for stage in STAGES:
            run(stage, config_steps)
        hashes_all = RunManifest.load_or_create(
            config_all.out_dir, config_all.params_snapshot()
        ).artifact_hashes()
        hashes_steps = RunManifest.load_or_create(
            config_steps.out_dir, config_steps.params_snapshot()
        ).artifact_hashes()
        assert hashes_all and hashes_all == hashes_steps


class TestCli:
    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_unknown_stage_is_usage_error(self, tmp_path):
        assert main(["run", "--config", "x.yaml", "--stage", "polish"]) == 1

    def test_seed_is_not_a_stage_option(self):
        assert main(["run", "--config", "x.yaml", "--seed", "3"]) == 1
        assert main(["svd", "--config", "x.yaml", "--seed", "3"]) == 1

    def test_data_error_exit_code(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            "inputs: {immorality: missing.jsonl}\n"
            "output: out\n"
            "cleaning:\n  query_words:\n    immorality: [immoral]\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(config)]) == 2

    def test_synth_then_full_run(self, tmp_path):
        workdir = tmp_path / "ws"
        assert main([
            "synth", "--out", str(workdir), "--tweets", "250", "--topic-tweets", "60",
            "--seed", "5",
        ]) == 0
        assert (workdir / "immorality.jsonl").exists()
        assert (workdir / "config.yaml").exists()
        code = main([
            "run", "--config", str(workdir / "config.yaml"),
            "--n1", "250", "--n2", "1200", "--k", "20",
            "--topic-n", "5", "--extend-n", "20",
        ])
        assert code == 0
        assert (workdir / "out" / "report" / "foundation_counts.csv").exists()
        config = load_config(workdir / "config.yaml")
        assert (config.n1, config.n2, config.k, config.topic_n, config.extend_n, config.seed) == (
            2000, 20000, 100, (10, 100), 100, 42,
        )
        assert config.topic_paths == {t: workdir / f"{t}.jsonl" for t, _ in DEFAULT_TOPICS}
        assert config.query_words == {
            "immorality": ("immoral", "immorality"),
            **{t: (t.replace("_", ""),) for t, _ in DEFAULT_TOPICS},
        }

    def test_synth_config_names_no_seed(self, tmp_path):
        """No stage reads seed, so the generated config leaves it out; a run records the default."""
        workdir = tmp_path / "ws"
        assert main(["synth", "--out", str(workdir), "--tweets", "30", "--topic-tweets", "10"]) == 0
        config = workdir / "config.yaml"
        assert "seed" not in yaml.safe_load(config.read_text(encoding="utf-8"))["params"]
        assert main(["run", "--config", str(config), "--stage", "ingest"]) == 0
        manifest = json.loads((workdir / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["params"] == {
            "n1": 2000, "n2": 20000, "k": 100, "topic_n": [10, 100], "extend_n": 100, "seed": 42,
            "min_token_len": 3, "lowercase": True, "lang_filter": "en",
            "query_words": {
                "immorality": ["immoral", "immorality"],
                **{t: [t.replace("_", "")] for t, _ in DEFAULT_TOPICS},
            },
        }

    def test_repeated_topic_n_is_usage_error(self, tmp_path, capsys):
        workdir = tmp_path / "ws"
        main(["synth", "--out", str(workdir), "--tweets", "30", "--topic-tweets", "10"])
        code = main(["run", "--config", str(workdir / "config.yaml"), "--topic-n", "5", "--topic-n", "5"])
        assert code == 1
        assert "repeated: [5]" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_stage_subcommands_exist(self):
        from mfquant.cli import cli

        for stage in STAGES + ("run", "synth"):
            assert stage in cli.commands

    def test_prerequisite_error_via_subcommand(self, tmp_path):
        workdir = tmp_path / "ws"
        main(["synth", "--out", str(workdir), "--tweets", "30", "--topic-tweets", "10"])
        assert main(["svd", "--config", str(workdir / "config.yaml")]) == 2
