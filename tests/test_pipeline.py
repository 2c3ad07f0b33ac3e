import json
import shutil

import pytest

from mfquant.cli import main
from mfquant.errors import ConfigError, DataError, PipelineError
from mfquant.pipeline import (
    STAGES,
    Artifacts,
    PipelineConfig,
    RunManifest,
    load_config,
    output_lock,
    run,
)
from mfquant.synth import DEFAULT_TOPICS, default_plan, synth_corpus, synth_topic_corpus

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

    def test_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(self.write_config(tmp_path, "inputs: [unclosed"))


class TestStages:
    def test_all_stages_execute_and_emit_artifacts(self, completed_run):
        config, executed = completed_run
        assert list(executed) == list(STAGES)
        art = Artifacts(config.out_dir)
        expected = [
            art.corpus("immorality"),
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
        assert "immorality" in manifest["inputs"]
        assert "dictionary" in manifest["inputs"]

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

    def test_run_all_without_topics(self, tmp_path):
        config = make_workspace(tmp_path, tweets=200, topics=())
        executed = run("all", config)
        assert list(executed) == list(STAGES)
        art = Artifacts(config.out_dir)
        lines = art.topics_csv.read_text(encoding="utf-8").splitlines()
        assert lines == ["topic,keywords_used,care,fairness,ingroup,authority,purity"]


# (artifact, stage that reads it, field to corrupt or None to add a field)
CORRUPTIONS = [
    ("matrix/ppmi.tsv", "svd", 2),
    ("matrix/ppmi.tsv", "svd", None),
    ("svd/embedding.tsv", "vectors", 3),
    ("svd/embedding.tsv", "vectors", None),
    ("vectors/mf_vectors.tsv", "loadings", 1),
    ("vectors/topic_vectors.tsv", "loadings", 4),
    ("vectors/topic_vectors.tsv", "loadings", 0),
    ("loadings/loadings.csv", "report", 2),
    ("loadings/loadings.csv", "report", None),
    ("select/immorality_terms.tsv", "matrix", 2),
    (f"select/{DEFAULT_TOPICS[0][0]}_terms.tsv", "vectors", None),
    ("corpus/immorality.tsv", "select", None),
    ("extend/extended_dict.tsv", "pca", 3),
    ("extend/extended_dict.tsv", "pca", None),
]


@pytest.mark.parametrize("artifact,stage,field", CORRUPTIONS)
def test_corrupt_artifact_names_path_and_line(completed_run, tmp_path, artifact, stage, field):
    corrupt_and_run(completed_run, tmp_path, artifact, stage, field, "x1")


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_non_finite_loading_names_path_and_line(completed_run, tmp_path, value):
    corrupt_and_run(completed_run, tmp_path, "loadings/loadings.csv", "report", 3, value)


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

    def test_stage_subcommands_exist(self):
        from mfquant.cli import cli

        for stage in STAGES + ("run", "synth"):
            assert stage in cli.commands

    def test_prerequisite_error_via_subcommand(self, tmp_path):
        workdir = tmp_path / "ws"
        main(["synth", "--out", str(workdir), "--tweets", "30", "--topic-tweets", "10"])
        assert main(["svd", "--config", str(workdir / "config.yaml")]) == 2
