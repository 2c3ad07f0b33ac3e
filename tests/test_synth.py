import json

import numpy as np
import pytest

from mfquant.corpus import CleaningConfig, clean_and_tokenize, deduplicate, load_records
from mfquant.errors import ConfigError
from mfquant.lexicon import FOUNDATIONS, MFDictionary, MFEntry, load_packaged_dictionary
from mfquant.linalg import EmbeddingSpace, truncated_svd
from mfquant.semantics import mf_vectors, score_corpus
from mfquant.synth import default_plan, synth_corpus, synth_topic_corpus
from mfquant.vectorizer import (
    build_cooccurrence,
    count_corpus,
    overlap_scores,
    select_terms,
)


@pytest.fixture(scope="module")
def plan():
    return default_plan(fillers_per_cluster=60, noise_pool=120)


class TestGenerator:
    def test_zero_records_rejected(self, plan, tmp_path):
        with pytest.raises(ConfigError):
            synth_corpus(plan, 0, 1, tmp_path / "c.jsonl")

    def test_byte_identical_for_fixed_seed(self, plan, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        synth_corpus(plan, 300, 99, first)
        synth_corpus(plan, 300, 99, second)
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_output(self, plan, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        synth_corpus(plan, 100, 1, first)
        synth_corpus(plan, 100, 2, second)
        assert first.read_bytes() != second.read_bytes()

    def test_records_parse_and_carry_cluster_ids(self, plan, tmp_path):
        path = tmp_path / "c.jsonl"
        synth_corpus(plan, 200, 5, path)
        records, stats = load_records(path)
        assert stats.loaded == 200 and stats.malformed == 0
        cluster_names = {c.name for c in plan.clusters}
        for record in records:
            prefix = record.id.split("-")[0]
            assert prefix in cluster_names
            assert record.lang == "en"

    def test_query_word_always_present(self, plan, tmp_path):
        path = tmp_path / "c.jsonl"
        synth_corpus(plan, 100, 3, path)
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            if "retweeted_status" in obj:
                continue
            assert "immoral" in obj["text"].lower()

    def test_retweets_duplicate_originals(self, plan, tmp_path):
        path = tmp_path / "c.jsonl"
        synth_corpus(plan, 500, 11, path)
        records, _ = load_records(path)
        config = CleaningConfig(query_words=frozenset({"immoral", "immorality"}))
        tokenized = [clean_and_tokenize(r, config) for r in records]
        _, removed = deduplicate(tokenized)
        assert removed > 0  # the retweet mechanism fired

    def test_anchor_words_verified_against_dictionary(self, plan):
        dictionary = load_packaged_dictionary()
        for cluster in plan.clusters:
            for anchor in cluster.anchors:
                assert dictionary.match_word(anchor) == {cluster.foundation}
            for filler in cluster.fillers:
                assert dictionary.match_word(filler) == set()

    @pytest.mark.parametrize(
        "extra,word",
        [
            (MFEntry("kill*", "Purity", "vice"), "kill"),  # an anchor under a second foundation
            (MFEntry("sin", "MoralityGeneral", "vice"), "sin"),
            (MFEntry("golf*", "Care", "vice"), "golfaa"),  # a noise word
            (MFEntry("echoab", "Fairness", "vice"), "echoab"),  # a filler
        ],
    )
    def test_plan_rejects_a_word_the_dictionary_misclassifies(self, extra, word):
        dictionary = MFDictionary(load_packaged_dictionary().entries + (extra,))
        with pytest.raises(ConfigError, match=f"'{word}'"):
            default_plan(fillers_per_cluster=60, noise_pool=120, dictionary=dictionary)

    def test_virtue_entries_do_not_constrain_the_plan(self):
        dictionary = MFDictionary(load_packaged_dictionary().entries + (MFEntry("golf*", "Care", "virtue"),))
        assert default_plan(fillers_per_cluster=60, noise_pool=120, dictionary=dictionary).noise_words

    def test_topic_corpus_deterministic(self, plan, tmp_path):
        first = tmp_path / "t1.jsonl"
        second = tmp_path / "t2.jsonl"
        synth_topic_corpus(plan, "care", 100, 4, first, "topiccare")
        synth_topic_corpus(plan, "care", 100, 4, second, "topiccare")
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_cluster_rejected(self, plan, tmp_path):
        with pytest.raises(ConfigError):
            synth_topic_corpus(plan, "nope", 10, 1, tmp_path / "t.jsonl", "q")


class TestPlantedStructure:
    def test_care_cluster_dominates_care(self, plan, tmp_path):
        """Desk-scale end-to-end sanity: planted clusters recover their foundation."""
        path = tmp_path / "c.jsonl"
        synth_corpus(plan, 800, 21, path)
        records, _ = load_records(path)
        config = CleaningConfig(query_words=frozenset({"immoral", "immorality"}))
        tokenized, _ = deduplicate([clean_and_tokenize(r, config) for r in records])
        counts = count_corpus(tokenized)
        scores = overlap_scores(counts)
        selection = select_terms(scores, 300, 800)
        weighted_cooc = build_cooccurrence(counts, selection)

        from mfquant.vectorizer import ppmi

        weighted = ppmi(weighted_cooc)
        result = truncated_svd(weighted, k=20)
        space = EmbeddingSpace(words=weighted.row_vocab, vectors=result.u_k)
        mf = mf_vectors(load_packaged_dictionary(), space)
        care_rows = [t for t in tokenized if t.id.startswith("care-")]
        matrix = score_corpus(count_corpus(care_rows), space, mf)
        assignments = matrix.dominant[~np.array(matrix.degenerate)]
        care_rate = np.mean(assignments == FOUNDATIONS.index("Care"))
        assert care_rate > 0.7
