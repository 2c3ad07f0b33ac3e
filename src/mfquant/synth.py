"""Deterministic synthetic corpora with planted foundation structure.

Each generated tweet belongs to one cluster. A cluster mixes anchor
words (real dictionary vice words of a single foundation) with its own
pool of pseudo-word fillers, so cluster tweets end up loading on the
planted foundation. Shared noise words and per-tweet rare tail words add
realistic vocabulary bulk. Record ids carry the cluster name, letting
tests recover the ground truth.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .lexicon import ALL_FOUNDATIONS, VICE, MFDictionary, foundation_matrix, load_packaged_dictionary

logger = logging.getLogger(__name__)

QUERY_WORD_FORMS = ("immoral", "Immoral", "immoral.", "immorality", "Immorality!")

_ANCHORS = {
    "care": (
        "kill", "killing", "kills", "war", "attack", "attacked", "violence",
        "violent", "hurt", "hurting", "cruel", "brutal", "suffering", "destroy",
    ),
    "fairness": (
        "unfair", "unjust", "bias", "biased", "bigot", "bigotry",
        "discrimination", "discriminate", "prejudice", "dishonest",
        "favoritism", "injustice", "segregation", "exclusion",
    ),
    "ingroup": (
        "enemy", "enemies", "betray", "betrayal", "betrayed", "traitor",
        "traitors", "disloyal", "deceive", "deceived", "foreigner",
        "renegade", "spy", "imposter",
    ),
    "authority": (
        "illegal", "illegals", "rebel", "rebellion", "rebels", "defiance",
        "defiant", "disobey", "disrespect", "riot", "riots", "protest",
        "lawless", "insurgent",
    ),
    "purity": (
        "sin", "sins", "sinful", "sinner", "disgust", "disgusting", "filth",
        "filthy", "dirty", "sick", "gross", "obscene", "depraved", "pervert",
    ),
}

_CLUSTER_FOUNDATION = {
    "care": "Care",
    "fairness": "Fairness",
    "ingroup": "Ingroup",
    "authority": "Authority",
    "purity": "Purity",
}

_FILLER_TAGS = {
    "care": "alpha",
    "fairness": "bravo",
    "ingroup": "charlie",
    "authority": "delta",
    "purity": "echo",
}

DEFAULT_TOPICS = (
    ("topic_care", "care"),
    ("topic_fairness", "fairness"),
    ("topic_ingroup", "ingroup"),
    ("topic_purity", "purity"),
)


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    foundation: str
    anchors: tuple[str, ...]
    fillers: tuple[str, ...]


@dataclass
class SynthPlan:
    clusters: tuple[ClusterSpec, ...]
    noise_words: tuple[str, ...]
    mention_rate: float = 0.15
    url_rate: float = 0.15
    hashtag_rate: float = 0.10
    number_rate: float = 0.10
    retweet_rate: float = 0.03
    tail_rate: float = 0.5

    def cluster(self, name: str) -> ClusterSpec:
        for c in self.clusters:
            if c.name == name:
                return c
        raise ConfigError(f"no planted cluster named {name!r}")


def _letters(value: int) -> str:
    """Deterministic base-26 letter string, at least two characters."""
    digits = []
    value = int(value)
    while True:
        digits.append(chr(ord("a") + value % 26))
        value //= 26
        if value == 0:
            break
    while len(digits) < 2:
        digits.append("a")
    return "".join(reversed(digits))


def default_plan(
    fillers_per_cluster: int = 500,
    noise_pool: int = 1500,
    dictionary: MFDictionary | None = None,
) -> SynthPlan:
    """Five foundation clusters with verified single-foundation anchors."""
    if dictionary is None:
        dictionary = load_packaged_dictionary()
    clusters = tuple(
        ClusterSpec(name, _CLUSTER_FOUNDATION[name], anchors,
                    tuple(f"{_FILLER_TAGS[name]}{_letters(i)}" for i in range(fillers_per_cluster)))
        for name, anchors in _ANCHORS.items()
    )
    noise = tuple(f"golf{_letters(i)}" for i in range(noise_pool))
    expected = {word: {c.foundation} for c in clusters for word in c.anchors}
    words = [*expected, *noise, *(w for c in clusters for w in c.fillers)]
    columns = foundation_matrix(dictionary, words, VICE).tocsc()  # a column's indices are its foundations
    for word, a, b in zip(words, columns.indptr, columns.indptr[1:]):
        found, want = {ALL_FOUNDATIONS[i] for i in columns.indices[a:b]}, expected.get(word, set())
        if found != want:
            raise ConfigError(f"planted word {word!r} matches {sorted(found)}, expected {sorted(want)}")
    return SynthPlan(clusters=clusters, noise_words=noise)


def _decorate(words: list[str], rng: random.Random, plan: SynthPlan) -> str:
    """Assemble tweet text: query word, shuffling, and Twitter-style noise."""
    words = list(words)
    words.append(rng.choice(QUERY_WORD_FORMS))
    if rng.random() < plan.number_rate:
        words.append(str(rng.randrange(10, 9999)))
    rng.shuffle(words)
    if rng.random() < plan.hashtag_rate and words:
        i = rng.randrange(len(words))
        words[i] = "#" + words[i]
    if rng.random() < plan.mention_rate:
        words.insert(0, f"@user{rng.randrange(10000)}")
    if rng.random() < plan.url_rate:
        suffix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
        words.append(f"https://t.co/{suffix}")
    return " ".join(words)


def synth_corpus(plan: SynthPlan, m: int, seed: int, path: str | Path) -> None:
    """Write an M-record planted corpus as line-delimited JSON.

    Byte-identical for a fixed (plan, m, seed). Ids are
    ``<cluster>-<index>``; a small fraction of records are retweets of
    earlier tweets (their effective text duplicates the original).
    """
    if m < 1:
        raise ConfigError(f"corpus size must be >= 1, got {m}")
    rng = random.Random(seed)
    path = Path(path)
    texts: list[tuple[str, str]] = []  # (cluster, text) for retweet sourcing
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for i in range(m):
            if texts and rng.random() < plan.retweet_rate:
                cluster_name, original = texts[rng.randrange(len(texts))]
                record = {
                    "id": f"{cluster_name}-{i:07d}",
                    "text": f"RT @user{rng.randrange(10000)}: {original[:100]}",
                    "lang": "en",
                    "retweeted_status": {"text": original},
                }
            else:
                cluster = plan.clusters[rng.randrange(len(plan.clusters))]
                words = rng.choices(cluster.anchors, k=rng.randint(2, 4))
                words += rng.choices(cluster.fillers, k=rng.randint(5, 8))
                words += rng.choices(plan.noise_words, k=rng.randint(0, 2))
                if rng.random() < plan.tail_rate:
                    words.append(f"tango{_letters(i)}")
                text = _decorate(words, rng, plan)
                texts.append((cluster.name, text))
                record = {"id": f"{cluster.name}-{i:07d}", "text": text, "lang": "en"}
            handle.write(json.dumps(record) + "\n")
    logger.info("wrote %d synthetic records to %s", m, path)


def synth_topic_corpus(
    plan: SynthPlan,
    cluster_name: str,
    m: int,
    seed: int,
    path: str | Path,
    query_token: str,
) -> None:
    """Write a topic corpus drawing mostly from one cluster's filler pool."""
    if m < 1:
        raise ConfigError(f"corpus size must be >= 1, got {m}")
    cluster = plan.cluster(cluster_name)
    rng = random.Random(seed)
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for i in range(m):
            words = rng.choices(cluster.fillers, k=rng.randint(6, 10))
            words += rng.choices(cluster.anchors, k=rng.randint(0, 2))
            words += rng.choices(plan.noise_words, k=rng.randint(0, 1))
            if rng.random() < 0.2:
                words.append(f"uniform{_letters(i)}")
            words.append(query_token)
            rng.shuffle(words)
            record = {"id": f"{cluster_name}-topic-{i:07d}", "text": " ".join(words), "lang": "en"}
            handle.write(json.dumps(record) + "\n")
    logger.info("wrote %d topic records to %s", m, path)
