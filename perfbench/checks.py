"""Output checks for one benchmark operation (standard library only).

An operation passes when its output directory holds a manifest that
records every stage with hashes matching the files, a loadings table with
one in-range row per deduplicated tweet, one topic block per ``topic_n``,
and a planted-cluster accuracy at or above the floor. Synthetic ids are
``<cluster>-<index>`` and each cluster is named after the foundation it
was planted with, which gives the ground truth.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from tracing import STAGES

FOUNDATION_COLUMNS = ("care", "fairness", "ingroup", "authority", "purity")
LOADINGS_HEADER = ",".join(("id", *FOUNDATION_COLUMNS, "dominant", "degenerate"))
TOPICS_HEADER = ",".join(("topic", "keywords_used", *FOUNDATION_COLUMNS))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _loadings(values: list[str]) -> list[float] | None:
    """Five finite loadings in [-1, 1], or None."""
    try:
        out = [float(v) for v in values]
    except ValueError:
        return None
    if len(out) != len(FOUNDATION_COLUMNS):
        return None
    if not all(math.isfinite(v) and -1.0 <= v <= 1.0 for v in out):
        return None
    return out


def manifest_hashes(out_dir: Path, manifest: dict, problems: list[str]) -> dict[str, str]:
    """Artifact hashes the manifest records, checked against the files."""
    stages = manifest["stages"]
    missing = [s for s in STAGES if s not in stages]
    if missing:
        problems.append(f"manifest lacks stages {missing}")
    hashes: dict[str, str] = {}
    for stage in stages.values():
        hashes.update(stage["artifacts"])
    for rel, digest in sorted(hashes.items()):
        path = out_dir / rel
        if not path.is_file() or _sha256(path) != digest:
            problems.append(f"{rel}: content does not match the manifest hash")
    return hashes


def check_loadings(out_dir: Path, problems: list[str]) -> float:
    """Check loadings.csv against the deduplicated corpus; return planted accuracy."""
    with (out_dir / "corpus" / "immorality.tsv").open(encoding="utf-8") as handle:
        ids = [line.split("\t", 1)[0] for line in handle if line.strip()]
    with (out_dir / "loadings" / "loadings.csv").open(encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    if header != LOADINGS_HEADER:
        problems.append(f"loadings.csv header {header!r}")
    if len(rows) != len(ids):
        problems.append(f"loadings.csv has {len(rows)} rows for {len(ids)} deduplicated tweets")
    scored = matched = bad = 0
    for tweet_id, row in zip(ids, rows):
        if len(row) != len(FOUNDATION_COLUMNS) + 3 or row[0] != tweet_id:
            bad += 1
            continue
        if _loadings(row[1:6]) is None or row[7] not in ("0", "1"):
            bad += 1
            continue
        if row[7] == "0":
            scored += 1
            matched += row[6].lower() == tweet_id.split("-", 1)[0]
    if bad:
        problems.append(f"loadings.csv has {bad} malformed or out-of-range rows")
    if not scored:
        problems.append("loadings.csv has no non-degenerate rows")
    return matched / scored if scored else 0.0


def check_topics(out_dir: Path, topics: list[str], topic_n: list[int], problems: list[str]) -> None:
    """topics.csv holds one block of len(topics) x 5 loadings per topic_n value."""
    with (out_dir / "loadings" / "topics.csv").open(encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    if header != TOPICS_HEADER:
        problems.append(f"topics.csv header {header!r}")
    expected = [(t, str(n)) for n in sorted(topic_n) for t in sorted(topics)]
    found = [(r[0], r[1]) for r in rows if len(r) == 2 + len(FOUNDATION_COLUMNS)]
    if found != expected or len(rows) != len(expected):
        problems.append(f"topics.csv blocks {found} differ from {expected}")
    if any(_loadings(r[2:]) is None for r in rows):
        problems.append("topics.csv has malformed or out-of-range loadings")


def out_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file() and p.name != ".lock")


def check_operation(
    out_dir: Path, topics: list[str], accuracy_floor: float
) -> tuple[list[str], dict[str, str], float]:
    """Run every output check; return (problems, artifact hashes, planted accuracy)."""
    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    hashes = manifest_hashes(out_dir, manifest, problems)
    accuracy = check_loadings(out_dir, problems)
    check_topics(out_dir, topics, manifest["params"]["topic_n"], problems)
    if accuracy < accuracy_floor:
        problems.append(f"planted accuracy {accuracy:.4f} below floor {accuracy_floor}")
    return problems, hashes, accuracy
