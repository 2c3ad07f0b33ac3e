"""Smoke test of the benchmark: every workload at tiny scale, two seeds, both modes.

Usage (from the repository root): python3 perfbench/smoke.py

Each workload keeps its shape (stages, upstream set-up, topic corpora) but
runs on a few thousand tweets. For every seed it runs one untraced and one
traced pass. It fails unless every operation passes every output check,
the workloads and printed metrics are exactly those BENCHMARK.json
declares (with their units), and the traced and untraced passes wrote
byte-identical artifacts. Takes about a minute on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run as bench

SEEDS = (1, 2)
TINY = {
    "paper-50k": dict(tweets=3000, topic_tweets=300, n1=300, n2=3000, k=30, setup_repeats=2),
    "stream-150k": dict(tweets=6000, n1=100, n2=600, k=20, setup_repeats=2),
    "rerun-svd": dict(tweets=3000, topic_tweets=300, n1=300, n2=3000, k=30, setup_repeats=2),
}


def declared_metrics() -> dict[bool, dict[str, str]]:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.WORKLOADS")
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main() -> int:
    declared = declared_metrics()
    out_root = bench.ROOT / ".bench_out" / "smoke"
    failures: list[str] = []
    for name, workload in bench.WORKLOADS.items():
        tiny = dataclasses.replace(workload, **TINY[name])
        for seed in SEEDS:
            hashes = {}
            for trace in (False, True):
                label = f"{name} seed={seed} trace={int(trace)}"
                record = bench.run_benchmark(name, tiny, seed, 0.0, trace, out_root)
                result = record["result"]
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if not result["correct"] or result["failed"]:
                    problems = [p for s in record["samples"] for p in s["problems"]]
                    failures.append(f"{label}: {problems}")
                if units != declared[trace]:
                    failures.append(f"{label}: metrics differ from BENCHMARK.json")
                hashes[trace] = record["samples"][0]["hashes"]
                print(f"{label}: attempted={result['attempted']} failed={result['failed']}")
            if hashes[False] != hashes[True]:
                failures.append(f"{name} seed={seed}: traced artifacts differ from untraced")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
