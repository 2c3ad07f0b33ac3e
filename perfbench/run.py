"""mfquant benchmark: synthetic batch workloads through the public pipeline API.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-50k --seed 1 --seconds 5 --trace 0

Each run sets the workload up (several times where that is cheap, timing
each set-up), then runs operations in a closed loop, one at a time, until
``--seconds`` have passed (at least one). Every operation is a fresh child
process that runs ``mfquant.pipeline.run`` on the set-up's corpora; its
outputs are checked before the next one starts. With ``--trace 1``
untraced and traced operations alternate, and the traced ones wrap each
layer's public functions to report per-layer self times and counts.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (environment stamp, every
sample, the spans of traced operations) is written under
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every run ends well inside the 180 s a run may take, child processes included.
DEADLINE_S = 170.0
ACCURACY_FLOOR = 0.95
RERUN_STAGES = ("svd", "vectors", "loadings", "extend", "pca", "report")


@dataclass(frozen=True)
class Workload:
    tweets: int
    topic_tweets: int
    n1: int
    n2: int
    k: int
    stages: tuple[str, ...]
    upstream: tuple[str, ...]
    setup_repeats: int


# Why each workload exists is recorded in BENCHMARK.json. Set-up is repeated
# only where the time budget of a run allows: generating 50k tweets takes
# about 2 s, while 150k tweets take about 4 s and rerun-svd's set-up also
# runs ingest, select and matrix (about 13 s).
WORKLOADS = {
    "paper-50k": Workload(
        tweets=50_000, topic_tweets=2_000, n1=2000, n2=20000, k=100,
        stages=("all",), upstream=(), setup_repeats=3,
    ),
    "stream-150k": Workload(
        tweets=150_000, topic_tweets=0, n1=500, n2=3000, k=50,
        stages=("all",), upstream=(), setup_repeats=1,
    ),
    "rerun-svd": Workload(
        tweets=50_000, topic_tweets=2_000, n1=2000, n2=20000, k=100,
        stages=RERUN_STAGES, upstream=("ingest", "select", "matrix"), setup_repeats=1,
    ),
}

E2E_UNITS = {
    "wall_s": "s",
    "tweets_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "out_bytes": "B",
    "planted_accuracy": "ratio",
    "setup_s": "s",
}


class StepFailed(Exception):
    pass


def call_child(request: dict, deadline: float) -> dict:
    """Run one child step and return its JSON result; the child is always reaped."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepFailed("out of time before the step started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{request['step']} step timed out") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise StepFailed(f"{request['step']} step exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def set_up(name: str, workload: Workload, seed: int, repeats: int, work: Path,
           deadline: float):
    """Set the workload up ``repeats`` times; keep the last workspace.

    Returns the workspace, the set-up times and the last set-up's result.
    """
    samples: list[float] = []
    result = None
    workspace = None
    for i in range(repeats):
        if workspace is not None:
            shutil.rmtree(workspace)
        workspace = work / f"ws{i}"
        request = {"step": "setup", "workload": asdict(workload), "seed": seed,
                   "workspace": str(workspace)}
        start = time.perf_counter()
        previous, result = result, call_child(request, deadline)
        samples.append(time.perf_counter() - start)
        if previous is not None and result["digests"] != previous["digests"]:
            raise StepFailed(f"{name}: set-up {i} produced different inputs or artifacts")
    return workspace, samples, result


def run_operation(workload: Workload, workspace: Path, topics: list[str], traced: bool,
                  deadline: float) -> dict:
    """One operation: a fresh output directory unless stages are rerun in place."""
    out_dir = workspace / "out"
    if "all" in workload.stages:
        shutil.rmtree(out_dir, ignore_errors=True)
    request = {"step": "op", "workload": asdict(workload), "workspace": str(workspace),
               "trace": traced}
    sample = {"traced": traced}
    try:
        sample.update(call_child(request, deadline))
    except StepFailed as exc:
        sample["problems"] = [str(exc)]
        return sample
    problems: list[str] = []
    try:
        problems, hashes, accuracy = checks.check_operation(
            out_dir, topics, ACCURACY_FLOOR
        )
        sample["hashes"] = hashes
        sample["planted_accuracy"] = accuracy
        sample["out_bytes"] = checks.out_bytes(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    sample["problems"] = problems
    return sample


def median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def run_benchmark(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
                  out_root: Path) -> dict:
    """Set up, run the closed loop, check every operation and summarise."""
    deadline = time.monotonic() + DEADLINE_S
    work = out_root / "work" / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # setup_s is an end-to-end metric only, so a traced run sets up once
        repeats = 1 if trace else workload.setup_repeats
        workspace, setup_samples, setup = set_up(name, workload, seed, repeats, work, deadline)
        samples: list[dict] = []
        start = time.monotonic()
        longest = 0.0
        while not samples or (
            time.monotonic() - start < seconds
            and time.monotonic() + 2 * longest < deadline
        ):
            if trace:
                # alternate which side of the pair runs first
                order = (False, True) if len(samples) % 4 == 0 else (True, False)
            else:
                order = (False,)
            for traced in order:
                began = time.monotonic()
                samples.append(
                    run_operation(workload, workspace, setup["topics"], traced, deadline)
                )
                longest = max(longest, time.monotonic() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = next((s["hashes"] for s in samples if "hashes" in s), None)
    for s in samples:
        if "hashes" in s and s["hashes"] != reference:
            s["problems"].append("artifact hashes differ from the workload's first operation")
    failed = sum(1 for s in samples if s["problems"])
    completed = [s for s in samples if "wall_s" in s and "hashes" in s]
    untraced = [s for s in completed if not s["traced"]]
    traced_ops = [s for s in completed if s["traced"]]
    if not untraced or (trace and not traced_ops):
        raise StepFailed(f"{name}: no operation completed: {samples[0]['problems']}")

    if trace:
        per_op = [tracing.layer_metrics(s["trace"]) for s in traced_ops]
        values = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
        values["trace.overhead_s"] = median(traced_ops, "wall_s") - median(untraced, "wall_s")
        units = {n: u for n, u, _ in tracing.per_layer_catalog()}
    else:
        wall = median(untraced, "wall_s")
        values = {
            "wall_s": wall,
            "tweets_per_s": workload.tweets / wall,
            "cpu_s": median(untraced, "cpu_s"),
            "peak_rss_mb": median(untraced, "peak_rss_mb"),
            "out_bytes": median(untraced, "out_bytes"),
            "planted_accuracy": median(untraced, "planted_accuracy"),
            "setup_s": statistics.median(setup_samples),
        }
        units = E2E_UNITS
    env = next(s["env"] for s in completed)
    env.update({
        "git_commit": git_commit(),
        "workload": name,
        "workload_seed": seed,
        "corpus_seeds": setup["corpus_seeds"],
    })
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
        "env": env,
        "setup_s": setup_samples,
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "mfquant" / "__init__.py").is_file():
        print(f"no mfquant sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    out_root = ROOT / ".bench_out"
    try:
        record = run_benchmark(args.workload, WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace), out_root)
    except StepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = record["result"]
    for s in record["samples"]:
        status = "; ".join(s["problems"]) or "ok"
        wall = f"{s['wall_s']:.3f} s" if "wall_s" in s else "-"
        print(f"op traced={int(s['traced'])} wall={wall}: {status}")
    print(f"setup_s samples: {', '.join(f'{x:.3f}' for x in record['setup_s'])}")
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
