"""One benchmark step in its own process: set up a workload, or run one operation.

Usage: python3 perfbench/child.py '<request JSON>'

The request names the step (``setup`` or ``op``), the workload and the
workspace directory. The result is printed as one JSON line on stdout;
mfquant's log goes to stderr. Running each operation in a fresh process
makes its peak RSS and CPU time belong to that operation alone.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

IMMORALITY_QUERY_WORDS = ("immoral", "immorality")
# The SVD seed is a pipeline parameter, fixed like the paper defaults; the
# workload seed only drives the synthetic corpora.
PIPELINE_SEED = 42


def _import_mfquant() -> None:
    sys.path.insert(0, str(SRC))
    import mfquant

    if not Path(mfquant.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported mfquant from {mfquant.__file__}, not from {SRC}")


def _topics(workload: dict) -> list[tuple[str, str]]:
    """(topic corpus name, planted cluster) pairs the workload generates."""
    from mfquant import synth

    return list(synth.DEFAULT_TOPICS) if workload["topic_tweets"] else []


def make_config(workload: dict, workspace: Path):
    from mfquant.pipeline import PipelineConfig

    query_words = {"immorality": IMMORALITY_QUERY_WORDS}
    topic_paths = {}
    for topic, _ in _topics(workload):
        topic_paths[topic] = workspace / f"{topic}.jsonl"
        query_words[topic] = (topic.replace("_", ""),)
    return PipelineConfig(
        immorality_path=workspace / "immorality.jsonl",
        out_dir=workspace / "out",
        topic_paths=topic_paths,
        query_words=query_words,
        n1=workload["n1"],
        n2=workload["n2"],
        k=workload["k"],
        seed=PIPELINE_SEED,
    )


def setup(request: dict) -> dict:
    """Generate the workload's corpora and run its upstream stages."""
    from mfquant import pipeline, synth

    workload = request["workload"]
    seed = request["seed"]
    workspace = Path(request["workspace"])
    workspace.mkdir(parents=True)
    plan = synth.default_plan()
    synth.synth_corpus(plan, workload["tweets"], seed, workspace / "immorality.jsonl")
    for i, (topic, cluster) in enumerate(_topics(workload)):
        synth.synth_topic_corpus(
            plan, cluster, workload["topic_tweets"], seed + 1 + i,
            workspace / f"{topic}.jsonl", topic.replace("_", ""),
        )
    config = make_config(workload, workspace)
    for stage in workload["upstream"]:
        pipeline.run(stage, config)
    digests = {p.name: pipeline.sha256_file(p) for p in sorted(workspace.glob("*.jsonl"))}
    if workload["upstream"]:
        manifest = pipeline.RunManifest.load_or_create(config.out_dir, config.params_snapshot())
        digests.update(manifest.artifact_hashes())
    topics = [topic for topic, _ in _topics(workload)]
    seeds = {"immorality": seed, **{t: seed + 1 + i for i, t in enumerate(topics)}}
    return {"digests": digests, "topics": topics, "corpus_seeds": seeds}


def operation(request: dict) -> dict:
    """Run the workload's stages once, traced or not; report time, CPU and peak RSS.

    The environment stamp is taken after the measurement.
    """
    from mfquant import pipeline

    config = make_config(request["workload"], Path(request["workspace"]))
    tracer = None
    if request["trace"]:
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    if tracer is None:
        for stage in request["workload"]["stages"]:
            pipeline.run(stage, config)
    else:
        with tracer.span(ROOT_SPAN):
            for stage in request["workload"]["stages"]:
                pipeline.run(stage, config)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    result["env"] = environment()
    return result


def _openblas() -> list[dict]:
    """OpenBLAS builds loaded in this process, with their effective thread counts."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = get_threads()
        found.append(info)
    return found


def environment() -> dict:
    """Versions and thread settings the results depend on."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    mfquant = sys.modules["mfquant"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mfquant": mfquant.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


STEPS = {"setup": setup, "op": operation}


def main() -> None:
    request = json.loads(sys.argv[1])
    _import_mfquant()
    result = STEPS[request["step"]](request)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
