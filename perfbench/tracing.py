"""Span tracer for the benchmark's traced run.

The child process that runs one traced operation replaces the public
functions of each mfquant layer (module attributes, and the pipeline's
stage table) with wrappers that record spans and counts. Nothing in the
package's source changes. Each span records its name, start, end, CPU
time and the span that was open when it started; a layer's self time is
its span's duration minus the time its child spans cover.

Functions called once per record (``clean_and_tokenize``) get a lighter
wrapper that only adds up time and calls, reported as one span per
calling span, so that tracing a 150k-record corpus stays cheap.

Counts are recorded at the same boundaries, computed from the wrapped
call's arguments and result inside a ``trace.count`` span, so their cost
is not charged to the layer. SVD flops and bytes are computed from a
model of ``linalg.truncated_svd`` (see ``svd_work``), not measured.

This module imports only the standard library at module level, so the
benchmark's parent process can use ``layer_metrics`` without numpy.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

STAGES = (
    "ingest", "select", "matrix", "svd", "vectors",
    "loadings", "extend", "pca", "report",
)

LAYER_FUNCTIONS = {
    "pipeline": ("sha256_file",),
    "corpus": (
        "load_records", "clean_and_tokenize", "deduplicate",
        "write_tokenized", "read_tokenized",
    ),
    "vectorizer": (
        "build_word_tweet_matrix", "tfidf", "select_terms", "build_cooccurrence",
        "ppmi", "save_triplets", "load_triplets",
    ),
    "linalg": ("truncated_svd", "save_embedding", "load_embedding", "pca_2d"),
    "semantics": (
        "context_vectors_for_corpus", "loading_matrix", "save_loadings",
        "load_loadings", "foundation_counts", "extend_dictionary", "mf_vectors",
    ),
    "lexicon": ("load_dictionary",),
}

PER_RECORD = frozenset({"corpus.clean_and_tokenize"})

ROOT_SPAN = "op"
COUNT_SPAN = "trace.count"

# (name, unit, better) of every count the traced run reports.
COUNT_METRICS = (
    ("corpus.records_in", "count", "higher"),
    ("corpus.dedup_keep_ratio", "ratio", "higher"),
    ("vectorizer.cooc_pairs", "count", "lower"),
    ("vectorizer.cooc_nnz", "count", "lower"),
    ("vectorizer.ppmi_nnz", "count", "lower"),
    ("vectorizer.ppmi_density", "ratio", "lower"),
    ("vectorizer.ppmi_keep_ratio", "ratio", "higher"),
    ("linalg.svd_flops_computed", "flop", "lower"),
    ("linalg.svd_bytes_computed", "B", "lower"),
    ("linalg.svd_energy", "ratio", "higher"),
    ("semantics.keyword_token_ratio", "ratio", "higher"),
    ("semantics.degenerate_ratio", "ratio", "lower"),
)

TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("pipeline.run.self_s", "s", "lower"),
)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit, better)."""
    out = []
    for stage in STAGES:
        prefix = f"pipeline.stage.{stage}"
        out += [
            (f"{prefix}.wall_s", "s", "lower"),
            (f"{prefix}.cpu_s", "s", "lower"),
            (f"{prefix}.self_s", "s", "lower"),
            (f"{prefix}.calls", "count", "lower"),
        ]
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            out += [
                (f"{layer}.{name}.self_s", "s", "lower"),
                (f"{layer}.{name}.calls", "count", "lower"),
            ]
    return out + list(COUNT_METRICS) + list(TRACE_METRICS)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    calls: int = 1


class Tracer:
    """Spans and counts of one operation, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[Span] = []
        self._aggregates: dict[tuple[int | None, str], Span] = {}

    def _parent(self) -> int | None:
        return self._stack[-1].id if self._stack else None

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, self._parent(), time.perf_counter(), time.process_time())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu_end = time.process_time()
            self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(COUNT_SPAN):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self, bound.arguments, result)
            return result

        return traced

    def wrap_per_record(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                key = (self._parent(), name)
                agg = self._aggregates.get(key)
                if agg is None:
                    agg = Span(len(self.spans), name, key[0], start, 0.0, end=start, calls=0)
                    self.spans.append(agg)
                    self._aggregates[key] = agg
                agg.end += elapsed
                agg.calls += 1

        return traced

    def install(self) -> None:
        """Wrap every traced function of the imported mfquant package."""
        from mfquant import corpus, lexicon, linalg, pipeline, semantics, vectorizer

        modules = {
            "pipeline": pipeline, "corpus": corpus, "vectorizer": vectorizer,
            "linalg": linalg, "semantics": semantics, "lexicon": lexicon,
        }
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                key = f"{layer}.{fname}"
                fn = getattr(modules[layer], fname)
                if key in PER_RECORD:
                    wrapped = self.wrap_per_record(key, fn)
                else:
                    wrapped = self.wrap(key, fn, _COUNTERS.get(key))
                setattr(modules[layer], fname, wrapped)
        table = pipeline._STAGE_FUNCS
        for stage in STAGES:
            table[stage] = self.wrap(f"pipeline.stage.{stage}", table[stage])

    def export(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}


def svd_work(nnz: int, m: int, n: int, k: int, oversample: int, power_iters: int) -> tuple[float, float]:
    """Flops and compulsory bytes of linalg.truncated_svd on an m x n CSR matrix.

    The model follows the kernel: 2 + 2q sparse-dense products with p = k +
    oversample probe columns, 1 + q QRs of m x p and q of n x p (Householder
    with explicit Q), a thin SVD of the p x n sketch and the final m x p by
    p x k product. Bytes count one read of each operand and one write of each
    result: CSR as 8-byte values plus 4-byte column indices.
    """
    p = min(k + oversample, m, n)
    products = 2 + 2 * power_iters

    def qr_flops(rows: int) -> float:
        return 4.0 * rows * p * p - 4.0 * p ** 3 / 3.0

    flops = (
        products * 2.0 * nnz * p
        + (1 + power_iters) * qr_flops(m)
        + power_iters * qr_flops(n)
        + 4.0 * n * p * p + 22.0 * p ** 3
        + 2.0 * m * p * k
    )
    csr = 12.0 * nnz + 4.0 * (m + 1)
    moved = (
        products * (csr + 8.0 * (m + n) * p)
        + (1 + power_iters) * 16.0 * m * p
        + power_iters * 16.0 * n * p
        + 8.0 * (n * p + p * p)
        + 8.0 * (m * p + p * p + m * k)
    )
    return flops, moved


def _count_records(tracer: Tracer, arguments: dict, result) -> None:
    records, _stats = result
    tracer.add("corpus.records_in", len(records))


def _count_dedup(tracer: Tracer, arguments: dict, result) -> None:
    kept, removed = result
    tracer.add("dedup.in", len(kept) + removed)
    tracer.add("dedup.kept", len(kept))


def _count_cooccurrence(tracer: Tracer, arguments: dict, result) -> None:
    tracer.add("vectorizer.cooc_nnz", result.counts.nnz)
    tracer.add("vectorizer.cooc_pairs", int(result.counts.sum()))


def _count_ppmi(tracer: Tracer, arguments: dict, result) -> None:
    rows, cols = result.weights.shape
    tracer.add("vectorizer.ppmi_nnz", result.weights.nnz)
    tracer.add("ppmi.cells", rows * cols)


def _count_svd(tracer: Tracer, arguments: dict, result) -> None:
    import numpy as np
    from scipy import sparse

    mat = arguments["matrix"]
    mat = getattr(mat, "weights", mat)
    m, n = mat.shape
    if sparse.issparse(mat):
        nnz, values = mat.nnz, mat.data
    else:
        values = np.asarray(mat).ravel()
        nnz = values.size
    flops, moved = svd_work(
        nnz, m, n, arguments["k"], arguments["oversample"], arguments["power_iters"]
    )
    tracer.add("linalg.svd_flops_computed", flops)
    tracer.add("linalg.svd_bytes_computed", moved)
    total = float(np.dot(values, values))
    captured = float(np.dot(result.singular_values, result.singular_values))
    tracer.counts["linalg.svd_energy"] = captured / total if total else 0.0


def _count_context_vectors(tracer: Tracer, arguments: dict, result) -> None:
    keyword_tokens = skipped = degenerate = 0
    for cv in result:
        keyword_tokens += sum(c for _, c in cv.contributing_words)
        skipped += cv.skipped
        degenerate += cv.degenerate
    tracer.add("cv.tweets", len(result))
    tracer.add("cv.degenerate", degenerate)
    tracer.add("cv.keyword_tokens", keyword_tokens)
    tracer.add("cv.tokens", keyword_tokens + skipped)


_COUNTERS = {
    "corpus.load_records": _count_records,
    "corpus.deduplicate": _count_dedup,
    "vectorizer.build_cooccurrence": _count_cooccurrence,
    "vectorizer.ppmi": _count_ppmi,
    "linalg.truncated_svd": _count_svd,
    "semantics.context_vectors_for_corpus": _count_context_vectors,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation from its exported spans and counts.

    ``trace.overhead_s`` needs the untraced runs and is filled in by the caller.
    Layers an operation never calls report 0.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    metrics = {name: 0.0 for name, _, _ in per_layer_catalog()}
    root_wall = root_self = 0.0
    for s in spans:
        wall = s["end"] - s["start"]
        self_s = wall - covered.get(s["id"], 0.0)
        name = s["name"]
        if name == ROOT_SPAN:
            root_wall, root_self = wall, self_s
        elif name.startswith("pipeline.stage."):
            metrics[f"{name}.wall_s"] += wall
            metrics[f"{name}.cpu_s"] += s["cpu_end"] - s["cpu_start"]
            metrics[f"{name}.self_s"] += self_s
            metrics[f"{name}.calls"] += s["calls"]
        elif name != COUNT_SPAN:
            metrics[f"{name}.self_s"] += self_s
            metrics[f"{name}.calls"] += s["calls"]
    metrics["pipeline.run.self_s"] = root_self
    metrics["trace.coverage"] = _ratio(root_wall - root_self, root_wall)
    for key in (
        "corpus.records_in", "vectorizer.cooc_pairs", "vectorizer.cooc_nnz",
        "vectorizer.ppmi_nnz", "linalg.svd_flops_computed",
        "linalg.svd_bytes_computed", "linalg.svd_energy",
    ):
        metrics[key] = counts.get(key, 0)
    metrics["corpus.dedup_keep_ratio"] = _ratio(counts.get("dedup.kept", 0), counts.get("dedup.in", 0))
    metrics["vectorizer.ppmi_density"] = _ratio(counts.get("vectorizer.ppmi_nnz", 0), counts.get("ppmi.cells", 0))
    metrics["vectorizer.ppmi_keep_ratio"] = _ratio(
        counts.get("vectorizer.ppmi_nnz", 0), counts.get("vectorizer.cooc_nnz", 0)
    )
    metrics["semantics.keyword_token_ratio"] = _ratio(counts.get("cv.keyword_tokens", 0), counts.get("cv.tokens", 0))
    metrics["semantics.degenerate_ratio"] = _ratio(counts.get("cv.degenerate", 0), counts.get("cv.tweets", 0))
    return metrics
