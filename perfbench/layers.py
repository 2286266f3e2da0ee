"""The per-layer metrics of the traced run and how spans map onto them."""

from __future__ import annotations

#: Every per-layer metric with its unit; the traced run reports all of them.
PER_LAYER_UNITS: dict[str, str] = {
    "interpreter.calls": "1/query",
    "interpreter.ms": "ms/query",
    "interpreter.word2vec": "1/query",
    "interpreter.cooccurrence": "1/query",
    "interpreter.retrieval": "1/query",
    "plan.ms": "ms/query",
    "plan_cache.hit_rate": "ratio",
    "bm25.calls": "1/query",
    "bm25.ms": "ms/query",
    "executor.calls": "1/query",
    "executor.ms": "ms/query",
    "executor.rows_per_result": "ratio",
    "membership_cache.ms": "ms/query",
    "membership_cache.hit_rate": "ratio",
    "membership_cache.evictions": "1/query",
    "kernel.calls": "1/query",
    "kernel.rows": "1/query",
    "kernel.ms": "ms/query",
    "rank.calls": "1/query",
    "rank.rows": "1/query",
    "rank.ms": "ms/query",
    "prune.scored": "1/query",
    "prune.pruned": "1/query",
    "prune.ratio": "ratio",
    "fuzzy_arrays.ms": "ms/query",
    "topk_merge.ms": "ms/query",
    "cluster.calls": "1/query",
    "cluster.ms": "ms/query",
    "cluster.bytes_out": "B/query",
    "cluster.bytes_in": "B/query",
    "cluster.hydrate_bytes": "B",
    "cluster.hydrate_ms": "ms",
    "gateway.requests": "count",
    "gateway.shared_frac": "ratio",
    "gateway.batch_size": "1/batch",
    "gateway.queue_wait_ms": "ms",
    "gateway.rejections": "count",
    "engine.busy_frac": "ratio",
    "database.write_ms": "ms/write",
    "engine.invalidations": "1/write",
    "rebuild.ms": "ms/write",
    "storage.open_ms": "ms",
    "storage.save_ms": "ms",
    "storage.bytes_written": "B/save",
    "storage.disk_bytes": "B",
    "storage.mmap_serves": "count",
    "extraction.tagger_ms": "ms",
    "extraction.build_ms": "ms",
    "extraction.text_models_ms": "ms",
    "other.ms": "ms/query",
    "trace.overhead": "ratio",
}

#: Span name → per-layer self-time metric.
SELF_TIME_METRICS = {
    "interpreter": "interpreter.ms",
    "plan": "plan.ms",
    "bm25": "bm25.ms",
    "executor": "executor.ms",
    "membership_cache": "membership_cache.ms",
    "kernel": "kernel.ms",
    "columns": "kernel.ms",
    "rank": "rank.ms",
    "fuzzy_arrays": "fuzzy_arrays.ms",
    "topk_merge": "topk_merge.ms",
    "cluster": "cluster.ms",
    "other": "other.ms",
}


#: Span names whose calls per query are per-layer metrics.
CALL_SPANS = ("bm25", "executor", "kernel", "rank", "cluster")
#: Spans that stand for one whole request; their self time is ``other``.
ROOT_SPANS = ("query", "engine")


def layer_metrics(
    self_times: dict[str, float],
    counts: dict[str, float],
    calls: dict[str, int],
    deltas: dict[str, float],
    queries: int,
) -> dict[str, float]:
    """Every per-layer metric from the traced windows.

    ``self_times`` and ``calls`` come from the spans (see
    :meth:`SpanRecorder.self_times`), ``counts`` from the wrappers' hooks
    and ``deltas`` from the engines' public counters.  Layers the workload
    never reaches report 0.
    """
    layers = {name: 0.0 for name in PER_LAYER_UNITS}
    for span_name, seconds in self_times.items():
        metric = SELF_TIME_METRICS.get(span_name)
        if metric is not None:
            layers[metric] += seconds * 1000.0 / queries
    for name in ("interpreter.calls", "interpreter.word2vec", "interpreter.cooccurrence",
                 "kernel.rows", "rank.rows"):
        layers[name] = counts.get(name, 0.0) / queries
    layers["interpreter.retrieval"] = counts.get("interpreter.text_retrieval", 0.0) / queries
    for span_name in CALL_SPANS:
        layers[span_name + ".calls"] = calls.get(span_name, 0) / queries
    if counts.get("results"):
        layers["executor.rows_per_result"] = counts.get("executor.rows", 0.0) / counts["results"]
    plan_lookups = deltas.get("plan_hits", 0) + deltas.get("plan_misses", 0)
    if plan_lookups:
        layers["plan_cache.hit_rate"] = deltas["plan_hits"] / plan_lookups
    lookups = deltas.get("membership_hits", 0) + deltas.get("membership_misses", 0)
    if lookups:
        layers["membership_cache.hit_rate"] = deltas["membership_hits"] / lookups
    layers["membership_cache.evictions"] = deltas.get("membership_evictions", 0) / queries
    scored = deltas.get("entities_scored", 0)
    pruned = deltas.get("entities_pruned", 0)
    layers["prune.scored"] = scored / queries
    layers["prune.pruned"] = pruned / queries
    if scored + pruned:
        layers["prune.ratio"] = pruned / (scored + pruned)
    layers["storage.mmap_serves"] = deltas.get("mmap_serves", 0)
    return layers


def self_time_notes(self_times: dict[str, float], queries: int) -> list[str]:
    """Self time per span name, per query, largest first (for the report)."""
    whole = sum(self_times.values()) or 1.0
    return [
        f"self {name:<17} {seconds * 1000.0 / queries:9.3f} ms/query"
        f"  {100.0 * seconds / whole:5.1f}%"
        for name, seconds in sorted(self_times.items(), key=lambda item: -item[1])
    ]
