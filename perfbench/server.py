"""The zipf-serve server process: gateway in front of a two-node cluster engine.

``python3 perfbench/server.py --store DIR`` boots the saved store, starts
a :class:`ClusterQueryEngine` with two managed nodes (hydrated over the
wire on the first query) behind a :class:`ServingGateway` with default
settings, and prints one JSON line with the gateway address.  It then
reads one JSON command per line on standard input:

* ``{"cmd": "trace", "on": true|false}`` installs or removes the
  span-recording wrappers around the engine, cluster and ranking layers;
* ``{"cmd": "report", "spans": PATH}`` answers with the recorded spans'
  self times, the engine's busy intervals, the cluster transport
  counters and the peak memory of this process and its nodes, writes the
  spans to ``PATH`` when given, then clears them;
* ``{"cmd": "stop"}`` or end of input stops the gateway, the engine and
  its nodes, and exits.

The load generator runs in another process, so a late generator never
steals this process's interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import proc_peak_rss_mb  # noqa: E402
from layers import CALL_SPANS, ROOT_SPANS  # noqa: E402
from tracing import SpanRecorder, install_engine_wrappers  # noqa: E402


def install(recorder: SpanRecorder, engine) -> None:
    """Wrap the engine's layers plus the cluster store and the array ranking functions."""
    from repro.serving import sharded

    recorder.wrap(engine, "run_batch", "engine")
    recorder.wrap(engine, "execute", "engine")
    install_engine_wrappers(recorder, engine)
    store = engine.sharded_store
    for method in ("pair_degrees", "pair_degrees_bounded", "request_degrees", "collect_degrees"):
        recorder.wrap(store, method, "cluster")
    recorder.wrap(sharded, "fuzzy_score_arrays", "fuzzy_arrays")
    recorder.wrap(sharded, "fuzzy_bound_arrays", "fuzzy_arrays")
    recorder.wrap(sharded, "merge_shard_topk", "topk_merge")


def report(recorder: SpanRecorder, engine, spans_path: str | None = None) -> dict:
    """Spans, counters and memory; runs on the engine thread."""
    roots = [(start, end) for name, start, end, parent, _ in recorder.spans
             if name == "engine" and parent < 0 and end is not None]
    cluster_seconds = sum(end - start for name, start, end, _p, _r in recorder.spans
                          if name == "cluster" and end is not None)
    snapshot = engine.stats_snapshot()
    store = engine.sharded_store
    nodes = [process.pid for process in store.processes if process is not None]
    body = {
        "self_times": recorder.self_times(roots=ROOT_SPANS),
        "calls": {name: recorder.calls(name) for name in CALL_SPANS},
        "counts": dict(recorder.counts),
        "cluster_seconds": cluster_seconds,
        "engine_intervals": roots,
        "transport": store.transport_counters(),
        "engine": {
            "plan_hits": snapshot["plan_cache"]["hits"],
            "plan_misses": snapshot["plan_cache"]["misses"],
            "membership_hits": snapshot["membership_cache"]["hits"],
            "membership_misses": snapshot["membership_cache"]["misses"],
            "membership_evictions": snapshot["membership_cache"]["evictions"],
            "entities_scored": snapshot["entities_scored"],
            "entities_pruned": snapshot["entities_pruned"],
        },
        "peak_rss_mb": proc_peak_rss_mb(os.getpid()) + sum(proc_peak_rss_mb(p) for p in nodes),
    }
    if spans_path:
        recorder.write(spans_path)
    recorder.spans.clear()
    recorder.counts.clear()
    return body


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    args = parser.parse_args(argv)

    from repro.core.database import SubjectiveDatabase
    from repro.serving import ClusterQueryEngine, start_gateway

    # Node processes are forked while this thread waits for a command; a
    # forked child closes ``sys.stdin``, which would block on the lock
    # this thread holds inside ``readline``.  Commands therefore arrive on
    # a private handle and the children close a harmless one.
    control = sys.stdin
    sys.stdin = open(os.devnull, encoding="utf-8")
    database = SubjectiveDatabase.open(args.store)
    engine = ClusterQueryEngine(database=database, num_nodes=2)
    handle = start_gateway(engine)
    recorder = SpanRecorder()
    on_engine_thread = handle.gateway.engine_executor.submit
    try:
        print(json.dumps({"address": list(handle.address)}), flush=True)
        for line in control:
            command = json.loads(line)
            if command["cmd"] == "stop":
                break
            if command["cmd"] == "trace":
                if command["on"] and not recorder.installed:
                    on_engine_thread(install, recorder, engine).result()
                elif not command["on"]:
                    on_engine_thread(recorder.uninstall).result()
                reply = {"ok": True}
            elif command["cmd"] == "report":
                reply = on_engine_thread(
                    report, recorder, engine, command.get("spans")
                ).result()
            else:
                reply = {"error": f"unknown command {command['cmd']!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        handle.stop()
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
