"""Observability cost on the warm serving path: tracing on vs off.

The unified observability layer (ISSUE 10) keeps the metrics registry
always-on — every cache hit, kernel call, and pruning decision lands in a
registry-backed counter cell — and gates the *tracing* side (contextvar
propagation, span records, ring-buffer stores) behind a runtime flag.
This benchmark prices that design on the warm path, where instrument
overhead is proportionally largest because each query does the least
work:

* **off** — the default production posture: metrics recording, tracing
  disabled (``span()`` degrades to a shared no-op context);
* **on** — ``enable_tracing()``: every query mints a trace context and
  records plan/candidate/score/merge spans into the ring buffer.

One warm :class:`SubjectiveQueryEngine` serves both modes, so the
caches, column arrays, and bound summaries are byte-identical; the modes
alternate pass-by-pass so both see the same scheduler-noise windows, and
the per-mode best-of-``passes`` maxima are compared.  Rankings must be
bit-identical across modes — tracing is observation, never behaviour.

The contract from ISSUE 10: tracing-on warm throughput within 5% of
tracing-off (``throughput_ratio_floor`` 0.95, gated by
``tools/check_bench_floors.py`` over ``BENCH_obs.json``).

Scale knob: ``REPRO_BENCH_OBS_ENTITIES`` (default 800, floored at 400).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_result
from repro.experiments.common import ExperimentTable
from repro.obs import disable_tracing, enable_tracing, global_trace_store
from repro.serving import SubjectiveQueryEngine
from repro.testing import build_synthetic_columnar_database, env_int

pytestmark = pytest.mark.slow

#: The measurement harness, recorded verbatim under ``"harness"`` in the
#: results document so a stale ``BENCH_obs.json`` is detectable.  Must
#: stay a pure literal — ``tools/check_bench_floors.py`` reads it with
#: ``ast.literal_eval`` and warns when it drifts from the committed JSON.
HARNESS = {
    "benchmark": "bench_obs_overhead",
    "domain": "synthetic",
    "entities_default": 800,
    "entities_env": "REPRO_BENCH_OBS_ENTITIES",
    "queries": 6,
    "repeats_per_pass": 4,
    "passes": 12,
    "timing": "best-of-alternating-warm-passes",
    "throughput_ratio_floor": 0.95,
}

OBS_ENTITIES = max(400, env_int(HARNESS["entities_env"], HARNESS["entities_default"]))
RATIO_FLOOR = HARNESS["throughput_ratio_floor"]
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: A small mixed workload (conjunctions, disjunction, objective filter)
#: served fully warm: the regime where per-query observability overhead
#: is the largest fraction of total work.
QUERIES = [
    'select * from Entities where "word003" and "word019" limit 5',
    'select * from Entities where "word001" and "word002" limit 5',
    'select * from Entities where "word007" or "word023" limit 10',
    "select * from Entities where city = 'london' and \"word004\" limit 5",
    'select * from Entities where "word011" and "word017" limit 5',
    'select * from Entities where "word020" limit 10',
]


@pytest.fixture(scope="module")
def synthetic_database():
    return build_synthetic_columnar_database(num_entities=OBS_ENTITIES, seed=0)


def _one_warm_pass(engine, repeats: int) -> float:
    """Queries per second of one fully warm workload pass."""
    started = time.perf_counter()
    for _ in range(repeats):
        for sql in QUERIES:
            engine.execute(sql)
    return (repeats * len(QUERIES)) / (time.perf_counter() - started)


def test_observability_overhead_within_budget(synthetic_database):
    engine = SubjectiveQueryEngine(database=synthetic_database)
    repeats = HARNESS["repeats_per_pass"]
    passes = HARNESS["passes"]

    # Warm every cache once, and pin the differential contract: the same
    # rankings (ids and scores) with tracing off and on.
    disable_tracing()
    baseline = {sql: engine.execute(sql) for sql in QUERIES}
    enable_tracing()
    try:
        for sql in QUERIES:
            traced = engine.execute(sql)
            assert traced.entity_ids == baseline[sql].entity_ids, sql
            assert [entity.score for entity in traced] == [
                entity.score for entity in baseline[sql]
            ], sql
        assert global_trace_store().trace_ids(), "tracing recorded no spans"
    finally:
        disable_tracing()

    # Alternate modes pass-by-pass over the one warm engine and keep the
    # per-mode maxima; tracing state is always restored on the way out.
    best_off = best_on = 0.0
    try:
        for _ in range(passes):
            disable_tracing()
            best_off = max(best_off, _one_warm_pass(engine, repeats))
            enable_tracing()
            best_on = max(best_on, _one_warm_pass(engine, repeats))
    finally:
        disable_tracing()
    ratio = best_on / best_off

    table = ExperimentTable(
        title=(
            f"Observability overhead ({len(synthetic_database)} entities, "
            "warm path)"
        ),
        columns=["mode", "qps"],
    )
    table.add_row("metrics only (tracing off)", round(best_off, 1))
    table.add_row("metrics + tracing", round(best_on, 1))
    table.add_row("ratio (on/off)", round(ratio, 4))
    print_result(table.format())

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "benchmark": "bench_obs_overhead",
                "domain": "synthetic",
                "entities": len(synthetic_database),
                "queries": len(QUERIES),
                "qps_tracing_off": round(best_off, 2),
                "qps_tracing_on": round(best_on, 2),
                "throughput_ratio": round(ratio, 4),
                "throughput_ratio_floor": RATIO_FLOOR,
                "rankings_identical": True,
                "harness": HARNESS,
            },
            indent=2,
        )
        + "\n"
    )

    assert ratio >= RATIO_FLOOR, (
        f"tracing-on warm throughput only {ratio:.4f}x of tracing-off"
    )
