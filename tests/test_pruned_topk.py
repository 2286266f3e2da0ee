"""Differential tests for bound-based top-k pruning.

The contract of the pruned ranking path is *exact* equality with the
unpruned engine and the :class:`~repro.core.SubjectiveQueryProcessor`
oracle: same ranked entity ids, bit-identical scores and per-predicate
degrees, in process and over the TCP cluster for node counts {1, 2, 4} —
while doing strictly less exact-kernel work on selective top-k queries.
These tests pin both halves of that contract: equality through the layer
stack, and ``entities_scored`` strictly below the candidate count on a
cold selective query, with the skipped rows accounted as
``entities_pruned``.  The fallback edges (no LIMIT, text-retrieval
predicates, candidate sets no larger than one scan chunk) must leave the
pruned path disengaged and the results untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.columnar import ColumnarSummaryStore
from repro.core.database import ReviewRecord
from repro.core.interpreter import InterpretationMethod
from repro.serving import ClusterQueryEngine, SubjectiveQueryEngine
from repro.testing import build_synthetic_columnar_database

SHARD_COUNTS = [1, 2, 4]

#: Selective conjunctive top-k queries — the pruned path's home turf.
SELECTIVE_QUERIES = [
    'select * from Entities where "word003" and "word019" limit 5',
    'select * from Entities where "word007" limit 3',
    'select * from Entities where "word001" and "word002" and "word020" limit 4',
    "select * from Entities where city = 'london' and \"word004\" limit 5",
]

#: Trees with OR/NOT roots: prunable only through bound envelopes, never
#: through the AND-path threshold transfer.
MIXED_QUERIES = [
    'select * from Entities where not "word002" or "word021" limit 4',
    'select * from Entities where "word005" or "word017" limit 6',
]

#: Queries the pruned path must refuse up front (no limit; a gibberish
#: predicate that interprets to BM25 text retrieval).
FALLBACK_QUERIES = [
    'select * from Entities where "word003" and "word019"',
    'select * from Entities where "zxqv wobbly flurb" limit 5',
]


@pytest.fixture(scope="module")
def synthetic_database():
    return build_synthetic_columnar_database(num_entities=300, seed=11)


def _assert_identical_results(expected, actual, context: str = "") -> None:
    """Exact equality of two query results: ids, scores, degrees, rows."""
    assert actual.entity_ids == expected.entity_ids, context
    for exp, act in zip(expected.entities, actual.entities):
        assert act.entity_id == exp.entity_id, context
        assert act.score == exp.score, context
        assert act.predicate_degrees == exp.predicate_degrees, context
        assert act.row == exp.row, context


def _assert_matches_baseline(database, engine, sqls, context=""):
    baseline = SubjectiveQueryProcessor(database)
    for sql in sqls:
        expected = baseline.execute(sql)
        actual = engine.execute(sql)
        _assert_identical_results(expected, actual, context=f"{context} {sql!r}")
        # Warm (fully cached) executions must agree too.
        _assert_identical_results(expected, engine.execute(sql), context=f"warm {sql!r}")


ALL_QUERIES = SELECTIVE_QUERIES + MIXED_QUERIES + FALLBACK_QUERIES


class TestEnginePruning:
    @pytest.mark.parametrize("chunk_size", [16, 64, 128])
    def test_identical_across_chunk_sizes(self, synthetic_database, chunk_size):
        """Chunk boundaries move the threshold's arrival, never the result."""
        engine = SubjectiveQueryEngine(database=synthetic_database)
        assert engine.prune_topk
        engine.prune_chunk_size = chunk_size
        _assert_matches_baseline(
            synthetic_database, engine, ALL_QUERIES, context=f"chunk={chunk_size}"
        )
        assert engine.entities_pruned > 0

    def test_pruned_equals_unpruned_engine(self, synthetic_database):
        """prune_topk=False runs the exact vectorized path; results must agree."""
        pruned = SubjectiveQueryEngine(database=synthetic_database)
        full = SubjectiveQueryEngine(database=synthetic_database, prune_topk=False)
        for sql in ALL_QUERIES:
            _assert_identical_results(full.execute(sql), pruned.execute(sql), context=sql)
        assert full.entities_pruned == 0
        assert pruned.entities_pruned > 0

    def test_entities_scored_strictly_lower(self, synthetic_database):
        """A cold selective top-k scores strictly fewer rows than it covers."""
        num_entities = len(synthetic_database.entities())
        pruned = SubjectiveQueryEngine(database=synthetic_database)
        full = SubjectiveQueryEngine(database=synthetic_database, prune_topk=False)
        sql = SELECTIVE_QUERIES[0]
        pruned.execute(sql)
        full.execute(sql)
        # The unpruned engine pays one cache miss per (entity, predicate);
        # the pruned engine must do strictly less exact work.
        assert full.entities_scored == 2 * num_entities
        assert 0 < pruned.entities_scored < full.entities_scored
        assert pruned.entities_pruned > 0
        stats = pruned.stats_snapshot()
        assert stats["entities_scored"] == pruned.entities_scored
        assert stats["entities_pruned"] == pruned.entities_pruned

    def test_small_candidate_sets_skip_the_pruned_scan(self, synthetic_database):
        """At or below one scan chunk no threshold can form: exact path only."""
        engine = SubjectiveQueryEngine(database=synthetic_database)
        engine.prune_chunk_size = len(synthetic_database.entities())
        _assert_matches_baseline(synthetic_database, engine, SELECTIVE_QUERIES[:2])
        assert engine.entities_pruned == 0

    def test_retrieval_fallback_does_not_prune(self, hotel_database):
        """A BM25 text-retrieval interpretation refuses the pruned path."""
        engine = SubjectiveQueryEngine(database=hotel_database)
        sql = FALLBACK_QUERIES[1]
        engine.execute(sql)
        plan = engine.plan(sql)
        assert (
            plan.interpretations["zxqv wobbly flurb"].method
            is InterpretationMethod.TEXT_RETRIEVAL
        )
        assert engine.entities_pruned == 0

    def test_run_batch_stats_surface_pruning(self, synthetic_database):
        engine = SubjectiveQueryEngine(database=synthetic_database)
        batch = engine.run_batch(SELECTIVE_QUERIES[:2])
        assert batch.cache_stats["entities_pruned"] > 0
        assert batch.cache_stats["entities_scored"] > 0

    def test_ingest_resets_pruning_soundly(self):
        """A data_version bump must not leave stale bounds behind."""
        database = build_synthetic_columnar_database(num_entities=200, seed=23)
        engine = SubjectiveQueryEngine(database=database)
        sql = SELECTIVE_QUERIES[0]
        _assert_identical_results(
            SubjectiveQueryProcessor(database).execute(sql), engine.execute(sql)
        )
        assert engine.entities_pruned > 0
        entity = database.entities()[0]
        database.add_review(ReviewRecord(10_000, entity.entity_id, "word003 word019 again"))
        _assert_identical_results(
            SubjectiveQueryProcessor(database).execute(sql),
            engine.execute(sql),
            context="post-ingest",
        )


class TestClusterPruning:
    @pytest.mark.parametrize("num_nodes", SHARD_COUNTS)
    def test_cluster_identical(self, synthetic_database, num_nodes):
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=num_nodes, max_inflight_queries=1
        ) as engine:
            _assert_matches_baseline(
                synthetic_database,
                engine,
                SELECTIVE_QUERIES + MIXED_QUERIES,
                context=f"nodes={num_nodes}",
            )

    def test_cluster_counts_pruning(self, synthetic_database):
        num_entities = len(synthetic_database.entities())
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=2, max_inflight_queries=1
        ) as engine:
            engine.execute(SELECTIVE_QUERIES[0])
            assert 0 < engine.entities_scored < 2 * num_entities
            assert engine.entities_pruned > 0
            nodes = engine.sharded_store.partition_stats()
            assert sum(entry.get("entities_pruned", 0) for entry in nodes) > 0

    def test_concurrent_batch_still_identical(self, synthetic_database):
        """Pruning is disabled inside the concurrent batch, not broken by it."""
        baseline = SubjectiveQueryProcessor(synthetic_database)
        with ClusterQueryEngine(
            database=synthetic_database, num_nodes=2, max_inflight_queries=8
        ) as engine:
            batch = engine.run_batch(SELECTIVE_QUERIES + MIXED_QUERIES)
            for sql, actual in zip(SELECTIVE_QUERIES + MIXED_QUERIES, batch.results):
                _assert_identical_results(baseline.execute(sql), actual, context=sql)
            # Serial execution afterwards re-enables the pruned path.
            engine.execute(SELECTIVE_QUERIES[0])


class TestBoundEnvelopes:
    def test_degree_bounds_contain_exact_degrees(self, synthetic_database):
        """The membership envelope brackets every exact columnar degree."""
        engine = SubjectiveQueryEngine(database=synthetic_database)
        membership = engine.processor.membership
        store = ColumnarSummaryStore(synthetic_database)
        checked = 0
        for attribute in ("quality", "service"):
            columns = store.columns(attribute)
            bounds = store.score_bounds(attribute)
            assert bounds is not None
            for marker in (marker.name for marker in columns.markers):
                envelope = membership.degree_bounds(bounds, marker)
                assert envelope is not None
                lo, hi = envelope
                exact = np.asarray(membership.degrees_columnar(columns, marker))
                assert np.all(lo <= exact), (attribute, marker)
                assert np.all(exact <= hi), (attribute, marker)
                checked += 1
        assert checked > 0

    def test_score_bounds_slices_match_whole(self, synthetic_database):
        """Sliced bound summaries equal slices of the whole-column summary."""
        store = ColumnarSummaryStore(synthetic_database)
        whole = store.score_bounds("quality")
        part = store.score_bounds("quality", 10, 60)
        assert part.num_entities == 50
        assert np.array_equal(part.deviations, whole.deviations[10:60])
        assert np.array_equal(part.fraction_peaks, whole.fraction_peaks[10:60])
