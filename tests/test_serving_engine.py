"""Tests for the serving engine: cache accounting, invalidation, batch identity,
and exact equality with the :class:`SubjectiveQueryProcessor` oracle.

The differential half pins the engine's vectorized WHERE ranking and its
pruned top-k scan against the processor's scalar ``rank_candidates``: same
ranked entity ids, bit-identical scores and per-predicate degrees, on the
two fully built domain fixtures (hotels, restaurants), including the BM25
text-retrieval fallback, ``top_k`` and ``LIMIT`` edge cases, score ties,
the scalar path for a logic without array connectives, a custom processor,
and an ingest in the middle of a ``run_batch``.
"""

import sys

import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.attributes import ObjectiveAttribute, SubjectiveAttribute, SubjectiveSchema
from repro.core.database import ReviewRecord, SubjectiveDatabase
from repro.core.fuzzy import ZadehLogic
from repro.core.interpreter import InterpretationMethod
from repro.core.markers import Marker, MarkerSummary
from repro.engine.types import ColumnType
from repro.errors import ExecutionError, ParseError
from repro.serving import SubjectiveQueryEngine

QUERIES = [
    'select * from Entities where "has really clean rooms" limit 5',
    'select * from Entities where city = \'london\' and "friendly staff" limit 5',
    'select * from Entities where "quiet comfortable rooms" and "great breakfast" limit 8',
]


@pytest.fixture(scope="module")
def tiny_database():
    """A minimal hand-built database: summaries, variation markers, text models."""
    schema = SubjectiveSchema(
        name="hotels",
        entity_key="hotelname",
        objective_attributes=[
            ObjectiveAttribute("city", ColumnType.TEXT),
            ObjectiveAttribute("price_pn", ColumnType.FLOAT),
        ],
        subjective_attributes=[
            SubjectiveAttribute(
                name="room_cleanliness",
                markers=[Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)],
            ),
        ],
    )
    database = SubjectiveDatabase(schema, embedding_dimension=12)
    texts = [
        "the room was very clean and the staff was friendly",
        "dirty room with a bad smell and rude staff",
        "spotless clean room and a great location",
        "the room was clean and the breakfast was good",
    ]
    review_id = 0
    for index in range(4):
        entity = f"h{index}"
        database.add_entity(entity, {"city": "london" if index % 2 else "paris",
                                     "price_pn": 100.0 + index})
        for text in texts:
            database.add_review(ReviewRecord(review_id, entity, text))
            review_id += 1
        database.add_extraction(entity, review_id - 1, texts[0], "room", "clean",
                                "room_cleanliness", marker="clean", sentiment=0.7)
        summary = MarkerSummary("room_cleanliness",
                                [Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)])
        summary.add_phrase("clean" if index % 2 else "dirty", sentiment=0.5 if index % 2 else -0.5)
        database.store_summary(entity, summary)
    database.set_variation_marker("room_cleanliness", "clean room", "clean")
    database.fit_text_models()
    return database


class TestPlanCache:
    def test_repeated_query_hits_plan_cache(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[0])
        assert engine.plan_cache.stats.misses == 1
        engine.execute(QUERIES[0])
        assert engine.plan_cache.stats.hits == 1
        assert engine.plan_cache.stats.misses == 1

    def test_formatting_variants_share_one_plan(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute('select * from Entities where "has really clean rooms" limit 5')
        engine.execute('SELECT *  FROM  Entities WHERE "has really clean rooms" LIMIT 5')
        assert len(engine.plan_cache) == 1
        assert engine.plan_cache.stats.hits == 1

    def test_column_case_variants_do_not_share_a_plan(self, hotel_database):
        # A mis-cased column must fail through the engine exactly as it does
        # through the processor — not silently reuse the lowercase plan.
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute('select * from Entities where city = \'london\' and "clean rooms"')
        with pytest.raises(ExecutionError):
            engine.execute('select * from Entities where City = \'london\' and "clean rooms"')

    def test_plan_cache_lru_eviction(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database, plan_cache_size=2)
        for sql in QUERIES:
            engine.execute(sql)
        assert len(engine.plan_cache) == 2
        assert engine.plan_cache.stats.evictions == 1
        # The evicted (oldest) plan is rebuilt on the next request.
        engine.execute(QUERIES[0])
        assert engine.plan_cache.stats.misses == len(QUERIES) + 1


class TestMembershipCache:
    def test_warm_query_is_all_hits(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[2])
        misses_after_cold = engine.membership_cache.stats.misses
        assert misses_after_cold > 0
        engine.execute(QUERIES[2])
        assert engine.membership_cache.stats.misses == misses_after_cold
        assert engine.membership_cache.stats.hits == misses_after_cold

    def test_distinct_predicates_do_not_collide(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[0])
        first = engine.membership_cache.stats.misses
        engine.execute(QUERIES[1])
        assert engine.membership_cache.stats.misses > first


class TestInvalidation:
    def test_ingest_invalidates_caches(self, tiny_database):
        engine = SubjectiveQueryEngine(database=tiny_database)
        engine.execute(QUERIES[0])
        assert len(engine.plan_cache) == 1
        next_id = max(review.review_id for review in tiny_database.reviews()) + 1
        tiny_database.add_review(
            ReviewRecord(next_id, "h0", "the room was very clean again")
        )
        engine.execute(QUERIES[0])
        assert engine.stats.invalidations == 1
        # The old plan and degrees were dropped and rebuilt once.
        assert engine.plan_cache.stats.misses == 2
        assert len(engine.plan_cache) == 1

    def test_store_summary_invalidates(self, tiny_database):
        engine = SubjectiveQueryEngine(database=tiny_database)
        engine.execute(QUERIES[0])
        summary = MarkerSummary("room_cleanliness",
                                [Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)])
        summary.add_phrase("clean", sentiment=0.9)
        tiny_database.store_summary("h1", summary)
        engine.execute(QUERIES[0])
        assert engine.stats.invalidations == 1

    def test_results_correct_after_invalidation(self, tiny_database):
        engine = SubjectiveQueryEngine(database=tiny_database)
        engine.execute(QUERIES[0])
        next_id = max(review.review_id for review in tiny_database.reviews()) + 1
        tiny_database.add_review(ReviewRecord(next_id, "h1", "very clean room"))
        warm = engine.execute(QUERIES[0])
        fresh = SubjectiveQueryProcessor(tiny_database).execute(QUERIES[0])
        assert warm.entity_ids == fresh.entity_ids
        assert [entity.score for entity in warm] == [entity.score for entity in fresh]


class TestBatchIdentity:
    def test_run_batch_matches_sequential_processor(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        batch = engine.run_batch(QUERIES)
        processor = SubjectiveQueryProcessor(hotel_database)
        for sql, warm in zip(QUERIES, batch.results):
            cold = processor.execute(sql)
            assert warm.entity_ids == cold.entity_ids
            assert [entity.score for entity in warm] == [entity.score for entity in cold]
            for warm_entity, cold_entity in zip(warm, cold):
                assert warm_entity.predicate_degrees == cold_entity.predicate_degrees

    def test_second_batch_is_served_from_caches(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.run_batch(QUERIES)
        second = engine.run_batch(QUERIES)
        assert second.cache_stats["plan_misses"] == 0
        assert second.cache_stats["membership_misses"] == 0
        assert second.cache_stats["candidate_misses"] == 0
        assert second.cache_stats["plan_hits"] == len(QUERIES)

    def test_batch_result_shape(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        batch = engine.run_batch(QUERIES)
        assert len(batch) == len(QUERIES)
        assert len(batch.latencies) == len(QUERIES)
        assert all(latency >= 0.0 for latency in batch.latencies)
        assert batch.queries_per_second > 0.0


class TestBatchScoringPrimitives:
    def test_membership_degrees_match_scalar_degree(self, hotel_database):
        membership = SubjectiveQueryProcessor(hotel_database).membership
        attribute = hotel_database.schema.subjective_attributes[0].name
        summaries = [
            hotel_database.marker_summary(entity_id, attribute)
            for entity_id in hotel_database.entity_ids()
        ]
        batch = membership.degrees(summaries, "really clean rooms")
        scalar = [membership.degree(summary, "really clean rooms") for summary in summaries]
        assert list(batch) == scalar

    def test_engine_requires_database_or_processor(self):
        with pytest.raises(ValueError):
            SubjectiveQueryEngine()

    def test_stats_snapshot_structure(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[0])
        snapshot = engine.stats_snapshot()
        assert snapshot["queries"] == 1
        assert snapshot["total_seconds"] > 0.0
        for cache in ("plan_cache", "membership_cache", "candidate_cache"):
            assert set(snapshot[cache]) == {"hits", "misses", "evictions", "hit_rate"}


# ---------------------------------------------------------------------------
# Differential equivalence against the processor oracle
# ---------------------------------------------------------------------------

#: Gibberish predicates interpret to nothing and must fall back to BM25
#: text retrieval; the suite asserts the fallback actually triggered.
FALLBACK_PREDICATE = "zxqv wobbly flurb"

HOTEL_QUERIES = [
    'select * from Entities where "has really clean rooms" limit 5',
    "select * from Entities where city = 'london' and \"friendly staff\" limit 5",
    'select * from Entities where "quiet comfortable rooms" and "great breakfast" limit 8',
    'select * from Entities where not "noisy room" or "spotless room" limit 6',
    f'select * from Entities where "{FALLBACK_PREDICATE}" limit 6',
]

RESTAURANT_QUERIES = [
    'select * from Entities where "delicious fresh food" limit 5',
    'select * from Entities where "friendly attentive service" and "cozy atmosphere" limit 6',
    'select * from Entities where not "slow service" limit 4',
    f'select * from Entities where "{FALLBACK_PREDICATE}" limit 5',
]

#: Ranking paths of the one engine: the default (the fixtures fit in one
#: scan chunk, so this is exact vectorized ranking), a tiny scan chunk
#: that forces the pruned scan even on the small fixtures, a chunk of 7
#: that divides none of the fixture sizes (so the last chunk is ragged),
#: and pruning off.
ENGINE_CONFIGS = {
    "default": {},
    "pruned-small-chunk": {"prune_chunk_size": 2},
    "pruned-ragged-chunk": {"prune_chunk_size": 7},
    "exact": {"prune_topk": False},
}


def _engine(database=None, config="default", **kwargs) -> SubjectiveQueryEngine:
    options = dict(ENGINE_CONFIGS[config])
    chunk = options.pop("prune_chunk_size", None)
    engine = SubjectiveQueryEngine(database=database, **options, **kwargs)
    if chunk is not None:
        engine.prune_chunk_size = chunk
    return engine


def _assert_identical_results(expected, actual, context: str = "") -> None:
    """Exact equality of two query results: ids, scores, degrees, rows."""
    assert actual.entity_ids == expected.entity_ids, context
    for exp, act in zip(expected.entities, actual.entities):
        assert act.entity_id == exp.entity_id, context
        assert act.score == exp.score, context
        assert act.predicate_degrees == exp.predicate_degrees, context
        assert act.row == exp.row, context


def _assert_matches_oracle(database, sqls, config="default", top_k=None):
    oracle = SubjectiveQueryProcessor(database)
    engine = _engine(database, config)
    for sql in sqls:
        expected = oracle.execute(sql, top_k=top_k)
        _assert_identical_results(
            expected, engine.execute(sql, top_k=top_k), context=f"{sql!r} {config}"
        )
        # Warm (fully cached) executions must agree too.
        _assert_identical_results(
            expected, engine.execute(sql, top_k=top_k), context=f"warm {sql!r}"
        )
    return engine


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS))
    def test_hotels_rankings_identical(self, hotel_database, config):
        _assert_matches_oracle(hotel_database, HOTEL_QUERIES, config)

    @pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS))
    def test_restaurants_rankings_identical(self, restaurant_database, config):
        _assert_matches_oracle(restaurant_database, RESTAURANT_QUERIES, config)

    def test_small_chunk_really_prunes(self, hotel_database):
        """The forced configuration exercises the pruned scan, not only exactness."""
        engine = _assert_matches_oracle(
            hotel_database, HOTEL_QUERIES[:3], "pruned-small-chunk"
        )
        assert engine.entities_pruned > 0

    def test_retrieval_fallback_is_exercised(self, hotel_database):
        """The gibberish predicate really takes the BM25 fallback path."""
        engine = _assert_matches_oracle(hotel_database, HOTEL_QUERIES[-1:])
        plan = engine.plan(HOTEL_QUERIES[-1])
        assert (
            plan.interpretations[FALLBACK_PREDICATE].method
            is InterpretationMethod.TEXT_RETRIEVAL
        )

    @pytest.mark.parametrize("top_k", [0, 1, 1000])
    def test_top_k_edge_cases(self, hotel_database, top_k):
        """``top_k`` of 0 (falls back to the default), 1, and far above E."""
        sql = 'select * from Entities where "clean room" and "friendly staff"'
        for config in ENGINE_CONFIGS:
            _assert_matches_oracle(hotel_database, [sql], config, top_k=top_k)

    def test_run_batch_identical(self, hotel_database):
        oracle = SubjectiveQueryProcessor(hotel_database)
        batch = _engine(hotel_database).run_batch(HOTEL_QUERIES)
        assert len(batch) == len(HOTEL_QUERIES)
        for sql, actual in zip(HOTEL_QUERIES, batch.results):
            _assert_identical_results(oracle.execute(sql), actual, context=sql)

    def test_array_logic_fallback_identical(self, hotel_database):
        """A logic without array connectives ranks through the scalar path."""
        processor = SubjectiveQueryProcessor(hotel_database)
        processor.logic.supports_arrays = False  # instance-level override
        engine = SubjectiveQueryEngine(processor=processor)
        oracle = SubjectiveQueryProcessor(hotel_database)
        for sql in HOTEL_QUERIES:
            _assert_identical_results(oracle.execute(sql), engine.execute(sql), context=sql)

    def test_custom_processor_is_honoured(self, hotel_database):
        """The engine ranks with the wrapped processor's logic and default top-k."""
        processor = SubjectiveQueryProcessor(hotel_database, logic=ZadehLogic(), top_k=3)
        oracle = SubjectiveQueryProcessor(hotel_database, logic=ZadehLogic(), top_k=3)
        engine = SubjectiveQueryEngine(processor=processor)
        engine.prune_chunk_size = 2
        sqls = [sql.rsplit(" limit ", 1)[0] for sql in HOTEL_QUERIES]
        for sql in sqls:
            expected = oracle.execute(sql)
            assert len(expected.entities) == 3
            _assert_identical_results(expected, engine.execute(sql), context=sql)


class TestLimitEdgeCases:
    WHERE = 'select * from Entities where "clean room" and "friendly staff"'

    def test_limit_zero_returns_no_rows(self, hotel_database):
        sql = f"{self.WHERE} limit 0"
        assert SubjectiveQueryProcessor(hotel_database).execute(sql).entities == []
        for config in ENGINE_CONFIGS:
            engine = _engine(hotel_database, config)
            assert engine.execute(sql).entities == [], config
            assert engine.execute(sql, top_k=5).entities == [], config

    def test_huge_limit_returns_every_row(self, hotel_database):
        sql = f"{self.WHERE} limit {sys.maxsize}"
        num_entities = len(hotel_database.entity_ids())
        for config in ENGINE_CONFIGS:
            engine = _assert_matches_oracle(hotel_database, [sql], config)
            assert len(engine.execute(sql).entities) == num_entities

    @pytest.mark.parametrize(
        "limit", ["2.7", "2.0", "99999999999999999999999", str(sys.maxsize + 1)]
    )
    def test_invalid_limit_is_parse_error(self, hotel_database, limit):
        sql = f"{self.WHERE} limit {limit}"
        with pytest.raises(ParseError):
            SubjectiveQueryProcessor(hotel_database).execute(sql)
        with pytest.raises(ParseError):
            _engine(hotel_database).execute(sql)


# ---------------------------------------------------------------------------
# A small mutable database (the session fixtures must stay read-only)
# ---------------------------------------------------------------------------

MARKERS = [Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)]


def build_mutable_database(num_entities: int = 9) -> SubjectiveDatabase:
    attribute = SubjectiveAttribute(name="room_cleanliness", markers=list(MARKERS))
    # Variations in the linguistic domain make "clean room"/"dirty room"
    # interpretable through the word2vec method (not the BM25 fallback).
    attribute.domain.add_many(["clean room", "dirty room"])
    schema = SubjectiveSchema(
        name="hotels",
        entity_key="hotelname",
        objective_attributes=[
            ObjectiveAttribute("city", ColumnType.TEXT),
            ObjectiveAttribute("price_pn", ColumnType.FLOAT),
        ],
        subjective_attributes=[attribute],
    )
    database = SubjectiveDatabase(schema, embedding_dimension=12)
    texts = [
        "the room was very clean and the staff was friendly",
        "dirty room with a bad smell and rude staff",
        "spotless clean room and a great location",
        "the room was clean and the breakfast was good",
    ]
    review_id = 0
    for index in range(num_entities):
        entity = f"h{index}"
        database.add_entity(
            entity, {"city": "london" if index % 2 else "paris", "price_pn": 100.0 + index}
        )
        for text in texts:
            database.add_review(ReviewRecord(review_id, entity, text))
            review_id += 1
        summary = MarkerSummary("room_cleanliness", list(MARKERS))
        # Entities 0-2 share one summary, so their degrees tie exactly and
        # rankings exercise the deterministic (-score, str(id)) tie-break.
        tier = min(index, 3)
        summary.add_phrase("clean" if tier % 2 else "dirty", sentiment=0.4 if tier % 2 else -0.4)
        summary.add_phrase("clean", sentiment=0.1 * tier)
        database.store_summary(entity, summary)
    database.set_variation_marker("room_cleanliness", "clean room", "clean")
    database.set_variation_marker("room_cleanliness", "dirty room", "dirty")
    database.fit_text_models()
    return database


INGEST_QUERY = 'select * from Entities where "clean room" limit 6'


class _IngestingBatch(list):
    """A query batch whose iteration ingests new data between two queries.

    ``run_batch`` iterates its input sequence lazily, so yielding triggers
    the ingest exactly between the first and second ``execute`` — the
    mid-batch ``data_version`` bump of the regression test.
    """

    def __init__(self, sqls, ingest):
        super().__init__(sqls)
        self._ingest = ingest

    def __iter__(self):
        for index, sql in enumerate(super().__iter__()):
            if index == 1:
                self._ingest()
            yield sql


class TestTieBreaking:
    @pytest.mark.parametrize("config", sorted(ENGINE_CONFIGS))
    def test_tied_scores_rank_identically(self, config):
        database = build_mutable_database()
        _assert_matches_oracle(
            database,
            [INGEST_QUERY, 'select * from Entities where "clean room" limit 9'],
            config,
        )


class TestInterleavedIngest:
    def test_mid_batch_ingest_drops_engine_state_together(self):
        """A ``data_version`` bump mid-``run_batch`` leaves no stale degrees."""
        database = build_mutable_database()
        engine = SubjectiveQueryEngine(database=database)
        store = engine.processor.columnar_store
        version_before = database.data_version

        # Prime every cache and the columns with pre-ingest state.  The
        # query must read marker summaries (not the BM25 fallback) or the
        # ingest below could not change its degrees.
        stale = engine.execute(INGEST_QUERY)
        plan = engine.plan(INGEST_QUERY)
        assert all(
            interpretation.method is not InterpretationMethod.TEXT_RETRIEVAL
            for interpretation in plan.interpretations.values()
        )
        assert store.stats_snapshot()["data_version"] == version_before
        assert len(engine.membership_cache) > 0

        def ingest():
            # Flip every entity's summary so all pre-ingest degrees are wrong.
            for index, entity in enumerate(sorted(database.entity_ids())):
                summary = MarkerSummary("room_cleanliness", list(MARKERS))
                summary.add_phrase(
                    "dirty" if index % 2 else "clean", sentiment=-0.6 if index % 2 else 0.6
                )
                database.store_summary(entity, summary)

        batch = engine.run_batch(_IngestingBatch([INGEST_QUERY, INGEST_QUERY], ingest))
        assert database.data_version > version_before

        # Columns and every cache were dropped together on the version bump.
        assert store.stats_snapshot()["data_version"] == database.data_version
        assert engine.stats.invalidations >= 1

        # The post-ingest result equals the oracle over the new data...
        fresh = SubjectiveQueryProcessor(database).execute(INGEST_QUERY)
        _assert_identical_results(fresh, batch.results[1])
        # ... and genuinely differs from the pre-ingest ranking, so a stale
        # survivor could not have passed the check above by accident.
        stale_degrees = [entity.predicate_degrees for entity in stale.entities]
        fresh_degrees = [entity.predicate_degrees for entity in fresh.entities]
        assert stale_degrees != fresh_degrees

        # No stale degree survives in the membership cache: every cached
        # value equals an uncached recomputation over the new data.
        checker = SubjectiveQueryProcessor(database)
        for key in list(engine.membership_cache.keys()):
            entity_id, attribute, phrase = key
            cached = engine.membership_cache.peek(key)
            if attribute is None:
                recomputed = checker.retrieval_degrees([entity_id], phrase)[0]
            else:
                recomputed = checker.pair_degrees([entity_id], attribute, phrase)[0]
            assert cached == recomputed, key
