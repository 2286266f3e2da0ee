"""The subjective-query serving engine.

:class:`SubjectiveQueryEngine` wraps a :class:`SubjectiveQueryProcessor`
with the amortisation layers a query-serving deployment needs:

* a **plan cache** — an LRU over :func:`normalize_sql` keys holding the
  parsed statement and the predicate interpretations, so repeated (or
  reformatted) queries skip parsing and interpretation entirely;
* a **candidate cache** — objective pre-filter results per plan, so warm
  queries skip the table scan/join/filter;
* a **membership cache** — ``(entity_id, attribute, phrase) → degree`` (and
  ``(entity_id, None, predicate)`` for the text-retrieval fallback), shared
  across all queries touching the same predicate/entity combinations;
* **columnar batch scoring** — uncached degrees are computed for all missing
  entities of a predicate in one :meth:`SubjectiveQueryProcessor.pair_degrees`
  call, which routes through the processor's
  :class:`repro.core.columnar.ColumnarSummaryStore`: a handful of NumPy
  kernel calls over dense per-attribute summary arrays, never
  entity-by-entity Python loops;
* **vectorized ranking** — the WHERE tree is evaluated over whole degree
  vectors through the fuzzy logic's array connectives
  (:func:`repro.serving.sharded.fuzzy_score_arrays`) and the top-k is
  selected by heap (:func:`repro.serving.sharded.merge_shard_topk`);
* **pruned top-k** — selective LIMIT queries over more candidates than one
  scan chunk take a threshold-style scan that dismisses entities whose
  score upper bound cannot reach the running k-th score, without running
  a scoring kernel for them.

The processor's scalar :meth:`~SubjectiveQueryProcessor.rank_candidates`
remains the oracle, and the ranking path for a fuzzy logic without array
connectives.  Every cache snapshots :attr:`SubjectiveDatabase.data_version`;
any ingest (entities, reviews, extractions, summaries, index rebuilds)
moves the version and the next query drops all cached state — including
the columnar store's built column arrays.  Results are therefore always
identical to running the wrapped processor directly — the test suite
asserts equality and the throughput benchmark measures the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from repro.core.database import SubjectiveDatabase
from repro.core.interpreter import InterpretationMethod
from repro.core.processor import QueryResult, RankedEntity, SubjectiveQueryProcessor
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.slowlog import SlowQueryLog, global_slow_query_log
from repro.obs.trace import span
from repro.serving import sharded
from repro.serving.cache import LRUCache
from repro.serving.plans import QueryPlan, normalize_sql
from repro.utils.timing import now

_MISSING = object()


@dataclass(frozen=True)
class CandidateSet:
    """Cached objective pre-filter result plus its derived entity-id views.

    Row → entity-id resolution and deduplication are as data-version-stable
    as the rows themselves, so they are computed once per plan and cached
    together instead of being re-derived on every warm execution.
    """

    rows: list[dict]
    row_entities: list[Hashable]
    unique_ids: list[Hashable]


class ServingStats:
    """Aggregate serving counters (cache counters live on the caches).

    Storage is a set of live :class:`repro.obs.metrics.Counter` cells
    (``*_cell`` attributes) the engine registers in its
    :class:`~repro.obs.MetricsRegistry`.  Attribute reads are plain
    value snapshots; writes (``stats.queries += 1``) land in the
    registered cell — the registry and this legacy view share storage.
    """

    __slots__ = (
        "queries_cell",
        "batch_queries_cell",
        "invalidations_cell",
        "total_seconds_cell",
    )

    def __init__(
        self,
        queries: int = 0,
        batch_queries: int = 0,
        invalidations: int = 0,
        total_seconds: float = 0.0,
    ) -> None:
        self.queries_cell = Counter("queries", value=int(queries))
        self.batch_queries_cell = Counter("batch_queries", value=int(batch_queries))
        self.invalidations_cell = Counter("invalidations", value=int(invalidations))
        self.total_seconds_cell = Counter("total_seconds", value=float(total_seconds))

    @property
    def queries(self) -> int:
        """Queries served through :meth:`SubjectiveQueryEngine.execute`."""
        return int(self.queries_cell)

    @queries.setter
    def queries(self, value: int) -> None:
        self.queries_cell.reset(int(value))

    @property
    def batch_queries(self) -> int:
        """Queries served inside :meth:`SubjectiveQueryEngine.run_batch` calls."""
        return int(self.batch_queries_cell)

    @batch_queries.setter
    def batch_queries(self, value: int) -> None:
        self.batch_queries_cell.reset(int(value))

    @property
    def invalidations(self) -> int:
        """Whole-cache invalidations triggered by ``data_version`` moves."""
        return int(self.invalidations_cell)

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        self.invalidations_cell.reset(int(value))

    @property
    def total_seconds(self) -> float:
        """Total wall-clock seconds spent serving queries."""
        return float(self.total_seconds_cell)

    @total_seconds.setter
    def total_seconds(self, value: float) -> None:
        self.total_seconds_cell.reset(float(value))

    def __repr__(self) -> str:
        return (
            f"ServingStats(queries={self.queries}, batch_queries={self.batch_queries}, "
            f"invalidations={self.invalidations}, total_seconds={self.total_seconds})"
        )

    @property
    def mean_latency(self) -> float:
        """Mean seconds per query served (0.0 before the first query)."""
        if self.queries == 0:
            return 0.0
        return self.total_seconds / self.queries


@dataclass
class BatchResult:
    """Results of one :meth:`SubjectiveQueryEngine.run_batch` call."""

    results: list[QueryResult]
    latencies: list[float]
    elapsed_seconds: float
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def queries_per_second(self) -> float:
        """Batch throughput over wall-clock time (0.0 for an empty batch)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.results) / self.elapsed_seconds

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


class SubjectiveQueryEngine:
    """Cached, batched, vectorized serving front end over a subjective database.

    Parameters
    ----------
    database:
        The database to serve; a default processor is built over it.
        Ignored when ``processor`` is given.
    processor:
        An explicitly configured processor to wrap (custom membership
        function, fuzzy logic, thresholds, ...).
    plan_cache_size:
        Maximum cached query plans (normalised-SQL keyed LRU).
    membership_cache_size:
        Maximum cached membership degrees; sized generously by default since
        entries are tiny and recomputation is the dominant query cost.
    candidate_cache_size:
        Maximum cached objective candidate-row lists, keyed per plan.
        Cached rows are shared between results of repeated queries and must
        be treated as read-only by callers.
    prune_topk:
        Bound-based top-k pruning (on by default).  Eligible queries whose
        candidates outnumber the first scan chunk (:attr:`prune_chunk_size`)
        take a threshold-style pruned scan first (:meth:`_rank_pruned`):
        candidates are walked in chunks, each chunk's membership degrees
        are fetched through the store's bounded path with the running k-th
        score as prune threshold, and entities whose score *upper bound*
        cannot reach the threshold are dismissed without ever running a
        scoring kernel.  Survivor scores are bit-identical to the exact
        path (the bound envelope collapses to the exact arithmetic on
        fully-scored rows), so the ranking — scores, degrees, tie-breaks —
        equals the unpruned result exactly.  Any ineligibility (no limit,
        retrieval predicates, duplicate candidate rows, a logic or
        membership function without bound support, an exotic WHERE node)
        falls back to the exact vectorized path for the whole query.
    """

    def __init__(
        self,
        database: SubjectiveDatabase | None = None,
        processor: SubjectiveQueryProcessor | None = None,
        plan_cache_size: int | None = 256,
        membership_cache_size: int | None = 200_000,
        candidate_cache_size: int | None = 64,
        prune_topk: bool = True,
    ) -> None:
        if processor is None:
            if database is None:
                raise ValueError("SubjectiveQueryEngine needs a database or a processor")
            processor = SubjectiveQueryProcessor(database)
        self.processor = processor
        self.database = processor.database
        self.prune_topk = prune_topk
        # Candidate rows in the *first* bounded-scan chunk; each later
        # chunk is ``prune_chunk_growth`` times larger.  The first chunk
        # stays small so the threshold exists almost immediately; the
        # geometric growth keeps the per-chunk fixed cost logarithmic in
        # the candidate count.  At or below one chunk no threshold exists
        # before the scan ends, so nothing could be pruned and the exact
        # vectorized path is cheaper.
        self.prune_chunk_size = 128
        self.prune_chunk_growth = 4
        self.plan_cache = LRUCache(plan_cache_size)
        self.membership_cache = LRUCache(membership_cache_size)
        self.candidate_cache = LRUCache(candidate_cache_size)
        self.stats = ServingStats()
        # One registry per engine: every serving counter below is (or is
        # viewed by) an instrument in it, and the legacy dict-returning
        # APIs (_cache_counters, stats_snapshot) are thin views over the
        # same cells.
        self.metrics = MetricsRegistry()
        self.metrics.register("queries", self.stats.queries_cell)
        self.metrics.register("batch_queries", self.stats.batch_queries_cell)
        self.metrics.register("invalidations", self.stats.invalidations_cell)
        self.metrics.register("total_seconds", self.stats.total_seconds_cell)
        for name, cache in (
            ("plan_cache", self.plan_cache),
            ("candidate_cache", self.candidate_cache),
            ("membership_cache", self.membership_cache),
        ):
            self.metrics.register(f"{name}_hits", cache.stats.hits_cell)
            self.metrics.register(f"{name}_misses", cache.stats.misses_cell)
            self.metrics.register(f"{name}_evictions", cache.stats.evictions_cell)
        self.latency_histogram = self.metrics.histogram(
            "query_latency_seconds", help="Per-query serving latency"
        )
        # The counter family the bound-based top-k planner reports at every
        # layer: entities scored exactly by a kernel vs. entities dismissed
        # on a bound alone.  Exposed as properties over registry cells so
        # harness code that assigns ``engine.entities_scored = 0`` resets
        # the registered cell instead of orphaning it.
        self._entities_scored_cell = self.metrics.counter("entities_scored")
        self._entities_pruned_cell = self.metrics.counter("entities_pruned")
        self.slow_query_log: SlowQueryLog = global_slow_query_log()
        self._data_version = self.database.data_version

    # ----------------------------------------------------- pruning counters
    @property
    def entities_scored(self) -> int:
        """Entities scored exactly by a kernel (reads the registry cell)."""
        return int(self._entities_scored_cell)

    @entities_scored.setter
    def entities_scored(self, value: int) -> None:
        self._entities_scored_cell.reset(int(value))

    @property
    def entities_pruned(self) -> int:
        """Entities dismissed on a bound alone (reads the registry cell)."""
        return int(self._entities_pruned_cell)

    @entities_pruned.setter
    def entities_pruned(self, value: int) -> None:
        self._entities_pruned_cell.reset(int(value))

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release node resources held by the engine.

        The in-process engine holds none, so this is a no-op; the cluster
        engine shuts its node fleet down here.  Always idempotent, so
        ``finally: engine.close()`` (or the context-manager form) is safe
        for every engine flavour.
        """

    def __enter__(self) -> "SubjectiveQueryEngine":
        """Enter a ``with`` block; the engine closes itself on exit."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Close the engine when the ``with`` block exits."""
        self.close()

    # ------------------------------------------------------------ invalidation
    def invalidate(self) -> None:
        """Drop every cache (called automatically when the database changes)."""
        self.plan_cache.clear()
        self.membership_cache.clear()
        self.candidate_cache.clear()
        self.processor.interpreter.invalidate()
        if self.processor.columnar_store is not None:
            self.processor.columnar_store.invalidate()
        self.stats.invalidations += 1
        self._data_version = self.database.data_version

    def _check_data_version(self) -> None:
        if self.database.data_version != self._data_version:
            self.invalidate()

    # ------------------------------------------------------------------ plans
    def plan(self, sql: str) -> QueryPlan:
        """The cached (or freshly built) plan for one SQL string."""
        self._check_data_version()
        key = normalize_sql(sql)
        plan = self.plan_cache.get(key)
        if plan is not None and plan.data_version != self._data_version:
            # Defensive: a plan that survived an invalidation is stale.
            plan = None
        if plan is None:
            statement = self.processor.prepare_statement(sql)
            interpretations = self.processor.interpret_predicates(statement)
            plan = QueryPlan(
                normalized_sql=key,
                statement=statement,
                interpretations=interpretations,
                data_version=self._data_version,
            )
            self.plan_cache.put(key, plan)
        return plan

    # -------------------------------------------------------------- execution
    def execute(self, sql: str, top_k: int | None = None) -> QueryResult:
        """Serve one query through the caches; identical to processor output.

        When tracing is enabled (:func:`repro.obs.enable_tracing`) the
        query runs under a ``query`` span with ``plan`` / ``candidates``
        / ``score`` child spans — remote fan-out performed inside the
        score stage stamps its frames with that span's context.  Queries
        at or above the slow-query threshold are captured into
        :attr:`slow_query_log` with their span tree and pruning deltas.
        """
        self._check_data_version()
        slow_threshold = self.slow_query_log.threshold_seconds
        scored_before = pruned_before = 0
        if slow_threshold is not None:
            scored_before = int(self._entities_scored_cell)
            pruned_before = int(self._entities_pruned_cell)
        started = now()
        with span("query", sql=sql) as handle:
            with span("plan"):
                plan = self.plan(sql)
            with span("candidates"):
                candidates = self._candidate_rows(plan)
            with span("score"):
                result = self._rank(plan, candidates, sql=sql, top_k=top_k)
        elapsed = now() - started
        self.stats.queries += 1
        self.stats.total_seconds += elapsed
        self.latency_histogram.observe(elapsed)
        if slow_threshold is not None and elapsed >= slow_threshold:
            self.slow_query_log.maybe_record(
                sql=sql,
                seconds=elapsed,
                trace_id=handle.context.trace_id if handle is not None else 0,
                entities_scored=int(self._entities_scored_cell) - scored_before,
                entities_pruned=int(self._entities_pruned_cell) - pruned_before,
            )
        return result

    def run_batch(self, sqls: Sequence[str], top_k: int | None = None) -> BatchResult:
        """Execute many queries with shared plans, candidates and degrees.

        Sharing happens through the caches: the first query touching a
        (predicate, entity) combination pays for its batch scoring, every
        later query in the batch reuses the degrees.  Returns the ranked
        results in input order plus per-query latencies and the cache
        activity the batch generated.
        """
        self._check_data_version()
        before = self._cache_counters()
        results: list[QueryResult] = []
        latencies: list[float] = []
        started = now()
        for sql in sqls:
            query_started = now()
            results.append(self.execute(sql, top_k=top_k))
            latencies.append(now() - query_started)
        elapsed = now() - started
        self.stats.batch_queries += len(results)
        after = self._cache_counters()
        delta = {name: after[name] - before[name] for name in after}
        return BatchResult(
            results=results,
            latencies=latencies,
            elapsed_seconds=elapsed,
            cache_stats=delta,
        )

    # -------------------------------------------------------------- internals
    def _candidate_rows(self, plan: QueryPlan) -> CandidateSet:
        candidates = self.candidate_cache.get(plan.normalized_sql)
        if candidates is None:
            rows = self.processor.candidate_rows(plan.statement)
            row_entities = self.processor.entity_ids_of(rows, plan.statement.alias)
            candidates = CandidateSet(
                rows=rows,
                row_entities=row_entities,
                unique_ids=list(dict.fromkeys(row_entities)),
            )
            self.candidate_cache.put(plan.normalized_sql, candidates)
        return candidates

    # ---------------------------------------------------------------- ranking
    def _rank(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        sql: str,
        top_k: int | None,
    ) -> QueryResult:
        if not getattr(self.processor.logic, "supports_arrays", False):
            # No array connectives: the processor's scalar ranking over
            # cached degrees.
            degree_table: dict[str, dict[Hashable, float]] = {}
            for predicate, interpretation in plan.interpretations.items():
                degrees = self.processor.interpretation_degrees(
                    candidates.unique_ids,
                    interpretation,
                    pair_scorer=self._cached_pair_degrees,
                    retrieval_scorer=self._cached_retrieval_degrees,
                )
                degree_table[predicate] = dict(zip(candidates.unique_ids, degrees))
            return self._rank_scalar(plan, candidates, degree_table, sql=sql, top_k=top_k)
        if self.prune_topk and self._prune_enabled():
            pruned = self._rank_pruned(plan, candidates, sql=sql, top_k=top_k)
            if pruned is not None:
                return pruned
        unique_degrees = {
            predicate: self._interpretation_degree_vector(candidates.unique_ids, interpretation)
            for predicate, interpretation in plan.interpretations.items()
        }
        result = self._rank_vectorized(plan, candidates, unique_degrees, sql=sql, top_k=top_k)
        if result is not None:
            return result
        # A WHERE node the array walk cannot serve: scalar ranking over the
        # same degrees.
        degree_table = {
            predicate: dict(zip(candidates.unique_ids, degrees.tolist()))
            for predicate, degrees in unique_degrees.items()
        }
        return self._rank_scalar(plan, candidates, degree_table, sql=sql, top_k=top_k)

    def _rank_scalar(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        degree_table: dict[str, dict[Hashable, float]],
        sql: str,
        top_k: int | None,
    ) -> QueryResult:
        return self.processor.rank_candidates(
            plan.statement,
            candidates.rows,
            plan.interpretations,
            degree_table=degree_table,
            sql=sql,
            top_k=top_k,
            row_entities=candidates.row_entities,
        )

    def _interpretation_degree_vector(
        self, unique_ids: Sequence[Hashable], interpretation
    ) -> np.ndarray:
        """Cached degrees of one interpreted predicate as a vector.

        Mirrors :meth:`SubjectiveQueryProcessor.interpretation_degrees`
        with the per-entity scalar combinator replaced by the fuzzy logic's
        array connectives — the same left-to-right fold over per-pair
        degree vectors, so every element is bit-identical to the scalar
        combination (the differential suite pins this).
        """
        if (
            interpretation.method is InterpretationMethod.TEXT_RETRIEVAL
            or not interpretation.pairs
        ):
            return np.asarray(
                self._cached_retrieval_degrees(unique_ids, interpretation.predicate),
                dtype=float,
            )
        per_pair = [
            np.asarray(
                self._cached_pair_degrees(
                    unique_ids,
                    pair.attribute,
                    self.processor.phrase_for_pair(interpretation, pair.marker),
                ),
                dtype=float,
            )
            for pair in interpretation.pairs
        ]
        logic = self.processor.logic
        combine = (
            logic.conjunction_arrays
            if interpretation.combinator == "and"
            else logic.disjunction_arrays
        )
        return combine(per_pair)

    def _rank_vectorized(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        unique_degrees: dict[str, np.ndarray],
        sql: str,
        top_k: int | None,
    ) -> QueryResult | None:
        """Exact ranking over degree vectors; ``None`` when the tree has no array form."""
        statement = plan.statement
        rows = candidates.rows
        row_entities = candidates.row_entities
        if len(row_entities) == len(candidates.unique_ids):
            # No duplicate entities (the common, join-free case):
            # row_entities equals unique_ids element for element, so the
            # per-unique vectors already are the per-row vectors.
            degree_vectors = unique_degrees
        else:
            unique_index = {
                entity_id: position for position, entity_id in enumerate(candidates.unique_ids)
            }
            row_positions = np.fromiter(
                (unique_index[entity_id] for entity_id in row_entities),
                dtype=np.intp,
                count=len(row_entities),
            )
            degree_vectors = {
                predicate: degrees[row_positions] for predicate, degrees in unique_degrees.items()
            }
        scores = sharded.fuzzy_score_arrays(
            statement.where, rows, degree_vectors, self.processor.logic
        )
        if scores is None:
            return None
        limit = self.processor.result_limit(statement, top_k)
        with span("merge", rows=len(row_entities)):
            selected = sharded.merge_shard_topk(scores, row_entities, 1, limit)
        entities = [
            RankedEntity(
                entity_id=row_entities[index],
                score=float(scores[index]),
                row=rows[index],
                predicate_degrees={
                    predicate: float(vector[index]) for predicate, vector in degree_vectors.items()
                },
            )
            for index in selected
        ]
        return QueryResult(sql=sql, entities=entities, interpretations=plan.interpretations)

    # -------------------------------------------------- bound-based pruning
    def _prune_enabled(self) -> bool:
        """Whether the pruned path may run right now (hook for subclasses).

        The cluster engine returns ``False`` while a concurrent batch is in
        flight — its prefetch pipeline already computes full exact vectors,
        so a threshold scan would only duplicate work.
        """
        return True

    def _rank_pruned(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        sql: str,
        top_k: int | None,
    ) -> QueryResult | None:
        """Threshold-style pruned ranking; ``None`` when the query is ineligible.

        Candidates are scanned in chunks.  For each chunk the heap's
        running k-th score is the prune threshold ``T``: membership degrees
        are fetched through the store's bounded path (which skips kernels
        for rows whose degree upper bound is below the per-predicate
        threshold), rows whose AND-path predicate bound falls below ``T``
        are dropped from the remaining fetches, and rows whose final score
        upper bound is below ``T`` never reach the heap.  Every row that
        survives all of this has exclusively exact degrees, so its folded
        upper bound *is* its exact score — survivors are pushed without any
        second scoring pass, and the result is bit-identical to the
        unpruned ranking.
        """
        statement = plan.statement
        where = statement.where
        limit = self.processor.result_limit(statement, top_k)
        row_entities = candidates.row_entities
        if limit < 1 or where is None:
            return None
        if len(row_entities) <= self.prune_chunk_size:
            return None  # one chunk: no threshold exists before the scan ends
        if len(row_entities) != len(candidates.unique_ids):
            return None  # duplicate entities (joins): row remap not worth bounding
        if len(row_entities) <= limit:
            return None  # every candidate is kept; nothing to prune
        logic = self.processor.logic
        if not getattr(logic, "supports_bounds", False):
            return None
        if not self.processor.use_markers or not self.processor.use_columnar:
            return None
        store = self.processor.columnar_store
        if store is None or not hasattr(store, "pair_degrees_bounded"):
            return None
        for interpretation in plan.interpretations.values():
            if (
                interpretation.method is InterpretationMethod.TEXT_RETRIEVAL
                or not interpretation.pairs
            ):
                return None  # retrieval degrees have no bound form
        if not sharded.bounds_tree_supported(where, set(plan.interpretations)):
            return None
        and_path = sharded.and_path_predicates(where)
        # AND-path predicates first: their bounds both narrow the alive set
        # and let the store skip kernel work, so they should see the threshold
        # before any unboundable work happens.
        ordered = sorted(
            (
                (text, interpretation, text in and_path)
                for text, interpretation in plan.interpretations.items()
            ),
            key=lambda entry: not entry[2],
        )
        rows = candidates.rows
        heap = sharded.TopKThreshold(limit)
        screen = getattr(store, "pair_degree_envelope", None)
        membership = self.processor.membership
        # Vectorized pre-screen out of the store's cached envelope: the
        # conjunction of the eligible AND-path predicate bounds caps the
        # query score under any t-norm, so it both *orders* the scan
        # (descending bound — the threshold-algorithm order, which fills
        # the heap with the likeliest winners first) and provides a sorted
        # stop condition: once the head of the remainder is below the k-th
        # score, no remaining candidate can qualify.  Rows dropped here
        # never cost any per-entity cache traffic.  The cluster store has
        # no local envelope access; it skips this and instead ships the
        # threshold to the nodes.
        scan_bound: np.ndarray | None = None
        if screen is not None:
            cap_vectors: list[np.ndarray] = []
            for _text, interpretation, on_and_path in ordered:
                if not on_and_path:
                    break  # AND-path entries sort first
                if (
                    interpretation.combinator != "and"
                    and len(interpretation.pairs) > 1
                ):
                    continue
                pair_highs = []
                for pair in interpretation.pairs:
                    envelope = screen(
                        membership,
                        row_entities,
                        pair.attribute,
                        self.processor.phrase_for_pair(interpretation, pair.marker),
                    )
                    if envelope is None:
                        pair_highs = None
                        break
                    pair_highs.append(envelope[1])
                if pair_highs:
                    cap_vectors.extend(pair_highs)
            if cap_vectors:
                scan_bound = (
                    logic.conjunction_arrays(cap_vectors)
                    if len(cap_vectors) > 1
                    else cap_vectors[0]
                )
        if scan_bound is not None:
            order = np.argsort(-scan_bound, kind="stable")
            scan_bound = scan_bound[order]
            scan_positions = order.tolist()
            scan_ids = [row_entities[position] for position in scan_positions]
            scan_rows = [rows[position] for position in scan_positions]
        else:
            scan_positions = None
            scan_ids, scan_rows = row_entities, rows
        total = len(row_entities)
        chunk_size = max(1, self.prune_chunk_size)
        chunk_start = 0
        while chunk_start < total:
            threshold = heap.threshold
            prune_threshold = threshold if threshold is not None else 0.0
            if (
                threshold is not None
                and scan_bound is not None
                and scan_bound[chunk_start] < prune_threshold
            ):
                # Descending bound order: everything from here on is
                # provably below the k-th score.
                self.entities_pruned += total - chunk_start
                break
            chunk_stop = min(chunk_start + chunk_size, total)
            chunk_ids = scan_ids[chunk_start:chunk_stop]
            chunk_rows = scan_rows[chunk_start:chunk_stop]
            size = chunk_stop - chunk_start
            alive = np.ones(size, dtype=bool)
            if threshold is not None and scan_bound is not None:
                alive = scan_bound[chunk_start:chunk_stop] >= prune_threshold
                dropped = size - int(np.count_nonzero(alive))
                if dropped:
                    self.entities_pruned += dropped
            bound_vectors: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            for text, interpretation, on_and_path in ordered:
                alive_index = np.flatnonzero(alive)
                if alive_index.size == 0:
                    break
                alive_ids = [chunk_ids[position] for position in alive_index]
                # A pair-level threshold is sound only when the pair value
                # caps the predicate (t-norm combination, or a single pair)
                # *and* the predicate caps the query (AND path).
                pair_threshold = (
                    prune_threshold
                    if on_and_path
                    and (
                        interpretation.combinator == "and"
                        or len(interpretation.pairs) == 1
                    )
                    else 0.0
                )
                pair_lows: list[np.ndarray] = []
                pair_highs: list[np.ndarray] = []
                for pair in interpretation.pairs:
                    fetched = self._bounded_cached_pair_degrees(
                        alive_ids,
                        pair.attribute,
                        self.processor.phrase_for_pair(interpretation, pair.marker),
                        pair_threshold,
                    )
                    if fetched is None:
                        return None  # no bound support after all: full path
                    values, exact = fetched
                    hi = np.asarray(values, dtype=float)
                    pair_highs.append(hi)
                    pair_lows.append(np.where(exact, hi, 0.0))
                combine = (
                    logic.conjunction_arrays
                    if interpretation.combinator == "and"
                    else logic.disjunction_arrays
                )
                predicate_lo = combine(pair_lows)
                predicate_hi = combine(pair_highs)
                # Scatter into chunk-wide vectors; dead rows keep the
                # universally sound [0, 1] default (their values are never
                # read back — they cannot re-enter the alive set).
                lo_full = np.zeros(size)
                hi_full = np.ones(size)
                lo_full[alive_index] = predicate_lo
                hi_full[alive_index] = predicate_hi
                bound_vectors[text] = (lo_full, hi_full)
                if on_and_path:
                    # Under a t-norm the query score cannot exceed this
                    # predicate, so rows whose cap is already below the
                    # k-th score are out — skip them in later fetches.
                    alive[alive_index] = predicate_hi >= prune_threshold
            if alive.any():
                envelope = sharded.fuzzy_bound_arrays(
                    where, chunk_rows, bound_vectors, logic, prune_below=threshold
                )
                if envelope is None:
                    return None
                _lo_env, hi_env = envelope
                for position in np.flatnonzero(alive & (hi_env >= prune_threshold)):
                    index = int(position)
                    score = float(hi_env[index])
                    heap.offer(
                        score,
                        chunk_ids[index],
                        # The tie-break key is the *original* candidate
                        # position, so the ranking is identical however the
                        # scan happens to be ordered.
                        scan_positions[chunk_start + index]
                        if scan_positions is not None
                        else chunk_start + index,
                        payload=RankedEntity(
                            entity_id=chunk_ids[index],
                            score=score,
                            row=chunk_rows[index],
                            predicate_degrees={
                                text: float(vectors[1][index])
                                for text, vectors in bound_vectors.items()
                            },
                        ),
                    )
            chunk_start = chunk_stop
            chunk_size *= max(2, self.prune_chunk_growth)
        return QueryResult(
            sql=sql,
            entities=list(heap.selected()),
            interpretations=plan.interpretations,
        )

    # ----------------------------------------------------- cached degrees
    def _cached_degrees(
        self,
        entity_ids: Sequence[Hashable],
        attribute: str | None,
        phrase: str,
        compute,
    ) -> list[float]:
        """Serve degrees from the membership cache, batch-computing the misses."""
        cached = self.membership_cache.get_many(
            [(entity_id, attribute, phrase) for entity_id in entity_ids], _MISSING
        )
        missing = [
            entity_id for entity_id, value in zip(entity_ids, cached) if value is _MISSING
        ]
        if not missing:
            return cached
        computed = compute(missing)
        self.entities_scored += len(missing)
        self.membership_cache.put_many(
            [
                ((entity_id, attribute, phrase), degree)
                for entity_id, degree in zip(missing, computed)
            ]
        )
        filled = iter(computed)
        return [next(filled) if value is _MISSING else value for value in cached]

    def _cached_pair_degrees(
        self,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> list[float]:
        return self._cached_degrees(
            entity_ids,
            attribute,
            phrase,
            lambda missing: self.processor.pair_degrees(missing, attribute, phrase),
        )

    def _cached_retrieval_degrees(
        self,
        entity_ids: Sequence[Hashable],
        predicate: str,
    ) -> list[float]:
        # Text-retrieval degrees have no attribute; None keeps the key space
        # disjoint from pair degrees.
        return self._cached_degrees(
            entity_ids,
            None,
            predicate,
            lambda missing: self.processor.retrieval_degrees(missing, predicate),
        )

    def _bounded_cached_pair_degrees(
        self,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
        threshold: float,
    ) -> tuple[list[float], list[bool]] | None:
        """Membership degrees with per-row exactness, pruned below ``threshold``.

        The bounded twin of :meth:`_cached_pair_degrees`: cache hits are
        exact by construction (only exact degrees are ever cached), misses
        go through the store's bounded path, and of the returned values
        only the exact ones enter the cache — a pruned row's upper bound is
        *not* its degree and must be recomputed if a later query needs it.
        Returns ``(values, exact_flags)`` aligned with ``entity_ids``, or
        ``None`` when the store or membership function cannot bound this
        phrase.
        """
        keys = [(entity_id, attribute, phrase) for entity_id in entity_ids]
        cached = self.membership_cache.get_many(keys, _MISSING)
        missing = [
            entity_id
            for entity_id, value in zip(entity_ids, cached)
            if value is _MISSING
        ]
        if not missing:
            return cached, [True] * len(cached)
        result = self.processor.columnar_store.pair_degrees_bounded(
            self.processor.membership, missing, attribute, phrase, threshold
        )
        if result is None:
            return None
        values, exact_mask, scored, pruned = result
        self.entities_scored += scored
        self.entities_pruned += pruned
        self.membership_cache.put_many(
            [
                ((entity_id, attribute, phrase), float(value))
                for entity_id, value, exact in zip(missing, values, exact_mask)
                if exact
            ]
        )
        filled_values = iter(values)
        filled_exact = iter(exact_mask)
        out_values: list[float] = []
        out_exact: list[bool] = []
        for value in cached:
            if value is _MISSING:
                out_values.append(float(next(filled_values)))
                out_exact.append(bool(next(filled_exact)))
            else:
                out_values.append(value)
                out_exact.append(True)
        return out_values, out_exact

    # ----------------------------------------------------------- statistics
    def _cache_counters(self) -> dict[str, int]:
        # Values are snapshotted to plain ints — the counters are live
        # registry cells, and run_batch subtracts a before-dict from an
        # after-dict (two references to one mutating cell would always
        # subtract to zero).
        return {
            "plan_hits": int(self.plan_cache.stats.hits),
            "plan_misses": int(self.plan_cache.stats.misses),
            "membership_hits": int(self.membership_cache.stats.hits),
            "membership_misses": int(self.membership_cache.stats.misses),
            "candidate_hits": int(self.candidate_cache.stats.hits),
            "candidate_misses": int(self.candidate_cache.stats.misses),
            "entities_scored": int(self._entities_scored_cell),
            "entities_pruned": int(self._entities_pruned_cell),
        }

    def stats_snapshot(self) -> dict[str, object]:
        """One dict with serving counters and per-cache hit statistics.

        A thin plain-value view over the engine's :attr:`metrics`
        registry cells — always ``json.dumps``-safe (the node stats
        handlers and the gateway ship it over the wire verbatim).
        """
        return {
            "queries": int(self.stats.queries),
            "batch_queries": int(self.stats.batch_queries),
            "invalidations": int(self.stats.invalidations),
            "total_seconds": float(self.stats.total_seconds),
            "mean_latency": self.stats.mean_latency,
            "entities_scored": int(self._entities_scored_cell),
            "entities_pruned": int(self._entities_pruned_cell),
            "plan_cache": self.plan_cache.stats.as_dict(),
            "membership_cache": self.membership_cache.stats.as_dict(),
            "candidate_cache": self.candidate_cache.stats.as_dict(),
            "columnar_store": (
                self.processor.columnar_store.stats_snapshot()
                if self.processor.columnar_store is not None
                else None
            ),
        }
