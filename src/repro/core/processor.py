"""The subjective query processor (Figure 4).

Pipeline for one query:

1. parse the subjective SQL (``repro.engine.sqlparser``);
2. evaluate the objective part of the WHERE clause to obtain the candidate
   entities (objective predicates are crisp: 0 or 1);
3. interpret every subjective predicate (``SubjectiveQueryInterpreter``);
4. for each candidate entity, compute the degree of truth of every
   interpreted predicate through the membership function over its marker
   summaries — or through the text-retrieval fallback when the predicate
   could not be interpreted;
5. combine degrees through fuzzy logic following the WHERE expression tree
   (AND → ⊗, OR → ⊕, NOT → 1−x) and rank the entities by the resulting
   score.

The processor can run with either the marker-based membership functions
(the OpineDB default) or the raw-extraction variant (the "no markers"
ablation of Table 7).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.core.columnar import ColumnarSummaryStore
from repro.core.database import SubjectiveDatabase
from repro.core.fuzzy import FuzzyLogic, ProductLogic
from repro.core.interpreter import (
    Interpretation,
    InterpretationMethod,
    SubjectiveQueryInterpreter,
)
from repro.core.membership import (
    HeuristicMembership,
    MembershipFunction,
    RawExtractionMembership,
)
from repro.engine.executor import QueryExecutor, SelectStatement
from repro.engine.sqlparser import parse_query
from repro.errors import ExecutionError

#: Batch scorer signatures (entity ids, attribute/predicate, phrase) -> degrees.
PairScorer = Callable[[Sequence[Hashable], str, str], list[float]]
RetrievalScorer = Callable[[Sequence[Hashable], str], list[float]]


def rank_key(entity: "RankedEntity") -> tuple[float, str]:
    """Deterministic ranking order: score descending, entity id as tie-break.

    This is *the* ordering of query results; the sharded serving engine's
    per-shard heaps and merge use the same key so merged rankings are
    exactly the global ordering.
    """
    return (-entity.score, str(entity.entity_id))


def _top_ranked(ranked: list["RankedEntity"], limit: int) -> list["RankedEntity"]:
    """The ``limit`` best entities in ranking order.

    ``heapq.nsmallest`` is documented to equal ``sorted(...)[:limit]``, so
    the selection matches the previous full sort + slice exactly (including
    the ``(-score, str(entity_id))`` tie-break) while doing O(n log k) work
    when ``limit`` is far below the candidate count.
    """
    if limit < len(ranked):
        return heapq.nsmallest(limit, ranked, key=rank_key)
    ranked.sort(key=rank_key)
    return ranked[:limit]


@dataclass(frozen=True)
class RankedEntity:
    """One entity of a query result with its overall degree of truth."""

    entity_id: Hashable
    score: float
    row: dict
    predicate_degrees: dict[str, float]


@dataclass
class QueryResult:
    """Ranked entities plus the interpretations used to produce them."""

    sql: str
    entities: list[RankedEntity]
    interpretations: dict[str, Interpretation]

    @property
    def entity_ids(self) -> list[Hashable]:
        return [entity.entity_id for entity in self.entities]

    def top(self, k: int) -> list[RankedEntity]:
        return self.entities[:k]

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self):
        return iter(self.entities)


@dataclass
class SubjectiveQueryProcessor:
    """Executes subjective SQL against a :class:`SubjectiveDatabase`.

    Parameters
    ----------
    database:
        The subjective database to query.
    interpreter:
        Predicate interpreter; a default one is constructed lazily.
    membership:
        Membership function mapping (marker summary, phrase) to a degree of
        truth; defaults to the training-free heuristic.
    logic:
        Fuzzy-logic variant for combining degrees (product variant by
        default, as in the paper).
    top_k:
        Default number of entities returned when the query has no LIMIT.
    retrieval_pivot:
        The constant ``c`` of the text-retrieval fallback
        ``sigmoid(BM25(D, q) − c)``.
    use_markers:
        When ``False`` the processor bypasses marker summaries and uses
        ``raw_membership`` (must then be provided) — the Table 7 ablation.
    use_columnar:
        When ``True`` (the default) cold-path scoring routes through a
        :class:`ColumnarSummaryStore`: one vectorized kernel pass per
        predicate over dense per-attribute summary arrays, instead of a
        Python loop over entities.  ``False`` forces the scalar per-entity
        batch path (used as the comparison baseline by tests/benchmarks).
    columnar_store:
        The store backing the columnar path; built lazily over ``database``
        when not supplied.  Sharing one store between processors over the
        same database shares the built column arrays.
    """

    database: SubjectiveDatabase
    interpreter: SubjectiveQueryInterpreter | None = None
    membership: MembershipFunction | None = None
    logic: FuzzyLogic = field(default_factory=ProductLogic)
    top_k: int = 10
    retrieval_pivot: float = 3.0
    use_markers: bool = True
    raw_membership: RawExtractionMembership | None = None
    use_columnar: bool = True
    columnar_store: ColumnarSummaryStore | None = None

    def __post_init__(self) -> None:
        if self.interpreter is None:
            self.interpreter = SubjectiveQueryInterpreter(self.database)
        if self.membership is None:
            self.membership = HeuristicMembership(
                embedder=self.database.phrase_embedder
            )
        if self.use_columnar and self.columnar_store is None:
            self.columnar_store = self.database.columnar_store()
        if not self.use_markers and self.raw_membership is None:
            raise ExecutionError(
                "use_markers=False requires a fitted RawExtractionMembership"
            )

    # ----------------------------------------------------------------- query
    def execute(self, sql: str, top_k: int | None = None) -> QueryResult:
        """Parse and execute a subjective-SQL string."""
        statement = self.prepare_statement(sql)
        return self.execute_statement(statement, top_k=top_k, sql=sql)

    def prepare_statement(self, sql: str) -> SelectStatement:
        """Parse a subjective-SQL string into an entity-targeted statement.

        Parsing and retargeting are deterministic per SQL text, so the result
        can be cached and re-executed (the serving layer's plan cache does
        exactly that).
        """
        return self._retarget(parse_query(sql))

    @staticmethod
    def _retarget(statement: SelectStatement) -> SelectStatement:
        """Point the statement at the entity table (queries may use the schema name)."""
        if statement.table.lower() == "entities":
            return statement
        return SelectStatement(
            table="entities",
            alias=statement.alias,
            columns=statement.columns,
            join=statement.join,
            where=statement.where,
            order_by=statement.order_by,
            limit=statement.limit,
        )

    def candidate_rows(self, statement: SelectStatement) -> list[dict]:
        """Rows surviving the objective (crisp) part of the WHERE clause."""
        executor = QueryExecutor(self.database.engine)
        return executor.candidate_rows(statement)

    def interpret_predicates(self, statement: SelectStatement) -> dict[str, Interpretation]:
        """Interpret every subjective predicate of the statement."""
        return {
            predicate: self.interpreter.interpret(predicate)
            for predicate in statement.subjective_predicates()
        }

    def execute_statement(
        self,
        statement: SelectStatement,
        top_k: int | None = None,
        sql: str = "",
    ) -> QueryResult:
        """Execute an already-parsed statement."""
        statement = self._retarget(statement)
        candidates = self.candidate_rows(statement)
        interpretations = self.interpret_predicates(statement)
        return self.rank_candidates(
            statement, candidates, interpretations, sql=sql, top_k=top_k
        )

    def rank_candidates(
        self,
        statement: SelectStatement,
        candidates: list[dict],
        interpretations: dict[str, Interpretation],
        degree_table: dict[str, dict[Hashable, float]] | None = None,
        sql: str = "",
        top_k: int | None = None,
        row_entities: Sequence[Hashable] | None = None,
    ) -> QueryResult:
        """Rank candidate rows by fuzzy degree of truth.

        ``degree_table`` maps predicate text to per-entity degrees; when not
        supplied it is computed here through the batch primitives
        (:meth:`interpretation_degrees`).  The serving engine passes a table
        filled from its membership cache, so cached and freshly computed
        queries flow through the same ranking code.  ``row_entities`` may
        supply the precomputed entity id of each candidate row (the serving
        engine caches them alongside the rows).
        """
        if row_entities is None:
            row_entities = self.entity_ids_of(candidates, statement.alias)
        if degree_table is None:
            unique_ids = list(dict.fromkeys(row_entities))
            degree_table = {
                predicate: dict(
                    zip(unique_ids, self.interpretation_degrees(unique_ids, interpretation))
                )
                for predicate, interpretation in interpretations.items()
            }

        ranked: list[RankedEntity] = []
        for entity_id, row in zip(row_entities, candidates):
            degrees: dict[str, float] = {}

            def scorer(predicate_text: str, _row: dict, _entity=entity_id, _degrees=degrees) -> float:
                degree = degree_table[predicate_text][_entity]
                _degrees[predicate_text] = degree
                return degree

            if statement.where is None:
                score = 1.0
            else:
                score = statement.where.fuzzy(row, scorer, self.logic)
            ranked.append(
                RankedEntity(
                    entity_id=entity_id,
                    score=score,
                    row=row,
                    predicate_degrees=degrees,
                )
            )
        return QueryResult(
            sql=sql,
            entities=_top_ranked(ranked, self.result_limit(statement, top_k)),
            interpretations=interpretations,
        )

    def result_limit(self, statement: SelectStatement, top_k: int | None = None) -> int:
        """How many ranked entities a query returns.

        An explicit ``LIMIT`` wins, ``LIMIT 0`` included (zero rows);
        without one the caller's ``top_k`` applies, and a missing or zero
        ``top_k`` falls back to the processor's default.
        """
        if statement.limit is not None:
            return statement.limit
        return top_k or self.top_k

    # -------------------------------------------------------------- scoring
    def entity_ids_of(self, rows: Sequence[dict], alias: str | None) -> list[Hashable]:
        """Entity id of each candidate row (rows may repeat an entity after joins)."""
        key_column = self.database.schema.entity_key
        return [self._entity_id_of(row, key_column, alias) for row in rows]

    def _entity_id_of(self, row: dict, key_column: str, alias: str | None) -> Hashable:
        if key_column in row:
            return row[key_column]
        if alias and f"{alias}.{key_column}" in row:
            return row[f"{alias}.{key_column}"]
        raise ExecutionError(f"result row has no entity key column {key_column!r}")

    @staticmethod
    def phrase_for_pair(interpretation: Interpretation, marker: str) -> str:
        """The phrase a membership function scores for one ``A ≐ m`` pair.

        For word2vec interpretations the original predicate text carries the
        user's wording ("really clean") and is the phrase handed to the
        membership function; for co-occurrence interpretations the predicate
        text is only a weak proxy of the attribute, so the marker itself is
        used as the phrase.
        """
        if interpretation.method is InterpretationMethod.WORD2VEC:
            return interpretation.predicate
        return marker

    def pair_degrees(
        self,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
        store: object | None = None,
    ) -> list[float]:
        """Batch primitive: degrees of one ``A ≐ m`` condition for many entities.

        With markers enabled this routes through a columnar store — a
        handful of NumPy kernel calls over dense per-attribute summary
        arrays — falling back to a :meth:`MembershipFunction.degrees` pass
        over per-entity summaries when the store cannot serve the request
        (columnar disabled, membership without a columnar kernel, or an
        attribute with no stored summaries).  The marker-free ablation falls
        back to per-entity raw-extraction scans.

        ``store`` routes one computation through a specific store instead of
        the processor's own — any object with the store's ``pair_degrees``
        protocol works, including
        :class:`repro.serving.cluster.ClusterShardStore`, whose kernels run
        on remote shard nodes.  The cluster serving engine installs its
        store as ``columnar_store`` outright, so every degree the processor
        computes is node-routed; both stores produce exactly the degrees of
        the local path (the kernels are row-independent).
        """
        if not self.use_markers:
            return [
                self.raw_membership.degree_for_attribute(entity_id, attribute, phrase)
                for entity_id in entity_ids
            ]
        store = store if store is not None else self.columnar_store
        if self.use_columnar and store is not None:
            degrees = store.pair_degrees(self.membership, entity_ids, attribute, phrase)
            if degrees is not None:
                return degrees
        summaries = [
            self.database.marker_summary(entity_id, attribute)
            for entity_id in entity_ids
        ]
        return [float(degree) for degree in self.membership.degrees(summaries, phrase)]

    def retrieval_degrees(
        self, entity_ids: Sequence[Hashable], predicate: str
    ) -> list[float]:
        """Batch primitive: text-retrieval fallback degrees for many entities.

        BM25 scores for all candidates — ``sigmoid(BM25(D, q) − c)`` — come
        from one :meth:`repro.text.bm25.Bm25Index.scores` pass (query
        tokenisation and per-term idf computed once, term contributions
        accumulated as array ops); the sigmoid squash stays per-entity
        scalar so values are bit-identical to a per-entity computation.
        """
        index = self.database.entity_index
        if index is None:
            return [0.0 for _ in entity_ids]
        pivot = self.retrieval_pivot
        return [
            1.0 / (1.0 + math.exp(-(score - pivot)))
            for score in index.scores(entity_ids, predicate)
        ]

    def interpretation_degrees(
        self,
        entity_ids: Sequence[Hashable],
        interpretation: Interpretation,
        pair_scorer: PairScorer | None = None,
        retrieval_scorer: RetrievalScorer | None = None,
    ) -> list[float]:
        """Degrees of one interpreted predicate for many entities.

        ``pair_scorer`` / ``retrieval_scorer`` default to the uncached batch
        primitives; the serving engine passes cache-aware wrappers with the
        same signatures, so both paths compute identical values.
        """
        pair_scorer = pair_scorer or self.pair_degrees
        retrieval_scorer = retrieval_scorer or self.retrieval_degrees
        if interpretation.method is InterpretationMethod.TEXT_RETRIEVAL or not interpretation.pairs:
            return retrieval_scorer(entity_ids, interpretation.predicate)
        per_pair = [
            pair_scorer(
                entity_ids,
                pair.attribute,
                self.phrase_for_pair(interpretation, pair.marker),
            )
            for pair in interpretation.pairs
        ]
        combine = (
            self.logic.conjunction
            if interpretation.combinator == "and"
            else self.logic.disjunction
        )
        return [
            combine([degrees[index] for degrees in per_pair])
            for index in range(len(entity_ids))
        ]

    def predicate_degree(self, entity_id: Hashable, interpretation: Interpretation) -> float:
        """Degree of truth of one interpreted predicate for one entity.

        Single-entity convenience over :meth:`interpretation_degrees`.
        """
        return self.interpretation_degrees([entity_id], interpretation)[0]

    def _retrieval_degree(self, entity_id: Hashable, predicate: str) -> float:
        """Single-entity convenience over :meth:`retrieval_degrees`."""
        return self.retrieval_degrees([entity_id], predicate)[0]

    # ------------------------------------------------------------- explain
    def explain(self, result: QueryResult, entity_id: Hashable, limit: int = 3) -> list[str]:
        """Human-readable evidence for why ``entity_id`` matched the query.

        Returns review-sentence snippets (provenance) for each interpreted
        predicate, via the marker summaries' provenance records.
        """
        lines: list[str] = []
        for predicate, interpretation in result.interpretations.items():
            if not interpretation.is_schema_interpretation:
                lines.append(f"{predicate!r}: matched by text retrieval over raw reviews")
                continue
            for pair in interpretation.pairs:
                evidence = self.database.explain(
                    entity_id, pair.attribute, pair.marker, limit=limit
                )
                for record in evidence:
                    lines.append(
                        f"{predicate!r} -> {pair.attribute}.{pair.marker!r}: "
                        f"\"{record.sentence}\""
                    )
        return lines
