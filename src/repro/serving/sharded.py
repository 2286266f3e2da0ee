"""Vectorized ranking primitives: WHERE trees over degree vectors, bounded top-k.

The serving engines rank candidates as whole degree vectors instead of
row by row.  This module holds the pure, engine-independent pieces:

* :func:`partition_bounds` — the one partitioning rule: K contiguous,
  exhaustive, disjoint row ranges whose sizes differ by at most one (the
  cluster's slice placement and the per-shard top-k merge both use it);
* :func:`fuzzy_score_arrays` — the WHERE tree evaluated over degree
  *vectors* instead of row by row, using the fuzzy logic's array
  connectives (bit-identical elementwise to the scalar walk);
* :func:`fuzzy_bound_arrays` — the interval mirror of that walk: a
  ``[lo, hi]`` score envelope per row from per-predicate degree bounds,
  which is what lets the pruned top-k scan dismiss rows unscored;
* :func:`merge_shard_topk` — per-partition top-k heaps merged into the
  global ranking under exactly the processor's ``(-score,
  str(entity_id))`` order with candidate position as the deterministic
  tie-break (the stable-sort order of the scalar path);
* :class:`TopKThreshold` — the streaming top-k heap publishing the running
  k-th score as a prune threshold.

:class:`~repro.serving.engine.SubjectiveQueryEngine` wires these together;
results are exactly — not approximately — those of the scalar
:meth:`~repro.core.processor.SubjectiveQueryProcessor.rank_candidates`
oracle, which the differential and property suites pin.
"""

from __future__ import annotations

import heapq
import os
from itertools import islice
from typing import Hashable, Sequence

import numpy as np

from repro.core.fuzzy import FuzzyLogic
from repro.engine.expressions import (
    AndExpression,
    BetweenExpression,
    ComparisonExpression,
    Expression,
    InExpression,
    NotExpression,
    OrExpression,
    SubjectivePredicate,
)


# --------------------------------------------------------------------------
# Partitioning rule
# --------------------------------------------------------------------------

def default_num_shards() -> int:
    """A sensible shard count for this machine: one per core, at least one.

    The default node count of :class:`~repro.serving.cluster.ClusterQueryEngine`
    and :class:`~repro.serving.cluster.ClusterShardStore`.
    """
    return max(1, os.cpu_count() or 1)


def partition_bounds(num_rows: int, num_shards: int) -> list[int]:
    """K+1 monotone bounds splitting ``range(num_rows)`` into K contiguous slices.

    Shard ``i`` owns rows ``[bounds[i], bounds[i+1])``.  The slices are
    disjoint, cover every row exactly once, and differ in size by at most
    one (the first ``num_rows % num_shards`` shards get the extra row).
    Shards beyond ``num_rows`` are empty, never dropped, so shard indexes
    are stable regardless of the row count.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if num_rows < 0:
        raise ValueError(f"num_rows must be non-negative, got {num_rows}")
    base, extra = divmod(num_rows, num_shards)
    bounds = [0]
    for index in range(num_shards):
        bounds.append(bounds[-1] + base + (1 if index < extra else 0))
    return bounds


# --------------------------------------------------------------------------
# Vectorized WHERE-tree scoring
# --------------------------------------------------------------------------

class _NotVectorizable(Exception):
    """Internal: the WHERE tree (or logic) has no exact array form."""


def fuzzy_score_arrays(
    where: Expression | None,
    rows: Sequence[dict],
    degree_vectors: dict[str, np.ndarray],
    logic: FuzzyLogic,
) -> np.ndarray | None:
    """Fuzzy scores of every candidate row, evaluated as degree vectors.

    The WHERE tree is walked once; connectives combine length-N degree
    vectors through the logic's array forms, which fold operands in the
    same order and with the same validation as the scalar connectives — so
    ``result[i]`` is bit-identical to ``where.fuzzy(rows[i], ...)``.
    Objective leaves stay crisp per-row evaluations (exact 0.0/1.0).

    Returns ``None`` when the logic provides no array connectives; callers
    then score row by row through the scalar path.
    """
    if not getattr(logic, "supports_arrays", False):
        return None
    if where is None:
        return np.ones(len(rows))
    try:
        return _eval_array(where, rows, degree_vectors, logic)
    except _NotVectorizable:
        return None


def _eval_array(
    node: Expression,
    rows: Sequence[dict],
    degree_vectors: dict[str, np.ndarray],
    logic: FuzzyLogic,
) -> np.ndarray:
    if isinstance(node, SubjectivePredicate):
        vector = degree_vectors.get(node.text)
        if vector is None:
            raise _NotVectorizable(node.text)
        return vector
    if isinstance(node, AndExpression):
        return logic.conjunction_arrays(
            [_eval_array(operand, rows, degree_vectors, logic) for operand in node.operands]
        )
    if isinstance(node, OrExpression):
        return logic.disjunction_arrays(
            [_eval_array(operand, rows, degree_vectors, logic) for operand in node.operands]
        )
    if isinstance(node, NotExpression):
        return logic.negation_array(_eval_array(node.operand, rows, degree_vectors, logic))
    if isinstance(node, (ComparisonExpression, InExpression, BetweenExpression)):
        # Crisp objective leaf whose ``fuzzy`` is exactly ``1.0 if
        # evaluate(row) else 0.0`` — evaluate once per row without the
        # scalar fuzzy-walk machinery.
        return np.fromiter(
            (1.0 if node.evaluate(row) else 0.0 for row in rows),
            dtype=float,
            count=len(rows),
        )
    # Any other node type (literal, column reference, future nodes):
    # evaluate its scalar fuzzy value row by row.  A per-row scorer keeps
    # unknown nested nodes correct too.
    return np.array(
        [
            node.fuzzy(row, _row_scorer(degree_vectors, index), logic)
            for index, row in enumerate(rows)
        ]
    )


def _row_scorer(degree_vectors: dict[str, np.ndarray], index: int):
    def scorer(predicate_text: str, _row: dict) -> float:
        """Scalar degree of one predicate for the row at ``index``."""
        vector = degree_vectors.get(predicate_text)
        if vector is None:
            raise _NotVectorizable(predicate_text)
        return float(vector[index])

    return scorer


# --------------------------------------------------------------------------
# Interval arithmetic over the WHERE tree (bound-based top-k pruning)
# --------------------------------------------------------------------------

def fuzzy_bound_arrays(
    where: Expression | None,
    rows: Sequence[dict],
    bound_vectors: "dict[str, tuple[np.ndarray, np.ndarray]]",
    logic: FuzzyLogic,
    prune_below: "float | None" = None,
) -> "tuple[np.ndarray, np.ndarray] | None":
    """``[lo, hi]`` envelope of :func:`fuzzy_score_arrays` per candidate row.

    The bound mirror of the vectorized WHERE walk: each subjective
    predicate contributes a ``(lo, hi)`` vector pair instead of one exact
    vector, and the connectives fold the lo and hi ends *separately*
    through the logic's array forms.  Both built-in logics are monotone
    nondecreasing in every operand (``supports_bounds``), so the folded
    ends bracket the exact score; where a predicate's interval is the
    degenerate ``[d, d]`` the folds reproduce the exact arithmetic
    operation for operation, making the envelope collapse to the exact
    score bit for bit.  Negation swaps the ends; crisp objective leaves
    stay exact 0/1 points.

    ``prune_below`` enables the AND short-circuit: while folding a
    conjunction, once every row's running upper bound has dropped below it
    the remaining operands are skipped — a t-norm can only lower the bound
    further, so the partial fold is still a valid upper bound (the lower
    end is relaxed to 0, keeping the interval sound).  The threshold is
    propagated into nested conjunctions only; OR and NOT operands are
    always folded fully.

    Returns ``None`` when the logic lacks array or bound support, or the
    tree holds a node the interval walk cannot bracket.
    """
    if not getattr(logic, "supports_arrays", False):
        return None
    if not getattr(logic, "supports_bounds", False):
        return None
    if where is None:
        ones = np.ones(len(rows))
        return ones, ones.copy()
    try:
        return _eval_bounds(where, rows, bound_vectors, logic, prune_below)
    except _NotVectorizable:
        return None


def _eval_bounds(
    node: Expression,
    rows: Sequence[dict],
    bound_vectors: "dict[str, tuple[np.ndarray, np.ndarray]]",
    logic: FuzzyLogic,
    prune_below: "float | None",
) -> "tuple[np.ndarray, np.ndarray]":
    if isinstance(node, SubjectivePredicate):
        interval = bound_vectors.get(node.text)
        if interval is None:
            raise _NotVectorizable(node.text)
        return interval
    if isinstance(node, AndExpression):
        lows: list[np.ndarray] = []
        highs: list[np.ndarray] = []
        short_circuited = False
        for position, operand in enumerate(node.operands):
            lo, hi = _eval_bounds(operand, rows, bound_vectors, logic, prune_below)
            lows.append(lo)
            highs.append(hi)
            if (
                prune_below is not None
                and position + 1 < len(node.operands)
                and float(np.max(logic.conjunction_arrays(highs), initial=0.0))
                < prune_below
            ):
                short_circuited = True
                break
        hi = logic.conjunction_arrays(highs)
        if short_circuited:
            # The skipped operands could only lower both ends further; 0 is
            # the universally sound floor, and hi stays a valid cap.
            return np.zeros(len(rows)), hi
        return logic.conjunction_arrays(lows), hi
    if isinstance(node, OrExpression):
        intervals = [
            _eval_bounds(operand, rows, bound_vectors, logic, None)
            for operand in node.operands
        ]
        return (
            logic.disjunction_arrays([lo for lo, _hi in intervals]),
            logic.disjunction_arrays([hi for _lo, hi in intervals]),
        )
    if isinstance(node, NotExpression):
        lo, hi = _eval_bounds(node.operand, rows, bound_vectors, logic, None)
        return logic.negation_array(hi), logic.negation_array(lo)
    if isinstance(node, (ComparisonExpression, InExpression, BetweenExpression)):
        crisp = np.fromiter(
            (1.0 if node.evaluate(row) else 0.0 for row in rows),
            dtype=float,
            count=len(rows),
        )
        return crisp, crisp.copy()
    raise _NotVectorizable(type(node).__name__)


def and_path_predicates(where: Expression | None) -> set[str]:
    """Subjective predicates reachable from the root through AND nodes only.

    Under a t-norm the query score can never exceed any single conjunct on
    such a path, so the running k-th score is a valid prune threshold for
    exactly these predicates; everything below an OR or NOT must be scored
    without one.
    """
    found: set[str] = set()

    def walk(node: Expression | None) -> None:
        if isinstance(node, SubjectivePredicate):
            found.add(node.text)
        elif isinstance(node, AndExpression):
            for operand in node.operands:
                walk(operand)

    walk(where)
    return found


def bounds_tree_supported(
    where: Expression | None, known_predicates: "set[str]"
) -> bool:
    """Whether every node of the WHERE tree has an exact interval form.

    The pruned ranking path refuses any tree it cannot bracket *before*
    doing any work, so a query with an exotic node falls back to the full
    path whole instead of mid-scan.
    """
    if where is None:
        return True
    if isinstance(where, SubjectivePredicate):
        return where.text in known_predicates
    if isinstance(where, (AndExpression, OrExpression)):
        return all(
            bounds_tree_supported(operand, known_predicates)
            for operand in where.operands
        )
    if isinstance(where, NotExpression):
        return bounds_tree_supported(where.operand, known_predicates)
    return isinstance(
        where, (ComparisonExpression, InExpression, BetweenExpression)
    )


# --------------------------------------------------------------------------
# Per-shard top-k merge
# --------------------------------------------------------------------------

def merge_shard_topk(
    scores: np.ndarray,
    row_entities: Sequence[Hashable],
    num_shards: int,
    limit: int,
) -> list[int]:
    """Global top-``limit`` candidate indices from per-shard top-k heaps.

    Candidate rows are partitioned into ``num_shards`` contiguous chunks;
    each chunk keeps a heap of its ``limit`` best rows, and the pre-sorted
    per-shard lists are merged lazily.  The key is the processor's ranking
    order — score descending, ``str(entity_id)`` ascending — with the
    global candidate position as final tie-break, which is exactly the
    order a stable global sort produces.  The property-based suite checks
    the merge against global sorting for random degree vectors with ties.
    """
    num_rows = len(row_entities)
    # Clamped so a LIMIT above the candidate count is just "every row".
    limit = min(limit, num_rows)
    if limit <= 0:
        return []
    bounds = partition_bounds(num_rows, num_shards)

    def key(index: int) -> tuple[float, str, int]:
        """The processor's ranking sort key with position tie-break."""
        return (-scores[index], str(row_entities[index]), index)

    shard_heaps = [
        heapq.nsmallest(limit, range(start, stop), key=key)
        for start, stop in zip(bounds, bounds[1:])
        if stop > start
    ]
    return list(islice(heapq.merge(*shard_heaps, key=key), limit))


class _ReverseKey:
    """Max-heap adapter: inverts ``<`` so ``heapq`` keeps the *worst* kept row on top."""

    __slots__ = ("key", "payload")

    def __init__(self, key: tuple, payload: object) -> None:
        self.key = key
        self.payload = payload

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.key < self.key


class TopKThreshold:
    """Incremental top-k under the processor's ranking order, publishing a prune threshold.

    The streaming counterpart of :func:`merge_shard_topk`: rows are offered
    one at a time under the same ``(-score, str(entity_id), index)`` key,
    and once ``limit`` rows are held, :attr:`threshold` exposes the running
    k-th best score.  Any candidate whose score *upper bound* is strictly
    below that threshold can be dismissed unscored — it cannot displace a
    kept row even through the tie-break, because the threshold only rises
    as better rows arrive, so the final k-th score is at least the
    threshold the candidate was compared against.  Rows whose bound equals
    the threshold must still be offered (the string/index tie-break could
    admit them).  The property suite pins ``selected()`` against
    :func:`merge_shard_topk` on random scores with ties.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"limit must be positive, got {limit}")
        self.limit = limit
        self._heap: list[_ReverseKey] = []

    @property
    def threshold(self) -> float | None:
        """The current k-th best score, or ``None`` until ``limit`` rows are held."""
        if len(self._heap) < self.limit:
            return None
        return -self._heap[0].key[0]

    def offer(
        self, score: float, entity_id: Hashable, index: int, payload: object
    ) -> None:
        """Offer one row; kept only while it beats the current k-th row."""
        item = _ReverseKey((-score, str(entity_id), index), payload)
        if len(self._heap) < self.limit:
            heapq.heappush(self._heap, item)
        elif item.key < self._heap[0].key:
            heapq.heapreplace(self._heap, item)

    def selected(self) -> list[object]:
        """Payloads of the kept rows in final ranking order."""
        return [item.payload for item in sorted(self._heap, key=lambda kept: kept.key)]

