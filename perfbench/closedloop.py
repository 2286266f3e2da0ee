"""The closed-loop workloads: paper-mix, cold-scan and ingest-read.

One client in this process sends the next operation only after the
previous one returned.  Only the calls into the program are timed, each
scaled to the reference machine (:class:`harness.Calibrator`), and a run
measures until the scaled calls add up to ``--seconds``, then finishes
the cycle of its operation mix it is in.  Answers are
recorded during the run and compared with the oracle after it: an oracle
working between operations would leave its garbage and its own column
store in this process, and in a trial that slowed cold-scan's measured
queries by about a third.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from harness import (
    Calibrator,
    Oracle,
    calibration_note,
    Tally,
    describe_timing,
    directory_bytes,
    peak_rss_mb,
    percentile,
    result_key,
    run_prep,
    space_amp,
    timed,
)
from layers import CALL_SPANS, PER_LAYER_UNITS, ROOT_SPANS, layer_metrics, self_time_notes
from tracing import SpanRecorder, install_engine_wrappers

#: Set-ups per run; ``setup_s`` is their median.  Workloads whose set-up
#: takes well under a second (``IngestRead``) run more.
SETUPS = 3

MARKER_WORDS = [f"word{index:03d}" for index in range(32)]
CITIES = ("london", "paris", "rome")
#: Query shapes in pool order.  Two thirds scan every entity with two
#: predicates, so the median lies inside that group rather than on the
#: edge between it and the cheaper filtered shapes.  ``and not`` queries
#: return no rows: the crisp pre-filter evaluates ``not`` over the inert
#: ``True`` of a subjective leaf to ``False`` (a defect the oracle shares).
SHAPES = ("and", "or", "and", "or", "and not", "filter")


@dataclass
class Outcome:
    """What one run measured."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    notes: list[str] = field(default_factory=list)


def marker_queries(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct queries over all 32 marker words in four shapes, ``limit 10``.

    The seed only relabels the marker words: shapes follow the fixed
    cycle :data:`SHAPES` and predicate pairs a fixed pattern over a seeded
    permutation, so every seed gives a pool with the same structure (the
    same cache reuse distances and candidate counts) and runs on
    different seeds stay comparable.
    """
    order = [MARKER_WORDS[int(index)] for index in rng.permutation(len(MARKER_WORDS))]
    words = len(order)
    queries = []
    for index in range(count):
        first = order[index % words]
        second = order[(index + words // 2 + index // words) % words]
        shape = SHAPES[index % len(SHAPES)]
        if shape == "and":
            where = f'"{first}" and "{second}"'
        elif shape == "or":
            where = f'"{first}" or "{second}"'
        elif shape == "and not":
            where = f'"{first}" and not "{second}"'
        else:
            city = CITIES[(index // len(SHAPES)) % len(CITIES)]
            where = f"city = '{city}' and price < 200 and \"{first}\""
        queries.append(f"select * from Entities where {where} limit 10")
    return queries


def engine_counters(engine) -> dict[str, float]:
    """The serving engine's public cache and pruning counters."""
    snapshot = engine.stats_snapshot()
    counters = {
        "plan_hits": snapshot["plan_cache"]["hits"],
        "plan_misses": snapshot["plan_cache"]["misses"],
        "membership_hits": snapshot["membership_cache"]["hits"],
        "membership_misses": snapshot["membership_cache"]["misses"],
        "membership_evictions": snapshot["membership_cache"]["evictions"],
        "entities_scored": snapshot["entities_scored"],
        "entities_pruned": snapshot["entities_pruned"],
        "invalidations": snapshot["invalidations"],
    }
    store = snapshot.get("columnar_store") or {}
    counters["mmap_serves"] = store.get("mmap_serves", 0)
    return counters


class ClosedLoop:
    """One workload driven by a single closed-loop client."""

    name = ""
    SETUPS = SETUPS
    #: The traced run alternates untraced and traced windows of this many
    #: operations: one cycle of the workload's operation mix, so both
    #: modes see the same mix.
    WINDOW_STEPS = 1

    def __init__(self, seed: int, work) -> None:
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.tally = Tally()
        #: Measured seconds of calls into the program, as measured and
        #: on the reference machine (see :class:`Calibrator`).
        self.busy = 0.0
        self.scaled_busy = 0.0
        self.query_seconds = 0.0
        self.queries = 0
        #: Query latencies on the reference machine, and as measured.
        self.latencies_ms: list[float] = []
        self.measured_ms: list[float] = []
        self.calibrator = Calibrator()
        #: ``(oracle key, sql, answer)`` of every answered query, in order.
        self.answers: list[tuple[str, str, tuple]] = []
        self.recorder: SpanRecorder | None = None
        self.retired: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------- hooks
    def prepare(self) -> None:
        """Generate every input (untimed)."""

    def setup_once(self) -> float:
        """Build the system from the prepared inputs; seconds to the first correct answer."""
        raise NotImplementedError

    def step(self) -> None:
        """One operation of the closed loop."""
        raise NotImplementedError

    def engines(self) -> list:
        raise NotImplementedError

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {}

    def layer_extras(self, recorder: SpanRecorder, queries: int) -> dict[str, float]:
        return {}

    # ------------------------------------------------------------ shared
    def check(self, oracle: Oracle, sql: str, answer: tuple) -> bool:
        """Compare one recorded answer with the oracle; a mismatch counts as a failure."""
        if answer != oracle.expected(sql):
            self.tally.record("mismatch", sql)
            return False
        self.tally.record("ok")
        return True

    def charge(self, seconds: float) -> float:
        """Count ``seconds`` of measured calls; returns them on the reference machine."""
        scaled = self.calibrator.scaled(seconds)
        self.busy += seconds
        self.scaled_busy += scaled
        return scaled

    def query(self, engine, sql: str, oracle_key: str = "") -> float:
        """One timed query whose answer is kept for :meth:`verify`.

        Returns its latency in seconds on the reference machine, 0 when it failed.
        """
        recorder = self.recorder
        try:
            if recorder is not None:
                recorder.request += 1
                with recorder.span("query"):
                    result, seconds = timed(engine.execute, sql)
            else:
                result, seconds = timed(engine.execute, sql)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.tally.record("error", f"{type(error).__name__}: {error}")
            return 0.0
        scaled = self.charge(seconds)
        self.query_seconds += seconds
        self.queries += 1
        self.latencies_ms.append(scaled * 1000.0)
        self.measured_ms.append(seconds * 1000.0)
        if recorder is not None:
            recorder.add("results", len(result.entities))
        self.answers.append((oracle_key, sql, result_key(result)))
        return scaled

    def verify(self) -> None:
        """Check every recorded answer against the oracle of its database."""
        oracles: dict[str, Oracle] = {}
        for oracle_key, sql, answer in self.answers:
            if oracle_key not in oracles:
                oracles[oracle_key] = Oracle(self.database_of(oracle_key))
            self.check(oracles[oracle_key], sql, answer)

    def database_of(self, oracle_key: str):
        """The database the answers recorded under ``oracle_key`` came from."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Public counters of the current engines plus those of engines retired earlier."""
        totals: dict[str, float] = defaultdict(float, self.retired)
        for engine in self.engines():
            for name, value in engine_counters(engine).items():
                totals[name] += value
        return totals

    # ------------------------------------------------------------ run loop
    def run(self, seconds: float, trace: bool) -> Outcome:
        self.prepare()
        calibrator = self.calibrator
        setup_times, measured_setups = [], []
        for _ in range(self.SETUPS):
            # The previous set-up's system is garbage before the next starts.
            gc.collect()
            calibrator.sample(Calibrator.WINDOW)
            measured = self.setup_once()
            calibrator.sample(Calibrator.WINDOW)
            measured_setups.append(measured)
            setup_times.append(measured * calibrator.speed(2 * Calibrator.WINDOW))
        self.busy = self.scaled_busy = 0.0
        self.queries = 0
        self.latencies_ms, self.measured_ms = [], []
        outcome = Outcome(tally=self.tally)
        # A program that only fails never adds busy time; the wall-clock
        # deadline still ends the run.
        self.deadline = time.monotonic() + 3.0 * seconds + 60.0
        if not trace:
            self._steps_until(seconds)
            peak = peak_rss_mb()
            self.verify()
            outcome.metrics.update(
                {
                    "setup_s": (statistics.median(setup_times), "s"),
                    "query_p50_ms": (statistics.median(self.latencies_ms), "ms"),
                    "query_p95_ms": (percentile(self.latencies_ms, 95.0), "ms"),
                    "qps": (self.queries / self.scaled_busy, "1/s"),
                    "fail_frac": (self.tally.fail_frac, "ratio"),
                    "peak_rss_mb": (peak, "MB"),
                }
            )
            outcome.metrics.update(self.end_to_end())
            outcome.notes.append("query latency: " + describe_timing(self.latencies_ms))
            outcome.notes.append(calibration_note(calibrator, {
                "setup_s": statistics.median(measured_setups),
                "query_p50_ms": statistics.median(self.measured_ms),
                "query_p95_ms": percentile(self.measured_ms, 95.0),
                "qps": self.queries / self.busy,
            }))
            return outcome
        outcome.metrics.update(self._traced(seconds))
        self.verify()
        outcome.notes.extend(self.trace_notes)
        return outcome

    def at_cycle_end(self) -> bool:
        """Whether the last step completed a cycle of the workload's operation mix."""
        return True

    def _steps_until(self, seconds: float) -> None:
        """Steps until ``seconds`` of reference-machine time, ending on a whole cycle.

        Both rules keep the mix of operations a run measures the same on
        a slow machine and a fast one: a run on a slow machine that
        stopped after fixed measured time would end earlier in a pass.
        """
        while time.monotonic() < self.deadline and (
            self.scaled_busy < seconds or not self.at_cycle_end()
        ):
            self.calibrator.due(self.busy)
            self.step()

    def _traced(self, seconds: float) -> dict[str, tuple[float, str]]:
        recorder = SpanRecorder()
        # Overhead compares query time only: writes, saves and session
        # starts fall unevenly into the windows.
        mode_seconds = {False: 0.0, True: 0.0}
        mode_queries = {False: 0, True: 0}
        deltas: dict[str, float] = defaultdict(float)
        traced = False
        while self.busy < seconds and time.monotonic() < self.deadline:
            seconds_before, queries_before = self.query_seconds, self.queries
            if traced:
                before = self.counters()
                for engine in self.engines():
                    install_engine_wrappers(recorder, engine)
                self.recorder = recorder
            for _ in range(self.WINDOW_STEPS):
                self.step()
            if traced:
                self.recorder = None
                recorder.uninstall()
                after = self.counters()
                for name, value in after.items():
                    deltas[name] += value - before.get(name, 0)
            mode_seconds[traced] += self.query_seconds - seconds_before
            mode_queries[traced] += self.queries - queries_before
            traced = not traced
        recorder.write(self.work.keep(f"spans-{self.name}-seed{self.seed}.jsonl"))
        self.traced_deltas = deltas
        queries = max(1, mode_queries[True])
        self_times = recorder.self_times(roots=ROOT_SPANS)
        calls = {name: recorder.calls(name) for name in CALL_SPANS}
        layers = layer_metrics(self_times, recorder.counts, calls, deltas, queries)
        layers.update(self.layer_extras(recorder, queries))
        untraced_qps = mode_queries[False] / mode_seconds[False] if mode_seconds[False] else 0.0
        traced_qps = mode_queries[True] / mode_seconds[True] if mode_seconds[True] else 0.0
        layers["trace.overhead"] = traced_qps / untraced_qps if untraced_qps else 0.0
        self.trace_notes = self_time_notes(self_times, queries)
        return {name: (value, PER_LAYER_UNITS[name]) for name, value in layers.items()}


# -------------------------------------------------------------- paper-mix
class PaperMix(ClosedLoop):
    """The paper's query workload over databases built by its construction pipeline.

    The client runs passes of :data:`QUERIES_PER_CELL` queries from each
    of the 12 Section 5.2.2 cells, interleaved cell by cell.  Every pass
    is a new serving session: fresh engines over the same databases, so
    each pass interprets its predicates anew, as a first pass over the
    paper's workload does.  Starting a session is timed with the queries.
    """

    name = "paper-mix"
    ENTITIES = 100
    REVIEWS_PER_ENTITY = 10
    #: A pass of 120 queries takes about 4.3 s of reference time, so a
    #: 10-second run ends after its third pass unless the program gets
    #: about a fifth faster or slower; each extra pass added 7% to peak
    #: memory.  With 96 queries a pass, first interpretations were a
    #: larger share of the queries and the median latency sat between
    #: the cold and the warm ones, moving by a quarter between seeds.
    QUERIES_PER_CELL = 10
    #: Two rounds of the 12 cells: a pass then holds five windows, so pass
    #: starts fall into traced and untraced windows in turn.
    WINDOW_STEPS = 24

    def prepare(self) -> None:
        from repro.datasets.hotels import generate_hotel_corpus, hotel_seed_sets
        from repro.datasets.queries import (
            HOTEL_OPTIONS,
            RESTAURANT_OPTIONS,
            hotel_predicate_bank,
            restaurant_predicate_bank,
        )
        from repro.datasets.restaurants import (
            generate_restaurant_corpus,
            restaurant_seed_sets,
        )

        self.corpora = {
            "hotels": (
                generate_hotel_corpus(self.ENTITIES, self.REVIEWS_PER_ENTITY, seed=self.seed),
                hotel_seed_sets(),
            ),
            "restaurants": (
                generate_restaurant_corpus(
                    self.ENTITIES, self.REVIEWS_PER_ENTITY, seed=self.seed + 1
                ),
                restaurant_seed_sets(),
            ),
        }
        # The seed permutes each predicate bank; which bank positions a
        # query draws depends on the pass and cell only.  Every seed thus
        # gives passes of the same structure (the same predicate overlap,
        # so the same share of first interpretations in a session) with
        # different predicates.  Drawing positions from the seed too moved
        # the median latency by a third between seeds.
        banks = {
            domain: [bank[int(index)] for index in self.rng.permutation(len(bank))]
            for domain, bank in (
                ("hotels", hotel_predicate_bank()),
                ("restaurants", restaurant_predicate_bank()),
            )
        }
        self.cells = [
            (domain, banks[domain], option, conditions, difficulty)
            for domain, options in (("hotels", HOTEL_OPTIONS), ("restaurants", RESTAURANT_OPTIONS))
            for option, conditions in options.items()
            for difficulty in ("easy", "medium", "hard")
        ]
        self.passes = 0
        self.stream = self._pass_queries(0)
        self.position = 0

    def _pass_queries(self, number: int) -> list[tuple[str, str]]:
        """One pass: every cell's queries, interleaved cell by cell."""
        from repro.datasets.queries import generate_workload

        cells = []
        for index, (domain, bank, option, conditions, difficulty) in enumerate(self.cells):
            workload = generate_workload(
                bank, option, conditions, difficulty, self.QUERIES_PER_CELL, domain,
                seed=number * len(self.cells) + index,
            )
            cells.append([(domain, query.sql) for query in workload.queries])
        return [cell[index] for index in range(self.QUERIES_PER_CELL) for cell in cells]

    def _new_session(self) -> None:
        """Fresh engines over the same databases; timed as serving work."""
        from repro.serving import SubjectiveQueryEngine

        for engine in self.engines():
            for name, value in engine_counters(engine).items():
                self.retired[name] += value
        engines, seconds = timed(
            lambda: {domain: SubjectiveQueryEngine(database=engine.database)
                     for domain, engine in self.engine_of.items()}
        )
        self.charge(seconds)
        self.engine_of = engines
        if self.recorder is not None:
            for engine in engines.values():
                install_engine_wrappers(self.recorder, engine)
        self.passes += 1
        self.stream = self._pass_queries(self.passes)
        self.position = 0

    def setup_once(self) -> float:
        from repro.experiments import common
        from repro.serving import SubjectiveQueryEngine

        recorder = SpanRecorder() if self.tracing else None
        if recorder is not None:
            from repro.core.database import SubjectiveDatabase
            from repro.extraction.builder import SubjectiveDatabaseBuilder

            recorder.wrap(common, "train_default_tagger", "tagger")
            recorder.wrap(SubjectiveDatabaseBuilder, "build", "build")
            recorder.wrap(SubjectiveDatabase, "fit_text_models", "text_models")
        try:
            elapsed = 0.0
            self.engine_of = {}
            first = {}
            for domain, (corpus, seed_sets) in self.corpora.items():
                database, seconds = timed(
                    common.build_subjective_database, corpus, seed_sets, seed=self.seed
                )
                elapsed += seconds
                engine, seconds = timed(SubjectiveQueryEngine, database=database)
                elapsed += seconds
                sql = next(sql for d, sql in self.stream if d == domain)
                result, seconds = timed(engine.execute, sql)
                elapsed += seconds
                self.engine_of[domain] = engine
                first[domain] = (sql, result)
        finally:
            if recorder is not None:
                recorder.uninstall()
        for domain, (sql, result) in first.items():
            self.check(Oracle(self.engine_of[domain].database), sql, result_key(result))
        if recorder is not None:
            totals = recorder.self_times(roots=())
            self.setup_layers.append(
                {
                    "extraction.tagger_ms": totals.get("tagger", 0.0) * 1000.0,
                    "extraction.build_ms": totals.get("build", 0.0) * 1000.0,
                    "extraction.text_models_ms": totals.get("text_models", 0.0) * 1000.0,
                }
            )
        return elapsed

    def engines(self) -> list:
        return list(self.engine_of.values())

    def database_of(self, oracle_key: str):
        return self.engine_of[oracle_key].database

    def at_cycle_end(self) -> bool:
        return self.position == len(self.stream)

    def step(self) -> None:
        if self.position == len(self.stream):
            self._new_session()
        domain, sql = self.stream[self.position]
        self.position += 1
        self.query(self.engine_of[domain], sql, oracle_key=domain)

    def run(self, seconds: float, trace: bool) -> Outcome:
        self.tracing = trace
        self.setup_layers: list[dict[str, float]] = []
        return super().run(seconds, trace)

    def layer_extras(self, recorder: SpanRecorder, queries: int) -> dict[str, float]:
        return {
            name: statistics.median(layers[name] for layers in self.setup_layers)
            for name in ("extraction.tagger_ms", "extraction.build_ms",
                         "extraction.text_models_ms")
        }


# -------------------------------------------------------------- cold-scan
class ColdScan(ClosedLoop):
    """Marker queries over a 10k-entity store booted from disk."""

    name = "cold-scan"
    WINDOW_STEPS = 6
    ENTITIES = 10_000
    POOL = 48

    def prepare(self) -> None:
        self.store = self.work.sub("store")
        run_prep("--entities", str(self.ENTITIES), "--seed", str(self.seed), "--out", self.store)
        # Walk the pool in order: every run then sees the same mix of
        # shapes, and the predicates rotate through all 32 marker words.
        self.stream = marker_queries(self.rng, self.POOL)
        self.position = 0
        self.open_ms: list[float] = []

    def setup_once(self) -> float:
        from repro.core.database import SubjectiveDatabase
        from repro.serving import SubjectiveQueryEngine

        self.engine = None
        database, open_seconds = timed(SubjectiveDatabase.open, self.store)
        engine, engine_seconds = timed(SubjectiveQueryEngine, database=database)
        sql = self.stream[0]
        result, query_seconds = timed(engine.execute, sql)
        self.engine = engine
        self.check(Oracle(database), sql, result_key(result))
        self.open_ms.append(open_seconds * 1000.0)
        return open_seconds + engine_seconds + query_seconds

    def engines(self) -> list:
        return [self.engine]

    def database_of(self, oracle_key: str):
        return self.engine.database

    def at_cycle_end(self) -> bool:
        return self.position % len(self.stream) == 0

    def step(self) -> None:
        sql = self.stream[self.position % len(self.stream)]
        self.position += 1
        self.query(self.engine, sql)

    def layer_extras(self, recorder: SpanRecorder, queries: int) -> dict[str, float]:
        return {"storage.open_ms": statistics.median(self.open_ms)}


# ------------------------------------------------------------ ingest-read
class IngestRead(ClosedLoop):
    """Hot reads with about one write per ten reads, and a durable save every ten writes."""

    name = "ingest-read"
    SETUPS = 9
    WINDOW_STEPS = 10
    ENTITIES = 2_000
    #: 90 reads per save cycle read each of the 18 hot queries five times.
    HOT_QUERIES = 18
    READS_PER_WRITE = 10
    WRITES_PER_SAVE = 10
    NEW_ENTITY_EVERY = 10

    def prepare(self) -> None:
        self.store = self.work.sub("store")
        run_prep("--entities", str(self.ENTITIES), "--seed", str(self.seed), "--out", self.store)
        # The oracle replays the run's writes on this untouched copy.
        self.pristine = self.work.sub("pristine")
        shutil.copytree(self.store, self.pristine)
        self.hot = marker_queries(self.rng, self.HOT_QUERIES)
        self.open_ms: list[float] = []

    def setup_once(self) -> float:
        from repro.core.database import SubjectiveDatabase
        from repro.serving import SubjectiveQueryEngine

        database, open_seconds = timed(SubjectiveDatabase.open, self.store)
        engine, engine_seconds = timed(SubjectiveQueryEngine, database=database)
        sql = self.hot[0]
        result, query_seconds = timed(engine.execute, sql)
        self.database = database
        self.engine = engine
        self.check(Oracle(database), sql, result_key(result))
        self.open_ms.append(open_seconds * 1000.0)
        self.entity_ids = list(database.entity_ids())
        self.attributes = list(database.schema.subjective_attributes)
        #: ``("write", apply)`` and ``("read", answer index)`` in run order.
        self.events: list[tuple] = []
        self.reads = 0
        self.reads_since_write = 0
        self.writes = 0
        self.added = 0
        self.after_write: float | None = None
        self.write_visible_ms: list[float] = []
        self.write_ms: list[float] = []
        self.save_s: list[float] = []
        self.bytes_written: list[int] = []
        self.rebuild_requests: list[int] = []
        return open_seconds + engine_seconds + query_seconds

    def engines(self) -> list:
        return [self.engine]

    def _summary(self, attribute):
        from repro.core.markers import MarkerSummary

        summary = MarkerSummary(attribute.name, list(attribute.markers))
        names = [marker.name for marker in attribute.markers]
        for _ in range(int(self.rng.integers(3, 7))):
            summary.add_phrase(
                names[int(self.rng.integers(len(names)))],
                sentiment=float(self.rng.uniform(-1.0, 1.0)),
            )
        summary.add_unmatched(float(self.rng.integers(0, 3)))
        return summary

    def _write(self) -> None:
        """One write: replace a summary, or (one in ten) add a new entity."""
        if self.writes % self.NEW_ENTITY_EVERY == self.NEW_ENTITY_EVERY - 1:
            entity_id = f"n{self.seed:04d}-{self.added:05d}"
            objective = {
                "city": CITIES[int(self.rng.integers(len(CITIES)))],
                "price": float(self.rng.integers(50, 250)),
            }
            summaries = [self._summary(attribute) for attribute in self.attributes]

            def apply(database) -> None:
                database.add_entity(entity_id, objective)
                for summary in summaries:
                    database.store_summary(entity_id, summary)

            self.added += 1
            self.entity_ids.append(entity_id)
        else:
            entity_id = self.entity_ids[int(self.rng.integers(len(self.entity_ids)))]
            attribute = self.attributes[int(self.rng.integers(len(self.attributes)))]
            summary = self._summary(attribute)

            def apply(database) -> None:
                database.store_summary(entity_id, summary)

        recorder = self.recorder
        try:
            if recorder is not None:
                recorder.request += 1
                with recorder.span("write"):
                    _, seconds = timed(apply, self.database)
            else:
                _, seconds = timed(apply, self.database)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.tally.record("error", f"{type(error).__name__}: {error}")
            return
        self.tally.record("ok")
        self.events.append(("write", apply))
        self.writes += 1
        self.write_ms.append(seconds * 1000.0)
        self.after_write = self.charge(seconds)

    def _save(self) -> None:
        before = directory_bytes(self.store)
        recorder = self.recorder
        try:
            if recorder is not None:
                recorder.request += 1
                with recorder.span("save"):
                    _, seconds = timed(self.database.save, self.store)
            else:
                _, seconds = timed(self.database.save, self.store)
        except Exception as error:  # noqa: BLE001 - every failure is counted
            self.tally.record("error", f"{type(error).__name__}: {error}")
            return
        self.tally.record("ok")
        self.save_s.append(self.charge(seconds))
        self.bytes_written.append(directory_bytes(self.store) - before)

    def at_cycle_end(self) -> bool:
        # After a save; a cycle reads each hot query the same number of times.
        return self.reads_since_write == 0 and self.writes % self.WRITES_PER_SAVE == 0

    def step(self) -> None:
        if self.reads_since_write >= self.READS_PER_WRITE - 1:
            self.reads_since_write = 0
            self._write()
            if self.writes and self.writes % self.WRITES_PER_SAVE == 0 and self.after_write:
                self._save()
            return
        # Reads walk the query set in order, so each one is the first of
        # its SQL on the current data version and every seed reads the
        # same mix of shapes.
        sql = self.hot[self.reads % len(self.hot)]
        self.reads += 1
        first_after_write = self.after_write is not None
        seconds = self.query(self.engine, sql)
        if seconds:
            self.events.append(("read", len(self.answers) - 1))
        self.reads_since_write += 1
        if first_after_write:
            if seconds:
                self.write_visible_ms.append((self.after_write + seconds) * 1000.0)
                if self.recorder is not None:
                    self.rebuild_requests.append(self.recorder.request)
            self.after_write = None

    def verify(self) -> None:
        """Replay the writes on the untouched copy and check each read on its version."""
        from repro.core.database import SubjectiveDatabase

        replay = SubjectiveDatabase.open(self.pristine)
        oracle = Oracle(replay)
        for event in self.events:
            if event[0] == "write":
                event[1](replay)
            else:
                _, sql, answer = self.answers[event[1]]
                self.check(oracle, sql, answer)

    def _fresh_bytes(self) -> int:
        fresh = self.work.sub("fresh")
        self.database.save(fresh)
        return directory_bytes(fresh)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        metrics = {
            "write_visible_ms": (statistics.median(self.write_visible_ms), "ms"),
            "save_s": (statistics.median(self.save_s) if self.save_s else 0.0, "s"),
            "space_amp": (space_amp(directory_bytes(self.store), self._fresh_bytes()), "ratio"),
        }
        return metrics

    def layer_extras(self, recorder: SpanRecorder, queries: int) -> dict[str, float]:
        writes = [record for record in recorder.spans if record[0] == "write"]
        saves = [record for record in recorder.spans if record[0] == "save"]
        first_reads = set(self.rebuild_requests)
        rebuild = sum(
            record[2] - record[1]
            for record in recorder.spans
            if record[0] == "kernel" and record[4] in first_reads
        )
        extras = {
            "storage.open_ms": statistics.median(self.open_ms),
            "storage.disk_bytes": float(directory_bytes(self.store)),
        }
        if writes:
            extras["database.write_ms"] = 1000.0 * sum(r[2] - r[1] for r in writes) / len(writes)
            invalidations = self.traced_deltas.get("invalidations", 0)
            extras["engine.invalidations"] = invalidations / len(writes)
        if first_reads:
            extras["rebuild.ms"] = 1000.0 * rebuild / len(first_reads)
        if saves:
            extras["storage.save_ms"] = 1000.0 * sum(r[2] - r[1] for r in saves) / len(saves)
        if self.bytes_written:
            extras["storage.bytes_written"] = statistics.mean(self.bytes_written)
        return extras
