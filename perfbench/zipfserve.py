"""The zipf-serve workload: open-loop users against the gateway and a two-node cluster.

The server (gateway, coordinator and its two nodes) runs in its own
process tree (``server.py``); this process only generates load, over two
connections from one event loop.  A run has three phases, in this order:

1. **fixed rate** — independent users, Poisson arrivals at
   :data:`FIXED_RATE` requests per second; each latency is timed from the
   request's due time, so a stall also charges the requests it delayed.
   Gives ``query_p95_ms`` and ``query_p99_ms``, and the median in the
   report.
2. **capacity** — two closed-loop clients, one per connection; ``qps``
   is their completed queries per second and ``query_p50_ms`` the median
   latency of their requests.
3. **ladder** — open loop at rungs of :data:`LADDER` (8% apart), searched
   around the capacity; ``slo_qps`` is the highest rung that met
   p99 ≤ :data:`SLO_MS` with no growing backlog.

``query_p50_ms`` comes from the closed-loop phase because the open-loop
median was not steady: over ten seeds it spread 0.24 and then 0.26 of
its median.  At 50 req/s both vCPUs idle between requests, and waking
them costs a delay set by the host; the calibration loop did not see it
(its speed stayed within 0.72-0.81 while the median moved from 11 to
15 ms).  The open-loop latencies stay in the report.

Unlike the closed-loop workloads, these times are as measured, not
scaled to the reference machine (:class:`harness.Calibrator`): the work
spreads over four processes on two cores, and a calibration loop timed
in the generator between one-second windows tracked it worse than no
scaling did.  Over the same ten seeds, the scaled ``query_p50_ms``,
``qps`` and ``setup_s`` spread 0.13, 0.17 and 0.23 of their medians,
against 0.05, 0.11 and 0.09 as measured.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import statistics
import subprocess
import time

import numpy as np

from closedloop import SETUPS, Outcome, marker_queries
from harness import (
    Oracle,
    Tally,
    answer_key,
    backlog_grows,
    child_env,
    describe_timing,
    percentile,
    python_command,
    run_prep,
    slo_met,
)
from layers import PER_LAYER_UNITS, layer_metrics, self_time_notes

ENTITIES = 2_000
POOL = 64
ZIPF_S = 1.1
#: The fixed arrival rate (req/s) of the latency metrics: well below the
#: knee (capacity is 100-130 req/s on a 2-core machine), so latency
#: reflects service time rather than queueing noise; never recomputed per run.
FIXED_RATE = 50.0
SLO_MS = 50.0
#: Rates of the ladder, each 8% above the previous one.
LADDER = tuple(round(30.0 * 1.08**index, 1) for index in range(30))
#: Share of ``--seconds`` each phase gets.
FIXED_SHARE, CAPACITY_SHARE, LADDER_SHARE = 0.4, 0.45, 0.15
LADDER_PROBES = 2
REQUEST_TIMEOUT = 10.0
#: The traced run alternates untraced and traced capacity windows.
TRACE_WINDOWS = 6


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Probabilities of ranks 1..count under Zipf's law with ``exponent``."""
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return weights / weights.sum()


def poisson_schedule(rng: np.random.Generator, rate: float, duration: float) -> list[float]:
    """Due times (seconds from the phase start) of independent users arriving at ``rate``.

    Independent users make a Poisson process: exponential gaps between
    arrivals.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 16)
    dues = np.cumsum(gaps)
    return dues[dues < duration].tolist()


class Server:
    """The server process and its line protocol."""

    def __init__(self, store: str) -> None:
        # A session of its own, so stopping it also reaches the node
        # processes it forked, whatever state it is in.
        self.process = subprocess.Popen(
            python_command("server.py", "--store", store),
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            self.address = tuple(self._read(120.0)["address"])
        except BaseException:
            self.stop()
            raise

    def _read(self, timeout: float) -> dict:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise TimeoutError("server did not answer in time")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.process.wait(10)}")
        return json.loads(line)

    def command(self, cmd: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.process.stdin.flush()
        return self._read(60.0)

    def stop(self) -> None:
        """Ask the server to stop; kill its whole session if it does not."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write(json.dumps({"cmd": "stop"}) + "\n")
                self.process.stdin.close()
                self.process.wait(30)
            except (OSError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait(30)
        self.process.stdout.close()


class Phase:
    """Latencies and outcomes of one phase, in send order."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.latencies_ms: list[float] = []
        #: Latency of each answered request by its send position.
        self.by_send: dict[int, float] = {}
        self.lateness_ms: list[float] = []
        self.sends: list[float] = []
        self.completed = 0


class ZipfServe:
    name = "zipf-serve"

    def __init__(self, seed: int, work) -> None:
        self.seed = seed
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.tally = Tally()
        self.server: Server | None = None

    # -------------------------------------------------------------- inputs
    def prepare(self) -> None:
        from repro.core.database import SubjectiveDatabase

        self.store = self.work.sub("store")
        run_prep("--entities", str(ENTITIES), "--seed", str(self.seed), "--out", self.store)
        self.pool = marker_queries(self.rng, POOL)
        self.weights = zipf_weights(POOL, ZIPF_S)
        # The oracle reads its own copy of the store; every pool query is
        # answered once here, so checking a reply is a lookup.
        oracle = Oracle(SubjectiveDatabase.open(self.store))
        self.expected = {sql: oracle.expected(sql) for sql in self.pool}

    def draw(self, count: int) -> list[str]:
        picks = self.rng.choice(len(self.pool), size=count, p=self.weights)
        return [self.pool[int(index)] for index in picks]

    def check(self, tally: Tally, sql: str, reply) -> bool:
        answer = answer_key(reply.entity_ids, reply.scores, reply.predicate_degrees)
        if answer != self.expected[sql]:
            tally.record("mismatch", sql)
            return False
        tally.record("ok")
        return True

    # --------------------------------------------------------------- setup
    def setup_once(self, trace: bool = False) -> float:
        """Start a server and answer one query; with ``trace`` the hydration is traced."""
        from repro.serving import GatewayClient

        if self.server is not None:
            self.server.stop()
            self.server = None
        sql = self.pool[0]
        started = time.perf_counter()
        self.server = Server(self.store)
        if trace:
            self.server.command("trace", on=True)
        with GatewayClient(*self.server.address) as client:
            reply = client.query(sql)
        elapsed = time.perf_counter() - started
        self.check(self.tally, sql, reply)
        return elapsed

    # ------------------------------------------------------------- phases
    async def _request(self, client, sql: str, due: float, phase: Phase, index: int) -> None:
        from repro.serving import GatewayOverloadedError

        loop = asyncio.get_running_loop()
        try:
            reply = await asyncio.wait_for(client.query(sql), REQUEST_TIMEOUT)
        except GatewayOverloadedError as error:
            phase.tally.record("rejected", str(error))
            return
        except asyncio.TimeoutError:
            phase.tally.record("timeout", sql)
            return
        except Exception as error:  # noqa: BLE001 - every failure is counted
            phase.tally.record("error", f"{type(error).__name__}: {error}")
            return
        latency = loop.time() - due
        if self.check(phase.tally, sql, reply):
            phase.by_send[index] = latency * 1000.0
            phase.completed += 1

    async def open_loop(self, clients, rate: float, duration: float) -> Phase:
        """Poisson arrivals at ``rate`` for ``duration`` seconds, timed from each due time."""
        phase = Phase()
        dues = poisson_schedule(self.rng, rate, duration)
        sqls = self.draw(len(dues))
        loop = asyncio.get_running_loop()
        origin = loop.time() + 0.01
        tasks = []
        for index, (offset, sql) in enumerate(zip(dues, sqls)):
            due = origin + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = loop.time()
            phase.lateness_ms.append((sent - due) * 1000.0)
            phase.sends.append(sent)
            tasks.append(
                loop.create_task(
                    self._request(clients[index % len(clients)], sql, due, phase, index)
                )
            )
        await asyncio.gather(*tasks)
        phase.latencies_ms = [phase.by_send[index] for index in sorted(phase.by_send)]
        return phase

    async def closed_loop(self, clients, duration: float) -> tuple[Phase, float]:
        """One closed-loop client per connection for ``duration`` seconds."""
        phase = Phase()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + duration
        sqls = iter(self.draw(int(duration * 2000) + 16))

        async def client_loop(client) -> None:
            while loop.time() < deadline:
                sent = loop.time()
                phase.sends.append(sent)
                await self._request(client, next(sqls), sent, phase, len(phase.sends) - 1)

        started = loop.time()
        await asyncio.gather(*(client_loop(client) for client in clients))
        phase.latencies_ms = [phase.by_send[index] for index in sorted(phase.by_send)]
        return phase, loop.time() - started

    async def ladder(self, clients, capacity: float, duration: float) -> tuple[float, list]:
        """Search the ladder around ``capacity``; the highest rung meeting the SLO."""
        probes = []
        index = max((i for i, rate in enumerate(LADDER) if rate <= 0.9 * capacity), default=0)
        passed: float = 0.0
        seen_fail = False
        for _ in range(LADDER_PROBES):
            rate = LADDER[index]
            phase = await self.open_loop(clients, rate, duration / LADDER_PROBES)
            self.tally.merge(phase.tally)
            ok = slo_met(phase.latencies_ms, phase.tally.failed, SLO_MS) and not backlog_grows(
                phase.latencies_ms
            )
            probes.append((rate, ok, len(phase.latencies_ms)))
            if ok:
                passed = max(passed, rate)
                if seen_fail or index + 1 >= len(LADDER):
                    break
                index += 1
            else:
                seen_fail = True
                if passed or index == 0:
                    break
                index -= 1
        return passed, probes

    async def _drive(self, seconds: float, trace: bool) -> dict:
        from repro.serving import AsyncGatewayClient

        clients = [await AsyncGatewayClient.connect(*self.server.address) for _ in range(2)]
        try:
            # Untimed warm-up: every pool query once, so the phases measure
            # the steady state of a hot set that fits the caches.
            warm = Phase()
            for index, sql in enumerate(self.pool):
                await self._request(clients[0], sql, asyncio.get_running_loop().time(), warm, index)
            self.tally.merge(warm.tally)
            if trace:
                return await self._drive_traced(clients, seconds)
            fixed = await self.open_loop(clients, FIXED_RATE, seconds * FIXED_SHARE)
            self.tally.merge(fixed.tally)
            capacity_phase, elapsed = await self.closed_loop(clients, seconds * CAPACITY_SHARE)
            self.tally.merge(capacity_phase.tally)
            capacity = capacity_phase.completed / elapsed
            slo_qps, probes = await self.ladder(clients, capacity, seconds * LADDER_SHARE)
            return {
                "fixed": fixed,
                "capacity": capacity,
                "capacity_ms": capacity_phase.latencies_ms,
                "slo_qps": slo_qps,
                "probes": probes,
            }
        finally:
            for client in clients:
                await client.close()

    async def _drive_traced(self, clients, seconds: float) -> dict:
        window = seconds * 0.5 / TRACE_WINDOWS
        completed = {False: 0, True: 0}
        busy = {False: 0.0, True: 0.0}
        for turn in range(TRACE_WINDOWS):
            traced = bool(turn % 2)
            self.server.command("trace", on=traced)
            phase, elapsed = await self.closed_loop(clients, window)
            self.tally.merge(phase.tally)
            completed[traced] += phase.completed
            busy[traced] += elapsed
        self.server.command("trace", on=False)
        overhead = (completed[True] / busy[True]) / (completed[False] / busy[False])
        before_stats = await clients[0].stats()
        # Also drops the capacity windows' spans.
        before = self.server.command("report")
        self.server.command("trace", on=True)
        started = time.monotonic()
        fixed = await self.open_loop(clients, FIXED_RATE, seconds * 0.5)
        ended = time.monotonic()
        self.tally.merge(fixed.tally)
        self.server.command("trace", on=False)
        after = self.server.command(
            "report", spans=self.work.keep(f"spans-{self.name}-seed{self.seed}.jsonl")
        )
        after_stats = await clients[0].stats()
        return {
            "overhead": overhead,
            "fixed": fixed,
            "window": (started, ended),
            "before": before,
            "after": after,
            "gateway_before": before_stats["gateway"],
            "gateway_after": after_stats["gateway"],
        }

    # ----------------------------------------------------------------- run
    def run(self, seconds: float, trace: bool) -> Outcome:
        self.prepare()
        outcome = Outcome(tally=self.tally)
        try:
            setup_times = [self.setup_once(trace and n == SETUPS - 1) for n in range(SETUPS)]
            if trace:
                hydration = self.server.command("report")
                data = asyncio.run(self._drive(seconds, trace=True))
                outcome.metrics.update(self._layers(data, hydration))
                outcome.notes.extend(self.trace_notes)
            else:
                data = asyncio.run(self._drive(seconds, trace=False))
                peak = self.server.command("report")["peak_rss_mb"]
                fixed = data["fixed"]
                outcome.metrics.update(
                    {
                        "setup_s": (statistics.median(setup_times), "s"),
                        "query_p50_ms": (statistics.median(data["capacity_ms"]), "ms"),
                        "query_p95_ms": (percentile(fixed.latencies_ms, 95.0), "ms"),
                        "query_p99_ms": (percentile(fixed.latencies_ms, 99.0), "ms"),
                        "qps": (data["capacity"], "1/s"),
                        "slo_qps": (data["slo_qps"], "1/s"),
                        "fail_frac": (self.tally.fail_frac, "ratio"),
                        "peak_rss_mb": (peak, "MB"),
                    }
                )
                outcome.notes.append(
                    f"latency at {FIXED_RATE:g} req/s: " + describe_timing(fixed.latencies_ms)
                )
                outcome.notes.append(
                    "latency of 2 closed-loop clients: " + describe_timing(data["capacity_ms"])
                )
                outcome.notes.append(
                    "generator lateness: " + describe_timing(fixed.lateness_ms)
                    + f", max {max(fixed.lateness_ms):.3f} ms"
                )
                outcome.notes.append(
                    "ladder probes (rate, met SLO, samples): " + ", ".join(
                        f"({rate:g}, {ok}, {n})" for rate, ok, n in data["probes"]
                    )
                )
        finally:
            if self.server is not None:
                self.server.stop()
        return outcome

    def _layers(self, data: dict, hydration: dict) -> dict[str, tuple[float, str]]:
        after, before = data["after"], data["before"]
        fixed: Phase = data["fixed"]
        queries = max(1, fixed.completed)
        engine = {k: after["engine"][k] - before["engine"][k] for k in after["engine"]}
        layers = layer_metrics(
            after["self_times"], after["counts"], after["calls"], engine, queries
        )
        transport = {k: after["transport"][k] - before["transport"][k] for k in after["transport"]}
        layers["cluster.bytes_out"] = transport["rpc_bytes_sent"] / queries
        layers["cluster.bytes_in"] = transport["rpc_bytes_received"] / queries
        layers["cluster.hydrate_bytes"] = float(hydration["transport"]["rpc_bytes_sent"])
        layers["cluster.hydrate_ms"] = hydration["cluster_seconds"] * 1000.0
        gateway_after, gateway_before = data["gateway_after"], data["gateway_before"]
        gateway = {k: gateway_after[k] - gateway_before[k]
                   for k in ("requests", "shared_requests", "batches", "batched_queries",
                             "rejections")}
        layers["gateway.requests"] = float(gateway["requests"])
        layers["gateway.rejections"] = float(gateway["rejections"])
        if gateway["requests"]:
            layers["gateway.shared_frac"] = gateway["shared_requests"] / gateway["requests"]
        if gateway["batches"]:
            layers["gateway.batch_size"] = gateway["batched_queries"] / gateway["batches"]
        intervals = sorted(after["engine_intervals"])
        started, ended = data["window"]
        layers["engine.busy_frac"] = sum(
            max(0.0, min(end, ended) - max(start, started)) for start, end in intervals
        ) / (ended - started)
        layers["gateway.queue_wait_ms"] = queue_wait_ms(fixed.sends, intervals)
        layers["trace.overhead"] = data["overhead"]
        self.trace_notes = self_time_notes(after["self_times"], queries)
        return {name: (value, PER_LAYER_UNITS[name]) for name, value in layers.items()}


def queue_wait_ms(sends: list[float], intervals: list[tuple[float, float]]) -> float:
    """Median wait from a request's send to the start of the next engine call.

    Both processes read the same monotonic clock.  A request that no
    engine call starts after (the phase ended) is left out.
    """
    starts = sorted(start for start, _end in intervals)
    waits = []
    position = 0
    for sent in sorted(sends):
        while position < len(starts) and starts[position] < sent:
            position += 1
        if position < len(starts):
            waits.append((starts[position] - sent) * 1000.0)
    return statistics.median(waits) if waits else 0.0
