"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``.

The smoke tests run every workload for a couple of seconds through the
same command the benchmark is run with; deselect them with
``-m "not smoke"`` for a quick check of the arithmetic alone.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

from closedloop import ClosedLoop
from harness import (
    CALIBRATION_REFERENCE_S,
    Calibrator,
    Tally,
    backlog_grows,
    describe_timing,
    directory_bytes,
    percentile,
    samples_beyond,
    slo_met,
    space_amp,
    tail,
)
from layers import PER_LAYER_UNITS
from tracing import SpanRecorder
from zipfserve import Phase, ZipfServe, poisson_schedule, queue_wait_ms, zipf_weights

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# ------------------------------------------------------------ percentiles
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 99) == 99
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "count, level",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, level):
    samples = [float(value) for value in range(count)]
    supported = tail(samples)
    if level is None:
        assert supported is None
        return
    assert supported[0] == level
    assert supported[2] == count
    assert samples_beyond(count, level) >= 10
    higher = [candidate for candidate in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9) if candidate > level]
    assert all(samples_beyond(count, candidate) < 10 for candidate in higher)


def test_describe_timing_names_percentile_and_count():
    text = describe_timing([float(value) for value in range(200)])
    assert "median" in text and "p95" in text and "(n=200)" in text
    assert describe_timing([1.0, 2.0]) == "median 1.500 ms (n=2)"
    assert describe_timing([1.0] * 15).endswith("(n=15)")


# ------------------------------------------------------- failure counting
def test_tally_counts_every_outcome():
    tally = Tally()
    for outcome in ("ok", "ok", "error", "rejected", "timeout", "mismatch", "ok", "ok"):
        tally.record(outcome, detail="x")
    assert tally.attempted == 8
    assert tally.failed == 4
    assert tally.fail_frac == 0.5
    assert tally.first_problem == "error: x"
    with pytest.raises(ValueError):
        tally.record("lost")
    assert tally.attempted == 8


def test_failures_miss_the_latency_limit():
    fast = [1.0] * 99
    assert slo_met(fast + [1.0], failed=0, limit_ms=50.0)
    # Two failures among 100 attempts push the p99 over any limit.
    assert not slo_met(fast[:98], failed=2, limit_ms=50.0)
    assert not slo_met([], failed=0, limit_ms=50.0)


def test_backlog_detection():
    assert not backlog_grows([5.0] * 40)
    assert backlog_grows([5.0] * 20 + [40.0] * 20)
    assert not backlog_grows([5.0] * 20 + [9.0] * 20)
    assert not backlog_grows([5.0, 500.0])


# --------------------------------------------------------------- space_amp
def test_space_amp_arithmetic(tmp_path):
    store = tmp_path / "store"
    (store / "columns").mkdir(parents=True)
    (store / "columns" / "a").write_bytes(b"x" * 300)
    (store / "catalog").write_bytes(b"y" * 100)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "catalog").write_bytes(b"z" * 160)
    assert directory_bytes(str(store)) == 400
    assert space_amp(directory_bytes(str(store)), directory_bytes(str(fresh))) == 2.5
    with pytest.raises(ValueError):
        space_amp(10, 0)


# ------------------------------------------------------------ calibration
def test_calibrated_times_are_reference_machine_times():
    calibrator = Calibrator()
    calibrator.samples = [2 * CALIBRATION_REFERENCE_S] * 3
    # The machine runs the calibration task at half speed: a 40 ms call
    # would take 20 ms on the reference machine.
    assert math.isclose(calibrator.speed(), 0.5)
    assert math.isclose(calibrator.scaled(0.040), 0.020)
    # The speed follows the latest samples only.
    calibrator.samples += [CALIBRATION_REFERENCE_S / 2] * Calibrator.WINDOW
    assert math.isclose(calibrator.speed(), 2.0)
    assert math.isclose(calibrator.speed(window=len(calibrator.samples)), 2.0)
    with pytest.raises(ValueError):
        Calibrator().speed()


def test_calibrator_samples_on_measured_time():
    calibrator = Calibrator()
    every = Calibrator.EVERY
    for clock in (0.0, 0.5 * every, 0.9 * every, every, 1.8 * every, 2.4 * every):
        calibrator.due(clock)
    assert len(calibrator.samples) == 3  # at 0, EVERY and 2.4 EVERY


class _Cycles(ClosedLoop):
    """Steps of 10 ms on a machine at half the reference speed; cycles of three steps."""

    def __init__(self):
        super().__init__(seed=0, work=None)
        self.steps = 0
        self.deadline = time.monotonic() + 60.0
        self.calibrator.samples = [2 * CALIBRATION_REFERENCE_S] * Calibrator.WINDOW
        self.calibrator.sample = lambda count=1: None

    def step(self):
        self.steps += 1
        self.charge(0.010)

    def at_cycle_end(self):
        return self.steps % 3 == 0


def test_closed_loop_measures_reference_time_and_ends_on_a_cycle():
    loop = _Cycles()
    loop._steps_until(0.1)
    # 0.1 s of reference time is 20 steps of 5 ms; the cycle ends at 21.
    assert loop.steps == 21
    assert math.isclose(loop.busy, 0.21) and math.isclose(loop.scaled_busy, 0.105)


# ----------------------------------------------------------------- tracing
def test_self_time_subtracts_children_and_reports_other():
    recorder = SpanRecorder()
    recorder.spans = [
        ["query", 0.0, 10.0, -1, 1],
        ["plan", 1.0, 4.0, 0, 1],
        ["interpreter", 2.0, 3.0, 1, 1],
        ["rank", 5.0, 9.0, 0, 1],
    ]
    totals = recorder.self_times(roots=("query",))
    assert totals == {"other": 3.0, "plan": 2.0, "interpreter": 1.0, "rank": 4.0}


def test_wrappers_are_removed_on_uninstall():
    class Layer:
        def work(self, value):
            return value * 2

    layer = Layer()
    recorder = SpanRecorder()
    recorder.wrap(layer, "work", "layer", lambda args, kwargs, result: recorder.add("n", result))
    with recorder.span("query"):
        assert layer.work(3) == 6
    recorder.uninstall()
    assert "work" not in vars(layer)
    assert [record[0] for record in recorder.spans] == ["query", "layer"]
    assert recorder.spans[1][3] == 0
    assert recorder.counts["n"] == 6


# ------------------------------------------------------------ open loop
class _Reply:
    def __init__(self, sql):
        self.entity_ids, self.scores, self.predicate_degrees = [sql], [1.0], [{}]


class _StallingClient:
    """Answers after 2 ms; the first request blocks the whole event loop for 100 ms."""

    def __init__(self):
        self.calls = 0

    async def query(self, sql):
        self.calls += 1
        if self.calls == 1:
            time.sleep(0.1)
        await asyncio.sleep(0.002)
        return _Reply(sql)


class _RefusingClient:
    async def query(self, sql):
        from repro.serving import GatewayOverloadedError

        raise GatewayOverloadedError("connection overloaded: in-flight cap 64 reached")


def _generator(seed=0):
    import numpy as np

    workload = ZipfServe.__new__(ZipfServe)
    workload.rng = np.random.default_rng(seed)
    workload.pool = [f"q{index}" for index in range(8)]
    workload.weights = zipf_weights(8, 1.1)
    workload.expected = {sql: ((sql,), (1.0,), ((),)) for sql in workload.pool}
    return workload


def test_latency_is_timed_from_the_due_time():
    workload = _generator()
    phase = asyncio.run(workload.open_loop([_StallingClient()], rate=200.0, duration=0.3))
    assert phase.tally.failed == 0
    assert phase.completed == len(phase.latencies_ms) > 20
    # Requests due while the loop was stalled were sent late, and their
    # latency includes the lateness, not only the 2 ms service time.
    assert max(phase.lateness_ms) > 50.0
    stalled = [phase.by_send[index] for index, late in enumerate(phase.lateness_ms) if late > 50]
    assert stalled and min(stalled) > 50.0


def test_refusals_are_counted_as_failures():
    workload = _generator()
    phase = asyncio.run(workload.open_loop([_RefusingClient()], rate=100.0, duration=0.2))
    assert phase.tally.attempted > 0
    assert phase.tally.rejected == phase.tally.attempted == phase.tally.failed
    assert phase.latencies_ms == []
    assert not slo_met(phase.latencies_ms, phase.tally.failed, 50.0)


def test_wrong_answers_are_mismatches():
    workload = _generator()
    workload.expected = {sql: (("other",), (1.0,), ((),)) for sql in workload.pool}

    class Fast:
        async def query(self, sql):
            return _Reply(sql)

    phase = asyncio.run(workload.open_loop([Fast()], rate=100.0, duration=0.2))
    assert phase.tally.mismatches == phase.tally.attempted > 0


def test_schedule_and_zipf_are_seeded():
    import numpy as np

    first = poisson_schedule(np.random.default_rng(3), 80.0, 5.0)
    second = poisson_schedule(np.random.default_rng(3), 80.0, 5.0)
    assert first == second and 300 < len(first) < 500
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 5.0
    weights = zipf_weights(64, 1.1)
    assert math.isclose(weights.sum(), 1.0) and weights[0] > weights[1] > weights[-1]


def test_queue_wait_uses_next_engine_call():
    sends = [1.0, 1.5, 3.0]
    intervals = [(1.2, 1.4), (1.6, 2.0), (5.0, 6.0)]
    assert math.isclose(queue_wait_ms(sends, intervals), 200.0)
    assert queue_wait_ms([9.0], intervals) == 0.0
    assert isinstance(Phase().tally, Tally)


# ------------------------------------------------------------ the contract
def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [metric["name"] for metric in spec["per_layer"]] == list(PER_LAYER_UNITS)
    assert all(metric["unit"] == PER_LAYER_UNITS[metric["name"]] for metric in spec["per_layer"])
    names = [workload["name"] for workload in spec["workloads"]]
    # cold-scan stays runnable but is not a gated workload (see README).
    assert names == ["paper-mix", "zipf-serve", "ingest-read"]
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    assert "setup_s" in end_to_end
    assert max(metric["bound"] for metric in spec["end_to_end"]) == next(
        metric["bound"] for metric in spec["end_to_end"] if metric["name"] == "setup_s"
    )


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


# ----------------------------------------------------------------- smoke
@pytest.mark.smoke
@pytest.mark.parametrize("workload", ["paper-mix", "cold-scan", "zipf-serve", "ingest-read"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == wanted
    for name in wanted:
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        if trace == "0":
            assert value > 0, name
