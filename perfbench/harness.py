"""Measurement primitives shared by every workload.

Nothing here imports the program under test at module level, so the
self-tests can exercise the arithmetic without building a database.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: Percentile levels the tail rule chooses from, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------- statistics
def percentile(samples, level: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``level``% at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), level) - 1]


def samples_beyond(count: int, level: float) -> int:
    """Samples strictly above the nearest-rank ``level`` percentile of ``count``."""
    return count - _rank(count, level)


def _rank(count: int, level: float) -> int:
    """1-based nearest rank of the ``level`` percentile; rounding keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(level / 100.0 * count, 9)))


def tail(samples) -> tuple[float, float, int] | None:
    """``(level, value, n)``: the highest percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    beyond it.
    """
    count = len(samples)
    for level in TAIL_LEVELS:
        if samples_beyond(count, level) >= MIN_BEYOND:
            return level, percentile(samples, level), count
    return None


def describe_timing(samples_ms) -> str:
    """``median X ms, pNN Y ms (n=N)`` following the tail rule."""
    if not samples_ms:
        return "no samples"
    text = f"median {statistics.median(samples_ms):.3f} ms"
    supported = tail(samples_ms)
    if supported is not None and supported[0] > 50.0:
        text += f", p{supported[0]:g} {supported[1]:.3f} ms"
    return text + f" (n={len(samples_ms)})"


def space_amp(directory_bytes: int, fresh_bytes: int) -> float:
    """Bytes the store directory holds per byte of a fresh save of the same data."""
    if fresh_bytes <= 0:
        raise ValueError("a fresh save cannot be empty")
    return directory_bytes / fresh_bytes


def directory_bytes(directory: str) -> int:
    """Total size of the regular files under ``directory``."""
    total = 0
    for parent, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(parent, name)
            if os.path.isfile(path) and not os.path.islink(path):
                total += os.path.getsize(path)
    return total


# ----------------------------------------------------------------- accounting
_OUTCOME_FIELDS = {
    "error": "errors",
    "rejected": "rejected",
    "timeout": "timeouts",
    "mismatch": "mismatches",
}


@dataclass
class Tally:
    """Every attempted operation and how each one ended.

    Errors, typed rejections, timeouts and oracle mismatches all count as
    failed; a failed operation also misses every latency limit.
    """

    attempted: int = 0
    errors: int = 0
    rejected: int = 0
    timeouts: int = 0
    mismatches: int = 0
    first_problem: str = ""

    def record(self, outcome: str, detail: str = "") -> None:
        """Count one operation: ``ok``, ``error``, ``rejected``, ``timeout`` or ``mismatch``."""
        if outcome != "ok" and outcome not in _OUTCOME_FIELDS:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += 1
        if outcome == "ok":
            return
        name = _OUTCOME_FIELDS[outcome]
        setattr(self, name, getattr(self, name) + 1)
        if detail and not self.first_problem:
            self.first_problem = f"{outcome}: {detail}"

    @property
    def failed(self) -> int:
        return self.errors + self.rejected + self.timeouts + self.mismatches

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Tally") -> None:
        """Add another tally's counts into this one."""
        for name in ("attempted", "errors", "rejected", "timeouts", "mismatches"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.first_problem and not self.first_problem:
            self.first_problem = other.first_problem


def slo_met(latencies_ms, failed: int, limit_ms: float, level: float = 99.0) -> bool:
    """Whether the ``level`` percentile, counting each failure as a miss, is within ``limit_ms``."""
    values = list(latencies_ms) + [math.inf] * failed
    if not values:
        return False
    return percentile(values, level) <= limit_ms


def backlog_grows(latencies_ms) -> bool:
    """A queue that keeps growing: the last quarter waits far longer than the first.

    ``latencies_ms`` are in send order.  The last quarter's median must
    exceed both twice the first quarter's and the first quarter's plus
    10 ms; either alone is ordinary jitter at low latencies.
    """
    quarter = len(latencies_ms) // 4
    if quarter < 5:
        return False
    first = statistics.median(latencies_ms[:quarter])
    last = statistics.median(latencies_ms[-quarter:])
    return last > 2.0 * first and last > first + 10.0


# ------------------------------------------------------------------- answers
def answer_key(entity_ids, scores, predicate_degrees) -> tuple:
    """One comparable answer: ids as text, exact scores, sorted per-predicate degrees."""
    return (
        tuple(str(entity_id) for entity_id in entity_ids),
        tuple(float(score) for score in scores),
        tuple(tuple(sorted((str(k), float(v)) for k, v in degrees.items()))
              for degrees in predicate_degrees),
    )


def result_key(result) -> tuple:
    """:func:`answer_key` of an in-process :class:`QueryResult`."""
    return answer_key(
        [entity.entity_id for entity in result.entities],
        [entity.score for entity in result.entities],
        [entity.predicate_degrees for entity in result.entities],
    )


class Oracle:
    """The paper-faithful processor's answers, memoised per (SQL, data_version).

    A fresh :class:`SubjectiveQueryProcessor` is built for every data
    version the oracle sees, so no state from an older version can leak
    into an expected answer.
    """

    def __init__(self, database) -> None:
        self.database = database
        self._version = None
        self._processor = None
        self._memo: dict[str, tuple] = {}
        self.computed = 0

    def expected(self, sql: str) -> tuple:
        from repro.core.processor import SubjectiveQueryProcessor

        version = self.database.data_version
        if version != self._version:
            self._version = version
            self._processor = SubjectiveQueryProcessor(self.database)
            self._memo.clear()
        answer = self._memo.get(sql)
        if answer is None:
            answer = result_key(self._processor.execute(sql))
            self._memo[sql] = answer
            self.computed += 1
        return answer


# ---------------------------------------------------------------- processes
def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB; 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def python_command(script: str, *args: str) -> list[str]:
    """Run one of the benchmark's scripts with this interpreter and the repo's sources."""
    return [sys.executable, os.path.join(ROOT, "perfbench", script), *args]


def child_env() -> dict[str, str]:
    """Environment for benchmark child processes: the repo's sources first."""
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_prep(*args: str, timeout: float = 170.0) -> None:
    """Run an input-preparation step in a child process and wait for it.

    Preparation runs out of process so that building inputs never counts
    towards the measured process's peak memory.
    """
    completed = subprocess.run(
        python_command("prep.py", *args),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"input preparation failed: {completed.stderr.strip()[-2000:]}")


# ------------------------------------------------------------------ records
def source_digest() -> str:
    """The commit when the tree is a git checkout, else a digest of ``src/``."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            completed = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                timeout=10,
                check=False,
            )
            if completed.returncode == 0 and completed.stdout.strip():
                return completed.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src")
    for parent, dirs, files in os.walk(source):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(parent, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def reproducibility_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """What a later run needs to re-check a figure on the same or a held-out seed."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": source_digest(),
    }


@dataclass
class WorkDir:
    """A working directory inside the checkout, removed when the run ends."""

    workload: str
    seed: int
    path: str = field(init=False)

    def __post_init__(self) -> None:
        self.path = os.path.join(
            ROOT, ".perfbench", "work", f"{self.workload}-{self.seed}-{os.getpid()}"
        )
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def sub(self, name: str) -> str:
        return os.path.join(self.path, name)

    @staticmethod
    def keep(name: str) -> str:
        """A path under ``.perfbench/traces`` that outlives the run."""
        directory = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, name)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Calibrator:
    """How fast the machine runs Python right now, from a loop that uses none of the program.

    The machines these figures come from share their cores with other
    tenants.  Their speed switches between regimes lasting seconds to
    minutes, and one run can be half again as slow as the next.  Over
    three-second blocks of one process, a read query's median latency
    moved with the time of a pure-Python loop (:func:`calibration_task`
    run three times over) in the same block: 17.2 ms against 11.5 ms in a
    fast regime, 27.5 ms against 18.8 ms in a slow one.  Their ratio
    spread 0.06 of its median between 15-second windows where the
    latency itself spread 0.30.

    A run samples the task between its operations, never inside a timed
    call, and multiplies each operation's time by :attr:`speed`: the
    task's reference time over the median of its latest samples.  The
    end-to-end times are then those of a machine that runs the task in
    :data:`CALIBRATION_REFERENCE_S`; every run also prints its times as
    measured.
    """

    #: Measured seconds between samples.
    EVERY = 0.2
    #: Samples the current speed is the median of: about a second.
    WINDOW = 5

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0
        calibration_task()  # first-call costs are not the machine's speed

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(timed(calibration_task)[1])

    def due(self, clock: float) -> None:
        """Take a sample once ``clock`` (measured seconds) passed the next sampling point."""
        if clock >= self._next:
            self.sample()
            self._next = clock + self.EVERY

    def speed(self, window: int = WINDOW) -> float:
        """Reference time over the median of the latest ``window`` samples."""
        if not self.samples:
            raise ValueError("no calibration samples")
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples[-window:])

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured now, on the reference machine."""
        return seconds * self.speed()


#: Time of :func:`calibration_task` in the fast regime of the machine the
#: benchmark was tuned on (2 shared vCPUs, Python 3.11); it only fixes
#: the scale of the normalised times.
CALIBRATION_REFERENCE_S = 0.004


def calibration_task() -> int:
    """A fixed pure-Python loop; its time tracks the interpreter's speed."""
    total = 0
    for index in range(100_000):
        total += index
    return total


def calibration_note(calibrator: Calibrator, measured: dict) -> str:
    """One report line: the machine's speed and the times before normalisation."""
    return (
        f"machine speed {calibrator.speed(len(calibrator.samples)):.4f} "
        f"(median of {len(calibrator.samples)} calibration samples); as measured: "
        + json.dumps(measured)
    )


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started
