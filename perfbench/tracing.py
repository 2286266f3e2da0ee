"""Spans recorded from outside the program, around calls into its layers.

The traced run replaces public methods and module functions of the
program with wrappers that record one span per call: name, start, end,
the span that was open when the call began (its parent) and the request
id the benchmark assigned.  Spans stay in memory and are written out when
the run ends.  :meth:`SpanRecorder.uninstall` restores every original, so
untraced windows run the unmodified program.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, request_id]`` per span.
        self.spans: list[list] = []
        #: Counts the wrappers' result hooks accumulate (rows, methods, ...).
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else -1, self.request]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    # ---------------------------------------------------------- wrappers
    def wrap(self, owner: object, attribute: str, name: str, on_call=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``on_call(args, kwargs, result)`` runs after each call to feed
        :attr:`counts`.
        """
        original = getattr(owner, attribute)
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        own = attribute in vars(owner)
        self._patches.append((owner, attribute, own, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attribute, own, original = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # ----------------------------------------------------------- reports
    def self_times(self, roots: tuple[str, ...]) -> dict[str, float]:
        """Seconds of self time per span name; root spans' self time is ``other``.

        A span's self time is its duration minus the union of the
        intervals its child spans cover.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for index, record in enumerate(self.spans):
            if record[3] >= 0:
                children[record[3]].append(index)
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _request) in enumerate(self.spans):
            if end is None:
                continue
            intervals = sorted(
                (max(start, self.spans[child][1]), min(end, self.spans[child][2]))
                for child in children.get(index, ())
                if self.spans[child][2] is not None
            )
            covered = 0.0
            cursor = start
            for low, high in intervals:
                low = max(low, cursor)
                if high > low:
                    covered += high - low
                    cursor = high
            totals["other" if name in roots else name] += (end - start) - covered
        return dict(totals)

    def calls(self, name: str) -> int:
        return sum(1 for record in self.spans if record[0] == name)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )


def install_engine_wrappers(recorder: SpanRecorder, engine) -> None:
    """Wrap the serving engine's plan, candidate, cache, kernel and ranking calls."""
    processor = engine.processor
    recorder.wrap(engine, "plan", "plan")

    def interpreted(_args, _kwargs, result) -> None:
        recorder.add("interpreter.calls")
        for interpretation in result.values():
            recorder.add("interpreter." + interpretation.method.value)

    recorder.wrap(processor, "interpret_predicates", "interpreter", interpreted)
    recorder.wrap(processor, "retrieval_degrees", "bm25")
    recorder.wrap(
        processor,
        "candidate_rows",
        "executor",
        lambda _a, _k, rows: recorder.add("executor.rows", len(rows)),
    )
    recorder.wrap(
        processor,
        "pair_degrees",
        "kernel",
        lambda args, _k, _r: recorder.add("kernel.rows", len(args[0])),
    )
    recorder.wrap(
        processor,
        "rank_candidates",
        "rank",
        lambda args, _k, _r: recorder.add("rank.rows", len(args[1])),
    )
    cache = engine.membership_cache
    recorder.wrap(cache, "get_many", "membership_cache")
    recorder.wrap(cache, "put_many", "membership_cache")
    store = processor.columnar_store
    if store is not None and hasattr(store, "columns"):
        recorder.wrap(store, "columns", "columns")
