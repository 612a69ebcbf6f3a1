"""Spans and counters recorded around the benchmark's calls into ringleader.

Nothing here patches the library.  A drive asks its hooks object for a
scheduler, a stop predicate and a way to call a layer function:

* :data:`PLAIN` hands back the library's own objects, so a plain drive runs
  exactly the code a user runs;
* a :class:`Stopwatch` does the same, but its scheduler reads the clock at
  every ``draw``, so that a trial splits into stretches of equal work;
* a :class:`Tracer` hands back a :class:`SchedulerStream` subclass whose
  ``draw`` is timed, a stop wrapper that times each evaluation, and a call
  wrapper that records one span per layer call.

Spans are ``(id, name, start, end, parent)`` and stay in memory until the
benchmark writes them out at the end.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from ringleader import SchedulerStream


class _Plain:
    """Hooks that add nothing: the untraced drive."""

    @contextmanager
    def trial(self):
        yield

    def call(self, name, fn, *args):
        return fn(*args)

    def scheduler(self, n, seed):
        return SchedulerStream(n, seed)

    def stop(self, predicate):
        return predicate


PLAIN = _Plain()


class Stopwatch(_Plain):
    """Hooks for the timed untraced drive: :data:`PLAIN`, except that the
    clock is read when the trial starts, at every ``draw`` of the scheduler
    (once every n steps of ``run``) and when the trial ends.

    The readings go to ``marks``.  The simulation is a pure function of the
    seeds, so the k-th stretch between two readings is the same work in every
    repeat of a trial, and ``run.py`` can take each stretch's best time.
    """

    def __init__(self):
        self.marks: list[float] = []

    @contextmanager
    def trial(self):
        self.marks.append(perf_counter())
        try:
            yield
        finally:
            self.marks.append(perf_counter())

    def scheduler(self, n, seed):
        return _MarkingScheduler(n, seed, self.marks)


class _MarkingScheduler(SchedulerStream):
    """The library's scheduler, reading the clock at each ``draw``."""

    def __init__(self, n, seed, marks: list):
        super().__init__(n, seed)
        self._marks = marks

    def draw(self, count):
        self._marks.append(perf_counter())
        return super().draw(count)


class Tracer:
    """Spans, per-name busy time and counts for one traced trial.

    ``sample_at`` holds the stop-evaluation indices whose configuration is
    copied into ``sample`` for the per-predicate cost measurement.
    """

    def __init__(self, sample_at=frozenset()):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.busy: Counter = Counter()
        self.counts: Counter = Counter()
        self.sample_at = sample_at
        self.sample: list = []
        self._next_id = 0
        self._parent: int | None = None

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def record(self, span_id: int, name: str, start: float, end: float, parent) -> None:
        self.spans.append((span_id, name, start, end, parent))
        self.busy[name] += end - start
        self.counts[name] += 1

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; spans opened inside are its children."""
        span_id = self._open()
        outer, self._parent = self._parent, span_id
        start = perf_counter()
        try:
            yield
        finally:
            self._parent = outer
            self.record(span_id, name, start, perf_counter(), outer)

    def trial(self):
        return self.span("trial")

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def scheduler(self, n, seed):
        return _TimedScheduler(n, seed, self)

    def stop(self, predicate):
        return _TimedStop(predicate, self)


class _TimedScheduler(SchedulerStream):
    """The library's scheduler with each ``draw`` recorded as a span."""

    def __init__(self, n, seed, tracer: Tracer):
        super().__init__(n, seed)
        self._tracer = tracer

    def draw(self, count):
        tracer = self._tracer
        start = perf_counter()
        out = super().draw(count)
        tracer.record(tracer._open(), "scheduler.draw", start, perf_counter(), tracer._parent)
        tracer.counts["scheduler.indices"] += len(out)
        return out


class _TimedStop:
    """A stop predicate with each evaluation recorded as a span."""

    def __init__(self, predicate, tracer: Tracer):
        self._predicate = predicate
        self._tracer = tracer

    def __call__(self, config):
        tracer = self._tracer
        index = tracer.counts["analysis.stop"]
        start = perf_counter()
        hit = self._predicate(config)
        tracer.record(tracer._open(), "analysis.stop", start, perf_counter(), tracer._parent)
        if hit:
            tracer.counts["analysis.stop_hits"] += 1
        if index in tracer.sample_at:
            # at most a few copies per trial; their cost lands in the run
            # loop's self time and is far below its run-to-run spread
            tracer.sample.append(config.copy())
        return hit
