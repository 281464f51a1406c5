"""Per-query tracing and the slow-query log.

A :class:`QueryTrace` records what one query (or one fused batch) did at
each stage of the two-phase pipeline (section 4 of the paper): sketch
construction, the filtering scan (including cache hits), candidate-set
size, optional
cascade pruning, and exact-distance ranking.  The filtering/ranking cost
split is exactly the knob the paper tunes, so the trace makes the
trade-off visible per query instead of only in offline benchmarks.

A :class:`TraceRecorder` owns the per-engine tracing state: the on/off
switch (tracing builds a trace object per query, so it is opt-in), the
last completed trace, and a bounded ring-buffer :class:`SlowQueryLog`.
The slow-query log is always armed — even with tracing off the engine
measures one total-time pair per query, so queries over the threshold
are never missed — but entries carry stage detail only when tracing was
on when they ran.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from . import context as _context

__all__ = ["QueryTrace", "SlowQueryLog", "TraceRecorder"]


class QueryTrace:
    """Stage timings and cardinalities of one query (or fused batch).

    ``stages`` maps stage name to seconds; ``counts`` maps cardinality
    name (``candidates``, ``distance_evals``, ``cache_hits``, ...) to an
    integer.  ``note`` records which scan path answered the filter stage
    (``serial``, ``index``, ``cache``).  ``spans`` holds named child
    spans (the ranking phase's bound/solve split, a coordinator's
    scatter and gather) so a trace shows *where* a stage's time went
    instead of one opaque total.
    Traces are built single-threaded inside one query call; only the
    completed, immutable result is shared.
    """

    __slots__ = (
        "method", "num_queries", "started_at", "total_seconds",
        "stages", "counts", "notes", "spans",
    )

    def __init__(self, method: str, num_queries: int = 1) -> None:
        self.method = method
        self.num_queries = num_queries
        self.started_at = time.time()
        self.total_seconds = 0.0
        self.stages: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.notes: Dict[str, str] = {}
        self.spans: List[Dict[str, object]] = []

    # -- building --------------------------------------------------------
    def add_stage(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def add_count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def note(self, name: str, value: str) -> None:
        self.notes[name] = value

    def add_span(self, name: str, **seconds: float) -> None:
        """Attach a named child span with per-phase timings (seconds).

        E.g. ``trace.add_span("rank", bound=..., solve=...)`` for the
        ranking cascade's bound/solve split.
        """
        span: Dict[str, object] = {"name": name}
        for key, value in seconds.items():
            span[key] = float(value)
        self.spans.append(span)

    class _StageTimer:
        __slots__ = ("_trace", "_name", "_started")

        def __init__(self, trace: "QueryTrace", name: str) -> None:
            self._trace = trace
            self._name = name

        def __enter__(self) -> "QueryTrace._StageTimer":
            self._started = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb) -> None:
            self._trace.add_stage(
                self._name, time.perf_counter() - self._started
            )

    def stage(self, name: str) -> "QueryTrace._StageTimer":
        """Context manager timing one stage: ``with trace.stage("rank"):``."""
        return QueryTrace._StageTimer(self, name)

    # -- rendering -------------------------------------------------------
    def lines(self) -> List[str]:
        """Stable ``key value`` lines (the ``trace`` command's payload)."""
        return _context.trace_lines(self.to_dict())

    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "queries": self.num_queries,
            "started_at": self.started_at,
            "total_seconds": self.total_seconds,
            "stages": dict(self.stages),
            "counts": dict(self.counts),
            "notes": dict(self.notes),
            "spans": [dict(span) for span in self.spans],
        }


class SlowQueryLog:
    """Bounded ring buffer of the most recent over-threshold queries.

    ``threshold_seconds`` is the slowness cutoff; ``capacity`` bounds
    memory (oldest entries fall off).  Thread-safe.
    """

    def __init__(self, capacity: int = 64, threshold_seconds: float = 0.5) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.threshold_seconds = float(threshold_seconds)
        self._lock = threading.Lock()
        self._entries: Deque[QueryTrace] = deque(maxlen=capacity)
        self._total_recorded = 0

    def offer(self, trace: QueryTrace) -> bool:
        """Record ``trace`` if it crossed the threshold; True if kept."""
        if trace.total_seconds < self.threshold_seconds:
            return False
        with self._lock:
            self._entries.append(trace)
            self._total_recorded += 1
        return True

    def entries(self) -> List[QueryTrace]:
        with self._lock:
            return list(self._entries)

    @property
    def total_recorded(self) -> int:
        """Slow queries seen since startup (including ones rotated out)."""
        with self._lock:
            return self._total_recorded

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class TraceRecorder:
    """Per-engine tracing state: switch, last trace, slow-query log.

    ``begin`` returns a fresh :class:`QueryTrace` when tracing is on and
    ``None`` otherwise, so instrumented code guards per-stage work with
    one ``is not None`` check.  ``finish`` stamps the total time,
    publishes the trace as :attr:`last`, and offers it to the slow log.
    The engine also calls :meth:`observe_total` for untraced queries so
    the slow-query log still catches them (with a minimal trace).

    The recorder also owns a :class:`~repro.observability.profiler.
    SamplingProfiler`: idle until started (``setparam profile on``), but
    with :attr:`auto_profile` set (the default) every query that lands
    in the slow-query log additionally triggers one immediate stack
    capture of all threads — so even without continuous sampling, a slow
    query leaves behind the stacks the process was running when it was
    detected.
    """

    def __init__(
        self,
        enabled: bool = False,
        slow_log_capacity: int = 64,
        slow_threshold_seconds: float = 0.5,
    ) -> None:
        from .profiler import SamplingProfiler

        self.enabled = enabled
        self.slow_log = SlowQueryLog(slow_log_capacity, slow_threshold_seconds)
        self.profiler = SamplingProfiler()
        self.auto_profile = True
        self._lock = threading.Lock()
        self._last: Optional[QueryTrace] = None

    # -- switches --------------------------------------------------------
    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def set_slow_threshold(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError("slow-query threshold must be positive")
        self.slow_log.threshold_seconds = float(seconds)

    # -- trace lifecycle -------------------------------------------------
    def begin(self, method: str, num_queries: int = 1) -> Optional[QueryTrace]:
        if not self.enabled:
            # A propagated trace context (the ``trace=`` wire argument,
            # see repro.observability.context) forces tracing for this
            # query even with the local switch off: sampling is the
            # caller's decision, made once at the edge.
            ctx = _context.current()
            if ctx is None or not ctx.sampled:
                return None
        return QueryTrace(method, num_queries)

    def finish(self, trace: QueryTrace, total_seconds: float) -> QueryTrace:
        trace.total_seconds = total_seconds
        with self._lock:
            self._last = trace
        # Deliver to the thread's active trace context (if any) so the
        # command layer can piggyback the span tree on its reply.
        _context.collect(trace)
        if self.slow_log.offer(trace):
            self._capture_slow()
        return trace

    def observe_total(
        self, method: str, num_queries: int, total_seconds: float
    ) -> None:
        """Untraced query completed: feed the slow log if over threshold."""
        if total_seconds < self.slow_log.threshold_seconds:
            return
        trace = QueryTrace(method, num_queries)
        trace.total_seconds = total_seconds
        trace.note("detail", "untraced")
        if self.slow_log.offer(trace):
            self._capture_slow()

    def _capture_slow(self) -> None:
        """A slow query just landed: grab one stack sample of the whole
        process (the offending thread is still inside the query path)."""
        if self.auto_profile:
            self.profiler.capture_slow()

    @property
    def last(self) -> Optional[QueryTrace]:
        with self._lock:
            return self._last

    def clear(self) -> None:
        with self._lock:
            self._last = None
        self.slow_log.clear()
